"""Event-driven simulator: record invariants, dual replay, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegraph_box import (
    Boundary,
    IdentityViolation,
    MaxPhasesExceeded,
    ModelParams,
    PhaseRecord,
    RandomSource,
    ReversalCapExceeded,
    SwitchingProb,
    dual_representation_check,
    expected_absorption_time,
    phase_probabilities,
    simulate_phase,
    simulate_until_absorption,
)
from telegraph_box import simulate
from telegraph_box.simulate import _run_absorption, _run_phases

P121 = ModelParams(1.0, 2.0, 1.0)
P255 = ModelParams(2.0, 0.5, 5.0)
PEQ = ModelParams(0.5, 0.5, 10.0)

seeds = st.integers(min_value=0, max_value=2**31)


def test_simulate_phase_is_deterministic():
    a = simulate_phase(Boundary.ORIGIN, P121, RandomSource(5, 0))
    b = simulate_phase(Boundary.ORIGIN, P121, RandomSource(5, 0))
    assert a == b
    c = simulate_phase(Boundary.ORIGIN, P121, RandomSource(5, 1))
    assert c != a


@given(seeds, st.sampled_from([Boundary.ORIGIN, Boundary.LEVEL]))
@settings(max_examples=200, deadline=None)
def test_phase_record_invariants(seed, start):
    ph = simulate_phase(start, P121, RandomSource(seed, 0))
    assert ph.start is start
    assert ph.end in (Boundary.ORIGIN, Boundary.LEVEL)
    assert ph.duration > 0.0
    assert ph.n_switches == len(ph.ups) + len(ph.downs) - 1
    assert 0.0 <= ph.final_cut
    # alternation bookkeeping: the first sojourn leaves the start boundary
    # and the truncated one enters the end boundary
    if start is Boundary.ORIGIN:
        crossing = ph.end is Boundary.LEVEL
        assert len(ph.ups) == len(ph.downs) + (1 if crossing else 0)
    else:
        crossing = ph.end is Boundary.ORIGIN
        assert len(ph.downs) == len(ph.ups) + (1 if crossing else 0)
    # duration decomposes into the complete sojourns plus the cut of the
    # last draw, which points at the end boundary
    if ph.end is Boundary.LEVEL:
        assert ph.final_cut <= ph.ups[-1]
        whole = sum(ph.ups[:-1]) + sum(ph.downs)
    else:
        assert ph.final_cut <= ph.downs[-1]
        whole = sum(ph.ups) + sum(ph.downs[:-1])
    assert abs(ph.duration - (whole + ph.final_cut)) < 1e-12 * max(1.0, ph.duration)


def test_phase_draws_pairs():
    ph = simulate_phase(Boundary.ORIGIN, P121, RandomSource(12, 0))
    pairs = ph.draws
    assert len(pairs) == len(ph.ups)
    flat_u = [u for u, _ in pairs]
    flat_d = [d for _, d in pairs if d != 0.0]
    assert tuple(flat_u) == ph.ups
    assert tuple(flat_d) == ph.downs


@given(seeds, st.sampled_from([Boundary.ORIGIN, Boundary.LEVEL]),
       st.sampled_from([0, 1, 2]))
@settings(max_examples=300, deadline=None)
def test_dual_replay_confirms_every_phase(seed, start, which):
    p = (P121, P255, PEQ)[which]
    ph = simulate_phase(start, p, RandomSource(seed, 3))
    chk = dual_representation_check(ph, p)
    assert chk.identity_residual < 1e-9 * max(1.0, ph.duration)
    # zero only when a level start reaches the origin on its first descent
    assert chk.t_stop >= 0.0


def test_dual_replay_rejects_tampered_duration():
    ph = simulate_phase(Boundary.ORIGIN, P121, RandomSource(3, 0))
    bad = PhaseRecord(ph.start, ph.end, ph.duration * 1.5, ph.n_switches,
                      ph.ups, ph.downs, ph.final_cut)
    with pytest.raises(IdentityViolation):
        dual_representation_check(bad, P121)


def test_dual_replay_rejects_tampered_end():
    ph = simulate_phase(Boundary.ORIGIN, P121, RandomSource(3, 0))
    flipped = Boundary.ORIGIN if ph.end is Boundary.LEVEL else Boundary.LEVEL
    bad = PhaseRecord(ph.start, flipped, ph.duration, ph.n_switches,
                      ph.ups, ph.downs, ph.final_cut)
    with pytest.raises(IdentityViolation):
        dual_representation_check(bad, P121)


def test_dual_replay_rejects_extra_draws():
    ph = simulate_phase(Boundary.ORIGIN, P121, RandomSource(3, 0))
    bad = PhaseRecord(ph.start, ph.end, ph.duration, ph.n_switches,
                      ph.ups + (5.0,), ph.downs + (4.0, 4.0), ph.final_cut)
    with pytest.raises(IdentityViolation):
        dual_representation_check(bad, P121)


def test_dual_replay_rejects_a_record_without_draws():
    ph = simulate_phase(Boundary.ORIGIN, P121, RandomSource(3, 0))
    bad = PhaseRecord(ph.start, ph.end, ph.duration, ph.n_switches, (), (), ph.final_cut)
    with pytest.raises(IdentityViolation, match="dual walk never crossed a boundary"):
        dual_representation_check(bad, P121)


# A scalar phase takes n_switches + 1 draws: a cap of that many runs it
# unchanged, and one fewer raises the error, which names the cap.
def test_scalar_phase_stops_at_the_reversal_cap(monkeypatch):
    ph = simulate_phase(Boundary.ORIGIN, P255, RandomSource(4, 0))
    draws = ph.n_switches + 1
    assert draws > 2
    monkeypatch.setattr(simulate, "_REVERSAL_CAP", draws)
    assert simulate_phase(Boundary.ORIGIN, P255, RandomSource(4, 0)) == ph
    monkeypatch.setattr(simulate, "_REVERSAL_CAP", draws - 1)
    with pytest.raises(ReversalCapExceeded, match=f"^reversal cap of {draws - 1} reached"):
        simulate_phase(Boundary.ORIGIN, P255, RandomSource(4, 0))


@given(seeds)
@settings(max_examples=100, deadline=None)
def test_absorption_path_chains_phases(seed):
    path = simulate_until_absorption(P121, SwitchingProb(0.5), RandomSource(seed, 0))
    assert path.m == len(path.phases) >= 1
    assert path.phases[0].start is Boundary.ORIGIN
    for a, b in zip(path.phases, path.phases[1:]):
        assert b.start is a.end
    assert path.absorbed_at is path.phases[-1].end
    total = sum(ph.duration for ph in path.phases)
    assert math.isclose(path.total_time, total, rel_tol=1e-12)


def test_absorption_alpha_one_takes_one_phase():
    for seed in range(20):
        path = simulate_until_absorption(P121, SwitchingProb(1.0), RandomSource(seed, 0))
        assert path.m == 1


def test_absorption_respects_phase_budget():
    with pytest.raises(MaxPhasesExceeded):
        simulate_until_absorption(P121, SwitchingProb(1e-9), RandomSource(0, 0),
                                  max_phases=5)


def test_vector_phases_deterministic_and_consistent():
    end, dur, nsw, t_stop, y_stop = _run_phases(
        Boundary.ORIGIN, P121, RandomSource(21, 0), 4000)
    end2, dur2, *_ = _run_phases(Boundary.ORIGIN, P121, RandomSource(21, 0), 4000)
    assert np.array_equal(end, end2) and np.array_equal(dur, dur2)
    assert dur.min() > 0.0 and nsw.min() >= 0
    # dual identities, vector form: C = 2T - H on upward crossings (the
    # stored t already carries the offset), C = 2T on returns
    h = P121.effective_level
    up = end
    res_up = np.abs(dur[up] - (2.0 * y_stop[up] + h))
    res_dn = np.abs(dur[~up] - 2.0 * t_stop[~up])
    assert np.abs(t_stop[up] - y_stop[up] - h).max() < 1e-12 * max(1.0, h)
    assert np.all(y_stop[~up] >= t_stop[~up])
    assert res_up.max() < 1e-9 * max(1.0, dur.max())
    assert res_dn.max() < 1e-9 * max(1.0, dur.max())


def test_vector_phases_match_closed_frequencies_loosely():
    n = 40000
    end, dur, _, _, _ = _run_phases(Boundary.ORIGIN, P121, RandomSource(2, 0), n)
    p0h_hat = end.mean()
    assert abs(p0h_hat - 0.6126998367802821) < 5.0 * math.sqrt(0.25 / n)
    m0h_hat = (dur * end).mean()
    assert abs(m0h_hat - 0.7683235952285826) < 5.0 * dur.std() / math.sqrt(n)


def test_vector_absorption_deterministic_and_sane():
    m, total, alevel = _run_absorption(P121, SwitchingProb(0.5), RandomSource(4, 0), 20000)
    m2, total2, alevel2 = _run_absorption(P121, SwitchingProb(0.5), RandomSource(4, 0), 20000)
    assert np.array_equal(m, m2) and np.array_equal(total, total2)
    assert np.array_equal(alevel, alevel2)
    assert m.min() >= 1 and total.min() > 0.0
    # m is geometric(alpha): mean 2, sd sqrt(2)
    assert abs(m.mean() - 2.0) < 5.0 * math.sqrt(2.0 / m.size)


def test_vector_absorption_alpha_one():
    m, total, _ = _run_absorption(P121, SwitchingProb(1.0), RandomSource(4, 0), 500)
    assert np.all(m == 1)
    assert total.min() > 0.0


# About 50 and 20 phases per path, so nearly every lane restarts many
# times in one kernel call; the alpha = 1 run restarts none.
@pytest.mark.parametrize("case", [(1.0, 2.0, 1.0, 0.02), (0.3, 3.0, 2.0, 0.05)])
def test_restart_heavy_absorption_matches_closed_forms(case):
    n, z_max = 2 ** 16, 4.0
    p, alpha = ModelParams(*case[:3]), case[3]
    m, total, _ = _run_absorption(p, SwitchingProb(alpha), RandomSource(12, 0), n)
    assert m.min() >= 1
    eta = expected_absorption_time(p, SwitchingProb(alpha)).expected_absorption_time
    for x, mean in ((m, 1.0 / alpha), (total, eta)):
        assert abs(x.mean() - mean) < z_max * x.std(ddof=1) / math.sqrt(n), (case, mean)
    m, _, at_level = _run_absorption(p, SwitchingProb(1.0), RandomSource(12, 1), n)
    assert np.all(m == 1)
    p0h = phase_probabilities(p).p0h
    assert abs(at_level.mean() - p0h) < z_max * math.sqrt(p0h * (1.0 - p0h) / n)


# At (5,5,20), r*H = 100: a phase averages about 100 rounds with a tail
# past 10^4, so nearly every lane stops inside a round block of its own.
# No acceptance criterion reaches this regime (their r*H is at most 5).
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_round_blocks_match_closed_forms_at_high_reversal(start):
    n, z_max = 2 ** 16, 4.0
    p = ModelParams(5.0, 5.0, 20.0)
    h = p.effective_level
    end, dur, nsw, t_stop, y_stop = _run_phases(start, p, RandomSource(13, 0), n)
    assert nsw.min() >= 0
    # the last draw points at the wall hit, and draws alternate from the
    # first, which leaves the start
    origin = start is Boundary.ORIGIN
    assert np.array_equal(end, (nsw % 2 == 0) == origin)
    pm = phase_probabilities(p)
    want = pm.p0h if start is Boundary.ORIGIN else pm.phh
    assert abs(end.mean() - want) < z_max * math.sqrt(want * (1.0 - want) / n)
    # dual identity on every path: C = 2T on returns, 2T - H on a crossing
    # from the origin (t_stop carries the offset), 2T + H from the level
    crossing = end == origin
    offset = np.where(crossing, -h if origin else h, 0.0)
    assert np.all(np.abs(dur - (2.0 * t_stop + offset)) < 1e-9 * np.maximum(1.0, dur))
    if origin:
        assert np.all(np.abs(t_stop[end] - y_stop[end] - h) < 1e-12 * h)
