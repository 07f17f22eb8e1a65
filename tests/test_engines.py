"""Pins of the array simulation engines.

The SHA-256 digests below were frozen from the engines' outputs and guard
the draw stream: every estimate in `montecarlo` is a function of these
arrays, so any change to the order, count or arithmetic of the draws
shows up here first.  A deliberate draw-order change must update the
digests and say so in CHANGES.md.  The digests also depend on numpy's
generator and the platform's math library, so a numpy upgrade may move
them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from telegraph_box import (
    Boundary,
    MaxPhasesExceeded,
    ModelParams,
    RandomSource,
    ReversalCapExceeded,
    SwitchingProb,
)
from telegraph_box import simulate
from telegraph_box.simulate import _run_absorption, _run_phases

N = 4096
SEEDS = (7, 8)

# (lam, mu, H): phase runs do not depend on alpha
PHASE_CASES = ((1.0, 2.0, 1.0), (5.0, 5.0, 20.0))
# (lam, mu, H, alpha)
ABSORPTION_CASES = ((1.0, 2.0, 1.0, 0.5), (5.0, 5.0, 20.0, 1.0), (1.0, 2.0, 1.0, 0.02))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# (origin start, level start) per (case, seed)
PHASE_DIGESTS = {
    ((1.0, 2.0, 1.0), 7): (
        '569b8978704330863897af0fa3cafe8173af20088848ac84d1491cda81c42b6b',
        '91d16201eecafa2bdff2dea56e5c5acf4159fcfc87f36cb1d3ce46df52777e10',
    ),
    ((1.0, 2.0, 1.0), 8): (
        'c6069f3a9b1b61ec7f465f91b80fc0eccc4bfa7f88d7f12f01e17aa6aa79b389',
        '737c2d9a342dad8b2081cbf8e7f79cf67380446664711f5b5e1d6caae5939210',
    ),
    ((5.0, 5.0, 20.0), 7): (
        '581447f3ebe7bccb9b2e6ce1e6737d6d68b6f59b9c0e981bec7fd12b1821bdb4',
        'd955964b638b1b48d9e541fbd432d37c0632c7e832abd1d40494dbaa9f34a87e',
    ),
    ((5.0, 5.0, 20.0), 8): (
        '3bebf43391da6e6a1a0aa40572445c1ec98a32b3a96a568f6a80a672b795f232',
        '8baaf48abb78c9e53d52e3a31f554504d5ad13ce8017892df059835c645e3133',
    ),
}

ABSORPTION_DIGESTS = {
    ((1.0, 2.0, 1.0, 0.5), 7): '59ec5cc1b10fea1e49f13ec7d9d336b338fc70644900205f3f223e26c9f14e66',
    ((1.0, 2.0, 1.0, 0.5), 8): '474a40d4a5719972f091ac60f879159bb11436f68380f907cd830b3a0ccc3ef3',
    ((5.0, 5.0, 20.0, 1.0), 7): 'b45ab968e77877fc595795cc60f914ed9e58c92aa8eaedbae46456b15025d5c7',
    ((5.0, 5.0, 20.0, 1.0), 8): 'ebce497eb0f53d4354fd8e6539e38c3bcef46c9397404403cfeb4f20a8e810de',
    ((1.0, 2.0, 1.0, 0.02), 7): 'ba7e6bb0c78da2d57a203a878f263211649426533151b2a58e6690d83f47e8ec',
    ((1.0, 2.0, 1.0, 0.02), 8): 'e9bd9b0bf2e868f88787ce53fbb0d115f9f018ca628e3c7ff384f32bfde532ec',
}


@pytest.mark.parametrize("case", PHASE_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_phase_engine_outputs_are_pinned(case, seed):
    p = ModelParams(*case)
    got = (
        _digest(_run_phases(Boundary.ORIGIN, p, RandomSource(seed, 0), N)),
        _digest(_run_phases(Boundary.LEVEL, p, RandomSource(seed, 1), N)),
    )
    assert got == PHASE_DIGESTS[case, seed]


@pytest.mark.parametrize("case", ABSORPTION_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_absorption_engine_outputs_are_pinned(case, seed):
    lam, mu, h, alpha = case
    out = _run_absorption(ModelParams(lam, mu, h), SwitchingProb(alpha),
                          RandomSource(seed, 2), N)
    assert _digest(out) == ABSORPTION_DIGESTS[case, seed]


def test_array_absorption_respects_phase_budget():
    with pytest.raises(MaxPhasesExceeded):
        _run_absorption(ModelParams(1.0, 2.0, 1.0), SwitchingProb(0.02),
                        RandomSource(0, 0), N, max_phases=1)


def test_array_absorption_budget_is_checked_before_any_phase():
    # the phase counts come first, so the budget is exactly the largest
    # of them, and a smaller one raises with only those counts drawn
    p, s = ModelParams(1.0, 2.0, 1.0), SwitchingProb(0.02)
    m = _run_absorption(p, s, RandomSource(0, 0), N)[0]
    out = _run_absorption(p, s, RandomSource(0, 0), N, max_phases=int(m.max()))
    assert np.array_equal(out[0], m)
    counts_only = RandomSource(0, 0)
    counts_only.gen.geometric(s.alpha, N)
    for budget in (int(m.max()) - 1, 1):
        rng = RandomSource(0, 0)
        with pytest.raises(MaxPhasesExceeded):
            _run_absorption(p, s, rng, N, max_phases=budget)
        assert rng.gen.bit_generator.state == counts_only.gen.bit_generator.state


# Digests of an engine's outputs plus the next 8 uniforms its generator
# gives afterwards, frozen on the per-round kernel.  The kernel may draw
# ahead and rewind the generator; these pin that every rewind leaves the
# generator exactly where the per-round kernel left it.  The n = 64 cases
# at (5,5,20) spend almost every round in the few-lane tail.
# (engine, case, start or alpha, n, seed) -> digest
STREAM_DIGESTS = {
    ("phases", (5.0, 5.0, 20.0), "origin", 64, 7):
        '2a91c303bca16e130a38c80b8e1e1e02d9eb53551261e8d15f3e5ad56084cf3c',
    ("phases", (5.0, 5.0, 20.0), "level", 64, 8):
        'f94a05c9f1c484da2cdc711b16e3b02bb2ada94582739266e6d7b5fabf04f169',
    ("phases", (1.0, 2.0, 1.0), "origin", N, 7):
        '543d02c1db3935e3cb3146cf8bad49ccb3b4282e0d261200c30740c9b9fc2418',
    ("phases", (5.0, 5.0, 20.0), "level", N, 8):
        '074a764f91e1c75cfcebc1f98141834c828c72c6d4fead17c3976b4c588a8b1b',
    ("absorption", (5.0, 5.0, 20.0), 1.0, 64, 7):
        'bd9a676e977832741b141ffc97858ab6b14e63b291568229e5686088b5c0636e',
    ("absorption", (5.0, 5.0, 20.0), 1.0, N, 8):
        'f8bad8b5b62efaced9e6450f17e352843bbd42c4edd31a3181ab706e457ce357',
    ("absorption", (1.0, 2.0, 1.0), 0.5, N, 7):
        'd9155ec9bb259c44d7efe952a5b66906f1e363f2e30acd61f65fd60e2b244ec5',
    ("absorption", (1.0, 2.0, 1.0), 0.02, N, 8):
        'fa6b68d5b427a2afa3a0ae1356ded72f7ea42b042fd4d33cb07ea2516db7cdb0',
}


def _run(engine, case, arg, n, rng):
    p = ModelParams(*case)
    if engine == "phases":
        start = Boundary.ORIGIN if arg == "origin" else Boundary.LEVEL
        return _run_phases(start, p, rng, n)
    return _run_absorption(p, SwitchingProb(arg), rng, n)


@pytest.mark.parametrize("key", list(STREAM_DIGESTS), ids=str)
def test_engine_outputs_and_generator_position_are_pinned(key):
    engine, case, arg, n, seed = key
    rng = RandomSource(seed, 4)
    out = _run(engine, case, arg, n, rng)
    assert _digest((*out, rng.gen.random(8))) == STREAM_DIGESTS[key]


def test_round_blocks_with_restarts_match_the_per_round_kernel(monkeypatch):
    # at (5,5,20,0.1) the 64 lanes draw a few hundred round blocks while
    # most of them restart; with blocks switched off every round draws alone
    def run():
        rng = RandomSource(3, 9)
        out = _run_absorption(ModelParams(5.0, 5.0, 20.0), SwitchingProb(0.1), rng, 64)
        return _digest((*out, rng.gen.random(8)))

    blocks = run()
    monkeypatch.setattr(simulate, "_BLOCK_MIN", 10 ** 9)
    assert run() == blocks


BUFFERED_DIGEST = '0ad9d058739ee0f52bf5b085e2cf0fff54631ba831cc684cc14e365d3513ee71'


def test_engine_keeps_a_buffered_half_word():
    # a 32-bit draw before the run leaves half a 64-bit word buffered in
    # the bit generator; the next 32-bit draws after the run must use it
    rng = RandomSource(9, 5)
    head = rng.gen.integers(2 ** 32, dtype=np.uint32)
    out = _run_phases(Boundary.ORIGIN, ModelParams(5.0, 5.0, 20.0), rng, 64)
    tail = rng.gen.integers(2 ** 32, size=8, dtype=np.uint32)
    assert _digest((np.atleast_1d(head), *out, tail)) == BUFFERED_DIGEST


def test_reversal_cap_bounds_every_round(monkeypatch):
    key = ("phases", (5.0, 5.0, 20.0), "origin", 64, 7)
    _, case, arg, n, seed = key
    rounds = int(_run("phases", case, arg, n, RandomSource(seed, 4))[2].max()) + 1
    for cap in (1, rounds // 2, rounds - 1):
        monkeypatch.setattr(simulate, "_REVERSAL_CAP", cap)
        with pytest.raises(ReversalCapExceeded):
            _run("phases", case, arg, n, RandomSource(seed, 4))
    for cap in (rounds, rounds + 9):
        monkeypatch.setattr(simulate, "_REVERSAL_CAP", cap)
        rng = RandomSource(seed, 4)
        out = _run("phases", case, arg, n, rng)
        assert _digest((*out, rng.gen.random(8))) == STREAM_DIGESTS[key]


# The scalar reference engine and the lane kernel run on one lane take the
# same draws in the same order, so they agree bit for bit, down to where
# they leave the generator.  (0.3, 3, 2) and (3, 0.3, 2) put either
# direction ahead; at (5, 5, 20) the kernel draws round blocks.
SCALAR_CASES = ((1.0, 2.0, 1.0), (5.0, 5.0, 20.0), (0.3, 3.0, 2.0), (3.0, 0.3, 2.0),
                (2.0, 1.0, 0.1))


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_scalar_phase_matches_the_lane_kernel(case, start):
    p = ModelParams(*case)
    for i in range(200):
        scalar, lanes = RandomSource(3, i), RandomSource(3, i)
        ph = simulate.simulate_phase(start, p, scalar)
        end, duration, n_switches, _, _ = _run_phases(start, p, lanes, 1)
        assert (ph.end is Boundary.LEVEL, ph.duration, ph.n_switches) == (
            bool(end[0]), float(duration[0]), int(n_switches[0])), (case, start, i)
        assert scalar.gen.bit_generator.state == lanes.gen.bit_generator.state


@pytest.mark.parametrize("case", ABSORPTION_CASES)
def test_scalar_absorption_matches_the_lane_kernel(case):
    lam, mu, h, alpha = case
    p, s = ModelParams(lam, mu, h), SwitchingProb(alpha)
    for i in range(100):
        scalar, lanes = RandomSource(4, i), RandomSource(4, i)
        path = simulate.simulate_until_absorption(p, s, scalar)
        m, total, at_level = _run_absorption(p, s, lanes, 1)
        assert (path.m, path.total_time, path.absorbed_at is Boundary.LEVEL) == (
            int(m[0]), float(total[0]), bool(at_level[0])), (case, i)
        assert scalar.gen.bit_generator.state == lanes.gen.bit_generator.state
