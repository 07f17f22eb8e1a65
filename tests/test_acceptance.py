"""Acceptance suite: eleven numbered criteria, one summary line each.

Every test computes its own pass flag plus a short detail string, then
registers both through the `criterion` fixture so the terminal summary
shows one line per criterion alongside the usual pytest verdicts.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from telegraph_box import (
    Boundary,
    ModelParams,
    RandomSource,
    SwitchingProb,
    conditional_cycle_means,
    conditional_hit_prob,
    dual_representation_check,
    expected_absorption_time,
    expected_cycles,
    expected_length_L,
    expected_truncated_times,
    matrix_power,
    phase_probabilities,
    simulate_phase,
    transform_from_origin,
)
from telegraph_box.simulate import _run_absorption, _run_phases

P121 = ModelParams(1.0, 2.0, 1.0)
PEQ = ModelParams(0.5, 0.5, 10.0)
P255 = ModelParams(2.0, 0.5, 5.0)
SETS = (P121, PEQ, P255)

N_PHASES = 10 ** 6
N_PATHS = 10 ** 6
SEED = 20250819


class PhaseRuns(NamedTuple):
    end_o: np.ndarray   # origin starts: True when the phase ended at H
    dur_o: np.ndarray
    t_o: np.ndarray     # dual stopping times
    y_o: np.ndarray     # dual jump totals at the stop
    end_h: np.ndarray   # level starts: True when the phase ended at H
    dur_h: np.ndarray
    t_h: np.ndarray
    y_h: np.ndarray
    elapsed: float


@pytest.fixture(scope="module")
def runs():
    out = {}
    for k, p in enumerate(SETS):
        t0 = time.perf_counter()
        end_o, dur_o, _, ts_o, ys_o = _run_phases(
            Boundary.ORIGIN, p, RandomSource(SEED, 2 * k), N_PHASES)
        end_h, dur_h, _, ts_h, ys_h = _run_phases(
            Boundary.LEVEL, p, RandomSource(SEED, 2 * k + 1), N_PHASES)
        elapsed = time.perf_counter() - t0
        out[p] = PhaseRuns(end_o, dur_o, ts_o, ys_o,
                           end_h, dur_h, ts_h, ys_h, elapsed)
    return out


def test_criterion_01_phase_frequencies(runs, criterion):
    worst_z = 0.0
    slowest = 0.0
    for p in SETS:
        r = runs[p]
        pm = phase_probabilities(p)
        slowest = max(slowest, r.elapsed)
        for ref, hat in ((pm.p0h, r.end_o.mean()), (pm.phh, r.end_h.mean())):
            se = math.sqrt(ref * (1.0 - ref) / N_PHASES)
            worst_z = max(worst_z, abs(hat - ref) / se,
                          abs((1.0 - hat) - (1.0 - ref)) / se)
    ok = worst_z < 4.0 and slowest < 60.0
    detail = (f"max |z| = {worst_z:.2f} over 3 sets x 4 entries at 1e6 phases "
              f"(gate 4); slowest set {slowest:.1f} s (gate 60 s)")
    assert criterion(1, "phase frequencies", ok, detail), detail


def test_criterion_02_cycle_means(runs, criterion):
    worst_z = 0.0
    for p in SETS:
        r = runs[p]
        cm = expected_cycles(p)
        for ref, vals in (
                (cm.m00, r.dur_o * ~r.end_o), (cm.m0h, r.dur_o * r.end_o),
                (cm.mh0, r.dur_h * ~r.end_h), (cm.mhh, r.dur_h * r.end_h)):
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            worst_z = max(worst_z, abs(vals.mean() - ref) / se)
    # equal rates: unconditional phase duration from the origin has mean H
    req = runs[PEQ]
    se = req.dur_o.std(ddof=1) / math.sqrt(req.dur_o.size)
    z_sum = abs(req.dur_o.mean() - PEQ.h) / se
    ok = worst_z < 4.0 and z_sum < 4.0
    detail = (f"max |z| = {worst_z:.2f} over 12 cycle means; "
              f"equal-rate m00+m0H vs H: |z| = {z_sum:.2f} (gate 4)")
    assert criterion(2, "unconditional cycle means", ok, detail), detail


def test_criterion_03_dual_identity(runs, criterion):
    r = runs[P121]
    h = P121.effective_level
    counts = {}
    violations = 0
    worst = 0.0
    # returning phases satisfy C = 2T, crossings pick up the level offset
    for mask, dur, t, kind, pred in (
            (~r.end_o, r.dur_o, r.t_o, "00", lambda d, t: 2.0 * t),
            (r.end_o, r.dur_o, r.t_o, "0H", lambda d, t: 2.0 * t - h),
            (r.end_h, r.dur_h, r.t_h, "HH", lambda d, t: 2.0 * t),
            (~r.end_h, r.dur_h, r.t_h, "H0", lambda d, t: 2.0 * t + h)):
        d, tt = dur[mask], t[mask]
        res = np.abs(d - pred(d, tt))
        rel = res / np.maximum(1.0, d)
        counts[kind] = d.size
        violations += int((rel >= 1e-9).sum())
        worst = max(worst, float(rel.max()))
    # the record-level replay API must agree on freshly drawn phases
    rng_o, rng_h = RandomSource(SEED, 900), RandomSource(SEED, 901)
    for _ in range(1000):
        dual_representation_check(simulate_phase(Boundary.ORIGIN, P121, rng_o), P121)
        dual_representation_check(simulate_phase(Boundary.LEVEL, P121, rng_h), P121)
    enough = all(c >= 10 ** 5 for c in counts.values())
    ok = enough and violations == 0
    detail = (f"counts {counts} (each >= 1e5), violations = {violations}, "
              f"worst residual = {worst:.2e} (gate 1e-9)")
    assert criterion(3, "per-path dual identity", ok, detail), detail


def test_criterion_04_wald_means(runs, criterion):
    r = runs[P121]
    lam, mu = P121.lam, P121.mu
    worst_z = 0.0
    for theta in (mu / 2.0, -1.0):
        w = np.exp(theta * r.y_o - lam * r.t_o * theta / (mu - theta))
        se = w.std(ddof=1) / math.sqrt(w.size)
        worst_z = max(worst_z, abs(w.mean() - 1.0) / se)
    ok = worst_z < 4.0
    detail = f"max |z| = {worst_z:.2f} for theta in {{mu/2, -1}} (gate 4)"
    assert criterion(4, "martingale mean is one", ok, detail), detail


def test_criterion_05_transform_derivatives(criterion):
    step = 1e-5
    worst = 0.0
    for p in SETS:
        tm = expected_truncated_times(p)
        if p.lam == p.mu:
            # omega must stay nonpositive here, so use the one-sided
            # second-order backward stencil
            f0 = transform_from_origin(0.0, p)
            f1 = transform_from_origin(-step, p)
            f2 = transform_from_origin(-2.0 * step, p)
            d00 = (3.0 * f0[0] - 4.0 * f1[0] + f2[0]) / (2.0 * step)
            d0h = (3.0 * f0[1] - 4.0 * f1[1] + f2[1]) / (2.0 * step)
        else:
            hi = transform_from_origin(step, p)
            lo = transform_from_origin(-step, p)
            d00 = (hi[0] - lo[0]) / (2.0 * step)
            d0h = (hi[1] - lo[1]) / (2.0 * step)
        worst = max(worst, abs(d00 - tm.t00) / tm.t00, abs(d0h - tm.t0h) / tm.t0h)
    ok = worst < 1e-6
    detail = f"max relative error = {worst:.2e} over 3 sets (gate 1e-6)"
    assert criterion(5, "transform derivatives match means", ok, detail), detail


def _gauss_legendre(f, b: float) -> float:
    # composite Gauss-Legendre rule over [0, b]: 8 equal panels of 64 nodes
    x, w = np.polynomial.legendre.leggauss(64)
    half = b / 16.0
    return half * sum(wk * f(half * (2 * j + 1 + xk)) for j in range(8)
                      for xk, wk in zip(x, w))


def test_criterion_06_conditional_mixing(criterion):
    worst_p = 0.0
    worst_m = 0.0
    for p in SETS:
        mu, h = p.mu, p.effective_level
        pm = phase_probabilities(p)
        tm = expected_truncated_times(p)
        mix_p = _gauss_legendre(
            lambda x: mu * math.exp(-mu * x) * conditional_hit_prob(x, p), h)
        worst_p = max(worst_p, abs(mix_p + math.exp(-mu * h) - pm.ph0))
        mix_hh = _gauss_legendre(
            lambda x: mu * math.exp(-mu * x) * conditional_cycle_means(x, p)[0], h)
        mix_h0 = _gauss_legendre(
            lambda x: mu * math.exp(-mu * x) * conditional_cycle_means(x, p)[1], h)
        # descents past h consume no up time, so neither mix needs a tail
        worst_m = max(worst_m, abs(mix_hh - tm.thh) / max(abs(tm.thh), 1e-30),
                      abs(mix_h0 - tm.th0) / max(abs(tm.th0), 1e-30))
    ok = worst_p < 1e-10 and worst_m < 1e-9
    detail = (f"probability mix residual = {worst_p:.2e} (gate 1e-10), "
              f"mean mix residual = {worst_m:.2e} (gate 1e-9)")
    assert criterion(6, "conditional-law mixing", ok, detail), detail


def test_criterion_07_absorption_triple(criterion):
    worst_series = 0.0
    worst_z = 0.0
    stream = 100
    for p in SETS:
        for alpha in (0.2, 0.5, 0.8):
            s = SwitchingProb(alpha)
            eta = expected_absorption_time(p, s).expected_absorption_time
            total_series, w, n = 0.0, alpha, 1
            while w * (n + 10.0) > 1e-16 * eta and n < 4000:
                total_series += w * expected_length_L(p, n)
                w *= 1.0 - alpha
                n += 1
            worst_series = max(worst_series, abs(total_series - eta) / eta)
            _, total, _ = _run_absorption(p, s, RandomSource(SEED, stream), N_PATHS)
            stream += 1
            se = total.std(ddof=1) / math.sqrt(total.size)
            worst_z = max(worst_z, abs(total.mean() - eta) / se)
    exact = all(
        expected_absorption_time(p, SwitchingProb(1.0)).expected_absorption_time
        == expected_absorption_time(p, SwitchingProb(1.0)).l1 for p in SETS)
    ok = worst_series < 1e-10 and worst_z < 4.0 and exact
    detail = (f"series gap = {worst_series:.2e} (gate 1e-10), MC max |z| = "
              f"{worst_z:.2f} over 9 runs of 1e6 paths (gate 4), "
              f"alpha=1 exact: {exact}")
    assert criterion(7, "absorption-time triple agreement", ok, detail), detail


def test_criterion_08_spectral_powers(criterion):
    worst = 0.0
    worst_row = 0.0
    for p in SETS:
        pm = phase_probabilities(p)
        m = np.array([[pm.p00, pm.p0h], [pm.ph0, pm.phh]])
        acc = np.eye(2)
        for j in range(0, 51):
            sp = matrix_power(pm, j)
            got = np.array([[sp.p00, sp.p0h], [sp.ph0, sp.phh]])
            worst = max(worst, float(np.abs(got - acc).max()))
            worst_row = max(worst_row, abs(sp.p00 + sp.p0h - 1.0),
                            abs(sp.ph0 + sp.phh - 1.0))
            acc = acc @ m
    ok = worst < 1e-12 and worst_row < 1e-12
    detail = (f"max |spectral - naive| = {worst:.2e} for j <= 50, "
              f"max row-sum defect = {worst_row:.2e} (gates 1e-12)")
    assert criterion(8, "spectral matrix powers", ok, detail), detail


def test_criterion_09_limits(criterion):
    from telegraph_box import ScalingSpec, scaling_sweep

    cm = expected_cycles(ModelParams(2.0, 0.5, 50.0))
    gap = abs(cm.m00 - 4.0 / 3.0) / (4.0 / 3.0)
    spec = ScalingSpec(1.0, 0.5, 1.0,
                       (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0))
    rows = scaling_sweep(spec, 1.0, SwitchingProb(0.5))
    top = rows[len(rows) // 2:]
    mono = all(
        b.ec00 < a.ec00 and b.ec0h < a.ec0h and b.etau < a.etau and b.eta < a.eta
        for a, b in zip(top, top[1:]))
    last = rows[-1]
    small = max(last.ec00, last.ec0h, last.etau, last.eta) < 1e-2
    ok = gap < 1e-6 and mono and small
    detail = (f"deep-level m00 vs 2/(lam-mu): rel gap = {gap:.2e} (gate 1e-6); "
              f"sweep monotone on top half: {mono}, final max = "
              f"{max(last.ec00, last.ec0h, last.etau, last.eta):.2e} (gate 1e-2)")
    assert criterion(9, "deep-level and diffusive limits", ok, detail), detail


def test_criterion_10_trend_reproduction(criterion):
    lams = (0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    mus = lams
    hs = (1.0, 2.0, 5.0, 10.0, 20.0)
    ok_lam = ok_mu = ok_h = True
    # p00 saturates to float 1.0 in corners, so the strict trend is read
    # off the complement p0h while p00 itself must not back off
    for mu in mus:
        for h in hs:
            seq = [phase_probabilities(ModelParams(l, mu, h)) for l in lams]
            ok_lam &= all(a.p0h > b.p0h for a, b in zip(seq, seq[1:]))
            ok_lam &= all(a.p00 <= b.p00 for a, b in zip(seq, seq[1:]))
    for lam in lams:
        for h in hs:
            seq = [phase_probabilities(ModelParams(lam, m, h)) for m in mus]
            ok_mu &= all(a.p0h < b.p0h for a, b in zip(seq, seq[1:]))
            ok_mu &= all(a.p00 >= b.p00 for a, b in zip(seq, seq[1:]))
    for lam in lams:
        for mu in mus:
            seq = [phase_probabilities(ModelParams(lam, mu, h)) for h in hs]
            ok_h &= all(a.p0h > b.p0h for a, b in zip(seq, seq[1:]))
            ok_h &= all(a.p00 <= b.p00 for a, b in zip(seq, seq[1:]))
    ok_alpha = ok_level = True
    for p in SETS:
        etas = [expected_absorption_time(p, SwitchingProb(a)).expected_absorption_time
                for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
        ok_alpha &= all(a > b for a, b in zip(etas, etas[1:]))
    for lam, mu in ((1.0, 2.0), (2.0, 0.5), (0.5, 0.5)):
        etas = [expected_absorption_time(ModelParams(lam, mu, h),
                                         SwitchingProb(0.5)).expected_absorption_time
                for h in hs]
        ok_level &= all(a < b for a, b in zip(etas, etas[1:]))
    fast = expected_absorption_time(ModelParams(1e3, 0.5, 10.0),
                                    SwitchingProb(0.5)).expected_absorption_time
    ok_fast = fast < 0.1
    ok = ok_lam and ok_mu and ok_h and ok_alpha and ok_level and ok_fast
    detail = (f"p00 trends (lam/mu/H): {ok_lam}/{ok_mu}/{ok_h}; absorption "
              f"trends (alpha down, H up): {ok_alpha}/{ok_level}; "
              f"large-rate value = {fast:.2e} (gate 0.1)")
    assert criterion(10, "figure trends", ok, detail), detail


def test_criterion_11_equal_rate_seam(criterion):
    worst = 0.0
    for mu in (0.5, 2.0):
        for h in (1.0, 10.0):
            base = ModelParams(mu, mu, h)
            ref = _all_quantities(base)
            for side in (1.0 - 1e-6, 1.0 + 1e-6):
                near = _all_quantities(ModelParams(mu * side, mu, h))
                for a, b in zip(near, ref):
                    worst = max(worst, abs(a - b) / max(abs(b), 1e-30))
    ok = worst < 1e-4
    detail = (f"max relative gap at lam = mu(1 +/- 1e-6) over 16 quantities "
              f"x 4 points = {worst:.2e} (gate 1e-4)")
    assert criterion(11, "equal-rate seam continuity", ok, detail), detail


def _all_quantities(p: ModelParams) -> tuple[float, ...]:
    pm = phase_probabilities(p)
    tm = expected_truncated_times(p)
    cm = expected_cycles(p)
    rep = expected_absorption_time(p, SwitchingProb(0.5))
    return (pm.p00, pm.p0h, pm.ph0, pm.phh,
            tm.t00, tm.t0h, tm.thh, tm.th0,
            cm.m00, cm.m0h, cm.mh0, cm.mhh,
            cm.kappa00, cm.kappa0h,
            rep.l1, rep.expected_absorption_time)
