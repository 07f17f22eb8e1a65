"""Closed-form phase probabilities, cycle means, and the absorption chain.

Oracles: 40-digit independent evaluations frozen as float64 literals,
plus exact rationals for the equal-rate point (0.5, 0.5, 10).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegraph_box import (
    Boundary,
    DomainError,
    InvalidIndex,
    ModelParams,
    PhaseMatrix,
    SwitchingProb,
    expected_absorption_time,
    expected_cycles,
    expected_length_L,
    expected_truncated_times,
    matrix_power,
    phase_probabilities,
    q_sum,
)
from telegraph_box import _forms

import _mp_oracle

P121 = ModelParams(1.0, 2.0, 1.0)
PEQ = ModelParams(0.5, 0.5, 10.0)
P255 = ModelParams(2.0, 0.5, 5.0)

rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
levels = st.floats(min_value=0.1, max_value=30.0, allow_nan=False)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


PHASE_REF = {
    P121: (0.38730016321971794, 0.6126998367802821,
           0.2253996735605641, 0.7746003264394359),
    PEQ: (5.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 5.0 / 6.0),
    P255: (0.9995851293577722, 0.00041487064222783755,
           0.750103717660557, 0.24989628233944305),
}

TIME_REF = {
    P121: (0.1475877943364138, 0.6905117160044323,
           0.2951755886728276, 0.02862539064548017),
    PEQ: (650.0 / 216.0, 610.0 / 216.0, 650.0 / 216.0, 125.0 / 108.0),
    P255: (0.6631166632374014, 0.002581971930733622,
           0.16577916580935034, 0.9177961753986159),
}

CYCLE_REF = {
    P121: (0.2951755886728276, 0.7683235952285826,
           0.2826504548515244, 0.5903511773456552),
    PEQ: (650.0 / 108.0, 430.0 / 108.0, 430.0 / 108.0, 650.0 / 108.0),
    P255: (1.3262333264748027, 0.003089590650328056,
           5.586110939100017, 0.3315583316187007),
}

KAPPA_REF = {
    P121: (0.7621364943896823, 1.2539967356056407,
           1.2539967356056407, 0.7621364943896823),
    PEQ: (650.0 / 90.0, 430.0 / 18.0, 430.0 / 18.0, 650.0 / 90.0),
    P255: (1.3267837701096055, 7.447118055249913,
           7.447118055249913, 1.3267837701096055),
}

ETA_REF = {
    P121: {0.2: 4.781157938803137, 0.5: 2.0,
           0.8: 1.299218073981598, 1.0: 1.0634991839014103},
    PEQ: {0.2: 50.0, 0.5: 20.0, 0.8: 12.5, 1.0: 10.0},
    P255: {0.2: 6.656127503330202, 0.5: 2.6608206985575578,
           0.8: 1.6621545312474828, 1.0: 1.3293229171251308},
}

LENGTH_REF = {
    P121: {1: 1.0634991839014103, 2: 2.010280548966595,
           3: 2.9381652420102466, 5: 4.787320551997691},
    PEQ: {1: 10.0, 2: 20.0, 3: 30.0, 5: 50.0},
    P255: {1: 1.3293229171251308, 2: 2.6605494044487408,
           3: 3.992250797152732, 5: 6.655920101263959},
}


@pytest.mark.parametrize("p", PHASE_REF)
def test_phase_probabilities_frozen(p):
    pm = phase_probabilities(p)
    want = PHASE_REF[p]
    for got, ref in zip((pm.p00, pm.p0h, pm.ph0, pm.phh), want):
        assert rel(got, ref) < 1e-13


def test_phase_matrix_entry_lookup():
    pm = phase_probabilities(P121)
    assert pm.entry(Boundary.ORIGIN, Boundary.ORIGIN) == pm.p00
    assert pm.entry(Boundary.ORIGIN, Boundary.LEVEL) == pm.p0h
    assert pm.entry(Boundary.LEVEL, Boundary.ORIGIN) == pm.ph0
    assert pm.entry(Boundary.LEVEL, Boundary.LEVEL) == pm.phh


@given(rates, rates, levels)
@settings(max_examples=150)
def test_phase_rows_sum_to_one(lam, mu, h):
    pm = phase_probabilities(ModelParams(lam, mu, h))
    assert abs(pm.p00 + pm.p0h - 1.0) < 1e-12
    assert abs(pm.ph0 + pm.phh - 1.0) < 1e-12


@given(rates, rates, levels)
@settings(max_examples=150)
def test_phase_detailed_balance(lam, mu, h):
    # mu * p00 == lam * phh links the two start boundaries
    pm = phase_probabilities(ModelParams(lam, mu, h))
    assert rel(mu * pm.p00, lam * pm.phh) < 1e-10


@given(rates, rates, levels)
@settings(max_examples=100)
def test_phase_swap_symmetry(lam, mu, h):
    a = phase_probabilities(ModelParams(lam, mu, h))
    b = phase_probabilities(ModelParams(mu, lam, h))
    assert rel(a.p00, b.phh) < 1e-10
    assert rel(a.p0h, b.ph0) < 1e-10


@pytest.mark.parametrize("p", TIME_REF)
def test_truncated_times_frozen(p):
    tm = expected_truncated_times(p)
    want = TIME_REF[p]
    for got, ref in zip((tm.t00, tm.t0h, tm.thh, tm.th0), want):
        assert rel(got, ref) < 1e-12


@given(rates, rates, levels)
@settings(max_examples=100)
def test_truncated_time_swap_relation(lam, mu, h):
    # th0 of one model equals t0h - h*p0h of the rate-swapped model
    a = expected_truncated_times(ModelParams(lam, mu, h))
    b = expected_truncated_times(ModelParams(mu, lam, h))
    pmb = phase_probabilities(ModelParams(mu, lam, h))
    assert abs(a.th0 - (b.t0h - h * pmb.p0h)) < 1e-10 * max(1.0, abs(a.th0))


@pytest.mark.parametrize("p", CYCLE_REF)
def test_cycle_means_frozen(p):
    cm = expected_cycles(p)
    for got, ref in zip((cm.m00, cm.m0h, cm.mh0, cm.mhh), CYCLE_REF[p]):
        assert rel(got, ref) < 1e-12
    for got, ref in zip(
            (cm.kappa00, cm.kappa0h, cm.kappah0, cm.kappahh), KAPPA_REF[p]):
        assert rel(got, ref) < 1e-12


@given(rates, rates, levels)
@settings(max_examples=100)
def test_cycle_time_identities(lam, mu, h):
    # phase duration doubles the up clock, shifted by h for crossing types
    p = ModelParams(lam, mu, h)
    pm = phase_probabilities(p)
    tm = expected_truncated_times(p)
    cm = expected_cycles(p)
    scale = max(1.0, h)
    assert abs(cm.m00 - 2.0 * tm.t00) < 1e-10 * scale
    assert abs(cm.m0h - (2.0 * tm.t0h - h * pm.p0h)) < 1e-10 * scale
    assert abs(cm.mhh - 2.0 * tm.thh) < 1e-10 * scale
    assert abs(cm.mh0 - (2.0 * tm.th0 + h * pm.ph0)) < 1e-10 * scale


@given(rates, rates, levels)
@settings(max_examples=100)
def test_kappa_symmetry(lam, mu, h):
    cm = expected_cycles(ModelParams(lam, mu, h))
    assert rel(cm.kappa00, cm.kappahh) < 1e-10
    assert rel(cm.kappa0h, cm.kappah0) < 1e-10


def test_kappa_survives_probability_underflow():
    # p0h underflows to exactly 0.0 here, yet the conditional mean is finite
    p = ModelParams(1e3, 0.5, 10.0)
    assert phase_probabilities(p).p0h == 0.0
    cm = expected_cycles(p)
    assert rel(cm.kappa0h, 10.010003000499749) < 1e-12
    assert rel(cm.kappa00, 0.002001000500250125) < 1e-12


@pytest.mark.parametrize("lam, mu, h", [(1e-300, 1.0, 1.0), (1.0, 1e-300, 1.0),
                                        (1e-300, 1.0, 30.0)])
def test_tiny_rate_is_finite(lam, mu, h):
    # the complement 1 - P0H rounds to exactly 0 here; the closed forms
    # must not divide by it
    p = ModelParams(lam, mu, h)
    pm = phase_probabilities(p)
    values = [*vars(pm).values(), *vars(expected_truncated_times(p)).values(),
              *vars(expected_cycles(p)).values(),
              *vars(expected_absorption_time(p, SwitchingProb(0.5))).values()]
    assert all(math.isfinite(v) for v in values)
    assert pm.p00 + pm.p0h == pytest.approx(1.0, abs=1e-15)
    assert pm.ph0 + pm.phh == pytest.approx(1.0, abs=1e-15)


def _many_digits(lam, mu, h):
    # the oracle at at least 400 digits and four times what it picks on
    # its own: 400 cannot carry the third-order cancellation in
    # (mu - lam)H at H = 1e-300, which takes about 900
    return max(400, 4 * _mp_oracle.digits(lam, mu, h))


@pytest.mark.parametrize("h", [1e-9, 1e-12, 1e-15, 1e-30, 1e-41, 1e-300])
def test_asymmetric_forms_at_tiny_delta_match_many_digits(h):
    # (mu - lam)H = h: far from the equal-rate band in the rates, deep in
    # the cancellation of the asymmetric forms
    got = vars(_forms.closed_values(1.0, 2.0, h))
    want = _mp_oracle.closed_values(1.0, 2.0, h, dps=_many_digits(1.0, 2.0, h))
    for name, v in want.items():
        assert math.isclose(got[name], v, rel_tol=1e-12), name


@pytest.mark.parametrize("h, d", [(1e-12, 5e-13), (1.0, 1e-12), (1e-300, 5e-301)])
def test_conditional_means_at_tiny_delta_match_many_digits(h, d):
    got = _forms.conditional_means(1.0, 2.0, h, d)
    want = _mp_oracle.conditional_means(1.0, 2.0, h, d, dps=_many_digits(1.0, 2.0, d))
    assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(got, want))


def _equal_rate_polynomial(r, h):
    # the equal-rate corollary as printed, polynomial in x = r*H; it
    # overflows in h ** 3 long before the values themselves do
    x = r * h
    den = (1.0 + x) ** 2
    t00 = r * h * h * (3.0 + 2.0 * x) / (6.0 * den)
    m0h = h * (3.0 + 3.0 * x + x * x) / (3.0 * den)
    p0h, p00 = 1.0 / (1.0 + x), x / (1.0 + x)
    return dict(p00=p00, p0h=p0h, t00=t00,
                t0h=h * (6.0 + 6.0 * x + x * x) / (6.0 * den),
                th0=r * r * h ** 3 / (6.0 * den),
                m00=2.0 * t00, m0h=m0h,
                kappa00=2.0 * t00 / p00, kappa0h=m0h / p0h)


def test_equal_rate_forms_match_the_polynomial():
    rng = np.random.default_rng(3)
    for r, h in 10.0 ** rng.uniform(-4.0, 4.0, (2000, 2)):
        cv = _forms.closed_values(r, r, h)
        for name, want in _equal_rate_polynomial(r, h).items():
            assert rel(getattr(cv, name), want) < 2e-15, (r, h, name)


def test_equal_rate_extremes():
    # kappa0H ~ H^2 r / 3 = 3e599 at (1, 1, 1e300): a typed error, not
    # OverflowError from the polynomial's h ** 3
    with pytest.raises(DomainError, match="not finite"):
        phase_probabilities(ModelParams(1.0, 1.0, 1e300))
    # r*H underflows to 0: no kappa = 0/0
    cm = expected_cycles(ModelParams(1e-200, 1e-200, 1e-200))
    assert all(math.isfinite(v) for v in vars(cm).values())
    assert cm.kappa00 == cm.kappa0h == 1e-200
    # lam + mu overflows at (1e308, 1e308, 1), though every form is finite:
    # the midpoint is the sum of the halves, and kappa0H ~ H^2 r / 3
    cv = _forms.closed_values(1e308, 1e308, 1.0)
    assert cv.p00 == 1.0 and rel(cv.kappa0h, 1e308 / 3.0) < 1e-15
    assert _forms.conditional_hit(1e308, 1e308, 1.0, 0.5) == 0.5


def test_equal_rate_cycle_sum_is_level():
    cm = expected_cycles(PEQ)
    assert cm.m00 + cm.m0h == pytest.approx(10.0, abs=1e-12)


def test_matrix_power_conventions():
    pm = phase_probabilities(PEQ)
    ident = matrix_power(pm, 0)
    assert (ident.p00, ident.p0h, ident.ph0, ident.phh) == (1.0, 0.0, 0.0, 1.0)
    one = matrix_power(pm, 1)
    for got, ref in zip((one.p00, one.p0h, one.ph0, one.phh),
                        (pm.p00, pm.p0h, pm.ph0, pm.phh)):
        assert abs(got - ref) < 1e-14
    sq = matrix_power(pm, 2)
    assert rel(sq.p00, 26.0 / 36.0) < 1e-12
    assert rel(sq.p0h, 10.0 / 36.0) < 1e-12
    assert matrix_power(pm, np.int64(2)) == sq
    assert matrix_power(pm, True) == matrix_power(pm, 1)
    with pytest.raises(InvalidIndex):
        matrix_power(pm, -1)
    # no float is an index, not even a whole one
    for j in (2.5, 2.0, math.inf, math.nan):
        with pytest.raises(InvalidIndex):
            matrix_power(pm, j)
        with pytest.raises(InvalidIndex):
            q_sum(pm, 0, j, Boundary.ORIGIN, Boundary.ORIGIN)


@pytest.mark.parametrize("p", [P121, P255])
def test_matrix_power_matches_naive(p):
    pm = phase_probabilities(p)
    m = np.array([[pm.p00, pm.p0h], [pm.ph0, pm.phh]])
    acc = np.eye(2)
    for j in range(0, 21):
        sp = matrix_power(pm, j)
        assert np.allclose(
            [[sp.p00, sp.p0h], [sp.ph0, sp.phh]], acc, rtol=0, atol=1e-13)
        acc = acc @ m


# theta rounds to 1 in float64, is 1 - 0.838, and is exactly -1
POWER_POINTS = (ModelParams(1.0, 1.0, 1e20), P121, ModelParams(1e-300, 1e-300, 1e-300))


@pytest.mark.parametrize("p", POWER_POINTS)
def test_matrix_power_matches_the_oracle_at_any_index(p):
    pm = phase_probabilities(p)
    for j in (1, 2, 7, 10 ** 6, 10 ** 17, 10 ** 17 + 1, 10 ** 400, 10 ** 400 + 1):
        got = matrix_power(pm, j)
        ref = _mp_oracle.phase_power_sum(pm.p0h, pm.ph0, j, j)
        for g, r in zip((got.p00, got.p0h, got.ph0, got.phh), ref):
            assert abs(g - r) <= 1e-12 * abs(r), (j, g, r)


@pytest.mark.parametrize("p", POWER_POINTS)
def test_q_sum_matches_the_oracle_at_any_index(p):
    pm = phase_probabilities(p)
    o, l = Boundary.ORIGIN, Boundary.LEVEL
    for i, m in ((1, 10), (1, 10 ** 6), (2, 10 ** 6 + 1), (3, 10 ** 17),
                 (10 ** 400, 10 ** 400 + 9)):
        ref = _mp_oracle.phase_power_sum(pm.p0h, pm.ph0, i, m)
        for (u, v), r in zip(((o, o), (o, l), (l, o), (l, l)), ref):
            g = q_sum(pm, i, m, u, v)
            assert abs(g - r) <= 1e-12 * abs(r), (i, m, u, v, g, r)


# p0h and ph0 round to 1 where p00 and phh are both tiny, so theta = 1 - s
# reads as -1; the chain these stand for has the exact off-diagonal
# entries 1 - p00 and 1 - phh
ALTERNATING = (phase_probabilities(ModelParams(1.0, 1.0, 1e-17)),
               PhaseMatrix(0.0, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -53))


@pytest.mark.parametrize("pm", ALTERNATING)
def test_powers_of_a_nearly_alternating_chain_match_the_oracle(pm):
    o, l = Boundary.ORIGIN, Boundary.LEVEL
    for j in (3, 5, 198, 10 ** 6):
        got = matrix_power(pm, j)
        ref = _mp_oracle.phase_power_sum_from_diagonal(pm.p00, pm.phh, j, j)
        for g, r in zip((got.p00, got.p0h, got.ph0, got.phh), ref):
            assert abs(g - r) <= 1e-12 * abs(r), (j, g, r)
    for i, m in ((3, 3), (1, 10), (3, 198), (2, 10 ** 6 + 1), (3, 10 ** 17)):
        ref = _mp_oracle.phase_power_sum_from_diagonal(pm.p00, pm.phh, i, m)
        for (u, v), r in zip(((o, o), (o, l), (l, o), (l, l)), ref):
            g = q_sum(pm, i, m, u, v)
            assert abs(g - r) <= 1e-12 * abs(r), (i, m, u, v, g, r)


# theta = -5.8e-9: theta^2 is below an ulp, and the off-diagonal entries
# of P^2 sum past 1 in float64, so P^2 reads as theta < 0 again
NEAR_ZERO_THETA = PhaseMatrix(1.950973725705043e-12, 0.9999999999980491,
                              5.800262052070127e-09, 0.9999999941997381)


def test_powers_whose_square_reads_theta_below_zero_match_the_oracle():
    pm, o, l = NEAR_ZERO_THETA, Boundary.ORIGIN, Boundary.LEVEL
    square = (pm.p00 * pm.p0h + pm.p0h * pm.phh) + (pm.ph0 * pm.p00 + pm.phh * pm.ph0)
    assert square > 1.0
    for j in (3, 7, 198, 10 ** 6, 10 ** 17 + 1, 10 ** 400 + 1):
        got = matrix_power(pm, j)
        ref = _mp_oracle.phase_power_sum(pm.p0h, pm.ph0, j, j)
        for g, r in zip((got.p00, got.p0h, got.ph0, got.phh), ref):
            assert abs(g - r) <= 1e-12 * abs(r), (j, g, r)
    for i, m in ((3, 198), (3, 10 ** 17), (10 ** 400, 10 ** 400 + 9)):
        ref = _mp_oracle.phase_power_sum(pm.p0h, pm.ph0, i, m)
        for (u, v), r in zip(((o, o), (o, l), (l, o), (l, l)), ref):
            g = q_sum(pm, i, m, u, v)
            assert abs(g - r) <= 1e-12 * abs(r), (i, m, u, v, g, r)


def test_expected_length_past_float64_names_n():
    with pytest.raises(DomainError, match=r"^expected phase lengths at "
                       r"p=ModelParams\(lam=1\.0, mu=2\.0, h=1\.0, velocity=1\.0\), "
                       r"n=10{400} are not finite"):
        expected_length_L(P121, 10 ** 400)


def test_q_sum_past_float64_names_its_own_i_and_m():
    pm = phase_probabilities(P121)
    with pytest.raises(DomainError, match=r"^partial power sums at i=0, m=1000"):
        q_sum(pm, 0, 10 ** 400, Boundary.ORIGIN, Boundary.ORIGIN)


@pytest.mark.parametrize("p", POWER_POINTS)
def test_expected_length_matches_the_oracle_at_any_n(p):
    pm, cm = phase_probabilities(p), expected_cycles(p)
    l1, l1s = cm.m00 + cm.m0h, cm.mh0 + cm.mhh
    for n in (2, 7, 10 ** 6, 10 ** 17, 10 ** 17 + 1):
        q00, q0h, _, _ = _mp_oracle.phase_power_sum(pm.p0h, pm.ph0, 1, n - 1)
        ref = l1 * (1.0 + q00) + l1s * q0h
        got = expected_length_L(p, n)
        assert abs(got - ref) <= 1e-12 * ref, (n, got, ref)


def test_q_sum_conventions_and_example():
    pm = phase_probabilities(PEQ)
    o = Boundary.ORIGIN
    l = Boundary.LEVEL
    assert q_sum(pm, 0, 0, o, o) == 1.0
    assert q_sum(pm, 0, 0, o, l) == 0.0
    assert q_sum(pm, 3, 2, o, o) == 0.0
    got = q_sum(pm, 0, 2, o, o)
    assert rel(got, 92.0 / 36.0) < 1e-12


@pytest.mark.parametrize("p", [P121, PEQ, P255])
def test_q_sum_matches_brute_force(p):
    pm = phase_probabilities(p)
    for i, m in [(0, 0), (0, 5), (1, 1), (1, 7), (2, 6), (4, 4), (3, 12)]:
        for u in Boundary:
            for v in Boundary:
                brute = sum(
                    matrix_power(pm, j).entry(u, v) for j in range(i, m + 1))
                assert abs(q_sum(pm, i, m, u, v) - brute) < 1e-12 * max(1.0, brute)


@pytest.mark.parametrize("p", LENGTH_REF)
def test_expected_length_frozen(p):
    for n, ref in LENGTH_REF[p].items():
        assert rel(expected_length_L(p, n), ref) < 1e-12
    for n in (0, 2.5, 2.0, math.inf, math.nan):
        with pytest.raises(InvalidIndex):
            expected_length_L(p, n)


def test_expected_length_two_term_identity():
    # L2 = L1*(1 + P00) + L1_star*P0H
    pm = phase_probabilities(P121)
    rep = expected_absorption_time(P121, SwitchingProb(1.0))
    want = rep.l1 * (1.0 + pm.p00) + rep.l1_star * pm.p0h
    assert rel(expected_length_L(P121, 2), want) < 1e-13


@pytest.mark.parametrize("p", ETA_REF)
def test_absorption_time_frozen(p):
    for alpha, ref in ETA_REF[p].items():
        rep = expected_absorption_time(p, SwitchingProb(alpha))
        assert rel(rep.expected_absorption_time, ref) < 1e-12


def test_absorption_report_fields():
    rep = expected_absorption_time(P121, SwitchingProb(0.5))
    assert rel(rep.l1, 1.0634991839014103) < 1e-13
    assert rel(rep.l1_star, 0.8730016321971796) < 1e-13
    assert rel(rep.theta_spectral, 0.16190048965915382) < 1e-12


def test_absorption_alpha_one_is_exactly_first_length():
    for p in (P121, PEQ, P255):
        rep = expected_absorption_time(p, SwitchingProb(1.0))
        assert rep.expected_absorption_time == rep.l1


@given(rates, rates, levels, st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=60, deadline=None)
def test_absorption_time_series_agreement(lam, mu, h, alpha):
    p = ModelParams(lam, mu, h)
    rep = expected_absorption_time(p, SwitchingProb(alpha))
    q = 1.0 - alpha
    total, n, term_w = 0.0, 1, 1.0
    # sum alpha*(1-alpha)^(n-1)*L_n until the geometric tail is negligible
    while term_w > 1e-16 and n < 4000:
        total += alpha * term_w * expected_length_L(p, n)
        term_w *= q
        n += 1
    tail_bound = term_w * expected_length_L(p, n) * (n + 1.0 / max(alpha, 1e-9))
    assert abs(total - rep.expected_absorption_time) < 1e-9 * max(
        1.0, rep.expected_absorption_time) + tail_bound


@given(rates, rates, levels)
@settings(max_examples=60)
def test_absorption_time_decreasing_in_alpha(lam, mu, h):
    p = ModelParams(lam, mu, h)
    etas = [expected_absorption_time(p, SwitchingProb(a)).expected_absorption_time
            for a in (0.2, 0.5, 0.8, 1.0)]
    assert all(a >= b - 1e-12 * abs(a) for a, b in zip(etas, etas[1:]))


@pytest.mark.parametrize("p, alpha", [(P121, 1e-310), (P121, 5e-324),
                                      (ModelParams(1.0, 1.0, 1e6), 5e-324)])
def test_absorption_time_past_float64_is_a_domain_error(p, alpha):
    # the mean is about 1/alpha: it read inf, or alpha*(p0h + ph0)
    # underflowed to 0 and raised a bare ZeroDivisionError
    with pytest.raises(DomainError, match="absorption time"):
        expected_absorption_time(p, SwitchingProb(alpha))


def test_equal_rate_absorption_is_level_over_alpha():
    for alpha in (0.2, 0.5, 0.8, 1.0):
        rep = expected_absorption_time(PEQ, SwitchingProb(alpha))
        assert rel(rep.expected_absorption_time, 10.0 / alpha) < 1e-13


def test_velocity_reduces_level():
    fast = ModelParams(110.0, 120.0, 1.0, velocity=10.0)
    slow = ModelParams(110.0, 120.0, 0.1)
    a, b = expected_cycles(fast), expected_cycles(slow)
    assert a == b
