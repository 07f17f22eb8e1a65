"""Restricted transforms, root maps, and conditional cycle laws.

Numeric oracles were computed independently at 40-digit precision and
frozen here; comparisons are at float64-level relative tolerance.
"""

from __future__ import annotations

import math
import re
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp

from telegraph_box import (
    DomainError,
    ModelParams,
    conditional_cycle_means,
    conditional_hit_prob,
    omega_bound,
    omega_of_theta,
    phase_probabilities,
    theta_roots,
    transform_from_H,
    transform_from_origin,
    wald_statistic,
)
from telegraph_box import cli

import _mp_oracle

P121 = ModelParams(1.0, 2.0, 1.0)

rates = st.floats(min_value=0.05, max_value=20.0, allow_nan=False)
levels = st.floats(min_value=0.1, max_value=30.0, allow_nan=False)


def rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_omega_bound_value():
    assert rel(omega_bound(P121), 0.1715728752538099) < 1e-15
    sym = ModelParams(0.5, 0.5, 10.0)
    assert omega_bound(sym) == 0.0


def test_theta_roots_frozen():
    rp = theta_roots(-0.1, P121)
    assert rel(rp.theta1, -0.184428877022476) < 1e-14
    assert rel(rp.theta2, 1.084428877022476) < 1e-14
    assert rp.omega == -0.1


def test_theta_roots_double_root_at_bound():
    rp = theta_roots(omega_bound(P121), P121)
    assert rel(rp.theta1, 0.585786437626905) < 1e-12
    assert rel(rp.theta2, 0.585786437626905) < 1e-12


def test_theta_roots_rejects_above_bound():
    with pytest.raises(DomainError):
        theta_roots(omega_bound(P121) * 1.000001, P121)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_non_finite_omega_is_a_domain_error(omega):
    with pytest.raises(DomainError):
        theta_roots(omega, P121)
    with pytest.raises(DomainError):
        transform_from_origin(omega, P121)
    with pytest.raises(DomainError):
        transform_from_H(omega, 2.0, P121)   # d >= H takes the shortcut


@pytest.mark.parametrize("lam, mu, omega", [(1e200, 2e200, -1.0), (1e160, 2e160, -1e160),
                                            (1e300, 1e300, -1e300)])
def test_huge_rates_give_finite_roots_or_a_domain_error(lam, mu, omega):
    # a square in the discriminant overflows float64 here
    p = ModelParams(lam, mu, 1.0)
    try:
        rp = theta_roots(omega, p)
    except DomainError:
        pass
    else:
        assert math.isfinite(rp.theta1) and math.isfinite(rp.theta2)
        assert rp.theta1 <= rp.theta2 < mu
    for transform in (lambda: transform_from_origin(omega, p),
                      lambda: transform_from_H(omega, 0.5, p)):
        try:
            values = transform()
        except DomainError:
            continue
        assert all(math.isfinite(v) for v in values)


def test_transform_beyond_float64_is_a_domain_error():
    # omega close to its bound: the transforms pass 1e308, and math.exp
    # raised a bare OverflowError
    p = ModelParams(0.013957988465757694, 69.28886155513571, 22.58944267190863)
    with pytest.raises(DomainError):
        transform_from_origin(67.33596100228024, p)
    with pytest.raises(DomainError):
        transform_from_H(67.33596100228024, 11.3, p)
    # far below 0 at a huge rate the roots themselves pass float64, and the
    # transform raises the DomainError of theta_roots
    with pytest.raises(DomainError, match="^roots at omega="):
        transform_from_origin(-1.7e308, ModelParams(1e308, 1.0, 1.0))


@pytest.mark.parametrize("lam, mu, h, d", [
    (0.0169, 46.3, 30.5, 15.25),    # expm1 raised a bare OverflowError
    (183230561.54516667, 3.0229639004446437e+271, 4.752090257711753e+46,
     2.1818354302190116e+46),      # inf/inf returned nan
])
def test_conditional_hit_past_float64_is_a_domain_error(lam, mu, h, d):
    with pytest.raises(DomainError, match=re.escape(f"at d={d!r},")):
        conditional_hit_prob(d, ModelParams(lam, mu, h))


def test_conditional_means_past_float64_are_a_domain_error():
    # both means are past float64 and were returned as (inf, inf)
    with pytest.raises(DomainError, match="at d=5e"):
        conditional_cycle_means(5e299, ModelParams(1.0, 1.0, 1e300))


def test_omega_of_theta_where_the_product_overflows():
    # theta*(mu - lam - theta) overflowed, and -inf was returned for -1e200
    assert omega_of_theta(-1e200, ModelParams(1.0, 1e200, 1.0)) == -1e200


def test_wald_statistic_past_float64_is_a_domain_error():
    # math.exp raised a bare OverflowError
    with pytest.raises(DomainError, match="at theta="):
        wald_statistic(-1e119, 0.0, 1e71, ModelParams(1e119, 1.0, 1e71))


def test_roots_at_huge_rates():
    rp = theta_roots(-1.0, ModelParams(1e200, 2e200, 1.0))
    assert (rp.theta1, rp.theta2) == (-2.0, 1e200)


def test_roots_at_tiny_rates():
    # mu*omega underflows float64 here; the roots are -/+ sqrt(2)*1e-200
    rp = theta_roots(-1e-200, ModelParams(1e-200, 2e-200, 1.0))
    assert rel(rp.theta1, -math.sqrt(2.0) * 1e-200) < 1e-15
    assert rel(rp.theta2, math.sqrt(2.0) * 1e-200) < 1e-15


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)


def _within(got, want, tol):
    # a value below the normal range has lost its relative precision
    return abs(got - want) <= tol * max(abs(want), sys.float_info.min)


@given(log_uniform, log_uniform, log_uniform, st.floats(min_value=0.0, max_value=0.9),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_roots_match_the_oracle_at_every_scale(lam, mu, size, f, negative):
    p = ModelParams(lam, mu, 1.0)
    omega = -size if negative else f * omega_bound(p)
    assume(omega == 0.0 or abs(omega) >= sys.float_info.min)
    with mp.workdps(800):
        want = [float(t) for t in _mp_oracle._roots(mp.mpf(lam), mp.mpf(mu), mp.mpf(omega))]
    if not all(map(math.isfinite, want)):
        with pytest.raises(DomainError):
            theta_roots(omega, p)
        return
    rp = theta_roots(omega, p)
    assert _within(rp.theta1, want[0], 1e-13), (lam, mu, omega, rp, want)
    assert _within(rp.theta2, want[1], 1e-13), (lam, mu, omega, rp, want)


def _exact_bound(lam, mu):
    with mp.workdps(60):
        return float((mp.sqrt(mp.mpf(lam)) - mp.sqrt(mp.mpf(mu))) ** 2)


@given(st.floats(min_value=-100.0, max_value=100.0), st.floats(min_value=-15.0, max_value=-1.0),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_omega_bound_does_not_cancel_at_near_equal_rates(log_lam, log_gap, above):
    lam = 10.0 ** log_lam
    mu = lam * (1.0 + 10.0 ** log_gap if above else 1.0 - 10.0 ** log_gap)
    p = ModelParams(lam, mu, 1.0)
    assert _within(omega_bound(p), _exact_bound(lam, mu), 1e-15)


def test_omega_bound_at_a_near_equal_pair():
    # (sqrt(lam) - sqrt(mu))^2 cancelled to 3.155e-30 here, so omega up
    # to that was accepted above the bound
    lam, mu = 6.639184241179856, 6.639184241179863
    p = ModelParams(lam, mu, 1.0)
    assert _within(omega_bound(p), _exact_bound(lam, mu), 1e-15)
    with pytest.raises(DomainError):
        theta_roots(2.09e-30, p)


@given(log_uniform, log_uniform, log_uniform)
@settings(max_examples=300, deadline=None)
def test_double_root_at_the_bound(lam, mu, h):
    p = ModelParams(lam, mu, h)
    bound = omega_bound(p)
    rp = theta_roots(bound, p)
    assert _within(rp.theta1, rp.theta2, 1e-13), (lam, mu, rp)
    for transform in (lambda: transform_from_origin(bound, p),
                      lambda: transform_from_H(bound, 0.5 * h, p)):
        try:
            values = transform()
        except DomainError:
            continue
        assert all(math.isfinite(v) and v >= 0.0 for v in values), (lam, mu, h, values)


def test_double_root_at_far_apart_rates():
    # the expanded discriminant split the double root into (1.18, 6.87e10)
    p = ModelParams(6.96874058084462e26, 1.1663341921134036e-16, 1.0)
    rp = theta_roots(omega_bound(p), p)
    want = math.sqrt(p.mu) * (math.sqrt(p.mu) - math.sqrt(p.lam))   # -285094.3776...
    assert _within(rp.theta1, want, 1e-13) and _within(rp.theta2, want, 1e-13)


def test_roots_at_the_largest_rates(capsys):
    # squaring in power-of-two units overflowed in ldexp here
    rp = theta_roots(-1.0, ModelParams(1e308, 1e308, 1.0))
    assert (rp.theta1, rp.theta2) == (-1e154, 1e154)
    assert cli.run(["mgf", "--lambda", "1e308", "--mu", "1e308", "--h", "1",
                    "--omega=-1"]) == 0
    assert "theta1" in capsys.readouterr().out


def test_smaller_root_far_below_the_larger():
    # a common power-of-two unit flushed theta1 = -1e-200 to -0.0, and
    # F0H at H = 1e200 read 1 instead of e^-1
    p = ModelParams(1.0, 1e200, 1e200)
    rp = theta_roots(-1e-200, p)
    assert _within(rp.theta1, -1e-200, 1e-13)
    assert _within(transform_from_origin(-1e-200, p)[1], math.exp(-1.0), 1e-12)


def test_omega_of_theta_rejects_at_mu():
    with pytest.raises(DomainError):
        omega_of_theta(2.0, P121)
    with pytest.raises(DomainError):
        omega_of_theta(5.0, P121)


@given(st.floats(min_value=-10.0, max_value=1.99, allow_nan=False), rates, rates, levels)
@settings(max_examples=200)
def test_root_round_trip(theta, lam, mu, h):
    p = ModelParams(lam, mu, h)
    if theta >= mu:
        return
    w = omega_of_theta(theta, p)
    rp = theta_roots(w, p)
    # theta must be recovered as whichever root sits on its side of the
    # double-root location mu - sqrt(lam*mu)
    back = rp.theta1 if theta <= mu - math.sqrt(lam * mu) else rp.theta2
    assert abs(back - theta) < 1e-9 * max(1.0, abs(theta))


@given(st.floats(min_value=-5.0, max_value=0.17, allow_nan=False))
@settings(max_examples=100)
def test_roots_satisfy_quadratic(w):
    if w > omega_bound(P121):
        return
    rp = theta_roots(w, P121)
    for t in (rp.theta1, rp.theta2):
        res = t * t + t * (P121.lam - P121.mu - w) + P121.mu * w
        assert abs(res) < 1e-12 * max(1.0, t * t)


def test_transform_from_origin_frozen():
    cases = {
        -0.1: (0.3730370053168217, 0.5475599742419588),
        0.05: (0.394809439035674, 0.6482664841139645),
        -1.5: (0.24336929362853535, 0.1188670570944566),
    }
    for w, (f00, f0h) in cases.items():
        g00, g0h = transform_from_origin(w, P121)
        assert rel(g00, f00) < 1e-13
        assert rel(g0h, f0h) < 1e-13


def test_transform_from_origin_near_and_at_bound():
    wb = omega_bound(P121)
    g00, g0h = transform_from_origin(0.999 * wb, P121)
    assert rel(g00, 0.4141849686714777) < 1e-10
    assert rel(g0h, 0.7439492859416407) < 1e-10
    # double-root branch at the exact boundary stays finite and close by
    b00, b0h = transform_from_origin(wb, P121)
    assert 0.0 < b00 < 1.0 and 0.0 < b0h < 1.0
    assert abs(b00 - g00) < 1e-3 and abs(b0h - g0h) < 1e-3


def test_transform_at_zero_equals_phase_probabilities():
    pm = phase_probabilities(P121)
    f00, f0h = transform_from_origin(0.0, P121)
    assert rel(f00, pm.p00) < 1e-14
    assert rel(f0h, pm.p0h) < 1e-14


@given(rates, rates, levels)
@settings(max_examples=100)
def test_transform_zero_matches_probabilities_property(lam, mu, h):
    p = ModelParams(lam, mu, h)
    pm = phase_probabilities(p)
    f00, f0h = transform_from_origin(0.0, p)
    assert rel(f00, pm.p00) < 1e-10
    assert rel(f0h, pm.p0h) < 1e-10


def test_transform_monotone_in_omega():
    grid = [-2.0, -1.0, -0.3, 0.0, 0.1]
    vals = [transform_from_origin(w, P121) for w in grid]
    for (a00, a0h), (b00, b0h) in zip(vals, vals[1:]):
        assert a00 < b00
        assert a0h < b0h


def test_transform_negative_omega_below_probability():
    pm = phase_probabilities(P121)
    f00, f0h = transform_from_origin(-0.4, P121)
    assert 0.0 < f00 < pm.p00
    assert 0.0 < f0h < pm.p0h


def test_transform_from_H_frozen():
    cases = {
        (0.0, 0.3): (0.9211419389800807, 0.07885806101991931),
        (0.0, 0.9): (0.6710059352172398, 0.32899406478276016),
        (-0.2, 0.4): (0.806925412051916, 0.10481890428755081),
    }
    for (w, d), (fhh, fh0) in cases.items():
        ghh, gh0 = transform_from_H(w, d, P121)
        assert rel(ghh, fhh) < 1e-13
        assert rel(gh0, fh0) < 1e-13


def test_transform_from_H_deep_descent():
    assert transform_from_H(-0.3, 1.0, P121) == (0.0, 1.0)
    assert transform_from_H(0.0, 7.5, P121) == (0.0, 1.0)


def test_transform_from_H_rejects_bad_descent():
    with pytest.raises(DomainError):
        transform_from_H(0.0, -0.1, P121)
    with pytest.raises(DomainError):
        transform_from_H(0.0, math.nan, P121)


def test_conditional_hit_prob_monotone_in_descent():
    ds = [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]
    vals = [conditional_hit_prob(d, P121) for d in ds]
    assert all(0.0 < v < 1.0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_conditional_hit_prob_matches_transform_at_zero():
    for d in (0.3, 0.9):
        _, fh0 = transform_from_H(0.0, d, P121)
        assert rel(conditional_hit_prob(d, P121), fh0) < 1e-14


def test_conditional_hit_prob_edges():
    assert conditional_hit_prob(0.0, P121) == 0.0
    assert conditional_hit_prob(1.0, P121) == 1.0
    assert conditional_hit_prob(3.7, P121) == 1.0
    for d in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="descent duration must be finite and >= 0"):
            conditional_hit_prob(d, P121)


def test_conditional_hit_prob_limit_is_origin_return_probability():
    # as the first descent approaches H, the hit law approaches p00
    pm = phase_probabilities(P121)
    assert rel(conditional_hit_prob(1.0 - 1e-10, P121), pm.p00) < 1e-9


def test_conditional_cycle_means_frozen():
    mhh_ref = {
        0.2: 0.2394582290886942,
        0.4: 0.43560102690835379,
        0.5: 0.51531101598520502,
        0.8: 0.66944769758520585,
    }
    mh0_ref = {
        0.2: 0.010829442667173413,
        0.4: 0.031827594199549832,
        0.5: 0.046024296071985355,
        0.8: 0.10184272676285574,
    }
    for d in mhh_ref:
        mhh, mh0 = conditional_cycle_means(d, P121)
        assert rel(mhh, mhh_ref[d]) < 1e-12
        assert rel(mh0, mh0_ref[d]) < 1e-12


def test_conditional_cycle_means_domain():
    with pytest.raises(DomainError):
        conditional_cycle_means(-0.2, P121)
    with pytest.raises(DomainError):
        conditional_cycle_means(1.0, P121)
    # defined through lam = mu: the equal-rate limit at (1, 1, 1), d = 0.5
    mhh, mh0 = conditional_cycle_means(0.5, ModelParams(1.0, 1.0, 1.0))
    assert rel(mhh, 41.0 / 96.0) < 1e-14
    assert rel(mh0, 7.0 / 96.0) < 1e-14


def test_wald_statistic_values_and_domain():
    # exp(theta*y - lam*t*theta/(mu-theta)) at theta=1, y=0.5, t=2
    want = math.exp(1.0 * 0.5 - 1.0 * 2.0 * 1.0 / (2.0 - 1.0))
    assert rel(wald_statistic(1.0, 0.5, 2.0, P121), want) < 1e-15
    assert wald_statistic(0.0, 0.7, 3.0, P121) == 1.0
    with pytest.raises(DomainError):
        wald_statistic(2.0, 0.5, 2.0, P121)
