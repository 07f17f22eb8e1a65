"""Every public closed form, at every documented input from 1e-300 to
1e300, ends in a finite value or a typed TelegraphBoxError.

Rates, level and velocity are log-uniform over 1e+-300, alpha over
[1e-320, 1] (down into the subnormals), the transform argument is a
large negative number, a fraction of the admissible bound, the bound
itself or zero, and the descent is zero, a fraction of H or the last
float below H.  Phase counts and matrix powers are up to 10^7 or
between 10^300 and 10^400, and every function is called by keyword.
"""

from __future__ import annotations

import dataclasses
import inspect
import math

from hypothesis import given, settings, strategies as st

from telegraph_box import (
    Boundary,
    ModelParams,
    SwitchingProb,
    TelegraphBoxError,
    conditional_cycle_means,
    conditional_hit_prob,
    expected_absorption_time,
    expected_cycles,
    expected_length_L,
    expected_truncated_times,
    matrix_power,
    omega_bound,
    omega_of_theta,
    phase_probabilities,
    q_sum,
    theta_roots,
    transform_from_H,
    transform_from_origin,
    wald_statistic,
)

log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)
alphas = st.floats(min_value=-320.0, max_value=0.0).map(lambda x: min(10.0 ** x, 1.0))
units = st.floats(min_value=0.0, max_value=1.0)
counts = st.one_of(st.integers(min_value=1, max_value=10 ** 7),
                   st.integers(min_value=10 ** 300, max_value=10 ** 400))


def _floats(value) -> tuple[float, ...]:
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    return value if isinstance(value, tuple) else (value,)


def _finite_or_typed(fn, *args):
    """fn(*args), called by keyword, if all its floats are finite; None on
    a typed error."""
    try:
        value = fn(**inspect.signature(fn).bind(*args).arguments)
    except TelegraphBoxError:
        return None
    assert all(map(math.isfinite, _floats(value))), (fn.__name__, args, value)
    return value


@st.composite
def omegas(draw, p: ModelParams) -> float:
    bound = omega_bound(p)
    return draw(st.sampled_from((
        -draw(log_uniform), draw(units) * bound, bound, 0.0)))


@st.composite
def descents(draw, h: float) -> float:
    return draw(st.sampled_from((0.0, draw(units) * h, h * (1.0 - 2.0 ** -52))))


@given(log_uniform, log_uniform, log_uniform, log_uniform, alphas, counts, counts,
       st.data())
@settings(max_examples=400, deadline=None)
def test_closed_forms_are_finite_or_a_typed_error(lam, mu, h, velocity, alpha,
                                                 n, j, data):
    p = _finite_or_typed(ModelParams, lam, mu, h, velocity)
    if p is None:
        return
    s = SwitchingProb(alpha)
    pm = _finite_or_typed(phase_probabilities, p)
    for fn in (expected_truncated_times, expected_cycles):
        _finite_or_typed(fn, p)
    _finite_or_typed(expected_absorption_time, p, s)
    _finite_or_typed(expected_length_L, p, n)
    if pm is not None:
        _finite_or_typed(matrix_power, pm, j)
        for u in Boundary:
            for v in Boundary:
                _finite_or_typed(q_sum, pm, min(j, n), max(j, n), u, v)

    omega = data.draw(omegas(p))
    d = data.draw(descents(p.effective_level))
    _finite_or_typed(omega_bound, p)
    _finite_or_typed(transform_from_origin, omega, p)
    _finite_or_typed(transform_from_H, omega, d, p)
    _finite_or_typed(conditional_hit_prob, d, p)
    _finite_or_typed(conditional_cycle_means, d, p)
    roots = _finite_or_typed(theta_roots, omega, p)
    if roots is not None:
        for theta in (roots.theta1, roots.theta2):
            if theta < p.mu:
                _finite_or_typed(omega_of_theta, theta, p)
                _finite_or_typed(wald_statistic, theta, d, p.effective_level, p)
