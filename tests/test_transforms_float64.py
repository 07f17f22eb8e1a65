"""The restricted transforms against the extended-precision oracle.

`mgf` evaluates each transform as a row of the tilted box, with rates
(lam*mu/(mu - theta1), mu - theta1) and gap theta2 - theta1.  The gate:
(F00, F0H) and (FHH, FH0) within 1e-12 relative of the direct expm1
formulas that `_mp_oracle` evaluates, for omega from -1e6 up to 0.9 of
its bound, at asymmetric and near-equal rates in both rate orders.  A value
below the normal range has lost its relative precision in float64;
there the bound is taken relative to the smallest normal float instead.
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from telegraph_box import (
    DomainError,
    ModelParams,
    omega_bound,
    transform_from_H,
    transform_from_origin,
)

import _mp_oracle

REL = 1e-12
RATES = [(1.0, 2.0), (0.01, 100.0), (0.3, 0.7), (1e-3, 1e3), (3.0, 2.9999),
         (1.0, 1.0 + 1e-6), (1.0, 1.0 + 1e-9), (1.0, 1.0 + 1e-13), (5.0, 5.0),
         (4.771230602252655, 4.771260060803983)]
LEVELS = (1e-3, 0.1, 1.0, 30.0)
DESCENTS = (0.5, 1e-3, 0.999)          # d/H


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(want), sys.float_info.min)


def _omegas(p: ModelParams):
    bound = omega_bound(p)
    yield from (-10.0 ** k for k in range(-6, 7))
    if bound > 0.0:
        yield from (f * bound for f in (1e-6, 1e-3, 0.1, 0.5, 0.9))


def _check(lam, mu, h, omega, descents):
    # a value the oracle cannot hold in float64 must be a DomainError
    p = ModelParams(lam, mu, h)
    cases = [(transform_from_origin, (omega, p),
              _mp_oracle.transform_from_origin(lam, mu, h, omega))]
    cases += [(transform_from_H, (omega, d, p),
               _mp_oracle.transform_from_H(lam, mu, h, omega, d)) for d in descents]
    for transform, args, want in cases:
        if all(map(math.isfinite, want)):
            got = transform(*args)
            assert all(map(_close, got, want)), (transform.__name__, lam, mu, h, args, got, want)
        else:
            with pytest.raises(DomainError):
                transform(*args)


@pytest.mark.parametrize("lam, mu", RATES + [(mu, lam) for lam, mu in RATES if lam != mu])
def test_transforms_match_the_oracle(lam, mu):
    for h in LEVELS:
        for omega in _omegas(ModelParams(lam, mu, h)):
            _check(lam, mu, h, omega, [f * h for f in DESCENTS])


@pytest.mark.parametrize("lam, mu, h, omega, d", [
    # mu - theta2 cancels at large negative omega
    (0.002306886542883076, 24.602060182009396, 0.017319398819490427,
     -19077.962359238456, 0.008659699409745214),
    # the expm1 denominator cancels near the bound
    (4.771230602252655, 4.771260060803983, 0.11100596781141618,
     4.547061165614944e-11, 0.05550298390570809),
    (0.0012068213719665759, 14.157548303496071, 0.08929339544322913,
     -84555.25013999875, 0.006045999310707121),
    # lam*mu overflows float64
    (1e200, 2e200, 1.0, -1.0, 0.5),
    # p00' of the tilted box is subnormal here and 0 in float64 below,
    # while F00 = (mu'/mu) p00' is 1
    (7.271650931439692e+295, 3.9235166140505764e-21, 1.9989128035371942e-10,
     -2.9545689611719263e-214, 1e-10),
    (1.9417569073118018e+178, 1.8215917024050994e-217, 2.961503700683393e+70,
     -2.210612035400021e-221, 1e70),
])
def test_transforms_where_a_form_loses_digits(lam, mu, h, omega, d):
    _check(lam, mu, h, omega, [d])


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)


@given(log_uniform, log_uniform, log_uniform, log_uniform, st.booleans(),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=300, deadline=None)
def test_transforms_are_finite_or_a_domain_error(lam, mu, h, omega, negative, f):
    p = ModelParams(lam, mu, h)
    omega = -omega if negative else omega
    for transform in (lambda: transform_from_origin(omega, p),
                      lambda: transform_from_H(omega, f * h, p)):
        try:
            values = transform()
        except DomainError:
            continue
        assert all(map(math.isfinite, values))
