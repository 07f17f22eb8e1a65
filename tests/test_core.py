"""Parameter containers, validation, and the seeded random source."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from telegraph_box import (
    AlphaOutOfRange,
    Boundary,
    DomainError,
    ModelParams,
    NonPositiveParameter,
    RandomSource,
    SwitchingProb,
    exp_draw,
    validate_params,
)


def test_boundary_members():
    assert Boundary.ORIGIN.value == "origin"
    assert Boundary.LEVEL.value == "level"
    assert Boundary("origin") is Boundary.ORIGIN


def test_validate_params_passthrough():
    p = ModelParams(1.0, 2.0, 1.0)
    assert validate_params(p) is p
    assert p.velocity == 1.0


@pytest.mark.parametrize(
    "kwargs,field",
    [
        (dict(lam=0.0, mu=1.0, h=1.0), "lambda"),
        (dict(lam=-1.0, mu=1.0, h=1.0), "lambda"),
        (dict(lam=1.0, mu=0.0, h=1.0), "mu"),
        (dict(lam=1.0, mu=1.0, h=-3.0), "h"),
        (dict(lam=1.0, mu=1.0, h=1.0, velocity=0.0), "velocity"),
        (dict(lam=math.nan, mu=1.0, h=1.0), "lambda"),
        (dict(lam=1.0, mu=math.inf, h=1.0), "mu"),
    ],
)
def test_validate_params_rejects(kwargs, field):
    with pytest.raises(NonPositiveParameter) as exc:
        validate_params(ModelParams(**kwargs))
    assert exc.value.field == field
    assert field in str(exc.value)


@pytest.mark.parametrize("kwargs,field", test_validate_params_rejects.pytestmark[0].args[1])
def test_model_params_rejects_at_construction(kwargs, field):
    with pytest.raises(NonPositiveParameter) as exc:
        ModelParams(**kwargs)
    assert exc.value.field == field


@pytest.mark.parametrize("h, velocity", [(1e-300, 1e300), (1e300, 1e-300)])
def test_effective_level_must_be_finite_and_positive(h, velocity):
    # each field is fine on its own; only the ratio h/velocity leaves float64
    with pytest.raises(DomainError, match="h/velocity"):
        ModelParams(1.0, 1.0, h, velocity)


def test_effective_level_scales_with_velocity():
    p = ModelParams(1.0, 2.0, h=6.0, velocity=3.0)
    assert p.effective_level == 2.0
    assert ModelParams(1.0, 2.0, 6.0).effective_level == 6.0


def test_switching_prob_accepts_unit_interval():
    assert SwitchingProb(1.0).alpha == 1.0
    assert SwitchingProb(0.25).alpha == 0.25


@pytest.mark.parametrize("bad", [0.0, -0.2, 1.0000001, 2.0, math.nan, math.inf])
def test_switching_prob_rejects(bad):
    with pytest.raises(AlphaOutOfRange):
        SwitchingProb(bad)


def test_random_source_is_reproducible():
    a = RandomSource(42, 0).gen.random(8)
    b = RandomSource(42, 0).gen.random(8)
    assert np.array_equal(a, b)


def test_random_source_streams_differ():
    a = RandomSource(42, 0).gen.random(8)
    b = RandomSource(42, 1).gen.random(8)
    assert not np.array_equal(a, b)


def test_random_source_rejects_negative():
    with pytest.raises(ValueError):
        RandomSource(-1, 0)
    with pytest.raises(ValueError):
        RandomSource(1, -2)
    # a float seed or stream index ran truncated, and a nan or inf one raised
    # int()'s ValueError or a bare OverflowError
    for seed, stream in ((1.5, 0), (0, 2.7), (math.nan, 0), (math.inf, 0),
                         (0, -math.inf), (np.float64(1.0), 0)):
        with pytest.raises(ValueError, match="seed and stream_index must be integers"):
            RandomSource(seed, stream)
    # bools and numpy ints pass as Python ints, with the same draws
    rng = RandomSource(np.uint8(3), True)
    assert repr(rng) == "RandomSource(seed=3, stream_index=1)"
    assert rng.gen.random() == RandomSource(3, 1).gen.random()


def test_exp_draw_scalar_and_vector():
    rng = RandomSource(7, 0)
    x = exp_draw(2.0, rng)
    assert isinstance(x, float) and x > 0.0
    v = exp_draw(2.0, rng, size=1000)
    assert v.shape == (1000,)
    assert abs(v.mean() - 0.5) < 5.0 * 0.5 / math.sqrt(1000)
    for rate in (0.0, math.nan):
        with pytest.raises(NonPositiveParameter, match="'rate'"):
            exp_draw(rate, rng)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=0, max_value=64))
def test_random_source_determinism_property(seed, stream):
    a = RandomSource(seed, stream).gen.standard_normal(4)
    b = RandomSource(seed, stream).gen.standard_normal(4)
    assert np.array_equal(a, b)
