"""Shared domain types: model parameters, boundaries, and the random source.

The model is a particle moving at constant speed between the boundaries 0
and H, switching direction after independent exponential sojourns: upward
legs last Exp(lambda), downward legs last Exp(mu).  On contact with either
boundary the particle is absorbed with probability alpha or reflected with
probability 1 - alpha.  A velocity c != 1 is handled by the affine
reduction H -> H/c: hitting times of the speed-c process through {0, H}
coincide with hitting times of the unit-speed process through {0, H/c},
so all durations stay in original time units.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import _forms
from .errors import AlphaOutOfRange, DomainError, NonPositiveParameter


class Boundary(Enum):
    """The two absorbing/reflecting boundaries."""

    ORIGIN = "origin"   # the lower boundary at 0
    LEVEL = "level"     # the upper boundary at H


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the confined motion.

    lam      : rate of the Exp(lam) upward sojourns, 1/time
    mu       : rate of the Exp(mu) downward sojourns, 1/time
    h        : upper boundary level H, length
    velocity : constant speed c, length/time (default 1)

    Construction runs validate_params, so an invalid instance cannot exist.
    Each instance evaluates its closed forms once, on first use.
    """

    lam: float
    mu: float
    h: float
    velocity: float = 1.0

    def __post_init__(self) -> None:
        validate_params(self)

    @property
    def effective_level(self) -> float:
        # level seen by the equivalent unit-speed process
        return self.h / self.velocity

    @cached_property
    def _closed(self) -> _forms.ClosedValues:
        # per instance, not keyed by value; a DomainError is not cached
        return _forms.closed_values(self.lam, self.mu, self.effective_level)


@dataclass(frozen=True)
class SwitchingProb:
    """Absorption probability at each boundary contact, alpha in (0, 1]."""

    alpha: float

    def __post_init__(self) -> None:
        a = self.alpha
        if not (0.0 < a <= 1.0) or not np.isfinite(a):
            raise AlphaOutOfRange(a)


def validate_params(p: ModelParams) -> ModelParams:
    """Return p unchanged if all fields are strictly positive and finite.

    Raises NonPositiveParameter naming the offending field otherwise, and
    DomainError if h/velocity underflows to 0 or overflows to inf.
    The public field name for the up-rate is 'lambda' even though the
    attribute is spelled `lam` (keyword clash).
    """
    checks = (
        ("lambda", p.lam),
        ("mu", p.mu),
        ("h", p.h),
        ("velocity", p.velocity),
    )
    for name, value in checks:
        if not np.isfinite(value) or value <= 0.0:
            raise NonPositiveParameter(name, value)
    if not 0.0 < p.effective_level < np.inf:
        raise DomainError(f"h/velocity must be positive and finite, "
                          f"got {p.effective_level!r}")
    return p


class RandomSource:
    """Deterministic random stream addressed by (seed, stream_index).

    The same pair always reproduces the same draw sequence bit for bit;
    distinct stream indices give independent streams.  Instances own
    their state and must not be shared across workers.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        # the rule of analytics._index: ints of any size, bools and numpy
        # ints pass, as Python ints; floats, nan and inf do not
        try:
            self.seed, self.stream_index = operator.index(seed), operator.index(stream_index)
        except TypeError:
            self.seed = self.stream_index = -1
        if min(self.seed, self.stream_index) < 0:
            raise ValueError(f"seed and stream_index must be integers >= 0, "
                             f"got {seed!r} and {stream_index!r}")
        ss = np.random.SeedSequence(entropy=self.seed,
                                    spawn_key=(self.stream_index,))
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed}, stream_index={self.stream_index})"


def exp_draw(rate: float, rng: RandomSource, size: int | None = None):
    """Sample Exp(rate) as numpy's ziggurat standard exponential over rate.

    Returns a float when size is None, else an ndarray of shape (size,).
    """
    if not np.isfinite(rate) or rate <= 0.0:
        raise NonPositiveParameter("rate", rate)
    if size is None:
        return float(rng.gen.standard_exponential()) / rate
    return rng.gen.standard_exponential(size) / rate
