"""Diffusive-limit harness.

Speeding the particle up while thickening the switching rates like
lam = (c^2 + 2*a*c)/sigma^2, mu = (c^2 + 2*b*c)/sigma^2 drives the
confined motion toward a drifted Brownian motion; every cycle mean and
the absorption time then collapse to zero.  This module builds the
scaled parameter sets and tabulates the decay along a velocity grid.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

from ._report import render
from .core import ModelParams, SwitchingProb
from .errors import DomainError, NonPositiveParameter
from . import analytics


@dataclass(frozen=True)
class ScalingSpec:
    """Scaling regime: infinitesimal deviation sigma, drift pair (a, b)
    with implied drift b - a, and the velocity grid to sweep."""

    sigma: float
    drift_a: float
    drift_b: float
    c_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name, v in (("sigma", self.sigma), ("drift_a", self.drift_a),
                        ("drift_b", self.drift_b)):
            if not v > 0.0:
                raise NonPositiveParameter(name, v)
        if not self.c_values:
            raise DomainError("parameter 'c_values' must not be empty")
        for v in self.c_values:
            if not v > 0.0:
                raise NonPositiveParameter("c_values", v)
        if any(b <= a for a, b in zip(self.c_values, self.c_values[1:])):
            raise DomainError("parameter 'c_values' must be strictly increasing")


@dataclass(frozen=True)
class SweepRow:
    """One velocity point of the sweep (all times in original units)."""

    c: float
    lam: float
    mu: float
    ec00: float
    ec0h: float
    etau: float
    eta: float


def scaled_params(c: float, spec: ScalingSpec, h: float) -> ModelParams:
    """Model parameters at velocity c under the scaling regime.

    The analytics of the speed-c process equal those of a unit-speed
    process on the reduced level h/c, which ModelParams folds in via
    effective_level.  Raises DomainError naming c and sigma where sigma^2
    or a scaled rate is not positive and finite in float64.
    """
    if not c > 0.0:
        raise NonPositiveParameter("c", c)
    s2 = spec.sigma * spec.sigma
    if 0.0 < s2 < math.inf:
        lam = (c * c + 2.0 * spec.drift_a * c) / s2
        mu = (c * c + 2.0 * spec.drift_b * c) / s2
        if 0.0 < lam < math.inf and 0.0 < mu < math.inf:
            return ModelParams(lam=lam, mu=mu, h=h, velocity=c)
    raise DomainError(f"scaled rates at c={c!r}, sigma={spec.sigma!r} "
                      "are not positive and finite in float64")


def scaling_sweep(spec: ScalingSpec, h: float, s: SwitchingProb) -> tuple[SweepRow, ...]:
    """Cycle means and absorption time at each velocity of the grid.

    etau = ec00 + ec0h is the mean first boundary contact time from the
    origin (the two origin-start outcomes partition that phase).
    """
    rows = []
    for c in spec.c_values:
        p = scaled_params(c, spec, h)
        cm = analytics.expected_cycles(p)
        rep = analytics.expected_absorption_time(p, s)
        rows.append(SweepRow(
            c=c, lam=p.lam, mu=p.mu,
            ec00=cm.m00, ec0h=cm.m0h,
            etau=rep.l1,
            eta=rep.expected_absorption_time,
        ))
    return tuple(rows)


# output names of the SweepRow fields, in field order
_COLUMNS = ("c", "lambda", "mu", "EC00", "EC0H", "Etau", "ETA")


def _sweep_doc(rows: tuple[SweepRow, ...]) -> list[dict]:
    return [dict(zip(_COLUMNS, astuple(r))) for r in rows]


def sweep_csv(rows: tuple[SweepRow, ...]) -> str:
    """Render a sweep as CSV with a fixed documented header."""
    return render(_sweep_doc(rows), "csv")
