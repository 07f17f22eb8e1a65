"""Exponential-martingale transform layer.

The confined motion has a dual clock: measure time only while the particle
moves up, and let Y(t) be the downward time accumulated by then.  Boundary
visits become linear first crossings of Y, and the exponential martingale
exp(theta*Y(t) - lam*t*theta/(mu - theta)) turns the four phase outcomes
into a pair of two-by-two linear systems.  This module exposes the
frequency map omega(theta), its root pair, the resulting restricted
transforms, and the per-descent conditional laws for phases started at
the upper boundary.

Tilting by that martingale at the roots theta1 <= theta2 gives the same
box again, at rates lam' = lam*mu/(mu - theta1) and mu' = mu - theta1
with gap theta2 - theta1.  So each transform is a phase probability of
the tilted box, from the rows of `_forms`, times an exponential factor;
as the roots merge at the bound the rows pass through gap 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _forms
from .core import ModelParams
from .errors import DomainError, float64_result

@dataclass(frozen=True)
class RootPair:
    """Real roots theta1 <= theta2 of theta^2 + theta*(lam - mu - omega) + mu*omega = 0.

    For omega <= (sqrt(lam) - sqrt(mu))^2 both satisfy omega_of_theta(theta_i)
    == omega and theta2 < mu in exact arithmetic; in float64 theta2 may round
    to the float below mu, as at (lam, mu) = (1, 1e164) and omega = -1, where
    theta2 = 9.999999999999999e163 and omega_of_theta(theta2) is about 1e164.
    """

    theta1: float
    theta2: float
    omega: float


def omega_bound(p: ModelParams) -> float:
    """Largest admissible transform argument, (sqrt(lam) - sqrt(mu))^2."""
    d = (p.lam - p.mu) / (math.sqrt(p.lam) + math.sqrt(p.mu))   # does not cancel
    return d * d


@float64_result("frequencies")
def omega_of_theta(theta: float, p: ModelParams) -> float:
    """Frequency omega = theta*(mu - lam - theta)/(mu - theta), theta < mu."""
    if theta >= p.mu:
        raise DomainError(f"theta must be below mu={p.mu}, got {theta}")
    # the quotient first: the product of the first two can overflow where
    # omega does not
    return theta * ((p.mu - p.lam - theta) / (p.mu - theta))


@float64_result("roots")
def theta_roots(omega: float, p: ModelParams) -> RootPair:
    """Solve the exponent quadratic for a given frequency.

    Stable form at every scale: the larger-magnitude root avoids
    cancellation, the other follows from the product mu*omega.  Raises
    DomainError when omega is not finite or exceeds omega_bound (complex
    roots).
    """
    lam, mu = p.lam, p.mu
    bound = omega_bound(p)
    if not (math.isfinite(omega) and omega <= bound):
        raise DomainError(
            f"omega={omega} must be finite and at most the admissible "
            f"bound {bound}"
        )
    # in a = bound - omega >= 0, half the linear coefficient is
    # sign(lam - mu)*sqrt(mu*bound) + a/2 and a quarter of the discriminant
    # a*(a/4 + sqrt(lam*mu)): nothing is squared, and only a cancels
    a = bound - omega
    half_b = math.copysign(math.sqrt(mu) * math.sqrt(bound), lam - mu) + a / 2.0
    q = -(half_b + math.copysign(
        math.sqrt(a) * math.sqrt(a / 4.0 + math.sqrt(lam) * math.sqrt(mu)), half_b))
    other = (mu * (omega / q) if abs(omega) >= mu else omega * (mu / q)) if q else 0.0
    t1, t2 = (q, other) if q <= other else (other, q)
    return RootPair(t1, t2, omega)


def _tilted(omega: float, p: ModelParams) -> tuple[float, float, float, float]:
    """(theta1, theta2, lam', mu') of the box tilted at omega.  lam' is
    lam*(mu/mu'), not mu - theta2, which cancels as omega goes to -inf,
    nor lam*mu/mu', whose product can overflow; it is held at most mu'
    against rounding at the double root."""
    rp = theta_roots(omega, p)
    hi = p.mu - rp.theta1
    return rp.theta1, rp.theta2, min(p.lam * (p.mu / hi), hi), hi


@float64_result("transforms from the origin")
def transform_from_origin(omega: float, p: ModelParams) -> tuple[float, float]:
    """Restricted transforms (F00, F0H) of a phase started at the origin.

    F00 averages exp(omega*T) over phases that return to the origin,
    F0H over phases that reach the level first; at omega=0 the pair is
    exactly the phase-probability row (P00, P0H).  Otherwise
    F00 = (mu'/mu) p00' and F0H = e^{theta1 H} p0h' in the tilted box,
    with (mu'/mu) p00' = lam*H*phi1*p0h', since p00' alone can underflow.
    """
    lam, h = p.lam, p.effective_level
    if omega == 0.0:
        return p._closed.p00, p._closed.p0h
    t1, _, lo, hi = _tilted(omega, p)
    ker = _forms._kernels(hi - lo, h)
    p0h = _forms._origin_row(lo, hi, h, ker)[1]
    return lam * (ker[3] * p0h), math.exp(t1 * h) * p0h


@float64_result("transforms from the level")
def transform_from_H(omega: float, d: float, p: ModelParams) -> tuple[float, float]:
    """Restricted transforms (FHH, FH0) of a phase started at the level,
    conditioned on the first descent lasting d.

    At omega=0 returns the conditional outcome probabilities
    (1 - P_hit, P_hit).  A descent d >= H reaches the origin outright in
    dual time zero, so the pair degenerates to (0, 1) for every finite
    omega.  Otherwise, with q = p0h'(d) + p00'(d) ph0'(H - d) from the
    strip-d/box-(H-d) renewal in the tilted box, FHH = e^{theta1 d}
    p0h'(d)/q and FH0 = (mu'/mu) p00'(d) e^{-theta1 (H-d)} ph0'(H-d)/q.
    """
    lam, mu, h = p.lam, p.mu, p.effective_level
    if d < 0.0 or not math.isfinite(d):
        raise DomainError(f"descent duration must be finite and >= 0, got {d}")
    if not math.isfinite(omega):
        raise DomainError(f"omega must be finite, got {omega}")
    if d >= h:
        return 0.0, 1.0
    if omega == 0.0:
        ph = _forms.conditional_hit(lam, mu, h, d)
        return 1.0 - ph, ph
    t1, t2, lo, hi = _tilted(omega, p)
    kd, (_, p0h, *_), _, box, q = _forms._strip_and_box(lo, hi, h, d)
    # box[1] is ph0' without its e^{-(theta2 - theta1)(H - d)}
    return (math.exp(t1 * d) * p0h / q,
            lam * (kd[3] * p0h) * box[1] * math.exp(-t2 * (h - d)) / q)


@float64_result("conditional hit probabilities")
def conditional_hit_prob(d: float, p: ModelParams) -> float:
    """Probability that a phase from the level ends at the origin, given
    its first descent lasts d.  Returns 1 for d >= H (straight drop)."""
    if d < 0.0 or not math.isfinite(d):
        raise DomainError(f"descent duration must be finite and >= 0, got {d}")
    return _forms.conditional_hit(p.lam, p.mu, p.effective_level, d)


@float64_result("conditional cycle means")
def conditional_cycle_means(d: float, p: ModelParams) -> tuple[float, float]:
    """Restricted dual-time means (MHH, MH0) of a phase from the level,
    given the first descent lasts d < H.

    MHH averages the dual stopping time over phases that return to the
    level, MH0 over phases that reach the origin; the corresponding
    phase durations follow as 2*MHH and 2*MH0 + H*P_hit.  Defined at
    every rate pair, through lam = mu.
    """
    h = p.effective_level
    if not 0.0 <= d < h:
        raise DomainError(f"descent duration must lie in [0, H={h}), got {d}")
    return _forms.conditional_means(p.lam, p.mu, h, d)


@float64_result("Wald statistics")
def wald_statistic(theta: float, y_at_stop: float, t_stop: float,
                   p: ModelParams) -> float:
    """Optional-stopping statistic exp(theta*y - lam*t*theta/(mu - theta)).

    Over phases started at the origin, with (y, t) the dual coordinates
    at the phase end, its expectation is exactly 1 for any theta < mu.
    """
    if theta >= p.mu:
        raise DomainError(f"theta must be below mu={p.mu}, got {theta}")
    return math.exp(theta * y_at_stop - p.lam * t_stop * theta / (p.mu - theta))
