"""Scalar closed forms for the confined telegraph process, in float64.

All functions here work on plain floats (lam, mu, H) with H already the
effective level (velocity folded in by the caller).  The renewal
identities share denominators in delta = (mu - lam)H whose numerators
cancel to third order as the rates approach each other.  Here that
cancellation is divided out on paper: every form is a sum of positive
terms over e^{-|delta|} and the phi-functions
phi_k(z) = (e^z - sum_{j<k} z^j/j!)/z^k at z = -|delta| (Hochbruck &
Ostermann, "Exponential integrators", Acta Numerica 2010), so float64
keeps its precision at every delta, and nothing overflows past
|delta| = 709.

`_origin_row` gives the row of a phase from the origin.  The level row
is the same function at swapped rates, by reflecting the box about H/2.
After a first descent d the phase renews between the two boxes of
heights d and H - d (`_strip_and_box`); the conditional means sum that
renewal here, and `mgf` takes the restricted transforms from the same
rows at the tilted rates.

One set of forms serves every rate pair: at lam = mu the rows give the
equal-rate corollary of the paper, within 2e-15 of its polynomial.
Within EQUAL_BAND of the diagonal `closed_values` still evaluates them at
the midpoint rate, the one value the benchmark anchors freeze there.
The band is on the absolute |lam - mu|, so the midpoint value is off by
up to 4.2e-7 relative, measured at (lam, mu, H) = (0.011676404690670533,
0.011676414599072725, 0.11542004601063696), and by 5.0e-10 at
(1, 1.000000001, 1).  `conditional_means` has no band.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import float64_result

# |lam - mu| * max(1, H) below this means "rates are equal": closed_values
# evaluates at the midpoint rate, and conditional_hit at its limit.
EQUAL_BAND = 1e-8

# phi_3(-e) = sum_j (-e)^j/(j+3)! below _SERIES_MAX, Horner order: the
# first term left out is below 2e-18 relative there
_SERIES_MAX = 0.5
_PHI3_TAYLOR = tuple((-1.0) ** j / math.factorial(j + 3) for j in range(13, -1, -1))

# past this |delta|, e^{-|delta|} alone may be subnormal
_EXP_SUBNORMAL = 700.0


def is_equal_rate(lam: float, mu: float, h: float) -> bool:
    return abs(lam - mu) * max(1.0, h) < EQUAL_BAND


@dataclass
class ClosedValues:
    """Every scalar closed form at one parameter point.  Not frozen: a
    frozen one takes about seven times as long to build, as much as half
    of a whole `closed_values` call."""

    p00: float
    p0h: float
    ph0: float
    phh: float
    t00: float
    t0h: float
    thh: float
    th0: float
    m00: float
    m0h: float
    mh0: float
    mhh: float
    # conditional duration means m/p, formed from the reduced forms so
    # they stay finite even when a probability underflows in float64
    kappa00: float
    kappa0h: float
    kappah0: float
    kappahh: float


def _kernels(gap: float, h: float) -> tuple[float, ...]:
    """(e, e^{-e}, 1 - e^{-e}, h*phi1, h*q1, h*q2, g2, q3, q4) at e = gap*H,
    with the phi_k at -e and the ratios the rows need, each positive:
    q1 = (phi1 - phi2)/phi1, q2 = (2 phi3 - e phi2^2)/phi1^2, g2 = phi2/phi1,
    q3 = (phi2 - 2 phi3)/phi1^2 and q4 = (4 phi2 - phi1)/phi1, the last
    three at most 3.  Above the series the terms in H are formed through
    h/e = 1/gap, so neither a large e nor an overflowing H*rate makes them
    underflow or overflow on the way."""
    e = gap * h
    if e < _SERIES_MAX:
        phi3 = 0.0
        for c in _PHI3_TAYLOR:
            phi3 = phi3 * e + c
        phi2 = 0.5 - e * phi3            # phi_k = 1/k! + z phi_{k+1}
        phi1 = 1.0 - e * phi2
        g2 = phi2 / phi1
        return (e, 1.0 - e * phi1, e * phi1, h * phi1, h * (1.0 - g2),
                h * (2.0 * phi3 - e * phi2 * phi2) / phi1 / phi1, g2,
                (phi2 - 2.0 * phi3) / phi1 / phi1, 4.0 * g2 - 1.0)
    # the phi combinations cancel as powers of 1/e at large e, so above
    # the series each ratio is written over e^{-e} instead; the worst
    # loss, in q3 at e = 0.5, is about 50 ulp
    k = math.exp(-e)
    ke = k * e if k else 0.0             # e may be inf
    kc = 1.0 - k                         # e * phi1
    phi1 = kc / e
    g2 = (1.0 - phi1) / kc
    return (e, k, kc, kc / gap, (1.0 - k - ke) / gap / kc,
            (1.0 - k * k - 2.0 * ke) / gap / kc / kc, g2, (1.0 + k - 2.0 * phi1) / kc / kc,
            4.0 * g2 - 1.0)


def _damped(v: float, e: float, k: float) -> float:
    """v * e^{-e}; past _EXP_SUBNORMAL through the logarithm, so that a
    product that is normal in float64 keeps its precision there."""
    if e < _EXP_SUBNORMAL or v == 0.0:
        return v * k
    return math.exp(math.log(v) - e)


def _origin_row(lam: float, mu: float, h: float, ker: tuple[float, ...],
                damp: bool = True) -> tuple[float, ...]:
    """(p00, p0h, t00, t0h, m0h, kappa00, kappa0h, s0h) of a phase from the
    origin at rates (lam, mu) and level H, with `ker` the kernels of
    |mu - lam| and H.  s0h is the restricted mean down time of the phases
    that reach the level, t0h - H*p0h without the cancellation.  The row
    at swapped rates (mu, lam) is the level row.  With damp=False, p0h,
    t0h, m0h and s0h leave out their factor e^{-e} when lam > mu."""
    e, k, kc, hphi1, hq1, hq2, g2, q3, q4 = ker
    # the forms are those of lam <= mu with min(lam, mu) in the denominator
    # 1 + lam*H*phi1; a lam > mu phase reaches the level against the
    # drift, which costs a factor e^{-e}
    lo, hi = (lam, mu) if lam < mu else (mu, lam)
    a = lo * hphi1
    r = 1.0 / (1.0 + a)
    v = a * r                            # in [0, 1)
    # lam*H*phi1 / (1 + a), as a quotient of sums so it cannot pass 1
    p00 = (a + kc) / (1.0 + a) if lam > mu else a / (1.0 + a)
    kappa00 = 2.0 * (hq1 * r + hq2 * v)
    p0h = r
    t0h = h * (r * (r + 2.0 * g2 * v) + q3 * v * v)
    m0h = h * (r * (r + q4 * v) + 2.0 * q3 * v * v)
    # H*v from H*lo where v underflows: H*v can still be a normal number
    hv = h * v if a >= sys.float_info.min else h * lo * hphi1 * r
    s0h = q3 * (hi * hphi1 * r) * hv
    if damp and lam > mu:
        p0h, t0h, m0h, s0h = (_damped(z, e, k) for z in (p0h, t0h, m0h, s0h))
    return (p00, p0h, 0.5 * p00 * kappa00, t0h, m0h,
            kappa00, h * (r + q4 * v + 2.0 * q3 * v * a), s0h)


@float64_result("closed forms")
def closed_values(lam: float, mu: float, h: float) -> ClosedValues:
    """All closed forms at (lam, mu, H); DomainError if one is not finite."""
    # the band moves the point onto the diagonal, where the same rows give
    # the equal-rate corollary; perfbench freezes values taken there
    # the sum of the halves only where the sum overflows: halving a rate
    # below 2^-1021 rounds
    r = 0.5 * (lam + mu) if lam + mu < math.inf else 0.5 * lam + 0.5 * mu
    a, b = (r, r) if is_equal_rate(lam, mu, h) else (lam, mu)
    ker = _kernels(abs(b - a), h)
    p00, p0h, t00, t0h, m0h, k00, k0h, _ = _origin_row(a, b, h, ker)
    phh, ph0, thh, _, mh0, khh, kh0, th0 = _origin_row(b, a, h, ker)
    return ClosedValues(p00, p0h, ph0, phh, t00, t0h, thh, th0,
                        2.0 * t00, m0h, mh0, 2.0 * thh, k00, k0h, kh0, khh)


def conditional_hit(lam: float, mu: float, h: float, d: float) -> float:
    """P(descent phase from H ends at the origin | first descent lasted d)."""
    if d >= h:
        return 1.0
    if d <= 0.0:
        return 0.0
    if is_equal_rate(lam, mu, h):
        r = 0.5 * (lam + mu) if lam + mu < math.inf else 0.5 * lam + 0.5 * mu
        return r * d / (1.0 + r * h)
    dd = mu - lam
    # lam*(e^{(mu-lam)d}-1) / (mu*e^{(mu-lam)H}-lam); denominator written
    # as dd + mu*expm1(dd*H): both terms share a sign, no cancellation
    return lam * math.expm1(dd * d) / (dd + mu * math.expm1(dd * h))


def _strip_and_box(lam: float, mu: float, h: float,
                   d: float) -> tuple[tuple[float, ...], ...]:
    """The renewal of a phase from the level after a first descent d < H.

    The phase turns up at a = H - d.  From there it alternates between
    the strip [a, H], entered from below (the origin row of height d),
    and the box [0, a], entered from above (the level row of height a),
    until one of them ends at its far edge.  Returns (kd, strip, ka, box,
    q): the kernels of |mu - lam| at d and at a, the two rows as
    `_origin_row` gives them with damp=False, and q = 1 - p00*phh, the
    chance that a round trip ends.  The side that climbs against the
    drift carries e^{-|delta|}: the strip (p0h, t0h) when lam > mu, the
    box (ph0, th0) when lam < mu.  The rows leave that factor out, since
    alone it can underflow where the sums it enters do not; q has it in."""
    gap = abs(mu - lam)
    kd, ka = _kernels(gap, d), _kernels(gap, h - d)
    strip = _origin_row(lam, mu, d, kd, damp=False)
    box = _origin_row(mu, lam, h - d, ka, damp=False)
    if lam > mu:
        q = _damped(strip[1], *kd[:2]) + strip[0] * box[1]
    else:
        q = strip[1] + strip[0] * _damped(box[1], *ka[:2])
    return kd, strip, ka, box, q


def conditional_means(lam: float, mu: float, h: float, d: float) -> tuple[float, float]:
    """Restricted means of the from-H stopping times given descent d < H.

    Returns (MHH, MH0), at lam = mu too: the rows pass through gap 0.
    """
    # MHH and MH0 sum the geometric series of round trips of
    # `_strip_and_box`; trip is the restricted mean up time of one
    kd, (p00, p0h, t00, t0h, *_), ka, box, q = _strip_and_box(lam, mu, h, d)
    phh, ph0, thh, th0 = box[0], box[1], box[2], box[7]
    e, k = (kd if lam > mu else ka)[:2]
    trip = t00 * phh + p00 * thh
    mhh = (trip * p0h / q + t0h) / q
    mh0 = (trip * p00 * ph0 / q + t00 * ph0 + p00 * th0) / q
    return (_damped(mhh, e, k), mh0) if lam > mu else (mhh, _damped(mh0, e, k))
