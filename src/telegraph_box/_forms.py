"""Scalar closed forms for the confined telegraph process.

All functions here work on plain floats (lam, mu, H) with H already the
effective level (velocity folded in by the caller).  Rate-asymmetric
formulas share denominators in (lam - mu) whose numerators cancel to
third order in delta = (mu - lam)H as the rates approach each other, so
the asymmetric branch is evaluated in extended precision (mpmath, 20
digits beyond what that cancellation costs and never fewer than 40) and
rounded once at the end.  Within EQUAL_BAND of the diagonal the exact equal-rate
forms are used instead, evaluated at the midpoint rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import DegenerateRates, DomainError

# |lam - mu| * max(1, H) below this means "rates are equal" for formula
# selection; the equal-rate closed forms take over.
EQUAL_BAND = 1e-8

_DPS = 40


def _digits(lam: float, mu: float, h: float) -> int:
    """Working precision for the asymmetric forms: the third-order
    cancellation in delta = (mu - lam)H costs three digits per decade of
    |delta| below 1, and 20 digits are kept beyond it.  log10 of the two
    factors, because their product can underflow."""
    decades = -(math.log10(abs(mu - lam)) + math.log10(h))
    return max(_DPS, 20 + 3 * math.ceil(decades))


def is_equal_rate(lam: float, mu: float, h: float) -> bool:
    return abs(lam - mu) * max(1.0, h) < EQUAL_BAND


@dataclass(frozen=True)
class ClosedValues:
    """Every scalar closed form at one parameter point."""

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
    # conditional duration means m/p, formed before rounding so they stay
    # finite even when a probability underflows in float64
    kappa00: float
    kappa0h: float
    kappah0: float
    kappahh: float


def _closed_values_equal(r: float, h: float) -> tuple[float, ...]:
    # equal-rate corollary forms in x = r*H, written over the bounded
    # p0h = 1/(1+x) and p00 = x/(1+x) so no power of x or H can overflow
    # on its own; float64 is exact to rounding here (no cancellation)
    x = r * h
    p0h = 1.0 / (1.0 + x)
    p00 = x / (1.0 + x)
    t0h = h * (p0h + p00 * p00 / 6.0)
    t00 = h * p00 * (2.0 + p0h) / 6.0
    th0 = h * p00 * p00 / 6.0
    m00 = 2.0 * t00
    m0h = h * (p0h + p00 * p00 / 3.0)
    k00 = h * (2.0 + p0h) / 3.0          # m00 / p00
    k0h = h * (1.0 + x * p00 / 3.0)      # m0h / p0h
    return (p00, p0h, p0h, p00, t00, t0h, t00, th0,
            m00, m0h, m0h, m00, k00, k0h, k0h, k00)


def _closed_values_asym(lam: float, mu: float, h: float) -> tuple[float, ...]:
    with mp.workdps(_digits(lam, mu, h)):
        lm = mp.mpf(lam)
        m_ = mp.mpf(mu)
        H = mp.mpf(h)
        d = m_ - lm                      # mu - lam
        E = mp.e ** (d * H)              # e^{(mu-lam)H}
        E2 = E * E
        G = 1 / E                        # e^{(lam-mu)H}

        a = m_ - lm * G                  # origin-row denominator
        b = lm - m_ * E                  # level-row denominator
        p0h = (m_ - lm) / a
        ph0 = (lm - m_) / b
        # not 1 - p0h and 1 - ph0: at a rate near 1e-300 those round to
        # exactly 0 and the kappa ratios below divide by it
        p00 = lm * (1 - G) / a
        phh = m_ * (1 - E) / b

        den = (lm - m_) * b ** 2
        t0h = E * (2 * lm * m_ * (E - 1)
                   + H * (lm - m_) * (lm ** 2 + m_ ** 2 * E)) / den
        t00 = lm * (lm - m_ * E2
                    - E * (lm - m_) * (1 + H * (lm + m_))) / den
        thh = (m_ / lm) * t00
        th0 = lm * m_ * (2 + H * d + E * (H * d - 2)) / ((m_ - lm) * b ** 2)

        m00 = 2 * t00
        mhh = 2 * thh
        m0h = E * (4 * lm * m_ * (E - 1)
                   + H * (lm ** 2 - m_ ** 2) * (lm + m_ * E)) / den
        mh0 = (m_ * G * (lm * (4 + lm * H) - m_ ** 2 * H)
               + lm * G * G * (-4 * m_ + H * (lm ** 2 - m_ ** 2))) \
            / ((lm - m_) * a ** 2)

        vals = [p00, p0h, ph0, phh, t00, t0h, thh, th0, m00, m0h, mh0, mhh,
                m00 / p00, m0h / p0h, mh0 / ph0, mhh / phh]
        return tuple(float(v) for v in vals)


def closed_values(lam: float, mu: float, h: float) -> ClosedValues:
    """All closed forms at (lam, mu, H); DomainError if one is not finite."""
    if is_equal_rate(lam, mu, h):
        vals = _closed_values_equal(0.5 * (lam + mu), h)
    else:
        vals = _closed_values_asym(lam, mu, h)
    if not all(map(math.isfinite, vals)):
        raise DomainError(f"closed forms at lam={lam!r}, mu={mu!r}, H={h!r} "
                          "are not finite in float64")
    return ClosedValues(*vals)


def conditional_hit(lam: float, mu: float, h: float, d: float) -> float:
    """P(descent phase from H ends at the origin | first descent lasted d)."""
    if d >= h:
        return 1.0
    if d <= 0.0:
        return 0.0
    if is_equal_rate(lam, mu, h):
        r = 0.5 * (lam + mu)
        return r * d / (1.0 + r * h)
    dd = mu - lam
    # lam*(e^{(mu-lam)d}-1) / (mu*e^{(mu-lam)H}-lam); denominator written
    # as dd + mu*expm1(dd*H): both terms share a sign, no cancellation
    return lam * math.expm1(dd * d) / (dd + mu * math.expm1(dd * h))


def conditional_means(lam: float, mu: float, h: float, d: float) -> tuple[float, float]:
    """Restricted means of the from-H stopping times given descent d < H.

    Returns (MHH, MH0).  Requires distinct rates; below EQUAL_BAND the
    shared denominators vanish and there is no equal-rate counterpart.
    """
    if is_equal_rate(lam, mu, h):
        raise DegenerateRates(
            f"conditional means need distinct rates; |lam-mu|*max(1,H) < {EQUAL_BAND}"
        )
    # the terms in d cancel to third order in (mu - lam)d, the smaller
    # delta since d < H; at d = 0 they vanish
    with mp.workdps(_digits(lam, mu, d or h)):
        lm = mp.mpf(lam)
        m_ = mp.mpf(mu)
        H = mp.mpf(h)
        D = mp.mpf(d)
        dd = m_ - lm
        E = mp.e ** (dd * H)
        ED = mp.e ** (dd * D)
        den = (lm - m_) * (lm - m_ * E) ** 2
        mhh = (D * (lm - m_ * E) * (lm ** 2 * ED + m_ ** 2 * E)
               + lm * m_ * E * (ED - 1) * (2 + H * (lm + m_))) / den
        mh0 = lm * (D * (m_ + lm * ED) * (m_ * E - lm)
                    + (1 - ED) * (lm + lm * m_ * H + E * (1 + lm * H) * m_)) / den
        return float(mhh), float(mh0)
