"""Extended-precision oracle for the rate-asymmetric closed forms and
the restricted transforms.

The closed forms are the direct renewal identities, with shared
denominators in (lam - mu) whose numerators cancel to third order in
delta = (mu - lam)H as the rates approach each other.  They are evaluated
in mpmath at 20 digits beyond what that cancellation costs (never fewer
than 40) and rounded once at the end.  The transforms are the expm1
forms over the roots theta1 <= theta2, whose differences cancel as the
roots merge and as theta2 nears mu.  This is the only module that
imports mpmath; the library evaluates the same quantities in float64.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

FIELDS = ("p00", "p0h", "ph0", "phh", "t00", "t0h", "thh", "th0",
          "m00", "m0h", "mh0", "mhh",
          "kappa00", "kappa0h", "kappah0", "kappahh")

DPS = 40


def digits(lam: float, mu: float, h: float) -> int:
    """Working precision for the asymmetric forms: the third-order
    cancellation in delta = (mu - lam)H costs three digits per decade of
    |delta| below 1, and 20 digits are kept beyond it.  log10 of the two
    factors, because their product can underflow."""
    decades = -(math.log10(abs(mu - lam)) + math.log10(h))
    return max(DPS, 20 + 3 * math.ceil(decades))


def closed_values(lam: float, mu: float, h: float, dps: int | None = None) -> dict:
    """All 16 closed forms at (lam, mu, H), lam != mu, as a field -> float
    dict; `dps` overrides the working precision picked by `digits`."""
    with mp.workdps(dps or digits(lam, mu, h)):
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
        return dict(zip(FIELDS, (float(v) for v in vals)))


def conditional_means(lam: float, mu: float, h: float, d: float,
                      dps: int | None = None) -> tuple[float, float]:
    """(MHH, MH0) given a first descent d < H, lam != mu; `dps` overrides
    the working precision picked by `digits` at the level d (or H at d = 0)."""
    # the terms in d cancel to third order in (mu - lam)d, the smaller
    # delta since d < H; at d = 0 they vanish
    with mp.workdps(dps or digits(lam, mu, d or h)):
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


def _decades(log10: float) -> int:
    return max(0, math.ceil(log10))


def transform_digits(lam: float, mu: float, h: float, omega: float) -> int:
    """Working precision for the transforms, growing with the rate scale
    s = lam + mu + |omega|.  The discriminant (theta2 - theta1)^2 cancels
    from terms of size s^2, and the differences of the roots and of mu
    and the roots cost up to log10(s/(theta2 - theta1)) and log10(s/lam)
    digits more; exp(theta1*H) needs log10(s*H) digits for its argument.
    The discriminant is taken exactly, in rationals; log10 of each factor,
    because their products can overflow."""
    lf, mf, wf = Fraction(lam), Fraction(mu), Fraction(omega)
    disc = wf * wf - 2 * (lf + mf) * wf + (lf - mf) ** 2
    s = lam + mu + abs(omega)
    ratio = Fraction(s) ** 2 / disc if disc > 0 else Fraction(1)
    merge = (ratio.numerator.bit_length() - ratio.denominator.bit_length() + 1) * math.log10(2)
    return (DPS + 2 * _decades(merge) + _decades(math.log10(s) - math.log10(lam))
            + _decades(math.log10(s) + math.log10(h)))


def _roots(lm, m_, w):
    # theta^2 + theta*(lam - mu - omega) + mu*omega = 0, larger-magnitude
    # root first, the other from the product
    b = lm - m_ - w
    disc = w * w - 2 * (lm + m_) * w + (lm - m_) ** 2
    if disc < 0:
        raise ValueError("omega is above its bound, the roots are complex")
    q = -(b + mp.sign(b) * mp.sqrt(disc)) / 2 if b else mp.sqrt(-m_ * w)
    other = m_ * w / q if q else mp.mpf(0)
    return (q, other) if q <= other else (other, q)


def transform_from_origin(lam: float, mu: float, h: float, omega: float,
                          dps: int | None = None) -> tuple[float, float]:
    """(F00, F0H) at omega != 0 and omega up to the bound."""
    with mp.workdps(dps or transform_digits(lam, mu, h, omega)):
        mu, h = mp.mpf(mu), mp.mpf(h)
        t1, t2 = _roots(mp.mpf(lam), mu, mp.mpf(omega))
        delta = t2 - t1
        if not delta:
            ts = 0.5 * (t1 + t2)
            g = mu - ts
            scale = 1 + h * g
            return float(h * g * g / (mu * scale)), float(mp.exp(h * ts) / scale)
        emd = mp.expm1(-h * delta)
        den = (mu - t1) - (mu - t2) * (emd + 1)
        f00 = -emd * (mu - t1) * (mu - t2) / (mu * den)
        f0h = delta * mp.exp(h * t1) / den
        return float(f00), float(f0h)


def transform_from_H(lam: float, mu: float, h: float, omega: float, d: float,
                     dps: int | None = None) -> tuple[float, float]:
    """(FHH, FH0) given a first descent 0 <= d < H, omega != 0."""
    with mp.workdps(dps or transform_digits(lam, mu, h, omega)):
        mu, h, d = mp.mpf(mu), mp.mpf(h), mp.mpf(d)
        t1, t2 = _roots(mp.mpf(lam), mu, mp.mpf(omega))
        delta = t2 - t1
        a = h - d
        if not delta:
            ts = 0.5 * (t1 + t2)
            g = mu - ts
            scale = 1 + h * g
            fhh = mp.exp(ts * d) * (1 + a * g) / scale
            fh0 = d * g * g * mp.exp(-ts * a) / (mu * scale)
            return float(fhh), float(fh0)
        fhh = (mp.exp(t1 * d) * ((mu - t2) * mp.expm1(-delta * a) - delta)
               / ((mu - t2) * mp.expm1(-delta * h) - delta))
        fh0 = (-mp.expm1(-delta * d) * (mu - t1) * (mu - t2) * mp.exp(-t2 * a)
               / (mu * (delta - (mu - t2) * mp.expm1(-delta * h))))
        return float(fhh), float(fh0)


def phase_power_sum(p0h: float, ph0: float, i: int, m: int) -> tuple[float, ...]:
    """(p00, p0h, ph0, phh) of sum_{j=i}^{m} P^j, i >= 1, for the stochastic
    chain with off-diagonal entries p0h and ph0, at 60 digits: P^j =
    S + theta^j (I - S) with theta = 1 - p0h - ph0 formed exactly and S
    the stationary projector.  i = m gives the power P^i."""
    with mp.workdps(60):
        return _power_sum(mp.mpf(p0h), mp.mpf(ph0), i, m)


def phase_power_sum_from_diagonal(p00: float, phh: float, i: int,
                                  m: int) -> tuple[float, ...]:
    """phase_power_sum for the chain with diagonal entries p00 and phh, its
    off-diagonal ones 1 - p00 and 1 - phh formed exactly: the chain a
    float64 PhaseMatrix stands for when p0h and ph0 round to 1."""
    with mp.workdps(60):
        return _power_sum(1 - mp.mpf(p00), 1 - mp.mpf(phh), i, m)


def _power_sum(a, b, i: int, m: int) -> tuple[float, ...]:
    s = a + b
    theta = 1 - s
    geo = sum(theta ** j for j in range(i, m + 1)) if m - i < 64 else (
        theta ** i * (1 - theta ** (m - i + 1)) / s)
    n = m - i + 1
    st0, sth = b / s, a / s
    return tuple(float(x) for x in (n * st0 + geo * sth, (n - geo) * sth,
                                    (n - geo) * st0, n * sth + geo * st0))
