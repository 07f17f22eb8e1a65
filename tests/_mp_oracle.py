"""Extended-precision oracle for the rate-asymmetric closed forms.

The formulas are the direct renewal identities, with shared denominators
in (lam - mu) whose numerators cancel to third order in
delta = (mu - lam)H as the rates approach each other.  They are evaluated
in mpmath at 20 digits beyond what that cancellation costs (never fewer
than 40) and rounded once at the end.  This is the only module that
imports mpmath; the library evaluates the same quantities in float64.
"""

from __future__ import annotations

import math

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
