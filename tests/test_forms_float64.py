"""The float64 closed forms against the extended-precision oracle.

The gate: every one of the 16 closed forms and both conditional means
within 1e-12 relative of `_mp_oracle` on a log grid in |delta| and
min(lam, mu)*H, in both rate orders, and the mean absorption time within
1e-13 of v.(l1, l1*) formed in mpmath from the oracle's closed forms.  A
value below the normal range has lost its relative precision in float64;
there the bound is taken relative to the smallest normal float instead.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import telegraph_box
from telegraph_box import _forms

import _mp_oracle

REL = 1e-12
DESCENTS = (0.5, 1e-3, 1e-9)         # d/H for the conditional means
DECADES = np.arange(-12.0, 3.25, 0.5)     # log10 |delta|


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL * max(abs(want), sys.float_info.min)


def _points(decade: float):
    # (lam, mu, H) with (mu - lam)H = +/- delta and min(lam, mu)H = x; H
    # keeps each point ten times outside the equal-rate band
    delta = 10.0 ** decade
    for x in 10.0 ** np.arange(-3.0, 3.5, 1.0):
        for h in {min(1.0, 1e7 * delta), 30.0 if delta >= 1e-4 else 1e6 * delta}:
            lam, mu = x / h, (x + delta) / h
            yield lam, mu, h
            yield mu, lam, h


@pytest.mark.parametrize("decade", DECADES)
def test_closed_values_match_the_oracle(decade):
    for lam, mu, h in _points(decade):
        got = vars(_forms.closed_values(lam, mu, h))
        want = _mp_oracle.closed_values(lam, mu, h)
        bad = [n for n, v in want.items() if not _close(got[n], v)]
        assert not bad, (lam, mu, h, bad)


@pytest.mark.parametrize("decade", DECADES)
def test_conditional_means_match_the_oracle(decade):
    for lam, mu, h in _points(decade):
        for f in DESCENTS:
            got = _forms.conditional_means(lam, mu, h, f * h)
            want = _mp_oracle.conditional_means(lam, mu, h, f * h)
            assert all(map(_close, got, want)), (lam, mu, h, f, got, want)


ETA_REL = 1e-13
ALPHAS = (1e-6, 0.02, 0.5, 1.0)


def _absorption_time(cv: dict, alpha: float) -> float:
    # v.(l1, l1*) with v = e0'(I - (1 - alpha)P)^-1, at 40 digits from the
    # oracle's closed forms
    with mp.workdps(40):
        a, p0h, ph0 = mp.mpf(alpha), mp.mpf(cv["p0h"]), mp.mpf(cv["ph0"])
        det = a * (a + (1 - a) * (p0h + ph0))
        l1, l1s = mp.mpf(cv["m00"]) + cv["m0h"], mp.mpf(cv["mh0"]) + cv["mhh"]
        return float(((a + (1 - a) * ph0) * l1 + (1 - a) * p0h * l1s) / det)


@pytest.mark.parametrize("decade", DECADES)
def test_absorption_time_matches_the_oracle(decade):
    for lam, mu, h in _points(decade):
        want = _mp_oracle.closed_values(lam, mu, h)
        p = telegraph_box.ModelParams(lam, mu, h)
        for alpha in ALPHAS:
            got = telegraph_box.expected_absorption_time(
                p, telegraph_box.SwitchingProb(alpha)).expected_absorption_time
            ref = _absorption_time(want, alpha)
            assert abs(got - ref) <= ETA_REL * ref, (lam, mu, h, alpha, got, ref)


def _band_points():
    # (lam, mu, H) inside the equal-rate band, with |delta| from 1e-15 to
    # 1e-9 and min(lam, mu)H from 1e-3 to 1e3, in both rate orders; x is
    # kept below delta*2^40, so the float rates hold delta to ten bits
    for delta in 10.0 ** np.arange(-15.0, -8.5, 1.0):
        for x in 10.0 ** np.arange(-3.0, 3.5, 1.0):
            if x > delta * 2.0 ** 40:
                continue
            for h in (1.0, 30.0):
                lam, mu = x / h, (x + delta) / h
                assert _forms.is_equal_rate(lam, mu, h)
                yield lam, mu, h
                yield mu, lam, h


def test_conditional_means_in_the_band_match_the_oracle():
    # conditional_means has no band: it is evaluated at the rates given
    for lam, mu, h in _band_points():
        for f in DESCENTS[:2]:
            got = _forms.conditional_means(lam, mu, h, f * h)
            want = _mp_oracle.conditional_means(lam, mu, h, f * h)
            assert all(map(_close, got, want)), (lam, mu, h, f, got, want)


def test_conditional_means_at_equal_rates_match_the_oracle():
    # lam = mu exactly, against the oracle at mu = lam(1 + 2^-46): the
    # limit differs from that by about lam*H*2^-46, below 2e-13 here
    for lam in 10.0 ** np.arange(-3.0, 3.5, 0.5):
        for h in 10.0 ** np.arange(-3.0, 3.5, 0.5):
            if lam * h > 10.0:
                continue
            for f in DESCENTS[:2]:
                got = _forms.conditional_means(lam, lam, h, f * h)
                want = _mp_oracle.conditional_means(lam, lam * (1.0 + 2.0 ** -46), h, f * h)
                assert all(map(_close, got, want)), (lam, h, f, got, want)


@pytest.mark.parametrize("lam, mu, h", [(100.0, 0.01, 31.6), (0.1, 20.0, 30.0),
                                        (1e3, 0.5, 10.0), (7.31e-15, 1e-17, 1e17),
                                        (1.0, 1e200, 1.0), (1e200, 3e200, 1.0),
                                        (2.74e166, 3.14e-214, 3.15e124),
                                        (2.39e221, 1.84e298, 2.80e275),
                                        (6.62e271, 6.620000000008e271, 1.16e178),
                                        (6.42e-256, 3.98e-231, 2.15e233)])
def test_large_delta_and_extreme_scales_match_the_oracle(lam, mu, h):
    # e^{|delta|} is far past float64 here; the kappas must survive, and
    # a probability the oracle rounds to 0 must come out as 0.0.  At (7.31e-15, 1e-17,
    # 1e17) e^{-730} is subnormal, yet t0h = e^{-730} * H * O(1) is
    # normal; past |delta| = 1e154 a 1/delta^2 underflows, and in the
    # last four points min(lam, mu)*phi1 or e^{-|delta|} underflows, or
    # lam*H, mu*H or delta overflow, while every closed form and
    # conditional mean is a normal number.
    got = vars(_forms.closed_values(lam, mu, h))
    want = _mp_oracle.closed_values(lam, mu, h)
    for name, v in want.items():
        assert _close(got[name], v), name
        if v == 0.0:
            assert got[name] == 0.0, name
    for f in DESCENTS:
        assert all(map(_close, _forms.conditional_means(lam, mu, h, f * h),
                       _mp_oracle.conditional_means(lam, mu, h, f * h)))


@pytest.mark.parametrize("lam, mu, h", [(1.0, 2.0, 1.0), (2.0, 0.5, 5.0),
                                        (1e3, 0.5, 10.0), (1.0, 1.0 + 1e-6, 1e-3)])
def test_level_row_is_the_origin_row_at_swapped_rates(lam, mu, h):
    # bit for bit: both rows come from one function; th0 has its own form
    cv, sw = _forms.closed_values(lam, mu, h), _forms.closed_values(mu, lam, h)
    assert (cv.ph0, cv.phh, cv.thh, cv.mh0, cv.mhh, cv.kappah0, cv.kappahh) == (
        sw.p0h, sw.p00, sw.t00, sw.m0h, sw.m00, sw.kappa0h, sw.kappa00)


def test_import_leaves_mpmath_out():
    src = Path(telegraph_box.__file__).resolve().parents[1]
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); "
            "import telegraph_box, telegraph_box.cli; print('mpmath' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
