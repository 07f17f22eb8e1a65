"""Closed-form results for the confined telegraph process.

Everything here is exact arithmetic on the model parameters: phase
outcome probabilities, restricted means of the dual stopping times,
renewal-cycle means, powers of the two-state phase chain, expected
cumulative phase lengths, and the mean time till absorption under
Bernoulli(alpha) boundary switching.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

from .core import Boundary, ModelParams, SwitchingProb
from .errors import InvalidIndex, float64_result


@dataclass(frozen=True)
class PhaseMatrix:
    """Transition matrix of the phase chain on {origin, level}.

    Rows index the start boundary, columns the end boundary:
    (p00, p0h) is the origin row, (ph0, phh) the level row.
    """

    p00: float
    p0h: float
    ph0: float
    phh: float

    def entry(self, u: Boundary, v: Boundary) -> float:
        if u is Boundary.ORIGIN:
            return self.p00 if v is Boundary.ORIGIN else self.p0h
        return self.ph0 if v is Boundary.ORIGIN else self.phh


@dataclass(frozen=True)
class TruncatedTimeMeans:
    """Restricted means E[T * 1{phase type}] of the dual stopping times."""

    t00: float
    t0h: float
    thh: float
    th0: float


@dataclass(frozen=True)
class CycleMeans:
    """Phase-duration means, unconditional (m) and conditional (kappa).

    m_uv averages the duration times the indicator of the (u, v) phase
    type; kappa_uv = m_uv / P_uv is the mean duration given the type.
    """

    m00: float
    m0h: float
    mh0: float
    mhh: float
    kappa00: float
    kappa0h: float
    kappah0: float
    kappahh: float


@dataclass(frozen=True)
class AbsorptionReport:
    """Expected-absorption-time summary.

    l1        : mean duration of a phase started at the origin
    l1_star   : mean duration of a phase started at the level
    theta_spectral : second eigenvalue of the phase chain, p00 + phh - 1
    expected_absorption_time : mean total time until absorption
    """

    l1: float
    l1_star: float
    theta_spectral: float
    expected_absorption_time: float


def _select(cls, p: ModelParams):
    # each result type holds the ClosedValues fields of the same names
    return cls(*(getattr(p._closed, f.name) for f in fields(cls)))


def phase_probabilities(p: ModelParams) -> PhaseMatrix:
    """Outcome probabilities of the four phase types."""
    return _select(PhaseMatrix, p)


def expected_truncated_times(p: ModelParams) -> TruncatedTimeMeans:
    """Restricted means of the dual stopping times, one per phase type."""
    return _select(TruncatedTimeMeans, p)


def expected_cycles(p: ModelParams) -> CycleMeans:
    """Unconditional and conditional mean phase durations."""
    return _select(CycleMeans, p)


def _theta_powers(s: float, j: int) -> tuple[float, float]:
    """(theta^j, 1 - theta^j) at theta = 1 - s, for j >= 1.

    Formed as exp and -expm1 of j*log|theta|, with log1p(-s) for theta > 0,
    so that a theta that rounds to 1 keeps its distance from 1; for
    theta < 0, 1 - s is exact and the sign follows the parity of j.  A j
    past float64 reads as inf.  Callers pass theta < 0 only for a chain
    that alternates, theta = -1, and for a P^2 whose theta^2 is below an
    ulp, theta within an ulp of 0; other negative thetas go through P^2.
    """
    if s == 1.0:
        return 0.0, 1.0
    lg = math.log1p(-s) if s < 1.0 else math.log(s - 1.0)
    try:
        x = j * lg
    except OverflowError:
        x = -math.inf if lg else 0.0        # lg <= 0
    if s > 1.0 and j % 2:
        return -math.exp(x), 1.0 + math.exp(x)
    return math.exp(x), 0.0 - math.expm1(x)     # not -0.0 at x = 0


# 1/(k+2)! for k < 17, the series of _gap_sum: the first term left out
# is below 1e-18 of the sum
_GAP_SERIES = tuple(1.0 / math.factorial(k + 2) for k in range(17))


def _gap_sum(s: float, n: int) -> float:
    """sum_{k<n} (1 - theta^k) at theta = 1 - s, for n >= 1.

    n - (1 - theta^n)/s cancels as theta nears 1.  Below n*s = 1/2 the
    sum is b(b - a)/s * sum_k h_k/(k+2)! instead, with a = log theta,
    b = n*a and h_k = (b^(k+1) - a^(k+1))/(b - a): the difference of the
    phi_1 functions at a and b, whose terms shrink like b^k/(k+2)!.
    """
    if s >= 1.0 or n >= 0.5 / s:
        return n - _theta_powers(s, n)[1] / s
    a = math.log1p(-s)
    b = n * a
    h = ak = 1.0
    total = _GAP_SERIES[0]
    for c in _GAP_SERIES[1:]:
        ak *= a
        h = b * h + ak                       # h_k = b h_{k-1} + a^k
        total += h * c
    return b * (b - a) * total / s


def _index(j, least: float, what: str) -> int:
    """j as an int, or InvalidIndex unless it is an integer >= least: ints
    of any size, numpy ints and bools pass; floats, nan and inf do not."""
    try:
        if operator.index(j) >= least:
            return operator.index(j)
    except TypeError:
        pass
    raise InvalidIndex(f"{what}, got {j!r}")


@float64_result("phase-chain powers")
def matrix_power(pm: PhaseMatrix, j: int) -> PhaseMatrix:
    """j-th power of the phase chain, the one-term power sum q_sum(pm, j, j):
    exactly the identity at j = 0, the stationary matrix past float64."""
    j = _index(j, 0, "matrix power needs an integer j >= 0")
    o, l, qs = Boundary.ORIGIN, Boundary.LEVEL, q_sum.__wrapped__
    return PhaseMatrix(*(qs(pm, j, j, u, v)
                         for u, v in ((o, o), (o, l), (l, o), (l, l))))


@float64_result("partial power sums")
def q_sum(pm: PhaseMatrix, i: int, m: int, u: Boundary, v: Boundary) -> float:
    """Partial power sum: the (u, v) entry of sum_{j=i}^{m} P^j.

    The chain has eigenvalues 1 and theta = p00 + phh - 1, so
    P^j = S + theta^j * (I - S) with S the rank-one stationary projector,
    and the sum is closed through the geometric sum of theta^j.  Empty
    ranges (m < i) give 0; the j = 0 term is exactly the identity.
    """
    i = _index(i, 0, "q_sum needs an integer i >= 0")
    m = _index(m, -math.inf, "q_sum needs an integer m")
    if pm.p0h + pm.ph0 > 1.0 and pm.p00 + pm.phh:
        # theta < 0: sums of powers of P^2, whose theta^2 > 0 is taken from
        # its off-diagonal entries, sums of terms >= 0, so a chain that
        # nearly alternates keeps them; the odd powers j = 2k + 1 as P^(2k) P.
        # P^2 is not squared again: where its theta^2 is below an ulp its
        # entries may read as theta < 0, and squaring on would drift its
        # rows from 1 and take time exponential in log m
        o, l = Boundary.ORIGIN, Boundary.LEVEL
        sq = PhaseMatrix(pm.p00 * pm.p00 + pm.p0h * pm.ph0, pm.p00 * pm.p0h + pm.p0h * pm.phh,
                         pm.ph0 * pm.p00 + pm.phh * pm.ph0, pm.ph0 * pm.p0h + pm.phh * pm.phh)
        odd = (i // 2, (m - 1) // 2)
        return (_spectral_sum(sq, (i + 1) // 2, m // 2, u, v)
                + _spectral_sum(sq, *odd, u, o) * pm.entry(o, v)
                + _spectral_sum(sq, *odd, u, l) * pm.entry(l, v))
    return _spectral_sum(pm, i, m, u, v)


def _spectral_sum(pm: PhaseMatrix, i: int, m: int, u: Boundary, v: Boundary) -> float:
    """q_sum in closed form at ints i >= 0 and m, for theta >= 0 and for the
    chain that alternates, theta = -1."""
    if m < i:
        return 0.0
    if i == 0:
        # peel the identity term off so the j=0 convention is exact
        return float(u is v) + _spectral_sum(pm, 1, m, u, v)
    s = pm.p0h + pm.ph0
    n = m - i + 1
    vi, wi = _theta_powers(s, i)
    stat0, stath = pm.ph0 / s, pm.p0h / s
    stat, other = (stat0, stath) if v is Boundary.ORIGIN else (stath, stat0)
    if u is not v:
        # stat times sum_{j=i}^{m} (1 - theta^j), a sum of terms >= 0
        return stat * (n * wi + vi * _gap_sum(s, n))
    # sum_{j=i}^{m} theta^j = theta^i * (1 - theta^n) / (1 - theta)
    return n * stat + vi * _theta_powers(s, n)[1] / s * other


@float64_result("expected phase lengths")
def expected_length_L(p: ModelParams, n: int) -> float:
    """Expected total duration of the first n phases of a path from the
    origin, with each reflected phase restarting from the boundary it hit.

    Satisfies L_n = L_{n-1} + l1 * P^(n-1)[0,0] + l1* * P^(n-1)[0,H];
    computed in closed form through the power sums from j = 0 to n - 1.
    """
    n = _index(n, 1, "expected_length_L needs an integer n >= 1")
    cv = p._closed
    pm = _select(PhaseMatrix, p)
    l1, l1s = cv.m00 + cv.m0h, cv.mh0 + cv.mhh
    # the bare sums, so that an n past float64 fails naming n, not i and m
    o, l, qs = Boundary.ORIGIN, Boundary.LEVEL, q_sum.__wrapped__
    return l1 * qs(pm, 0, n - 1, o, o) + l1s * qs(pm, 0, n - 1, o, l)


def _expected_visits(p: ModelParams, s: SwitchingProb) -> tuple[float, float]:
    """(v0, vH) = e0'(I - (1 - alpha)P)^-1, the mean numbers of phases a
    path from the origin starts at each wall: sums of terms >= 0 over the
    determinant, both inf where it underflows to 0."""
    cv, alpha, beta = p._closed, s.alpha, 1.0 - s.alpha
    # the determinant is a product with no cancellation
    det = alpha * (alpha + beta * (cv.p0h + cv.ph0))
    return ((alpha + beta * cv.ph0) / det, beta * cv.p0h / det) if det else (math.inf, math.inf)


@float64_result("expected absorption times")
def expected_absorption_time(p: ModelParams, s: SwitchingProb) -> AbsorptionReport:
    """Mean time until absorption for a path started at the origin.

    A path runs v0 phases from the origin and vH from the level on
    average (_expected_visits), so the mean is v0 * l1 + vH * l1*.
    alpha = 1 gives v = (1, 0) and exactly the single-phase mean l1.
    Raises DomainError where the mean is past float64.
    """
    cv = p._closed
    l1, l1s = cv.m00 + cv.m0h, cv.mh0 + cv.mhh
    v0, vh = _expected_visits(p, s)
    return AbsorptionReport(l1, l1s, cv.p00 + cv.phh - 1.0, v0 * l1 + vh * l1s)
