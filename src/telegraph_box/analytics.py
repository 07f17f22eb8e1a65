"""Closed-form results for the confined telegraph process.

Everything here is exact arithmetic on the model parameters: phase
outcome probabilities, restricted means of the dual stopping times,
renewal-cycle means, powers of the two-state phase chain, expected
cumulative phase lengths, and the mean time till absorption under
Bernoulli(alpha) boundary switching.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import _forms
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


def _closed_values(p: ModelParams) -> _forms.ClosedValues:
    return _forms.closed_values(p.lam, p.mu, p.effective_level)


def _select(cls, cv: _forms.ClosedValues):
    # each result type holds the ClosedValues fields of the same names
    return cls(*(getattr(cv, f.name) for f in fields(cls)))


def phase_probabilities(p: ModelParams) -> PhaseMatrix:
    """Outcome probabilities of the four phase types."""
    return _select(PhaseMatrix, _closed_values(p))


def expected_truncated_times(p: ModelParams) -> TruncatedTimeMeans:
    """Restricted means of the dual stopping times, one per phase type."""
    return _select(TruncatedTimeMeans, _closed_values(p))


def expected_cycles(p: ModelParams) -> CycleMeans:
    """Unconditional and conditional mean phase durations."""
    return _select(CycleMeans, _closed_values(p))


@float64_result("phase-chain powers")
def matrix_power(pm: PhaseMatrix, j: int) -> PhaseMatrix:
    """j-th power of the phase chain in closed spectral form.

    The chain has eigenvalues 1 and theta = p00 + phh - 1, so
    P^j = S + theta^j * (I - S) with S the rank-one stationary projector.
    j = 0 gives the identity.
    """
    if j < 0:
        raise InvalidIndex(f"matrix power needs j >= 0, got {j}")
    s = pm.p0h + pm.ph0
    vj = (1.0 - s) ** j                 # exactly 1 at j = 0
    stat0, stath = pm.ph0 / s, pm.p0h / s
    return PhaseMatrix(
        p00=stat0 + vj * (1.0 - stat0),
        p0h=stath - vj * stath,
        ph0=stat0 - vj * stat0,
        phh=stath + vj * (1.0 - stath),
    )


@float64_result("partial power sums")
def q_sum(pm: PhaseMatrix, i: int, m: int, u: Boundary, v: Boundary) -> float:
    """Partial power sum: the (u, v) entry of sum_{j=i}^{m} P^j.

    Empty ranges (m < i) give 0; the j = 0 term is the identity matrix.
    Evaluated in closed form via the geometric sum of theta^j.
    """
    if i < 0:
        raise InvalidIndex(f"q_sum needs i >= 0, got {i}")
    if m < i:
        return 0.0
    res = 1.0 if u is v else 0.0
    if i == 0:
        # peel the identity term off so the j=0 convention is exact
        return res + q_sum(pm, 1, m, u, v)
    s = pm.p0h + pm.ph0
    vart = 1.0 - s
    n_terms = m - i + 1
    # sum_{j=i}^{m} vart^j = vart^i * (1 - vart^{n_terms}) / (1 - vart)
    geo = vart ** i * (1.0 - vart ** n_terms) / s
    stat = (pm.ph0 if v is Boundary.ORIGIN else pm.p0h) / s
    return n_terms * stat + geo * (res - stat)


@float64_result("expected phase lengths")
def expected_length_L(p: ModelParams, n: int) -> float:
    """Expected total duration of the first n phases of a path from the
    origin, with each reflected phase restarting from the boundary it hit.

    Satisfies L_n = L_{n-1} + l1 * P^(n-1)[0,0] + l1* * P^(n-1)[0,H];
    computed in closed form through the partial power sums.
    """
    if n < 1:
        raise InvalidIndex(f"expected_length_L needs n >= 1, got {n}")
    cv = _closed_values(p)
    pm = _select(PhaseMatrix, cv)
    l1 = cv.m00 + cv.m0h
    l1s = cv.mh0 + cv.mhh
    # at n = 1 both sums are empty, 0.0, and L_1 = l1 exactly
    return (l1
            + l1 * q_sum(pm, 1, n - 1, Boundary.ORIGIN, Boundary.ORIGIN)
            + l1s * q_sum(pm, 1, n - 1, Boundary.ORIGIN, Boundary.LEVEL))


@float64_result("expected absorption times")
def _absorption(cv: _forms.ClosedValues, alpha: float) -> AbsorptionReport:
    l1 = cv.m00 + cv.m0h
    l1s = cv.mh0 + cv.mhh
    vart = cv.p00 + cv.phh - 1.0
    if alpha == 1.0:
        eta = l1
    else:
        # where 1/alpha is past float64 a denominator can underflow to 0
        ssum = cv.p0h + cv.ph0
        eta = ((l1 * cv.ph0 + l1s * cv.p0h) / (alpha * ssum)
               + cv.p0h * (l1 - l1s) / (ssum * (1.0 - (1.0 - alpha) * vart)))
    return AbsorptionReport(l1, l1s, vart, eta)


def expected_absorption_time(p: ModelParams, s: SwitchingProb) -> AbsorptionReport:
    """Mean time until absorption for a path started at the origin.

    The number of phases is Geometric(alpha), so the mean is
    alpha * sum_n L_n (1-alpha)^(n-1); the geometric structure of the
    phase chain collapses the series to two terms.  alpha = 1 returns
    exactly the single-phase mean l1.  Raises DomainError where the mean
    is past float64.
    """
    return _absorption(_closed_values(p), s.alpha)
