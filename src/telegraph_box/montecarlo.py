"""Estimation layer over the array simulation engines.

Work is cut into fixed-size batches; batch b consumes the three random
streams (3b, 3b+1, 3b+2) for origin phases, level phases, and absorption
paths.  Batches run one after another, and their moments are reduced
with a fixed pairwise tree, so the result depends only on (seed, batch
layout), and the estimate over two half-ranges merges bit for bit into
the full-range estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import analytics, mgf
from ._report import render
from .core import Boundary, ModelParams, RandomSource, SwitchingProb
from .errors import DomainError
from .simulate import _run_absorption, _run_phases

BATCH_SIZE = 2 ** 14

# accumulator rows, in fixed order
_QUANTITIES = (
    "p00", "p0h", "ph0", "phh",
    "m00", "m0h", "mh0", "mhh",
    "mean_m", "absorption_time",
    "f00", "f0h",
)
_NQ = len(_QUANTITIES)


@dataclass(frozen=True)
class MCSummary:
    """Point estimates with standard errors from one estimation run.

    phase_freqs and cycle_means are ordered (00, 0H, H0, HH); the se_*
    tuples match.  Each standard error is the sample standard deviation
    (ddof=1) divided by sqrt(n_paths).
    """

    n_paths: int
    phase_freqs: tuple[float, float, float, float]
    cycle_means: tuple[float, float, float, float]
    mean_m: float
    mean_absorption_time: float
    se_phase_freqs: tuple[float, float, float, float]
    se_cycle_means: tuple[float, float, float, float]
    se_mean_m: float
    se_mean_absorption_time: float


@dataclass(frozen=True)
class QuantityRecord:
    """One validated quantity: estimate vs closed form."""

    name: str
    analytic: float
    estimate: float
    standard_error: float
    z_score: float


@dataclass(frozen=True)
class ValidationReport:
    records: tuple[QuantityRecord, ...]
    overall_pass: bool
    n_paths: int
    seed: int
    z_max: float


def _clock_frequencies(cm: analytics.CycleMeans) -> tuple[float, float]:
    """Frequencies omega of the f00 and f0h rows, -1/kappa00 and
    -1/kappa0h: the transforms are taken about one conditional mean
    phase duration out, where exp(omega*T) is neither near 1 nor near 0."""
    return -1.0 / cm.kappa00, -1.0 / cm.kappa0h


def _batch_moments(p: ModelParams, s: SwitchingProb, seed: int,
                   batch: int, size: int, omega: tuple[float, float]) -> np.ndarray:
    """(count, sum, sum of squares) rows for one batch, shape (_NQ, 3).

    The f00 and f0h rows are exp(omega*T) on the origin phases that return
    and on those that cross, with T their dual stopping time t_stop.
    """
    # first, so that phase counts past the budget fail before any phase
    # is run; each engine has its own stream, so the order changes no value
    cols = {}
    cols["mean_m"], cols["absorption_time"], _ = _run_absorption(
        p, s, RandomSource(seed, 3 * batch + 2), size)
    endl, dur, _, t_stop, _ = _run_phases(
        Boundary.ORIGIN, p, RandomSource(seed, 3 * batch), size)
    cols |= {
        "p00": ~endl,
        "p0h": endl,
        "m00": np.where(~endl, dur, 0.0),
        "m0h": np.where(endl, dur, 0.0),
    }
    cols["f00"] = np.where(~endl, np.exp(omega[0] * t_stop), 0.0)
    cols["f0h"] = np.where(endl, np.exp(omega[1] * t_stop), 0.0)

    endl, dur, _, _, _ = _run_phases(
        Boundary.LEVEL, p, RandomSource(seed, 3 * batch + 1), size)
    cols["ph0"] = ~endl
    cols["phh"] = endl
    cols["mh0"] = np.where(~endl, dur, 0.0)
    cols["mhh"] = np.where(endl, dur, 0.0)

    # column by column, not through a (12, size) matrix: each sum is the
    # same pairwise sum over one contiguous column
    moments = np.empty((_NQ, 3))
    moments[:, 0] = size
    for row, name in zip(moments, _QUANTITIES):
        x = np.asarray(cols[name], dtype=float)
        row[1:] = x.sum(), (x * x).sum()
    return moments


def _reduce_pairwise(blocks: list[np.ndarray]) -> np.ndarray:
    """Combine per-batch moments with a fixed binary tree (order-stable)."""
    if len(blocks) == 1:
        return blocks[0]
    mid = len(blocks) // 2
    return _reduce_pairwise(blocks[:mid]) + _reduce_pairwise(blocks[mid:])


def _gather(p: ModelParams, s: SwitchingProb, n_paths: int, seed: int,
            omega: tuple[float, float]) -> np.ndarray:
    if n_paths < 10 ** 3:
        raise DomainError(f"need at least 1000 paths, got {n_paths}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    sizes = [BATCH_SIZE] * (n_paths // BATCH_SIZE)
    if n_paths % BATCH_SIZE:
        sizes.append(n_paths % BATCH_SIZE)
    return _reduce_pairwise([_batch_moments(p, s, seed, b, k, omega)
                             for b, k in enumerate(sizes)])


def _mean_se(row: np.ndarray) -> tuple[float, float]:
    n, sx, sxx = row
    mean = sx / n
    var = max(sxx - sx * sx / n, 0.0) / (n - 1.0)
    return float(mean), float(np.sqrt(var / n))


def estimate(p: ModelParams, s: SwitchingProb, n_paths: int, seed: int) -> MCSummary:
    """Sample means and standard errors over n_paths phases of each start
    boundary plus n_paths absorption paths, deterministic in (seed).
    Raises DomainError before simulating where the mean absorption time
    is past float64."""
    analytics.expected_absorption_time(p, s)
    mom = _gather(p, s, n_paths, seed,
                  _clock_frequencies(analytics.expected_cycles(p)))
    stats = dict(zip(_QUANTITIES, (_mean_se(row) for row in mom)))
    return MCSummary(
        n_paths=n_paths,
        phase_freqs=tuple(stats[k][0] for k in ("p00", "p0h", "ph0", "phh")),
        cycle_means=tuple(stats[k][0] for k in ("m00", "m0h", "mh0", "mhh")),
        mean_m=stats["mean_m"][0],
        mean_absorption_time=stats["absorption_time"][0],
        se_phase_freqs=tuple(stats[k][1] for k in ("p00", "p0h", "ph0", "phh")),
        se_cycle_means=tuple(stats[k][1] for k in ("m00", "m0h", "mh0", "mhh")),
        se_mean_m=stats["mean_m"][1],
        se_mean_absorption_time=stats["absorption_time"][1],
    )


def _analytic_values(p: ModelParams, s: SwitchingProb):
    """Closed-form mean of every row, the exact per-path variance of the
    f00 and f0h rows, F(2 omega) - F(omega)^2, and their frequencies."""
    cm = analytics.expected_cycles(p)
    mean = {
        **asdict(analytics.phase_probabilities(p)), **asdict(cm),
        "mean_m": 1.0 / s.alpha,
        "absorption_time": analytics.expected_absorption_time(p, s).expected_absorption_time,
    }
    omega = _clock_frequencies(cm)
    var = {}
    for i, (name, w) in enumerate(zip(("f00", "f0h"), omega)):
        mean[name] = f = mgf.transform_from_origin(w, p)[i]
        var[name] = max(mgf.transform_from_origin(2.0 * w, p)[i] - f * f, 0.0)
    return mean, var, omega


def validate(p: ModelParams, s: SwitchingProb, n_paths: int, seed: int,
             z_max: float = 4.0) -> ValidationReport:
    """Compare every estimable quantity against its closed form.

    One record per quantity; overall_pass is true iff every |z| <= z_max.
    The f00 and f0h rows take their standard error from the exact
    variance, the others from the sample.  A zero standard error yields
    z = 0 only on exact agreement.  Raises DomainError unless z_max is
    finite and positive, and before simulating where a closed form is
    past float64.
    """
    if not (math.isfinite(z_max) and z_max > 0.0):
        raise DomainError(f"z_max must be finite and > 0, got {z_max!r}")
    analytic, var, omega = _analytic_values(p, s)
    mom = _gather(p, s, n_paths, seed, omega)
    records = []
    for name, row in zip(_QUANTITIES, mom):
        mean, se = _mean_se(row)
        if name in var:
            se = math.sqrt(var[name] / row[0])
        ref = analytic[name]
        if se == 0.0:
            z = 0.0 if mean == ref else float("inf")
        else:
            z = (mean - ref) / se
        records.append(QuantityRecord(name, ref, mean, se, z))
    ok = all(abs(r.z_score) <= z_max for r in records)
    return ValidationReport(tuple(records), ok, n_paths, seed, z_max)


def _report_doc(rep: ValidationReport) -> dict:
    return {"n_paths": rep.n_paths, "seed": rep.seed, "z_max": rep.z_max,
            "overall_pass": rep.overall_pass,
            "records": [asdict(r) for r in rep.records]}


def validation_report_json(rep: ValidationReport) -> str:
    """Stable JSON rendering; parsing and re-emitting is byte-identical."""
    return render(_report_doc(rep), "json").rstrip("\n")


def validation_report_table(rep: ValidationReport) -> str:
    """Aligned table of the records, closed by an overall PASS/FAIL line."""
    return (render(_report_doc(rep), "table")
            + f"overall: {'PASS' if rep.overall_pass else 'FAIL'} "
              f"(n={rep.n_paths}, seed={rep.seed}, z_max={rep.z_max:.12g})")
