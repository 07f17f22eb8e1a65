"""Estimation layer over the array simulation engines.

Work is cut into fixed-size batches; batch b consumes the three random
streams (3b, 3b+1, 3b+2) for origin phases, level phases, and absorption
paths.  Each (batch, engine) pair is one job, which fills only its own
moment rows of the batch, and the batches' moments are reduced with a
fixed pairwise tree, so the result depends only on (seed, batch layout),
and the estimate over two half-ranges merges bit for bit into the
full-range estimate.

A call runs its jobs one after another, unless the closed forms predict
that the work pays for a second process: then one worker process runs
part of the jobs while the caller runs the rest.  The worker is forked by
the first call that splits and reused by later ones, holds none of its
owner's other descriptors, is dropped on any failure, reaped at exit, and
never shared with a process forked from its owner (README.md, "Splitting
a call between two processes").  Which process ran a job moves no byte.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import analytics, mgf
from ._report import render
from .core import Boundary, ModelParams, RandomSource, SwitchingProb
from .errors import DomainError, TelegraphBoxError
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

# the rows that engines 0, 1 and 2 of a batch fill: its absorption paths,
# origin phases and level phases, in the order a serial call runs them.
# The absorption paths go first, so that phase counts past the budget fail
# before any phase is run; each engine has its own stream, so the order
# changes no value
_ENGINE_ROWS = tuple([_QUANTITIES.index(q) for q in names] for names in (
    ("mean_m", "absorption_time"),
    ("p00", "p0h", "m00", "m0h", "f00", "f0h"),
    ("ph0", "phh", "mh0", "mhh"),
))

# a call splits only where both shares of its work are predicted to take
# more draws than this (README.md, "Splitting a call between two processes")
_SPLIT_MIN_DRAWS = 2 ** 18


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


def _predicted_draws(p: ModelParams, s: SwitchingProb) -> tuple[float, float, float]:
    """Exponential draws predicted by the closed forms per absorption path,
    per origin phase and per level phase: the units of the three engines.

    A phase draws once, then once more at each reversal, and by Wald's
    identity its reversals number lam times its up time plus mu times its
    down time on average: t00 + t0h is the mean up time of an origin
    phase, thh + th0 that of a level phase.  A path starts, on average,
    v = e0'(I - (1 - alpha)P)^-1 phases from each wall.
    """
    c, lam, mu, alpha = p._closed, p.lam, p.mu, s.alpha
    origin = 1.0 + lam * (c.t00 + c.t0h) + mu * (c.m00 + c.m0h - c.t00 - c.t0h)
    level = 1.0 + lam * (c.thh + c.th0) + mu * (c.mhh + c.mh0 - c.thh - c.th0)
    # the determinant of I - (1 - alpha)P is alpha(alpha + (1 - alpha)(p0h + ph0)),
    # a product with no cancellation
    beta = 1.0 - alpha
    det = alpha * (alpha + beta * (c.p0h + c.ph0))
    path = ((alpha + beta * c.ph0) * origin + beta * c.p0h * level) / det if det else math.inf
    return path, origin, level


def _engine_columns(p: ModelParams, s: SwitchingProb, seed: int, batch: int,
                    size: int, omega: tuple[float, float], engine: int) -> tuple:
    """The columns of one engine call of one batch, in the order of its
    rows _ENGINE_ROWS[engine].

    The f00 and f0h rows are exp(omega*T) on the origin phases that return
    and on those that cross, with T their dual stopping time t_stop.
    """
    if engine == 0:
        m, total, _ = _run_absorption(p, s, RandomSource(seed, 3 * batch + 2), size)
        return m, total
    if engine == 1:
        endl, dur, _, t_stop, _ = _run_phases(
            Boundary.ORIGIN, p, RandomSource(seed, 3 * batch), size)
        return (~endl, endl,
                np.where(~endl, dur, 0.0), np.where(endl, dur, 0.0),
                np.where(~endl, np.exp(omega[0] * t_stop), 0.0),
                np.where(endl, np.exp(omega[1] * t_stop), 0.0))
    # no row reads the level phases' dual clocks, so that call keeps none
    endl, dur, _, _, _ = _run_phases(
        Boundary.LEVEL, p, RandomSource(seed, 3 * batch + 1), size, dual=False)
    return ~endl, endl, np.where(~endl, dur, 0.0), np.where(endl, dur, 0.0)


def _job_moments(p: ModelParams, s: SwitchingProb, seed: int,
                 omega: tuple[float, float], job: tuple[int, int, int]) -> np.ndarray:
    """(count, sum, sum of squares) rows of one job, (batch, engine, size):
    the rows _ENGINE_ROWS[engine], in that order."""
    batch, engine, size = job
    cols = _engine_columns(p, s, seed, batch, size, omega, engine)
    # column by column, not through a (rows, size) matrix: each sum is the
    # same pairwise sum over one contiguous column.  On a 0/1 frequency
    # column the sum and the sum of squares are both the exact count
    moments = np.empty((len(cols), 3))
    moments[:, 0] = size
    for row, x in zip(moments, cols):
        if x.dtype == bool:
            row[1:] = np.count_nonzero(x)
        else:
            x = np.asarray(x, dtype=float)
            row[1:] = x.sum(), (x * x).sum()
    return moments


def _batch_moments(p: ModelParams, s: SwitchingProb, seed: int,
                   batch: int, size: int, omega: tuple[float, float]) -> np.ndarray:
    """(count, sum, sum of squares) rows for one batch, shape (_NQ, 3),
    from its three jobs in engine order."""
    moments = np.empty((_NQ, 3))
    for engine, rows in enumerate(_ENGINE_ROWS):
        moments[rows] = _job_moments(p, s, seed, omega, (batch, engine, size))
    return moments


def _reduce_pairwise(blocks: list[np.ndarray]) -> np.ndarray:
    """Combine per-batch moments with a fixed binary tree (order-stable)."""
    if len(blocks) == 1:
        return blocks[0]
    mid = len(blocks) // 2
    return _reduce_pairwise(blocks[:mid]) + _reduce_pairwise(blocks[mid:])


def _child_share(p: ModelParams, s: SwitchingProb, jobs: list) -> list[int]:
    """The indices of the jobs the worker process runs, in job order; none
    where the call stays serial.

    Longest first, each job goes to the share with fewer predicted draws
    so far, the worker's on a tie.  The call splits only where the smaller
    share passes _SPLIT_MIN_DRAWS, on Linux, with at least two CPUs in
    the affinity mask (so `taskset -c 0` keeps it serial), and with no
    second Python thread, which a fork would leave behind in the worker.
    """
    # the modules a split needs are imported inside the functions that use
    # them, so that importing this module imports nothing more
    import os
    import sys
    import threading

    units = _predicted_draws(p, s)
    draws = [size * units[engine] for _, engine, size in jobs]
    shares, child = [0.0, 0.0], []
    for j in sorted(range(len(jobs)), key=lambda j: -draws[j]):
        to_child = shares[1] <= shares[0]
        shares[to_child] += draws[j]
        if to_child:
            child.append(j)
    if (min(shares) > _SPLIT_MIN_DRAWS and sys.platform.startswith("linux")
            and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1):
        return sorted(child)
    return []


# the one worker process that runs the other share of split calls, as
# (pid, pidfd, request pipe, reply pipe): forked by the first call that
# splits, reused by later ones, dropped on any failure, and reaped at exit
_worker = None
_hooked = False


def _stop_worker() -> None:
    """Kill the worker, reap it and close its descriptors; the next call
    that splits forks a fresh one.  Runs at exit, and does nothing where
    no worker runs.

    The kill goes through the pidfd, which names this worker alone: where
    SIGCHLD is ignored, the system reaps a worker that has left, and its
    pid may already be another process's."""
    import os
    import signal

    if _worker is None:
        return
    pidfd = _worker[1]
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        os.waitid(os.P_PIDFD, pidfd, os.WEXITED)
    except (ProcessLookupError, ChildProcessError):
        pass  # reaped by the system already, where SIGCHLD is ignored
    finally:
        _forget_worker()


def _forget_worker() -> None:
    """Close this process's descriptors of the worker and forget it.  A
    process forked from the worker's owner runs this at once, so that
    only the owner ever talks to the worker."""
    global _worker
    import os

    if _worker is not None:
        for fd in _worker[1:]:
            os.close(fd)
        _worker = None


def _write_all(fd: int, data: bytes) -> None:
    import os

    data = memoryview(data)
    while data:
        data = data[os.write(fd, data):]


def _serve(request: int, reply: int) -> None:
    """The worker's loop.  Each request is one pickled call: its
    arguments and the jobs of the worker's share.  The answer is the raw
    float64 bytes of all their rows, in job order, with no header.  The
    worker leaves through os._exit at the end of the requests, and also
    at any error, with nothing written for that call.

    The worker first closes every descriptor but the standard streams and
    its own two ends, so that a pipe or socket its owner closes later is
    closed and not held open for the owner's lifetime."""
    import os
    import pickle

    try:
        low, high = sorted((request, reply))
        os.closerange(3, low)
        os.closerange(low + 1, high)
        os.closerange(high + 1, 2 ** 31 - 1)
        with open(request, "rb") as requests:
            while True:
                p, s, seed, omega, jobs = pickle.load(requests)
                _write_all(reply, b"".join(
                    _job_moments(p, s, seed, omega, job).tobytes() for job in jobs))
    finally:
        os._exit(0)


def _start_worker() -> None:
    """Fork the worker, or leave none if no pipe, process or pidfd is to
    be had.  The first call registers the exit and fork hooks."""
    global _worker, _hooked
    import atexit
    import os
    import warnings

    if not _hooked:
        atexit.register(_stop_worker)
        os.register_at_fork(after_in_child=_forget_worker)
        _hooked = True
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        with warnings.catch_warnings():
            # Python 3.12 and later warn at a fork from a process with
            # native threads, such as numpy's OpenBLAS pool; the worker
            # calls no BLAS
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return
    request_in, request_out, reply_in, reply_out = fds
    if pid == 0:
        _serve(request_in, reply_out)
    os.close(request_in)
    os.close(reply_out)
    try:
        pidfd = os.pidfd_open(pid)
    except OSError:
        # no descriptor to be had: the worker reads the end of its
        # requests and leaves, and the call runs every job itself
        os.close(request_out)
        os.close(reply_in)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass  # reaped by the system already, where SIGCHLD is ignored
        return
    _worker = (pid, pidfd, request_out, reply_in)


def _run_split(p: ModelParams, s: SwitchingProb, seed: int, omega: tuple[float, float],
               jobs: list, child: list[int]) -> list[np.ndarray]:
    """The rows of every job, those of `child` from the worker process and
    the rest from this one.

    This process sends the worker its share, runs its own jobs in job
    order, and stops at the first that raises; otherwise it reads the
    worker's rows.  It keeps them only if they are exactly as many bytes
    as the share has rows.  Any failure drops the worker (_stop_worker):
    a job of its own that fails, an interrupt, a worker that is dead or
    answers short.  Then one rule covers every failure, a worker that
    cannot be forked too: every job left without rows runs here, in job
    order.  So a failing job raises what a serial call raises, the error
    of the first failing job in job order.
    """
    import pickle

    def run(job):
        return _job_moments(p, s, seed, omega, job)

    if _worker is None:
        _start_worker()
    out = [None] * len(jobs)
    if _worker is not None:
        _, _, request, reply = _worker
        # a row is three float64
        counts = [len(_ENGINE_ROWS[jobs[j][1]]) for j in child]
        size, data = 24 * sum(counts), b""
        try:
            _write_all(request, pickle.dumps((p, s, seed, omega, [jobs[j] for j in child])))
            for j in sorted(set(range(len(jobs))) - set(child)):
                out[j] = run(jobs[j])
            with open(reply, "rb", closefd=False) as answer:
                data = answer.read(size)
        except (BrokenPipeError, TelegraphBoxError):
            pass
        finally:
            if len(data) != size:
                _stop_worker()
        if len(data) == size:
            rows = np.frombuffer(data).reshape(-1, 3)
            for j, r in zip(child, np.split(rows, np.cumsum(counts)[:-1])):
                out[j] = r
    return [r if r is not None else run(job) for r, job in zip(out, jobs)]


def _gather(p: ModelParams, s: SwitchingProb, n_paths: int, seed: int,
            omega: tuple[float, float]) -> np.ndarray:
    if n_paths < 10 ** 3:
        raise DomainError(f"need at least 1000 paths, got {n_paths}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    sizes = [BATCH_SIZE] * (n_paths // BATCH_SIZE)
    if n_paths % BATCH_SIZE:
        sizes.append(n_paths % BATCH_SIZE)
    jobs = [(b, engine, k) for b, k in enumerate(sizes) for engine in range(len(_ENGINE_ROWS))]
    child = _child_share(p, s, jobs)
    if not child:
        return _reduce_pairwise([_batch_moments(p, s, seed, b, k, omega)
                                 for b, k in enumerate(sizes)])
    blocks = [np.empty((_NQ, 3)) for _ in sizes]
    for (b, engine, _), rows in zip(jobs, _run_split(p, s, seed, omega, jobs, child)):
        blocks[b][_ENGINE_ROWS[engine]] = rows
    return _reduce_pairwise(blocks)


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
