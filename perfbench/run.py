"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its `src/`.
With --trace 0 the workload repeats for S seconds untraced and the
end-to-end metrics are printed.  With --trace 1 untraced and traced
repetitions alternate for S seconds and the per-layer metrics are printed.
Either way the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  Failed operations are
logged to standard error with their inputs.
"""

from __future__ import annotations

import os

# numpy's native thread pools would otherwise size themselves to the host;
# the benchmark's own threads stay within min(2, nproc)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "items_per_s": ("1/s", "higher", 0.25),
    "op_ms_p50": ("ms", "lower", 0.25),
}


def measure_setup(name: str) -> float:
    """Median wall time of fresh interpreters that import the library and
    make one warm-up call into every layer the workload uses."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"workloads.WORKLOADS[{name!r}].warm_up()")
    samples = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _python_loop() -> None:
    x = 0
    for i in range(300000):
        x = (x * 31 + i) % 1000003


def _wide_ufuncs() -> None:
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(2000):
        a = np.sqrt(a * 1.0001 + 1.0)


def _small_ufuncs(rounds: int = 6000) -> None:
    b = np.linspace(0.0, 1.0, 16)
    for _ in range(rounds):
        b = np.where(b > 0.5, b * 0.999, b + 0.001)


# Reference kernels, which call no library code: name -> (parts, fastest
# time of the kernel on the 2-core box the baseline was taken on).
REFERENCES = {
    # per-call overhead, which mpmath's scalar arithmetic is made of
    "calls": ((functools.partial(_small_ufuncs, 12000),), 0.041),
    # an interpreter loop, ufuncs on a 4096-array and ufuncs on a
    # 16-array, like the Monte Carlo engines' setup, wide batches and long
    # round tails
    "mixed": ((_python_loop, _wide_ufuncs, _small_ufuncs), 0.063),
}


def reference_time(name: str, kernels: int) -> float:
    """How slowly the host runs right now: the mean time of `kernels`
    reference kernels, as a multiple of their time on the baseline box."""
    parts, nominal = REFERENCES[name]
    t0 = time.perf_counter()
    for _ in range(kernels):
        for part in parts:
            part()
    return (time.perf_counter() - t0) / kernels / nominal


class Reps:
    """Repetitions of one workload's operations.

    Every repetition does the same work, so only the first one's outputs
    are kept and later ones are compared with them.

    A shared host's speed drifts by tens of percent, within seconds and
    over minutes.  With `scale`, the workload brackets its timed
    operations with reference kernels (a grid point, about a millisecond,
    is too short, so the grid brackets chunks of points).  Each operation
    is divided by the host slowness measured around it and keeps its
    median over the repetitions: the time it would take on the baseline
    box.
    """

    def __init__(self, scale: bool = False):
        self.scale = scale
        self.first = None
        self.count = 0
        self.differing = 0
        self.fastest: list[float] = []
        self.scaled: list[list[float]] = []   # per operation, one scaled time per rep
        self.extra: dict[str, list[float]] = {}
        self.walls: list[float] = []

    def run(self, wl, inp, tracer=None) -> None:
        calibrate = (functools.partial(reference_time, wl.reference, wl.ref_kernels)
                     if self.scale else None)
        t0 = time.perf_counter()
        res = wl.rep(inp, tracer, calibrate)
        self.walls.append(time.perf_counter() - t0)
        if self.scale:
            scaled = [t / slow for t, slow in zip(res.op_seconds, res.op_refs)]
            self.scaled = ([[*a, b] for a, b in zip(self.scaled, scaled)]
                           or [[b] for b in scaled])
        if self.first is None:
            self.first = res
            self.fastest = list(res.op_seconds)
        else:
            self.differing += not same_result(res, self.first)
            self.fastest = [min(a, b) for a, b in zip(self.fastest, res.op_seconds)]
            res.outputs = None
        self.count += 1
        for key, value in res.extra_seconds.items():
            self.extra.setdefault(key, []).append(value)


def _failure_keys(failures) -> set:
    return {(f.op, f.inputs) for f in failures}


def same_result(a, b) -> bool:
    """Whether two repetitions gave the same outputs and the same failures."""
    return a.outputs == b.outputs and _failure_keys(a.errors) == _failure_keys(b.errors)


def failed_ops(first, check_failures) -> tuple[int, int, list]:
    """Attempted and failed operation counts, and the failures to log.

    Every repetition repeats the first one's operations and must give the
    same outputs and failures, so each distinct operation is counted once:
    the counts depend on the seed alone, not on how many repetitions fit
    into the run."""
    log = {}
    for f in [*first.errors, *check_failures]:
        log.setdefault((f.op, f.inputs), f)
    return first.attempted, len(log), list(log.values())


def end_to_end(wl, inp, name: str, seed: int, seconds: float):
    setup_s = measure_setup(name)
    wl.warm_up()
    reps = Reps(scale=True)
    t_end = time.perf_counter() + seconds
    while not reps.count or time.perf_counter() < t_end:
        reps.run(wl, inp)
    scaled = [statistics.median(s) for s in reps.scaled]
    how = (f"each the median of {reps.count} repetitions, scaled by "
           f"{wl.ref_kernels} '{wl.reference}' reference kernels either side")
    raw_ms = [1e3 * x for x in reps.fastest]
    raw = {
        "items_per_s": reps.first.items / sum(reps.fastest),
        "op_ms_p50": statistics.median(raw_ms),
    }
    values = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": reps.first.items / sum(scaled),
        "op_ms_p50": 1e3 * statistics.median(scaled),
    }
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh interpreters",
        **{k: f"raw fastest {v:.6g}; {len(scaled)} operations, {how}" for k, v in raw.items()},
    }
    if len(raw_ms) >= 1000:   # a p99 with at least ten samples beyond it
        p99 = statistics.quantiles(raw_ms, n=100, method="inclusive")[98]
        notes["op_ms_p50"] += f"; raw p99 {p99:.6g} ms"
    units = {k: v[0] for k, v in END_TO_END.items()}
    return [reps], values, units, notes, []


def traced_run(wl, inp, name: str, seed: int, seconds: float):
    import tracer as tracing

    wl.warm_up()
    plain, traced, tracers = Reps(), Reps(), []
    t_end = time.perf_counter() + seconds
    while not traced.count or time.perf_counter() < t_end:
        plain.run(wl, inp)
        tr = tracing.Tracer(f"{name}/seed={seed}/rep={traced.count}")
        with tracing.traced(tr):
            traced.run(wl, inp, tr)
        tracers.append(tr)
    traced.differing += not same_result(traced.first, plain.first)
    # counts must repeat exactly; times come from the fastest traced repetition
    per_rep = [tracing.layer_metrics(tr) for tr in tracers]
    values = per_rep[traced.walls.index(min(traced.walls))]
    unsteady = [k for k in tracing.EXACT if any(m[k] != per_rep[0][k] for m in per_rep)]
    values["trace.overhead_s"] = min(traced.walls) - min(plain.walls)
    multi = plain.extra.get("validate_mt_s")
    values["montecarlo.paths_per_s_2t"] = plain.first.items / min(multi) if multi else 0.0
    _write_spans(name, seed, tracers)
    notes = {"trace.overhead_s": f"fastest of {traced.count} traced minus fastest of "
                                 f"{plain.count} untraced repetitions"}
    units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    return [plain, traced], values, units, notes, unsteady


def _write_spans(name: str, seed: int, tracers) -> None:
    out = ROOT / ".perfbench" / f"trace-{name}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w") as fh:
        for tr in tracers:
            for s in tr.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                                     "start_ns": s.start_ns, "end_ns": s.end_ns,
                                     "thread": s.thread, "run": s.run, "op": s.op}) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    inp = wl.inputs(args.seed)

    run = traced_run if args.trace else end_to_end
    runs, values, units, notes, unsteady = run(wl, inp, args.workload, args.seed, args.seconds)

    check_failures = wl.check(inp, runs[0].first)
    differing = sum(r.differing for r in runs)
    attempted, failed, log = failed_ops(runs[0].first, check_failures)
    for f in log:
        print(f"FAILED {f.op} [{f.inputs}]: {f.reason}", file=sys.stderr)
    if differing:
        print(f"FAILED {differing} repetitions differ from the first", file=sys.stderr)
    for key in unsteady:
        print(f"FAILED count {key} differs between traced repetitions", file=sys.stderr)
    correct = not check_failures and not differing and not unsteady

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {sum(r.count for r in runs)}")
    for key, value in values.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"  {key:<48} {value:>16.6g} {units[key]}{note}")
    print(f"  {'failed_ratio':<48} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
