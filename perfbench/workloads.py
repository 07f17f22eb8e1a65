"""Workloads of the telegraph-box benchmark: inputs, timed operations, checks.

Every workload drives the library only through its public entry points:
`cli.run` in-process, `analytics.*`, `mgf.*` and `scaling.scaling_sweep`.
Library functions are looked up as module attributes at call time, so the
tracing shims in `tracer.py` see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
_PKG = ROOT / "src" / "telegraph_box"
if not (_PKG / "__init__.py").is_file():
    raise ImportError(f"library sources not found under {_PKG}")
sys.path.insert(0, str(_PKG.parent))

import telegraph_box  # noqa: E402
from telegraph_box import analytics, cli, mgf, scaling  # noqa: E402
from telegraph_box.core import ModelParams, SwitchingProb  # noqa: E402

if Path(telegraph_box.__file__).resolve().parent != _PKG.resolve():
    raise ImportError(f"telegraph_box was imported from {telegraph_box.__file__}, "
                      f"not from {_PKG}")

# the ROADMAP closed-form agreement bound
REL_TOL = 1e-12
# conditional_cycle_means documents DegenerateRates below this band of
# |lam - mu| * max(1, H); the grid calls it only above the band
_DISTINCT_BAND = 1e-8

MAX_THREADS = min(2, os.cpu_count() or 1)
ANCHORS = json.loads((Path(__file__).with_name("anchors.json")).read_text())


@dataclass
class Failure:
    """One failed operation: what was called, on which inputs, and why."""

    op: str
    inputs: str
    reason: str


@dataclass
class RepResult:
    """Outputs and timings of one repetition of a workload's operations."""

    outputs: list
    op_seconds: list[float]      # latency of each timed operation
    items: int                   # work items completed (points or paths)
    attempted: int
    errors: list[Failure]        # operations that raised or exited non-zero
    extra_seconds: dict = field(default_factory=dict)
    # host reference time bracketing each timed operation, when calibrated
    op_refs: list[float] = field(default_factory=list)


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * abs(b)


def _all_close(got, ref) -> bool:
    return len(got) == len(ref) and all(_rel_close(g, r) for g, r in zip(got, ref))


def _values(out) -> tuple[float, ...]:
    if dataclasses.is_dataclass(out):
        return tuple(float(v) for v in dataclasses.astuple(out))
    if isinstance(out, tuple):
        return tuple(float(v) for v in out)
    return (float(out),)


# ---------------------------------------------------------------------------
# closed-grid


@dataclass(frozen=True)
class Point:
    lam: float
    mu: float
    h: float
    alpha: float
    kind: str    # anchor, equal, seam or general

    def label(self) -> str:
        return (f"lam={self.lam!r} mu={self.mu!r} h={self.h!r} "
                f"alpha={self.alpha!r}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), n)


def make_grid(seed: int, n_points: int) -> list[Point]:
    """The fixed anchor points followed by seeded log-uniform points.

    A tenth of the random points sit exactly on lam = mu and a fifth near
    the seam, with |mu - lam| * max(1, H) log-uniform in [1e-9, 1e-1].
    """
    rng = np.random.default_rng([seed, 0])
    n = n_points - len(ANCHORS)
    lam = _log_uniform(rng, 1e-2, 1e2, n)
    mu = _log_uniform(rng, 1e-2, 1e2, n)
    h = _log_uniform(rng, 1e-2, 10 ** 1.5, n)
    alpha = _log_uniform(rng, 1e-3, 1.0, n)
    n_equal, n_seam = n // 10, n // 5
    seam = slice(n_equal, n_equal + n_seam)
    mu[:n_equal] = lam[:n_equal]
    gap = _log_uniform(rng, 1e-9, 1e-1, n_seam) / np.maximum(1.0, h[seam])
    sign = np.where(rng.random(n_seam) < 0.5, -1.0, 1.0)
    sign[lam[seam] - gap <= 0.0] = 1.0
    mu[seam] = lam[seam] + sign * gap
    kinds = ["equal"] * n_equal + ["seam"] * n_seam + ["general"] * (n - n_equal - n_seam)
    pts = [Point(a["lam"], a["mu"], a["h"], a["alpha"], "anchor") for a in ANCHORS]
    pts += [Point(float(lam[i]), float(mu[i]), float(h[i]), float(alpha[i]), kinds[i])
            for i in range(n)]
    return pts


def _point_ops(pt: Point):
    """The analytics CLI set plus the transforms at one parameter point."""
    p = ModelParams(pt.lam, pt.mu, pt.h)
    s = SwitchingProb(pt.alpha)
    omega = -(pt.lam + pt.mu) / 2.0
    d = pt.h / 2.0
    ops = [
        ("phase_probabilities", lambda: analytics.phase_probabilities(p)),
        ("expected_truncated_times", lambda: analytics.expected_truncated_times(p)),
        ("expected_cycles", lambda: analytics.expected_cycles(p)),
        ("expected_absorption_time", lambda: analytics.expected_absorption_time(p, s)),
        ("transform_from_origin", lambda: mgf.transform_from_origin(omega, p)),
        ("transform_from_H", lambda: mgf.transform_from_H(omega, d, p)),
        ("conditional_hit_prob", lambda: mgf.conditional_hit_prob(d, p)),
    ]
    if abs(pt.lam - pt.mu) * max(1.0, pt.h) >= _DISTINCT_BAND:
        ops.append(("conditional_cycle_means", lambda: mgf.conditional_cycle_means(d, p)))
    return ops


def point_values(pt: Point) -> dict:
    """Evaluate every operation at pt: name -> tuple of floats, or
    ('error', exception type, message) when the call raised."""
    out = {}
    for name, fn in _point_ops(pt):
        try:
            out[name] = _values(fn())
        except Exception as exc:  # every escaping exception is a failure to count
            out[name] = ("error", type(exc).__name__, str(exc))
    return out


def _is_error(v) -> bool:
    return bool(v) and v[0] == "error"


SWEEP_C = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class GridInputs:
    points: list[Point]
    sweep_h: float
    sweep_alpha: float


@dataclass(frozen=True)
class ClosedGrid:
    """Closed forms over a figure-sized parameter grid, no simulation."""

    name: str = "closed-grid"
    n_points: int = 2000
    reference: str = "calls"   # the reference kernel, see run.REFERENCES
    ref_kernels: int = 1       # reference kernels bracketing each chunk of points
    chunk: int = 250           # points per bracketed chunk, about a third of a second

    def inputs(self, seed: int) -> GridInputs:
        rng = np.random.default_rng([seed, 1])
        return GridInputs(make_grid(seed, self.n_points),
                          float(_log_uniform(rng, 1e-1, 1e1, 1)[0]),
                          float(_log_uniform(rng, 1e-2, 1.0, 1)[0]))

    def warm_up(self) -> None:
        point_values(Point(1.0, 2.0, 1.0, 0.5, "general"))
        self._sweep(1.0, 0.5)

    @staticmethod
    def _sweep(h: float, alpha: float):
        spec = scaling.ScalingSpec(sigma=1.0, drift_a=0.5, drift_b=1.0, c_values=SWEEP_C)
        return scaling.scaling_sweep(spec, h, SwitchingProb(alpha))

    def rep(self, inp: GridInputs, tracer=None, calibrate=None) -> RepResult:
        """With `calibrate`, a function returning the host's reference time,
        each chunk of points is bracketed by two calibrations and `op_refs`
        gives every point its chunk's mean: a point alone, about a
        millisecond, is too short to bracket."""
        outputs, lat, refs, errors = [], [], [], []
        attempted = 0
        clock = time.perf_counter
        before = calibrate() if calibrate is not None else None
        for i, pt in enumerate(inp.points):
            if tracer is not None:
                tracer.op_id = i
            t0 = clock()
            vals = point_values(pt)
            lat.append(clock() - t0)
            attempted += len(vals)
            for name, v in vals.items():
                if _is_error(v):
                    errors.append(Failure(name, pt.label(), f"{v[1]}: {v[2]}"))
            outputs.append(vals)
            if calibrate is not None and ((i + 1) % self.chunk == 0 or i + 1 == len(inp.points)):
                after = calibrate()
                refs += [(before + after) / 2.0] * (len(lat) - len(refs))
                before = after
        if tracer is not None:
            tracer.op_id = "sweep"
        attempted += 1
        try:
            rows = tuple(_values(r) for r in self._sweep(inp.sweep_h, inp.sweep_alpha))
        except Exception as exc:
            rows = ("error", type(exc).__name__, str(exc))
            errors.append(Failure("scaling_sweep", f"h={inp.sweep_h!r} alpha={inp.sweep_alpha!r}",
                                  f"{rows[1]}: {rows[2]}"))
        outputs.append(rows)
        return RepResult(outputs, lat, len(inp.points), attempted, errors, op_refs=refs)

    def check(self, inp: GridInputs, res: RepResult) -> list[Failure]:
        """Value checks on one repetition's outputs; each entry is a failed op."""
        bad = []
        for i, (pt, vals) in enumerate(zip(inp.points, res.outputs)):
            frozen = ANCHORS[i]["values"] if pt.kind == "anchor" else {}
            bad += _check_point(pt, vals, frozen)
        rows = res.outputs[-1]
        if not _is_error(rows):
            ok = all(math.isfinite(v) and v > 0.0 for r in rows for v in r) and all(
                _rel_close(r[5], r[3] + r[4]) for r in rows)   # etau = ec00 + ec0h
            if not ok:
                bad.append(Failure("scaling_sweep", f"h={inp.sweep_h!r}",
                                   "non-finite value or etau != ec00 + ec0h"))
        return bad


def _check_point(pt: Point, vals: dict, frozen: dict) -> list[Failure]:
    """Identities among one point's outputs, and agreement with the values
    frozen for it if it is an anchor."""
    bad = []

    def fail(op: str, why: str) -> None:
        bad.append(Failure(op, pt.label(), why))

    for name, v in vals.items():
        if not _is_error(v) and not all(math.isfinite(x) for x in v):
            fail(name, f"non-finite output {v}")
    pm, tm, cm, eta = (vals["phase_probabilities"], vals["expected_truncated_times"],
                       vals["expected_cycles"], vals["expected_absorption_time"])
    p = ModelParams(pt.lam, pt.mu, pt.h)
    if not _is_error(pm):
        p00, p0h, ph0, phh = pm
        if not (_rel_close(p00 + p0h, 1.0) and _rel_close(ph0 + phh, 1.0)):
            fail("phase_probabilities", f"rows do not sum to 1: {pm}")
        try:
            f0 = _values(mgf.transform_from_origin(0.0, p))
            if not _all_close(f0, (p00, p0h)):
                fail("transform_from_origin", f"omega=0 gives {f0}, P row is {(p00, p0h)}")
        except Exception as exc:
            fail("transform_from_origin", f"omega=0 raised {type(exc).__name__}: {exc}")
    if not _is_error(tm) and not _is_error(cm):
        t00, t0h, thh, th0 = tm
        m00, m0h, mh0, mhh = cm[:4]
        if not (_rel_close(m00, 2.0 * t00) and _rel_close(mhh, 2.0 * thh)):
            fail("expected_cycles", f"m00 != 2 t00 or mhh != 2 thh: {cm[:4]} vs {tm}")
    if not _is_error(pm) and not _is_error(cm):
        for kappa, prob, m in zip(cm[4:], pm, cm[:4]):
            # a subnormal probability has lost its relative precision
            if not (_rel_close(kappa * prob, m) or prob < sys.float_info.min):
                fail("expected_cycles", f"kappa*P != m: {cm} vs P {pm}")
                break
    if not _is_error(eta):
        try:
            one = analytics.expected_absorption_time(p, SwitchingProb(1.0))
            if not _rel_close(one.expected_absorption_time, one.l1):
                fail("expected_absorption_time", f"alpha=1 ETA {one.expected_absorption_time} "
                                                 f"!= l1 {one.l1}")
        except Exception as exc:
            fail("expected_absorption_time", f"alpha=1 raised {type(exc).__name__}: {exc}")
    hit = vals["conditional_hit_prob"]
    if not _is_error(hit):
        try:
            fh = _values(mgf.transform_from_H(0.0, pt.h / 2.0, p))
            if not _all_close(fh, (1.0 - hit[0], hit[0])):
                fail("transform_from_H", f"omega=0 gives {fh}, hit probability {hit[0]}")
        except Exception as exc:
            fail("transform_from_H", f"omega=0 raised {type(exc).__name__}: {exc}")
    for name, ref in frozen.items():
        got = vals.get(name)
        if got is None or _is_error(got) or not _all_close(got, ref):
            fail(name, f"anchor drifted beyond {REL_TOL:g}: {got} vs frozen {ref}")
    return bad


# ---------------------------------------------------------------------------
# Monte Carlo validation through the CLI


@dataclass(frozen=True)
class MCInputs:
    mc_seeds: tuple[int, ...]


@dataclass(frozen=True)
class MCValidate:
    """`telegraph-box validate` in one regime: `calls` runs per repetition,
    each with its own seed, at every thread count in `threads`.

    Several short calls rather than one long one: each call is timed on
    its own, and the per-seed spread of the round tail averages out.
    `ref_kernels` is how many `reference` kernels bracket each timed call
    when the host's speed is calibrated: about a quarter of a call's time.
    """

    name: str
    lam: float
    mu: float
    h: float
    alpha: float
    n_paths: int
    calls: int
    threads: tuple[int, ...] = (1,)
    reference: str = "mixed"
    ref_kernels: int = 1

    def inputs(self, seed: int) -> MCInputs:
        state = np.random.SeedSequence([seed, 2]).generate_state(self.calls)
        return MCInputs(tuple(int(x >> 1) for x in state))

    def argv(self, mc_seed: int, threads: int, n_paths: int | None = None) -> list[str]:
        return ["validate", "--lambda", repr(self.lam), "--mu", repr(self.mu),
                "--h", repr(self.h), "--alpha", repr(self.alpha),
                "--paths", str(n_paths or self.n_paths), "--seed", str(mc_seed),
                "--threads", str(min(threads, MAX_THREADS)), "--format", "json"]

    @staticmethod
    def _run(argv: list[str]) -> tuple[int | str, str]:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
        except Exception as exc:  # an escaping exception is a failure to count
            return f"{type(exc).__name__}: {exc}", buf.getvalue()
        return code, buf.getvalue()

    def warm_up(self) -> None:
        """One short call in the README regime at the widest thread count.
        It goes through every layer a call in this regime uses, without
        the long round tails some regimes have."""
        typical = dataclasses.replace(self, lam=1.0, mu=2.0, h=1.0, alpha=0.5)
        self._run(typical.argv(0, max(self.threads), n_paths=1000))

    def rep(self, inp: MCInputs, tracer=None, calibrate=None) -> RepResult:
        """Only the 1-thread calls are timed operations; the others are
        timed together as `validate_mt_s`.  With `calibrate`, a function
        returning the host's reference time, every timed call is bracketed
        by two calibrations and `op_refs` holds their mean."""
        outputs, lat, refs, errors = [], [], [], []
        multi = 0.0
        before = None
        for k, mc_seed in enumerate(inp.mc_seeds):
            for j, threads in enumerate(self.threads):
                argv = self.argv(mc_seed, threads)
                if tracer is not None:
                    tracer.op_id = k * len(self.threads) + j
                if threads == 1 and calibrate is not None and before is None:
                    before = calibrate()
                t0 = time.perf_counter()
                code, text = self._run(argv)
                dt = time.perf_counter() - t0
                if threads == 1:
                    lat.append(dt)
                    if calibrate is not None:
                        after = calibrate()
                        refs.append((before + after) / 2.0)
                        before = after   # shared with the next timed call
                else:
                    multi += dt
                    before = None
                outputs.append(text)
                if code != 0:
                    errors.append(Failure("cli.run validate", " ".join(argv), f"exit {code}"))
        extra = {"validate_mt_s": multi} if len(self.threads) > 1 else {}
        return RepResult(outputs, lat, self.n_paths * len(inp.mc_seeds), len(outputs),
                         errors, extra, refs)

    def check(self, inp: MCInputs, res: RepResult) -> list[Failure]:
        bad = []
        per_seed = len(self.threads)
        for k, mc_seed in enumerate(inp.mc_seeds):
            texts = res.outputs[k * per_seed:(k + 1) * per_seed]
            label = " ".join(self.argv(mc_seed, 1))
            try:
                doc = json.loads(texts[0])
                ok = doc["n_paths"] == self.n_paths and doc["seed"] == mc_seed
            except (ValueError, KeyError, TypeError):
                ok = False
            if not ok:
                bad.append(Failure("cli.run validate", label,
                                   f"malformed report: {texts[0][:200]!r}"))
            if any(text != texts[0] for text in texts[1:]):
                bad.append(Failure("cli.run validate", label,
                                   f"stdout differs between threads {self.threads}"))
        return bad


WORKLOADS = {
    w.name: w for w in (
        ClosedGrid(),
        MCValidate("mc-typical", 1.0, 2.0, 1.0, 0.5, 2 ** 17, calls=8, threads=(1, 2),
                   ref_kernels=1),
        MCValidate("mc-high-reversal", 5.0, 5.0, 20.0, 1.0, 2 ** 14, calls=8,
                   ref_kernels=4),
        MCValidate("mc-rare-absorption", 1.0, 2.0, 1.0, 0.02, 2 ** 14, calls=8,
                   ref_kernels=2),
    )
}
