"""Spans and counters for the benchmark's traced run.

`traced(tracer)` swaps module attributes the library calls through for
shims that record a span around each call, and swaps
`montecarlo.RandomSource` for a subclass whose generator counts draws.
Nothing under `src/` changes and every draw is delegated unchanged, so a
traced run prints the same bytes as an untraced one.

A span records its name, start, end, parent span, run id, operation id and
thread.  Worker threads start with no open span; their first span takes
the innermost open span of the thread that created the tracer as its
parent, which is the `validate` call that dispatched the batches.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import NamedTuple

import numpy as np

import workloads  # noqa: F401  (puts the library on sys.path)
from telegraph_box import _forms, analytics, cli, mgf, montecarlo, scaling


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start_ns: int
    end_ns: int
    thread: int
    run: str
    op: object
    attrs: dict | None


class Tracer:
    """In-memory spans and counters of one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.op_id: object = None
        self.spans: list[Span] = []
        self.sums: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.generators: list[CountingGenerator] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack = self._stack()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs: dict | None = None):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main_thread and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(sid, parent, name, t0, t1, threading.get_ident(),
                                   self.run_id, self.op_id, attrs))

    def add(self, **amounts: float) -> None:
        with self._lock:
            self.sums.update(amounts)

    def at_least(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)


class CountingGenerator:
    """Delegates to a numpy Generator, counting calls and variates drawn.

    `run_max` is the longest stretch of exponential calls between two
    uniform calls: in the absorption engine, the rounds of one phase.
    """

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self.calls = 0
        self.exp_draws = 0
        self.coin_draws = 0
        self._run = 0
        self.run_max = 0

    def standard_exponential(self, size=None, *args, **kwargs):
        out = self._gen.standard_exponential(size, *args, **kwargs)
        self.calls += 1
        self.exp_draws += int(np.size(out))
        self._run += 1
        return out

    def random(self, size=None, *args, **kwargs):
        out = self._gen.random(size, *args, **kwargs)
        self.calls += 1
        self.coin_draws += int(np.size(out))
        self.run_max = max(self.run_max, self._run)
        self._run = 0
        return out

    def __getattr__(self, name):
        return getattr(self._gen, name)


# ---------------------------------------------------------------------------
# what each shim records besides its span


def _after_closed_values(tr: Tracer, args, kwargs, out) -> None:
    lam, mu, h = args[:3]
    tr.add(closed_values_asym=0 if _forms.is_equal_rate(lam, mu, h) else 1)


def _after_run_phases(tr: Tracer, args, kwargs, out) -> None:
    n_switches = out[2]
    tr.add(phases=n_switches.size, reversals=int(n_switches.sum()))
    tr.at_least("phase_rounds", int(n_switches.max()) + 1)


def _after_run_absorption(tr: Tracer, args, kwargs, out) -> None:
    _, s, rng, n = args[:4]
    tr.add(absorption_phases=int(out[0].sum()), absorption_predicted=n / s.alpha)
    tr.at_least("absorption_phase_rounds", getattr(rng.gen, "run_max", 0))


def _validate_attrs(args, kwargs) -> dict:
    return {"threads": kwargs.get("threads") or 1}


# (module, attribute, span name, after-call hook, span attributes)
SHIMS = (
    (cli, "run", "cli.run", None, None),
    (montecarlo, "validate", "montecarlo.validate", None, _validate_attrs),
    (montecarlo, "_batch_moments", "montecarlo.batch_moments", None, None),
    (montecarlo, "_reduce_pairwise", "montecarlo.reduce_pairwise", None, None),
    (montecarlo, "_run_phases", "simulate.run_phases", _after_run_phases, None),
    (montecarlo, "_run_absorption", "simulate.run_absorption", _after_run_absorption, None),
    (analytics, "phase_probabilities", "analytics.phase_probabilities", None, None),
    (analytics, "expected_truncated_times", "analytics.expected_truncated_times", None, None),
    (analytics, "expected_cycles", "analytics.expected_cycles", None, None),
    (analytics, "expected_absorption_time", "analytics.expected_absorption_time", None, None),
    (mgf, "transform_from_origin", "mgf.transform_from_origin", None, None),
    (mgf, "transform_from_H", "mgf.transform_from_H", None, None),
    (mgf, "conditional_hit_prob", "mgf.conditional_hit_prob", None, None),
    (mgf, "conditional_cycle_means", "mgf.conditional_cycle_means", None, None),
    (scaling, "scaling_sweep", "scaling.scaling_sweep", None, None),
    (_forms, "closed_values", "forms.closed_values", _after_closed_values, None),
    (_forms, "conditional_means", "forms.conditional_means", None, None),
    (_forms, "conditional_hit", "forms.conditional_hit", None, None),
)


def _shim(tr: Tracer, fn, name: str, after, attrs):
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        out = tr.call(name, fn, args, kwargs, attrs(args, kwargs) if attrs else None)
        if after is not None:
            after(tr, args, kwargs, out)
        return out
    return shim


@contextlib.contextmanager
def traced(tr: Tracer):
    """Install every shim for the duration of the block, then restore."""
    saved = []
    try:
        for mod, attr, name, after, attrs in SHIMS:
            fn = getattr(mod, attr)
            saved.append((mod, attr, fn))
            setattr(mod, attr, _shim(tr, fn, name, after, attrs))
        base = montecarlo.RandomSource
        saved.append((montecarlo, "RandomSource", base))

        class CountingSource(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.gen = CountingGenerator(self.gen)
                tr.generators.append(self.gen)

        montecarlo.RandomSource = CountingSource
        yield tr
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); exact metrics are counts that repeat bit for bit
# for a given seed, the rest are times
LAYER_METRICS = {
    "forms.closed_values.calls": ("count", "lower"),
    "forms.closed_values.self_s": ("s", "lower"),
    "forms.closed_values.asym_share": ("ratio", "lower"),
    "forms.calls_per_point": ("count", "lower"),
    "forms.conditional_means.self_s": ("s", "lower"),
    "analytics.self_s": ("s", "lower"),
    "mgf.calls": ("count", "lower"),
    "mgf.self_s": ("s", "lower"),
    "mgf.us_p50": ("us", "lower"),
    "scaling.sweep_s": ("s", "lower"),
    "simulate.run_phases.self_s": ("s", "lower"),
    "simulate.run_phases.rounds_max": ("count", "lower"),
    "simulate.run_phases.reversals_mean": ("count", "lower"),
    "simulate.run_absorption.self_s": ("s", "lower"),
    "simulate.run_absorption.phase_rounds_max": ("count", "lower"),
    "simulate.run_absorption.phases_over_predicted": ("ratio", "lower"),
    "simulate.draws_per_s": ("1/s", "higher"),
    "core.exp_draws": ("count", "lower"),
    "core.coin_draws": ("count", "lower"),
    "core.rng_calls": ("count", "lower"),
    "core.draws_per_call": ("count", "higher"),
    "montecarlo.batches": ("count", "lower"),
    "montecarlo.batch_s_p50": ("s", "lower"),
    "montecarlo.batch_s_p90": ("s", "lower"),
    "montecarlo.self_s": ("s", "lower"),
    "montecarlo.reduce_s": ("s", "lower"),
    "montecarlo.analytic_s": ("s", "lower"),
    "montecarlo.parallel_efficiency": ("ratio", "higher"),
    "montecarlo.paths_per_s_2t": ("1/s", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
EXACT = {
    "forms.closed_values.calls", "forms.closed_values.asym_share",
    "forms.calls_per_point", "mgf.calls",
    "simulate.run_phases.rounds_max", "simulate.run_phases.reversals_mean",
    "simulate.run_absorption.phase_rounds_max",
    "simulate.run_absorption.phases_over_predicted",
    "core.exp_draws", "core.coin_draws", "core.rng_calls", "core.draws_per_call",
    "montecarlo.batches",
}


def self_times(spans: list[Span]) -> dict[int, int]:
    """Span id -> duration minus the part of it its child spans cover, in ns."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    out = {}
    for s in spans:
        covered, cur_a, cur_b = 0, None, None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start_ns), min(b, s.end_ns)
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out[s.id] = s.end_ns - s.start_ns - covered
    return out


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer figures of one traced repetition (without the two that
    need untraced runs: trace.overhead_s and montecarlo.paths_per_s_2t)."""
    spans = tr.spans
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(*names: str) -> float:
        return sum(own[s.id] for n in names for s in by_name[n]) / 1e9

    def dur(s: Span) -> float:
        return (s.end_ns - s.start_ns) / 1e9

    def prefixed(prefix: str) -> list[str]:
        return [n for n in by_name if n.startswith(prefix)]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    closed = by_name["forms.closed_values"]
    points = {s.op for s in spans if isinstance(s.op, int)}
    mgf_spans = [s for n in prefixed("mgf.") for s in by_name[n]]
    engines = by_name["simulate.run_phases"] + by_name["simulate.run_absorption"]
    batches = by_name["montecarlo.batch_moments"]
    batch_s = [dur(s) for s in batches]
    validates = {s.id: s for s in by_name["montecarlo.validate"]}
    analytic_s = sum(dur(s) for n in prefixed("analytics.") for s in by_name[n]
                     if s.parent in validates)
    top_threads = max((s.attrs["threads"] for s in validates.values()), default=1)
    wide = {i for i, s in validates.items() if s.attrs["threads"] == top_threads}
    busy = sum(dur(s) for s in batches if s.parent in wide)
    capacity = sum(top_threads * dur(validates[i]) for i in wide)
    exp_draws = sum(g.exp_draws for g in tr.generators)
    coin_draws = sum(g.coin_draws for g in tr.generators)
    rng_calls = sum(g.calls for g in tr.generators)
    return {
        "forms.closed_values.calls": len(closed),
        "forms.closed_values.self_s": self_s("forms.closed_values"),
        "forms.closed_values.asym_share": ratio(tr.sums["closed_values_asym"], len(closed)),
        "forms.calls_per_point": ratio(sum(isinstance(s.op, int) for s in closed), len(points)),
        "forms.conditional_means.self_s": self_s("forms.conditional_means"),
        "analytics.self_s": self_s(*prefixed("analytics.")),
        "mgf.calls": len(mgf_spans),
        "mgf.self_s": self_s(*prefixed("mgf.")),
        "mgf.us_p50": statistics.median(dur(s) for s in mgf_spans) * 1e6 if mgf_spans else 0.0,
        "scaling.sweep_s": sum(dur(s) for s in by_name["scaling.scaling_sweep"]),
        "simulate.run_phases.self_s": self_s("simulate.run_phases"),
        "simulate.run_phases.rounds_max": tr.maxima.get("phase_rounds", 0),
        "simulate.run_phases.reversals_mean": ratio(tr.sums["reversals"], tr.sums["phases"]),
        "simulate.run_absorption.self_s": self_s("simulate.run_absorption"),
        "simulate.run_absorption.phase_rounds_max": tr.maxima.get("absorption_phase_rounds", 0),
        "simulate.run_absorption.phases_over_predicted":
            ratio(tr.sums["absorption_phases"], tr.sums["absorption_predicted"]),
        "simulate.draws_per_s": ratio(exp_draws + coin_draws, sum(dur(s) for s in engines)),
        "core.exp_draws": exp_draws,
        "core.coin_draws": coin_draws,
        "core.rng_calls": rng_calls,
        "core.draws_per_call": ratio(exp_draws + coin_draws, rng_calls),
        "montecarlo.batches": len(batches),
        "montecarlo.batch_s_p50": float(np.percentile(batch_s, 50)) if batch_s else 0.0,
        "montecarlo.batch_s_p90": float(np.percentile(batch_s, 90)) if batch_s else 0.0,
        "montecarlo.self_s": self_s("montecarlo.validate", "montecarlo.batch_moments"),
        "montecarlo.reduce_s": self_s("montecarlo.reduce_pairwise"),
        "montecarlo.analytic_s": analytic_s,
        "montecarlo.parallel_efficiency": ratio(busy, capacity),
        "cli.self_s": self_s("cli.run"),
    }
