"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# the real workloads, cut down to a fraction of a second each
SMALL = {
    "closed-grid": dataclasses.replace(workloads.WORKLOADS["closed-grid"], n_points=60),
    "mc-typical": dataclasses.replace(workloads.WORKLOADS["mc-typical"],
                                      n_paths=40000, calls=2),
    "mc-high-reversal": dataclasses.replace(workloads.WORKLOADS["mc-high-reversal"],
                                            n_paths=1000, calls=2),
    "mc-rare-absorption": dataclasses.replace(workloads.WORKLOADS["mc-rare-absorption"],
                                              n_paths=2000, calls=2),
}


def _traced_rep(wl, inp):
    tr = tracer.Tracer("test")
    with tracer.traced(tr):
        res = wl.rep(inp, tr)
    return tr, res


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_outputs_match_untraced(name):
    wl = SMALL[name]
    inp = wl.inputs(3)
    plain = wl.rep(inp)
    tr, traced = _traced_rep(wl, inp)
    assert tr.spans, "the shims recorded nothing"
    assert traced.outputs == plain.outputs
    assert wl.check(inp, plain) == []


@pytest.mark.parametrize("name", ["closed-grid", "mc-high-reversal", "mc-rare-absorption"])
def test_exact_counts_repeat_for_a_seed(name):
    wl = SMALL[name]
    inp = wl.inputs(5)
    first = tracer.layer_metrics(_traced_rep(wl, inp)[0])
    again = tracer.layer_metrics(_traced_rep(wl, inp)[0])
    assert {k: first[k] for k in tracer.EXACT} == {k: again[k] for k in tracer.EXACT}


def test_seed_changes_inputs_not_regime():
    grid = workloads.WORKLOADS["closed-grid"]
    a, b = grid.inputs(1), grid.inputs(2)
    assert a.points != b.points and a.points == grid.inputs(1).points
    n_anchor = len(workloads.ANCHORS)
    assert a.points[:n_anchor] == b.points[:n_anchor]
    for inp in (a, b):
        kinds = [p.kind for p in inp.points]
        n = grid.n_points - n_anchor
        assert len(kinds) == grid.n_points
        assert kinds.count("equal") == n // 10 and kinds.count("seam") == n // 5
        for p in inp.points[n_anchor:]:
            assert 1e-2 <= p.lam <= 1e2 and 1e-3 <= p.alpha <= 1.0
            assert 1e-2 <= p.h <= 10 ** 1.5
            if p.kind == "seam":   # mu = lam +- gap rounds, so allow 1% on the gap
                assert 0.99e-9 <= abs(p.mu - p.lam) * max(1.0, p.h) <= 1.01e-1
    for name in ("mc-typical", "mc-high-reversal", "mc-rare-absorption"):
        wl = workloads.WORKLOADS[name]
        s1, s2 = wl.inputs(1).mc_seeds, wl.inputs(2).mc_seeds
        assert len(set(s1 + s2)) == 2 * wl.calls
        argv1, argv2 = wl.argv(s1[0], 1), wl.argv(s2[0], 1)
        i = argv1.index("--seed")
        assert argv1[:i + 1] + argv1[i + 2:] == argv2[:i + 1] + argv2[i + 2:]


def test_metric_names_and_units_match_the_manifest():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in manifest["end_to_end"]}
    layer = {m["name"]: (m["unit"], m["better"]) for m in manifest["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == tracer.LAYER_METRICS
    assert {w["name"] for w in manifest["workloads"]} == set(workloads.WORKLOADS)
    for name, (unit, *_) in list(e2e.items()) + list(layer.items()):
        assert NAME.match(name) and UNIT.match(unit), (name, unit)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric_with_its_unit(trace, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "closed-grid", SMALL["closed-grid"])
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    assert run.main(["--workload", "closed-grid", "--seed", "4", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    expected = run.END_TO_END if trace == 0 else tracer.LAYER_METRICS
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        k: v[0] for k, v in expected.items()}


def test_counts_depend_on_the_seed_not_on_the_repetitions(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "closed-grid", SMALL["closed-grid"])
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    docs, reps = [], []
    for seconds in ("0", "1"):
        assert run.main(["--workload", "closed-grid", "--seed", "15", "--seconds", seconds,
                         "--trace", "0"]) == 0
        out = capsys.readouterr().out
        docs.append(json.loads(out.strip().splitlines()[-1]))
        reps.append(int(re.search(r"repetitions (\d+)", out).group(1)))
    assert reps[0] == 1 and reps[1] > 1
    assert [(d["attempted"], d["failed"]) for d in docs] == [
        (docs[0]["attempted"], docs[0]["failed"])] * 2
    assert docs[0]["failed"] > 0   # conditional_hit_prob overflows at this seed


def test_fails_without_library_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closed-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_self_time_subtracts_the_union_of_children():
    S = tracer.Span
    spans = [S(1, None, "p", 0, 100, 0, "r", 0, None),
             S(2, 1, "c", 10, 40, 1, "r", 0, None),
             S(3, 1, "c", 30, 60, 2, "r", 0, None),   # overlaps the first child
             S(4, 1, "c", 90, 120, 1, "r", 0, None)]  # runs past the parent
    own = tracer.self_times(spans)
    assert own[1] == 100 - (60 - 10) - (100 - 90)
    assert own[2] == 30 and own[4] == 30
