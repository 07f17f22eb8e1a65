"""Estimation layer: determinism, thread invariance, z-score gating."""

from __future__ import annotations

import json
import math
import re

import numpy as np
import pytest

from telegraph_box import (
    DomainError,
    ModelParams,
    SwitchingProb,
    estimate,
    expected_cycles,
    transform_from_origin,
    validate,
    validation_report_json,
    validation_report_table,
)
from telegraph_box.montecarlo import _QUANTITIES

P121 = ModelParams(1.0, 2.0, 1.0)
A05 = SwitchingProb(0.5)


def test_estimate_rejects_small_or_negative():
    for run in (estimate, validate):
        with pytest.raises(DomainError):
            run(P121, A05, 999, 0)
        with pytest.raises(DomainError):
            run(P121, A05, 10000, -1)
        # a path count or seed that is not an integer is a typed error
        # naming the value, not a TypeError or a truncated seed
        for n_paths, seed, bad in ((2000.0, 1, "2000.0"), (1e20, 1, "1e+20"),
                                   (math.nan, 1, "nan"), (2000, math.inf, "inf"),
                                   (2000, 1.5, "1.5"), (2000, np.float64(1.0), "1.0")):
            with pytest.raises(DomainError, match="must be integers, got .*" + re.escape(bad)):
                run(P121, A05, n_paths, seed)
    # a numpy int counts as the int it holds, and a seed may be of any size
    assert estimate(P121, A05, np.int64(1000), np.int64(3)) == estimate(P121, A05, 1000, 3)
    assert estimate(P121, A05, 1000, 10 ** 30).n_paths == 1000


@pytest.mark.parametrize("z_max", [math.nan, math.inf, 0.0, -1.0])
def test_validate_rejects_bad_gate(z_max):
    with pytest.raises(DomainError):
        validate(P121, A05, 1000, seed=0, z_max=z_max)


def test_validate_checks_the_closed_forms_before_simulating(monkeypatch):
    from telegraph_box import montecarlo

    def gather(*args):
        raise AssertionError("simulated before the closed forms were checked")

    monkeypatch.setattr(montecarlo, "_gather", gather)
    with pytest.raises(DomainError, match="absorption time"):
        validate(P121, SwitchingProb(1e-310), 1000, seed=0)


def test_estimate_checks_the_absorption_time_before_simulating(monkeypatch):
    # the mean phase count 1/alpha is past float64: the run never ended
    from telegraph_box import montecarlo

    def gather(*args):
        raise AssertionError("simulated before the absorption time was checked")

    monkeypatch.setattr(montecarlo, "_gather", gather)
    with pytest.raises(DomainError, match="absorption time"):
        estimate(P121, SwitchingProb(1e-310), 1000, seed=1)


def test_estimate_deterministic_across_calls():
    a = estimate(P121, A05, 20000, seed=7)
    b = estimate(P121, A05, 20000, seed=7)
    assert a == b


def test_estimate_seed_matters():
    a = estimate(P121, A05, 20000, seed=7)
    b = estimate(P121, A05, 20000, seed=8)
    assert a != b


def test_estimate_summary_structure():
    s = estimate(P121, A05, 20000, seed=7)
    assert s.n_paths == 20000
    p00, p0h, ph0, phh = s.phase_freqs
    assert abs(p00 + p0h - 1.0) < 1e-12
    assert abs(ph0 + phh - 1.0) < 1e-12
    assert all(v > 0.0 for v in s.cycle_means)
    assert s.mean_m >= 1.0
    assert s.mean_absorption_time > 0.0
    assert all(v > 0.0 for v in s.se_phase_freqs)
    assert all(v > 0.0 for v in s.se_cycle_means)
    assert s.se_mean_m > 0.0 and s.se_mean_absorption_time > 0.0


def test_standard_errors_shrink_like_root_n():
    lo = estimate(P121, A05, 10000, seed=3)
    hi = estimate(P121, A05, 100000, seed=3)
    for a, b in zip(lo.se_phase_freqs, hi.se_phase_freqs):
        assert 2.2 < a / b < 4.5
    assert 2.2 < lo.se_mean_absorption_time / hi.se_mean_absorption_time < 4.5


def test_validate_passes_at_reference_point():
    rep = validate(P121, A05, 20000, seed=11)
    assert rep.overall_pass
    assert rep.n_paths == 20000 and rep.seed == 11 and rep.z_max == 4.0
    assert tuple(r.name for r in rep.records) == _QUANTITIES
    assert max(abs(r.z_score) for r in rep.records) < 4.0


def test_validate_record_consistency():
    rep = validate(P121, A05, 20000, seed=11)
    by_name = {r.name: r for r in rep.records}
    assert math.isclose(by_name["p00"].analytic, 0.38730016321971794, rel_tol=1e-12)
    assert by_name["mean_m"].analytic == 2.0
    # f00 and f0h are the origin transforms at omega = -1/kappa, with
    # the exact standard error sqrt((F(2 omega) - F(omega)^2)/n)
    cm = expected_cycles(P121)
    for i, (name, kappa) in enumerate((("f00", cm.kappa00), ("f0h", cm.kappa0h))):
        f = transform_from_origin(-1.0 / kappa, P121)[i]
        f2 = transform_from_origin(-2.0 / kappa, P121)[i]
        assert by_name[name].analytic == f
        assert by_name[name].standard_error == math.sqrt((f2 - f * f) / 20000)
    assert math.isclose(by_name["f00"].analytic, 0.2554852607293556, rel_tol=1e-12)
    assert math.isclose(by_name["f0h"].analytic, 0.25351857059769045, rel_tol=1e-12)
    for r in rep.records:
        if r.standard_error > 0.0:
            want = (r.estimate - r.analytic) / r.standard_error
            assert math.isclose(r.z_score, want, rel_tol=1e-12)


def test_validate_tight_gate_fails():
    rep = validate(P121, A05, 20000, seed=11, z_max=0.01)
    assert not rep.overall_pass


def test_validation_report_json_round_trip():
    rep = validate(P121, A05, 20000, seed=11)
    text = validation_report_json(rep)
    doc = json.loads(text)
    assert doc["overall_pass"] is True
    assert len(doc["records"]) == len(_QUANTITIES)
    # 12-significant-digit rounding makes serialization a fixed point
    assert json.dumps(doc, indent=2) == text


def test_validation_report_table_layout():
    rep = validate(P121, A05, 20000, seed=11)
    text = validation_report_table(rep)
    for name in _QUANTITIES:
        assert name in text
    assert "overall: PASS" in text
    rep2 = validate(P121, A05, 20000, seed=11, z_max=0.01)
    assert "overall: FAIL" in validation_report_table(rep2)
