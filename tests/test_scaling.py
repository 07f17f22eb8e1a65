"""Diffusive-limit sweep construction and its CSV rendering."""

from __future__ import annotations

import math

import pytest

from telegraph_box import (
    DomainError,
    ModelParams,
    NonPositiveParameter,
    ScalingSpec,
    SwitchingProb,
    expected_absorption_time,
    expected_cycles,
    scaled_params,
    scaling_sweep,
    sweep_csv,
)

SPEC = ScalingSpec(sigma=1.0, drift_a=0.5, drift_b=1.0,
                   c_values=(1.0, 2.0, 4.0, 8.0))


def test_spec_validation():
    with pytest.raises(NonPositiveParameter):
        ScalingSpec(0.0, 0.5, 1.0, (1.0,))
    with pytest.raises(NonPositiveParameter):
        ScalingSpec(1.0, -0.5, 1.0, (1.0,))
    with pytest.raises(NonPositiveParameter):
        ScalingSpec(1.0, 0.5, 0.0, (1.0,))
    with pytest.raises(NonPositiveParameter):
        ScalingSpec(1.0, 0.5, 1.0, (1.0, -2.0))
    with pytest.raises(DomainError):
        ScalingSpec(1.0, 0.5, 1.0, ())
    with pytest.raises(DomainError):
        ScalingSpec(1.0, 0.5, 1.0, (2.0, 1.0))
    for c in (0.0, -1.0, math.nan):
        with pytest.raises(NonPositiveParameter, match="'c'"):
            scaled_params(c, SPEC, 1.0)


def test_scaled_params_examples():
    sym = ScalingSpec(1.0, 0.5, 0.5, (1.0,))
    p = scaled_params(1.0, sym, 1.0)
    assert p.lam == 2.0 and p.mu == 2.0 and p.velocity == 1.0

    p10 = scaled_params(10.0, SPEC, 1.0)
    assert p10.lam == 110.0 and p10.mu == 120.0
    assert math.isclose(p10.effective_level, 0.1, rel_tol=1e-15)


@pytest.mark.parametrize("c, sigma", [
    (1.0, 1e-200),   # sigma^2 underflows to 0
    (1.0, 1e-160),   # sigma^2 is subnormal and the rates overflow
    (1.0, 1e200),    # sigma^2 overflows and the rates round to 0
    (1e200, 1.0),    # c^2 overflows
])
def test_scaled_params_past_float64_is_a_domain_error_naming_c_and_sigma(c, sigma):
    spec = ScalingSpec(sigma, 0.5, 1.0, (c,))
    with pytest.raises(DomainError) as info:
        scaled_params(c, spec, 1.0)
    assert f"c={c!r}" in str(info.value) and f"sigma={sigma!r}" in str(info.value)
    with pytest.raises(DomainError):
        scaling_sweep(spec, 1.0, SwitchingProb(0.5))


def test_sweep_rows_match_direct_analytics():
    rows = scaling_sweep(SPEC, 1.0, SwitchingProb(0.5))
    assert tuple(r.c for r in rows) == SPEC.c_values
    for r in rows:
        p = scaled_params(r.c, SPEC, 1.0)
        cm = expected_cycles(p)
        assert math.isclose(r.lam, p.lam, rel_tol=1e-15)
        assert math.isclose(r.mu, p.mu, rel_tol=1e-15)
        assert math.isclose(r.ec00, cm.m00, rel_tol=1e-12)
        assert math.isclose(r.ec0h, cm.m0h, rel_tol=1e-12)
        assert math.isclose(r.etau, cm.m00 + cm.m0h, rel_tol=1e-12)
        eta = expected_absorption_time(p, SwitchingProb(0.5))
        assert math.isclose(r.eta, eta.expected_absorption_time, rel_tol=1e-12)


def test_sweep_decays_toward_zero():
    big = ScalingSpec(1.0, 0.5, 1.0, (1.0, 4.0, 16.0, 64.0, 256.0))
    rows = scaling_sweep(big, 1.0, SwitchingProb(0.5))
    for a, b in zip(rows, rows[1:]):
        assert b.etau < a.etau
        assert b.eta < a.eta
    assert rows[-1].eta < 1e-2


def test_driftless_scaling_is_rate_symmetric():
    sym = ScalingSpec(2.0, 0.7, 0.7, (1.0, 3.0))
    for c in sym.c_values:
        p = scaled_params(c, sym, 1.0)
        assert p.lam == p.mu


def test_sweep_csv_layout():
    rows = scaling_sweep(SPEC, 1.0, SwitchingProb(0.5))
    text = sweep_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "c,lambda,mu,EC00,EC0H,Etau,ETA"
    assert len(lines) == 1 + len(rows)
    assert text.endswith("\n")
    cells = lines[1].split(",")
    assert float(cells[0]) == 1.0
    assert float(cells[1]) == 2.0 and float(cells[2]) == 3.0
    assert math.isclose(float(cells[6]), rows[0].eta, rel_tol=1e-11)
