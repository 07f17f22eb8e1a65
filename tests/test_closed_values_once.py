"""Each parameter point's closed forms are evaluated once per command."""

from __future__ import annotations

import pytest

from telegraph_box import (
    ModelParams, ScalingSpec, SwitchingProb, _forms, cli, scaling_sweep, validate,
)


@pytest.fixture
def closed_calls(monkeypatch):
    calls = []
    inner = _forms.closed_values

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(_forms, "closed_values", counting)
    return calls


def test_once_per_validate(closed_calls):
    validate(ModelParams(1.0, 2.0, 1.0), SwitchingProb(0.5), n_paths=1000, seed=1)
    assert len(closed_calls) == 1


def test_once_per_analytics_command(closed_calls, capsys):
    assert cli.run(["analytics", "--lambda", "1", "--mu", "2", "--h", "1",
                    "--alpha", "0.5"]) == 0
    assert len(closed_calls) == 1


def test_once_per_sweep_velocity(closed_calls):
    spec = ScalingSpec(1.0, 0.5, 1.0, (1.0, 2.0, 4.0))
    scaling_sweep(spec, 1.0, SwitchingProb(0.5))
    assert len(closed_calls) == 3
