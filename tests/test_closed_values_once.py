"""Each parameter point's closed forms are evaluated once: once per
command, and once per ModelParams instance over every accessor."""

from __future__ import annotations

import pytest

from telegraph_box import (
    DomainError, ModelParams, ScalingSpec, SwitchingProb, _forms, cli,
    expected_absorption_time, expected_cycles, expected_length_L,
    expected_truncated_times, phase_probabilities, scaling_sweep,
    transform_from_origin, validate,
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


def _every_accessor(p):
    s = SwitchingProb(0.5)
    return (phase_probabilities(p), expected_truncated_times(p), expected_cycles(p),
            expected_absorption_time(p, s), expected_length_L(p, 3),
            transform_from_origin(0.0, p))


def test_once_per_parameter_point(closed_calls):
    p = ModelParams(1.0, 2.0, 1.0)
    first = _every_accessor(p)
    assert len(closed_calls) == 1
    assert _every_accessor(p) == first
    assert len(closed_calls) == 1


def test_an_equal_point_evaluates_again(closed_calls):
    p, q = ModelParams(1.0, 2.0, 1.0), ModelParams(1.0, 2.0, 1.0)
    assert p == q and hash(p) == hash(q)
    assert _every_accessor(p) == _every_accessor(q)
    assert len(closed_calls) == 2


def test_a_failing_point_raises_on_every_call(closed_calls):
    # kappa0h is past float64 at (1, 1, 1e300); an exception is not cached
    p = ModelParams(1.0, 1.0, 1e300)
    accessors = (phase_probabilities, expected_truncated_times, expected_cycles,
                 lambda p: expected_absorption_time(p, SwitchingProb(0.5)),
                 lambda p: expected_length_L(p, 3),
                 lambda p: transform_from_origin(0.0, p))
    for _ in range(2):
        for fn in accessors:
            with pytest.raises(DomainError, match="closed forms"):
                fn(p)
    assert len(closed_calls) == 2 * len(accessors)
