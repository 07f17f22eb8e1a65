"""Every public closed form, at every documented input from 1e-300 to
1e300, ends in a finite value or a typed TelegraphBoxError.

Rates, level and velocity are log-uniform over 1e+-300, alpha over
[1e-320, 1] (down into the subnormals), the transform argument is a
large negative number, a fraction of the admissible bound, the bound
itself or zero, and the descent is zero, a fraction of H or the last
float below H.  Phase counts and matrix powers are up to 10^7 or
between 10^300 and 10^400, and every function is called by keyword.
The closed-form subcommands of the CLI keep its exit-code contract on
the same inputs.  `estimate` and the `simulate` subcommand keep it too,
on small runs at rates and levels within e^+-2.3 of 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import inspect
import io
import json
import math
import re

from hypothesis import example, given, settings, strategies as st

from telegraph_box import (
    Boundary,
    ModelParams,
    SwitchingProb,
    TelegraphBoxError,
    conditional_cycle_means,
    conditional_hit_prob,
    estimate,
    expected_absorption_time,
    expected_cycles,
    expected_length_L,
    expected_truncated_times,
    matrix_power,
    omega_bound,
    omega_of_theta,
    phase_probabilities,
    q_sum,
    theta_roots,
    transform_from_H,
    transform_from_origin,
    wald_statistic,
)
from telegraph_box import cli

log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda x: 10.0 ** x)
alphas = st.floats(min_value=-320.0, max_value=0.0).map(lambda x: min(10.0 ** x, 1.0))
units = st.floats(min_value=0.0, max_value=1.0)
counts = st.one_of(st.integers(min_value=1, max_value=10 ** 7),
                   st.integers(min_value=10 ** 300, max_value=10 ** 400))


def _floats(value) -> tuple[float, ...]:
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    return value if isinstance(value, tuple) else (value,)


def _finite_or_typed(fn, *args):
    """fn(*args), called by keyword, if all its floats are finite; None on
    a typed error."""
    try:
        value = fn(**inspect.signature(fn).bind(*args).arguments)
    except TelegraphBoxError:
        return None
    assert all(map(math.isfinite, _floats(value))), (fn.__name__, args, value)
    return value


@st.composite
def omegas(draw, p: ModelParams) -> float:
    bound = omega_bound(p)
    return draw(st.sampled_from((
        -draw(log_uniform), draw(units) * bound, bound, 0.0)))


@st.composite
def descents(draw, h: float) -> float:
    return draw(st.sampled_from((0.0, draw(units) * h, h * (1.0 - 2.0 ** -52))))


@given(log_uniform, log_uniform, log_uniform, log_uniform, alphas, counts, counts,
       st.data())
@settings(max_examples=400, deadline=None)
def test_closed_forms_are_finite_or_a_typed_error(lam, mu, h, velocity, alpha,
                                                 n, j, data):
    p = _finite_or_typed(ModelParams, lam, mu, h, velocity)
    if p is None:
        return
    s = SwitchingProb(alpha)
    pm = _finite_or_typed(phase_probabilities, p)
    for fn in (expected_truncated_times, expected_cycles):
        _finite_or_typed(fn, p)
    _finite_or_typed(expected_absorption_time, p, s)
    _finite_or_typed(expected_length_L, p, n)
    if pm is not None:
        _finite_or_typed(matrix_power, pm, j)
        for u in Boundary:
            for v in Boundary:
                _finite_or_typed(q_sum, pm, min(j, n), max(j, n), u, v)

    omega = data.draw(omegas(p))
    d = data.draw(descents(p.effective_level))
    _finite_or_typed(omega_bound, p)
    _finite_or_typed(transform_from_origin, omega, p)
    _finite_or_typed(transform_from_H, omega, d, p)
    _finite_or_typed(conditional_hit_prob, d, p)
    _finite_or_typed(conditional_cycle_means, d, p)
    roots = _finite_or_typed(theta_roots, omega, p)
    if roots is not None:
        for theta in (roots.theta1, roots.theta2):
            if theta < p.mu:
                _finite_or_typed(omega_of_theta, theta, p)
                _finite_or_typed(wald_statistic, theta, d, p.effective_level, p)


@st.composite
def cli_argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("analytics", "mgf", "scaling")))
    if command == "scaling":
        c_values = sorted(draw(st.lists(log_uniform, min_size=1, max_size=3, unique=True)))
        flags = {"--sigma": draw(log_uniform), "--drift-a": draw(log_uniform),
                 "--drift-b": draw(log_uniform), "--h": draw(log_uniform),
                 "--alpha": draw(alphas), "--c-values": ",".join(map(repr, c_values))}
    else:
        flags = {"--lambda": draw(log_uniform), "--mu": draw(log_uniform),
                 "--h": draw(log_uniform), "--velocity": draw(log_uniform)}
        if command == "analytics":
            flags["--alpha"] = draw(alphas)
        else:
            try:
                p = ModelParams(flags["--lambda"], flags["--mu"], flags["--h"],
                                flags["--velocity"])
                flags["--omega"] = draw(omegas(p))
                if draw(st.booleans()):
                    flags["--d"] = draw(descents(p.effective_level))
            except TelegraphBoxError:
                flags["--omega"] = -draw(log_uniform)
    flags["--format"] = draw(st.sampled_from(("json", "csv", "table")))
    # --flag=value, so that a negative omega is not read as a flag
    return [command] + [f"{k}={v if isinstance(v, str) else repr(v)}"
                        for k, v in flags.items()]


def _exits_0_with_finite_numbers_or_2_with_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    if code != 0:
        assert code == 2, (argv, code, err)
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return
    assert err == "", (argv, err)
    if argv[-1] == "--format=json":
        json.loads(out)
    # every number, and JSON's Infinity and NaN, parses as a float
    for token in re.split(r"[\s,:\[\]{}]+", out):
        with contextlib.suppress(ValueError):
            assert math.isfinite(float(token)), (argv, token)


@given(cli_argvs())
@example(["scaling", "--h=1", "--alpha=0.5", "--sigma=1e-200", "--format=table"])
@settings(max_examples=300, deadline=None)
def test_cli_exits_0_with_finite_numbers_or_2_with_one_error_line(argv):
    _exits_0_with_finite_numbers_or_2_with_one_error_line(argv)


# Small simulation runs: rates and level log-uniform on e^+-2.3, alpha in
# [0.05, 1] and any seed, negative ones included.  Every run of 1 to 256
# paths is refused by the 1000-path floor, so runs of 1000 to 2048 paths
# reach the engines too.  `validate` is left out: its rows that no sample
# reaches print z = inf.
mc_scales = st.floats(min_value=-2.3, max_value=2.3).map(math.exp)
mc_alphas = st.floats(min_value=0.05, max_value=1.0)
mc_paths = st.integers(min_value=1, max_value=256) | st.integers(min_value=1000, max_value=2048)


@given(mc_scales, mc_scales, mc_scales, mc_alphas, mc_paths, st.integers())
@settings(max_examples=100, deadline=None)
def test_estimate_is_finite_or_a_typed_error(lam, mu, h, alpha, n_paths, seed):
    try:
        summary = estimate(ModelParams(lam, mu, h), SwitchingProb(alpha), n_paths, seed)
    except TelegraphBoxError:
        return
    values = [x for field in dataclasses.astuple(summary) for x in _floats(field)]
    assert all(map(math.isfinite, values)), (lam, mu, h, alpha, n_paths, seed, summary)


@given(mc_scales, mc_scales, mc_scales, mc_alphas, mc_paths, st.integers(),
       st.sampled_from(("json", "csv", "table")))
@settings(max_examples=100, deadline=None)
def test_cli_simulate_exits_0_with_finite_numbers_or_2_with_one_error_line(
        lam, mu, h, alpha, n_paths, seed, fmt):
    _exits_0_with_finite_numbers_or_2_with_one_error_line([
        "simulate", f"--lambda={lam!r}", f"--mu={mu!r}", f"--h={h!r}", f"--alpha={alpha!r}",
        f"--paths={n_paths}", f"--seed={seed}", f"--format={fmt}"])
