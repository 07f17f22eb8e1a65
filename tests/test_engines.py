"""Pins of the array simulation engines.

The SHA-256 digests below were frozen from the engines' outputs and guard
the draw stream: every estimate in `montecarlo` is a function of these
arrays, so any change to the order, count or arithmetic of the draws
shows up here first.  A deliberate draw-order change must update the
digests and say so in CHANGES.md.  The digests also depend on numpy's
generator and the platform's math library, so a numpy upgrade may move
them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from telegraph_box import (
    Boundary,
    MaxPhasesExceeded,
    ModelParams,
    RandomSource,
    ReversalCapExceeded,
    SwitchingProb,
)
from telegraph_box import simulate
from telegraph_box.simulate import _run_absorption, _run_phases

N = 4096
SEEDS = (7, 8)

# (lam, mu, H): phase runs do not depend on alpha
PHASE_CASES = ((1.0, 2.0, 1.0), (5.0, 5.0, 20.0))
# (lam, mu, H, alpha)
ABSORPTION_CASES = ((1.0, 2.0, 1.0, 0.5), (5.0, 5.0, 20.0, 1.0), (1.0, 2.0, 1.0, 0.02))


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


# (origin start, level start) per (case, seed)
PHASE_DIGESTS = {
    ((1.0, 2.0, 1.0), 7): (
        '569b8978704330863897af0fa3cafe8173af20088848ac84d1491cda81c42b6b',
        '91d16201eecafa2bdff2dea56e5c5acf4159fcfc87f36cb1d3ce46df52777e10',
    ),
    ((1.0, 2.0, 1.0), 8): (
        'c6069f3a9b1b61ec7f465f91b80fc0eccc4bfa7f88d7f12f01e17aa6aa79b389',
        '737c2d9a342dad8b2081cbf8e7f79cf67380446664711f5b5e1d6caae5939210',
    ),
    ((5.0, 5.0, 20.0), 7): (
        '581447f3ebe7bccb9b2e6ce1e6737d6d68b6f59b9c0e981bec7fd12b1821bdb4',
        'd955964b638b1b48d9e541fbd432d37c0632c7e832abd1d40494dbaa9f34a87e',
    ),
    ((5.0, 5.0, 20.0), 8): (
        '3bebf43391da6e6a1a0aa40572445c1ec98a32b3a96a568f6a80a672b795f232',
        '8baaf48abb78c9e53d52e3a31f554504d5ad13ce8017892df059835c645e3133',
    ),
}

ABSORPTION_DIGESTS = {
    ((1.0, 2.0, 1.0, 0.5), 7): '4a3f430713ce5a828be2776ceae67f5c9291460253bc010a380d321b199975e3',
    ((1.0, 2.0, 1.0, 0.5), 8): 'f85ef813c559d82e0992b6debfdffc14a82d76ed26f858002036ca3a7aebdb06',
    ((5.0, 5.0, 20.0, 1.0), 7): 'b18bbb70f0fde4d64096eb4365574952901b62ee0d886a864bc849f915aafdd3',
    ((5.0, 5.0, 20.0, 1.0), 8): '15fd4cbbdcf0574c54fd7164bced7e2aad388039643a2b0e459c289abf37493b',
    ((1.0, 2.0, 1.0, 0.02), 7): '4454d27f1d6b70ccb50a8e75dc17c6628161ddc326aca7b3ef6a07a7de001258',
    ((1.0, 2.0, 1.0, 0.02), 8): 'da71f254ebc2ef9cdf07d4e7915f1f0589235f47bb41fc23d5008cdf067e5ebe',
}


@pytest.mark.parametrize("case", PHASE_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_phase_engine_outputs_are_pinned(case, seed):
    p = ModelParams(*case)
    got = (
        _digest(_run_phases(Boundary.ORIGIN, p, RandomSource(seed, 0), N)),
        _digest(_run_phases(Boundary.LEVEL, p, RandomSource(seed, 1), N)),
    )
    assert got == PHASE_DIGESTS[case, seed]


@pytest.mark.parametrize("case", ABSORPTION_CASES)
@pytest.mark.parametrize("seed", SEEDS)
def test_absorption_engine_outputs_are_pinned(case, seed):
    lam, mu, h, alpha = case
    out = _run_absorption(ModelParams(lam, mu, h), SwitchingProb(alpha),
                          RandomSource(seed, 2), N)
    assert _digest(out) == ABSORPTION_DIGESTS[case, seed]


def test_array_absorption_respects_phase_budget():
    with pytest.raises(MaxPhasesExceeded):
        _run_absorption(ModelParams(1.0, 2.0, 1.0), SwitchingProb(0.02),
                        RandomSource(0, 0), N, max_phases=1)


# Digests of an engine's outputs plus the next 8 uniforms its generator
# gives afterwards, frozen on the per-round kernel.  The kernel may draw
# ahead and rewind the generator; these pin that every rewind leaves the
# generator exactly where the per-round kernel left it.  The n = 64 cases
# at (5,5,20) spend almost every round in the few-lane tail.
# (engine, case, start or alpha, n, seed) -> digest
STREAM_DIGESTS = {
    ("phases", (5.0, 5.0, 20.0), "origin", 64, 7):
        '2a91c303bca16e130a38c80b8e1e1e02d9eb53551261e8d15f3e5ad56084cf3c',
    ("phases", (5.0, 5.0, 20.0), "level", 64, 8):
        'f94a05c9f1c484da2cdc711b16e3b02bb2ada94582739266e6d7b5fabf04f169',
    ("phases", (1.0, 2.0, 1.0), "origin", N, 7):
        '543d02c1db3935e3cb3146cf8bad49ccb3b4282e0d261200c30740c9b9fc2418',
    ("phases", (5.0, 5.0, 20.0), "level", N, 8):
        '074a764f91e1c75cfcebc1f98141834c828c72c6d4fead17c3976b4c588a8b1b',
    ("absorption", (5.0, 5.0, 20.0), 1.0, 64, 7):
        '147c9d81833ea3fecce64aa950b9e8289b3767e4b64251e8949c9d56b61bf43a',
    ("absorption", (5.0, 5.0, 20.0), 1.0, N, 8):
        '29f2b54d1339e4a48a05dc0776ffe1810ad7b71fdc1ee4343a9b10395d8b72b1',
    ("absorption", (1.0, 2.0, 1.0), 0.5, N, 7):
        '174b3317310a5884c130dd3f28c2640817ba514925ff7b130154418d7dc175e0',
    ("absorption", (1.0, 2.0, 1.0), 0.02, N, 8):
        'c5ced68e9c5b538b5ccd56f0efe70e58e2e6a2a9cd3a0264941944194efe9e94',
}


def _run(engine, case, arg, n, rng):
    p = ModelParams(*case)
    if engine == "phases":
        start = Boundary.ORIGIN if arg == "origin" else Boundary.LEVEL
        return _run_phases(start, p, rng, n)
    return _run_absorption(p, SwitchingProb(arg), rng, n)


@pytest.mark.parametrize("key", list(STREAM_DIGESTS), ids=str)
def test_engine_outputs_and_generator_position_are_pinned(key):
    engine, case, arg, n, seed = key
    rng = RandomSource(seed, 4)
    out = _run(engine, case, arg, n, rng)
    assert _digest((*out, rng.gen.random(8))) == STREAM_DIGESTS[key]


BUFFERED_DIGEST = '0ad9d058739ee0f52bf5b085e2cf0fff54631ba831cc684cc14e365d3513ee71'


def test_engine_keeps_a_buffered_half_word():
    # a 32-bit draw before the run leaves half a 64-bit word buffered in
    # the bit generator; the next 32-bit draws after the run must use it
    rng = RandomSource(9, 5)
    head = rng.gen.integers(2 ** 32, dtype=np.uint32)
    out = _run_phases(Boundary.ORIGIN, ModelParams(5.0, 5.0, 20.0), rng, 64)
    tail = rng.gen.integers(2 ** 32, size=8, dtype=np.uint32)
    assert _digest((np.atleast_1d(head), *out, tail)) == BUFFERED_DIGEST


def test_reversal_cap_bounds_every_round(monkeypatch):
    key = ("phases", (5.0, 5.0, 20.0), "origin", 64, 7)
    _, case, arg, n, seed = key
    rounds = int(_run("phases", case, arg, n, RandomSource(seed, 4))[2].max()) + 1
    for cap in (1, rounds // 2, rounds - 1):
        monkeypatch.setattr(simulate, "_REVERSAL_CAP", cap)
        with pytest.raises(ReversalCapExceeded):
            _run("phases", case, arg, n, RandomSource(seed, 4))
    for cap in (rounds, rounds + 9):
        monkeypatch.setattr(simulate, "_REVERSAL_CAP", cap)
        rng = RandomSource(seed, 4)
        out = _run("phases", case, arg, n, rng)
        assert _digest((*out, rng.gen.random(8))) == STREAM_DIGESTS[key]


# The scalar reference engine and the lane kernel run on one lane take the
# same draws in the same order, so they agree bit for bit, down to where
# they leave the generator.  (0.3, 3, 2) and (3, 0.3, 2) put either
# direction ahead; at (5, 5, 20) the kernel draws round blocks.
SCALAR_CASES = ((1.0, 2.0, 1.0), (5.0, 5.0, 20.0), (0.3, 3.0, 2.0), (3.0, 0.3, 2.0),
                (2.0, 1.0, 0.1))


@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_scalar_phase_matches_the_lane_kernel(case, start):
    p = ModelParams(*case)
    for i in range(200):
        scalar, lanes = RandomSource(3, i), RandomSource(3, i)
        ph = simulate.simulate_phase(start, p, scalar)
        end, duration, n_switches, _, _ = _run_phases(start, p, lanes, 1)
        assert (ph.end is Boundary.LEVEL, ph.duration, ph.n_switches) == (
            bool(end[0]), float(duration[0]), int(n_switches[0])), (case, start, i)
        assert scalar.gen.bit_generator.state == lanes.gen.bit_generator.state


@pytest.mark.parametrize("case", ABSORPTION_CASES)
def test_scalar_absorption_matches_the_lane_kernel(case):
    lam, mu, h, alpha = case
    p, s = ModelParams(lam, mu, h), SwitchingProb(alpha)
    for i in range(100):
        scalar, lanes = RandomSource(4, i), RandomSource(4, i)
        path = simulate.simulate_until_absorption(p, s, scalar)
        m, total, at_level = _run_absorption(p, s, lanes, 1)
        assert (path.m, path.total_time, path.absorbed_at is Boundary.LEVEL) == (
            int(m[0]), float(total[0]), bool(at_level[0])), (case, i)
        assert scalar.gen.bit_generator.state == lanes.gen.bit_generator.state
