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
    SwitchingProb,
)
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
