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
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from telegraph_box import (
    Boundary,
    MaxPhasesExceeded,
    ModelParams,
    RandomSource,
    ReversalCapExceeded,
    SwitchingProb,
    validate_params,
)
from telegraph_box import simulate
from telegraph_box.simulate import _run_absorption, _run_phases

N = 4096
SEEDS = (7, 8)

# (lam, mu, H): phase runs do not depend on alpha.  At (2,2,5), r*H = 10,
# lanes stop early in their round blocks; (5,4,20) runs round blocks at
# unequal rates.
PHASE_CASES = ((1.0, 2.0, 1.0), (5.0, 5.0, 20.0), (2.0, 2.0, 5.0), (5.0, 4.0, 20.0))
# (lam, mu, H, alpha)
ABSORPTION_CASES = ((1.0, 2.0, 1.0, 0.5), (5.0, 5.0, 20.0, 1.0), (1.0, 2.0, 1.0, 0.02))

# _TAIL_LANES: 0 runs the per-round path in numpy only, 10 ** 9 in plain
# Python only; every width takes the same draws and does the same IEEE
# operations, so it moves no output byte and no generator state
TAIL_WIDTHS = (0, simulate._TAIL_LANES, 10 ** 9)
TAIL_OFF_ON = pytest.mark.parametrize("tail", [0, simulate._TAIL_LANES],
                                      ids=["tail-off", "tail-on"])


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
        '486a81f2a56fb23fad74d483c827d89c61f512ffbecbdcb3703303677ae96b46',
        '35f55cb3057fd43de5257796b1d4e360be400439dd6f85e1c6c64923d90c1257',
    ),
    ((1.0, 2.0, 1.0), 8): (
        '2025e72d9c05f9b6bf2bb75653f21dd76080c0b76fd0f5e9ebc9b56038b6e4ff',
        '16454207d1111e6f46230a981b6a3d9ad50ec4e6e51700312c5300080bef0059',
    ),
    ((5.0, 5.0, 20.0), 7): (
        'd5f7a21d409d40d28b6dddc6f40ae9149377200185ee3a7e6954c5ad6c3c1c0a',
        '07f7ea62afc0c9f184fc85de5765b97553466388c8834c11d78bb33c5990bed4',
    ),
    ((5.0, 5.0, 20.0), 8): (
        '16998e9977dde97cc4bcbb8042d279678625be181fc04cead766fc1d8e34fe1d',
        'eebe823fbb15ed6c96ebd980f70333765c4b0d8d42347f151f463e0c2afcecc0',
    ),
    ((2.0, 2.0, 5.0), 7): (
        'b969204a579dfe90e57d9d7adb9f420436eb17e450a66bd7dfb3b4c5d2a933ad',
        '5c5c5e47f01a8ebb70142526f9e031221c39ab90b121622a3d59aa94a9506a52',
    ),
    ((2.0, 2.0, 5.0), 8): (
        '3113c9ca25d0257ae13136d6397c9353afc25ba601a2c2df4262960b751330ea',
        '9e36c297aede8aedb34a42d519a7a5fad28c1d6dd757e1e540e58618e110a185',
    ),
    ((5.0, 4.0, 20.0), 7): (
        '87e79de7fd6f564a14cdaac2a2da3c239b76630673cfef3b49852faef616313e',
        '666a03bac8b99efafe7cdd9bcb561fe22f7dd4ac86e49079d8ec2fa325f27ccd',
    ),
    ((5.0, 4.0, 20.0), 8): (
        '90438f4ef27d7dc7da17ac2e46092d0ab996587ca56a461d070749b3857259e3',
        '654feee5756025c82ab5651c03eab0429bf3c2771a1cd0b2d33a19aeecb7336f',
    ),
}

ABSORPTION_DIGESTS = {
    ((1.0, 2.0, 1.0, 0.5), 7): '00d268c0effadd4063da1d4dcdbe1e8e155d21c60f7ee5189a3cf8389547b1bc',
    ((1.0, 2.0, 1.0, 0.5), 8): '647e5d9a5dcb25630a33c16cf488927b37ea151c5aa87438112d38cfc4be0dc6',
    ((5.0, 5.0, 20.0, 1.0), 7): '7b764ef69d81e2b44abd610c333ea1dd05e9f28c5ee84bf2091a29b21413adb0',
    ((5.0, 5.0, 20.0, 1.0), 8): 'd05265edb79a0db816d3dc1e4f72225cf456d93bcfe8b7ec6fd69e5ee2b4489d',
    ((1.0, 2.0, 1.0, 0.02), 7): '232129dc9dc87f34900a602aae4d50dfa9c439a7c8b6f33ce5996346e640074e',
    ((1.0, 2.0, 1.0, 0.02), 8): '44b60eff6cea94a914a95c19b438c643aa4aad9b7d56fa9a3a8d348e5dc3fbf3',
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


def test_array_absorption_budget_is_checked_before_any_phase():
    # the phase counts come first, so the budget is exactly the largest
    # of them, and a smaller one raises with only those counts drawn
    p, s = ModelParams(1.0, 2.0, 1.0), SwitchingProb(0.02)
    m = _run_absorption(p, s, RandomSource(0, 0), N)[0]
    out = _run_absorption(p, s, RandomSource(0, 0), N, max_phases=int(m.max()))
    assert np.array_equal(out[0], m)
    counts_only = RandomSource(0, 0)
    counts_only.gen.geometric(s.alpha, N)
    for budget in (int(m.max()) - 1, 1):
        rng = RandomSource(0, 0)
        with pytest.raises(MaxPhasesExceeded):
            _run_absorption(p, s, rng, N, max_phases=budget)
        assert rng.gen.bit_generator.state == counts_only.gen.bit_generator.state


# numpy float32 fields pass validate_params and keep their type in
# effective_level; a restart reads the wall's float64 bits, so a run on
# float32 fields must match the run on the same values as float64.
# (1,1,2,0.05) hands the per-round path lanes heading both ways.
# The plain-Python tail keeps its rates Python floats: x / np.float32
# would stay float32.
@pytest.mark.parametrize("case", [(1.0, 2.0, 1.0, 0.2), (1.0, 1.0, 2.0, 0.05)])
def test_float32_parameters_run_as_their_float64_values(monkeypatch, case):
    p64 = ModelParams(*case[:3])
    p32 = validate_params(ModelParams(*map(np.float32, case[:3])))
    s = SwitchingProb(case[3])
    for n in (1, 64, N):
        monkeypatch.setattr(simulate, "_TAIL_LANES", 0)
        b = RandomSource(3, 1)
        want = _digest(_run_absorption(p64, s, b, n))
        for width in TAIL_WIDTHS:
            monkeypatch.setattr(simulate, "_TAIL_LANES", width)
            a = RandomSource(3, 1)
            assert _digest(_run_absorption(p32, s, a, n)) == want, (n, width)
            assert a.gen.bit_generator.state == b.gen.bit_generator.state, (n, width)


# Digests of an engine's outputs plus the next 8 uniforms its generator
# gives afterwards.  The kernel draws round blocks ahead and may put the
# generator back; these pin where it leaves the generator.  The n = 64
# cases at (5,5,20) spend almost every round in round blocks.
# (engine, case, start or alpha, n, seed) -> digest
STREAM_DIGESTS = {
    ("phases", (5.0, 5.0, 20.0), "origin", 64, 7):
        '11fc14031bdacdb792a63052c4802c5c6fbe0e63d5c3e04dc3ddf7192c1f287d',
    ("phases", (5.0, 5.0, 20.0), "level", 64, 8):
        '707a54a53e239ec921ba3ad30ef3cc5367126f19f075da897fd2a07fc8694afe',
    ("phases", (1.0, 2.0, 1.0), "origin", N, 7):
        '97a2b28688be11f3a246d992544bf5c1cd9fbe2fc2f1b05e18a243792a495093',
    ("phases", (5.0, 5.0, 20.0), "level", N, 8):
        '2b3c4648728ed775e8ad4beb583bd3aa7664d8558489e9dd0cd67ffb41a3e737',
    ("phases", (2.0, 2.0, 5.0), "origin", N, 7):
        'bfb7123295937eace0dc6bb1d827ef7f818a2b582daee09f8556c0ae6b7cc324',
    ("phases", (5.0, 4.0, 20.0), "level", N, 8):
        '39334b461cceff7fb60635d044f024d3c9c35e3ca9dbf3675d8a7339b52ebbbd',
    ("phases", (5.0, 4.0, 20.0), "origin", 64, 7):
        '30d223dc63649494102c42b01b1d54a7a4f1b2535ce956513d99f23f16f18d49',
    ("absorption", (5.0, 5.0, 20.0), 1.0, 64, 7):
        '926e6e9fe9825447514556245f0d593513865b2f299a7c60caf596a260faad18',
    ("absorption", (5.0, 5.0, 20.0), 1.0, N, 8):
        'ee2f3bb76c345cd71de00b27c0c7b0aa5790dbc15d732b16a7757a6785f529ec',
    ("absorption", (1.0, 2.0, 1.0), 0.5, N, 7):
        '66dd29627c1340a82333a1a0f91617ba0425b5e7a4e94083194dfcbdf417bed6',
    ("absorption", (1.0, 2.0, 1.0), 0.02, N, 8):
        '47f3ba691d3cfda20634fcad87659f3f3da15f3200c0d9471cea2dcc32374e69',
    # unequal rates while round blocks restart lanes
    ("absorption", (5.0, 4.0, 20.0), 0.2, N, 7):
        'caff29fd1f00c6640e07b426460a6eb357ba35758e5e19ecde8b1d088f19f972',
    ("absorption", (5.0, 4.0, 20.0), 0.2, 64, 8):
        'bd4eb3efb0a9b169bbca7848c8926b905d5010212346d81cea42aa5ea81467f5',
    ("absorption", (2.0, 2.0, 5.0), 0.1, N, 8):
        '8e4c0455ad21ff581d8da6200f5d4c78e045be30a9909de5e5777561a4166d26',
    # at (1,1,2) a round block that restarts lanes off the round parity
    # hands lanes heading both ways to the per-round path
    ("absorption", (1.0, 1.0, 2.0), 0.2, 64, 7):
        'b00c5ac5ba32f66deb1f009c07984ea6b88eac783940d8dc8b903c27db41a600',
    ("absorption", (1.0, 1.0, 2.0), 0.2, 64, 8):
        '98079e7e5638a0bff4721241d9ecea17a21508c9cd79a4fbd454f0ed4d68cf62',
    ("absorption", (1.0, 1.0, 2.0), 0.2, N, 7):
        '54f66704e5b09b0386bf416b2def47ba25e1444e28ea75221c06979907e675a9',
    ("absorption", (1.0, 1.0, 2.0), 0.2, N, 8):
        'e2bb77ec9d573b22bf72d9fb38e834a33fb66e7127d309fad1722285dba4c0f9',
    ("absorption", (1.0, 1.0, 2.0), 0.05, 64, 7):
        'c5e6e4d748893b4ae495cfeee537993899ebb7651038db87b6dbab3fbb9bc98b',
    ("absorption", (1.0, 1.0, 2.0), 0.05, 64, 8):
        '4511379f2a9f95133833ce1d8a978384a11d198eaafd05080f8d9ba06b7fad84',
    ("absorption", (1.0, 1.0, 2.0), 0.05, N, 7):
        '4a7177a57feaa71b6424e8f9f45d442664bc149db9ef40762b0f04aadb526c6c',
    ("absorption", (1.0, 1.0, 2.0), 0.05, N, 8):
        '1486099fa3f1fe6acd917089f5189ec41312e9478c3381f580c8dc12419f29b2',
    # at alpha = 0.999 the few restarts run out while many lanes are live;
    # later compactions leave the phases-left row stale, and the tail
    # starts with a lane's last phase
    ("absorption", (1.0, 2.0, 1.0), 0.999, 1024, 7):
        'd4e203814c15cf75505b33e1c0370cb6c1401604d2dd6f68786d31ec3118b1d5',
    ("absorption", (1.0, 2.0, 1.0), 0.999, N, 8):
        'd785ded9fbf9089bbf36dc017bb71dc8502b1df601bb2f06e18c8c2e60a0b0aa',
    # a rate of 1e-300 makes every draw heading that way about 1e300 long,
    # so a lane crosses the whole box in one round and lands far past the
    # wall it restarts at; at a rate of 5e-324 those draws overflow to inf
    # and a stopped down lane ends at -inf
    ("phases", (1e-300, 1.0, 1.0), "origin", 64, 7):
        '32aca4eb2b644f399157769ab2ee470bc2f637f2432eb156a76906bb350f6cfa',
    ("phases", (1e-300, 1.0, 1.0), "level", N, 8):
        '12302417088ed704e91bb7cf2c7d79ddb63deb7c5a93a8610ba3353ab6238afe',
    ("absorption", (1e-300, 1.0, 1.0), 0.2, 64, 7):
        'ca3e98f3635cb97b7bc510ca6e04e3379d0f65ff58a18d1dd93d0781f79a0f96',
    ("absorption", (1e-300, 1.0, 1.0), 0.2, N, 8):
        '03df3e8ef60591863baf816743faebb49429f07d295e463e2793704d8d5c017a',
    ("phases", (1.0, 1e-300, 1.0), "origin", 64, 7):
        '186b7b7701229b0292011dba995dab3e72cae33b71bf6e2e40d8356944e78437',
    ("phases", (1.0, 1e-300, 1.0), "level", N, 8):
        'bf59f6caec311a1170aa73a06f6175f8a0fdf097592f2b93f1bf7f1eac74243b',
    ("absorption", (1.0, 1e-300, 1.0), 0.2, 64, 7):
        '566d24452d21f65a2fd6abff3ddbb607c280b62b436d92a4577339390b088af4',
    ("absorption", (1.0, 1e-300, 1.0), 0.2, N, 8):
        '5cf47eb50975d7e6442e2b056f1832dab5e8c26c239403b1ae67b0bfe8ae3ee3',
    ("absorption", (1.0, 5e-324, 1.0), 0.2, 64, 7):
        '566d24452d21f65a2fd6abff3ddbb607c280b62b436d92a4577339390b088af4',
    ("absorption", (1.0, 5e-324, 1.0), 0.2, N, 8):
        '5cf47eb50975d7e6442e2b056f1832dab5e8c26c239403b1ae67b0bfe8ae3ee3',
}


def _run(engine, case, arg, n, rng):
    p = ModelParams(*case)
    if engine == "phases":
        start = Boundary.ORIGIN if arg == "origin" else Boundary.LEVEL
        return _run_phases(start, p, rng, n)
    return _run_absorption(p, SwitchingProb(arg), rng, n)


@pytest.mark.parametrize("key", list(STREAM_DIGESTS), ids=str)
def test_engine_outputs_and_generator_position_are_pinned(monkeypatch, key):
    engine, case, arg, n, seed = key
    states = []
    for width in TAIL_WIDTHS:
        monkeypatch.setattr(simulate, "_TAIL_LANES", width)
        rng = RandomSource(seed, 4)
        with np.errstate(over="ignore"):
            out = _run(engine, case, arg, n, rng)
        states.append(rng.gen.bit_generator.state)
        assert _digest((*out, rng.gen.random(8))) == STREAM_DIGESTS[key], width
    assert states[1:] == states[:-1]


# A single lane takes the draws of the round-by-round loop at any block
# size: a block it stops in is cut back to the rounds it used, so its
# outputs and the generator's position, a buffered 32-bit half word
# included, do not depend on _BLOCK_MIN.  At (5,5,20,0.1) a lane restarts
# about ten times, at (1,2,1,0.02) about fifty.  With the tail on, a lane
# runs its per-round stretches in plain Python; with it off, in numpy.
@TAIL_OFF_ON
@pytest.mark.parametrize("case", [(5.0, 5.0, 20.0, 0.1), (5.0, 5.0, 20.0, 1.0),
                                  (1.0, 2.0, 1.0, 0.02)])
def test_one_lane_does_not_depend_on_the_block_size(monkeypatch, case, tail):
    monkeypatch.setattr(simulate, "_TAIL_LANES", tail)
    p, s = ModelParams(*case[:3]), SwitchingProb(case[3])

    def run(seed, block_min):
        monkeypatch.setattr(simulate, "_BLOCK_MIN", block_min)
        rng = RandomSource(seed, 6)
        head = rng.gen.integers(2 ** 32, dtype=np.uint32)
        out = _run_absorption(p, s, rng, 1)
        return _digest((np.atleast_1d(head), *out)), rng.gen.bit_generator.state

    default = simulate._BLOCK_MIN
    for seed in range(200):
        blocks = run(seed, 2)
        assert run(seed, default) == blocks, (case, seed)
        assert run(seed, 10 ** 9) == blocks, (case, seed)


BUFFERED_DIGEST = '83b056186e7725898f679d0b8cd0188da3e3bd83b7abf7c8a3179502830305b3'


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


@TAIL_OFF_ON
@pytest.mark.parametrize("case", SCALAR_CASES)
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_scalar_phase_matches_the_lane_kernel(monkeypatch, case, start, tail):
    monkeypatch.setattr(simulate, "_TAIL_LANES", tail)
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


# One lane where a draw crosses the whole box in one round: at a rate of
# 1e-300 the draws heading that way are about 1e300 long, at 5e-324 they
# overflow to inf, so a down lane lands far below the origin, or at -inf,
# before it restarts there.  With the tail off, the numpy rounds run it.
@TAIL_OFF_ON
@pytest.mark.parametrize("case", [(1.0, 1e-300, 1.0, 0.2), (1.0, 5e-324, 1.0, 0.2),
                                  (1e-300, 1.0, 1.0, 0.2), (5e-324, 1.0, 1.0, 0.2)])
def test_scalar_absorption_matches_the_lane_kernel_where_draws_overflow(monkeypatch, case, tail):
    monkeypatch.setattr(simulate, "_TAIL_LANES", tail)
    p, s = ModelParams(*case[:3]), SwitchingProb(case[3])
    for i in range(50):
        scalar, lanes = RandomSource(4, i), RandomSource(4, i)
        path = simulate.simulate_until_absorption(p, s, scalar)
        with np.errstate(over="ignore"):
            m, total, at_level = _run_absorption(p, s, lanes, 1)
        assert (path.m, path.total_time, path.absorbed_at is Boundary.LEVEL) == (
            int(m[0]), float(total[0]), bool(at_level[0])), (case, i)
        assert scalar.gen.bit_generator.state == lanes.gen.bit_generator.state


# Only a one-phase call keeps the parity sums that the reversal count, the
# dual clock and the jump total come from; a call in which any lane runs
# more than one phase returns None in their places, not arrays it never
# wrote.
def test_only_one_phase_calls_return_the_dual_outputs():
    p, n = ModelParams(1.0, 2.0, 1.0), 64
    for extra in (1, n):
        phases = np.ones(n, dtype=np.int64)
        phases[:extra] = 2
        end, duration, *dual = simulate._run_lanes(True, phases, p, RandomSource(1, 0))
        assert dual == [None, None, None]
        assert (end.dtype, end.shape, duration.dtype, duration.shape) == (
            np.dtype(bool), (n,), np.dtype(float), (n,))
    for start in Boundary:
        out = _run_phases(start, p, RandomSource(1, 0), n)
        assert [a.dtype for a in out] == [np.dtype(t) for t in (bool, float, np.int64, float, float)]
        assert all(a.shape == (n,) for a in out)


# A one-phase call without dual clocks takes the same draws and does the
# same arithmetic on positions and phase times as a dual one: only the
# parity sums, t_stop and y_stop go.  At (5, 5, 20) it runs round blocks,
# at (1, 2, 1) numpy rounds and at (1, 1e-300, 1) down draws that cross
# the whole box in one round.
@TAIL_OFF_ON
@pytest.mark.parametrize("case", [(5.0, 5.0, 20.0), (1.0, 2.0, 1.0), (1.0, 1e-300, 1.0)])
@pytest.mark.parametrize("start", [Boundary.ORIGIN, Boundary.LEVEL])
def test_phase_calls_without_dual_clocks_keep_every_other_byte(monkeypatch, case, start, tail):
    monkeypatch.setattr(simulate, "_TAIL_LANES", tail)
    p = ModelParams(*case)
    for n, seed in ((1, 3), (300, 4), (N, 5)):
        dual, lean = RandomSource(seed, 0), RandomSource(seed, 0)
        with np.errstate(over="ignore"):
            want = _run_phases(start, p, dual, n)
            got = _run_phases(start, p, lean, n, dual=False)
        assert got[3:] == (None, None)
        assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got[:3], want[:3]))
        assert lean.gen.bit_generator.state == dual.gen.bit_generator.state


# A lane array holds only the rows its call reads: position, phase time
# and index in a one-phase call without dual clocks, which so makes two
# parity rows, t_stop and y_stop fewer than a dual call.
def test_one_phase_calls_without_dual_clocks_make_no_parity_rows(monkeypatch):
    p, n = ModelParams(1.0, 2.0, 1.0), 2 ** 14
    depths = []
    lane_rows = simulate._lane_rows

    def spy(lanes, dual):
        depths.append((dual, len(lanes)))
        return lane_rows(lanes, dual)

    def peak(dual):
        _run_phases(Boundary.LEVEL, p, RandomSource(1, 0), n, dual=dual)
        tracemalloc.start()
        try:
            _run_phases(Boundary.LEVEL, p, RandomSource(1, 0), n, dual=dual)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(simulate, "_lane_rows", spy)
    assert peak(True) - peak(False) >= 4 * 8 * n
    assert set(depths) == {(True, 5), (False, 3)}


log_uniform = st.floats(min_value=-2.3, max_value=2.3).map(np.exp)


# Any tail width gives the numpy-only outputs and generator position, at
# random small points with float64 or float32 fields: the lanes hand over
# to the tail and back to round blocks at varying points of a call.  Near
# alpha = 1 the restarts run out while lanes are live, and narrow tails
# start only after compactions past that point.
@given(log_uniform, log_uniform, log_uniform,
       st.floats(min_value=0.02, max_value=1.0) | st.floats(min_value=0.9, max_value=1.0),
       st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=8) | st.integers(min_value=1, max_value=320),
       st.sampled_from([np.float64, np.float32]), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=40, deadline=None)
def test_tail_width_moves_no_byte_at_random_points(lam, mu, h, alpha, n, width, dtype, seed):
    p, s = ModelParams(*map(dtype, (lam, mu, h))), SwitchingProb(alpha)

    def run(tail):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_TAIL_LANES", tail)
            out = []
            for i, call in enumerate((lambda rng: _run_phases(Boundary.ORIGIN, p, rng, n),
                                      lambda rng: _run_phases(Boundary.LEVEL, p, rng, n),
                                      lambda rng: _run_absorption(p, s, rng, n))):
                rng = RandomSource(seed, i)
                out.append((_digest(call(rng)), rng.gen.bit_generator.state))
            return out

    assert run(width) == run(0)


# The round blocks sum their rows straight down with _row_sum, and the
# result must be the last row of the cumulative sum bit for bit, for every
# shape a block takes: numpy adds a one-column array pairwise, so a numpy
# that reorders either sum fails here by name.
@pytest.mark.parametrize("width", [1, 2, 3, 64, 4096])
def test_row_sum_is_the_last_row_of_the_cumulative_sum(width):
    gen = np.random.default_rng(width)
    top = min(simulate._BLOCK_ROUNDS, simulate._BLOCK_CELLS // width) + 2
    for height in sorted({1, 2, 3, 9, 17, 130, 513, top} & set(range(1, top + 1))):
        for _ in range(20):
            shape = (height, width)
            a = gen.standard_exponential(shape) * 10.0 ** gen.integers(-8, 9, shape)
            assert np.array_equal(simulate._row_sum(a), np.cumsum(a, axis=0)[-1]), (height, width)
            b = a.copy()
            simulate._running_sum(b)
            assert np.array_equal(b, np.cumsum(a, axis=0)), (height, width)


# The round blocks' scratch is made when the first block starts, sized by
# the block, and the old scratch and its views go when a later block needs
# more; the lanes move to arrays their own size, so that at 2^14 lanes a call
# in the block regime, (5,5,20), peaks no higher than one that never
# starts a block, (1,2,1): the arrays every call makes set both peaks.
@pytest.mark.parametrize("alpha", [1.0, 0.2])
def test_round_blocks_add_no_memory_peak(alpha):
    def peak(*case):
        p, s = ModelParams(*case), SwitchingProb(alpha)
        _run_absorption(p, s, RandomSource(1, 0), 2 ** 14)
        tracemalloc.start()
        try:
            _run_absorption(p, s, RandomSource(1, 0), 2 ** 14)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    blocks, rounds = peak(5.0, 5.0, 20.0), peak(1.0, 2.0, 1.0)
    assert blocks <= 1.1 * rounds, (blocks, rounds)
