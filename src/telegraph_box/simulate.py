"""Exact event-driven simulation of the confined motion.

No time grid: every boundary hit time is computed algebraically from the
exponential sojourn draws, so path identities hold to rounding error.
Scalar entry points return full records with the raw draws attached.
One underscore-prefixed array kernel runs a phase on many lanes at once;
the phase and absorption engines built on it trade records for
throughput and feed the estimation layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from .core import Boundary, ModelParams, RandomSource, SwitchingProb, exp_draw
from .errors import IdentityViolation, MaxPhasesExceeded, ReversalCapExceeded

# defensive cap on velocity reversals within one scalar phase, and on the
# rounds of one array-kernel call, the restarts of absorption paths
# included; phases end with probability one, so tripping this signals
# corrupted parameters or a phase count past what the cap can run
_REVERSAL_CAP = 10 ** 7

# |C - (2T +/- H)| must stay below this times max(1, C)
_DUAL_TOL = 1e-9

# round blocks in the array kernel: a block spans about twice the rounds
# a lane takes to its own stop, capped in rounds and in draws, and is not
# worth its fixed cost below _BLOCK_MIN rounds.  The rounds-per-stop
# figure it is sized from forgets the past by halving its counts once
# they hold more than _HAZARD_STOPS stops, so it follows the lanes left.
_BLOCK_MIN = 8
_BLOCK_ROUNDS = 1024
_BLOCK_CELLS = 2 ** 15
_HAZARD_STOPS = 64

# a running sum down the rows of a block adds one row at a time from
# this many lanes on; below it, np.cumsum is cheaper (the timings of
# both, by width and block height, are in BENCH_17.json, running_sum)
_ROW_ADD_WIDTH = 512

# retired lanes keep their columns in the array kernel's per-round path
# until they are more than 1/_DEAD_SHARE of its columns: a compaction
# copies every row of every column, so it waits for a share of them.
# It copies through the kernel's scratch rows, so that no second large
# array is made.  A compaction that starts a round block, when the live
# lanes fill at most 1/_SHRINK_SHARE of the columns, then moves them to
# arrays their own size: the block scratch is made next, and the old
# arrays would otherwise stay beside it.  Elsewhere new arrays cost more
# than they free; at (1,2,1,0.5) shrinking at every quarter made
# 2^14-lane calls about 3% slower.
_DEAD_SHARE = 8
_SHRINK_SHARE = 4

# the array kernel's per-round path runs in plain Python once at most this
# many lanes are live.  A numpy round costs 35-47 us from 1 to 256 lanes,
# almost all of it call overhead; a Python round costs about 0.5-0.7 us
# a lane plus a few us, so the two cross at about 60-90 lanes.  Whole
# 2^14-path calls at (1,2,1,0.02) ran within 3% of each other at 16 to
# 128 lanes, 10% slower at 256 and 19% slower in numpy only
# (BENCH_18.json, tail_width).  A multi-phase call's numpy round, with
# no parity sums, costs 15-18 us; its whole calls still run within 2% of
# each other at 24 to 96 lanes (BENCH_19.json, tail_width)
_TAIL_LANES = 64


@dataclass(frozen=True)
class PhaseRecord:
    """One completed boundary-to-boundary excursion.

    ups and downs hold the raw (untruncated) exponential draws in order;
    the final sojourn was cut short at the boundary and final_cut is the
    portion actually traveled.  duration is the sum of all complete
    sojourns plus final_cut.  n_switches counts velocity reversals, one
    per complete sojourn.
    """

    start: Boundary
    end: Boundary
    duration: float
    n_switches: int
    ups: tuple[float, ...]
    downs: tuple[float, ...]
    final_cut: float

    @property
    def draws(self) -> tuple[tuple[float, float], ...]:
        """(U_i, D_i) pairs in draw order; the absent trailing slot is 0.0."""
        return tuple(zip_longest(self.ups, self.downs, fillvalue=0.0))


@dataclass(frozen=True)
class PathRecord:
    """A full trajectory from the origin to absorption."""

    phases: tuple[PhaseRecord, ...]
    m: int
    absorbed_at: Boundary
    total_time: float


@dataclass(frozen=True)
class DualCheck:
    """Result of replaying a phase through its compound-Poisson dual."""

    t_stop: float
    identity_residual: float


def simulate_phase(start: Boundary, p: ModelParams, rng: RandomSource) -> PhaseRecord:
    """Run one phase from `start` until the first boundary contact.

    Alternates Exp(lam) upward and Exp(mu) downward sojourns, the first
    one directed away from the start boundary, and truncates the sojourn
    during which the particle reaches a boundary.
    """
    h = p.effective_level
    up = start is Boundary.ORIGIN
    pos = 0.0 if up else h
    ups: list[float] = []
    downs: list[float] = []
    duration = 0.0
    while True:
        if len(ups) + len(downs) >= _REVERSAL_CAP:
            raise ReversalCapExceeded(_REVERSAL_CAP)
        x = exp_draw(p.lam if up else p.mu, rng)
        (ups, downs)[not up].append(x)
        gap = h - pos if up else pos
        if x >= gap:
            break
        pos += x if up else -x
        duration += x
        up = not up
    return PhaseRecord(
        start=start, end=Boundary.LEVEL if up else Boundary.ORIGIN,
        duration=duration + gap, n_switches=len(ups) + len(downs) - 1,
        ups=tuple(ups), downs=tuple(downs), final_cut=gap,
    )


def simulate_until_absorption(p: ModelParams, s: SwitchingProb, rng: RandomSource,
                              max_phases: int = 10 ** 6) -> PathRecord:
    """Chain phases from the origin until the particle is absorbed.

    The phase count is drawn first, Geometric(alpha), the law of a
    Bernoulli(alpha) absorption coin at every boundary contact.  Raises
    MaxPhasesExceeded, before any phase is run, if it exceeds
    max_phases; the error keeps censored paths out of any statistics.
    """
    m = int(rng.gen.geometric(s.alpha))
    if m > max_phases:
        raise MaxPhasesExceeded(max_phases)
    phases: list[PhaseRecord] = []
    where = Boundary.ORIGIN
    total = 0.0
    for _ in range(m):
        ph = simulate_phase(where, p, rng)
        phases.append(ph)
        total += ph.duration
        where = ph.end
    return PathRecord(tuple(phases), m, where, total)


def _dual_scan(start, ups, downs, h):
    """First boundary crossing of the dual walk of a phase, from its raw draws.

    Returns (end, t_stop, duration, n_ups, n_downs), or None if the draws
    run out first.  The cumulative time away from the start boundary, c1,
    plays the role of the dual clock and the time back toward it, c2, the
    jump process: a level start is an origin start with ups and downs
    exchanged, except that only an origin start's crossing adds H to t_stop.
    """
    origin = start is Boundary.ORIGIN
    away, back = (ups, downs) if origin else (downs, ups)
    c1 = c2 = 0.0
    for j, x in enumerate(away):
        c1 += x
        if c1 - c2 >= h:
            far = Boundary.LEVEL if origin else Boundary.ORIGIN
            return (far, c2 + h if origin else c2, 2.0 * c2 + h,
                    *((j + 1, j) if origin else (j, j + 1)))
        if j < len(back):
            c2 += back[j]
            if c2 >= c1:
                return start, c1, 2.0 * c1, j + 1, j + 1
    return None


def dual_representation_check(ph: PhaseRecord, p: ModelParams) -> DualCheck:
    """Replay a phase through its compound-Poisson dual and verify the
    duration identity.

    The dual walk rebuilt from the same draws must end at the same
    boundary, consume exactly the recorded draws, and predict the phase
    duration as 2*T (returning phases), 2*T - H (origin to level) or
    2*T + H (level to origin).  Raises IdentityViolation otherwise;
    a violation means the simulator itself is wrong.
    """
    h = p.effective_level
    scan = _dual_scan(ph.start, ph.ups, ph.downs, h)
    if scan is None:
        raise IdentityViolation(float("nan"), "dual walk never crossed a boundary")
    end, t_stop, c_dual, n_ups, n_downs = scan
    if end is not ph.end:
        raise IdentityViolation(
            float("nan"), f"dual walk ends at {end.value}, phase says {ph.end.value}")
    if n_ups != len(ph.ups) or n_downs != len(ph.downs):
        raise IdentityViolation(
            float("nan"),
            f"dual walk used {n_ups}+{n_downs} draws, record holds "
            f"{len(ph.ups)}+{len(ph.downs)}")
    residual = abs(ph.duration - c_dual)
    if residual >= _DUAL_TOL * max(1.0, ph.duration):
        raise IdentityViolation(residual, "duration identity broken")
    return DualCheck(t_stop=t_stop, identity_residual=residual)


# ---------------------------------------------------------------------------
# array engine


def _lane_rows(lanes):
    """Views of the lane array of _run_lanes, row by row, and the bits
    of its positions and current phase times."""
    bits = lanes.view(np.int64)
    left = bits[6] if len(lanes) > 6 else None
    return lanes[0], lanes[1], lanes[2], lanes[3:5], bits[5], left, bits[0], bits[1]


def _row_sum(a):
    """a[0] + a[1] + ... + a[-1] down axis 0, added row after row: the last
    row of np.cumsum(a, axis=0), bit for bit.  numpy sums one column
    pairwise, so a one-column array takes the cumulative sum."""
    if a.shape[1] == 1:
        return np.cumsum(a, axis=0)[-1]
    return np.add.reduce(a, axis=0)


def _running_sum(a):
    """np.cumsum(a, axis=0) in place: each row becomes the sum of the rows
    up to it, added row after row."""
    if a.shape[1] < _ROW_ADD_WIDTH:
        np.cumsum(a, axis=0, out=a)
    else:
        for i in range(1, len(a)):
            np.add(a[i - 1], a[i], out=a[i])


def _compact(moved, keep, scratch):
    """Move the columns `keep` (ascending) of `moved` to its front, in
    place, as many at a time as `scratch` holds."""
    width = scratch.size // len(moved)
    for lo in range(0, keep.size, width):
        cols = keep[lo:lo + width]
        spare = scratch.reshape(-1)[:len(moved) * cols.size].reshape(len(moved), -1)
        np.take(moved, cols, axis=1, out=spare, mode="clip")
        moved[:, lo:lo + cols.size] = spare


def _block_rounds(lane_rounds, stops, live):
    """The rounds of the next round block: about twice the lane-rounds
    per stop so far, capped in rounds and in draws, and even."""
    return min(int(2 * lane_rounds / stops), _BLOCK_ROUNDS, _BLOCK_CELLS // live) // 2 * 2


def _run_tail(origin, h, lam, mu, gen, lanes, up_even, counts, out):
    """The per-round path of _run_lanes in plain Python, for a few lanes.

    `lanes` holds the live columns of the kernel's lane array in column
    order, `up_even` their headings on even rounds, `counts` the kernel's
    (rounds, stops, lane_rounds, restarts) and `out` its output arrays,
    the last three None in a multi-phase call, which keeps no parity sums.
    Runs rounds until no lane is left or a round block would start, and
    returns the lane array and headings of the lanes left, in the same
    order and sized to them, with the counts updated.  A round draws one
    exponential per live lane in column order, as the per-round path does.
    """
    rounds, stops, lane_rounds, restarts = counts
    end_level, duration, n_switches, t_stop, y_stop = out
    one = n_switches is not None
    bits = lanes.view(np.int64)
    # phases left is kept only while lanes have restarts left; then every
    # live lane runs its last phase, and the row, if there, is stale
    left = bits[6].tolist() if restarts else [1] * lanes.shape[1]
    # per lane: position, current and completed phase time, even and odd
    # draw totals, phases left, index and heading on even rounds
    live = [list(s) for s in zip(*lanes[:5].tolist(), left, bits[5].tolist(), up_even.tolist())]
    # Python floats, since x / np.float32 stays float32
    lam, mu = float(lam), float(mu)
    while live:
        if rounds == _REVERSAL_CAP:
            raise ReversalCapExceeded(_REVERSAL_CAP)
        kl = len(live)
        if _block_rounds(lane_rounds, stops, kl) >= _BLOCK_MIN:
            break
        odd = rounds % 2
        same, other = 3 + odd, 4 - odd
        hits = ended = 0
        # the per-round path's arithmetic, lane by lane, on unsigned
        # draws: min(x, gap) is x below the gap and the gap at a stop, and
        # a stop adds the phase time to the completed time, then restarts
        # the lane at its wall or records it
        for s, x in zip(live, gen.standard_exponential(kl).tolist()):
            up = s[7] != odd
            if up:
                x /= lam
                gap = h - s[0]
                s[0] += x
            else:
                x /= mu
                gap = s[0]
                s[0] -= x
            if one:
                s[same] += x
            if x < gap:
                s[1] += x
                continue
            hits += 1
            s[2] += s[1] + gap
            s[5] -= 1
            if s[5]:
                s[0], s[1] = h if up else 0.0, 0.0
            else:
                i = s[6]
                duration[i], end_level[i] = s[2], up
                if one:
                    o = s[other]
                    n_switches[i] = rounds
                    t_stop[i] = o + h * up if origin else o
                    y_stop[i] = o if up else s[same]
                ended += 1
        lane_rounds += kl
        rounds += 1
        restarts -= hits - ended
        if hits:
            stops += hits
            if stops > _HAZARD_STOPS:
                stops, lane_rounds = stops / 2, lane_rounds / 2
        if ended:
            live = [s for s in live if s[5]]
    rest = np.empty((7 if restarts else 6, len(live)))
    if live:
        cols = list(zip(*live))
        rest[:5] = cols[:5]
        bits = rest.view(np.int64)
        bits[5] = cols[6]
        if restarts:
            bits[6] = cols[5]
    return rest, np.array([s[7] for s in live], dtype=bool), (rounds, stops, lane_rounds, restarts)


def _run_lanes(origin: bool, phases: np.ndarray, p: ModelParams, rng: RandomSource):
    """Run phases[i] >= 1 phases in a row on lane i, vectorized; all lanes
    start at the origin if `origin`, else at the level, and each later
    phase of a lane at the wall the one before it hit.

    Returns (end_is_level, duration, n_switches, t_stop, y_stop); a
    one-phase call (every phases[i] == 1) returns them as _run_phases
    does.  A multi-phase call returns only end_is_level, that of a lane's
    last phase, and duration, the sum of its phases' durations, which is
    all _run_absorption reads, and None in the other three places: it
    keeps no parity sums, and n_switches, t_stop and y_stop of a chain of
    phases would mean nothing.  All lanes start together and reverse
    every round, so a lane's draws alternate direction with the round
    parity.  Each column of the array `lanes` is a lane: its position,
    the duration of its current phase and of the phases it has
    completed, its draws summed over even and over odd rounds (read as
    up or down totals when it retires; they stay 0 in a multi-phase
    call), and as int64 bits its index and, when any lane runs more than
    one phase, its phases left.  A bool row beside it says whether the
    lane heads up on even rounds.  A lane that stops with phases left is
    restarted in place at its wall, heading away from it.  _REVERSAL_CAP
    bounds the rounds of the whole call, restarts included.

    In the per-round path a restart is arithmetic on the lanes' rows: an
    all-ones bit mask over the stopped lanes moves their phase time from
    the current to the completed total and an up lane's position to the
    level, and takes one off their phases left, in place and exactly,
    so a lane's duration adds the same numbers in the same order as one
    phase at a time would.  A round heading down puts its stopped lanes
    at the origin with one np.maximum(pos, 0.0): a stopped lane is at
    pos - d <= 0 (+0.0 at equality under round-to-nearest, -inf after
    an infinite draw), a lane that did not stop at pos - d > 0, and a
    retired one at nan, which the maximum keeps.  A round heading up
    keeps the mask, since fl(pos + d) may fall short of h at a rounding
    tie.  (Masked ufuncs, np.add, np.copyto and np.subtract with where=,
    took 597 us against 53 us for a restart at 16384 lanes, and lose at
    256 lanes too; BENCH_19.json, masked_restart.)  Only a lane that has
    run its last phase is recorded; in a one-phase call its completed
    time is 0.0 until then, so its duration is read from its current
    one.  Its column stays, drawing nan, which never stops and leaves it
    at a nan position, until retired columns are more than 1/_DEAD_SHARE
    of the columns or a round block starts: the lanes are compacted only
    then, and never after a round in which lanes only restart.  When a
    round block starts and the live lanes fill at most 1/_SHRINK_SHARE
    of the columns, they move to arrays their own size, and no view of
    the old ones is kept.
    While all lanes head one way, a round's rate and wall are scalars
    and its draws stay unsigned: a live lane is at +0.0 <= pos <= h (a
    lane that does not stop moves by less than the rounded gap, which
    keeps it inside), so the gap is h - pos up and pos itself down, and
    x / -mu = -(x / mu) and pos + (-d) = pos - d exactly.  After a round
    block has set lanes heading both ways (below), rate and wall are
    read lane by lane, with signed draws, until a compaction finds the
    lanes agreeing again.

    When few lanes stop per round, a round costs more in numpy calls than
    in arithmetic, so the kernel draws a block of rounds for every live
    lane at once, sized from the rounds a lane has taken to its own stop
    so far.  Inside a block each lane stops at its own first wall contact
    and its draws after that are dropped; a lane with phases left waits
    for the next block.  A block keeps one running sum, the positions,
    since the wall test reads the position at every row.  The phase times
    and the parity totals are read only at each lane's stop row, so the
    lane's draws past it are set to 0 and the rows are summed straight
    down, the running values in the first row: adding 0.0 is exact, so
    every lane adds the same numbers in the same order as the
    round-by-round loop, and a lane's parity totals end at its stop row;
    a multi-phase call sums only the phase times.
    The block scratch is made when the first block starts, sized by that
    block, and made again only when a later block needs more.  When no lane
    runs through the whole block, the generator is put back to where the
    rounds up to the last stop leave it, so a single lane takes the draws
    of the round-by-round loop.  A lane restarted in a block heads away
    from its wall from the next round on, whatever that round's parity,
    so the lanes may then head both ways in one round.  (Testing a
    block's contacts one way at a time, down rows against 0 and up rows
    against h - start on half views, was measured on 2^14-lane calls at
    (5,5,20) and is slower.)

    Where the per-round path would run with at most _TAIL_LANES lanes
    live, _run_tail runs it in plain Python instead, since a narrow numpy
    round costs its calls' fixed overhead whatever its width.  It runs
    until no lane is left or a round block would start, then hands the
    lanes left back in arrays their own size.  It is stream-exact: each
    round it draws one exponential per live lane in column order, as the
    per-round path does, and does the same IEEE operations on each lane
    in the same order, with its rates as Python floats and its draws
    unsigned.  It reads the phases-left row only while lanes have
    restarts left, since compactions after that leave it stale.  So no
    output and no generator state depends on _TAIL_LANES.
    """
    # a Python float, so that the wall's bits are float64 ones
    h, lam, mu = float(p.effective_level), p.lam, p.mu
    gen = rng.gen
    n = phases.size
    restarts = int(phases.sum()) - n
    # only a one-phase call keeps the parity sums and records the
    # outputs made from them
    one = not restarts
    end_level = np.empty(n, dtype=bool)
    duration = np.empty(n)
    n_switches = t_stop = y_stop = None
    if one:
        n_switches = np.empty(n, dtype=np.int64)
        t_stop, y_stop = np.empty(n), np.empty(n)
    lanes = np.zeros((7 if restarts else 6, n))
    pos, cur, done, par, lane, left, pos_bits, cur_bits = _lane_rows(lanes)
    pos[:] = 0.0 if origin else h
    lane[:] = np.arange(n)
    if restarts:
        left[:] = phases
    up_even = np.full(n, origin)
    # whether the lanes head both ways, which only a round block's restarts
    # bring about; only then are rate and wall read lane by lane
    mixed = False
    # scratch rows of the per-round path: the draws, later the stop mask,
    # and the gaps, later the phase times moved; a compaction passes
    # columns through them too, so they hold one of every row at least
    scratch = np.empty((2, max(n, 4)))
    flags = np.empty(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    draw = None
    # the round blocks' scratch, made when the first block starts
    cells = None
    # columns, and retired columns among them
    k, dead = n, 0
    rounds = 0
    # stops and the lane-rounds spent reaching them, starting from one
    stops = lane_rounds = 1
    while (kl := k - dead):
        if rounds == _REVERSAL_CAP:
            raise ReversalCapExceeded(_REVERSAL_CAP)
        block = _block_rounds(lane_rounds, stops, kl)
        if block < _BLOCK_MIN and kl <= _TAIL_LANES:
            live = np.flatnonzero(alive[:k])
            lanes, up_even, (rounds, stops, lane_rounds, restarts) = _run_tail(
                origin, h, lam, mu, gen, lanes[:, live], up_even[live],
                (rounds, stops, lane_rounds, restarts),
                (end_level, duration, n_switches, t_stop, y_stop))
            # the per-round path's views of the old scratch rows go with them
            k, dead = lanes.shape[1], 0
            draw = gap = stop = hit = cut = alive_k = None
            pos, cur, done, par, lane, left, pos_bits, cur_bits = _lane_rows(lanes)
            scratch = np.empty((2, max(k, 4)))
            flags, alive = np.empty(k, dtype=bool), np.ones(k, dtype=bool)
            mixed = up_even.any() and not up_even.all()
            continue
        if dead and (block >= _BLOCK_MIN or dead * _DEAD_SHARE > k):
            # phases left matter only while lanes have restarts left
            keep = np.flatnonzero(alive[:k])
            depth = 7 if restarts else 6
            _compact(lanes[:depth], keep, scratch)
            np.take(up_even, keep, out=flags[:kl], mode="clip")
            up_even[:kl] = flags[:kl]
            k, dead = kl, 0
            if block >= _BLOCK_MIN and k * _SHRINK_SHARE <= lanes.shape[1]:
                # the old scratch rows, and the per-round path's views of
                # them, go before the lanes are copied to arrays their size
                scratch = draw = gap = stop = hit = cut = alive_k = None
                lanes, up_even = lanes[:depth, :k].copy(), up_even[:k].copy()
                flags, alive = np.empty(k, dtype=bool), np.ones(k, dtype=bool)
            else:
                up_even = up_even[:k]
                alive[:k] = True
            pos, cur, done, par, lane, left, pos_bits, cur_bits = _lane_rows(lanes[:, :k])
            if scratch is None:
                scratch = np.empty((2, max(k, 4)))
            mixed = mixed and up_even.min() != up_even.max()
        odd = rounds % 2
        if block < _BLOCK_MIN:
            if draw is None or draw.size != k:
                # the views of the scratch rows, made again when k changes
                draw, gap = scratch[:, :k]
                hit, cut = draw.view(np.int64), gap.view(np.int64)
                stop, alive_k = flags[:k], alive[:k]
            if dead:
                draw[alive_k] = gen.standard_exponential(out=gap[:kl])
            else:
                gen.standard_exponential(out=draw)
            # a round heading one way keeps its draws unsigned: a live
            # lane is at +0.0 <= pos <= h, so the gap is h - pos up and
            # pos down
            if mixed:
                up = up_even != odd
                wall = np.where(up, h, 0.0)
                draw /= np.where(up, lam, -mu)  # signed: + up, - down
                np.subtract(wall, pos, out=gap)
                np.abs(gap, out=gap)
                pos += draw
                np.abs(draw, out=draw)
            else:
                up = bool(up_even[0]) != odd
                wall = h if up else 0.0
                draw /= lam if up else mu
                if up:
                    np.subtract(h, pos, out=gap)
                    pos += draw
            down = not (mixed or up)
            np.greater_equal(draw, pos if down else gap, out=stop)
            if one:
                par[odd] += draw
            np.minimum(draw, pos if down else gap, out=gap)
            if down:
                pos -= draw
            cur += gap
            used, t = 1, rounds
            lane_rounds += kl
            hits = np.count_nonzero(stop)
            if not restarts:
                # every stopped lane retires; in a one-phase call its
                # completed time is 0.0, and 0.0 + x is x
                at = np.flatnonzero(stop)
                total = cur.take(at)
                if not one:
                    total += done.take(at)
            else:
                # an all-ones mask over the stopped lanes moves their phase
                # time from cur to done and an up lane's position to the
                # wall it hit; no value is multiplied, so infinities stay
                # exact.  A stopped down lane is at pos - d <= 0 (+0.0 at
                # equality, -inf after an infinite draw), a live one above
                # 0 and a retired one at nan, so the origin is a maximum
                np.negative(stop.view(np.int8), out=hit)
                np.bitwise_and(cur_bits, hit, out=cut)
                done += gap
                cur_bits ^= cut
                if down:
                    np.maximum(pos, 0.0, out=pos)
                else:
                    np.bitwise_xor(pos_bits, np.asarray(wall).view(np.int64), out=cut)
                    cut &= hit
                    pos_bits ^= cut
                left += hit
                at = np.flatnonzero(np.equal(left, 0, out=stop))
                restarts -= hits - at.size
                total = done.take(at)
            end_up = up.take(at) if mixed else up
            if one:
                same, other = par[odd].take(at), par[1 - odd].take(at)
        else:
            if cells is None or cells[2].size < block * k:
                # draws, positions, gaps and wall contacts of a block, in
                # cells; the draws and positions take two rows and one row
                # more.  They are sized by the block that needs them and
                # made again only when a later block needs more (k only
                # falls, so block * k cells suffice); the old cells, and
                # the last block's views of them, go first
                cells = rows = track = contact = draws = start = gaps = past = None
                cells = (np.empty((block + 2) * k), np.empty((block + 1) * k),
                         np.empty(block * k), np.empty(block * k, dtype=bool))
            # rows 0 and 1 of `rows` hold running values and row r + 2 the
            # draws of block row r; pair i of a (-1, 2, k) view holds block
            # rows 2i and 2i + 1, whose parities are those of rounds
            # `rounds` and `rounds` + 1
            rows = cells[0][:(block + 2) * k].reshape(block + 2, k)
            track = cells[1][:(block + 1) * k].reshape(block + 1, k)
            contact = cells[3][:block * k].reshape(block, k)
            saved = gen.bit_generator.state
            gen.standard_exponential(out=rows[2:])
            draws = rows[2:].reshape(-1, 2, k)
            # row r of track is the position at the start of block row r
            track[0] = pos
            start = track[:-1].reshape(-1, 2, k)
            up = up_even != odd
            going_up = np.stack((up, ~up))
            draws /= np.where(going_up, lam, mu)
            np.multiply(draws, np.where(going_up, 1.0, -1.0), out=track[1:].reshape(-1, 2, k))
            _running_sum(track)
            gaps = cells[2][:block * k].reshape(-1, 2, k)
            np.subtract(h, start, out=gaps)
            np.copyto(gaps, start, where=~going_up)
            np.greater_equal(draws, gaps, out=contact.reshape(-1, 2, k))
            first = contact.argmax(axis=0)
            at = np.flatnonzero(contact[first, np.arange(k)])
            t = first.take(at)
            lane_rounds += int(t.sum()) + at.size + (k - at.size) * block
            used = block
            if at.size == k:
                used = int(t.max()) + 1
                gen.bit_generator.state = saved
                gen.standard_exponential(used * k)
            if rounds + used > _REVERSAL_CAP:
                raise ReversalCapExceeded(_REVERSAL_CAP)
            # each lane's draws past its stop row become 0, then its parity
            # totals and, with its stop row's draw dropped too, its phase
            # time are summed straight down the rows, as the per-round path
            # sums them; the rows span whole pairs
            last = np.full(k, block)
            last[at] = t
            span = used + used % 2
            past = contact[:span]
            np.greater(np.arange(span)[:, None], last, out=past)
            np.copyto(rows[2:span + 2], 0.0, where=past)
            if one:
                rows[0], rows[1] = par[odd], par[1 - odd]
                tot = _row_sum(rows[:span + 2].reshape(-1, 2 * k)).reshape(2, k)
                par[odd], par[1 - odd] = tot
            rows[t + 2, at] = 0.0
            rows[1] = cur
            cur[:] = _row_sum(rows[1:used + 2])
            pos[:] = track[used]
            half = t % 2
            end_up = going_up[half, at]
            where = track[t, at]
            total = cur.take(at) + np.where(end_up, h - where, where)
            hits = at.size
            if one:
                same, other = tot[half, at], tot[1 - half, at]
                t = t + rounds
            else:
                done[at] += total
                # a lane with phases left heads away from its wall from
                # the next round on, whatever that round's parity
                if restarts:
                    left[at] -= 1
                    more = left.take(at) > 0
                    again, back = at[more], end_up[more]
                    pos[again] = h * back
                    cur[again] = 0.0
                    up_even[again] = back == bool((rounds + used) % 2)
                    mixed = up_even.min() != up_even.max()
                    restarts -= again.size
                    last = ~more
                    at, end_up = at[last], end_up[last]
                total = done.take(at)
        rounds += used
        if hits:
            stops += hits
            if stops > _HAZARD_STOPS:
                stops, lane_rounds = stops / 2, lane_rounds / 2
        if at.size:
            fin = lane.take(at)
            duration[fin] = total
            end_level[fin] = end_up
            if one:
                n_switches[fin] = t
                # the parity other than the last draw's holds the down
                # total on an upward hit and the up total on a downward
                # one; the dual clock of an origin-to-level crossing still
                # owes the level offset
                t_stop[fin] = other + h * end_up if origin else other
                y_stop[fin] = np.where(end_up, other, same)
            if restarts:
                left[at] = -1
            alive[at] = False
            dead += at.size
            if dead * _DEAD_SHARE <= k:
                # a retired column kept for the next round draws nan, which
                # never stops and puts it at a nan position for good
                scratch[0, at] = np.nan
    return end_level, duration, n_switches, t_stop, y_stop


def _run_phases(start: Boundary, p: ModelParams, rng: RandomSource, n: int):
    """Simulate n independent phases from one boundary, vectorized.

    Returns arrays (end_is_level, duration, n_switches, t_stop, y_stop):
    t_stop is the dual stopping time rebuilt from raw cumulative sums,
    y_stop the dual jump total at the stop, so duration and t_stop come
    from independent accumulations and identity checks stay meaningful.
    """
    return _run_lanes(start is Boundary.ORIGIN, np.ones(n, dtype=np.int64), p, rng)


def _run_absorption(p: ModelParams, s: SwitchingProb, rng: RandomSource, n: int,
                    max_phases: int = 10 ** 6):
    """Simulate n absorption paths from the origin, vectorized.

    Returns (m, total_time, absorbed_at_level).  Each path's phase count
    is drawn first, Geometric(alpha) as a Bernoulli(alpha) coin at every
    contact would give it, so a count past max_phases raises
    MaxPhasesExceeded before any phase is run.  One lane-kernel call
    then runs every path's phases back to back.
    """
    m = rng.gen.geometric(s.alpha, n)
    if m.max(initial=0) > max_phases:
        raise MaxPhasesExceeded(max_phases)
    end_level, total = _run_lanes(True, m, p, rng)[:2]
    return m, total, end_level
