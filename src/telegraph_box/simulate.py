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

# the default budget of phases per absorption path; a drawn phase count
# past it raises MaxPhasesExceeded before any phase is run
_MAX_PHASES = 10 ** 6

# |C - (2T +/- H)| must stay below this times max(1, C)
_DUAL_TOL = 1e-9

# the lane kernel's special cases; README.md, "How the lane kernel works",
# gives the measurements behind each value.  A round block spans about
# twice the rounds a lane takes to its own stop, capped in rounds and in
# draws, and is not worth its fixed cost below _BLOCK_MIN rounds; the
# rounds-per-stop figure halves its counts past _HAZARD_STOPS stops.
_BLOCK_MIN = 8
_BLOCK_ROUNDS = 1024
_BLOCK_CELLS = 2 ** 15
_HAZARD_STOPS = 64

# a block's running sum adds one row at a time from this many lanes on;
# below it, np.cumsum is cheaper (BENCH_17.json, running_sum)
_ROW_ADD_WIDTH = 512

# retired lanes keep their columns until they are more than 1/_DEAD_SHARE
# of them, since a compaction copies every column; before a block, lanes
# that fill at most 1/_SHRINK_SHARE of the columns move to arrays their
# own size, so that the old arrays do not stay beside the block scratch
_DEAD_SHARE = 8
_SHRINK_SHARE = 4

# numpy rounds run in plain Python once at most this many lanes are live:
# a narrow numpy round costs 15-47 us, almost all of it call overhead, a
# Python one about 0.5-0.7 us a lane (BENCH_18.json and BENCH_19.json,
# tail_width)
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
                              max_phases: int = _MAX_PHASES) -> PathRecord:
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
# array engine: one _Lanes state per kernel call, three steps and one
# retire step; README.md, "How the lane kernel works", gives the design
# and the measurements behind its special cases


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


class _Lanes:
    """One _run_lanes call: its lanes, the first k columns of `lanes`,
    `dead` of them retired, with views of their rows and of the scratch
    rows, its counters and its outputs (README.md, "How the lane kernel
    works")."""

    def __init__(self, origin, phases, p, rng, dual):
        n = phases.size
        # a Python float, so that arithmetic on it is float64 arithmetic
        self.h, self.lam, self.mu, self.gen = float(p.effective_level), p.lam, p.mu, rng.gen
        # the int64 bits of the level, which a restart at the level copies
        self.level = np.asarray(self.h).view(np.int64)
        # only a one-phase call records reversal counts, and only a dual one
        # keeps the parity sums that the dual clocks are made from
        self.origin, self.one = origin, int(phases.sum()) == n
        self.dual = dual and self.one
        self.out = (np.empty(n, dtype=bool), np.empty(n),
                    np.empty(n, dtype=np.int64) if self.one else None,
                    *((np.empty(n), np.empty(n)) if self.dual else (None, None)))
        # stops and the lane-rounds spent reaching them, starting from one
        self.rounds, self.stops, self.lane_rounds = 0, 1, 1
        # whether lanes head both ways, which only a block's restarts cause
        self.mixed = False
        self.scratch = self.cells = None
        # the rows are fixed for the whole call: 3 in a one-phase call
        # without dual clocks, 5 in any other
        self.lanes = np.zeros((3 if self.one and not self.dual else 5, n))
        self.lanes[0] = 0.0 if origin else self.h
        bits = self.lanes.view(np.int64)
        bits[2] = np.arange(n)
        if not self.one:
            bits[4] = phases
        self.up_even = np.full(n, origin)
        self._fit(n)

    def _fit(self, k, own=True):
        """Narrow the call to its first k columns, all live, moved to arrays
        their own size if `own`, and make the views of their rows again."""
        self.k, self.dead, self.work = k, 0, None
        if own:
            # the old scratch rows, and the views of them, go first
            self.scratch = None
            if k < self.lanes.shape[1]:
                self.lanes, self.up_even = self.lanes[:, :k].copy(), self.up_even[:k].copy()
            self.flags, self.alive = np.empty(k, dtype=bool), np.ones(k, dtype=bool)
        else:
            self.alive[:k] = True
        lanes = self.lanes[:, :k]
        bits, many = lanes.view(np.int64), not self.one
        self.rows = (lanes[0], lanes[1], lanes[3] if many else None,
                     lanes[3:5] if self.dual else None, bits[2],
                     bits[4] if many else None, bits[0], bits[1])
        self.up_even = up = self.up_even[:k]
        self.mixed = self.mixed and up.any() and not up.all()
        if self.scratch is None:
            # the numpy rounds' draws, later the stop mask, and gaps, later
            # the phase times moved; a compaction passes columns through
            # them too, so they hold one of every row at least
            self.scratch = np.empty((2, max(k, 4)))

    def compact(self, block):
        """Move the live columns to the front, as many at a time as the
        scratch rows hold; before a block, to arrays their own size if they
        fill at most 1/_SHRINK_SHARE of the columns (README, "Compaction
        and shrinking")."""
        kl, moved = self.k - self.dead, self.lanes
        keep = np.flatnonzero(self.alive[:self.k])
        width = self.scratch.size // len(moved)
        for lo in range(0, kl, width):
            cols = keep[lo:lo + width]
            spare = self.scratch.reshape(-1)[:len(moved) * cols.size].reshape(len(moved), -1)
            np.take(moved, cols, axis=1, out=spare, mode="clip")
            moved[:, lo:lo + cols.size] = spare
        np.take(self.up_even, keep, out=self.flags[:kl], mode="clip")
        self.up_even[:kl] = self.flags[:kl]
        self._fit(kl, block and kl * _SHRINK_SHARE <= self.lanes.shape[1])

    def size(self, live):
        """The rounds of a block for `live` lanes, after the round cap check."""
        if self.rounds == _REVERSAL_CAP:
            raise ReversalCapExceeded(_REVERSAL_CAP)
        return min(int(2 * self.lane_rounds / self.stops), _BLOCK_ROUNDS,
                   _BLOCK_CELLS // live) // 2 * 2

    def round(self):
        """One numpy round on the first k columns (README, "The numpy round").
        A retired column draws nan, which never stops; while the lanes head
        one way, a live lane is in [+0.0, h], so the draws stay unsigned; a
        down step is clipped at the origin, and any other restart is a bit
        mask, which multiplies nothing, so infinities stay exact."""
        if self.dead * _DEAD_SHARE > self.k:
            self.compact(False)
        pos, cur, done, par, _, left, pos_bits, cur_bits = self.rows
        k, dead, rounds, h, mixed = self.k, self.dead, self.rounds, self.h, self.mixed
        if self.work is None:
            # views of the scratch rows, made at the first round at width k
            draw, gap = self.scratch[0, :k], self.scratch[1, :k]
            self.work = (draw, gap, draw.view(np.int64), gap.view(np.int64),
                         self.flags[:k], self.alive[:k])
        draw, gap, hit, cut, stop, alive = self.work
        odd = rounds % 2
        if dead:
            draw[alive] = self.gen.standard_exponential(out=gap[:k - dead])
        else:
            self.gen.standard_exponential(out=draw)
        if mixed:
            up = self.up_even != odd
            wall = np.where(up, h, 0.0)
            draw /= np.where(up, self.lam, -self.mu)  # signed: + up, - down
            np.subtract(wall, pos, out=gap)
            wall = wall.view(np.int64)
            np.abs(gap, out=gap)
            pos += draw
            np.abs(draw, out=draw)
        else:
            up = bool(self.up_even[0]) != odd
            wall = self.level
            draw /= self.lam if up else self.mu
            if up:
                np.subtract(h, pos, out=gap)
                pos += draw
        # heading down, the gap is pos itself, and a lane moves by its step
        # min(draw, pos): one that stops is at pos - pos = +0.0, the origin
        down = not (mixed or up)
        np.greater_equal(draw, pos if down else gap, out=stop)
        if par is not None:
            par[odd] += draw
        np.minimum(draw, pos if down else gap, out=gap)
        if down:
            pos -= gap
        cur += gap
        hits = np.count_nonzero(stop)
        if self.one:
            # every stopped lane retires; a one-phase call keeps no
            # completed time, since it would be 0.0, and 0.0 + x is x
            at = np.flatnonzero(stop)
            total = cur.take(at)
        else:
            # the mask moves the stopped lanes' phase time from cur to done
            # and, unless they are at the origin already, their position to
            # the wall they hit
            np.negative(stop.view(np.int8), out=hit)
            np.bitwise_and(cur_bits, hit, out=cut)
            done += gap
            cur_bits ^= cut
            if not down:
                np.bitwise_xor(pos_bits, wall, out=cut)
                cut &= hit
                pos_bits ^= cut
            left += hit
            at = np.flatnonzero(np.equal(left, 0, out=stop))
            total = done.take(at)
        same = other = None
        if par is not None:
            same, other = par[odd].take(at), par[1 - odd].take(at)
        self.retire(1, k - dead, hits, at, total, up.take(at) if mixed else up, rounds, same, other)

    def block(self, block):
        """`block` rounds of every lane from one draw call, each lane up to
        its first wall contact (README, "The round block").  Its draws past
        that row become 0 and the rows are summed straight down: adding 0.0
        is exact, so each lane adds the numbers of round after round."""
        if self.dead:
            self.compact(True)
        pos, cur, done, par, _, left = self.rows[:6]
        k, rounds, h, gen, up_even = self.k, self.rounds, self.h, self.gen, self.up_even
        odd = rounds % 2
        if self.cells is None or self.cells[2].size < block * k:
            # draws, positions and wall contacts, sized by the block that
            # needs them (k only falls); the old cells go first
            self.cells = None
            self.cells = (np.empty((block + 2) * k), np.empty((block + 1) * k),
                          np.empty(block * k, dtype=bool))
        # rows 0 and 1 of `rows` hold running values and row r + 2 the draws
        # of block row r; pair i of a (-1, 2, k) view holds block rows 2i
        # and 2i + 1, whose parities are those of rounds `rounds` and
        # `rounds` + 1
        rows = self.cells[0][:(block + 2) * k].reshape(block + 2, k)
        track = self.cells[1][:(block + 1) * k].reshape(block + 1, k)
        contact = self.cells[2][:block * k].reshape(block, k)
        saved = gen.bit_generator.state
        gen.standard_exponential(out=rows[2:])
        draws = rows[2:].reshape(-1, 2, k)
        # row r of track is the position at the start of block row r
        track[0] = pos
        start = track[:-1].reshape(-1, 2, k)
        up = up_even != odd
        going_up = np.stack((up, ~up))
        # the signed steps, + up and - down, and the draws their sizes
        steps = track[1:].reshape(-1, 2, k)
        np.divide(draws, np.where(going_up, self.lam, -self.mu), out=steps)
        np.abs(steps, out=draws)
        _running_sum(track)
        # the rows below the last become the gaps to the wall ahead,
        # |wall - pos|: h - pos up and pos down up to a lane's first
        # contact, where it is inside the box
        np.subtract(np.where(going_up, h, 0.0), start, out=start)
        np.abs(start, out=start)
        np.greater_equal(draws, start, out=contact.reshape(-1, 2, k))
        at = np.flatnonzero(np.logical_or.reduce(contact, axis=0))
        t = contact[:, at].argmax(axis=0)
        used = block
        if at.size == k:
            # no lane ran through the block: put the generator back to
            # where the rounds used leave it
            used = int(t.max()) + 1
            gen.bit_generator.state = saved
            gen.standard_exponential(used * k)
        if rounds + used > _REVERSAL_CAP:
            raise ReversalCapExceeded(_REVERSAL_CAP)
        # a lane that did not stop ran the whole block; a stopped one is
        # put at its wall when it restarts and is not read otherwise.  The
        # positions are read here, since `track` holds the mask below
        pos[:] = track[block]
        reach = track[t, at]
        # the stop rows are int16, which holds _BLOCK_ROUNDS and compares
        # fastest; the rows summed span whole pairs.  The draws past each
        # stop are and-ed with 0, the others with all ones: 0.0 and the
        # draw itself, bit for bit
        last = np.full(k, block, dtype=np.int16)
        last[at] = t
        span = used + used % 2
        past = contact[:span]
        np.greater(np.arange(span, dtype=np.int16)[:, None], last, out=past)
        keep = track[:span].view(np.int64)
        np.add(past.view(np.int8), -1, out=keep)
        kept = rows[2:span + 2].view(np.int64)
        kept &= keep
        half, same, other = t % 2, None, None
        if par is not None:
            rows[0], rows[1] = par[odd], par[1 - odd]
            tot = _row_sum(rows[:span + 2].reshape(-1, 2 * k)).reshape(2, k)
            par[odd], par[1 - odd] = tot
            same, other = tot[half, at], tot[1 - half, at]
        # the phase time leaves out the stop row's draw and adds the gap
        rows[t + 2, at] = 0.0
        rows[1] = cur
        cur[:] = _row_sum(rows[1:used + 2])
        end_up = going_up[half, at]
        total = cur.take(at) + reach
        hits, lane_rounds = at.size, int(t.sum()) + at.size + (k - at.size) * block
        if not self.one:
            done[at] += total
            # a lane with phases left heads away from its wall from the
            # next round on, whatever that round's parity
            left[at] -= 1
            more = left.take(at) > 0
            again, back = at[more], end_up[more]
            pos[again] = h * back
            cur[again] = 0.0
            up_even[again] = back == bool((rounds + used) % 2)
            self.mixed = up_even.min() != up_even.max()
            at, end_up = at[~more], end_up[~more]
            total = done.take(at)
        self.retire(used, lane_rounds, hits, at, total, end_up, t + rounds, same, other)

    def tail(self):
        """Numpy rounds in plain Python, lane by lane, until no lane is left
        or a block would start (README, "The Python tail"): the same draws
        in the same order, and a Python float goes through the IEEE
        operations of a float64 one."""
        one, dual, h, gen = self.one, self.dual, self.h, self.gen
        cols = np.flatnonzero(self.alive[:self.k])
        lanes, k = self.lanes[:, cols], cols.size
        bits = lanes.view(np.int64)
        # rows the call does not keep start at 0.0 here, and phases left at 1
        done, left = ([0.0] * k, [1] * k) if one else (lanes[3].tolist(), bits[4].tolist())
        par = lanes[3:5].tolist() if dual else ([0.0] * k,) * 2
        # per lane: position, current and completed phase time, even and odd
        # draw totals, phases left, index and heading on even rounds
        live = [list(s) for s in zip(*lanes[:2].tolist(), done, *par, left,
                                      bits[2].tolist(), self.up_even[cols].tolist())]
        # Python floats, since x / np.float32 stays float32
        lam, mu = float(self.lam), float(self.mu)
        # the lanes that ran their last phase, recorded together at the end
        finished = []
        while live and self.size(len(live)) < _BLOCK_MIN:
            rounds = self.rounds
            odd = rounds % 2
            same, other = 3 + odd, 4 - odd
            hits, before = 0, len(finished)
            # min(x, gap) is x below the gap and the gap at a stop, and a
            # stop adds the phase time to the completed time, then restarts
            # the lane at its wall or records it
            for s, x in zip(live, gen.standard_exponential(len(live)).tolist()):
                up = s[7] != odd
                if up:
                    x /= lam
                    gap = h - s[0]
                    s[0] += x
                else:
                    x /= mu
                    gap = s[0]
                    s[0] -= x
                if dual:
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
                    finished.append((s[6], s[2], up, rounds, s[same], s[other]))
            self._tally(1, len(live), hits)
            if len(finished) > before:
                live = [s for s in live if s[5]]
        if finished:
            self._record(*map(np.array, zip(*finished)))
        # the lanes left go to the front columns, then to arrays their size
        k = len(live)
        if live:
            cols = list(zip(*live))
            front = self.lanes[:, :k]
            bits = front.view(np.int64)
            front[:2], bits[2] = cols[:2], cols[6]
            if dual:
                front[3:5] = cols[3:5]
            elif not one:
                front[3], bits[4] = cols[2], cols[5]
            self.up_even[:k] = cols[7]
        self._fit(k)

    def _tally(self, used, lane_rounds, hits):
        """Count rounds, lane-rounds and stops; the counts that size blocks
        halve once they hold more than _HAZARD_STOPS stops."""
        self.rounds += used
        self.lane_rounds += lane_rounds
        if hits:
            self.stops += hits
            if self.stops > _HAZARD_STOPS:
                self.stops /= 2
                self.lane_rounds /= 2

    def _record(self, fin, total, end_up, t, same, other):
        """Write the outputs of lanes `fin`, stopped in round t; `same` is
        the parity total of their last draw, `other` the other one."""
        end_level, duration, n_switches, t_stop, y_stop = self.out
        duration[fin] = total
        end_level[fin] = end_up
        if n_switches is not None:
            n_switches[fin] = t
        if t_stop is not None:
            # `other` is the down total on an upward hit and the up total on
            # a downward one; an origin-to-level crossing owes the level
            t_stop[fin] = other + self.h * end_up if self.origin else other
            y_stop[fin] = np.where(end_up, other, same)

    def retire(self, used, lane_rounds, hits, at, total, end_up, t, same, other):
        """Count a step's rounds and stops, record the lanes in columns `at`,
        which ran their last phase, and retire their columns (README, "The
        retire step")."""
        self._tally(used, lane_rounds, hits)
        if at.size:
            self._record(self.rows[4].take(at), total, end_up, t, same, other)
            if not self.one:
                # -1 phases left: the count-down in round never reaches 0
                self.rows[5][at] = -1
            self.alive[at] = False
            self.dead += at.size
            if self.dead * _DEAD_SHARE <= self.k:
                self.scratch[0, at] = np.nan


def _run_lanes(origin: bool, phases: np.ndarray, p: ModelParams, rng: RandomSource,
               dual: bool = True):
    """Run phases[i] >= 1 phases in a row on lane i from the origin if
    `origin`, else from the level, each later phase at the wall the one
    before it hit.  Returns (end_is_level, duration, n_switches, t_stop,
    y_stop), None where a call keeps no such output: only a one-phase
    call keeps n_switches, and only one with `dual` t_stop and y_stop; a
    multi-phase call's duration sums its phases."""
    lanes = _Lanes(origin, phases, p, rng, dual)
    while live := lanes.k - lanes.dead:
        block = lanes.size(live)
        if block >= _BLOCK_MIN:
            lanes.block(block)
        elif live <= _TAIL_LANES:
            lanes.tail()
        else:
            lanes.round()
    return lanes.out


def _run_phases(start: Boundary, p: ModelParams, rng: RandomSource, n: int,
                dual: bool = True):
    """Simulate n independent phases from one boundary, vectorized.

    Returns arrays (end_is_level, duration, n_switches, t_stop, y_stop):
    t_stop is the dual stopping time rebuilt from raw cumulative sums,
    y_stop the dual jump total at the stop, so duration and t_stop come
    from independent accumulations and identity checks stay meaningful.
    With `dual` off the call sums no up and down totals and returns None
    for t_stop and y_stop; the other three arrays, and the draws taken,
    are the same bit for bit.
    """
    return _run_lanes(start is Boundary.ORIGIN, np.ones(n, dtype=np.int64), p, rng, dual)


def _run_absorption(p: ModelParams, s: SwitchingProb, rng: RandomSource, n: int,
                    max_phases: int = _MAX_PHASES):
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
    end_level, total = _run_lanes(True, m, p, rng, dual=False)[:2]
    return m, total, end_level
