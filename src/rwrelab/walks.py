"""Quenched walk engine: vectorized replica ensembles.

One stepping core (``_walk``) moves an ensemble's replica lanes over biased
site tables (``_Tables``: one field in discrete time, two in continuous
time); it owns range-cap freezing, the window sweep every
``_CHECK_EVERY`` steps, the window that follows the lanes, and result
assembly.  Two step rules plug into it: one uniform per step
(``_DiscreteLanes``), or an exponential holding time and a direction uniform
per jump (``_ContinuousLanes``).  Both add up each lane's compensator: the
drift at every site it leaves, times the time it holds there (one step, or
the holding time cut at the horizon).  Asked for it, the discrete rule also
adds up the predictable quadratic variation of the position minus the
compensator, 4 omega+ omega- at every site it leaves, for the diffusivity's
split estimate; other ensembles step without it.  Ensembles step per-replica
environments (annealed) or one shared environment (quenched).  Every
uniform is counter-addressed by (root seed, stream, replica block, step),
one ``RowStreams`` row per replica block (``BlockUniforms``), so results are
independent of the window's moves and of worker count, and any replica can
be replayed from its streams alone.

Lanes step one block at a time (``_Lanes``), and ``_walk`` alone sets the
blocks: the first is ``_FIRST_BLOCK`` steps, and each later one ends at the
next sweep, at step 2 k + ``_FIRST_BLOCK`` after k steps, or at the jump
budget.  So a run that stops early draws few uniforms, and every block
after the first sweep is one sweep.  A block reads each stream's uniforms
in one call (``BlockUniforms.rows``).  Discrete lanes step in place; a
continuous step writes the lanes' table indices to a row of the block's
buffer, and after the block each lane's stop (horizon, target) is resolved
from the rows.  Each block checks that no lane left its own row of the
tables.  A continuous step runs only the jump chain; holding times, clocks
and the compensator sums are settled once per block, adding in the order of
one add per jump, so the results are those of stepping one jump at a time.

A table build takes blocks of rows from one source of the model's fields
(``field_source``), the entry point that serves every model, held for the
ensemble's lifetime; a build after a move copies the sites the old window
holds and draws only the new ones.  A shared environment is read the same
way, from the source of its realization's model, seed and replica, as one
row of the tables that every lane reads; the engine never reads the
realization itself.  A finite-support law's table holds one
uint8 code per site, and each build a small lookup table (LUT) of the biased
fields per code, made by the same elementwise formulas, so a step gathers
the code and then the field(s) from the LUT, bit for bit the values a
float64 table would hold.  Other laws keep float64 tables, read through the
same step rules with a LUT of None.

The window starts small and slides with the lanes, so table memory follows
their spread plus ``_SLIDE``, not the run's length.  A walker that comes
within ``_CHECK_EVERY`` sites of the range cap is aborted with a distinct
signal, never silently truncated.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .environments import (DiscreteEnv, RateEnv, bias_omega, bias_rates,
                           field_source)
from .rng import BlockExponentials, BlockUniforms

DEFAULT_RANGE_CAP = 10**7

_CHECK_EVERY = 64   # steps between bound/abort sweeps (also the safety margin)
_FIRST_BLOCK = 16   # steps of a walk's first block; a block from k ends by 2k + 16
_SLIDE = 8192       # most sites a window extends past its lead lane
_EPS = float(np.finfo(float).eps)


@dataclass
class EnsembleResult:
    """Final states of a replica ensemble."""

    final_positions: np.ndarray
    aborted: np.ndarray
    replicas: int
    elapsed: float
    values: np.ndarray | None = None   # continuous: first-passage times etc.
    # per lane not aborted, the compensator D of its final position: the sum
    # over the sites it left of the drift there times the time it held there,
    # D_n = sum_{k<n} (2 omega+_lam(X_k) - 1) in discrete time and
    # D_t = sum_k (r+ - r-)_lam(Y_{T_k}) (min(T_{k+1}, t) - T_k) in continuous
    # time; None for target runs.  X - D is a mean-zero martingale.
    compensator: np.ndarray | None = None
    # a bound on the rounding error of every lane's compensator
    compensator_rounding: float = 0.0
    # per lane not aborted, when asked for (discrete time only), the
    # predictable quadratic variation of X - D, Q_n = sum_{k<n} 4 omega+
    # omega-_lam(X_k) = 4 (psum - p2sum), p2sum the sum of omega+^2; its
    # rounding is within 4 compensator_rounding.  E[(X_n - D_n)^2] = E[Q_n].
    variation: np.ndarray | None = None


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------

@dataclass
class _Tables:
    """Biased site tables of the replicas in rows over one window [lo, hi].

    The fields are omega+(lam) in discrete time, and the total rate and
    p+ = r+/(r- + r+) at lam in continuous time.  Row k is the environment
    of replica rows[k], from one source of the model's fields held for the
    ensemble's lifetime.  A shared environment (shared_env, a DiscreteEnv
    in discrete time and a RateEnv in continuous time) is read the same way,
    from the source of its own model, seed and replica: the tables then have
    one row, which every lane reads, and the realization itself is not
    read.  A finite-support law's table holds one uint8 code per
    site, and each build a lookup table (LUT) of the fields per code, made
    by the same formulas from the law's per-code values, so lut[codes] is
    the fields bit for bit.  Other laws (``uniform:`` ones, those with more
    than 256 codes) keep the fields per site, and a LUT of None.
    """

    model: object
    seed: int
    shared_env: object
    lam: float
    rates: bool
    rows: range

    def __post_init__(self):
        env, model, seed, rows = self.shared_env, self.model, self.seed, self.rows
        if env is not None:
            kind = RateEnv if self.rates else DiscreteEnv
            if not isinstance(env, kind):
                raise ValueError(f"shared_env must be a {kind.__name__}, "
                                 f"not {type(env).__name__}")
            model, seed, rows = env.model, env.seed, range(env.replica, env.replica + 1)
        self._source = field_source(model, seed, rows, self.rates)
        self._height = len(rows)

    @property
    def fields(self) -> int:
        return 2 if self.rates else 1

    def _biased(self, sites) -> tuple:
        if self.rates:
            bm, bp = bias_rates(*sites, self.lam)
            total = bm + bp
            return total, bp / total
        return bias_omega(*sites, self.lam)[1:]

    def build(self, lo: int, hi: int, old=None):
        """(table, lut, offsets): the window's flat per-site arrays (the
        codes, or the fields if lut is None), the fields per code, and the
        offset of each lane's row in the table.

        old, the (table, lo, hi) of an earlier build, lends the sites it
        holds; only the others are drawn."""
        m = self._height
        values, blocks = self._source
        lut = None if values is None else self._biased(values)
        width = hi - lo + 1
        table = ([np.empty((m, width), dtype=np.uint8)] if lut is not None
                 else [np.empty((m, width)) for _ in range(self.fields)])
        parts = [(lo, hi)]
        if old is not None:
            held, olo, ohi = old
            a, b = max(lo, olo), min(hi, ohi)
            if a <= b:
                for f, flat in zip(table, held):
                    f[:, a - lo:b - lo + 1] = flat.reshape(m, -1)[:, a - olo:b - olo + 1]
                parts = [(lo, a - 1), (b + 1, hi)]
        for plo, phi in parts:
            if plo > phi:
                continue
            for blk, sites in blocks(plo, phi):
                for f, v in zip(table, sites if lut is not None else self._biased(sites)):
                    f[blk, plo - lo:phi - lo + 1] = v
        # lane k reads row k, or the one row of a shared environment
        offsets = np.arange(len(self.rows), dtype=np.int64) % m * width
        return [f.ravel() for f in table], lut, offsets


_STEP = np.array([-1, 1])   # a lane's move, by whether it steps right


def _column_sums(stack: np.ndarray) -> np.ndarray:
    """Each column's sum, added down the rows in order as one add per row
    would.  add.reduce adds a 2-D array's rows in order, one row at a time,
    but a lone column pairwise; cumsum adds in order, but column by column,
    several times slower on many columns."""
    if stack.shape[1] > 1:
        return np.add.reduce(stack, axis=0)
    return np.add.accumulate(stack, axis=0)[-1]


class _Lanes:
    """Replica lanes stepped one block at a time: what both rules share.

    A lane is held as its flat index into the site tables (position = index
    - the offset of its row + lo).  A block runs the steps from k0 to k1, as
    ``_walk`` sets them; lanes stopped before the block do not move.  `end`
    is where a rule's run ends: a step count, a horizon, or None for a run
    to a target.

    Once per block every lane at every step must have stayed inside its own
    row of the tables, or the block raises (``_check``); that is stronger
    than mode="raise", which sees only the ends of the flat table.
    """

    steps = math.inf

    def __init__(self, rows: range):
        m = len(rows)
        self.active = np.ones(m, dtype=bool)
        self.all_moving = True
        self._bbuf = np.empty(m, dtype=bool)

    def stop(self, lanes: np.ndarray) -> None:
        if lanes.any():
            self.active &= ~lanes
            self.all_moving = False

    def rebase(self, table, lut, offsets, lo, hi, pos) -> None:
        self.codes, self.fields = (None, table) if lut is None else (table[0], lut)
        self.offsets, self.lo, self.span = offsets, lo, hi - lo
        self.gidx = offsets - lo + pos

    def positions(self) -> np.ndarray:
        return self.gidx - self.offsets + self.lo

    def _check(self, rows: np.ndarray) -> None:
        """Raise unless each lane's indices in rows are within its own row of
        the tables."""
        if ((rows.min(axis=0) < self.offsets).any()
                or (rows.max(axis=0) > self.offsets + self.span).any()):
            raise IndexError("a lane left its row of the site tables")


class _DiscreteLanes(_Lanes):
    """Discrete-time step rule: one uniform per step, right iff it is <=
    omega+(lam) at the lane's site, for a fixed number of steps.  A step
    reads omega+(lam) through the table's code if it has a LUT; psum adds
    up, per lane, the omega+(lam) of every site it steps from, and with
    `variation` p2sum their squares (two more array operations per step,
    so only where asked for).  The lanes step in place, gathering with
    mode="raise", so an ensemble of many lanes holds one row of them, not a
    block; the block checks their rows at its end."""

    def __init__(self, seed, rows: range, steps: int, variation: bool = False):
        super().__init__(rows)
        m = len(rows)
        self.steps = self.end = steps
        self.uni = BlockUniforms(seed, ("walk",), rows.start, m)
        self.sbuf = np.empty(m, dtype=np.int64)
        self.psum = np.zeros(m)
        self.p2sum = np.zeros(m) if variation else None
        self._p2 = np.empty(m) if variation else None

    def running(self, k: int) -> bool:
        return k < self.steps and (self.all_moving or bool(self.active.any()))

    def clock(self, k: int) -> np.ndarray:
        return np.full(len(self.gidx), float(k))

    def outputs(self) -> dict:
        """The compensator D_n = 2 psum - n per lane, and the bound 2 n^2 eps
        on the rounding of a sum of n values <= 1 (it holds for lanes that
        ran all n steps).  If p2sum was kept, the quadratic variation
        Q_n = 4 (psum - p2sum) per lane: its rounding, n^2 eps / 2 in each
        sum and n eps / 2 in the squares and the difference, times 4, is
        within 4 (n^2 + n) eps <= 4 times the compensator's bound."""
        n = self.steps
        return {"compensator": 2.0 * self.psum - n,
                "compensator_rounding": 2.0 * n * n * _EPS,
                "variation": (None if self.p2sum is None
                              else 4.0 * (self.psum - self.p2sum))}

    def block(self, k0: int, k1: int) -> int:
        U = self.uni.rows(k0, k1)
        gidx, bbuf, (wplus,) = self.gidx, self._bbuf, self.fields
        p2sum, p2 = self.p2sum, self._p2
        for u in U:
            # take() without out=: with out= and mode="raise" NumPy buffers
            p = wplus.take(gidx if self.codes is None else self.codes.take(gidx))
            np.less_equal(u, p, out=bbuf)
            if self.all_moving:
                self.psum += p
                if p2sum is not None:
                    np.multiply(p, p, out=p2)
                    p2sum += p2
                np.add(gidx, bbuf, out=gidx, casting="unsafe")
                np.add(gidx, bbuf, out=gidx, casting="unsafe")
                gidx -= 1
            else:
                np.add(self.psum, p, out=self.psum, where=self.active)
                if p2sum is not None:
                    np.multiply(p, p, out=p2)
                    np.add(p2sum, p2, out=p2sum, where=self.active)
                np.subtract(bbuf.astype(np.int64) * 2, 1, out=self.sbuf)
                self.sbuf *= self.active
                np.add(gidx, self.sbuf, out=gidx)
        self._check(gidx[None])
        return len(U)


class _ContinuousLanes(_Lanes):
    """Continuous-time step rule: an Exp(total rate) holding time E/rate, E
    an Exp(1) draw, then right iff the direction uniform is <= p+ at the
    lane's site.  A lane stops at its first jump time beyond the horizon
    (never if the horizon is None), or on reaching the target, if any;
    `values` holds the arrival times.

    A block writes the lanes' table indices to the rows of G: row 0 holds
    the lanes at its start, row j their indices after j steps.  A step of a
    block runs only the jump chain: a code gather, a p+ gather (both
    clipped, so the block checks its rows), a compare against the direction
    uniform and the move.  Once per block, from its rows: the holding times
    E/total, each lane's clock and final row, and the sums below.  A lane's
    final row is the first that reaches the target (a target run stops
    stepping once every lane has), or the last before its first jump past
    the horizon; the lane takes the state of that row, and stops unless it
    is the block's last and no target was reached.  Rows past a lane's
    final one are zeroed, and sums down the rows (``_column_sums``) add in
    the order of one add per jump, so every value is that of stepping one
    jump at a time.

    With a horizon, e_sum and pe_sum add up, per lane, E and p+ E over the
    holding times that end within it: each adds (r+ - r-) E/(r- + r+) =
    (2 p+ - 1) E to the compensator, so the site tables need no drift field.
    `seen` holds the last step k = 0 mod _CHECK_EVERY that each lane ended
    within the horizon, so it made at most seen + _CHECK_EVERY jumps.
    """

    def __init__(self, seed, rows: range, horizon: float | None,
                 target: int | None):
        super().__init__(rows)
        m = len(rows)
        self.horizon = self.end = horizon
        self.target = target
        self.values = None if target is None else np.full(m, np.nan)
        self.u_hold = BlockExponentials(seed, ("hold",), rows.start, m)
        self.u_dir = BlockUniforms(seed, ("dir",), rows.start, m)
        self.t = np.zeros(m)
        # written row by row, so a block touches only the rows it uses; its
        # row views are made once, as indexing per step costs more
        self.G = np.empty((_CHECK_EVERY + 1, m), dtype=np.int64)
        self.P = np.empty((_CHECK_EVERY, m))       # p+ at each step's site
        # row 0 the lanes' clocks, row j + 1 the holding time of step j
        self.times = np.empty((_CHECK_EVERY + 1, m))
        self.C = np.empty((_CHECK_EVERY, m), dtype=np.uint8)   # codes
        self._rows = list(self.G), list(self.P), list(self.C)
        self.final = np.zeros(m, dtype=np.int64)
        self._lanes = np.arange(m)
        self._pending = None
        if horizon is not None:
            self.e_sum = np.zeros(m)
            self.pe_sum = np.zeros(m)
            self.seen = np.zeros(m)
            self._sums = np.empty((_CHECK_EVERY + 1, m))

    def running(self, k: int) -> bool:
        return np.count_nonzero(self.active) > 0   # a third of any()'s cost

    def rebase(self, table, lut, offsets, lo, hi, pos) -> None:
        super().rebase(table, lut, offsets, lo, hi, pos)
        self.total, self.wplus = self.fields
        if self.target is not None:
            self.goal = offsets - lo + self.target

    def clock(self, k: int) -> np.ndarray:
        return self.t

    def outputs(self) -> dict:
        """A target run's arrival times, as `values`.  Otherwise D_t per
        lane: the complete holding times' 2 pe_sum - e_sum, plus the last
        one cut at the horizon, (r+ - r-)(Y_t) (t - T_N).  The bound
        (N + 8) eps (2 e_sum + rate(Y_t) t), N a lane's jump count, covers
        the rounding of both sums and of T_N, and of the tables' p+; with
        N <= seen + _CHECK_EVERY it does not depend on how the replicas are
        split across workers."""
        if self.target is not None:
            return {"values": self.values}
        idx = self.gidx if self.codes is None else self.codes.take(self.gidx)
        total = self.total.take(idx)
        drift = total * (2.0 * self.wplus.take(idx) - 1.0)
        comp = 2.0 * self.pe_sum - self.e_sum + drift * (self.horizon - self.t)
        jumps = self.seen + _CHECK_EVERY
        bound = (jumps + 8.0) * (2.0 * self.e_sum + total * self.horizon)
        return {"compensator": comp,
                "compensator_rounding": _EPS * float(bound.max())}

    def _all_arrived(self, j: int) -> bool:
        """Whether every lane of a target run has reached it by row j."""
        if self._pending is None:
            return False
        self._pending &= self._rows[0][j] != self.goal
        return not self._pending.any()

    def _resolve(self, K: int, final: np.ndarray | None):
        """Settle the block's K rows: final (per lane, default K) cut at the
        target; returns the lanes that reached it (None without a target)."""
        G = self.G
        final = np.full(len(self.gidx), K) if final is None else final
        stopped = final < K
        arrived = None
        if self.target is not None:
            hit = G[1:K + 1] == self.goal
            arrived = hit.any(axis=0)
            arrived &= self.active
            np.copyto(final, hit.argmax(axis=0) + 1, where=arrived)
            stopped |= arrived
        final *= self.active    # lanes stopped before the block keep row 0
        self.gidx = G[final, self._lanes]
        self.final = final
        self.stop(stopped)
        return arrived

    def block(self, k0: int, k1: int) -> int:
        E = self.u_hold.rows(k0, k1)
        U = self.u_dir.rows(k0, k1)
        codes, wplus, right = self.codes, self.wplus, self._bbuf
        Gs, Ps, Cs = self._rows
        self.G[0] = self.gidx
        if self.target is not None:
            self._pending = self.active.copy()
        still = None if self.all_moving else ~self.active
        K = len(E)
        for j, u in enumerate(U):
            g, p = Gs[j], Ps[j]
            wplus.take(g if codes is None else codes.take(g, out=Cs[j], mode="clip"),
                       out=p, mode="clip")
            np.less_equal(u, p, out=right)
            np.add(g, _STEP.take(right), out=Gs[j + 1])
            if still is not None:
                np.copyto(Gs[j + 1], g, where=still)
            if self._all_arrived(j + 1):
                K = j + 1
                break
        self._check(self.G[1:K + 1])
        E, P, stack = E[:K], self.P[:K], self.times[:K + 1]
        stack[0] = self.t
        self.total.take(self.G[:K] if codes is None else self.C[:K],
                        out=stack[1:], mode="clip")
        np.divide(E, stack[1:], out=stack[1:])
        final = t = None
        if self.horizon is not None:
            t = _column_sums(stack)
            if (self.active & ~(t <= self.horizon)).any():   # a lane gets past it
                within = np.cumsum(stack, axis=0)[1:] <= self.horizon
                final = np.where(within.all(axis=0), K, within.argmin(axis=0))
        arrived = self._resolve(K, final)
        ended = True   # which steps' holding times each lane completes
        if self.final.min() < K:
            ended = np.arange(K)[:, None] < self.final
            stack[1:] *= ended
            t = None
        self.t = _column_sums(stack) if t is None else t
        if arrived is not None:
            np.copyto(self.values, self.t, where=arrived)
        if self.horizon is not None:
            self._add_holds(k0, E, P, ended)
        return K

    def _add_holds(self, k0: int, E: np.ndarray, P: np.ndarray, ended) -> None:
        """Add E and p+ E of the block's holding times that end within the
        horizon (where ended holds) to e_sum and pe_sum."""
        stack = self._sums[:len(E) + 1]
        for total, terms in ((self.e_sum, E), (self.pe_sum, P * E)):
            stack[0] = total
            np.multiply(terms, ended, out=stack[1:])
            total[:] = _column_sums(stack)
        if k0 % _CHECK_EVERY == 0:
            np.copyto(self.seen, k0, where=self.final > 0)


def _ahead(x: int, clock: float, end: float | None) -> int:
    """Sites a window side extends past its lead lane at x (counted away
    from the origin): the lane's linear extrapolation x end/clock to the end
    of the run (x itself, i.e. doubling, for a run without an end), at
    least 4 sweeps and at most _SLIDE."""
    if x <= 0:
        far = 0.0
    elif end is None:
        far = float(x)
    else:
        far = x * (end - clock) / clock if clock > 0 else math.inf
    return int(min(_SLIDE, max(4 * _CHECK_EVERY, far)))


def _walk(rule, tables: _Tables, window: tuple[int, int], range_cap: int,
          elapsed: float, *, jump_budget=math.inf) -> EnsembleResult:
    """Step the replicas of tables.rows as lanes rule(seed, rows) over one
    window of site tables, starting at `window`, that follows the lanes; a
    block at a time.  After k steps a block ends at the earliest of the next
    multiple of _CHECK_EVERY, step 2 k + _FIRST_BLOCK, the jump budget (at
    least one step, as for a budget of 0) and a discrete rule's last step.

    After every _CHECK_EVERY-th step (and a discrete rule's last) lanes within
    _CHECK_EVERY sites of +-range_cap are aborted, and if a lane still
    running is within _CHECK_EVERY sites of an edge, the window moves: that
    side extends by _ahead (towards the rule's end, or doubling for target
    runs), and a side that needs no room is trimmed to 4 sweeps past its
    trailing lane.  Lanes still running after jump_budget steps are
    aborted.  The rule's outputs complete the result: a target run's
    arrival times (`values`), or else the lanes' compensators, the largest
    of their rounding bounds and, if the rule kept them, their quadratic
    variations.
    """
    rows = tables.rows
    aborted = np.zeros(len(rows), dtype=bool)
    lo, hi = window
    table, lut, offsets = tables.build(lo, hi)
    # the lanes' buffers come after the first build: allocated before it,
    # annealed_tau1's 1e4 lanes, most stopping within a few jumps, measured
    # about 20% slower
    lanes = rule(tables.seed, rows)
    lanes.rebase(table, lut, offsets, lo, hi, 0)
    k = 0
    while lanes.running(k):
        stop = min(k - k % _CHECK_EVERY + _CHECK_EVERY, 2 * k + _FIRST_BLOCK,
                   max(jump_budget, k + 1), lanes.steps)
        k += lanes.block(k, int(stop))
        if k >= jump_budget:
            aborted |= lanes.active
            break
        if k % _CHECK_EVERY and k != lanes.steps:
            continue
        pos = lanes.positions()
        mn, mx = int(pos.min()), int(pos.max())
        if mn - _CHECK_EVERY <= -range_cap or mx + _CHECK_EVERY >= range_cap:
            newly = lanes.active & (np.abs(pos) >= range_cap - _CHECK_EVERY)
            aborted |= newly
            lanes.stop(newly)
        left, right = mn - _CHECK_EVERY < lo, mx + _CHECK_EVERY > hi
        if (left or right) and lanes.running(k):
            clock = lanes.clock(k)
            slack = 4 * _CHECK_EVERY
            new_lo = (mn - _ahead(-mn, float(clock[pos.argmin()]), lanes.end)
                      if left else max(lo, mn - slack))
            new_hi = (mx + _ahead(mx, float(clock[pos.argmax()]), lanes.end)
                      if right else min(hi, mx + slack))
            new_lo, new_hi = max(new_lo, -range_cap - 1), min(new_hi, range_cap + 1)
            if new_lo < lo or new_hi > hi:   # not when held at the range cap
                table, lut, offsets = tables.build(new_lo, new_hi, (table, lo, hi))
                lo, hi = new_lo, new_hi
                lanes.rebase(table, lut, offsets, lo, hi, pos)
    return EnsembleResult(lanes.positions(), aborted, len(rows), elapsed,
                          **lanes.outputs())


# ---------------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------------

def ensemble_discrete(model, lam: float, n: int, replicas: int, seed: int, *,
                      shared_env: DiscreteEnv | None = None,
                      range_cap: int = DEFAULT_RANGE_CAP,
                      replica_offset: int = 0,
                      variation: bool = False) -> EnsembleResult:
    """Final positions of `replicas` discrete walks of n steps, and per walk
    the compensator D_n = sum_{k<n} (2 omega+_lam(X_k) - 1) (`compensator`)
    and, with variation=True, the quadratic variation
    Q_n = sum_{k<n} 4 omega+ omega-_lam(X_k) of X - D (`variation`).

    Annealed mode (default) materializes a fresh environment per replica from
    (seed, replica); pass a DiscreteEnv as shared_env for the quenched mode
    (many walks, one environment; model is then ignored).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    if range_cap < 1:
        raise ValueError(f"range_cap must be at least 1, not {range_cap}")
    margin = int(4.0 * math.sqrt(max(n, 1))) + 2 * _CHECK_EVERY
    rows = range(replica_offset, replica_offset + replicas)
    return _walk(functools.partial(_DiscreteLanes, steps=n, variation=variation),
                 _Tables(model, seed, shared_env, lam, False, rows),
                 (-margin, margin), range_cap, float(n))


def ensemble_continuous(model, lam: float, horizon: float, replicas: int,
                        seed: int, *, shared_env: RateEnv | None = None,
                        range_cap: int = DEFAULT_RANGE_CAP,
                        jump_budget: int = 10**8,
                        target_level: int | None = None,
                        replica_offset: int = 0) -> EnsembleResult:
    """Final positions of continuous-time walks at the horizon, and per walk
    the compensator D_t = sum_k (r+ - r-)_lam(Y_{T_k}) (min(T_{k+1}, t) - T_k)
    (`compensator`).

    With target_level (>= 1) set, walks instead stop on first reaching that
    site and the result's `values` holds the first-passage times (nan if
    the jump budget ran out first, flagged in `aborted`), and the horizon
    sets only the result's `elapsed` (math.inf for a run to the target).
    A RateEnv passed as shared_env is the one environment of every walk
    (model is then ignored).
    """
    if not horizon >= 0:
        raise ValueError("horizon must be nonnegative")
    if horizon == math.inf and target_level is None:
        raise ValueError("an infinite horizon needs a target_level")
    if replicas < 1:
        raise ValueError("need at least 1 replica")
    if range_cap < 1:
        raise ValueError(f"range_cap must be at least 1, not {range_cap}")
    if target_level is not None and target_level < 1:
        raise ValueError("target_level must be >= 1")
    # lanes stop at a target, so they never step on the sites past it
    hi = (4 * _CHECK_EVERY if target_level is None
          else target_level + _CHECK_EVERY)
    rows = range(replica_offset, replica_offset + replicas)
    return _walk(functools.partial(_ContinuousLanes, target=target_level,
                                   horizon=horizon if target_level is None else None),
                 _Tables(model, seed, shared_env, lam, True, rows),
                 (-4 * _CHECK_EVERY, hi), range_cap, float(horizon),
                 jump_budget=jump_budget)
