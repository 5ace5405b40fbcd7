"""Quenched walk engine: vectorized replica ensembles and single runs.

One stepping core (``_walk``) moves chunks of replica lanes over biased site
tables (``_Tables``: one field per site in discrete time, two in continuous
time); it owns range-cap freezing, the window sweep every ``_CHECK_EVERY``
steps with window growth, and result assembly.  Two step rules plug into it:
one uniform per step (``_DiscreteLanes``), or an exponential holding time and
a direction uniform per jump (``_ContinuousLanes``).  Ensembles step
per-replica environments (annealed) or one shared environment (quenched);
``run_discrete``, ``run_continuous`` and ``first_passage`` are recorded
one-lane runs over a shared environment, i.e. replica 0 of that ensemble.
Every uniform is counter-addressed by (root seed, stream, replica block,
step), so results are independent of memory chunking and worker count.

A table build takes blocks of rows from models that build many replicas
together (the i.i.d. models), and one replica's environment at a time from
the others.

Environment windows grow on demand.  A walker that comes within
``_CHECK_EVERY`` sites of the range cap is aborted with a distinct signal,
never silently truncated.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .environments import DiscreteEnv, RateEnv, bias_omega, bias_rates
from .rng import BlockUniforms

DEFAULT_RANGE_CAP = 10**7

_CHECK_EVERY = 64    # steps between bound/abort sweeps (also the safety margin)
_MEM_BUDGET = 1.5e9  # bytes of site tables per chunk of replicas


class RangeCapExceeded(Exception):
    """A walk left the configured site range (likely transient parameters)."""


class JumpBudgetExceeded(Exception):
    """A continuous-time walk exceeded its jump budget before the horizon."""


@dataclass
class Trajectory:
    """Record of one quenched walk."""

    final_position: int
    elapsed: float               # step count n, or continuous time t
    n_steps: int
    seed: int
    min_position: int
    max_position: int
    hitting_times: dict[int, float] = field(default_factory=dict)
    positions: np.ndarray | None = None
    times: np.ndarray | None = None


def dump_trajectory(traj: Trajectory, path) -> None:
    """One record per jump: time,position (requires a recorded path)."""
    if traj.positions is None:
        raise ValueError("trajectory was not recorded with record_path=True")
    times = traj.times if traj.times is not None else np.arange(len(traj.positions))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("time,position\n")
        for t, x in zip(times, traj.positions):
            fh.write(f"{t!r},{int(x)}\n")


@dataclass
class FirstPassage:
    """First-passage times T_1..T_level of one quenched run."""

    level: int
    passage_times: np.ndarray    # T_k for k = 1..reached
    increments: np.ndarray       # tau_k = T_k - T_{k-1}
    completed: bool
    n_steps: int
    seed: int


@dataclass
class EnsembleResult:
    """Final states of a replica ensemble."""

    final_positions: np.ndarray
    aborted: np.ndarray
    replicas: int
    elapsed: float
    values: np.ndarray | None = None   # continuous: first-passage times etc.


# ---------------------------------------------------------------------------
# stepping core
# ---------------------------------------------------------------------------

@dataclass
class _Tables:
    """Biased site tables of a range of replicas over one window [lo, hi].

    A row holds one field per site (discrete time: omega+(lam)) or two
    (continuous time: the total rate and p+ = r+/(r- + r+), at lam).  Row k
    is the environment of replica rows[k], or shared_env for every row.
    """

    model: object
    seed: int
    shared_env: object
    lam: float
    rates: bool

    @property
    def fields(self) -> int:
        return 2 if self.rates else 1

    def _biased(self, sites) -> tuple:
        if self.rates:
            bm, bp = bias_rates(*sites, self.lam)
            total = bm + bp
            return total, bp / total
        return bias_omega(sites, self.lam)[1:]

    def _site_rows(self, rows: range, lo: int, hi: int):
        """(row index or slice, site values) pairs covering every row: blocks
        of rows from models that build them together, else one replica's
        environment at a time."""
        if self.rates:
            blocks, sites_of = getattr(self.model, "rate_blocks", None), self.model.rate_sites
        else:
            blocks = getattr(self.model, "omega_plus_blocks", None)
            sites_of = self.model.omega_plus_sites
        if blocks is not None:
            return blocks(self.seed, rows, lo, hi)
        return ((k, sites_of(self.seed, r, lo, hi)) for k, r in enumerate(rows))

    def build(self, rows: range, lo: int, hi: int):
        """The fields as flat arrays, and the offset of each row in them."""
        env = self.shared_env
        if env is not None:
            sites = (env.rates_window(lo, hi) if self.rates
                     else env.omega_plus_window(lo, hi))
            return ([f.ravel() for f in self._biased(sites)],
                    np.zeros(len(rows), dtype=np.int64))
        width = hi - lo + 1
        # one array per field: a single (fields, rows, width) block raised
        # the continuous benchmark's peak RSS by about 20% (allocator reuse)
        table = [np.empty((len(rows), width)) for _ in range(self.fields)]
        for k, sites in self._site_rows(rows, lo, hi):
            for f, values in zip(table, self._biased(sites)):
                f[k] = values
        return ([f.ravel() for f in table],
                np.arange(len(rows), dtype=np.int64) * width)


class _DiscreteLanes:
    """Discrete-time step rule: one uniform per step, right iff it is <=
    omega+(lam) at the lane's site, for a fixed number of steps.  Lanes are
    held as flat table indices (position = gidx - offsets + lo)."""

    def __init__(self, seed, rows: range, steps: int):
        m = len(rows)
        self.steps = steps
        self.uni = BlockUniforms(seed, ("walk",), rows.start, m,
                                 steps_per_refill=max(1, min(1024, steps)))
        self.active = np.ones(m, dtype=bool)
        self.all_moving = True
        self.bbuf = np.empty(m, dtype=bool)
        self.sbuf = np.empty(m, dtype=np.int64)

    def running(self, k: int) -> bool:
        return k < self.steps and (self.all_moving or bool(self.active.any()))

    def stop(self, lanes: np.ndarray) -> None:
        if lanes.any():
            self.active &= ~lanes
            self.all_moving = False

    def rebase(self, fields, offsets, lo, pos) -> None:
        (self.flat,), self.offsets, self.lo = fields, offsets, lo
        self.gidx = offsets - lo + pos

    def positions(self) -> np.ndarray:
        return self.gidx - self.offsets + self.lo

    def clock(self, k: int) -> np.ndarray:
        return np.full(len(self.gidx), float(k))

    def step(self, k: int) -> None:
        gidx, bbuf = self.gidx, self.bbuf
        # take() without out=: with out= and mode="raise" NumPy buffers
        np.less_equal(self.uni.step(k), self.flat.take(gidx), out=bbuf)
        if self.all_moving:
            np.add(gidx, bbuf, out=gidx, casting="unsafe")
            np.add(gidx, bbuf, out=gidx, casting="unsafe")
            gidx -= 1
        else:
            np.subtract(bbuf.astype(np.int64) * 2, 1, out=self.sbuf)
            self.sbuf *= self.active
            gidx += self.sbuf


class _ContinuousLanes:
    """Continuous-time step rule: an Exp(total rate) holding time, then right
    iff the direction uniform is <= p+ at the lane's site.  A lane stops at
    its first jump time beyond the horizon (never if the horizon is None)."""

    steps = None

    def __init__(self, seed, rows: range, horizon: float | None):
        m = len(rows)
        self.horizon = horizon
        self.u_hold = BlockUniforms(seed, ("hold",), rows.start, m)
        self.u_dir = BlockUniforms(seed, ("dir",), rows.start, m)
        self.pos = np.zeros(m, dtype=np.int64)
        self.t = np.zeros(m)
        self.active = np.ones(m, dtype=bool)

    def running(self, k: int) -> bool:
        return bool(self.active.any())

    def stop(self, lanes: np.ndarray) -> None:
        self.active &= ~lanes

    def rebase(self, fields, offsets, lo, pos) -> None:
        (self.total, self.wplus), self.offsets, self.lo = fields, offsets, lo

    def positions(self) -> np.ndarray:
        return self.pos

    def clock(self, k: int) -> np.ndarray:
        return self.t

    def step(self, k: int) -> None:
        active = self.active
        idx = self.offsets - self.lo + self.pos
        rate = self.total.take(idx)
        dt = -np.log1p(-self.u_hold.step(k)) / rate
        t_new = self.t + dt
        if self.horizon is not None:
            done = active & (t_new > self.horizon)
            active &= ~done
        p = self.wplus.take(idx)
        s = (self.u_dir.step(k) <= p).astype(np.int64)
        s += s
        s -= 1
        s *= active
        self.pos += s
        self.t = np.where(active, t_new, self.t)


def _walk(rule, limit, tables: _Tables, replicas: int, replica_offset: int,
          window: tuple[int, int], range_cap: int, elapsed: float, *,
          jump_budget=math.inf, target: int | None = None,
          observe=None) -> EnsembleResult:
    """Step replicas replica_offset.. in chunks whose tables fit _MEM_BUDGET,
    with lanes rule(seed, rows, limit) (limit: step count or horizon).

    After every _CHECK_EVERY-th step (and a discrete rule's last) lanes within
    _CHECK_EVERY sites of +-range_cap are aborted, and the window grows if a
    lane is within _CHECK_EVERY sites of an edge.  Lanes still running after
    jump_budget steps are aborted.  With a target, lanes stop on reaching it
    and `values` holds the arrival times.  observe(k, lanes) follows step k.
    """
    lo0, hi0 = window
    finals = np.empty(replicas, dtype=np.int64)
    aborted = np.zeros(replicas, dtype=bool)
    values = np.full(replicas, np.nan) if target is not None else None
    chunk = max(64, int(_MEM_BUDGET / ((hi0 - lo0 + 1) * 8.0 * tables.fields)))
    for a in range(0, replicas, chunk):
        b = min(replicas, a + chunk)
        rows = range(replica_offset + a, replica_offset + b)
        lo, hi = lo0, hi0
        lanes = rule(tables.seed, rows, limit)
        lanes.rebase(*tables.build(rows, lo, hi), lo, 0)
        capped = aborted[a:b]
        k = 0
        while lanes.running(k):
            lanes.step(k)
            k += 1
            if target is not None:
                arrived = lanes.active & (lanes.positions() == target)
                np.copyto(values[a:b], lanes.clock(k), where=arrived)
                lanes.stop(arrived)
            if observe is not None:
                observe(k, lanes)
            if k >= jump_budget:
                capped |= lanes.active
                break
            if k % _CHECK_EVERY and k != lanes.steps:
                continue
            pos = lanes.positions()
            mn, mx = int(pos.min()), int(pos.max())
            if mn - _CHECK_EVERY <= -range_cap or mx + _CHECK_EVERY >= range_cap:
                newly = lanes.active & (np.abs(pos) >= range_cap - _CHECK_EVERY)
                capped |= newly
                lanes.stop(newly)
                if not lanes.active.any():
                    break
            if mn - _CHECK_EVERY < lo or mx + _CHECK_EVERY > hi:
                span = hi - lo + 1
                lo = max(min(lo, mn - max(span // 2, 4 * _CHECK_EVERY)), -range_cap - 1)
                hi = min(max(hi, mx + max(span // 2, 4 * _CHECK_EVERY)), range_cap + 1)
                lanes.rebase(*tables.build(rows, lo, hi), lo, pos)
        finals[a:b] = lanes.positions()
    return EnsembleResult(finals, aborted, replicas, elapsed, values)


# ---------------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------------

def ensemble_discrete(model, lam: float, n: int, replicas: int, seed: int, *,
                      shared_env: DiscreteEnv | None = None,
                      window_hint: tuple[int, int] | None = None,
                      range_cap: int = DEFAULT_RANGE_CAP,
                      replica_offset: int = 0) -> EnsembleResult:
    """Final positions of `replicas` discrete walks of n steps.

    Annealed mode (default) materializes a fresh environment per replica from
    (seed, replica); pass shared_env for the quenched mode (many walks, one
    environment).
    """
    lo, hi = window_hint or (0, 0)
    margin = int(4.0 * math.sqrt(max(n, 1))) + 2 * _CHECK_EVERY
    return _walk(_DiscreteLanes, n, _Tables(model, seed, shared_env, lam, False),
                 replicas, replica_offset, (min(lo, -margin), max(hi, margin)),
                 range_cap, float(n))


def ensemble_continuous(model, lam: float, horizon: float, replicas: int,
                        seed: int, *, shared_env: RateEnv | None = None,
                        window_hint: tuple[int, int] | None = None,
                        range_cap: int = DEFAULT_RANGE_CAP,
                        jump_budget: int = 10**8,
                        target_level: int | None = None,
                        replica_offset: int = 0) -> EnsembleResult:
    """Final positions of continuous-time walks at the horizon.

    With target_level set, walks instead stop on first reaching that site and
    the result's `values` holds the first-passage times (nan if the jump
    budget ran out first, flagged in `aborted`).
    """
    lo, hi = window_hint or (0, 0)
    window = (min(lo, -4 * _CHECK_EVERY), max(hi, 4 * _CHECK_EVERY, target_level or 0))
    return _walk(_ContinuousLanes, horizon if target_level is None else None,
                 _Tables(model, seed, shared_env, lam, True), replicas,
                 replica_offset, window, range_cap, float(horizon),
                 jump_budget=jump_budget, target=target_level)


# ---------------------------------------------------------------------------
# single runs: replica 0 of a shared-environment ensemble, path recorded
# ---------------------------------------------------------------------------

class _Path:
    """Position and clock of lane 0 after every step of a one-lane run."""

    def __init__(self):
        self.x, self.t = array("q", [0]), array("d", [0.0])

    def __call__(self, k, lanes) -> None:
        self.x.append(int(lanes.positions()[0]))
        self.t.append(float(lanes.clock(k)[0]))

    def trajectory(self, elapsed: float, seed: int, record_path: bool,
                   hitting_levels, times: bool) -> Trajectory:
        x, t = np.array(self.x, dtype=np.int64), np.array(self.t)
        keep = np.concatenate([[True], x[1:] != x[:-1]])  # not the jump past a horizon
        x, t = x[keep], t[keep]
        hits = {lv: float(t[1 + np.argmax(x[1:] == lv)])
                for lv in set(map(int, hitting_levels)) if (x[1:] == lv).any()}
        return Trajectory(int(x[-1]), elapsed, len(x) - 1, seed, int(x.min()),
                          int(x.max()), hits, x if record_path else None,
                          t if record_path and times else None)


def _single(env, lam: float, seed: int, limit, range_cap: int, **core):
    """One recorded lane over env with the ensemble's streams at replica 0;
    returns (aborted, path)."""
    rates = isinstance(env, RateEnv)
    path = _Path()
    res = _walk(_ContinuousLanes if rates else _DiscreteLanes, limit,
                _Tables(None, seed, env, lam, rates), 1, 0,
                (-4 * _CHECK_EVERY, 4 * _CHECK_EVERY), range_cap, 0.0,
                observe=path, **core)
    return bool(res.aborted[0]), path


def run_discrete(env: DiscreteEnv, lam: float, n: int, seed: int, *,
                 record_path: bool = False, hitting_levels=(),
                 range_cap: int = DEFAULT_RANGE_CAP) -> Trajectory:
    """Walk n steps from the origin: step +1 iff the uniform draw is
    <= omega+_x(lam).  Replica 0 of ensemble_discrete(..., shared_env=env)
    with the same seed; bit-exact replay from (env, lam, n, seed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    aborted, path = _single(env, lam, seed, n, range_cap)
    if aborted:
        raise RangeCapExceeded(f"|position| came within {_CHECK_EVERY} of "
                               f"{range_cap} by step {len(path.x) - 1}")
    return path.trajectory(float(n), seed, record_path, hitting_levels, False)


def run_continuous(env: RateEnv, lam: float, horizon: float, seed: int, *,
                   record_path: bool = False, hitting_levels=(),
                   jump_budget: int = 10**8,
                   range_cap: int = DEFAULT_RANGE_CAP) -> Trajectory:
    """Jump-chain + holding-time construction: wait Exp(r-(lam)+r+(lam)) at
    the current site, then jump right with probability r+(lam)/(r-+r+)(lam).
    Stops at the first jump time exceeding the horizon.  Replica 0 of
    ensemble_continuous(..., shared_env=env) with the same seed."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    aborted, path = _single(env, lam, seed, horizon, range_cap,
                            jump_budget=jump_budget)
    if aborted and len(path.x) - 1 >= jump_budget:
        raise JumpBudgetExceeded(f"{jump_budget} jumps before the horizon")
    if aborted:
        raise RangeCapExceeded(f"|position| came within {_CHECK_EVERY} of "
                               f"{range_cap} by t={path.t[-1]:.6g}")
    return path.trajectory(float(horizon), seed, record_path, hitting_levels, True)


def first_passage(env, lam: float, level: int, seed: int,
                  budget: int = 10**7) -> FirstPassage:
    """Run until the walk first reaches `level`, recording every intermediate
    first-passage time.  Budget exhaustion (completed=False) signals likely
    non-ballistic parameters."""
    if level < 1:
        raise ValueError("level must be >= 1")
    limit = None if isinstance(env, RateEnv) else budget
    _, path = _single(env, lam, seed, limit, DEFAULT_RANGE_CAP,
                      jump_budget=budget, target=level)
    x, t = np.array(path.x, dtype=np.int64), np.array(path.t)
    best = int(x.max())
    reached = t[np.searchsorted(np.maximum.accumulate(x), np.arange(1, best + 1))]
    increments = np.diff(np.concatenate([[0.0], reached]))
    return FirstPassage(level, reached, increments, best >= level,
                        len(path.x) - 1, seed)
