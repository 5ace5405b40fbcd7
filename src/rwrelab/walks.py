"""Quenched trajectory engines with hitting-time instrumentation.

Two layers:

* single-trajectory runners (``run_discrete``, ``run_continuous``,
  ``first_passage``) over a materialized environment, with optional full path
  recording and hitting-time capture;
* vectorized ensemble engines used by the Monte Carlo estimators, stepping
  thousands of replicas at once over per-replica environment tables.  Every
  uniform is counter-addressed by (root seed, stream, replica block, step),
  so results are independent of memory chunking and worker count, and a
  mirrored run reproduces the site-reflected walk exactly.

Environment windows grow on demand.  A walker whose range exceeds the
configured cap is aborted with a distinct signal, never silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .environments import DiscreteEnv, RateEnv, bias_omega, bias_rates
from .rng import BlockUniforms, generator

DEFAULT_RANGE_CAP = 10**7


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


# ---------------------------------------------------------------------------
# single-trajectory runners
# ---------------------------------------------------------------------------

_BUF = 4096


class _UniformTape:
    """Sequentially buffered uniforms for one stream."""

    def __init__(self, seed: int, *tags):
        self._gen = generator(seed, *tags)
        self._buf = self._gen.random(_BUF)
        self._i = 0

    def next(self) -> float:
        if self._i == _BUF:
            self._buf = self._gen.random(_BUF)
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        return u


def run_discrete(env: DiscreteEnv, lam: float, n: int, seed: int, *,
                 record_path: bool = False, hitting_levels=(),
                 range_cap: int = DEFAULT_RANGE_CAP) -> Trajectory:
    """Walk n steps from the origin: step +1 iff the uniform draw is
    <= omega+_x(lam).  Bit-exact replay from (env, lam, n, seed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    tape = _UniformTape(seed, "traj")
    levels = set(int(v) for v in hitting_levels)
    hits: dict[int, float] = {}
    x = 0
    mn = mx = 0
    path = [0] if record_path else None
    for t in range(n):
        _, plus = env.omega_biased(x, lam)
        x += 1 if tape.next() <= plus else -1
        mn, mx = min(mn, x), max(mx, x)
        if abs(x) > range_cap:
            raise RangeCapExceeded(f"|position| exceeded {range_cap} at step {t + 1}")
        if x in levels and x not in hits:
            hits[x] = float(t + 1)
        if record_path:
            path.append(x)
    return Trajectory(x, float(n), n, seed, mn, mx, hits,
                      np.array(path) if record_path else None, None)


def run_continuous(env: RateEnv, lam: float, horizon: float, seed: int, *,
                   record_path: bool = False, hitting_levels=(),
                   jump_budget: int = 10**8,
                   range_cap: int = DEFAULT_RANGE_CAP) -> Trajectory:
    """Jump-chain + holding-time construction: wait Exp(r-(lam)+r+(lam)) at
    the current site, then jump right with probability r+(lam)/(r-+r+)(lam).
    Stops at the first jump time exceeding the horizon."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    tape = _UniformTape(seed, "traj")
    levels = set(int(v) for v in hitting_levels)
    hits: dict[int, float] = {}
    x = 0
    mn = mx = 0
    t = 0.0
    jumps = 0
    path = [0] if record_path else None
    times = [0.0] if record_path else None
    while True:
        rm, rp = env.rates_biased(x, lam)
        dt = -math.log1p(-tape.next()) / (rm + rp)
        if t + dt > horizon:
            break
        t += dt
        x += 1 if tape.next() <= rp / (rm + rp) else -1
        jumps += 1
        mn, mx = min(mn, x), max(mx, x)
        if abs(x) > range_cap:
            raise RangeCapExceeded(f"|position| exceeded {range_cap} at t={t:.6g}")
        if jumps > jump_budget:
            raise JumpBudgetExceeded(f"more than {jump_budget} jumps before the horizon")
        if x in levels and x not in hits:
            hits[x] = t
        if record_path:
            path.append(x)
            times.append(t)
    return Trajectory(x, float(horizon), jumps, seed, mn, mx, hits,
                      np.array(path) if record_path else None,
                      np.array(times) if record_path else None)


@dataclass
class FirstPassage:
    """First-passage times T_1..T_level of one quenched run."""

    level: int
    passage_times: np.ndarray    # T_k for k = 1..reached
    increments: np.ndarray       # tau_k = T_k - T_{k-1}
    completed: bool
    n_steps: int
    seed: int


def first_passage(env, lam: float, level: int, seed: int,
                  budget: int = 10**7) -> FirstPassage:
    """Run until the walk first reaches `level`, recording every intermediate
    first-passage time.  Budget exhaustion (completed=False) signals likely
    non-ballistic parameters."""
    if level < 1:
        raise ValueError("level must be >= 1")
    tape = _UniformTape(seed, "traj")
    continuous = isinstance(env, RateEnv)
    passage = np.full(level, np.nan)
    x = 0
    t = 0.0
    best = 0
    steps = 0
    while best < level and steps < budget:
        if continuous:
            rm, rp = env.rates_biased(x, lam)
            t += -math.log1p(-tape.next()) / (rm + rp)
            x += 1 if tape.next() <= rp / (rm + rp) else -1
        else:
            _, plus = env.omega_biased(x, lam)
            t += 1.0
            x += 1 if tape.next() <= plus else -1
        steps += 1
        if x > best:
            best = x
            passage[x - 1] = t
    reached = passage[:best]
    increments = np.diff(np.concatenate([[0.0], reached]))
    return FirstPassage(level, reached, increments, best >= level, steps, seed)


# ---------------------------------------------------------------------------
# vectorized ensembles
# ---------------------------------------------------------------------------

@dataclass
class EnsembleResult:
    """Final states of a replica ensemble."""

    final_positions: np.ndarray
    aborted: np.ndarray
    replicas: int
    elapsed: float
    values: np.ndarray | None = None   # continuous: first-passage times etc.


_CHECK_EVERY = 64  # steps between bound/abort sweeps (also the safety margin)


def _plan_chunks(replicas: int, width: int, mem_budget: float,
                 tables: int) -> list[tuple[int, int]]:
    per_row = width * 8.0 * tables
    rows = max(64, int(mem_budget / max(per_row, 1.0)))
    out = []
    a = 0
    while a < replicas:
        b = min(replicas, a + rows)
        out.append((a, b))
        a = b
    return out


class _DiscreteTables:
    """Per-chunk biased jump-probability table over a shared window."""

    def __init__(self, model, seed, shared_env, lam):
        self.model = model
        self.seed = seed
        self.shared_env = shared_env
        self.lam = lam

    def build(self, rows: range, lo: int, hi: int):
        width = hi - lo + 1
        if self.shared_env is not None:
            w = np.asarray(self.shared_env.omega_plus_window(lo, hi), dtype=float)
            _, plus = bias_omega(w, self.lam)
            return plus.ravel(), np.zeros(len(rows), dtype=np.int64)
        table = np.empty((len(rows), width))
        for k, r in enumerate(rows):
            w = self.model.omega_plus_sites(self.seed, r, lo, hi)
            _, table[k] = bias_omega(w, self.lam)
        offsets = np.arange(len(rows), dtype=np.int64) * width
        return table.ravel(), offsets


def ensemble_discrete(model, lam: float, n: int, replicas: int, seed: int, *,
                      shared_env: DiscreteEnv | None = None,
                      mirrored: bool = False,
                      window_hint: tuple[int, int] | None = None,
                      range_cap: int = DEFAULT_RANGE_CAP,
                      mem_budget: float = 1.5e9,
                      replica_offset: int = 0) -> EnsembleResult:
    """Final positions of `replicas` discrete walks of n steps.

    Annealed mode (default) materializes a fresh environment per replica from
    (seed, replica); pass shared_env for the quenched mode (many walks, one
    environment).  With mirrored=True the engine runs the exact mirror
    coupling: the dynamics of the site-reflected environment at -lam with the
    same uniforms, which is the negated walk at -lam; the returned positions
    make annealed antisymmetry an identity rather than a statistical event.
    """
    base_lam = -lam if mirrored else lam
    lo0, hi0 = window_hint or (0, 0)
    margin = int(4.0 * math.sqrt(max(n, 1))) + 2 * _CHECK_EVERY
    lo0, hi0 = min(lo0, -margin), max(hi0, margin)
    tables = _DiscreteTables(model, seed, shared_env, base_lam)
    finals = np.empty(replicas, dtype=np.int64)
    aborted = np.zeros(replicas, dtype=bool)
    for a, b in _plan_chunks(replicas, hi0 - lo0 + 1, mem_budget, 1):
        rows = range(replica_offset + a, replica_offset + b)
        m = b - a
        lo, hi = lo0, hi0
        flat, offsets = tables.build(rows, lo, hi)
        uni = BlockUniforms(seed, ("walk",), replica_offset + a, m,
                            steps_per_refill=max(1, min(1024, n)))
        # walker state lives as flat table indices; position = gidx-offset+lo
        gidx = offsets - lo
        bbuf = np.empty(m, dtype=bool)
        sbuf = np.empty(m, dtype=np.int64)
        frozen = np.zeros(m, dtype=bool)
        any_frozen = False
        for t in range(n):
            u = uni.step(t)
            # take() without out=: with out= and mode="raise" NumPy buffers
            np.less_equal(u, flat.take(gidx), out=bbuf)
            if any_frozen:
                np.subtract(bbuf.astype(np.int64) * 2, 1, out=sbuf)
                sbuf[frozen] = 0
                gidx += sbuf
            else:
                np.add(gidx, bbuf, out=gidx, casting="unsafe")
                np.add(gidx, bbuf, out=gidx, casting="unsafe")
                gidx -= 1
            if (t % _CHECK_EVERY) == _CHECK_EVERY - 1 or t == n - 1:
                pos = gidx - offsets + lo
                mn, mx = int(pos.min()), int(pos.max())
                if mn - _CHECK_EVERY <= -range_cap or mx + _CHECK_EVERY >= range_cap:
                    newly = np.abs(pos) >= range_cap - _CHECK_EVERY
                    frozen |= newly
                    any_frozen = True
                    if frozen.all():
                        break
                if mn - _CHECK_EVERY < lo or mx + _CHECK_EVERY > hi:
                    span = hi - lo + 1
                    new_lo = min(lo, mn - max(span // 2, 4 * _CHECK_EVERY))
                    new_hi = max(hi, mx + max(span // 2, 4 * _CHECK_EVERY))
                    new_lo = max(new_lo, -range_cap - 1)
                    new_hi = min(new_hi, range_cap + 1)
                    lo, hi = new_lo, new_hi
                    flat, offsets = tables.build(rows, lo, hi)
                    gidx = offsets - lo + pos
        pos = gidx - offsets + lo
        finals[a:b] = -pos if mirrored else pos
        aborted[a:b] = frozen
    return EnsembleResult(finals, aborted, replicas, float(n))


class _RateTables:
    """Per-chunk biased total-rate and right-probability tables."""

    def __init__(self, model, seed, shared_env, lam):
        self.model = model
        self.seed = seed
        self.shared_env = shared_env
        self.lam = lam

    def build(self, rows: range, lo: int, hi: int):
        width = hi - lo + 1
        if self.shared_env is not None:
            rm, rp = self.shared_env.rates_window(lo, hi)
            bm, bp = bias_rates(rm, rp, self.lam)
            return ((bm + bp).ravel(), (bp / (bm + bp)).ravel(),
                    np.zeros(len(rows), dtype=np.int64))
        total = np.empty((len(rows), width))
        wplus = np.empty((len(rows), width))
        for k, r in enumerate(rows):
            rm, rp = self.model.rate_sites(self.seed, r, lo, hi)
            bm, bp = bias_rates(rm, rp, self.lam)
            total[k] = bm + bp
            wplus[k] = bp / (bm + bp)
        offsets = np.arange(len(rows), dtype=np.int64) * width
        return total.ravel(), wplus.ravel(), offsets


def ensemble_continuous(model, lam: float, horizon: float, replicas: int,
                        seed: int, *, shared_env: RateEnv | None = None,
                        mirrored: bool = False,
                        window_hint: tuple[int, int] | None = None,
                        range_cap: int = DEFAULT_RANGE_CAP,
                        jump_budget: int = 10**8,
                        mem_budget: float = 1.5e9,
                        target_level: int | None = None,
                        replica_offset: int = 0) -> EnsembleResult:
    """Final positions of continuous-time walks at the horizon.

    With target_level set, walks instead stop on first reaching that site and
    the result's `values` holds the first-passage times (nan if the jump
    budget ran out first, flagged in `aborted`).
    """
    if mirrored and target_level is not None:
        raise ValueError("mirrored runs do not support first-passage targets")
    base_lam = -lam if mirrored else lam
    lo0, hi0 = window_hint or (0, 0)
    lo0, hi0 = min(lo0, -4 * _CHECK_EVERY), max(hi0, 4 * _CHECK_EVERY, target_level or 0)
    tables = _RateTables(model, seed, shared_env, base_lam)
    finals = np.empty(replicas, dtype=np.int64)
    aborted = np.zeros(replicas, dtype=bool)
    values = np.full(replicas, np.nan) if target_level is not None else None
    for a, b in _plan_chunks(replicas, hi0 - lo0 + 1, mem_budget, 2):
        rows = range(replica_offset + a, replica_offset + b)
        lo, hi = lo0, hi0
        total, wplus, offsets = tables.build(rows, lo, hi)
        u_hold = BlockUniforms(seed, ("hold",), replica_offset + a, b - a)
        u_dir = BlockUniforms(seed, ("dir",), replica_offset + a, b - a)
        m = b - a
        pos = np.zeros(m, dtype=np.int64)
        t_arr = np.zeros(m)
        active = np.ones(m, dtype=bool)
        hit = np.full(m, np.nan)
        j = 0
        while active.any():
            idx = offsets - lo + pos
            rate = total.take(idx)
            dt = -np.log1p(-u_hold.step(j)) / rate
            t_new = t_arr + dt
            if target_level is None:
                done = active & (t_new > horizon)
                active &= ~done
            p = wplus.take(idx)
            s = (u_dir.step(j) <= p).astype(np.int64)
            s += s
            s -= 1
            s *= active
            pos += s
            t_arr = np.where(active, t_new, t_arr)
            if target_level is not None:
                arrived = active & (pos == target_level)
                hit[arrived] = t_new[arrived]
                active &= ~arrived
            j += 1
            if j >= jump_budget:
                aborted[a:b] |= active
                break
            if (j % _CHECK_EVERY) == 0:
                mn, mx = int(pos.min()), int(pos.max())
                if mn - _CHECK_EVERY <= -range_cap or mx + _CHECK_EVERY >= range_cap:
                    newly = active & (np.abs(pos) >= range_cap - _CHECK_EVERY)
                    aborted[a:b] |= newly
                    active &= ~newly
                if mn - _CHECK_EVERY < lo or mx + _CHECK_EVERY > hi:
                    span = hi - lo + 1
                    lo = min(lo, mn - max(span // 2, 4 * _CHECK_EVERY))
                    hi = max(hi, mx + max(span // 2, 4 * _CHECK_EVERY))
                    lo, hi = max(lo, -range_cap - 1), min(hi, range_cap + 1)
                    total, wplus, offsets = tables.build(rows, lo, hi)
        finals[a:b] = -pos if mirrored else pos
        if target_level is not None:
            values[a:b] = hit
            aborted[a:b] |= active
    return EnsembleResult(finals, aborted, replicas, float(horizon), values)
