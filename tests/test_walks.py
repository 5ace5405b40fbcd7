import hashlib
import itertools
import math

import numpy as np
import pytest

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, Renewal,
                     ScalarDist, ensemble_continuous, ensemble_discrete,
                     materialize)
from rwrelab.environments import RateEnv, bias_omega, bias_rates
from rwrelab.rng import BlockExponentials, BlockUniforms
from rwrelab.walks import DEFAULT_RANGE_CAP, EnsembleResult

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
CONST = ScalarDist.constant(1.0)
C_TWO_POINT = IIDConductance(TWO_POINT, time_flavor="continuous")


# ---------------------------------------------------------------------------
# replica 0 replayed one step at a time from its streams
# ---------------------------------------------------------------------------

def _draws(stream):
    """Replica 0's draws of a one-lane stream, step by step, read 256 steps
    at a time."""
    for t in itertools.count(0, 256):
        yield from stream.rows(t, t + 256)[:, 0].tolist()


def _site_fields(env, lam):
    """The biased fields of env at a site, by the engine's formulas:
    omega+(lam) in discrete time, (total rate, p+) in continuous time."""
    cache = {}

    def at(x):
        if x not in cache:
            if isinstance(env, RateEnv):
                bm, bp = bias_rates(*env.rates_window(x, x), lam)
                total = bm + bp
                cache[x] = float(total[0]), float((bp / total)[0])
            else:
                cache[x] = float(bias_omega(env.omega_plus_window(x, x), lam)[1][0])
        return cache[x]
    return at


def _replay_discrete(env, lam, n, seed):
    """Replica 0 of ensemble_discrete(..., shared_env=env): n steps, each
    right iff its uniform is <= omega+(lam).  Returns X_0..X_n."""
    plus = _site_fields(env, lam)
    x = [0]
    for u in itertools.islice(_draws(BlockUniforms(seed, ("walk",), 0, 1)), n):
        x.append(x[-1] + (1 if u <= plus(x[-1]) else -1))
    return np.array(x)


def _replay_continuous(env, lam, seed, horizon=math.inf, target=None):
    """Replica 0 of ensemble_continuous(..., shared_env=env): hold an Exp(1)
    draw over the total rate, then jump right iff the direction uniform is
    <= p+; stop before the first jump past the horizon, or on reaching the
    target.  Returns X_0..X_N and the jump times 0, T_1..T_N."""
    fields = _site_fields(env, lam)
    x, t = [0], [0.0]
    for e, u in zip(_draws(BlockExponentials(seed, ("hold",), 0, 1)),
                    _draws(BlockUniforms(seed, ("dir",), 0, 1))):
        if x[-1] == target:
            break
        total, plus = fields(x[-1])
        clock = t[-1] + e / total
        if clock > horizon:
            break
        x.append(x[-1] + (1 if u <= plus else -1))
        t.append(clock)
    return np.array(x), np.array(t)


def test_discrete_replay_is_replica_zero_of_the_ensemble():
    # replica 0's compensator is 2 (running sum of omega+(lam) along the
    # path) - n, and its quadratic variation 4 (that sum - the running sum
    # of omega+(lam)^2)
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 8, (-4, 4))
    for lam, n, seed in ((0.7, 3000, 41), (0.0, 777, 42), (-1.5, 64, 43)):
        x = _replay_discrete(env, lam, n, seed)
        res = ensemble_discrete(model, lam, n, 1, seed, shared_env=env,
                                variation=True)
        assert x[-1] == res.final_positions[0]
        assert res.elapsed == n
        path = x[:-1]
        lo = int(path.min())
        plus = bias_omega(env.omega_plus_window(lo, int(path.max())), lam)[1]
        p = plus[path - lo]
        assert res.compensator[0] == 2.0 * np.add.accumulate(p)[-1] - n
        assert res.variation[0] == 4.0 * (np.add.accumulate(p)[-1]
                                          - np.add.accumulate(p * p)[-1])


def test_continuous_replay_is_replica_zero_of_the_ensemble():
    # replica 0's compensator is the drift r+ - r- along the replayed path
    # times each holding time, the last one cut at the horizon
    for model in (IIDConductance(TWO_POINT, time_flavor="continuous"),
                  CoinFlip(TWO_POINT, TWO_POINT)):
        env = materialize(model, 8, (-4, 4))
        for lam, horizon, seed in ((0.8, 300.0, 41), (0.0, 150.0, 42)):
            x, t = _replay_continuous(env, lam, seed, horizon)
            res = ensemble_continuous(model, lam, horizon, 1, seed,
                                      shared_env=env)
            assert x[-1] == res.final_positions[0]
            assert res.elapsed == horizon
            assert t[-1] <= horizon
            t = np.append(t, horizon)
            lo = int(x.min())
            bm, bp = bias_rates(*env.rates_window(lo, int(x.max())), lam)
            terms = (bp - bm)[x - lo] * np.diff(t)
            assert abs(res.compensator[0] - terms.sum()) <= 1e-12 * np.abs(terms).sum()


def test_first_passage_is_the_target_level_run():
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"), 9,
                      (-4, 4))
    for level, seed in ((1, 51), (7, 52)):
        x, t = _replay_continuous(env, 0.9, seed, target=level)
        res = ensemble_continuous(None, 0.9, math.inf, 1, seed, shared_env=env,
                                  target_level=level)
        assert x[-1] == level
        assert t[-1] == res.values[0]
        assert res.final_positions[0] == level


def test_discrete_replay_is_bit_exact():
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 5, (-4, 4))
    a, b, c = (ensemble_discrete(model, 0.8, 5000, 8, seed, shared_env=env)
               for seed in (11, 11, 12))
    for name in ("final_positions", "compensator"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert _replay_discrete(env, 0.8, 5000, 11)[-1] == a.final_positions[0]
    assert not np.array_equal(c.final_positions, a.final_positions)


def test_shared_run_leaves_its_environment_alone():
    # a shared environment is read from its model's source: a run that goes
    # far past its window leaves that window, and the fields read over it,
    # as they were
    for model, run in (
            (IIDConductance(TWO_POINT),
             lambda env: ensemble_discrete(None, 1.0, 3000, 50, 3, shared_env=env)),
            (C_TWO_POINT,
             lambda env: ensemble_continuous(None, 1.0, 1000.0, 50, 3,
                                             shared_env=env))):
        env = materialize(model, 4, (-5, 5))
        read = (env.rates_window if isinstance(env, RateEnv)
                else lambda lo, hi: (env.omega_plus_window(lo, hi),))
        fields = read(-5, 5)
        assert run(env).final_positions.min() > 100
        assert (env.lo, env.hi) == (-5, 5)
        for was, now in zip(fields, read(-5, 5)):
            assert np.array_equal(was, now)


# ---------------------------------------------------------------------------
# edge cases and stops
# ---------------------------------------------------------------------------

def test_zero_steps_stays_home():
    model = IIDConductance(CONST)
    res = ensemble_discrete(model, 0.0, 0, 5, 1,
                            shared_env=materialize(model, 0, (-2, 2)))
    assert (res.final_positions == 0).all() and (res.compensator == 0).all()


def test_huge_field_forces_straight_line():
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 2, (-2, 2))
    res = ensemble_discrete(model, 40.0, 500, 8, 3, shared_env=env)
    assert (res.final_positions == 500).all()
    assert np.array_equal(_replay_discrete(env, 40.0, 500, 3), np.arange(501))


def test_continuous_zero_horizon():
    model = PeriodicEnv(rates=((1.0, 1.0),))
    res = ensemble_continuous(model, 0.0, 0.0, 5, 1,
                              shared_env=materialize(model, 0, (-2, 2)))
    assert (res.final_positions == 0).all() and (res.compensator == 0).all()


def test_continuous_hitting_times_increase():
    # with one environment and seed, a lane's path to a farther target runs
    # through the nearer ones, so its first-passage times increase
    env = materialize(C_TWO_POINT, 4, (-4, 4))
    ts = [ensemble_continuous(C_TWO_POINT, 1.2, math.inf, 16, 7, shared_env=env,
                              target_level=k).values for k in (1, 2, 3, 5)]
    assert all((t2 > t1).all() for t1, t2 in zip(ts, ts[1:]))


def test_range_cap_is_a_distinct_signal():
    model = IIDConductance(CONST)
    res = ensemble_discrete(model, 5.0, 2000, 4, 1, range_cap=100,
                            shared_env=materialize(model, 0, (-2, 2)))
    assert res.aborted.all() and (res.final_positions >= 100 - 64).all()
    rmodel = PeriodicEnv(rates=((1.0, 1.0),))
    res = ensemble_continuous(rmodel, 5.0, 1e6, 4, 1, range_cap=100,
                              shared_env=materialize(rmodel, 0, (-2, 2)))
    assert res.aborted.all() and (res.final_positions >= 100 - 64).all()


def test_jump_budget_guard_is_a_distinct_signal():
    res = ensemble_continuous(PeriodicEnv(rates=((50.0, 50.0),)), 0.0, 1e7,
                              32, 5, jump_budget=200)
    assert res.aborted.all()


def test_first_passage_budget_exhaustion():
    model = IIDConductance(CONST, time_flavor="continuous")
    res = ensemble_continuous(model, -2.0, math.inf, 16, 5, target_level=3,
                              jump_budget=500)   # drifting away
    assert res.aborted.all() and np.isnan(res.values).all()


@pytest.mark.parametrize("run", [
    lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.5, -5, 10, 1),
    lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.5, 10, 0, 1),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, -3.0, 10, 1),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, math.nan, 10, 1),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, 10.0, -3, 1),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, math.inf, 10, 1,
                                target_level=0),
    lambda: ensemble_discrete(None, 0.5, 10, 10, 1,
                              shared_env=materialize(C_TWO_POINT, 1, (-5, 5))),
    lambda: ensemble_continuous(None, 0.5, 10.0, 10, 1,
                                shared_env=materialize(IIDConductance(TWO_POINT),
                                                       1, (-5, 5))),
    lambda: ensemble_discrete(None, 0.5, 10, 10, 1,
                              shared_env=IIDConductance(TWO_POINT)),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, math.inf, 10, 1),
    lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.5, 10, 10, 1,
                              range_cap=0),
    lambda: ensemble_continuous(C_TWO_POINT, 0.5, 10.0, 10, 1, range_cap=-5),
], ids=["negative-n", "no-replicas", "negative-horizon", "nan-horizon",
        "negative-replicas", "target-level-0", "discrete-on-rate-env",
        "continuous-on-discrete-env", "discrete-on-a-model",
        "infinite-horizon-without-target", "range-cap-0", "range-cap-negative"])
def test_ensembles_reject_bad_inputs(run):
    with pytest.raises(ValueError):
        run()


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_matches_per_replica_environments(monkeypatch):
    # the engine's per-replica tables must equal the library materialization;
    # blocks of 3 rows (width 21) split the rows across the replica block at
    # 1024.  A finite-support law with at most 256 codes is held as uint8
    # codes whose LUT decodes to those tables bit for bit; other laws keep
    # float64 tables
    import rwrelab.environments
    from rwrelab.walks import _Tables
    monkeypatch.setattr(rwrelab.environments, "_BLOCK_SITES", 64)
    seed, lam, lo, hi = 33, 0.7, -10, 10
    width = hi - lo + 1
    rows = range(1019, 1029)

    def discrete_row(env):
        return (bias_omega(env.omega_plus_window(lo, hi), lam)[1],)

    def rate_row(env):
        bm, bp = bias_rates(*env.rates_window(lo, hi), lam)
        return bm + bp, bp / (bm + bp)

    def decoded(table, lut):
        return table if lut is None else [v[table[0]] for v in lut]

    three_atoms = ScalarDist.empirical([0.5, 1.0, 2.0], [0.3, 0.4, 0.3])
    seventeen_atoms = ScalarDist.empirical(np.arange(1.0, 18.0), np.full(17, 1 / 17))
    for model, rates, row, coded in (
            (IIDConductance(TWO_POINT), False, discrete_row, True),
            (IIDConductance(CONST), False, discrete_row, True),
            (IIDOmega(three_atoms), False, discrete_row, True),
            (IIDConductance(TWO_POINT, time_flavor="continuous"), True, rate_row, True),
            (IIDConductance(CONST, time_flavor="continuous"), True, rate_row, True),
            (CoinFlip(TWO_POINT, TWO_POINT), True, rate_row, True),
            (CoinFlip(CONST, ScalarDist.uniform(0.5, 1.5)), True, rate_row, False),
            (IIDConductance(seventeen_atoms), False, discrete_row, False),  # 289 codes
            (PeriodicEnv(rates=((1.0, 2.0), (3.0, 0.5), (2.0, 2.0))), True, rate_row, True),
            (Renewal(1.0, 3.0), False, discrete_row, True),
            (Renewal(1.0, 3.0, time_flavor="continuous"), True, rate_row, True)):
        tables = _Tables(model, seed, None, lam, rates, rows)
        table, lut, offsets = tables.build(lo, hi)
        assert (lut is not None) == coded
        assert [f.dtype for f in table] == ([np.uint8] if coded else [np.float64] * len(lut or table))
        fields = decoded(table, lut)
        assert len(fields) == (2 if rates else 1)
        wants = [row(materialize(model, seed, (lo, hi), replica=r)) for r in rows]
        for k, want in enumerate(wants):
            for flat, values in zip(fields, want):
                assert np.array_equal(flat[offsets[k]:offsets[k] + width], values)
        # grown from an old window: both sides, new parts at both site
        # parities, a slide either way, and no overlap at all
        for olo, ohi in ((-7, 6), (-6, 5), (-14, 3), (-3, 25), (30, 40)):
            old = tables.build(olo, ohi)[0]
            grown, grown_lut, grown_offsets = tables.build(lo, hi, (old, olo, ohi))
            assert np.array_equal(grown_offsets, offsets)
            for flat, held in zip(grown, table):
                assert np.array_equal(flat, held)
            for flat, fresh in zip(decoded(grown, grown_lut), fields):
                assert np.array_equal(flat, fresh)
        # a shared environment's tables are one row from its model's source,
        # coded as the annealed rows are, which every lane reads; also when
        # grown from an old window
        env = materialize(model, seed + 1, (-4, 4), replica=5)
        shared = _Tables(None, seed, env, lam, rates, range(3))
        table, lut, offsets = shared.build(lo, hi)
        assert (lut is not None) == coded and np.array_equal(offsets, np.zeros(3))
        grown, grown_lut, _ = shared.build(lo, hi, (shared.build(-6, 5)[0], -6, 5))
        for built, built_lut in ((table, lut), (grown, grown_lut)):
            for flat, values in zip(decoded(built, built_lut), row(env)):
                assert np.array_equal(flat, values)


def _counting_builds(monkeypatch):
    """Count _Tables.build calls from here on: returns the live list of
    the windows built."""
    from rwrelab.walks import _Tables
    windows, build = [], _Tables.build

    def counted(self, lo, hi, old=None):
        windows.append((lo, hi))
        return build(self, lo, hi, old)

    monkeypatch.setattr(_Tables, "build", counted)
    return windows


SLIDE_RUNS = {
    "discrete": lambda: ensemble_discrete(IIDConductance(TWO_POINT), 1.0, 6000,
                                          200, 77),
    "continuous-horizon": lambda: ensemble_continuous(
        CoinFlip(TWO_POINT, TWO_POINT), 0.8, 1500.0, 100, 78),
    # the annealed_tau1 shape; drifting away from the target, the lanes move
    # the window left by doubling until the jump budget stops them
    "target": lambda: ensemble_continuous(C_TWO_POINT, -0.3, math.inf, 200, 79,
                                          target_level=1, jump_budget=20000),
    "shared-env": lambda: ensemble_discrete(
        IIDConductance(TWO_POINT), 1.0, 6000, 200, 80,
        shared_env=materialize(IIDConductance(TWO_POINT), 6, (-40, 40))),
}


@pytest.mark.parametrize("case", sorted(SLIDE_RUNS))
def test_ensemble_slide_invariance(monkeypatch, case):
    # a window that slides a few hundred sites at a time moves many times
    # and changes no output bit: site values are pure functions of
    # (seed, replica, site)
    import rwrelab.walks
    run = SLIDE_RUNS[case]
    wide = run()
    monkeypatch.setattr(rwrelab.walks, "_SLIDE", 300)
    windows = _counting_builds(monkeypatch)
    narrow = run()
    assert len(windows) >= 6
    for name in ("final_positions", "aborted", "values", "compensator"):
        a, b = getattr(wide, name), getattr(narrow, name)
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)
    assert wide.compensator_rounding == narrow.compensator_rounding


def test_renewal_ensemble_builds_twice(monkeypatch):
    # no closed-form velocity: the window is sized from the lanes, and one
    # move covers the run
    from rwrelab.estimators import annealed_velocity
    windows = _counting_builds(monkeypatch)
    annealed_velocity(Renewal(2.0, 3.0), 0.6, n=5000, replicas=200, seed=43)
    assert len(windows) <= 2


def test_window_held_at_the_range_cap_is_not_rebuilt(monkeypatch):
    # lanes frozen at the cap stay within a sweep of the capped edge; the
    # window then cannot grow there, and trimming alone is no reason to build
    windows = _counting_builds(monkeypatch)
    res = ensemble_discrete(IIDConductance(TWO_POINT), 0.3, 40000, 300, 5,
                            range_cap=3000)
    assert res.aborted.all()
    assert windows == [(-928, 928), (318, 3001)]


def test_ensemble_range_cap_marks_aborted():
    model = IIDConductance(CONST)
    res = ensemble_discrete(model, 3.0, 3000, 64, 5, range_cap=400)
    assert res.aborted.all()
    res2 = ensemble_discrete(model, 0.0, 3000, 64, 5, range_cap=400)
    assert not res2.aborted.any()


def test_compensator_stops_with_range_capped_lanes():
    # a lane frozen at the cap after step k keeps the omega+ sum of its first
    # k steps, so its compensator is that of k steps less n - k (to rounding)
    # and its quadratic variation that of k steps, and the lanes still
    # running go on adding (the masked path); oracle: uncapped runs of k
    # steps, which draw the same uniforms
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 9, (-4, 4))
    lam, n, lanes, seed, cap = 0.0, 1280, 64, 45, 100
    res = ensemble_discrete(model, lam, n, lanes, seed, shared_env=env,
                            range_cap=cap, variation=True)
    assert 0 < res.aborted.sum() < lanes
    frozen = np.zeros(lanes, dtype=bool)
    want_comp, want_finals = np.empty(lanes), np.empty(lanes, dtype=np.int64)
    want_var = np.empty(lanes)
    for k in range(64, n + 1, 64):
        pre = ensemble_discrete(model, lam, k, lanes, seed, shared_env=env,
                                variation=True)
        newly = ~frozen & (np.abs(pre.final_positions) >= cap - 64)
        last = ~frozen if k == n else newly
        want_comp[last] = pre.compensator[last] - (n - k)
        want_finals[last] = pre.final_positions[last]
        want_var[last] = pre.variation[last]
        frozen |= newly
    assert np.array_equal(res.aborted, frozen)
    assert np.array_equal(res.final_positions, want_finals)
    assert np.array_equal(res.compensator[~frozen], want_comp[~frozen])
    assert np.array_equal(res.variation, want_var)
    plain = ensemble_discrete(model, lam, n, lanes, seed, shared_env=env,
                              range_cap=cap)
    for name in ("final_positions", "aborted", "compensator"):
        assert np.array_equal(getattr(plain, name), getattr(res, name))
    assert np.abs(res.compensator - want_comp).max() <= 4 * n * np.finfo(float).eps


def test_variation_leaves_the_walk_alone():
    # asking for Q changes no other output; without it, and in continuous
    # time, there is none
    model = IIDConductance(TWO_POINT)
    plain = ensemble_discrete(model, 0.5, 1000, 300, 12)
    assert plain.variation is None
    split = ensemble_discrete(model, 0.5, 1000, 300, 12, variation=True)
    for name in ("final_positions", "aborted", "compensator"):
        assert np.array_equal(getattr(plain, name), getattr(split, name))
    assert plain.compensator_rounding == split.compensator_rounding
    assert ensemble_continuous(C_TWO_POINT, 0.5, 20.0, 30, 12).variation is None


def test_seed_decorrelation_across_replicas():
    # lag-1 autocorrelation of final positions across replica index ~ 0
    model = IIDConductance(TWO_POINT)
    res = ensemble_discrete(model, 0.4, 400, 2000, 91)
    x = res.final_positions.astype(float)
    x -= x.mean()
    r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(r1) < 4.0 / math.sqrt(res.replicas)


def test_jump_chain_marginal_matches_biased_probability():
    # empirical right-jump frequency at a pinned site matches omega+(lam)
    model = IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5))
    env = materialize(model, 3, (-3, 3))
    lam = 0.3
    _, plus = env.omega_biased(0, lam)
    trials = 4000
    res = ensemble_discrete(model, lam, 1, trials, 1000, shared_env=env)
    rights = int((res.final_positions == 1).sum())
    p_hat = rights / trials
    se = math.sqrt(plus * (1 - plus) / trials)
    assert abs(p_hat - plus) < 4 * se


def test_time_change_consistency():
    # the embedded jump chain of the continuous walk is the discrete walk on
    # the induced jump probabilities: compare step-direction frequencies
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    env = materialize(model, 21, (-200, 200))
    chain = env.jump_chain()
    lam = 0.5
    positions, _ = _replay_continuous(env, lam, 6, 2500.0)
    steps = np.diff(positions)
    sites = positions[:-1]
    for x in np.unique(sites)[:8]:
        mask = sites == x
        if mask.sum() < 50:
            continue
        _, plus = chain.omega_biased(int(x), lam)
        freq = float(np.mean(steps[mask] == 1))
        se = math.sqrt(plus * (1 - plus) / mask.sum())
        assert abs(freq - plus) < 4.5 * se


def test_continuous_holding_times_have_correct_mean():
    # at unit rates and lam = 0, holding times are Exp(2)
    env = materialize(PeriodicEnv(rates=((1.0, 1.0),)), 0, (-2, 2))
    _, times = _replay_continuous(env, 0.0, 9, 4000.0)
    holds = np.diff(times)
    assert abs(holds.mean() - 0.5) < 4 * holds.std() / math.sqrt(holds.size)


def test_reflection_equivariance_in_distribution():
    # two-sample check: final positions at lam vs negated finals at -lam with
    # independent seeds, compared by a coarse CDF distance
    from scipy.stats import ks_2samp
    model = IIDConductance(TWO_POINT)
    a = ensemble_discrete(model, 0.5, 400, 1500, 101).final_positions
    b = -ensemble_discrete(model, -0.5, 400, 1500, 202).final_positions
    assert ks_2samp(a, b).pvalue > 1e-4


# ---------------------------------------------------------------------------
# the block engine against the per-jump continuous rule it replaced
# ---------------------------------------------------------------------------

class _PerJumpLanes:
    """The continuous rule one jump of every lane at a time: holding time
    E/total, horizon check, the sums of E and p+ E over the holding times
    that end within the horizon, direction, move.  The reference that the
    block engine must match bit for bit."""

    def __init__(self, seed, rows, horizon):
        m = len(rows)
        self.horizon = horizon
        self.u_hold = BlockExponentials(seed, ("hold",), rows.start, m)
        self.u_dir = BlockUniforms(seed, ("dir",), rows.start, m)
        self.t, self.e_sum, self.pe_sum, self.seen = (np.zeros(m) for _ in range(4))
        self.active = np.ones(m, dtype=bool)

    def rebase(self, table, lut, offsets, lo, pos):
        self.codes, (self.total, self.wplus) = ((None, table) if lut is None
                                                else (table[0], lut))
        self.offsets, self.lo, self.gidx = offsets, lo, offsets - lo + pos

    def index(self):
        return self.gidx if self.codes is None else self.codes.take(self.gidx)

    def positions(self):
        return self.gidx - self.offsets + self.lo

    def step(self, k):
        active, e = self.active, self.u_hold.step(k)
        p = self.wplus.take(self.index())
        t_new = e / self.total.take(self.index()) + self.t
        if self.horizon is not None:
            active &= t_new <= self.horizon
            if k % 64 == 0:
                self.seen[active] = k
            np.add(self.e_sum, e, out=self.e_sum, where=active)
            np.add(self.pe_sum, p * e, out=self.pe_sum, where=active)
        right = (self.u_dir.step(k) <= p) & active
        self.gidx += 2 * right.astype(np.int64) - active
        np.copyto(self.t, t_new, where=active)

    def compensator(self):
        total = self.total.take(self.index())
        drift = total * (2.0 * self.wplus.take(self.index()) - 1.0)
        comp = 2.0 * self.pe_sum - self.e_sum + drift * (self.horizon - self.t)
        bound = (self.seen + 64 + 8.0) * (2.0 * self.e_sum + total * self.horizon)
        return comp, np.finfo(float).eps * float(bound.max())


def _per_jump_ensemble(model, lam, horizon, replicas, seed, *, shared_env=None,
                       range_cap=DEFAULT_RANGE_CAP, jump_budget=10**8,
                       target_level=None):
    """ensemble_continuous stepped one jump at a time, with the sweep, the
    window moves and the stops of the engine before blocks."""
    from rwrelab.walks import _ahead, _Tables
    tables = _Tables(model, seed, shared_env, lam, True, range(replicas))
    aborted = np.zeros(replicas, dtype=bool)
    values = np.full(replicas, np.nan) if target_level is not None else None
    end = None if target_level is not None else horizon
    lo, hi = -256, 256 if target_level is None else max(target_level, 0) + 64
    table, lut, offsets = tables.build(lo, hi)
    lanes = _PerJumpLanes(seed, range(replicas), end)
    lanes.rebase(table, lut, offsets, lo, 0)
    k = 0
    while lanes.active.any():
        lanes.step(k)
        k += 1
        if target_level is not None:
            arrived = lanes.active & (lanes.positions() == target_level)
            np.copyto(values, lanes.t, where=arrived)
            lanes.active &= ~arrived
        if k >= jump_budget:
            aborted |= lanes.active
            break
        if k % 64:
            continue
        pos = lanes.positions()
        mn, mx = int(pos.min()), int(pos.max())
        newly = lanes.active & (np.abs(pos) >= range_cap - 64)
        aborted |= newly
        lanes.active &= ~newly
        left, right = mn - 64 < lo, mx + 64 > hi
        if (left or right) and lanes.active.any():
            new_lo = (mn - _ahead(-mn, float(lanes.t[pos.argmin()]), end) if left
                      else max(lo, mn - 256))
            new_hi = (mx + _ahead(mx, float(lanes.t[pos.argmax()]), end) if right
                      else min(hi, mx + 256))
            new_lo, new_hi = max(new_lo, -range_cap - 1), min(new_hi, range_cap + 1)
            if new_lo < lo or new_hi > hi:
                table, lut, offsets = tables.build(new_lo, new_hi, (table, lo, hi))
                lo, hi = new_lo, new_hi
                lanes.rebase(table, lut, offsets, lo, pos)
    comp, rounding = (lanes.compensator() if target_level is None
                      else (None, 0.0))
    return EnsembleResult(lanes.positions(), aborted, replicas, float(horizon),
                          values, comp, rounding)


PER_JUMP_CASES = {
    # lanes cross the horizon at every row of a block
    "horizon": (CoinFlip(TWO_POINT, TWO_POINT), 0.8, 37.3, 300, 91, {}),
    # lanes frozen at the cap stand still while the others step on
    "range-capped": (C_TWO_POINT, 0.0, 2000.0, 60, 92, {"range_cap": 150}),
    # the window reaches the cap and is held there, next to frozen lanes
    "range-cap-held": (C_TWO_POINT, 1.0, 2000.0, 60, 92, {"range_cap": 300}),
    # 1000 jumps: the budget ends the run 40 steps into a block
    "jump-budget": (CoinFlip(TWO_POINT, TWO_POINT), 0.0, 1e6, 40, 93,
                    {"jump_budget": 1000}),
    # one lane: NumPy would sum a lone column pairwise, not in jump order
    "one-lane": (CoinFlip(TWO_POINT, TWO_POINT), 0.8, 300.0, 1, 97, {}),
    "target": (C_TWO_POINT, 0.5, math.inf, 300, 94, {"target_level": 3}),
    "shared-env": (None, 0.6, 200.0, 100, 95,
                   {"shared_env": materialize(C_TWO_POINT, 3, (-40, 40))}),
    "float64-table": (IIDConductance(ScalarDist.uniform(0.5, 2.0),
                                     time_flavor="continuous"),
                      0.7, 150.0, 100, 96, {}),
}


@pytest.mark.parametrize("case", sorted(PER_JUMP_CASES))
def test_block_engine_is_the_per_jump_rule(case):
    model, lam, horizon, replicas, seed, kw = PER_JUMP_CASES[case]
    want = _per_jump_ensemble(model, lam, horizon, replicas, seed, **kw)
    got = ensemble_continuous(model, lam, horizon, replicas, seed, **kw)
    for name in ("final_positions", "aborted", "values", "compensator"):
        a, b = getattr(want, name), getattr(got, name)
        assert (a is None and b is None) or np.array_equal(a, b, equal_nan=True)
    assert got.compensator_rounding == want.compensator_rounding
    if case == "range-capped":
        assert 0 < got.aborted.sum() < replicas
    if case in ("range-cap-held", "jump-budget"):
        assert got.aborted.all()
    if case == "target":
        assert np.isfinite(got.values).all()


def test_a_lane_leaving_its_row_raises():
    # a window narrower than the run's reach: four steps left take the
    # strongly biased lanes off their rows of 5 sites, into the row before
    # or (row 0) to a negative index that take() would wrap; the block
    # raises rather than read those sites
    from functools import partial
    from rwrelab.walks import _ContinuousLanes, _DiscreteLanes, _Tables, _walk
    for rule, model in ((partial(_ContinuousLanes, horizon=100.0, target=None),
                         C_TWO_POINT),
                        (partial(_DiscreteLanes, steps=4), IIDConductance(TWO_POINT))):
        rates = rule.func is _ContinuousLanes
        tables = _Tables(model, 7, None, -3.0, rates, range(3))
        with pytest.raises(IndexError):
            _walk(rule, tables, (-2, 2), DEFAULT_RANGE_CAP, 100.0,
                  jump_budget=4)


def test_block_schedule(monkeypatch):
    # the engine reads each stream's uniforms as one rows(t, stop) call per
    # block: 0-16, then 16-48, then up to each sweep, cut at the jump budget
    # and at a discrete walk's last step
    calls = []
    rows = BlockUniforms.rows

    def recorded(self, t, stop):
        calls.append((t, stop))
        return rows(self, t, stop)

    monkeypatch.setattr(BlockUniforms, "rows", recorded)
    runs = {
        "discrete": lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.5,
                                              200, 300, 75),
        "target": lambda: ensemble_continuous(C_TWO_POINT, 0.2, math.inf,
                                              10_000, 74, target_level=3),
        "budget": lambda: ensemble_continuous(CoinFlip(TWO_POINT, TWO_POINT),
                                              0.0, 1e6, 40, 93, jump_budget=100),
    }
    for name, run in runs.items():
        calls.clear()
        run()
        blocks = calls if name == "discrete" else calls[::2]
        if name != "discrete":   # holding times and directions: the same blocks
            assert calls[1::2] == blocks
        assert blocks[:2] == [(0, 16), (16, 48)]
        assert [t for t, _ in blocks[1:]] == [stop for _, stop in blocks[:-1]]
        for t, stop in blocks:
            assert 0 < stop - t <= 64 and (stop - 1) // 64 == t // 64
        if name == "discrete":
            assert blocks[2:] == [(48, 64), (64, 128), (128, 192), (192, 200)]
        if name == "target":   # runs past the first sweep
            assert blocks[2:4] == [(48, 64), (64, 128)]
        if name == "budget":
            assert blocks[-1] == (64, 100)


# ---------------------------------------------------------------------------
# golden ensemble outputs (BLAKE2b digests recorded from the engines with
# fixed 1024-step uniform refills and tuple-seeded streams; the range-capped
# and budget cases from the two separate ensemble loops before the merge)
# ---------------------------------------------------------------------------

def _ensemble_digest(res):
    h = hashlib.blake2b(digest_size=16)
    h.update(res.final_positions.tobytes())
    h.update(res.aborted.tobytes())
    if res.values is not None:
        h.update(res.values.tobytes())
    return h.hexdigest()


def _negated(res):
    res.final_positions = -res.final_positions
    return res


GOLDEN_ENSEMBLES = {
    "discrete-annealed": (
        lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.6, 1500, 300, 71),
        "868af03dbbbae602dae3e48c20708fec"),
    "discrete-shared-env": (
        lambda: ensemble_discrete(
            IIDConductance(TWO_POINT), 0.4, 30, 3000, 72,
            shared_env=materialize(IIDConductance(TWO_POINT), 5, (-40, 40))),
        "1522a63922f5d5dbc9c1cbf475530f29"),
    "continuous-horizon": (
        lambda: ensemble_continuous(CoinFlip(TWO_POINT, TWO_POINT), 0.8, 400.0,
                                    300, 73),
        "539f573103fb2b9844cb77721c84bae7"),
    "continuous-target-level": (
        lambda: ensemble_continuous(C_TWO_POINT, 1.0, math.inf, 2000, 74,
                                    target_level=1),
        "0cb61f885927eeab2796ce94c4699ee9"),
    "discrete-offset-range": (
        lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.5, 200, 2500, 75,
                                  replica_offset=700),
        "d97e33baf3f7db570cff8ffc6fe6a379"),
    "continuous-offset-range": (
        lambda: ensemble_continuous(C_TWO_POINT, 0.5, 20.0, 2500, 75,
                                    replica_offset=700),
        "1d7d36bd241eb429a6309a8f9e66614b"),
    "discrete-range-capped": (   # 42 lanes frozen near the cap, the rest step on
        lambda: ensemble_discrete(IIDConductance(TWO_POINT), 0.0, 3000, 300, 5,
                                  range_cap=150),
        "1fd7f23b1c951f0ec1985143dbb06aec"),
    "continuous-target-budget": (   # target, range cap and jump budget all bind
        lambda: ensemble_continuous(C_TWO_POINT, 0.2, math.inf, 300, 5,
                                    range_cap=200, target_level=150,
                                    jump_budget=3000),
        "0c8a214ebca5248c3bac684d7636b860"),
    # recorded from the mirrored=True runs at -0.7, which were the plain runs
    # at +0.7 with the final positions negated
    "discrete-mirrored": (
        lambda: _negated(ensemble_discrete(IIDConductance(TWO_POINT), 0.7, 1100,
                                           200, 76)),
        "1e3f8fc320461b4416b5620bb8d63c25"),
    "continuous-mirrored": (
        lambda: _negated(ensemble_continuous(CoinFlip(TWO_POINT, TWO_POINT), 0.7,
                                             60.0, 200, 76)),
        "002646b452c34c7402338ccc56f1421b"),
    # recorded from per-replica environment builds
    "discrete-iid-omega": (   # a three-atom law: the searchsorted map
        lambda: ensemble_discrete(
            IIDOmega(ScalarDist.empirical([0.5, 1.0, 2.0], [0.3, 0.4, 0.3])),
            0.3, 800, 300, 81),
        "01376d8f3409787de375b4ca089f83d0"),
    "continuous-constant-target-level": (   # the tau_1 shape on a constant law
        lambda: ensemble_continuous(IIDConductance(CONST, time_flavor="continuous"),
                                    1.0, math.inf, 2000, 82, target_level=1),
        "85fb07e0c81edc380a39b00922fe56b0"),
    "continuous-wide-seed-offset": (   # replica entropy grows to two words mid-chunk
        lambda: ensemble_continuous(
            IIDConductance(ScalarDist.uniform(1.0, 10.0), time_flavor="continuous"),
            0.5, 50.0, 16, 2**64 + 83, replica_offset=2**32 - 8),
        "32d24de539dc66f53a00054031b48a12"),
    "continuous-coinflip-mixed": (   # 96 heads rows of 200; a+ and a- differ
        lambda: ensemble_continuous(
            CoinFlip(ScalarDist.two_point(1.0, 3.0, 0.4), ScalarDist.uniform(0.5, 1.5)),
            0.5, 100.0, 200, 84),
        "418e537b34aea3bcd07cca4b5f44f03b"),
    "discrete-renewal": (   # renewal points drawn per replica, no closed-form v
        lambda: ensemble_discrete(Renewal(1.5, 3.0), 0.6, 1000, 200, 85),
        "a869c65d9f7c6246fa68e4ec1efb7a82"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ENSEMBLES))
def test_ensemble_golden(case):
    run, digest = GOLDEN_ENSEMBLES[case]
    assert _ensemble_digest(run()) == digest


# per-lane compensators D_t of two horizon runs above, recorded from the
# continuous step rule that sums E and p+ E over the complete holding times
GOLDEN_COMPENSATORS = {
    "continuous-horizon": "0c42b7fbb0d62f2a8feb80e283acd070",
    "continuous-coinflip-mixed": "25004407c42ddd046b6176c1f637c29a",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_COMPENSATORS))
def test_compensator_golden(case):
    res = GOLDEN_ENSEMBLES[case][0]()
    digest = hashlib.blake2b(res.compensator.tobytes(), digest_size=16).hexdigest()
    assert digest == GOLDEN_COMPENSATORS[case]
