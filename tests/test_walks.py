import hashlib
import math

import numpy as np
import pytest

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv,
                     RangeCapExceeded, ScalarDist, dump_trajectory,
                     ensemble_continuous, ensemble_discrete, first_passage,
                     materialize, run_continuous, run_discrete)
from rwrelab.environments import bias_omega, bias_rates

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
CONST = ScalarDist.constant(1.0)


# ---------------------------------------------------------------------------
# single trajectories
# ---------------------------------------------------------------------------

def test_zero_steps_stays_home():
    env = materialize(IIDConductance(CONST), 0, (-2, 2))
    traj = run_discrete(env, 0.0, 0, seed=1)
    assert traj.final_position == 0 and traj.n_steps == 0


def test_huge_field_forces_straight_line():
    env = materialize(IIDConductance(TWO_POINT), 2, (-2, 2))
    traj = run_discrete(env, 40.0, 500, seed=3, record_path=True)
    assert traj.final_position == 500
    assert np.array_equal(traj.positions, np.arange(501))
    assert traj.hitting_times == {}


def test_discrete_replay_is_bit_exact():
    env = materialize(IIDConductance(TWO_POINT), 5, (-4, 4))
    a = run_discrete(env, 0.8, 5000, seed=11, record_path=True)
    b = run_discrete(env, 0.8, 5000, seed=11, record_path=True)
    assert np.array_equal(a.positions, b.positions)
    assert np.all(np.abs(np.diff(a.positions)) == 1)   # nearest-neighbor steps
    c = run_discrete(env, 0.8, 5000, seed=12)
    assert c.final_position != a.final_position or c.min_position != a.min_position


def test_continuous_zero_horizon():
    env = materialize(PeriodicEnv(rates=((1.0, 1.0),)), 0, (-2, 2))
    traj = run_continuous(env, 0.0, 0.0, seed=1)
    assert traj.final_position == 0 and traj.n_steps == 0


def test_continuous_hitting_times_increase():
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"),
                      4, (-4, 4))
    traj = run_continuous(env, 1.2, 100.0, seed=7, hitting_levels=[1, 2, 3, 5])
    ts = [traj.hitting_times[k] for k in (1, 2, 3, 5)]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_range_cap_is_a_distinct_signal():
    env = materialize(IIDConductance(CONST), 0, (-2, 2))
    with pytest.raises(RangeCapExceeded):
        run_discrete(env, 5.0, 2000, seed=1, range_cap=100)
    renv = materialize(PeriodicEnv(rates=((1.0, 1.0),)), 0, (-2, 2))
    with pytest.raises(RangeCapExceeded):
        run_continuous(renv, 5.0, 1e6, seed=1, range_cap=100)


def test_jump_budget_guard_is_a_distinct_signal():
    from rwrelab import JumpBudgetExceeded
    renv = materialize(PeriodicEnv(rates=((50.0, 50.0),)), 0, (-2, 2))
    with pytest.raises(JumpBudgetExceeded):
        run_continuous(renv, 0.0, 1e7, seed=1, jump_budget=500)
    res = ensemble_continuous(PeriodicEnv(rates=((50.0, 50.0),)), 0.0, 1e7,
                              32, 5, jump_budget=200)
    assert res.aborted.all()


def test_trajectory_dump(tmp_path):
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"),
                      4, (-4, 4))
    traj = run_continuous(env, 0.5, 10.0, seed=2, record_path=True)
    path = tmp_path / "traj.csv"
    dump_trajectory(traj, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "time,position"
    assert len(lines) == len(traj.positions) + 1
    with pytest.raises(ValueError):
        dump_trajectory(run_continuous(env, 0.5, 1.0, seed=2), path)


# ---------------------------------------------------------------------------
# first passage
# ---------------------------------------------------------------------------

def test_first_passage_structure():
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"),
                      9, (-4, 4))
    rec = first_passage(env, 1.0, 6, seed=3)
    assert rec.completed
    assert rec.passage_times.shape == (6,)
    assert np.all(np.diff(rec.passage_times) > 0)
    assert np.all(rec.increments > 0)
    assert rec.passage_times[-1] == pytest.approx(rec.increments.sum(), rel=1e-12)


def test_first_passage_budget_exhaustion():
    env = materialize(IIDConductance(CONST), 1, (-4, 4))
    rec = first_passage(env, -2.0, 3, seed=5, budget=500)   # drifting away
    assert not rec.completed
    assert rec.n_steps == 500


def test_first_passage_discrete_ballistic_limit():
    env = materialize(IIDConductance(CONST), 1, (-4, 4))
    rec = first_passage(env, 6.0, 50, seed=5)
    assert rec.completed
    assert rec.passage_times[-1] == pytest.approx(50, rel=0.1)


# ---------------------------------------------------------------------------
# single run = replica 0 of the shared-environment ensemble
# ---------------------------------------------------------------------------

def test_run_discrete_is_replica_zero_of_the_ensemble():
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 8, (-4, 4))
    for lam, n, seed in ((0.7, 3000, 41), (0.0, 777, 42), (-1.5, 64, 43)):
        traj = run_discrete(env, lam, n, seed)
        res = ensemble_discrete(model, lam, n, 1, seed, shared_env=env)
        assert traj.final_position == res.final_positions[0]
        assert traj.elapsed == res.elapsed


def test_run_continuous_is_replica_zero_of_the_ensemble():
    for model in (IIDConductance(TWO_POINT, time_flavor="continuous"),
                  CoinFlip(TWO_POINT, TWO_POINT)):
        env = materialize(model, 8, (-4, 4))
        for lam, horizon, seed in ((0.8, 300.0, 41), (0.0, 150.0, 42)):
            traj = run_continuous(env, lam, horizon, seed, record_path=True)
            res = ensemble_continuous(model, lam, horizon, 1, seed,
                                      shared_env=env)
            assert traj.final_position == res.final_positions[0]
            assert traj.elapsed == res.elapsed
            assert traj.times[-1] <= horizon


def test_first_passage_is_the_target_level_run():
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"), 9,
                      (-4, 4))
    for level, seed in ((1, 51), (7, 52)):
        rec = first_passage(env, 0.9, level, seed)
        res = ensemble_continuous(None, 0.9, math.inf, 1, seed, shared_env=env,
                                  target_level=level)
        assert rec.completed
        assert rec.passage_times[-1] == res.values[0]
        assert res.final_positions[0] == level


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_matches_per_replica_environments(monkeypatch):
    # the engine's per-replica tables must equal the library materialization;
    # blocks of 3 rows (width 21) split the rows across the replica block at 1024
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

    three_atoms = ScalarDist.empirical([0.5, 1.0, 2.0], [0.3, 0.4, 0.3])
    for model, rates, row in (
            (IIDConductance(TWO_POINT), False, discrete_row),
            (IIDConductance(CONST), False, discrete_row),
            (IIDOmega(three_atoms), False, discrete_row),
            (IIDConductance(TWO_POINT, time_flavor="continuous"), True, rate_row),
            (IIDConductance(CONST, time_flavor="continuous"), True, rate_row),
            (CoinFlip(TWO_POINT, TWO_POINT), True, rate_row),
            (CoinFlip(CONST, ScalarDist.uniform(0.5, 1.5)), True, rate_row),
            (PeriodicEnv(rates=((1.0, 2.0), (3.0, 0.5), (2.0, 2.0))), True, rate_row)):
        fields, offsets = _Tables(model, seed, None, lam, rates).build(rows, lo, hi)
        assert len(fields) == (2 if rates else 1)
        for k, r in enumerate(rows):
            want = row(materialize(model, seed, (lo, hi), replica=r))
            for flat, values in zip(fields, want):
                assert np.array_equal(flat[offsets[k]:offsets[k] + width], values)
        env = materialize(model, seed + 1, (-4, 4), replica=5)
        fields, offsets = _Tables(None, seed, env, lam, rates).build(range(3), lo, hi)
        assert np.array_equal(offsets, np.zeros(3))
        for flat, values in zip(fields, row(env)):
            assert np.array_equal(flat, values)


def test_ensemble_chunking_invariance(monkeypatch):
    import rwrelab.walks
    model = IIDConductance(TWO_POINT)
    monkeypatch.setattr(rwrelab.walks, "_MEM_BUDGET", 1e9)
    big = ensemble_discrete(model, 0.6, 400, 300, 77)
    monkeypatch.setattr(rwrelab.walks, "_MEM_BUDGET", 2e5)   # 64-row chunks
    small = ensemble_discrete(model, 0.6, 400, 300, 77)
    assert np.array_equal(big.final_positions, small.final_positions)


def test_ensemble_range_cap_marks_aborted():
    model = IIDConductance(CONST)
    res = ensemble_discrete(model, 3.0, 3000, 64, 5, range_cap=400)
    assert res.aborted.all()
    res2 = ensemble_discrete(model, 0.0, 3000, 64, 5, range_cap=400)
    assert not res2.aborted.any()


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
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)), 3, (-3, 3))
    lam = 0.3
    _, plus = env.omega_biased(0, lam)
    rights = 0
    trials = 4000
    for k in range(trials):
        traj = run_discrete(env, lam, 1, seed=1000 + k)
        rights += traj.final_position == 1
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
    traj = run_continuous(env, lam, 2500.0, seed=6, record_path=True)
    steps = np.diff(traj.positions)
    sites = traj.positions[:-1]
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
    traj = run_continuous(env, 0.0, 4000.0, seed=9, record_path=True)
    holds = np.diff(traj.times)
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


C_TWO_POINT = IIDConductance(TWO_POINT, time_flavor="continuous")

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
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ENSEMBLES))
def test_ensemble_golden(case):
    run, digest = GOLDEN_ENSEMBLES[case]
    assert _ensemble_digest(run()) == digest
