import concurrent.futures
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, Renewal,
                     ScalarDist, annealed_diffusion, annealed_tau1,
                     annealed_velocity, einstein_slope, ensemble_continuous,
                     ensemble_discrete, exact_product_moment,
                     exact_walk_distribution, materialize,
                     renewal_product_moment, sigma2_iid_omega,
                     sigma2_of_model, tau1_tail, rcm_discrete_taylor,
                     velocity_iid_omega, velocity_jump_probe,
                     velocity_of_model, velocity_rcm_discrete)
from rwrelab import estimators, special
from rwrelab.estimators import Estimate, ScalingFit, _run_ensemble
from rwrelab.rng import generator

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
CONST = ScalarDist.constant(1.0)
RHO_TWO_POINT = ScalarDist.two_point(0.5, 2.0, 0.5)
EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_estimate_from_samples():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    est = Estimate.from_samples(x)
    assert est.mean == 2.5
    assert est.std_error == pytest.approx(np.std(x, ddof=1) / 2.0, rel=1e-14)
    assert est.ci95 == pytest.approx((est.mean - 1.96 * est.std_error,
                                      est.mean + 1.96 * est.std_error))
    with pytest.raises(ValueError):
        Estimate.from_samples([1.0])


def test_scaling_fit_recovers_power_law():
    ns = np.array([10, 30, 100, 300, 1000])
    fit = ScalingFit.from_points(ns, 5.0 * ns ** (-1.7))
    assert fit.slope == pytest.approx(-1.7, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-12)
    assert fit.slope_std_error == pytest.approx(0.0, abs=1e-10)


def test_velocity_of_model_dispatch():
    assert velocity_of_model(IIDConductance(TWO_POINT), 0.5).v == \
        pytest.approx(velocity_rcm_discrete(0.5, 1.5, 0.75).v)
    assert velocity_of_model(IIDOmega(ScalarDist.two_point(0.5, 2, 0.5)), 0.05).v == 0.0
    assert velocity_of_model(PeriodicEnv(omega=(0.5,)), 1.0).v == \
        pytest.approx(math.tanh(1.0), rel=1e-13)
    with pytest.raises(ValueError):
        velocity_of_model(Renewal(2.0, 3.0), 0.5)
    with pytest.raises(ValueError):
        velocity_of_model(CoinFlip(TWO_POINT, ScalarDist.constant(1.3)), 0.5)


def test_sigma2_of_model_dispatch():
    assert sigma2_of_model(IIDConductance(TWO_POINT), 0.0) == \
        pytest.approx(1 / 1.125)
    assert sigma2_of_model(IIDOmega(ScalarDist.two_point(0.5, 2, 0.5)), 0.05) is None
    assert sigma2_of_model(Renewal(2.0, 3.0), 1.0) is None
    # v > 0 but E[rho^2] e^{-4 lam} >= 1: an infinite diffusivity, not a
    # missing one
    assert sigma2_of_model(IIDOmega(RHO_TWO_POINT), 0.15) == math.inf


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def test_annealed_velocity_deterministic_case():
    est = annealed_velocity(IIDConductance(CONST), 1.0, n=4000, replicas=600,
                            seed=5)
    assert abs(est.mean - math.tanh(1.0)) < 3 * est.std_error
    assert est.count == 600 and est.excluded == 0


def test_annealed_velocity_rounding_bound_on_deterministic_laws():
    # constant rates (and period 2 in discrete time) give every lane the same
    # D, so the s.e. is the rounding bound alone, and it covers the distance
    # to v: 2 n eps on D_n/n; on D_t/t the ensemble's bound, of order eps
    # times the jump count times the total rate (about 3 rate^2 t eps)
    n = 4000
    bound = 2 * n * np.finfo(float).eps
    for model, lam in ((IIDConductance(CONST), 1.0), (IIDConductance(CONST), -0.3),
                       (PeriodicEnv(omega=(0.3, 0.8)), 0.5)):
        est = annealed_velocity(model, lam, n=n, replicas=600, seed=5)
        assert est.std_error == pytest.approx(bound, rel=1e-9)
        assert abs(est.mean - velocity_of_model(model, lam).v) <= bound
    est = annealed_velocity(IIDConductance(CONST), 1.0, n=n, replicas=600, seed=5)
    assert abs(est.mean - math.tanh(1.0)) <= bound
    horizon, eps = 200.0, np.finfo(float).eps
    const = IIDConductance(CONST, time_flavor="continuous")
    for model, lam, (r_minus, r_plus) in (
            (const, 1.0, (1.0, 1.0)), (const, -0.3, (1.0, 1.0)),
            (PeriodicEnv(rates=((1.0, 2.0),)), 0.5, (1.0, 2.0))):
        est = annealed_velocity(model, lam, horizon=horizon, replicas=200, seed=5)
        bound = _run_ensemble(model, lam, 200, 5, horizon=horizon) \
            .compensator_rounding / horizon
        rate = r_minus * math.exp(-lam) + r_plus * math.exp(lam)
        assert 0 < bound <= 5 * rate**2 * horizon * eps
        assert est.std_error == pytest.approx(bound, rel=1e-6)
        assert abs(est.mean - velocity_of_model(model, lam).v) <= bound


def test_compensator_mean_matches_the_exact_walk_law():
    # in one environment E[D_n] = E[X_n], whose exact value the DP gives
    model = IIDConductance(TWO_POINT)
    env = materialize(model, 12, (-40, 40))
    for lam, seed in ((0.0, 61), (0.4, 62), (-1.0, 63)):
        res = ensemble_discrete(model, lam, 40, 20000, seed, shared_env=env)
        d = res.compensator
        want = exact_walk_distribution(env, lam, 40).mean()
        assert abs(d.mean() - want) < 4 * d.std(ddof=1) / math.sqrt(d.size)


def test_continuous_compensator_is_unbiased_for_the_position():
    # Y_t - D_t is a mean-zero martingale, so in one environment the paired
    # mean of D_t - Y_t is 0; without its censored last holding time, D_t
    # would be low by about tanh(lam) per lane (10-20 s.e. here)
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    env = materialize(model, 14, (-100, 100))
    for lam, seed in ((0.5, 65), (1.0, 66)):
        res = ensemble_continuous(model, lam, 10.0, 20000, seed, shared_env=env)
        d = res.compensator - res.final_positions
        assert abs(d.mean()) < 4 * d.std(ddof=1) / math.sqrt(d.size)


def test_annealed_velocity_zero_field_is_zero():
    est = annealed_velocity(IIDConductance(TWO_POINT), 0.0, n=4000,
                            replicas=600, seed=6)
    assert abs(est.mean) < 3 * est.std_error


def test_iid_omega_velocity_matches_closed_form():
    # both atoms of rho(lam) = rho e^-2lam below 1: no site traps the walk,
    # so D_n/n at n = 1e4 is already at the limit
    for lam in (0.5, 1.0):
        est = annealed_velocity(IIDOmega(RHO_TWO_POINT), lam, n=10_000,
                                replicas=2000, seed=5)
        ref = velocity_iid_omega(lam, RHO_TWO_POINT.moment(1),
                                 RHO_TWO_POINT.moment(-1)).v
        assert est.excluded == 0
        assert abs(est.mean - ref) <= 3 * est.std_error


def test_workers_do_not_change_results():
    model = IIDConductance(TWO_POINT)
    e1 = annealed_velocity(model, 0.5, n=400, replicas=250, seed=23, workers=1)
    e2 = annealed_velocity(model, 0.5, n=400, replicas=250, seed=23, workers=3)
    assert e1 == e2


def test_workers_do_not_change_continuous_results():
    # both step rules through the pool: horizon runs and target_level=1 runs;
    # at horizon 20 a rounding bound taken from a chunk's step count, not
    # each lane's, would differ between one worker and three
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    for kw in ({"horizon": 60.0}, {"horizon": 20.0},
               {"horizon": math.inf, "target_level": 1}):
        one = _run_ensemble(model, 0.7, 250, 29, workers=1, **kw)
        three = _run_ensemble(model, 0.7, 250, 29, workers=3, **kw)
        assert np.array_equal(one.final_positions, three.final_positions)
        assert np.array_equal(one.aborted, three.aborted)
        if one.values is not None:
            assert np.array_equal(one.values, three.values)
        else:
            assert np.array_equal(one.compensator, three.compensator)
            assert one.compensator_rounding == three.compensator_rounding
    e1 = annealed_velocity(model, 0.5, horizon=60.0, replicas=250, seed=23)
    e3 = annealed_velocity(model, 0.5, horizon=60.0, replicas=250, seed=23,
                           workers=3)
    assert e1 == e3


def test_worker_pool_is_sized_by_its_replica_ranges(monkeypatch):
    # fork starts every worker of a pool up front: 3 replicas on 8 workers
    # open a pool of 3, whose ranges give the one-worker run bit for bit
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    model = IIDConductance(TWO_POINT)
    one = _run_ensemble(model, 0.5, 3, 31, n=300, workers=1, variation=True)
    eight = _run_ensemble(model, 0.5, 3, 31, n=300, workers=8, variation=True)
    assert opened == [3]
    for name in ("final_positions", "aborted", "compensator", "variation"):
        assert np.array_equal(getattr(one, name), getattr(eight, name))
    assert one.compensator_rounding == eight.compensator_rounding


def test_range_cap_exclusion_counted():
    est = annealed_velocity(IIDConductance(CONST), 0.0, n=2000, replicas=64,
                            seed=3, range_cap=110)
    assert est.excluded > 0
    assert est.count + est.excluded == 64


# ---------------------------------------------------------------------------
# diffusion
# ---------------------------------------------------------------------------

def test_annealed_diffusion_symmetric_walk():
    # lam = 0 deterministic: variance of X_n/sqrt(n) is exactly 1
    res = annealed_diffusion(IIDConductance(CONST), 0.0, n=2500, replicas=3000,
                             seed=11)
    se = res.variance.std_error
    assert abs(res.variance.mean - 1.0) < 4 * se
    assert res.ks_distance < 0.05
    assert res.sigma2_ref == pytest.approx(1.0)


def test_annealed_diffusion_ks_with_an_infinite_diffusivity():
    # between lam_plus and log(E[rho^2])/4, Z is standardized by its sample
    # s.d.; dividing by sqrt(inf) would map every Z to 0, a distance of 1/2
    res = annealed_diffusion(IIDOmega(RHO_TWO_POINT), 0.15, n=2000,
                             replicas=2000, seed=3)
    assert res.sigma2_ref == math.inf
    assert 0 < res.ks_distance < 0.5


def test_iid_omega_diffusivity_matches_closed_form():
    for lam in (0.6, 1.0, 1.5):
        res = annealed_diffusion(IIDOmega(RHO_TWO_POINT), lam, n=4000,
                                 replicas=10_000, seed=5)
        ref = sigma2_iid_omega(lam, RHO_TWO_POINT.moment(1),
                               RHO_TWO_POINT.moment(2)).sigma2
        assert res.variance.excluded == 0
        assert abs(res.variance.mean - ref) <= 3 * res.variance.std_error


def test_iid_omega_diffusivity_on_the_left_half_line():
    # on an asymmetric law the left half-line is not the mirror of the right
    # one: sigma2 at -0.5 is the reflected law's (rho -> 1/rho) at +0.5
    rho = ScalarDist.two_point(0.5, 3.0, 0.5)
    res = annealed_diffusion(IIDOmega(rho), -0.5, n=16000, replicas=2000, seed=3)
    ref = sigma2_iid_omega(0.5, rho.moment(-1), rho.moment(-2)).sigma2
    assert res.sigma2_ref == ref == pytest.approx(1.3504435112017639, rel=1e-12)
    assert res.variance.excluded == 0
    assert abs(res.variance.mean - ref) <= 3 * res.variance.std_error


def test_split_second_moment_matches_exact_law():
    # E[M_n^2] = E[Q_n] holds quenched: on one environment the mean of the
    # split samples is the exact law's E[(X_n - c)^2]/n for any centre c
    model = IIDConductance(TWO_POINT)
    n = 30
    env = materialize(model, 31, (-n, n))
    res = ensemble_discrete(model, 1.0, n, 100_000, 32, shared_env=env,
                            variation=True)
    dist = exact_walk_distribution(env, 1.0, n)
    v = velocity_of_model(model, 1.0).v
    for c in (0.0, v * n):
        y, rounding = estimators._split_samples(res, c)
        est = Estimate.from_samples(y)
        want = float(np.dot((dist.support - c) ** 2, dist.pmf)) / n
        assert abs(est.mean - want) <= 4 * est.std_error
        assert rounding < 1e-12


def test_diffusion_workers_do_not_change_results():
    model = IIDConductance(TWO_POINT)
    one = annealed_diffusion(model, 0.7, n=400, replicas=250, seed=17, workers=1)
    two = annealed_diffusion(model, 0.7, n=400, replicas=250, seed=17, workers=2)
    assert one.variance == two.variance
    assert one.sample_variance == two.sample_variance
    assert one.ks_distance == two.ks_distance


def test_diffusion_split_within_three_se_in_most_batches():
    # the split estimate's s.e. is about a tenth of the plain one's here, so
    # a bias the plain s.e. hides would show as |z| > 3
    model = IIDConductance(TWO_POINT)
    target = sigma2_of_model(model, 1.0)
    zs = []
    for k in range(20):
        res = annealed_diffusion(model, 1.0, n=1000, replicas=1000, seed=7000 + k)
        assert res.variance.std_error < 0.2 * res.sample_variance.std_error
        zs.append((res.variance.mean - target) / res.variance.std_error)
    zs = np.array(zs)
    assert (np.abs(zs) > 3).sum() <= 1
    assert abs(zs.mean()) <= 1


def test_ks_distance_shrinks_with_replicas():
    model = IIDConductance(CONST)
    small = annealed_diffusion(model, 0.0, n=2500, replicas=300, seed=4)
    big = annealed_diffusion(model, 0.0, n=2500, replicas=8000, seed=4)
    assert big.ks_distance < small.ks_distance


def test_ks_distance_is_scipys_kstest_statistic():
    from scipy.stats import kstest
    gen = np.random.default_rng(8)
    for n in (1, 2, 3, 17, 3000):
        x = gen.standard_normal(n) * 1.3 + 0.1
        for sample in (x, np.round(x * 20) / 20):   # the second has ties
            assert estimators._ks_to_normal(sample) == kstest(sample, "norm").statistic


def test_import_leaves_scipy_out():
    # SciPy is not a runtime dependency: importing it took most of the
    # package's import time, for two special functions now in rwrelab.special.
    # The process pool, and with it multiprocessing, is imported only by a
    # run on more than one worker
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(estimators.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for module in ("rwrelab", "rwrelab.cli"):
        out = subprocess.run(
            [sys.executable, "-c",
             f"import sys, {module}; print(sorted(m for m in sys.modules"
             " if m.split('.')[0] in ('scipy', 'multiprocessing')"
             " or m == 'concurrent.futures.process'))"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]", module


# ---------------------------------------------------------------------------
# Einstein table
# ---------------------------------------------------------------------------

def test_einstein_analytic_rows_converge_to_limit():
    model = IIDConductance(TWO_POINT)
    table = einstein_slope(model, [0.2, 0.1, 0.01, 0.001], n=100, replicas=16,
                           seed=1)
    assert table.limit == pytest.approx(1 / 1.125)
    a1 = rcm_discrete_taylor(1.5, 0.75)[1]
    errs = [abs(r.analytic_slope - a1 * r.h - table.limit) for r in table.rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-5
    for r in table.rows:
        assert r.bias_term == r.analytic_slope - table.limit
        assert r.mc_corrected == r.mc_slope - r.bias_term


def test_einstein_continuous_flavor():
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    table = einstein_slope(model, [0.05], n=100, replicas=16, seed=1)
    assert table.limit == pytest.approx(2 / 0.75)
    # the exact v(h)/h - limit = (2/E[1/c]) (sinh(h)/h - 1) = O(h^2)
    assert table.rows[0].bias_term == pytest.approx(
        2 / 0.75 * (math.sinh(0.05) / 0.05 - 1), rel=1e-9)
    assert table.rows[0].analytic_slope == pytest.approx(table.limit, rel=1e-3)


def test_einstein_mc_flags_noise_domination():
    model = IIDConductance(TWO_POINT)
    table = einstein_slope(model, [1e-4], n=100, replicas=16, seed=2)
    assert table.rows[0].noise_dominated


# ---------------------------------------------------------------------------
# first passage
# ---------------------------------------------------------------------------

def test_tau1_matches_crossing_series_mean():
    # E[tau_1] = E[1/c]/(e^lam - e^-lam) for the continuous RCM
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    lam = 1.0
    target = 0.75 / (2 * math.sinh(lam))
    est = annealed_tau1(model, lam, 3000, seed=8)
    assert abs(est.mean - target) < 3 * est.std_error


def test_tau1_matches_periodic_oracle():
    from rwrelab import exact_tau1_periodic_continuous
    env = PeriodicEnv(rates=((1.0, 2.0), (0.7, 1.1)))
    lam = 0.9
    exact = exact_tau1_periodic_continuous(env, lam)
    est = annealed_tau1(env, lam, 4000, seed=19)
    assert abs(est.mean - exact) < 3 * est.std_error


def test_tau1_forced_jump_is_exponential_mean():
    # with r+ = 1 and a huge field the first passage is ~Exp(e^lam)
    lam = 6.0
    env = PeriodicEnv(rates=((1.0, 1.0),))
    est = annealed_tau1(env, lam, 4000, seed=21)
    assert abs(est.mean - math.exp(-lam)) < 4 * est.std_error


def test_velocity_within_three_se_in_most_batches():
    # the 3-s.e. agreement criterion holds in >= 99% of repeated fixed-seed
    # batches; at 40 batches allow at most one excursion (a random law: on a
    # constant one D_n is deterministic)
    model = IIDConductance(TWO_POINT)
    target = velocity_rcm_discrete(0.8, 1.5, 0.75).v
    misses = 0
    for k in range(40):
        est = annealed_velocity(model, 0.8, n=900, replicas=500, seed=5000 + k)
        misses += abs(est.mean - target) > 3 * est.std_error
    assert misses <= 1


# ---------------------------------------------------------------------------
# renewal estimators vs the exact recursion oracle
# ---------------------------------------------------------------------------

def test_exact_recursion_matches_closed_n0():
    zg = float(hurwitz_zeta(3.0, 1.0))
    assert exact_product_moment(3.0, 0)[0] == pytest.approx(1 - 1 / (2 * zg),
                                                            rel=1e-12)


def test_renewal_product_moment_vs_exact():
    gamma = 3.0
    grid = [0, 1, 2, 5, 10, 20, 50]
    exact = exact_product_moment(gamma, 50)
    rs = renewal_product_moment(gamma, grid, replicas=60_000, seed=77)
    for nn, est in zip(rs.grid, rs.estimates):
        assert abs(est.mean - exact[nn]) < 4 * est.std_error
    # exact lower bound holds pointwise
    for est, lb in zip(rs.estimates, rs.lower_bounds):
        assert est.mean >= lb - 3 * est.std_error
    assert rs.fit is None or rs.fit.slope < 0


def test_renewal_product_moment_vs_exact_on_acceptance_grid():
    # the renewal-scaling grid at a fifth of its replicas: an estimator that
    # misses a rare event sits low by many of its own (too small) standard
    # errors here even when the slope and lower-bound clauses hold
    grid = [100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000]
    exact = exact_product_moment(3.0, 10000)
    rs = renewal_product_moment(3.0, grid, replicas=20_000, seed=78)
    assert rs.truncation_bound == 2.0 ** -64
    for nn, est in zip(rs.grid, rs.estimates):
        assert abs(est.mean - exact[nn]) < 4 * est.std_error
        assert est.std_error < 1e-3 * est.mean


def test_renewal_moment_matches_tau1_tail_at_large_n():
    # E[Z_0...Z_n] -> P(tau_1 > n) as n grows: ratio close to 1 already at 100
    exact = exact_product_moment(3.0, 100)
    assert exact[100] == pytest.approx(tau1_tail(3.0, 100), rel=0.05)


def test_renewal_scaling_exact_slope_is_minus_two():
    # the scaling exponent checked on the exact curve rather than MC
    exact = exact_product_moment(3.0, 1000)
    ns = np.array([100, 200, 400, 1000])
    fit = ScalingFit.from_points(ns, exact[ns])
    assert abs(fit.slope + 2.0) < 0.05


def test_velocity_jump_probe_classifications():
    lam_plus = 0.5 * math.log(2.0)
    rows = velocity_jump_probe(2.0, 3.0, [lam_plus - 0.1, lam_plus,
                                          lam_plus + 0.1],
                               replicas=60_000, seed=31)
    below, at, above = rows
    assert below.classification == "diverging"
    assert below.v_estimate is None
    assert at.classification == "converging"
    assert at.term_slope is not None and at.term_slope < -1.5
    # v(lam_plus) > 0 by far more than 3 s.e., and near the exact recursion value
    v = at.v_estimate
    assert v.mean > 3 * v.std_error
    exact = exact_product_moment(3.0, 512)
    v_ref = 1.0 / (1.0 + 2.0 * exact.sum())
    assert v.mean == pytest.approx(v_ref, abs=5 * v.std_error + 2e-3)
    assert above.classification == "converging"
    assert above.v_estimate.mean > at.v_estimate.mean


def test_velocity_jump_probe_vs_exact_truncated_series():
    # v = 1/(1 + 2 sum_{i<=512} w^(i+1) E[Z_0...Z_i]) at lam_plus (w = 1) and
    # above it, at 2e4 replicas: within 4 s.e. of the exact recursion, with
    # an s.e. below 1e-3 of v
    lam_plus = 0.5 * math.log(2.0)
    rows = velocity_jump_probe(2.0, 3.0, [lam_plus, lam_plus + 0.1],
                               replicas=20_000, seed=12, i_max=512)
    exact = exact_product_moment(3.0, 512)
    for row in rows:
        assert row.classification == "converging"
        w = row.growth_factor ** (np.arange(513) + 1.0)
        v_ref = 1.0 / (1.0 + 2.0 * float(np.dot(w, exact)))
        v = row.v_estimate
        assert abs(v.mean - v_ref) < 4 * v.std_error
        assert v.std_error < 1e-3 * v.mean


def test_probe_rejects_bad_parameters():
    with pytest.raises(ValueError):
        velocity_jump_probe(-1.0, 3.0, [0.1], replicas=10, seed=1)
    with pytest.raises(ValueError):
        renewal_product_moment(1.5, [1, 2, 3], replicas=10, seed=1)
    for replicas in (0, 1):
        with pytest.raises(ValueError, match="replicas"):
            velocity_jump_probe(2.0, 3.0, [0.5], replicas=replicas, seed=1)
        with pytest.raises(ValueError, match="replicas"):
            renewal_product_moment(3.0, [1, 2, 3], replicas=replicas, seed=1)
    with pytest.raises(ValueError, match="i_max"):
        velocity_jump_probe(2.0, 3.0, [0.5], replicas=10, seed=1, i_max=-1)
    for grid in ([], [10, -5, 20], [10, 5, 10]):
        with pytest.raises(ValueError, match="grid"):
            renewal_product_moment(3.0, grid, replicas=10, seed=1)
    # the smallest valid inputs still run
    assert len(velocity_jump_probe(2.0, 3.0, [0.5], replicas=2, seed=1, i_max=0)) == 1
    assert renewal_product_moment(3.0, [0], replicas=2, seed=1).fit is None


def test_renewal_walks_agree_with_series_probe():
    # two fully independent routes to v(lam) above the jump threshold: the
    # trajectory ensemble on materialized renewal environments, and the
    # reciprocal of the probe's crossing-series estimate
    a, gamma = 2.0, 3.0
    lam = 0.5 * math.log(a) + 0.1
    probe = velocity_jump_probe(a, gamma, [lam], replicas=50_000, seed=41)[0]
    assert probe.classification == "converging"
    walk = annealed_velocity(Renewal(a, gamma), lam, n=4000, replicas=1200,
                             seed=42)
    joint_se = math.hypot(walk.std_error, probe.v_estimate.std_error)
    assert abs(walk.mean - probe.v_estimate.mean) < 4 * joint_se


# ---------------------------------------------------------------------------
# golden outputs of the renewal estimators (BLAKE2b digests)
# ---------------------------------------------------------------------------

# means and s.e.s of renewal_product_moment (10,000 replicas, seed 13) on
# the renewal-scaling grid and on [0, 1, 2, 5, 50]; two of the replicas take
# the direct big-jump sum past the prefix table.  Both digests were recorded
# again when the kernel tables became causal block products
# (_causal_convolve), which add the same non-negative products in another
# order: the s.e.s moved by at most 1.3e-15 relative, the means not at all.
GOLDEN_MOMENTS = "86fd5877007d67bfdd3fd7a8c2340112"
# covers a fitted threshold slope, a v estimate and both exact classifications;
# with the causal block tables v's s.e. and the slope's s.e. moved by at most
# 9.2e-16 relative, v and the slope not at all
GOLDEN_PROBE = "6ce667e340453d508161f204dfcba719"
# the probe at i_max in {0, 1, 16, 60, 61, 62, 63, 64} (2000 replicas,
# seed 5), one digest of the reprs in that order: widths i_max + 1 around
# the least sum S' = j - 1 of the sweep's states, where its histogram of
# (M, S') starts counting; recorded before that histogram became s-major
GOLDEN_PROBE_SMALL = "95fc2c7c7224419f7bed75b5f6e93831"


@pytest.mark.filterwarnings("error")
def test_renewal_product_moment_golden():
    h = hashlib.blake2b(digest_size=16)
    for grid in ([100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000],
                 [0, 1, 2, 5, 50]):
        rs = renewal_product_moment(3.0, grid, replicas=10_000, seed=13)
        for e in rs.estimates:
            h.update(np.array([e.mean, e.std_error]).tobytes())
    assert h.hexdigest() == GOLDEN_MOMENTS


@pytest.mark.filterwarnings("error")
def test_velocity_jump_probe_golden():
    lam_plus = 0.5 * math.log(2.0)
    rows = velocity_jump_probe(2.0, 3.0, [lam_plus - 0.1, lam_plus, lam_plus + 0.1],
                               replicas=20_000, seed=5, i_max=128)
    digest = hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()
    assert digest == GOLDEN_PROBE


@pytest.mark.filterwarnings("error")
def test_velocity_jump_probe_small_i_max_golden():
    lam_plus = 0.5 * math.log(2.0)
    h = hashlib.blake2b(digest_size=16)
    for i_max in (0, 1, 16, 60, 61, 62, 63, 64):
        rows = velocity_jump_probe(2.0, 3.0, [lam_plus - 0.1, lam_plus, lam_plus + 0.1],
                                   replicas=2000, seed=5, i_max=i_max)
        h.update(repr(rows).encode())
    assert h.hexdigest() == GOLDEN_PROBE_SMALL


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 513, 10001])
def test_causal_convolve_is_the_truncated_convolution(n):
    rng = np.random.default_rng(n)
    a, b = rng.random(n), rng.random(n)
    got = estimators._causal_convolve(a, b)
    want = np.convolve(a, b)[:n]
    assert got.shape == (n,)
    assert np.all(np.abs(got - want) <= 2 * n * EPS * want)
    # small integers add up exactly in any order, so every block lands
    # on the right output terms bit for bit
    a, b = rng.integers(0, 10, n).astype(float), rng.integers(0, 10, n).astype(float)
    assert np.array_equal(estimators._causal_convolve(a, b), np.convolve(a, b)[:n])


@pytest.mark.parametrize("n_max", [0, 1, 64, 10_000])
def test_kernel_tables_within_their_rounding_bound(n_max):
    # C = w*T and D = p*C against exactly rounded sums of their terms, at
    # the renewal grid and the block edges: within (y + 1) eps relative
    gamma = 3.0
    p, c = estimators._moment_tables(gamma, n_max)
    d = estimators._kernel_tables(p, c[None])[1][0]
    y = np.arange(n_max + 1, dtype=float)
    w = np.zeros(n_max + 1)
    w[1:] = (y[1:] ** -gamma - 0.5 * p[1:]) / special.zeta(gamma)
    t = (y + 1.0) ** -gamma
    ys = [v for v in (0, 1, 63, 64, 65, 127, 128, 100, 178, 316, 562, 1000,
                      1778, 3162, 5623, 10_000) if v <= n_max]
    for v in ys:
        want_c = math.fsum(w[:v + 1] * t[v::-1])
        want_d = math.fsum(p[:v + 1] * c[v::-1])
        assert abs(c[v] - want_c) <= (v + 1) * EPS * want_c
        assert abs(d[v] - want_d) <= (v + 1) * EPS * want_d


def _gaps_with_rare_rows():
    """C-ordered (1000, 62) gap rows, three of whose running maxima pass the
    prefix table: row 5 (100), row 7 (400, past every n_max used here) and
    row 9 (70, tied three times)."""
    gaps = estimators._gap_from_uniform(
        np.random.default_rng(1).random((1000, estimators._MOMENT_TERMS - 2)), 3.0)
    gaps[5, 3] = 100
    gaps[7, 0] = 400
    gaps[9, [2, 4, 8]] = 70
    return gaps


def test_running_gaps_match_per_row_counts():
    # each yielded state, read before the next (S' and M are updated in
    # place), against a recount of every row's first j - 1 gaps: their
    # sum, their maximum (0 before any gap) and 1 + the ties at it
    gaps = _gaps_with_rare_rows()
    rows = gaps.tolist()
    js = []
    for j, s, big, ties1 in estimators._running_gaps(np.asfortranarray(gaps)):
        js.append(j)
        head = [row[:j - 1] for row in rows]
        top = [max(g, default=0) for g in head]
        assert s.tolist() == [sum(g) for g in head]
        assert big.tolist() == top
        assert ties1.tolist() == [g.count(t) + 1 for g, t in zip(head, top)]
    assert js == list(range(1, estimators._MOMENT_TERMS))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n_max", [40, 300])
def test_big_jump_sums_match_per_replica_terms(n_max):
    # the probe's histogram route to the moment means against the
    # per-replica terms of renewal_product_moment, on gap rows whose running
    # maximum passes the prefix table, ties at it, and passes n_max
    p, c = estimators._moment_tables(3.0, n_max)
    terms, sums = estimators._sweep(_gaps_with_rare_rows(), np.arange(n_max + 1),
                                    p, estimators._kernel_tables(p, c[None]), c)
    np.testing.assert_allclose(sums, terms[0].sum(axis=1), rtol=1e-13, atol=0.0)


@pytest.mark.filterwarnings("error")
def test_sweep_of_two_kernels_is_two_sweeps_of_one():
    # stacking kernels shares the index arithmetic, never the arithmetic
    # of a term: each kernel's terms are those of its own sweep, bit for bit
    n_max = 300
    p, c = estimators._moment_tables(3.0, n_max)
    kernels = np.array([c, np.convolve(c, 0.9 ** np.arange(n_max + 1.0))[:n_max + 1]])
    gaps = _gaps_with_rare_rows()
    grid = np.array([0, 3, 66, 200, n_max])
    both, sums = estimators._sweep(gaps, grid, p,
                                   estimators._kernel_tables(p, kernels), c)
    for k in range(2):
        one, none = estimators._sweep(gaps, grid, p,
                                      estimators._kernel_tables(p, kernels[k:k + 1]))
        assert none is None
        assert np.array_equal(both[k], one[0])
    _, alone = estimators._sweep(gaps, grid, p, estimators._kernel_tables(p, kernels[:0]), c)
    assert np.array_equal(sums, alone)


@pytest.mark.parametrize("gamma", [2.5, 3.0])
@pytest.mark.parametrize("replicas", [2, 1023, 1024, 1025, 8192, 8193, 20_000])
def test_gap_blocks_are_one_draw_of_gap_rows(replicas, gamma):
    # filled in row chunks, the blocks stacked are the gaps of one
    # (replicas, 62) draw bit for bit, each block gap-column contiguous
    blocks = list(estimators._gap_blocks(gamma, replicas, 4))
    rows = estimators._gap_from_uniform(
        generator(4, "renewal-moment").random((replicas, estimators._MOMENT_TERMS - 2)),
        gamma)
    sizes = [min(estimators._MOMENT_CHUNK, replicas - done)
             for done in range(0, replicas, estimators._MOMENT_CHUNK)]
    assert [b.shape for b in blocks] == [(m, estimators._MOMENT_TERMS - 2) for m in sizes]
    assert all(b.dtype == np.int64 and b.flags.f_contiguous for b in blocks)
    assert np.array_equal(np.concatenate(blocks), rows)


def test_gap_block_peak_memory_stays_near_its_table():
    # the uniforms and their transforms are chunk-sized, so drawing a full
    # block peaks well below two of its tables; one block-sized draw of
    # uniforms would hold three
    tracemalloc.start()
    try:
        block = next(estimators._gap_blocks(3.0, estimators._MOMENT_CHUNK, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert block.shape[0] == estimators._MOMENT_CHUNK
    assert peak < 2 * block.nbytes


@pytest.mark.filterwarnings("error")
def test_sweep_does_not_depend_on_the_gap_layout():
    # the sweep gives the same bits on C-ordered rows and on the
    # column-contiguous blocks that _gap_blocks yields
    n_max = 300
    p, c = estimators._moment_tables(3.0, n_max)
    tables = estimators._kernel_tables(p, c[None])
    grid = np.arange(n_max + 1)
    gaps = _gaps_with_rare_rows()
    want = estimators._sweep(gaps, grid, p, tables, c)
    got = estimators._sweep(np.asfortranarray(gaps), grid, p, tables, c)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
