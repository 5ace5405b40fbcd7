import math

import numpy as np
import pytest

from rwrelab import (IIDConductance, PeriodicEnv, ScalarDist,
                     annealed_velocity, exact_fbar_periodic, exact_sbar_periodic,
                     exact_tau1_periodic_continuous, exact_walk_distribution,
                     materialize, sbar_quenched, shat_quenched,
                     velocity_periodic)
from rwrelab.rng import generator

COTH_HALF = 2.163953413738653


# ---------------------------------------------------------------------------
# dynamic programming
# ---------------------------------------------------------------------------

def test_single_step_masses():
    env = PeriodicEnv(omega=(0.7,))
    lam = 0.4
    dist = exact_walk_distribution(env, lam, 1)
    w = 0.7 * math.exp(lam) / (0.3 * math.exp(-lam) + 0.7 * math.exp(lam))
    assert dist.pmf[dist.support == 1][0] == pytest.approx(w, rel=1e-14)
    assert dist.pmf[dist.support == -1][0] == pytest.approx(1 - w, rel=1e-14)


def test_symmetric_binomial_n4():
    dist = exact_walk_distribution(PeriodicEnv(omega=(0.5,)), 0.0, 4)
    masses = dist.pmf[dist.pmf > 0] * 16
    assert np.allclose(masses, [1, 4, 6, 4, 1])
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_parity_and_normalization():
    env = materialize(IIDConductance(ScalarDist.two_point(1, 2, 0.5)), 7, (-9, 9))
    dist = exact_walk_distribution(env, 0.7, 9)
    assert dist.total_mass() == pytest.approx(1.0, abs=1e-12)
    off_parity = dist.pmf[(dist.support % 2) == 0]  # n = 9 is odd
    assert np.all(off_parity == 0.0)


def test_dp_mean_approaches_velocity():
    env = materialize(IIDConductance(ScalarDist.constant(1.0)), 0, (-30, 30))
    dist = exact_walk_distribution(env, 1.0, 30)
    assert abs(dist.mean() / 30 - math.tanh(1.0)) < 0.02
    assert dist.variance() > 0


def test_dp_step_cap():
    with pytest.raises(ValueError):
        exact_walk_distribution(PeriodicEnv(omega=(0.5,)), 0.0, 41)


# ---------------------------------------------------------------------------
# block-geometric crossing sums
# ---------------------------------------------------------------------------

def test_sbar_period_one_matches_coth():
    res = exact_sbar_periodic(PeriodicEnv(omega=(0.5,)), 0.5)
    assert res.converged
    assert res.value == pytest.approx(COTH_HALF, rel=1e-14)


def test_alternating_period_two_converges_iff_positive_field():
    # rho alternating {2, 1/2}: one-period ratio product is e^{-4 lam}
    env = PeriodicEnv(omega=(1 / 3, 2 / 3))
    assert exact_sbar_periodic(env, 0.3).converged
    assert exact_sbar_periodic(env, 0.0).diverged
    assert exact_sbar_periodic(env, -0.2).diverged
    assert exact_fbar_periodic(env, -0.3).converged
    assert exact_fbar_periodic(env, 0.0).diverged


def test_exact_matches_quenched_on_random_periodic():
    rng = generator(5, "exact-test")
    for ll in (1, 2, 3, 5):
        for _ in range(10):
            env = PeriodicEnv(omega=tuple(0.25 + 0.5 * rng.random(ll)))
            exact = exact_sbar_periodic(env, 0.8)
            quenched = sbar_quenched(materialize(env, 0, (-2, 2)), 0.8, 1e-11)
            assert quenched.converged
            assert exact.value == pytest.approx(quenched.value, abs=1e-9)


def test_velocity_periodic_regimes():
    env = PeriodicEnv(omega=(0.5,))
    assert velocity_periodic(env, 0.7).v == pytest.approx(math.tanh(0.7), rel=1e-13)
    assert velocity_periodic(env, -0.7).v == pytest.approx(-math.tanh(0.7), rel=1e-13)
    assert velocity_periodic(env, 0.0).v == 0.0
    res = velocity_periodic(env, 0.4)
    assert res.lambda_minus == res.lambda_plus == 0.0


def _shifts(values):
    return [values[s:] + values[:s] for s in range(len(values))]


def _random_periodic(rng, ll, rates):
    if rates:
        return PeriodicEnv(rates=tuple((0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random())
                                       for _ in range(ll)))
    return PeriodicEnv(omega=tuple(0.25 + 0.5 * rng.random(ll)))


@pytest.mark.filterwarnings("error")
def test_velocity_periodic_invariant_law():
    # the stationary law of the position mod 3 gives 0.4607 (Monte Carlo
    # 0.4607 +/- 0.0004); the series from origin 0 alone gave 0.327
    env = PeriodicEnv(omega=(0.3, 0.7, 0.45))
    assert velocity_periodic(env, 0.6).v == pytest.approx(0.4607206, abs=1e-7)
    # continuous time at unit rates: r+(lam) - r-(lam), not the jump chain's tanh
    renv = PeriodicEnv(rates=((1.0, 1.0),))
    assert velocity_periodic(renv, 1.0).v == pytest.approx(2 * math.sinh(1.0), rel=1e-14)
    assert velocity_periodic(renv, -1.0).v == pytest.approx(-2 * math.sinh(1.0), rel=1e-14)
    # saturated fields give the ballistic limit without overflow or warnings
    assert velocity_periodic(env, 400.0).v == 1.0
    assert velocity_periodic(env, -400.0).v == -1.0


@pytest.mark.parametrize("ll", [2, 3, 5])
def test_velocity_periodic_matches_shift_averaged_crossing_means(ll):
    # 1/v is the crossing time of one site averaged over the L starting
    # sites: exact_sbar_periodic (or exact_fbar_periodic for v < 0) in
    # discrete time, exact_tau1_periodic_continuous in continuous time
    rng = generator(ll, "velocity-periodic-test")
    for _ in range(10):
        env = _random_periodic(rng, ll, rates=False)
        thr = velocity_periodic(env, 0.0).lambda_plus
        for lam in (thr - 0.7, thr - 0.2, thr + 0.2, thr + 0.7):
            v = velocity_periodic(env, lam).v
            series = exact_sbar_periodic if v > 0 else exact_fbar_periodic
            mean = np.mean([series(PeriodicEnv(omega=w), lam).value
                            for w in _shifts(env.omega)])
            assert abs(v) == pytest.approx(1.0 / mean, rel=1e-12)
        renv = _random_periodic(rng, ll, rates=True)
        thr = velocity_periodic(renv, 0.0).lambda_plus
        for lam in (thr + 0.2, thr + 0.7):
            v = velocity_periodic(renv, lam).v
            mean = np.mean([exact_tau1_periodic_continuous(PeriodicEnv(rates=r), lam)
                            for r in _shifts(renv.rates)])
            assert v == pytest.approx(1.0 / mean, rel=1e-12)


@pytest.mark.parametrize("ll", [2, 3, 5])
@pytest.mark.parametrize("rates", [False, True])
def test_velocity_periodic_vs_monte_carlo(ll, rates):
    env = _random_periodic(generator(ll, "velocity-periodic-mc"), ll, rates)
    lam = velocity_periodic(env, 0.0).lambda_plus + 0.4
    v = velocity_periodic(env, lam).v
    run = {"horizon": 4000.0} if rates else {"n": 20_000}
    est = annealed_velocity(env, lam, replicas=200, seed=40 + ll, **run)
    assert abs(est.mean - v) < 3 * est.std_error


# ---------------------------------------------------------------------------
# first-passage mean on periodic rate environments
# ---------------------------------------------------------------------------

def test_tau1_unit_rates():
    env = PeriodicEnv(rates=((1.0, 1.0),))
    val = exact_tau1_periodic_continuous(env, 1.0)
    assert val == pytest.approx(1.0 / (2 * math.sinh(1.0)), rel=1e-14)
    # forced immediate jump as the field blows up
    assert exact_tau1_periodic_continuous(env, 8.0) < 1e-3


def test_tau1_routes_agree_and_match_quenched():
    rng = generator(8, "exact-test")
    for ll in (1, 2, 3, 5):
        for _ in range(10):
            rates = tuple((0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random())
                          for _ in range(ll))
            env = PeriodicEnv(rates=rates)
            solve = exact_tau1_periodic_continuous(env, 0.8, "solve")
            geom = exact_tau1_periodic_continuous(env, 0.8, "geometric")
            assert solve == pytest.approx(geom, rel=1e-12)
            quenched = shat_quenched(materialize(env, 0, (-2, 2)), 0.8, 1e-11)
            assert quenched.converged
            assert solve == pytest.approx(quenched.value, abs=1e-9)


def test_tau1_rejects_nonconvergent_regime():
    env = PeriodicEnv(rates=((2.0, 1.0),))   # leftward drift at lam = 0
    with pytest.raises(ValueError):
        exact_tau1_periodic_continuous(env, 0.0)
    with pytest.raises(ValueError):
        exact_tau1_periodic_continuous(env, 1.0, method="newton")
    with pytest.raises(ValueError):
        exact_tau1_periodic_continuous(PeriodicEnv(omega=(0.5,)), 1.0)
