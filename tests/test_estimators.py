import hashlib
import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, Renewal,
                     ScalarDist, annealed_diffusion, annealed_tau1,
                     annealed_velocity, einstein_slope, exact_product_moment,
                     renewal_product_moment, sigma2_of_model, tau1_tail,
                     velocity_jump_probe, velocity_of_model,
                     velocity_rcm_discrete)
from rwrelab import estimators
from rwrelab.estimators import (Estimate, ScalingFit, _renewal_counts,
                                _tau1_cdf_table)
from rwrelab.rng import generator

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
CONST = ScalarDist.constant(1.0)


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


# ---------------------------------------------------------------------------
# velocities
# ---------------------------------------------------------------------------

def test_annealed_velocity_deterministic_case():
    est = annealed_velocity(IIDConductance(CONST), 1.0, n=4000, replicas=600,
                            seed=5)
    assert abs(est.mean - math.tanh(1.0)) < 3 * est.std_error
    assert est.count == 600 and est.excluded == 0


def test_annealed_velocity_zero_field_is_zero():
    est = annealed_velocity(IIDConductance(TWO_POINT), 0.0, n=4000,
                            replicas=600, seed=6)
    assert abs(est.mean) < 3 * est.std_error


def test_workers_do_not_change_results():
    model = IIDConductance(TWO_POINT)
    e1 = annealed_velocity(model, 0.5, n=400, replicas=250, seed=23, workers=1)
    e2 = annealed_velocity(model, 0.5, n=400, replicas=250, seed=23, workers=3)
    assert e1 == e2


def test_mirrored_antisymmetry_exact():
    model = IIDConductance(TWO_POINT)
    plus = annealed_velocity(model, 0.8, n=1000, replicas=300, seed=17)
    minus = annealed_velocity(model, -0.8, n=1000, replicas=300, seed=17,
                              mirrored=True)
    assert plus.mean == -minus.mean
    assert plus.std_error == minus.std_error


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


def test_ks_distance_shrinks_with_replicas():
    model = IIDConductance(CONST)
    small = annealed_diffusion(model, 0.0, n=2500, replicas=300, seed=4)
    big = annealed_diffusion(model, 0.0, n=2500, replicas=8000, seed=4)
    assert big.ks_distance < small.ks_distance


# ---------------------------------------------------------------------------
# Einstein table
# ---------------------------------------------------------------------------

def test_einstein_analytic_rows_converge_to_limit():
    model = IIDConductance(TWO_POINT)
    table = einstein_slope(model, [0.2, 0.1, 0.01, 0.001], n=0, replicas=0,
                           seed=1, mc=False)
    assert table.limit == pytest.approx(1 / 1.125)
    errs = [abs(r.analytic_slope - r.bias_term - table.limit)
            for r in table.rows]
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-5


def test_einstein_continuous_flavor():
    model = IIDConductance(TWO_POINT, time_flavor="continuous")
    table = einstein_slope(model, [0.05], n=0, replicas=0, seed=1, mc=False)
    assert table.limit == pytest.approx(2 / 0.75)
    assert table.rows[0].bias_term == 0.0
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
    # batches; at 40 batches allow at most one excursion
    model = IIDConductance(CONST)
    target = math.tanh(0.8)
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


def test_probe_rejects_bad_parameters():
    with pytest.raises(ValueError):
        velocity_jump_probe(-1.0, 3.0, [0.1], replicas=10, seed=1)
    with pytest.raises(ValueError):
        renewal_product_moment(1.5, [1, 2, 3], replicas=10, seed=1)


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
# golden outputs of the renewal counting path (BLAKE2b digests recorded from
# the per-replica searchsorted loop)
# ---------------------------------------------------------------------------

GOLDEN_COUNTS_FULL = "ece33d8f0c0b7c9d52fc2cffdbcc6f0e"
GOLDEN_COUNTS_SPARSE = "8aaa103604ddec70cde30262069a16c3"
# covers a fitted threshold slope, a v estimate and both exact classifications
GOLDEN_PROBE = "123e9ca9b06932163215a74ecb3fe130"


def _counts_digest(grid):
    h = hashlib.blake2b(digest_size=16)
    for counts in _renewal_counts(3.0, 11, 5000, np.asarray(grid, dtype=np.int64)):
        h.update(repr((counts.shape, counts.dtype.str)).encode())
        h.update(counts.tobytes())
    return h.hexdigest()


@pytest.mark.filterwarnings("error")
def test_renewal_counts_golden():
    assert _counts_digest(np.arange(0, 129)) == GOLDEN_COUNTS_FULL
    assert _counts_digest([0, 3, 40, 200, 517]) == GOLDEN_COUNTS_SPARSE


@pytest.mark.filterwarnings("error")
def test_velocity_jump_probe_golden():
    lam_plus = 0.5 * math.log(2.0)
    rows = velocity_jump_probe(2.0, 3.0, [lam_plus - 0.1, lam_plus, lam_plus + 0.1],
                               replicas=20_000, seed=5, i_max=128)
    digest = hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()
    assert digest == GOLDEN_PROBE


def _reference_renewal_counts(gamma, seed, replicas, grid, chunk=2048):
    """Per-replica searchsorted over the concatenated points (reference)."""
    n_max = int(grid.max())
    table = _tau1_cdf_table(gamma)
    rng = generator(seed, "renewal-ensemble")
    cols = estimators._gap_columns(gamma, n_max)
    done = 0
    while done < replicas:
        m = min(chunk, replicas - done)
        tau1 = np.minimum(np.searchsorted(table, rng.random(m), side="left") + 1,
                          len(table))
        straddle = np.floor(tau1 * (1.0 - rng.random(m)) ** (-1.0 / gamma))
        at_zero = (straddle == tau1)
        gaps = np.floor((1.0 - rng.random((m, cols))) ** (-1.0 / gamma))
        pts = tau1[:, None] + np.concatenate(
            [np.zeros((m, 1)), np.cumsum(gaps, axis=1)], axis=1)
        counts = np.empty((m, grid.size), dtype=np.int64)
        for r in range(m):
            row = pts[r]
            base = np.searchsorted(row, grid + 0.5)
            if row[-1] <= n_max:
                extra = row[-1]
                more = []
                while extra <= n_max:
                    g = float(np.floor((1.0 - rng.random()) ** (-1.0 / gamma)))
                    extra += g
                    more.append(extra)
                base += np.searchsorted(np.asarray(more), grid + 0.5)
            counts[r] = base + int(at_zero[r])
        done += m
        yield counts


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("short_rows", [False, True])
def test_renewal_counts_match_per_replica_loop(monkeypatch, short_rows):
    if short_rows:  # three gaps per row: nearly every row is extended
        monkeypatch.setattr(estimators, "_gap_columns", lambda gamma, n_max: 3)
    for gamma, seed, grid in ((3.0, 2, np.arange(0, 150)),
                              (2.5, 9, np.array([90, 0, 1, 7, 64])),
                              (4.0, 4, np.array([0]))):
        want = list(_reference_renewal_counts(gamma, seed, 700, grid, chunk=256))
        got = list(_renewal_counts(gamma, seed, 700, grid, chunk=256))
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.flags.c_contiguous
            assert np.array_equal(a, b)
