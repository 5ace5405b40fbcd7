import math

import numpy as np
import pytest

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, Renewal,
                     RenewalPoints, ScalarDist, bias, load_environment,
                     materialize, sample_stationary_renewal, save_environment)
from rwrelab.environments import _tau1_cdf_table
from rwrelab.rng import generator

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)


def zeta_partial(gamma: float, terms: int = 800_000) -> float:
    # direct-summation oracle for the zeta normalizations
    j = np.arange(1, terms + 1, dtype=float)
    return float(np.sum(j ** (-gamma)))


# ---------------------------------------------------------------------------
# materialization
# ---------------------------------------------------------------------------

def test_constant_conductance_gives_symmetric_walk():
    env = materialize(IIDConductance(ScalarDist.constant(1.0)), 3, (-20, 20))
    assert np.all(env.omega_plus_window(-20, 20) == 0.5)


def test_coinflip_degenerate_pairing():
    env = materialize(CoinFlip(ScalarDist.constant(1.0), ScalarDist.constant(1.0)),
                      11, (-20, 20))
    rm, rp = env.rates_window(-20, 20)
    assert np.all(rm == 1.0) and np.all(rp == 1.0)


def test_coinflip_pair_identity():
    # one of the two parities must satisfy r+_x = r-_{x+1} on every pair edge
    env = materialize(CoinFlip(TWO_POINT, TWO_POINT), 4, (-21, 21))
    rm, rp = env.rates_window(-21, 21)
    odd_pairs = all(rp[i] == rm[i + 1] for i in range(1, 40, 2))
    even_pairs = all(rp[i] == rm[i + 1] for i in range(0, 40, 2))
    assert odd_pairs or even_pairs


def test_conductance_cross_site_identity():
    env = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"),
                      8, (-10, 10))
    rm, rp = env.rates_window(-10, 10)
    assert np.array_equal(rp[:-1], rm[1:])


def test_window_extension_never_changes_sites():
    for model in (IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)),
                  IIDConductance(TWO_POINT),
                  Renewal(1.0, 3.0),
                  CoinFlip(TWO_POINT, TWO_POINT)):
        env_small = materialize(model, 17, (-5, 5))
        if env_small.kind == "discrete":
            before = env_small.omega_plus_window(-5, 5).copy()
            env_small.ensure(-200, 300)
            assert np.array_equal(before, env_small.omega_plus_window(-5, 5))
            env_big = materialize(model, 17, (-200, 300))
            assert np.array_equal(before, env_big.omega_plus_window(-5, 5))
        else:
            before = [env_small.rates(x) for x in range(-5, 6)]
            env_small.ensure(-200, 300)
            env_big = materialize(model, 17, (-200, 300))
            assert before == [env_small.rates(x) for x in range(-5, 6)]
            assert before == [env_big.rates(x) for x in range(-5, 6)]


def test_different_seeds_differ():
    a = materialize(IIDConductance(TWO_POINT), 1, (-50, 50))
    b = materialize(IIDConductance(TWO_POINT), 2, (-50, 50))
    assert not np.array_equal(a.omega_plus_window(-50, 50),
                              b.omega_plus_window(-50, 50))


def test_one_atom_laws_draw_nothing(monkeypatch):
    # a constant law ignores its uniforms, so neither a single replica nor a
    # batch of rows may open its stream; the other fields still draw
    import rwrelab.environments as E
    constant_fields = {"c", "rho", "a+"}

    class Refusing(E.CounterStream):
        def __init__(self, seed, *tags):
            assert tags[-1] not in constant_fields, f"drew stream {tags[-1]!r}"
            super().__init__(seed, *tags)

    class RefusingRows(E.RowStreams):
        def __init__(self, seed, head, rows, tail):
            assert tail[-1] not in constant_fields, f"drew stream {tail[-1]!r}"
            super().__init__(seed, head, rows, tail)

    monkeypatch.setattr(E, "CounterStream", Refusing)
    monkeypatch.setattr(E, "RowStreams", RefusingRows)
    one = ScalarDist.constant(1.0)
    lo, hi, rows = -6, 6, range(4, 9)
    for model, want in ((IIDConductance(one), 0.5),
                        (IIDOmega(ScalarDist.constant(2.0)), 1.0 / 3.0)):
        (blk, w), = model.omega_plus_blocks(7, rows, lo, hi)
        assert np.all(w == want) and w.shape == (len(rows), hi - lo + 1)
        assert np.all(model.omega_plus_sites(7, 3, lo, hi) == want)
    (blk, (rm, rp)), = IIDConductance(one, "continuous").rate_blocks(7, rows, lo, hi)
    assert np.all(rm == 1.0) and np.all(rp == 1.0)
    coin = CoinFlip(one, TWO_POINT)
    (blk, (rm, rp)), = coin.rate_blocks(7, rows, lo, hi)
    for k, r in enumerate(rows):
        assert all(np.array_equal(a[k], b)
                   for a, b in zip((rm, rp), coin.rate_sites(7, r, lo, hi)))
    assert np.all((rm == 1.0) | (rp == 1.0))


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        Renewal(1.0, 2.0)          # gamma must exceed 2
    with pytest.raises(ValueError):
        Renewal(0.0, 3.0)
    with pytest.raises(ValueError):
        PeriodicEnv(omega=(0.5, 1.0))
    with pytest.raises(ValueError):
        PeriodicEnv()


# ---------------------------------------------------------------------------
# bias transform
# ---------------------------------------------------------------------------

def test_bias_trivial_cases():
    env = materialize(IIDConductance(ScalarDist.constant(2.0)), 0, (-2, 2))
    assert bias(env, 0.0, 0) == (0.5, 0.5)
    lam = 0.9
    minus, plus = bias(env, lam, 0)
    assert plus == pytest.approx(math.exp(lam) / (math.exp(lam) + math.exp(-lam)),
                                 rel=1e-14)
    renv = materialize(PeriodicEnv(rates=((1.0, 1.0),)), 0, (-2, 2))
    rm, rp = bias(renv, 1.0, 0)
    assert rm == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert rp == pytest.approx(math.exp(1.0), rel=1e-15)


def test_bias_ratio_identity_across_sites_and_fields():
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.3)), 5, (-30, 30))
    rng = generator(0, "bias-test")
    for _ in range(200):
        x = int(rng.integers(-30, 31))
        lam = float(rng.uniform(-2.5, 2.5))
        minus, plus = env.omega_biased(x, lam)
        assert minus / plus == pytest.approx(env.rho(x) * math.exp(-2 * lam),
                                             rel=1e-12)
        assert 0.0 < plus < 1.0 and minus == pytest.approx(1 - plus, abs=1e-15)


def test_bias_commutes_with_jump_chain():
    # biasing rates then forming jump probabilities equals forming jump
    # probabilities then biasing, site by site
    renv = materialize(IIDConductance(TWO_POINT, time_flavor="continuous"),
                       21, (-40, 40))
    chain = renv.jump_chain()
    for lam in (-1.0, 0.3, 2.0):
        for x in range(-40, 41, 5):
            rm, rp = renv.rates_biased(x, lam)
            _, plus = chain.omega_biased(x, lam)
            assert rp / (rm + rp) == pytest.approx(plus, rel=1e-13)


# ---------------------------------------------------------------------------
# stationary renewal environment
# ---------------------------------------------------------------------------

def test_renewal_env_rate_structure():
    gamma, seed = 3.0, 13
    env = materialize(Renewal(1.5, gamma, time_flavor="continuous"),
                      seed, (-50, 50))
    rm, rp = env.rates_window(-50, 50)
    assert np.all(rm == 1.5)
    pts = RenewalPoints(gamma, seed)
    sites = np.arange(-50, 51)
    marked = pts.contains(-sites)
    assert np.array_equal(rp, np.where(marked, 2.0, 1.0))


def test_renewal_marked_fraction_matches_point_density():
    # fraction of sites k with r(k,k+1) = 2 estimates P(0 in tau) = 1/zeta(3)
    gamma = 3.0
    env = materialize(Renewal(1.0, gamma), 5, (-100_000, 0))
    w = env.omega_plus_window(-100_000, 0)
    marked = np.isclose(w, 2.0 / 3.0)
    density = 1.0 / zeta_partial(gamma)
    se = math.sqrt(density * (1 - density) / marked.size)
    # renewal-point indicators are positively correlated; allow a wide band
    assert abs(marked.mean() - density) < 8 * se


def test_stationary_renewal_tau1_marginal():
    # P(tau_1 = m) = m^-gamma / zeta(gamma) for m <= 20, 1e5 samples, 4 s.e.
    gamma = 3.0
    z = zeta_partial(gamma)
    samples = 100_000
    tau1 = np.empty(samples, dtype=np.int64)
    for k in range(samples):
        pts = RenewalPoints(gamma, seed=901, replica=k)
        tau1[k] = pts.tau1
        assert pts.tau0 <= 0 < pts.tau1
    for m in range(1, 21):
        p = m ** (-gamma) / z
        se = math.sqrt(p * (1 - p) / samples)
        assert abs(np.mean(tau1 == m) - p) < 4 * se


def test_gap_law_and_density():
    gamma, seed = 3.0, 71
    pts = sample_stationary_renewal(gamma, seed, (-1_000_000, 0))
    gaps = np.diff(pts)
    # non-straddling gaps: P(gap = 1) = 1 - 2^-gamma
    p1 = 1.0 - 2.0 ** (-gamma)
    se = math.sqrt(p1 * (1 - p1) / gaps.size)
    assert abs(np.mean(gaps == 1) - p1) < 4 * se
    # renewal theorem: mean density = 1/zeta(gamma) within 3 s.e.
    density = 1.0 / zeta_partial(gamma)
    count = pts.size
    se_count = math.sqrt(count) * 1.2  # crude scale for the count fluctuation
    assert abs(count - density * 1_000_001) < 3 * se_count


def test_renewal_windows_consistent():
    gamma, seed = 2.5, 3
    small = sample_stationary_renewal(gamma, seed, (-100, 100))
    big = sample_stationary_renewal(gamma, seed, (-1000, 1000))
    assert np.array_equal(small, big[(big >= -100) & (big <= 100)])


# ---------------------------------------------------------------------------
# reflection invariance in law
# ---------------------------------------------------------------------------

def _pair_freqs(values, levels):
    # joint frequencies of (value_x, value_{x+1}) category pairs; thresholds
    # get a 1e-9 cushion so values a few ulp off a level bin consistently
    cat = np.searchsorted(levels + 1e-9, values)
    k = len(levels) + 1
    joint = cat[:-1] * k + cat[1:]
    return np.bincount(joint, minlength=k * k) / joint.size


@pytest.mark.parametrize("model", [
    IIDConductance(TWO_POINT),
    CoinFlip(TWO_POINT, TWO_POINT),
])
def test_reflection_invariance_in_law(model):
    # an environment and its reflection share per-site marginals and
    # adjacent-pair joint frequencies across >= 1e5 sites
    n_sites = 100_000
    env = materialize(model, 31, (-n_sites // 2, n_sites // 2))
    refl = env.reflected()
    if env.kind == "discrete":
        a = env.omega_plus_window(env.lo, env.hi)
        b = refl.omega_plus_window(refl.lo, refl.hi)
    else:
        a = np.concatenate(env.rates_window(env.lo, env.hi))
        b = np.concatenate(refl.rates_window(refl.lo, refl.hi))
    levels = np.unique(a.round(9))[:-1]
    fa, fb = _pair_freqs(a, levels), _pair_freqs(b, levels)
    tol = 6.0 / math.sqrt(n_sites)
    assert np.max(np.abs(fa - fb)) < tol
    ma = np.bincount(np.searchsorted(levels + 1e-9, a),
                     minlength=len(levels) + 1) / a.size
    mb = np.bincount(np.searchsorted(levels + 1e-9, b),
                     minlength=len(levels) + 1) / b.size
    assert np.max(np.abs(ma - mb)) < tol


# ---------------------------------------------------------------------------
# snapshots
# ---------------------------------------------------------------------------

def test_snapshot_roundtrip_discrete(tmp_path):
    env = materialize(IIDConductance(TWO_POINT), 5, (-40, 40))
    path = tmp_path / "env.txt"
    save_environment(env, path)
    loaded = load_environment(path)
    assert np.array_equal(env.omega_plus_window(-40, 40),
                          loaded.omega_plus_window(-40, 40))
    path2 = tmp_path / "env2.txt"
    save_environment(loaded, path2)
    assert path.read_text().splitlines()[7:] == path2.read_text().splitlines()[7:]


def test_snapshot_roundtrip_rates(tmp_path):
    env = materialize(CoinFlip(TWO_POINT, ScalarDist.uniform(0.5, 1.5)),
                      9, (-15, 15))
    path = tmp_path / "env.txt"
    save_environment(env, path)
    loaded = load_environment(path)
    rm0, rp0 = env.rates_window(-15, 15)
    rm1, rp1 = loaded.rates_window(-15, 15)
    assert np.array_equal(rm0, rm1) and np.array_equal(rp0, rp1)


def test_snapshot_window_is_fixed(tmp_path):
    env = materialize(IIDConductance(TWO_POINT), 5, (-5, 5))
    path = tmp_path / "env.txt"
    save_environment(env, path)
    loaded = load_environment(path)
    with pytest.raises(ValueError):
        loaded.omega_plus(9)


def test_tau1_inverse_cdf_table_matches_direct_sum():
    gamma = 3.0
    table = _tau1_cdf_table(gamma)
    z = zeta_partial(gamma)
    direct = np.cumsum(np.arange(1, 101, dtype=float) ** (-gamma)) / z
    assert np.allclose(table[:100], direct, rtol=1e-10)
