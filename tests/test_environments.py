import hashlib
import math
import pickle

import numpy as np
import pytest
from scipy.special import zeta

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, RateEnv,
                     Renewal, RenewalPoints, ScalarDist, bias_rates, materialize,
                     sbar_quenched)
from rwrelab import environments, special
from rwrelab.environments import _tau1_from_uniform
from rwrelab.rng import generator
from rwrelab.walks import ensemble_continuous

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
    # a realization reads each window afresh: windows read in any order,
    # inside or past the one it was made over, agree on their sites
    for model in (IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)),
                  IIDConductance(TWO_POINT),
                  Renewal(1.0, 3.0),
                  CoinFlip(TWO_POINT, TWO_POINT)):
        if getattr(model, "time_flavor", "discrete") == "discrete":
            read = lambda env, lo, hi: (env.omega_plus_window(lo, hi),)
        else:
            read = lambda env, lo, hi: env.rates_window(lo, hi)
        env_small = materialize(model, 17, (-5, 5))
        before = read(env_small, -5, 5)
        wide = read(env_small, -200, 300)
        env_big = materialize(model, 17, (-200, 300))
        for env in (env_small, env_big):
            for was, now in zip(before, read(env, -5, 5)):
                assert np.array_equal(was, now)
            for a, b in zip(wide, read(env, -200, 300)):
                assert np.array_equal(a, b)
        # a far window, then the sites between it and the origin
        far = read(env_small, 250, 300)
        for a, b in zip(far, read(materialize(model, 17, (250, 300)), 250, 300)):
            assert np.array_equal(a, b)
        for a, b in zip(read(env_small, -100, 260), wide):
            assert np.array_equal(a, b[100:461])
        assert (env_small.lo, env_small.hi) == (-5, 5)


def test_reads_ask_the_source_for_exactly_their_sites():
    asked = []

    class Recorded(IIDConductance):
        def site_source(self, seed, rows):
            values, source = super().site_source(seed, rows)

            def recorded(lo, hi):
                asked.append((lo, hi))
                return source(lo, hi)
            return values, recorded

    env = materialize(Recorded(TWO_POINT, time_flavor="continuous"), 3, (-5, 5))
    env.rates_window(-20, 30)
    env.rates_window(0, 100)
    env.rates_window(-5, 5)
    env.jump_chain().omega_plus(7)
    assert asked == [(-5, 5), (-20, 30), (0, 100), (-5, 5), (-5, 5), (7, 7)]
    assert (env.lo, env.hi) == (-5, 5)


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
    opened = []

    class RefusingRows(E.RowStreams):
        def __init__(self, seed, head, rows, tail):
            assert tail[-1] not in constant_fields, f"drew stream {tail[-1]!r}"
            opened.append((len(rows), tail[-1]))
            super().__init__(seed, head, rows, tail)

    monkeypatch.setattr(E, "RowStreams", RefusingRows)
    one = ScalarDist.constant(1.0)
    lo, hi, rows = -6, 6, range(4, 9)
    def decoded(source):
        (values, blocks) = source
        (blk, (codes,)), = blocks(lo, hi)
        return tuple(v[codes] for v in values)

    for model, want in ((IIDConductance(one), 0.5),
                        (IIDOmega(ScalarDist.constant(2.0)), 1.0 / 3.0)):
        w, = decoded(E.field_source(model, 7, rows, False))
        assert np.all(w == want) and w.shape == (len(rows), hi - lo + 1)
        assert np.all(materialize(model, 7, (lo, hi), 3).omega_plus_window(lo, hi) == want)
    rm, rp = decoded(IIDConductance(one, "continuous").site_source(7, rows))
    assert np.all(rm == 1.0) and np.all(rp == 1.0)
    coin = CoinFlip(one, TWO_POINT)
    rm, rp = decoded(coin.site_source(7, rows))
    for k, r in enumerate(rows):
        one_replica = materialize(coin, 7, (lo, hi), r).rates_window(lo, hi)
        assert all(np.array_equal(a[k], b) for a, b in zip((rm, rp), one_replica))
    # the coin flip's other fields were drawn, for the batch and one replica
    assert {(len(rows), "coin"), (len(rows), "a-"), (1, "coin"), (1, "a-")} <= set(opened)
    assert np.all((rm == 1.0) | (rp == 1.0))


def test_growing_realization_seeds_each_field_once(monkeypatch):
    # a realization holds one source for its lifetime, so a series that
    # reads ever further past its window draws from the streams seeded at
    # the start
    import rwrelab.environments as E
    seeded = []

    class CountedRows(E.RowStreams):
        def __init__(self, seed, head, rows, tail):
            seeded.append(tail[-1])
            super().__init__(seed, head, rows, tail)

    monkeypatch.setattr(E, "RowStreams", CountedRows)
    # no ratio majorant, and the ratio test cannot pass: it reads the budget
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)), 5, (-4, 4))
    res = sbar_quenched(env, 0.05, 1e-10, 5000)
    assert res.terms_used == 5000
    assert (env.lo, env.hi) == (-4, 4)
    assert seeded == ["rho"]


def test_growing_renewal_realization_draws_each_batch_once(monkeypatch):
    # the renewal points of a realization are drawn once and held: reads
    # reaching ever further draw the anchor once and every gap batch once
    import rwrelab.environments as E
    drawn = []

    class CountedRows(E.RowStreams):
        def __init__(self, seed, head, rows, tail):
            super().__init__(seed, head, rows, tail)
            self.field = tail[-1]

        def uniforms(self, start, out, first=0):
            drawn.append((self.field, start))
            super().uniforms(start, out, first)

    monkeypatch.setattr(E, "RowStreams", CountedRows)
    env = materialize(Renewal(1.5, 3.0, time_flavor="continuous"), 13, (-4, 4))
    for hi in (1000, 50_000, 200_000):
        rm, rp = env.rates_window(-4, hi)
        assert len(rp) == hi + 5
    assert (env.lo, env.hi) == (-4, 4)
    assert drawn.count(("anchor", 0)) == 1
    assert len(drawn) == len(set(drawn))
    left = sorted(start for field, start in drawn if field == "left")
    assert left == list(range(0, len(left) * 1024, 1024)) and len(left) > 100


@pytest.mark.parametrize("law", [TWO_POINT, ScalarDist.uniform(0.5, 1.5)])
def test_discrete_conductance_is_the_jump_chain_of_its_rates(law):
    # one derivation of omega+ from rates serves discrete time and the jump
    # chain: omega+_x = c_x/(c_{x-1} + c_x), bit for bit
    window = (-30, 30)
    discrete = materialize(IIDConductance(law), 9, window)
    chain = materialize(IIDConductance(law, time_flavor="continuous"), 9,
                        window).jump_chain()
    assert np.array_equal(discrete.omega_plus_window(*window),
                          chain.omega_plus_window(*window))


def test_discrete_only_models_have_no_rates():
    for model in (IIDOmega(TWO_POINT),
                  PeriodicEnv(omega=(0.3, 0.6))):
        with pytest.raises(ValueError, match="no rates"):
            RateEnv(model, 1, (-5, 5))
        with pytest.raises(ValueError, match="no rates"):
            ensemble_continuous(model, 0.5, 10.0, 4, 1)


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
    assert env.omega_biased(0, 0.0) == (0.5, 0.5)
    lam = 0.9
    minus, plus = env.omega_biased(0, lam)
    assert plus == pytest.approx(math.exp(lam) / (math.exp(lam) + math.exp(-lam)),
                                 rel=1e-14)
    renv = materialize(PeriodicEnv(rates=((1.0, 1.0),)), 0, (-2, 2))
    (rm,), (rp,) = bias_rates(*renv.rates_window(0, 0), 1.0)
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
            (rm,), (rp,) = bias_rates(*renv.rates_window(x, x), lam)
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
    pts = RenewalPoints(gamma, seed).points_in(-1_000_000, 0)
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


# points of RenewalPoints(3.0, 29, r).points_in(-5000, 5000) for replicas
# r = 0..4, several gap batches on each side (BLAKE2b digest)
GOLDEN_RENEWAL_POINTS = "caeb9b950ca570a4baa8cd218a01bda4"


def test_renewal_points_golden():
    h = hashlib.blake2b(digest_size=16)
    for replica in range(5):
        pts = RenewalPoints(3.0, 29, replica)
        h.update(np.array([pts.tau0, pts.tau1]).tobytes())
        h.update(pts.points_in(-5000, 5000).tobytes())
    assert h.hexdigest() == GOLDEN_RENEWAL_POINTS


def test_renewal_windows_consistent():
    gamma, seed = 2.5, 3
    small = RenewalPoints(gamma, seed).points_in(-100, 100)
    big = RenewalPoints(gamma, seed).points_in(-1000, 1000)
    assert np.array_equal(small, big[(big >= -100) & (big <= 100)])
    # one realization asked for a wide window, then for windows inside it
    pts = RenewalPoints(gamma, seed)
    assert np.array_equal(pts.points_in(-1000, 1000), big)
    assert np.array_equal(pts.points_in(-100, 100), small)
    assert np.array_equal(pts.points_in(3, 2), np.zeros(0, np.int64))
    # far out and back: between calls a realization holds only the chunks
    # its last window meets, and draws the ones it dropped again, the same
    far = RenewalPoints(gamma, seed)
    assert far.points_in(-300_000, -299_000).size > 0
    assert len(far._left.chunks) + len(far._right.chunks) <= 4
    assert np.array_equal(far.points_in(-1000, 1000), big)


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


def test_realizations_pickle():
    # a realization's source does not pickle: the copy makes its own and
    # reads the same fields, inside its window and past it
    discrete = materialize(IIDConductance(TWO_POINT), 5, (-5, 5))
    rates = materialize(Renewal(1.5, 3.0, time_flavor="continuous"), 5, (-5, 5))
    for env in (discrete, discrete.reflected(), rates, rates.reflected()):
        copy = pickle.loads(pickle.dumps(env))
        assert (copy.lo, copy.hi) == (env.lo, env.hi)
        if env.kind == "discrete":
            pairs = zip((copy.omega_plus_window(-100, 5),),
                        (env.omega_plus_window(-100, 5),))
        else:
            pairs = zip(copy.rates_window(-100, 5), env.rates_window(-100, 5))
        for a, b in pairs:
            assert np.array_equal(a, b)


def _tau1_cdf_table(gamma: float, size: int = 1_000_000) -> np.ndarray:
    # reference: the CDF of tau1 summed term by term, P(tau1 = m) = m^-gamma / zeta
    j = np.arange(1, size + 1, dtype=float)
    return np.cumsum(j ** (-gamma)) / zeta(gamma, 1.0)


def _tau1_from_table(u: float, gamma: float, table: np.ndarray) -> int:
    # reference inverse: search the summed table, and past its end bisect
    # the exact Hurwitz-zeta CDF
    idx = int(np.searchsorted(table, u, side="right"))
    if idx < len(table):
        return idx + 1
    z = zeta(gamma, 1.0)
    m = len(table)
    while 1.0 - zeta(gamma, 2 * m + 1) / z < u:
        m *= 2
    lo, hi = m, 2 * m
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 1.0 - zeta(gamma, mid + 1) / z < u:
            lo = mid
        else:
            hi = mid
    return hi


def test_tau1_inverse_cdf_table_matches_direct_sum():
    gamma = 3.0
    table = _tau1_cdf_table(gamma)
    z = zeta_partial(gamma)
    direct = np.cumsum(np.arange(1, 101, dtype=float) ** (-gamma)) / z
    assert np.allclose(table[:100], direct, rtol=1e-10)


@pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0])
def test_tau1_draw_matches_the_summed_table(gamma):
    table = _tau1_cdf_table(gamma)
    u = np.random.default_rng(int(gamma * 10)).random(100_000)
    u[0] = 0.0
    got = [_tau1_from_uniform(x, gamma) for x in u]
    assert got == [_tau1_from_table(x, gamma, table) for x in u]


@pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0])
def test_tau1_draw_is_the_smallest_m_whose_cdf_reaches_u(gamma):
    # at each exact CDF value for m <= 2000 and its floating-point
    # neighbours, the draw is the smallest m with P(tau1 <= m) >= u
    m = np.arange(1, 2002)
    cdf = 1.0 - zeta(gamma, m + 1.0) / zeta(gamma, 1.0)
    for c in cdf[:-1]:
        for u in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)):
            want = int(np.argmax(cdf >= u)) + 1
            assert _tau1_from_uniform(float(u), gamma) == want


def _tau1_by_zeta(u: float, gamma: float) -> int:
    # the draw with a Hurwitz-zeta call at every doubling and bisection step
    z = special.zeta(gamma)

    def below(m):
        return 1.0 - special.hurwitz_zeta(gamma, m + 1.0) / z < u

    hi = 1
    while below(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return hi


@pytest.mark.parametrize("gamma", [2.5, 3.0, 4.0])
def test_tau1_table_gives_the_zeta_route_bits(gamma):
    # 1e4 uniforms, 200 more near 1 (draws past the table), and every tabled
    # CDF value with its floating-point neighbours
    rng = np.random.default_rng(int(gamma * 10))
    u = np.concatenate((rng.random(10_000), 1.0 - 10.0 ** -rng.uniform(3, 12, 200)))
    cdf = environments._tau1_cdf(gamma)
    edges = [x for c in cdf[1:] for x in (np.nextafter(c, 0.0), c, np.nextafter(c, 1.0))]
    draws = [_tau1_from_uniform(float(x), gamma) for x in (*u, *edges)]
    assert draws == [_tau1_by_zeta(float(x), gamma) for x in (*u, *edges)]
    assert max(draws) > environments._TAU1_TABLED
