import itertools
import math
from collections import deque

import numpy as np
import pytest

from rwrelab import (IIDConductance, IIDOmega, PeriodicEnv, ScalarDist,
                     SeriesValue, exact_sbar_periodic,
                     exact_tau1_periodic_continuous, lambda_factor,
                     materialize, sbar_quenched, shat_quenched, u_quenched,
                     v_quenched)
from rwrelab import series
from rwrelab.rng import SITE_ORIGIN, tag_int

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
COTH_HALF = 2.163953413738653            # (1+1/e)/(1-1/e)


def geometric(r, n):
    """The n terms 1, r, r^2, ... as the running product t *= r forms them."""
    with np.errstate(over="ignore"):
        return np.concatenate(([1.0], np.multiply.accumulate(np.full(n - 1, r))))


def _array_source(terms, first=series._BLOCK_MIN, most=series._BLOCK_MAX):
    """Blocks of `terms`, each at most the requested size and at most the
    source's own block size, which doubles from `first` to `most`."""
    def source(sizes):
        i, size = 0, first
        for m in sizes:
            m = min(m, size)
            yield terms[i:i + m]
            i += m
            size = min(2 * size, most)
    return source


def _certify_terms(terms, tol, max_terms=10**6):
    return series._certify(_array_source(terms), tol, max_terms)


def test_certified_sum_geometric_bound_holds():
    for r in (0.2, 0.7, 0.95):
        res = _certify_terms(geometric(r, 10**4), tol=1e-12)
        assert res.converged
        truth = 1.0 / (1.0 - r)
        assert abs(res.value - truth) <= res.error_bound + 1e-13
        assert res.error_bound <= 1e-12


def test_certified_sum_divergence_and_budget():
    res = _certify_terms(geometric(1.0, 3000), tol=1e-10, max_terms=3000)
    assert res.diverged
    res = _certify_terms(geometric(1.3, 5000), tol=1e-10, max_terms=5000)
    assert res.diverged
    # converging too slowly for the budget: inconclusive, not diverged
    res = _certify_terms(geometric(0.99999, 5000), tol=1e-10, max_terms=700)
    assert res.status == "inconclusive" and res.terms_used == 700


def test_certified_sum_rejects_bad_tol():
    with pytest.raises(ValueError):
        _certify_terms(geometric(0.5, 100), tol=0.0)


def test_sbar_symmetric_environment_matches_coth():
    env = materialize(IIDConductance(ScalarDist.constant(1.0)), 0, (-4, 4))
    res = sbar_quenched(env, 0.5, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(COTH_HALF, abs=2e-12)
    # the leftward series at -0.5: sbar of the reflected environment at 0.5
    left = sbar_quenched(env.reflected(), 0.5, tol=1e-12)
    assert left.value == pytest.approx(COTH_HALF, abs=2e-12)


def test_sbar_diverges_at_zero_field():
    env = materialize(IIDConductance(ScalarDist.constant(1.0)), 0, (-4, 4))
    assert sbar_quenched(env, 0.0, tol=1e-10, max_terms=3000).diverged


def test_sbar_matches_literal_conductance_sum():
    # independent oracle: literal summation of 1 + 2 sum (c_{-i-1}/c_0) q^{i+1}
    model = IIDConductance(TWO_POINT)
    for seed in range(5):
        env = materialize(model, seed, (-600, 1))
        lam = 1.0
        q = math.exp(-2.0 * lam)
        stream = np.random.PCG64(np.random.SeedSequence(   # the "c" stream
            (seed, tag_int("env"), tag_int(model.tag), 0, tag_int("c"))))
        stream.advance(-600 - SITE_ORIGIN)   # sites -600..0, read off the stream
        c = TWO_POINT.from_uniforms(np.random.Generator(stream).random(601))
        c0 = c[-1]
        total = 1.0
        for i in range(0, 400):
            total += 2.0 * (c[-2 - i] / c0) * q ** (i + 1)
        res = sbar_quenched(env, lam, tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(total, abs=1e-10)


def test_quenched_identity_sbar_equals_one_plus_two_u():
    for seed in range(6):
        env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)),
                          seed, (-4, 4))
        s = sbar_quenched(env, 1.0, tol=1e-12)
        u = u_quenched(env, 1.0, tol=1e-12)
        assert s.converged and u.converged
        assert s.value == pytest.approx(1.0 + 2.0 * u.value, abs=1e-10)


def test_lambda_factor_factorization():
    for seed in range(6):
        env = materialize(IIDConductance(TWO_POINT), seed, (-4, 4))
        lam = 0.8
        lf = lambda_factor(env, lam, tol=1e-12)
        v = v_quenched(env, lam, tol=1e-12)
        direct = (1.0 + env.rho(0) * math.exp(-2 * lam)) * (1.0 + v.value)
        assert lf.converged
        assert lf.value == pytest.approx(direct, abs=1e-10)


def test_u_and_v_match_bruteforce_products():
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.4)), 3, (-2, 2))
    lam = 0.9
    q = math.exp(-2 * lam)
    u_direct = 0.0
    prod = 1.0
    for i in range(300):
        prod *= env.rho(-i) * q
        u_direct += prod
    v_direct = 0.0
    prod = 1.0
    for i in range(1, 300):
        prod *= env.rho(i) * q
        v_direct += prod
    assert u_quenched(env, lam, 1e-12).value == pytest.approx(u_direct, abs=1e-10)
    assert v_quenched(env, lam, 1e-12).value == pytest.approx(v_direct, abs=1e-10)


def test_shat_constant_rates_closed_form():
    env = materialize(IIDConductance(ScalarDist.constant(1.0),
                                     time_flavor="continuous"), 0, (-4, 4))
    res = shat_quenched(env, 1.0, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (2.0 * math.sinh(1.0)), abs=1e-12)
    # the leftward series at -1: shat of the reflected environment at 1
    fh = shat_quenched(env.reflected(), 1.0, tol=1e-12)
    assert fh.value == pytest.approx(res.value, abs=1e-12)


def test_series_read_past_the_environment_window():
    # the terms read sites far left of the window; the window stays as
    # made, and the sum is that of a realization made over every site read
    env = materialize(IIDConductance(TWO_POINT), 12, (-1, 1))
    res = sbar_quenched(env, 0.6, tol=1e-12)
    assert res.converged and res.terms_used > 20
    assert (env.lo, env.hi) == (-1, 1)
    wide = materialize(IIDConductance(TWO_POINT), 12, (-res.terms_used, 1))
    assert sbar_quenched(wide, 0.6, tol=1e-12) == res


def test_recurrent_environment_is_never_certified_convergent():
    # at zero field with E[log rho] = 0 the quenched terms wander over orders
    # of magnitude; the evaluator must refuse to certify rather than guess
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)), 2, (-4, 4))
    res = sbar_quenched(env, 0.0, tol=1e-10, max_terms=20_000)
    assert res.status in ("diverged", "inconclusive")


# ---------------------------------------------------------------------------
# the models' ratio majorants
# ---------------------------------------------------------------------------

UNIFORM = ScalarDist.uniform(0.5, 3.0)


def _direct_sum(terms, tail_bound, tol):
    """(sum, tail bound) of terms(0), terms(1), ... summed one by one until
    tail_bound(i), a bound on the sum of the terms from i on, is far below
    tol."""
    total, i = 0.0, 0
    while True:
        tail = tail_bound(i)
        if tail <= 1e-6 * tol:
            return total, tail
        total += terms(i)
        i += 1


def _discrete_terms(env, lam, name, m):
    """Term i of the series `name` on env, i < m, from its omega+ reads."""
    q2 = math.exp(-2.0 * lam)
    left = env.omega_plus_window(-m + 1, 0)[::-1]   # sites 0, -1, ...
    right = env.omega_plus_window(1, m)             # sites 1, 2, ...
    rho_l = [(1.0 - w) / w * q2 for w in left]
    rho_r = [(1.0 - w) / w * q2 for w in right]

    def prod(rho, i):
        return math.prod(rho[:i])

    return {"sbar": lambda i: prod(rho_l, i) * (1.0 + rho_l[i]),
            "u": lambda i: prod(rho_l, i + 1),
            "v": lambda i: prod(rho_r, i + 1)}[name]


def _check_against_direct(res, direct, tail, tol):
    assert res.converged and res.error_bound <= tol
    assert abs(res.value - direct) <= res.error_bound + tail + 1e-12 * abs(direct)


@pytest.mark.parametrize("law", [TWO_POINT, UNIFORM], ids=["two-point", "uniform"])
@pytest.mark.parametrize("lam", [0.05, 0.1])
@pytest.mark.parametrize("reflect", [False, True], ids=["right", "reflected"])
def test_conductance_majorant_certifies_against_a_direct_sum(law, lam, reflect):
    # reflected: the series of the walk at -lam, on env.reflected() at lam
    tol = 1e-10
    for seed in range(3):
        env = materialize(IIDConductance(law), seed, (-4, 4))
        env = env.reflected() if reflect else env
        k, q, r = env.model.ratio_majorant(lam)
        assert (k, q, r) == (law.support_bounds()[1] / law.support_bounds()[0],
                             math.exp(-2.0 * lam), law.support_bounds()[0])
        for name, fn, a in (("sbar", sbar_quenched, k * (1.0 + q)),
                            ("u", u_quenched, k), ("v", v_quenched, k)):
            res = fn(env, lam, tol, 10**4)
            # stopped by the majorant, not the budget
            assert res.terms_used == series._majorant_stop(a, q, tol, 10**4)[0]
            terms = _discrete_terms(env, lam, name, 4 * res.terms_used)
            direct, tail = _direct_sum(terms, lambda i: a * q**i / (1.0 - q), tol)
            _check_against_direct(res, direct, tail, tol)
            if name == "v":
                lf = lambda_factor(env, lam, tol, 10**4)
                pref = 1.0 / env.omega_biased(0, lam)[1]
                assert lf.terms_used == res.terms_used
                _check_against_direct(lf, pref * (1.0 + direct), pref * tail,
                                      pref * tol)
        renv = materialize(IIDConductance(law, time_flavor="continuous"),
                           seed, (-4, 4))
        renv = renv.reflected() if reflect else renv
        res = shat_quenched(renv, lam, tol, 10**4)
        assert res.converged and res.terms_used < 1000
        m = 4 * res.terms_used
        rm, rp = renv.rates_window(-m + 1, 0)
        rho = (rm / rp)[::-1] * q
        up = rp[::-1] * math.exp(lam)
        a = k * math.exp(-lam) / r
        direct, tail = _direct_sum(lambda i: math.prod(rho[:i]) / up[i],
                                   lambda i: a * q**i / (1.0 - q), tol)
        _check_against_direct(res, direct, tail, tol)


def test_conductance_majorant_needs_a_positive_field():
    model = IIDConductance(TWO_POINT)
    assert model.ratio_majorant(0.0) is None
    assert model.ratio_majorant(-0.1) is None
    assert model.ratio_majorant(1e-300) is None   # e^-2lam rounds to 1


def _runs(rho, length):
    """Products of every run of `length` consecutive sites of a periodic
    table of ratios."""
    period = len(rho)
    return [math.prod(rho[(a + j) % period] for j in range(length))
            for a in range(period)]


@pytest.mark.parametrize("lam", [0.05, 0.8])
@pytest.mark.parametrize("period", [1, 2, 3, 5])
def test_periodic_majorant_against_exact_sums(period, lam):
    rng = np.random.default_rng(period)
    tol, bounded = 1e-10, 0
    for _ in range(20):
        omega = tuple(0.25 + 0.5 * rng.random(period))
        rates = tuple((0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random())
                      for _ in range(period))
        for model in (PeriodicEnv(omega=omega), PeriodicEnv(rates=rates)):
            found = model.ratio_majorant(lam)
            rho = [model.rho_at(x) * math.exp(-2.0 * lam) for x in range(period)]
            block = math.prod(rho)
            if found is None:
                assert block >= 1.0 - 1e-12
                continue
            bounded += 1
            k, q, r = found
            assert q ** period == pytest.approx(block, rel=1e-12)
            for length in range(3 * period + 1):
                assert max(_runs(rho, length)) <= k * q**length * (1 + 1e-12)
            env = materialize(model, 0, (-2, 2))
            if model.omega:
                exact = exact_sbar_periodic(model, lam).value
                res = sbar_quenched(env, lam, tol)
            else:
                assert r == min(rp for _, rp in rates)
                exact = exact_tau1_periodic_continuous(model, lam)
                res = shat_quenched(env, lam, tol)
            assert res.converged and res.error_bound <= tol
            assert abs(res.value - exact) <= res.error_bound + 1e-12 * exact
    assert bounded >= 10


def test_model_without_majorant_certifies_by_the_ratio_test():
    model = IIDOmega(RHO_TWO_POINT)
    assert not hasattr(model, "ratio_majorant")
    env = materialize(model, 3, (-4, 4))
    for fn in (sbar_quenched, u_quenched, v_quenched):
        res = fn(env, 1.0, 1e-12)
        # the ratio test needs `window` = 50 ratios behind its term
        assert res.converged and res.terms_used > 50


# ---------------------------------------------------------------------------
# golden outputs: float.hex of (value, error_bound), status and terms_used,
# recorded from the per-term evaluators; block evaluation must reproduce them
# bit for bit
# ---------------------------------------------------------------------------

RHO_TWO_POINT = ScalarDist.two_point(0.5, 2.0, 0.5)

_SERIES = {"sbar": sbar_quenched, "u": u_quenched, "v": v_quenched,
           "lambda": lambda_factor, "shat": shat_quenched}
_RATE_SERIES = ("shat",)


def _golden_cases():
    """name -> (evaluator, model, seed, lam, tol, max_terms)."""
    omega = IIDOmega(RHO_TWO_POINT)
    cond = IIDConductance(TWO_POINT)
    flat = IIDConductance(ScalarDist.constant(1.0))
    rates = IIDConductance(TWO_POINT, time_flavor="continuous")
    flat_rates = IIDConductance(ScalarDist.constant(1.0), time_flavor="continuous")
    # regime: (discrete model, rate model, lam, tol, max_terms)
    regimes = {
        "converged": (omega, rates, 1.0, 1e-12, 10**6),
        # IIDOmega has no ratio majorant, and its single-site ratios
        # 2 e^-0.1 > 1 defeat the ratio test; within 5000 terms its products
        # do not yet underflow to 0.  The continuous-time series certifies by
        # the ratio test: its ratios e^-0.1 are constant
        "inconclusive": (omega, rates, 0.05, 1e-10, 5000),
        # the same ratios on conductances: the model's majorant stops them
        "majorant": (cond, rates, 0.1, 1e-10, 10**4),
        "diverged": (flat, flat_rates, 0.0, 1e-10, 10**4),
        "overflow": (cond, rates, -5.0, 1e-10, 10**4),
        # products underflow to exactly 0 within three terms; the rate
        # series stops at its majorant's first term
        "underflow": (omega, rates, 200.0, 1e-10, 10**4),
    }
    cases = {}
    for regime, (dmodel, rmodel, lam, tol, budget) in regimes.items():
        for name, fn in _SERIES.items():
            model = rmodel if name in _RATE_SERIES else dmodel
            cases[f"{name}-{regime}"] = (fn, model, 3, lam, tol, budget)
    # stops on the last term of a block and on the first term of the next
    # (sites 0, -1, ... from a (-4, 4) window: blocks end at 5, 133, 389 ...;
    # sites 1, 2, ...: at 4, 132, 388 ...)
    for name, lam, tol, used in (("sbar", 0.5, 6.5e-61, 133),
                                 ("sbar", 0.5, 3.3e-61, 134),
                                 ("v", 0.5, 1.7e-57, 132),
                                 ("v", 0.5, 1.2e-57, 133)):
        cases[f"{name}-stop{used}"] = (_SERIES[name], omega, 0, lam, tol, 10**6)
    return cases


def _golden_row(case):
    fn, model, seed, lam, tol, budget = case
    res = fn(materialize(model, seed, (-4, 4)), lam, tol, budget)
    return (float(res.value).hex(), float(res.error_bound).hex(), res.status,
            res.terms_used)


GOLDEN = {
    'lambda-converged': ('0x1.622acc5a8d4e7p+0', '0x1.6c708846dc669p-146', 'converged', 51),
    'lambda-diverged': ('inf', 'inf', 'diverged', 550),
    'lambda-inconclusive': ('inf', 'inf', 'inconclusive', 5000),
    'lambda-majorant': ('0x1.1590c2e3c2a39p+3', '0x1.50546e6383144p-33', 'converged', 128),
    'lambda-overflow': ('inf', 'inf', 'diverged', 65),
    'lambda-underflow': ('0x1.0000000000000p+0', '0x0.0p+0', 'converged', 2),
    'sbar-converged': ('0x1.2cb4668954826p+0', '0x1.509ba9f59b621p-148', 'converged', 51),
    'sbar-diverged': ('0x1.1300000000000p+10', 'inf', 'diverged', 550),
    'sbar-inconclusive': ('0x1.b8aabc8f77fd9p+2', 'inf', 'inconclusive', 5000),
    'sbar-majorant': ('0x1.e58d1abdeb06cp+3', '0x1.7129d648182f0p-34', 'converged', 131),
    'sbar-overflow': ('0x1.af1bce264da7bp+937', 'inf', 'diverged', 65),
    'sbar-stop133': ('0x1.e95f6d8b3c291p+1', '0x1.37f65f550511ep-201', 'converged', 133),
    'sbar-stop134': ('0x1.e95f6d8b3c291p+1', '0x1.cb0ee652f5ee5p-204', 'converged', 134),
    'sbar-underflow': ('0x1.0000000000000p+0', '0x0.0p+0', 'converged', 3),
    'shat-converged': ('0x1.b3ab8a78b7c10p-2', '0x1.4b3771e11092dp-41', 'converged', 14),
    'shat-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'shat-inconclusive': ('0x1.3fdde06a17903p+3', '0x1.99427f18ee948p-34', 'converged', 254),
    'shat-majorant': ('0x1.3f77a033894efp+2', '0x1.7464f4643891bp-34', 'converged', 124),
    'shat-overflow': ('0x1.73cbbd1a57e5bp+930', 'inf', 'diverged', 65),
    'shat-underflow': ('0x1.6061812054cfap-289', '0x1.4dd4d0d133da1p-865', 'converged', 1),
    'u-converged': ('0x1.65a3344aa4133p-4', '0x1.55577f46014ffp-152', 'converged', 51),
    'u-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'u-inconclusive': ('0x1.78aabc8f77fd8p+1', 'inf', 'inconclusive', 5000),
    'u-majorant': ('0x1.c58d1abde4362p+2', '0x1.71d9e37615902p-34', 'converged', 128),
    'u-overflow': ('0x1.af16cb75947cfp+937', 'inf', 'diverged', 65),
    'u-underflow': ('0x1.e50c483c04dcfp-579', '0x0.0p+0', 'converged', 2),
    'v-converged': ('0x1.2ee1bb3ab5b06p-2', '0x1.55577f46014ffp-146', 'converged', 51),
    'v-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'v-inconclusive': ('0x1.514f8905e4cd7p+10', 'inf', 'inconclusive', 5000),
    'v-majorant': ('0x1.e275b13fcf260p+1', '0x1.71d9e37615902p-34', 'converged', 128),
    'v-overflow': ('0x1.af144a1d38e34p+937', 'inf', 'diverged', 65),
    'v-stop132': ('0x1.fe7fb1b71a236p-3', '0x1.077ec323f4ecdp-189', 'converged', 132),
    'v-stop133': ('0x1.fe7fb1b71a236p-3', '0x1.83bce18881286p-190', 'converged', 133),
    'v-underflow': ('0x1.e50c483c04dcfp-577', '0x0.0p+0', 'converged', 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(_golden_cases()))
def test_quenched_series_golden(name):
    assert _golden_row(_golden_cases()[name]) == GOLDEN[name]


# ---------------------------------------------------------------------------
# block certifier against the term-by-term loop it replaces
# ---------------------------------------------------------------------------

def _scalar_certified_sum(terms, tol, max_terms=10**6, window=50,
                          divergence_run=500, majorant=None):
    total = 0.0
    prev = None
    ratios = deque(maxlen=window)
    heights = deque(maxlen=window + 1)
    div_count = 0
    n = 0
    for t in itertools.islice(terms, max_terms):
        n += 1
        total += t
        if t == 0.0:
            return SeriesValue(total, 0.0, "converged", n)
        if t > 1e280:
            return SeriesValue(total, math.inf, "diverged", n)
        if majorant is not None:
            bound = series._tail_bound(*majorant, n)
            if bound <= tol:
                return SeriesValue(total, bound, "converged", n)
        if prev is not None:
            ratios.append(t / prev)
        heights.append(t)
        prev = t
        if len(ratios) == window:
            r = max(ratios)
            if r < 1.0:
                bound = t * r / (1.0 - r)
                if bound <= tol:
                    return SeriesValue(total, bound, "converged", n)
            gm_ratio = (t / heights[0]) ** (1.0 / window)
            if gm_ratio >= 1.0:
                div_count += 1
                if div_count >= divergence_run:
                    return SeriesValue(total, math.inf, "diverged", n)
            else:
                div_count = 0
    return SeriesValue(total, math.inf, "inconclusive", n)


def _exact(res):
    return (float(res.value).hex(), float(res.error_bound).hex(), res.status,
            res.terms_used)


def _near_one_terms():
    # windowed ratios within a few ulps below 1, where the power
    # (t / t_-50)**(1/50) rounds to 1.0 for some and below 1 for others
    rng = np.random.default_rng(4)
    steps = rng.integers(-3, 2, 3000) * 2.0**-53
    return 1.0 + np.cumsum(steps)


def _alternating(n, q=0.8, lift=1.5):
    """q^i, times lift at odd i: ratios alternate q lift > 1 and q/lift, so
    the ratio test never passes; term i is at most lift q^i."""
    return q ** np.arange(float(n)) * np.where(np.arange(n) % 2, lift, 1.0)


_RNG = np.random.default_rng(2)
# name: (terms, tol, max_terms, window, divergence_run, majorant)
_EDGE_CASES = {
    "noisy-geometric": (np.exp(np.cumsum(np.log(0.8) + 0.05 * _RNG.standard_normal(4000))),
                        1e-12, 10**6, 50, 500, None),
    "run-across-blocks": (np.ones(2000), 1e-10, 10**6, 50, 500, None),
    "recurrent": (np.exp(np.cumsum(0.3 * _RNG.standard_normal(20_000))),
                  1e-10, 20_000, 50, 500, None),
    "budget-not-block-multiple": (0.99999 ** np.arange(5000), 1e-10, 700, 50, 500,
                                  None),
    "overflow": (10.0 ** np.arange(300.0), 1e-10, 10**6, 50, 500, None),
    "run-before-overflow": (10.0 ** np.arange(300.0), 1e-10, 10**6, 50, 5, None),
    "underflow": (1e-30 ** np.arange(20.0), 1e-10, 10**6, 50, 500, None),
    "near-one": (_near_one_terms(), 1e-10, 10**6, 50, 7, None),
    "small-window": (np.exp(np.cumsum(-0.01 + 0.02 * _RNG.standard_normal(5000))),
                     1e-6, 10**6, 5, 3, None),
    "unit-window": (np.exp(np.cumsum(0.01 * _RNG.standard_normal(5000))),
                    1e-6, 10**6, 1, 40, None),
    "long-window": (0.97 ** np.arange(3000.0), 1e-12, 10**6, 120, 40, None),
    "exhausted": (0.9 ** np.arange(30.0), 1e-10, 10**6, 50, 500, None),
    # the majorant's stop term (tol = its bound at term 64 or 65) on the
    # last term of the certifier's first block, on the first term of the
    # next, and inside a block
    "majorant-block-end": (_alternating(400), series._tail_bound(1.5, 0.8, 64), 10**6,
                           50, 500, (1.5, 0.8)),
    "majorant-next-block": (_alternating(400), series._tail_bound(1.5, 0.8, 65), 10**6,
                            50, 500, (1.5, 0.8)),
    "majorant-within-block": (_alternating(400), 1e-10, 10**6, 50, 500, (1.5, 0.8)),
    "majorant-in-first-terms": (_alternating(400), 0.5, 10**6, 50, 500, (1.5, 0.8)),
    # the ratio test stops first
    "ratio-before-majorant": (0.5 ** np.arange(400.0), 1e-10, 10**6, 50, 500,
                              (1e6, 0.9)),
    # a majorant that does not hold: the divergence run stops first, or the
    # stop comes before the run could reach its length
    "run-before-majorant": (np.ones(3000), 1e-10, 10**6, 50, 500, (1e-3, 0.99)),
    "majorant-before-run": (np.ones(3000), 1e-10, 10**6, 50, 500, (1e-3, 0.9)),
    "majorant-past-budget": (_alternating(400), 1e-10, 90, 50, 500, (1.5, 0.8)),
}


def test_near_one_case_reaches_the_scalar_power():
    t = [float(v) for v in _near_one_terms()]
    rounded_up = sum(1 for a, b in zip(t, t[50:])
                     if b / a < 1.0 and (b / a) ** (1.0 / 50) >= 1.0)
    assert rounded_up > 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("first,most", [(1, 1), (7, 7), (3, 50), (64, 1 << 14),
                                        (1000, 1000)])
@pytest.mark.parametrize("name", sorted(_EDGE_CASES))
def test_block_certifier_matches_scalar_loop(name, first, most):
    terms, tol, budget, window, run, majorant = _EDGE_CASES[name]
    want = _scalar_certified_sum((float(t) for t in terms), tol, budget,
                                 window, run, majorant)
    got = series._certify(_array_source(terms, first, most), tol, budget,
                          window, run, majorant)
    assert _exact(got) == _exact(want)
    assert type(got.value) is float and type(got.error_bound) is float


def test_edge_cases_cover_every_outcome():
    outcomes = {(r.status, r.error_bound == 0.0)
                for r in (_scalar_certified_sum(iter(c[0]), *c[1:])
                          for c in _EDGE_CASES.values())}
    assert outcomes == {("converged", False), ("converged", True),
                        ("diverged", False), ("inconclusive", False)}
