import itertools
import math
from collections import deque

import numpy as np
import pytest

from rwrelab import (IIDConductance, IIDOmega, ScalarDist, SeriesValue,
                     certified_sum, fbar_quenched, fhat_quenched,
                     lambda_factor, load_environment, materialize,
                     sbar_quenched, save_environment, shat_quenched,
                     u_quenched, v_quenched)
from rwrelab import series
from rwrelab.rng import CounterStream

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
COTH_HALF = 2.163953413738653            # (1+1/e)/(1-1/e)


def geometric(r, first=1.0):
    t = first
    while True:
        yield t
        t *= r


def test_certified_sum_geometric_bound_holds():
    for r in (0.2, 0.7, 0.95):
        res = certified_sum(geometric(r), tol=1e-12)
        assert res.converged
        truth = 1.0 / (1.0 - r)
        assert abs(res.value - truth) <= res.error_bound + 1e-13
        assert res.error_bound <= 1e-12


def test_certified_sum_divergence_and_budget():
    res = certified_sum(geometric(1.0), tol=1e-10, max_terms=3000)
    assert res.diverged
    res = certified_sum(geometric(1.3), tol=1e-10, max_terms=5000)
    assert res.diverged
    # converging too slowly for the budget: inconclusive, not diverged
    res = certified_sum(geometric(0.99999), tol=1e-10, max_terms=700)
    assert res.status == "inconclusive"


def test_certified_sum_rejects_bad_tol():
    with pytest.raises(ValueError):
        certified_sum(geometric(0.5), tol=0.0)


def test_sbar_symmetric_environment_matches_coth():
    env = materialize(IIDConductance(ScalarDist.constant(1.0)), 0, (-4, 4))
    res = sbar_quenched(env, 0.5, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(COTH_HALF, abs=2e-12)
    assert fbar_quenched(env, -0.5, tol=1e-12).value == pytest.approx(
        COTH_HALF, abs=2e-12)


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
        c = TWO_POINT.from_uniforms(   # sites -600..0, read off the stream
            CounterStream(seed, "env", model.tag, 0, "c").site_uniforms(-600, 0))
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
    # leftward series of the reflected dynamics at the mirrored field
    fh = fhat_quenched(env, -1.0, tol=1e-12)
    assert fh.value == pytest.approx(res.value, abs=1e-12)


def test_series_extends_environment_window_on_demand():
    env = materialize(IIDConductance(TWO_POINT), 12, (-1, 1))
    res = sbar_quenched(env, 0.6, tol=1e-12)
    assert res.converged
    assert env.lo < -20  # terms forced the window open to the left


def test_recurrent_environment_is_never_certified_convergent():
    # at zero field with E[log rho] = 0 the quenched terms wander over orders
    # of magnitude; the evaluator must refuse to certify rather than guess
    env = materialize(IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)), 2, (-4, 4))
    res = sbar_quenched(env, 0.0, tol=1e-10, max_terms=20_000)
    assert res.status in ("diverged", "inconclusive")


# ---------------------------------------------------------------------------
# golden outputs: float.hex of (value, error_bound), status and terms_used,
# recorded from the per-term evaluators; block evaluation must reproduce them
# bit for bit
# ---------------------------------------------------------------------------

RHO_TWO_POINT = ScalarDist.two_point(0.5, 2.0, 0.5)

# name: (evaluator, sign of lam) -- the leftward series mirror the field
_SERIES = {"sbar": (sbar_quenched, 1.0), "u": (u_quenched, 1.0),
           "v": (v_quenched, 1.0), "lambda": (lambda_factor, 1.0),
           "fbar": (fbar_quenched, -1.0), "shat": (shat_quenched, 1.0),
           "fhat": (fhat_quenched, -1.0)}
_RATE_SERIES = ("shat", "fhat")


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
        # single-site ratios 2 e^-0.1 > 1 defeat the ratio test (the
        # continuous-time series still certify)
        "inconclusive": (cond, rates, 0.05, 1e-10, 10**4),
        "diverged": (flat, flat_rates, 0.0, 1e-10, 10**4),
        "overflow": (cond, rates, -5.0, 1e-10, 10**4),
        # products underflow to exactly 0 within three terms
        "underflow": (omega, rates, 200.0, 1e-10, 10**4),
    }
    cases = {}
    for regime, (dmodel, rmodel, lam, tol, budget) in regimes.items():
        for name, (fn, sign) in _SERIES.items():
            model = rmodel if name in _RATE_SERIES else dmodel
            cases[f"{name}-{regime}"] = (fn, model, 3, sign * lam, tol, budget)
    # stops on the last term of a block and on the first term of the next
    # (sites 0, -1, ... from a (-4, 4) window: blocks end at 5, 133, 389 ...;
    # sites 1, 2, ...: at 4, 132, 388 ...)
    for name, lam, tol, used in (("sbar", 0.5, 6.5e-61, 133),
                                 ("sbar", 0.5, 3.3e-61, 134),
                                 ("fbar", -0.5, 7.5e-57, 133),
                                 ("fbar", -0.5, 1.3e-57, 134),
                                 ("v", 0.5, 1.7e-57, 132),
                                 ("v", 0.5, 1.2e-57, 133)):
        cases[f"{name}-stop{used}"] = (_SERIES[name][0], omega, 0, lam, tol, 10**6)
    return cases


def _golden_row(case):
    fn, model, seed, lam, tol, budget = case
    res = fn(materialize(model, seed, (-4, 4)), lam, tol, budget)
    return (float(res.value).hex(), float(res.error_bound).hex(), res.status,
            res.terms_used)


GOLDEN = {
    'fbar-converged': ('0x1.96aef371c028ap+0', '0x1.509ba9f59b581p-148', 'converged', 51),
    'fbar-diverged': ('0x1.1300000000000p+10', 'inf', 'diverged', 550),
    'fbar-inconclusive': ('0x1.9eb69676ce135p+4', 'inf', 'inconclusive', 10000),
    'fbar-overflow': ('0x1.af16cb66a35ccp+938', 'inf', 'diverged', 65),
    'fbar-stop133': ('0x1.ed4547b92b10bp+0', '0x1.37f65f5505046p-189', 'converged', 133),
    'fbar-stop134': ('0x1.ed4547b92b10bp+0', '0x1.cb0ee652f5da4p-192', 'converged', 134),
    'fbar-underflow': ('0x1.0000000000000p+0', '0x0.0p+0', 'converged', 3),
    'fhat-converged': ('0x1.b3ab8a78b90c3p-2', '0x1.87516f8dfbba9p-149', 'converged', 51),
    'fhat-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'fhat-inconclusive': ('0x1.3fdde06a17902p+3', '0x1.99427f18ee91fp-34', 'converged', 254),
    'fhat-overflow': ('0x1.73cbbd1a57e29p+930', 'inf', 'diverged', 65),
    'fhat-underflow': ('0x1.6061812054cfap-289', '0x0.0p+0', 'converged', 3),
    'lambda-converged': ('0x1.622acc5a8d4e7p+0', '0x1.6c708846dc669p-146', 'converged', 51),
    'lambda-diverged': ('inf', 'inf', 'diverged', 550),
    'lambda-inconclusive': ('inf', 'inf', 'inconclusive', 10000),
    'lambda-overflow': ('inf', 'inf', 'diverged', 65),
    'lambda-underflow': ('0x1.0000000000000p+0', '0x0.0p+0', 'converged', 2),
    'sbar-converged': ('0x1.2cb4668954826p+0', '0x1.509ba9f59b621p-148', 'converged', 51),
    'sbar-diverged': ('0x1.1300000000000p+10', 'inf', 'diverged', 550),
    'sbar-inconclusive': ('0x1.ebe9277823c22p+4', 'inf', 'inconclusive', 10000),
    'sbar-overflow': ('0x1.af1bce264da7bp+937', 'inf', 'diverged', 65),
    'sbar-stop133': ('0x1.e95f6d8b3c291p+1', '0x1.37f65f550511ep-201', 'converged', 133),
    'sbar-stop134': ('0x1.e95f6d8b3c291p+1', '0x1.cb0ee652f5ee5p-204', 'converged', 134),
    'sbar-underflow': ('0x1.0000000000000p+0', '0x0.0p+0', 'converged', 3),
    'shat-converged': ('0x1.b3ab8a78b90c3p-2', '0x1.87516f8dfbbc4p-149', 'converged', 51),
    'shat-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'shat-inconclusive': ('0x1.3fdde06a17903p+3', '0x1.99427f18ee948p-34', 'converged', 254),
    'shat-overflow': ('0x1.73cbbd1a57e5bp+930', 'inf', 'diverged', 65),
    'shat-underflow': ('0x1.6061812054cfap-289', '0x0.0p+0', 'converged', 3),
    'u-converged': ('0x1.65a3344aa4133p-4', '0x1.55577f46014ffp-152', 'converged', 51),
    'u-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'u-inconclusive': ('0x1.dbe9277823c24p+3', 'inf', 'inconclusive', 10000),
    'u-overflow': ('0x1.af16cb75947cfp+937', 'inf', 'diverged', 65),
    'u-underflow': ('0x1.e50c483c04dcfp-579', '0x0.0p+0', 'converged', 2),
    'v-converged': ('0x1.2ee1bb3ab5b06p-2', '0x1.55577f46014ffp-146', 'converged', 51),
    'v-diverged': ('0x1.1300000000000p+9', 'inf', 'diverged', 550),
    'v-inconclusive': ('0x1.f82752198ae73p+2', 'inf', 'inconclusive', 10000),
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
                          divergence_run=500):
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


def _array_source(terms):
    def source(sizes):
        i = 0
        for m in sizes:
            yield terms[i:i + m]
            i += m
    return source


def _exact(res):
    return (float(res.value).hex(), float(res.error_bound).hex(), res.status,
            res.terms_used)


def _near_one_terms():
    # windowed ratios within a few ulps below 1, where the power
    # (t / t_-50)**(1/50) rounds to 1.0 for some and below 1 for others
    rng = np.random.default_rng(4)
    steps = rng.integers(-3, 2, 3000) * 2.0**-53
    return 1.0 + np.cumsum(steps)


_RNG = np.random.default_rng(2)
# name: (terms, tol, max_terms, window, divergence_run)
_EDGE_CASES = {
    "noisy-geometric": (np.exp(np.cumsum(np.log(0.8) + 0.05 * _RNG.standard_normal(4000))),
                        1e-12, 10**6, 50, 500),
    "run-across-blocks": (np.ones(2000), 1e-10, 10**6, 50, 500),
    "recurrent": (np.exp(np.cumsum(0.3 * _RNG.standard_normal(20_000))),
                  1e-10, 20_000, 50, 500),
    "budget-not-block-multiple": (0.99999 ** np.arange(5000), 1e-10, 700, 50, 500),
    "overflow": (10.0 ** np.arange(300.0), 1e-10, 10**6, 50, 500),
    "run-before-overflow": (10.0 ** np.arange(300.0), 1e-10, 10**6, 50, 5),
    "underflow": (1e-30 ** np.arange(20.0), 1e-10, 10**6, 50, 500),
    "near-one": (_near_one_terms(), 1e-10, 10**6, 50, 7),
    "small-window": (np.exp(np.cumsum(-0.01 + 0.02 * _RNG.standard_normal(5000))),
                     1e-6, 10**6, 5, 3),
    "unit-window": (np.exp(np.cumsum(0.01 * _RNG.standard_normal(5000))),
                    1e-6, 10**6, 1, 40),
    "long-window": (0.97 ** np.arange(3000.0), 1e-12, 10**6, 120, 40),
    "exhausted": (0.9 ** np.arange(30.0), 1e-10, 10**6, 50, 500),
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
    terms, tol, budget, window, run = _EDGE_CASES[name]
    want = _scalar_certified_sum((float(t) for t in terms), tol, budget,
                                 window, run)
    got = series._certify(_array_source(terms), tol, budget, window, run,
                          first=first, most=most)
    assert _exact(got) == _exact(want)
    assert type(got.value) is float and type(got.error_bound) is float


def test_edge_cases_cover_every_outcome():
    outcomes = {(r.status, r.error_bound == 0.0)
                for r in (_scalar_certified_sum(iter(c[0]), *c[1:])
                          for c in _EDGE_CASES.values())}
    assert outcomes == {("converged", False), ("converged", True),
                        ("diverged", False), ("inconclusive", False)}


@pytest.mark.filterwarnings("error")
def test_certified_sum_pulls_terms_lazily():
    pulled = 0

    def counting(r):
        nonlocal pulled
        t = 1.0
        while True:
            pulled += 1
            yield t
            t *= r

    for r in (0.5, 0.9, 1.0):
        pulled = 0
        res = certified_sum(counting(r), tol=1e-12, max_terms=5000)
        assert res.terms_used <= pulled < res.terms_used + series._PULL
        assert _exact(res) == _exact(_scalar_certified_sum(
            geometric(r), 1e-12, 5000))


@pytest.mark.filterwarnings("error")
def test_series_on_snapshot_stops_inside_its_window(tmp_path):
    env = materialize(IIDOmega(RHO_TWO_POINT), 0, (-150, 150))
    path = tmp_path / "env.txt"
    save_environment(env, path)
    snap = load_environment(path)
    res = sbar_quenched(snap, 0.5, 3.3e-61)
    assert res.terms_used == 134
    assert _exact(res) == _exact(sbar_quenched(env, 0.5, 3.3e-61))
