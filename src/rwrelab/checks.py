"""Acceptance checks: every closed form cross-validated against Monte Carlo
and exact oracles at fixed scales and tolerances.

Each check returns a CheckResult with machine-readable diagnostics; the CLI
`check` command and the acceptance test suite both run these functions at
their default (full) scales.  All randomness hangs off one root seed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .closed_forms import (a1_coefficient, a1_uniform,
                           coinflip_second_right_derivative, esbar_rcm,
                           sigma2_rcm, sigma2_rcm_at_zero,
                           sigma2_rcm_direct, velocity_coinflip,
                           velocity_iid_omega,
                           velocity_iid_omega_right_derivative,
                           velocity_rcm_continuous, velocity_rcm_discrete)
from .distributions import ScalarDist
from .environments import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv,
                           materialize)
from .estimators import (annealed_diffusion, annealed_tau1, annealed_velocity,
                         renewal_product_moment, tau1_tail,
                         velocity_jump_probe)
from .exact import (exact_product_moment, exact_sbar_periodic,
                    exact_tau1_periodic_continuous, exact_walk_distribution)
from .rng import derive_seed, generator
from .series import lambda_factor, sbar_quenched, u_quenched, v_quenched
from .walks import ensemble_discrete

DEFAULT_SEED = 20260807

_TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
_CONST_ONE = ScalarDist.constant(1.0)


@dataclass
class CheckResult:
    name: str
    passed: bool
    seconds: float
    criterion: str
    measured: dict = field(default_factory=dict)
    aborted: int = 0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.seconds:.1f}s): {self.criterion}"


def _timer(fn):
    def wrapped(seed: int = DEFAULT_SEED, workers: int = 1) -> CheckResult:
        t0 = time.perf_counter()
        res = fn(seed, workers)
        res.seconds = time.perf_counter() - t0
        return res
    wrapped.__name__ = fn.__name__
    wrapped.__doc__ = fn.__doc__
    return wrapped


def _zrow(est, target: float) -> dict:
    z = (est.mean - target) / est.std_error if est.std_error else math.inf
    return {"mc": est.mean, "se": est.std_error, "target": target,
            "z": z, "ok": abs(z) <= 3.0, "excluded": est.excluded}


# ---------------------------------------------------------------------------
# 1. velocity closed forms vs MC, discrete RCM
# ---------------------------------------------------------------------------

@_timer
def check_velocity_discrete(seed, workers) -> CheckResult:
    """Two-point {1,2} and deterministic conductances at lam in
    {0.25, 0.5, 1}: annealed mean of X_n/n (n=1e5, 2000 replicas) within
    3 s.e. of the closed forms."""
    n, replicas = 10**5, 2000
    rows = {}
    aborted = 0
    for tag, dist in (("two-point", _TWO_POINT), ("deterministic", _CONST_ONE)):
        model = IIDConductance(dist)
        a, b = dist.moment(1), dist.moment(-1)
        for lam in (0.25, 0.5, 1.0):
            est = annealed_velocity(model, lam, n=n, replicas=replicas,
                                    seed=derive_seed(seed, "c1", tag, str(lam)),
                                    workers=workers)
            rows[f"{tag} lam={lam}"] = _zrow(est, velocity_rcm_discrete(lam, a, b).v)
            aborted += est.excluded
    return CheckResult("velocity-discrete", all(r["ok"] for r in rows.values()),
                       0.0, "|MC - closed form| <= 3 s.e. (n=1e5, 2000 reps)",
                       rows, aborted)


# ---------------------------------------------------------------------------
# 2. velocity closed form vs MC, continuous RCM
# ---------------------------------------------------------------------------

@_timer
def check_velocity_continuous(seed, workers) -> CheckResult:
    """Continuous RCM at lam=1, horizon 1e4, 1000 replicas: mean of Y_t/t
    within 3 s.e. of (e - 1/e)/E[1/c]."""
    horizon, replicas = 1e4, 1000
    rows = {}
    aborted = 0
    for tag, dist in (("constant", _CONST_ONE), ("two-point", _TWO_POINT)):
        model = IIDConductance(dist, time_flavor="continuous")
        est = annealed_velocity(model, 1.0, horizon=horizon, replicas=replicas,
                                seed=derive_seed(seed, "c2", tag),
                                workers=workers)
        rows[tag] = _zrow(est, velocity_rcm_continuous(1.0, dist.moment(-1)).v)
        aborted += est.excluded
    return CheckResult("velocity-continuous", all(r["ok"] for r in rows.values()),
                       0.0, "|MC - closed form| <= 3 s.e. (t=1e4, 1000 reps)",
                       rows, aborted)


# ---------------------------------------------------------------------------
# 3. coin-flip model
# ---------------------------------------------------------------------------

@_timer
def check_coinflip(seed, workers) -> CheckResult:
    """Coin-flip paired rates (both sequences two-point {1,2}): annealed
    velocity at lam in {0.5, 1} within 3 s.e. of the closed form, and the
    h=1e-3 second difference of the closed form within 1% of the exact second
    right derivative at 0."""
    model = CoinFlip(_TWO_POINT, _TWO_POINT)
    a, b = _TWO_POINT.moment(1), _TWO_POINT.moment(-1)
    rows = {}
    aborted = 0
    for lam in (0.5, 1.0):
        est = annealed_velocity(model, lam, horizon=1e4, replicas=1000,
                                seed=derive_seed(seed, "c3", str(lam)),
                                workers=workers)
        rows[f"lam={lam}"] = _zrow(est, velocity_coinflip(lam, a, b).v)
        aborted += est.excluded
    h = 1e-3
    fd = (velocity_coinflip(2 * h, a, b).v
          - 2 * velocity_coinflip(h, a, b).v) / h**2
    exact = coinflip_second_right_derivative(a, b)
    rel = abs(fd - exact) / abs(exact)
    rows["second-derivative"] = {"fd": fd, "exact": exact,
                                 "rel_err": rel, "ok": rel <= 0.01}
    return CheckResult("coinflip", all(r["ok"] for r in rows.values()), 0.0,
                       "velocity within 3 s.e.; FD 2nd right derivative "
                       "within 1%", rows, aborted)


# ---------------------------------------------------------------------------
# 4. Einstein relation
# ---------------------------------------------------------------------------

@_timer
def check_einstein(seed, workers) -> CheckResult:
    """Two-point {1,2}: analytic v(h)/h at h=1e-4 within 1e-3 of 1/(ab); MC
    slope v(h)/h at h=0.05 (n=1e6, 5000 replicas) within 3 s.e. of the exact
    velocity_rcm_discrete(h).v/h.  Its distance to 1/(ab), which includes
    the O(h^2) term of v(h)/h, is reported as bias_term."""
    a, b = _TWO_POINT.moment(1), _TWO_POINT.moment(-1)
    limit = 1.0 / (a * b)
    h_a = 1e-4
    analytic = velocity_rcm_discrete(h_a, a, b).v / h_a
    rows = {"analytic": {"slope": analytic, "target": limit,
                         "err": abs(analytic - limit),
                         "ok": abs(analytic - limit) <= 1e-3}}
    h = 0.05
    model = IIDConductance(_TWO_POINT)
    est = annealed_velocity(model, h, n=10**6, replicas=5000,
                            seed=derive_seed(seed, "c4"), workers=workers)
    target = velocity_rcm_discrete(h, a, b).v / h
    se = est.std_error / h
    z = (est.mean / h - target) / se
    rows["mc"] = {"slope": est.mean / h, "bias_term": target - limit,
                  "se": se, "target": target, "limit": limit,
                  "z": z, "ok": abs(z) <= 3.0, "excluded": est.excluded}
    return CheckResult("einstein", all(r["ok"] for r in rows.values()), 0.0,
                       "analytic slope within 1e-3 of 1/(ab); MC slope within "
                       "3 s.e. of the exact v(h)/h", rows, est.excluded)


# ---------------------------------------------------------------------------
# 5. diffusivity and recentered CLT
# ---------------------------------------------------------------------------

@_timer
def check_diffusivity(seed, workers) -> CheckResult:
    """Sample variance of (X_n - vn)/sqrt(n) at n=1e4 over 1e4 replicas:
    within 10% of the closed form for two-point {1,2} at lam=1, within 5% of
    4/(e+1/e)^2 for the deterministic case; KS distance to Gaussian <= 0.03."""
    n, replicas = 10**4, 10**4
    rows = {}
    aborted = 0
    cases = (("two-point", _TWO_POINT, 0.10),
             ("deterministic", _CONST_ONE, 0.05))
    for tag, dist, tol in cases:
        model = IIDConductance(dist)
        ref = sigma2_rcm(1.0, dist.moment(1), dist.moment(-1),
                         dist.moment(2), dist.moment(-2)).sigma2
        res = annealed_diffusion(model, 1.0, n, replicas,
                                 derive_seed(seed, "c5", tag), workers=workers)
        rel = abs(res.variance.mean - ref) / ref
        rows[tag] = {"variance": res.variance.mean, "se": res.variance.std_error,
                     "target": ref, "rel_err": rel, "ks": res.ks_distance,
                     "ok": rel <= tol and res.ks_distance <= 0.03,
                     "excluded": res.variance.excluded}
        aborted += res.variance.excluded
    return CheckResult("diffusivity", all(r["ok"] for r in rows.values()), 0.0,
                       "variance within 10%/5% of closed form; KS <= 0.03",
                       rows, aborted)


# ---------------------------------------------------------------------------
# 6. regularity signatures
# ---------------------------------------------------------------------------

@_timer
def check_regularity(seed, workers) -> CheckResult:
    """One-sided derivatives of the i.i.d. velocity at the threshold equal
    1 (right) and 0 (left) to 1e-6; the diffusivity slope a1 at 0+ is > 0 for
    two-point {1,M} (M = 2, 10) and uniform [1,x] (x = 2, 10) conductances
    and exactly 0 for deterministic ones."""
    e_rho = e_rho_inv = 1.25       # rho in {1/2, 2} fair
    lam_plus = 0.5 * math.log(e_rho)
    analytic_right = velocity_iid_omega_right_derivative(lam_plus, e_rho)

    def vv(lam):
        return velocity_iid_omega(lam, e_rho, e_rho_inv).v

    h = 1e-4
    fd1 = (vv(lam_plus + h) - vv(lam_plus)) / h
    fd2 = (vv(lam_plus + h / 2) - vv(lam_plus)) / (h / 2)
    right = 2.0 * fd2 - fd1      # Richardson: error O(h^2) each, O(h^3) combined
    left = (vv(lam_plus) - vv(lam_plus - h)) / h
    rows = {"right-derivative": {"numeric": right, "analytic": analytic_right,
                                 "ok": abs(right - 1.0) <= 1e-6
                                       and abs(analytic_right - 1.0) <= 1e-12},
            "left-derivative": {"numeric": left, "ok": abs(left) <= 1e-6}}
    for mm in (2.0, 10.0):
        d = ScalarDist.two_point(1.0, mm, 0.5)
        val = a1_coefficient(d.moment(1), d.moment(-1), d.moment(2), d.moment(-2))
        rows[f"a1 two-point M={mm}"] = {"a1": val, "ok": val > 0}
    for x in (2.0, 10.0):
        val = a1_uniform(x)
        rows[f"a1 uniform x={x}"] = {"a1": val, "ok": val > 0}
    det = a1_coefficient(1.0, 1.0, 1.0, 1.0)
    rows["a1 deterministic"] = {"a1": det, "ok": det == 0.0}
    return CheckResult("regularity", all(r["ok"] for r in rows.values()), 0.0,
                       "threshold derivatives 1/0 to 1e-6; a1 > 0 for random "
                       "families, = 0 deterministic", rows)


# ---------------------------------------------------------------------------
# 7. renewal environment
# ---------------------------------------------------------------------------

@_timer
def check_renewal_scaling(seed, workers) -> CheckResult:
    """gamma=3 renewal environment, 1e5 fresh environments: log-log slope of
    the product moment over n in [1e2, 1e4] within 0.3 of -2; every
    estimate above the exact lower bound P(tau_1 > n)/2 minus 3 s.e.; every
    estimate within 3 s.e. of the exact renewal recursion
    (exact_product_moment); the crossing-series probe classifies
    lam_plus - 0.1 as diverging and lam_plus as converging with
    v(lam_plus) > 0 by 3 s.e.; its v(lam_plus) within 3 s.e. of the exact
    truncated series 1/(1 + 2 sum_{i<=512} E[Z_0...Z_i]), the moments from
    exact_product_moment(3, 512).

    The product moment is dominated by the event {tau_1 > n} of probability
    ~0.42 n^-2; expected_hits records how many of the replicas would see it
    at each n, i.e. what direct Monte Carlo could resolve at this budget.
    renewal_product_moment integrates that event out exactly, so every grid
    point is resolved; the oracle clause records each point's z and the
    estimator's truncation bound.  The probe runs on the same conditional
    estimator.
    """
    gamma, replicas = 3.0, 10**5
    grid = [100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000]
    rs = renewal_product_moment(gamma, grid, replicas,
                                derive_seed(seed, "c7", "moments"))
    rows = {}
    slope_ok = bool(rs.fit is not None and abs(rs.fit.slope + 2.0) <= 0.3)
    rows["slope"] = {
        "slope": None if rs.fit is None else rs.fit.slope,
        "se": None if rs.fit is None else rs.fit.slope_std_error,
        "target": -2.0, "tol": 0.3, "ok": slope_ok,
        "resolved_grid": list(rs.fit_resolved),
        "expected_hits": {str(nn): tau1_tail(gamma, nn) * replicas
                          for nn in grid}}
    lb_ok = bool(all(e.mean >= lb - 3.0 * e.std_error
                     for e, lb in zip(rs.estimates, rs.lower_bounds)))
    rows["lower-bound"] = {
        "ok": lb_ok,
        "violations": [{"n": nn, "mc": e.mean, "se": e.std_error, "bound": lb}
                       for nn, e, lb in zip(rs.grid, rs.estimates, rs.lower_bounds)
                       if e.mean < lb - 3.0 * e.std_error]}
    exact = exact_product_moment(gamma, max(grid))
    z = {str(nn): (e.mean - exact[nn]) / e.std_error
         for nn, e in zip(rs.grid, rs.estimates)}
    oracle_ok = bool(all(abs(v) <= 3.0 for v in z.values()))
    rows["oracle"] = {"ok": oracle_ok, "z": z, "tol": 3.0,
                      "truncation_bound": rs.truncation_bound}
    lam_plus = 0.5 * math.log(2.0)
    probe = velocity_jump_probe(2.0, gamma, [lam_plus - 0.1, lam_plus],
                                replicas=2 * 10**5,
                                seed=derive_seed(seed, "c7", "probe"))
    below, at = probe
    v_at = at.v_estimate
    v_exact = 1.0 / (1.0 + 2.0 * float(exact_product_moment(gamma, 512).sum()))
    probe_z = None if v_at is None else (v_at.mean - v_exact) / v_at.std_error
    probe_ok = bool(below.classification == "diverging"
                    and at.classification == "converging"
                    and v_at is not None
                    and v_at.mean > 3.0 * v_at.std_error
                    and abs(probe_z) <= 3.0)
    rows["jump-probe"] = {
        "below": below.classification, "at": at.classification,
        "slope_at": at.term_slope, "slope_se": at.term_slope_se,
        "v": None if v_at is None else v_at.mean,
        "v_se": None if v_at is None else v_at.std_error,
        "v_exact": v_exact, "z": probe_z, "ok": probe_ok}
    return CheckResult("renewal-scaling",
                       slope_ok and lb_ok and oracle_ok and probe_ok, 0.0,
                       "slope -2 +/- 0.3 over [1e2,1e4] at 1e5 envs; lower "
                       "bound respected; within 3 s.e. of the exact "
                       "recursion; jump probe classifies the threshold, its "
                       "v(lambda+) within 3 s.e. of the exact truncated series",
                       rows)


# ---------------------------------------------------------------------------
# 8. oracle equivalences
# ---------------------------------------------------------------------------

@_timer
def check_oracles(seed, workers) -> CheckResult:
    """Exact block-geometric crossing sums vs the certified quenched
    evaluator on 100 random periodic environments per period L in {1,2,3,5};
    the two first-passage routes agree to 1e-12 relative; the exact dynamic
    programming law of X_30 matches a 1e6-replica histogram in total
    variation <= 0.01."""
    rng = generator(seed, "c8")
    lam = 0.8
    worst_sbar = 0.0   # |exact - quenched| beyond the certified bound
    worst_tau = 0.0
    for ll in (1, 2, 3, 5):
        for _ in range(100):
            omega = tuple(0.25 + 0.5 * rng.random(ll))
            env = PeriodicEnv(omega=omega)
            exact = exact_sbar_periodic(env, lam)
            quenched = sbar_quenched(materialize(env, 0, (-2, 2)), lam, 1e-10)
            worst_sbar = max(worst_sbar, abs(exact.value - quenched.value)
                             - quenched.error_bound)
            rates = tuple((0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random())
                          for _ in range(ll))
            renv = PeriodicEnv(rates=rates)
            t_solve = exact_tau1_periodic_continuous(renv, lam, "solve")
            t_geom = exact_tau1_periodic_continuous(renv, lam, "geometric")
            worst_tau = max(worst_tau, abs(t_solve - t_geom) / t_solve)
    model = IIDConductance(_CONST_ONE)
    env = materialize(model, 0, (-30, 30))
    dist = exact_walk_distribution(env, 1.0, 30)
    res = ensemble_discrete(model, 1.0, 30, 10**6,
                            derive_seed(seed, "c8", "mc"), shared_env=env)
    hist = np.bincount(res.final_positions + 30, minlength=61) / res.replicas
    tv = 0.5 * float(np.abs(hist - dist.pmf).sum())
    mean_err = abs(dist.mean() / 30.0 - math.tanh(1.0))
    mc_mean = float(res.final_positions.mean())
    mc_var = float(res.final_positions.var(ddof=1))
    z_mean = (mc_mean - dist.mean()) / math.sqrt(dist.variance() / res.replicas)
    mu4 = float(np.dot((dist.support - dist.mean()) ** 4, dist.pmf))
    nn = res.replicas
    se_var = math.sqrt((mu4 - dist.variance() ** 2 * (nn - 3) / (nn - 1)) / nn)
    z_var = (mc_var - dist.variance()) / se_var
    rows = {"sbar": {"worst_err_beyond_bound": worst_sbar,
                     "ok": worst_sbar <= 1e-11},
            "tau1-routes": {"worst_rel_err": worst_tau, "ok": worst_tau <= 1e-12},
            "dp-vs-mc": {"tv": tv, "z_mean": z_mean, "z_var": z_var,
                         "ok": tv <= 0.01 and abs(z_mean) <= 3.0
                               and abs(z_var) <= 3.0},
            "dp-mean": {"mean_over_n": dist.mean() / 30.0,
                        "target": math.tanh(1.0), "err": mean_err,
                        "ok": mean_err <= 0.02}}
    return CheckResult("oracles", all(r["ok"] for r in rows.values()), 0.0,
                       "periodic oracles vs quenched series within tol; two "
                       "tau1 routes to 1e-12; DP vs MC in total variation and "
                       "moments", rows)


# ---------------------------------------------------------------------------
# 9. first-passage identity
# ---------------------------------------------------------------------------

@_timer
def check_lemma_b1(seed, workers) -> CheckResult:
    """Mean tau_1 over 1e4 continuous runs at c=1, lam=1 within 3 s.e. of
    1/(2 sinh 1)."""
    model = IIDConductance(_CONST_ONE, time_flavor="continuous")
    est = annealed_tau1(model, 1.0, 10**4, derive_seed(seed, "c9"))
    row = _zrow(est, 1.0 / (2.0 * math.sinh(1.0)))
    return CheckResult("lemma-b1", row["ok"], 0.0,
                       "mean first-passage time within 3 s.e. of 1/(2 sinh 1)",
                       {"tau1": row}, est.excluded)


# ---------------------------------------------------------------------------
# 10. structural invariants
# ---------------------------------------------------------------------------

def _antisymmetry(seed) -> dict:
    """v(-lam) = -v(lam): exactly, as the law of X_40 in a quenched
    environment against the reversed law in the site-reflected one at -lam,
    and in the annealed mean, by an uncoupled z-test."""
    cond = materialize(IIDConductance(_TWO_POINT), derive_seed(seed, "exact"), (-40, 40))
    coin = materialize(CoinFlip(_TWO_POINT, _TWO_POINT), derive_seed(seed, "exact"),
                       (-40, 40)).jump_chain()
    worst = 0.0
    for env, lam in ((cond, 0.3), (cond, 0.7), (cond, 2.0), (coin, 0.6)):
        pmf = exact_walk_distribution(env, lam, 40).pmf
        reflected = exact_walk_distribution(env.reflected(), -lam, 40).pmf
        worst = max(worst, float(np.abs(pmf - reflected[::-1]).max()))
    rows = {"exact": {"max_pmf_diff": worst, "ok": worst <= 1e-12}}
    for name, model, lam, kw in (
            ("discrete", IIDConductance(_TWO_POINT), 0.7, {"n": 2000, "replicas": 512}),
            ("continuous", CoinFlip(_TWO_POINT, _TWO_POINT), 0.6,
             {"horizon": 500.0, "replicas": 256})):
        plus = annealed_velocity(model, lam, seed=derive_seed(seed, name, "+"), **kw)
        minus = annealed_velocity(model, -lam, seed=derive_seed(seed, name, "-"), **kw)
        z = (plus.mean + minus.mean) / math.hypot(plus.std_error, minus.std_error)
        rows[name] = {"v_plus": plus.mean, "v_minus": minus.mean, "z": z,
                      "ok": abs(z) <= 3.0}
    return {**rows, "ok": all(r["ok"] for r in rows.values())}


def _monotone(vals, strict_mask) -> bool:
    d = np.diff(vals)
    return bool(np.all(d >= -1e-14) and np.all(d[strict_mask[:-1]] > 0))


def _monotonicity() -> dict:
    grid = np.linspace(-2.0, 2.0, 50)
    oks = {}
    vi = np.array([velocity_iid_omega(l, 1.25, 1.25).v for l in grid])
    lam_p = 0.5 * math.log(1.25)
    outside = (grid < -lam_p - 0.05) | (grid > lam_p + 0.05)
    inside = (grid >= -lam_p) & (grid <= lam_p)
    oks["iid-omega"] = (_monotone(vi, outside) and np.all(vi[inside] == 0.0))
    vr = np.array([velocity_rcm_discrete(l, 1.5, 0.75).v for l in grid])
    oks["rcm-discrete"] = _monotone(vr, np.ones(50, dtype=bool))
    vc = np.array([velocity_rcm_continuous(l, 0.75).v for l in grid])
    oks["rcm-continuous"] = _monotone(vc, np.ones(50, dtype=bool))
    vf = np.array([velocity_coinflip(l, 1.5, 0.75).v for l in grid])
    oks["coinflip"] = _monotone(vf, np.ones(50, dtype=bool))
    return {**{k: bool(v) for k, v in oks.items()}, "ok": all(oks.values())}


def _dichotomy() -> dict:
    worst = 0.0
    for lam in (0.1, 0.5, 1.0, 2.0):
        prod = (esbar_rcm(lam, 1.5, 0.75).value
                * velocity_rcm_discrete(lam, 1.5, 0.75).v)
        worst = max(worst, abs(prod - 1.0))
    return {"worst_rel_err": worst, "ok": worst <= 1e-12}


def _evenness() -> dict:
    ok = all(sigma2_rcm(l, 1.5, 0.75, 2.5, 0.625).sigma2
             == sigma2_rcm(-l, 1.5, 0.75, 2.5, 0.625).sigma2
             for l in (0.3, 0.7, 1.0, 2.2))
    return {"ok": bool(ok)}


def _breakdown_consistency() -> dict:
    worst = 0.0
    for lam in (0.25, 0.5, 1.0, 2.0):
        bd = sigma2_rcm(lam, 1.5, 0.75, 2.5, 0.625)
        direct = sigma2_rcm_direct(lam, 1.5, 0.75, 2.5, 0.625)
        worst = max(worst,
                    abs(bd.sigma1_sq + bd.v_sigma2_sq - direct) / direct)
    return {"worst_rel_err": worst, "ok": worst <= 1e-10}


def _quenched_identities(seed) -> dict:
    worst_s = worst_l = 0.0
    lam = 1.0
    q = math.exp(-2.0 * lam)
    for k in range(10):
        for model in (IIDOmega(ScalarDist.two_point(0.5, 2.0, 0.5)),
                      IIDConductance(_TWO_POINT)):
            env = materialize(model, derive_seed(seed, "ident", model.tag, k),
                              (-4, 4))
            s = sbar_quenched(env, lam, 1e-11)
            u = u_quenched(env, lam, 1e-11)
            v = v_quenched(env, lam, 1e-11)
            lf = lambda_factor(env, lam, 1e-11)
            assert s.converged and u.converged and v.converged and lf.converged
            worst_s = max(worst_s, abs(s.value - (1.0 + 2.0 * u.value)))
            direct = (1.0 + env.rho(0) * q) * (1.0 + v.value)
            worst_l = max(worst_l, abs(lf.value - direct))
    return {"worst_sbar_vs_1p2u": worst_s, "worst_lambda_factor": worst_l,
            "ok": worst_s <= 1e-9 and worst_l <= 1e-9}


def _jensen() -> dict:
    ok = True
    rho = ScalarDist.two_point(0.5, 2.0, 0.6)
    log_rho = rho.log_moment()
    e_rho = rho.moment(1)
    for i in range(21):
        lhs = e_rho ** (i + 1)                  # i.i.d. product moment
        rhs = math.exp(log_rho * (i + 1))
        ok &= lhs >= rhs - 1e-12 * abs(rhs)
    ab = 1.5 * 0.75                              # conductance ratio products
    for i in range(21):
        ok &= ab >= 1.0 - 1e-12                  # E[rho_0...rho_-i] = ab, E[log rho] = 0
    return {"ok": bool(ok)}


@_timer
def check_invariants(seed, workers) -> CheckResult:
    """Velocity antisymmetry (exact law of X_40, annealed z-test), velocity
    monotonicity on 50-point grids, evenness of the diffusivity, the crossing-series
    dichotomy 1/v = annealed mean to 1e-12, quenched series identities, and
    the Jensen lower bound on product moments for i <= 20."""
    rows = {"antisymmetry": _antisymmetry(derive_seed(seed, "c10")),
            "monotonicity": _monotonicity(),
            "dichotomy": _dichotomy(),
            "sigma2-even": _evenness(),
            "sigma2-breakdown": _breakdown_consistency(),
            "quenched-identities": _quenched_identities(seed),
            "jensen": _jensen()}
    return CheckResult("invariants", all(r["ok"] for r in rows.values()), 0.0,
                       "antisymmetry (exact law, z-test); monotone velocities; "
                       "even sigma2; 1/v = annealed crossing mean to 1e-12; quenched "
                       "identities; Jensen bound", rows)


@_timer
def check_antisymmetry(seed, workers) -> CheckResult:
    """Velocity antisymmetry alone (fast)."""
    row = _antisymmetry(derive_seed(seed, "c10"))
    return CheckResult("antisymmetry", row["ok"], 0.0,
                       "law of X_40 mirrors under site reflection and -lam to "
                       "1e-12; v(lam) + v(-lam) within 3 s.e. of 0",
                       {"antisymmetry": row})


CHECKS = {
    "velocity-discrete": check_velocity_discrete,
    "velocity-continuous": check_velocity_continuous,
    "coinflip": check_coinflip,
    "einstein": check_einstein,
    "diffusivity": check_diffusivity,
    "regularity": check_regularity,
    "renewal-scaling": check_renewal_scaling,
    "oracles": check_oracles,
    "lemma-b1": check_lemma_b1,
    "invariants": check_invariants,
    "antisymmetry": check_antisymmetry,
}

ACCEPTANCE = ["velocity-discrete", "velocity-continuous", "coinflip",
              "einstein", "diffusivity", "regularity", "renewal-scaling",
              "oracles", "lemma-b1", "invariants"]


def run_checks(names, seed: int = DEFAULT_SEED, workers: int = 1):
    results = []
    for name in names:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}; known: {sorted(CHECKS)}")
        results.append(CHECKS[name](seed=seed, workers=workers))
    return results
