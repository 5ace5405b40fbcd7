"""The benchmark's workloads: fixed task lists built from a workload seed.

A task's ``run`` is the timed part: the public calls into the package.  Its
references (closed forms, tail bounds) are computed when the task list is
built, outside the timed region; exact oracles are a measured layer and run
inside it.  ``verify`` turns the outputs into checks (see verify.py), and
``mc`` names the Monte Carlo estimates that enter ``time_to_1pct_s``.

Sizes are scaled-down versions of the acceptance checks named in README.md;
``small`` is a further reduction for the benchmark's self-tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from rwrelab import (CoinFlip, IIDConductance, IIDOmega, PeriodicEnv,
                     RenewalPoints, ScalarDist, sigma2_rcm, tau1_tail,
                     velocity_coinflip, velocity_rcm_continuous,
                     velocity_rcm_discrete)

import verify as V

TWO_POINT = ScalarDist.two_point(1.0, 2.0, 0.5)
CONST_ONE = ScalarDist.constant(1.0)
RHO_TWO_POINT = ScalarDist.two_point(0.5, 2.0, 0.5)

SIZES = {
    "full": {
        "einstein": (50_000, 500), "velocity": (10_000, 1000),
        "diffusion": (1000, 5000), "shared": (30, 100_000),
        "cont_velocity": (2000.0, 400), "tau1": 10_000,
        "renewal_envs": 5000, "probe_replicas": 20_000,
        "series_terms": 10_000, "periodic_envs": 50,
    },
    "small": {
        "einstein": (5000, 200), "velocity": (2000, 200),
        "diffusion": (200, 1000), "shared": (30, 10_000),
        "cont_velocity": (300.0, 100), "tau1": 1000,
        "renewal_envs": 1000, "probe_replicas": 2000,
        "series_terms": 2000, "periodic_envs": 10,
    },
}

RENEWAL_GAMMA = 3.0
RENEWAL_GRID = (100, 178, 316, 562, 1000, 1778, 3162, 5623, 10000)
PROBE_A = 2.0
PROBE_I_MAX = 512
SERIES_LAMBDAS = (0.05, 0.1, 0.5, 1.0)
SERIES_TOL = 1e-10
PERIODIC_LAMBDA = 0.8


@dataclass
class Task:
    name: str
    run: Callable[[object], dict]
    verify: Callable[[dict], list]
    mc: Callable[[dict], list] = field(default=lambda out: [])


def task_seed(seed: int, *tags) -> int:
    """A 63-bit seed for one task, derived from the workload seed."""
    text = ":".join(str(t) for t in (seed, *tags)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little") >> 1


def _est(e) -> dict:
    return {"mean": e.mean, "se": e.std_error, "count": e.count,
            "excluded": e.excluded}


def _velocity_task(name, model, lam, ref, seed, **scale) -> Task:
    def run(api):
        return {"v": _est(api.annealed_velocity(model, lam, seed=seed, **scale))}

    def check(out):
        v = out["v"]
        return [V.z_check(f"v({lam}) vs closed form", v["mean"], v["se"], ref),
                V.zero_check("excluded replicas", v["excluded"])]

    return Task(name, run, check,
                lambda out: [(f"v({lam})", out["v"]["se"], abs(ref))])


# ---------------------------------------------------------------------------
# annealed-discrete
# ---------------------------------------------------------------------------

def _diffusion_task(name, model, n, reps, seed, sigma2) -> Task:
    def run(api):
        res = api.annealed_diffusion(model, 1.0, n, reps, seed)
        return {"var": _est(res.variance), "ks": res.ks_distance}

    def check(out):
        var = out["var"]
        return [V.z_check("sigma2(1) vs closed form", var["mean"], var["se"], sigma2),
                V.zero_check("excluded replicas", var["excluded"])]

    return Task(name, run, check,
                lambda out: [("sigma2(1)", out["var"]["se"], sigma2)])


def _shared_env_task(name, model, n, reps, env_seed, walk_seed) -> Task:
    def run(api):
        env = api.materialize(model, env_seed, (-n, n))
        res = api.ensemble_discrete(model, 1.0, n, reps, walk_seed, shared_env=env)
        dist = api.exact_walk_distribution(env, 1.0, n)
        return {"finals": res.final_positions, "aborted": int(res.aborted.sum()),
                "pmf": dist.pmf, "dp_mean": dist.mean(),
                "dp_var": dist.variance(), "dp_mass": dist.total_mass(),
                "dp_mu4": float(np.dot((dist.support - dist.mean()) ** 4, dist.pmf))}

    def check(out):
        x = out["finals"]
        m = x.size
        mc_var = float(x.var(ddof=1))
        se_var = math.sqrt((out["dp_mu4"] - out["dp_var"] ** 2 * (m - 3) / (m - 1)) / m)
        return [V.close_check("DP total mass", out["dp_mass"], 1.0, 1e-12),
                V.z_check(f"MC mean of X_{n} vs DP", float(x.mean()),
                          math.sqrt(out["dp_var"] / m), out["dp_mean"]),
                V.z_check(f"MC variance of X_{n} vs DP", mc_var, se_var, out["dp_var"]),
                V.zero_check("aborted lanes", out["aborted"])]

    return Task(name, run, check)


def _annealed_discrete(api, seed: int, size: dict) -> list[Task]:
    model = api.model(IIDConductance(TWO_POINT))
    a, b = TWO_POINT.moment(1), TWO_POINT.moment(-1)
    n, reps = size["einstein"]
    tasks = [_velocity_task("einstein-v0.05", model, 0.05,
                            velocity_rcm_discrete(0.05, a, b).v,
                            task_seed(seed, "einstein"), n=n, replicas=reps)]
    n, reps = size["velocity"]
    for lam in (0.5, 1.0):
        tasks.append(_velocity_task(
            f"velocity-v{lam}", model, lam,
            velocity_rcm_discrete(lam, a, b).v,
            task_seed(seed, "velocity", lam), n=n, replicas=reps))
    n, reps = size["diffusion"]
    sigma2 = sigma2_rcm(1.0, a, b, TWO_POINT.moment(2), TWO_POINT.moment(-2)).sigma2
    tasks.append(_diffusion_task("diffusion-sigma2", model, n, reps,
                                 task_seed(seed, "diffusion"), sigma2))
    n, reps = size["shared"]
    tasks.append(_shared_env_task("shared-env-n30", model, n, reps,
                                  task_seed(seed, "shared", "env"),
                                  task_seed(seed, "shared", "walk")))
    return tasks


# ---------------------------------------------------------------------------
# annealed-continuous
# ---------------------------------------------------------------------------

def _tau1_task(name, model, reps, seed) -> Task:
    ref = 1.0 / (2.0 * math.sinh(1.0))

    def run(api):
        return {"tau1": _est(api.annealed_tau1(model, 1.0, reps, seed))}

    def check(out):
        t = out["tau1"]
        return [V.z_check("E[tau_1] vs 1/(2 sinh 1)", t["mean"], t["se"], ref),
                V.zero_check("excluded replicas", t["excluded"])]

    return Task(name, run, check, lambda out: [("E[tau_1]", out["tau1"]["se"], ref)])


def _annealed_continuous(api, seed: int, size: dict) -> list[Task]:
    horizon, reps = size["cont_velocity"]
    tasks = []
    for tag, dist in (("constant", CONST_ONE), ("two-point", TWO_POINT)):
        model = api.model(IIDConductance(dist, time_flavor="continuous"))
        tasks.append(_velocity_task(
            f"velocity-{tag}-v1", model, 1.0,
            velocity_rcm_continuous(1.0, dist.moment(-1)).v,
            task_seed(seed, "continuous", tag), horizon=horizon, replicas=reps))
    coin = api.model(CoinFlip(TWO_POINT, TWO_POINT))
    for lam in (0.5, 1.0):
        tasks.append(_velocity_task(
            f"coinflip-v{lam}", coin, lam,
            velocity_coinflip(lam, TWO_POINT.moment(1), TWO_POINT.moment(-1)).v,
            task_seed(seed, "coinflip", lam), horizon=horizon, replicas=reps))
    model = api.model(IIDConductance(CONST_ONE, time_flavor="continuous"))
    tasks.append(_tau1_task("tau1-c1-v1", model, size["tau1"], task_seed(seed, "tau1")))
    return tasks


# ---------------------------------------------------------------------------
# renewal-and-series
# ---------------------------------------------------------------------------

def _moments_task(name, envs, seed) -> Task:
    lbs = [tau1_tail(RENEWAL_GAMMA, n) / 2.0 for n in RENEWAL_GRID]

    def run(api):
        rs = api.renewal_product_moment(RENEWAL_GAMMA, RENEWAL_GRID, envs, seed)
        return {"moments": [_est(e) for e in rs.estimates],
                "fit_resolved": list(rs.fit_resolved)}

    def check(out):
        checks = []
        for n, lb, e in zip(RENEWAL_GRID, lbs, out["moments"]):
            # 2 lb = P(tau_1 > n): below ~10 expected environments with
            # tau_1 > n the replica budget cannot resolve the moment
            checks.append(V.at_least_check(
                f"E[Z_0..Z_{n}] >= P(tau_1 > {n})/2", e["mean"], e["se"], lb,
                resolvable=envs * 2.0 * lb >= 10.0))
            in_range = 0.0 <= e["mean"] <= 1.0
            checks.append(V.Check(f"E[Z_0..Z_{n}] in [0, 1]", in_range, in_range))
        return checks

    return Task(name, run, check)


def _probe_bounds(g: float) -> tuple[float, float]:
    """Bounds on the probe's truncated velocity 1/(1 + 2 sum g^(i+1) m_i)
    from P(tau_1 > i)/2 <= m_i <= 1, for i = 0..PROBE_I_MAX."""
    i = np.arange(PROBE_I_MAX + 1)
    w = g ** (i + 1.0)
    tails = np.array([tau1_tail(RENEWAL_GAMMA, int(k)) for k in i])
    return 1.0 / (1.0 + 2.0 * w.sum()), 1.0 / (1.0 + float(np.dot(w, tails)))


def _probe_task(name, reps, seed) -> Task:
    lam_plus = 0.5 * math.log(PROBE_A)
    lams = (lam_plus - 0.1, lam_plus, lam_plus + 0.1)
    bounds = [_probe_bounds(PROBE_A * math.exp(-2.0 * lam)) for lam in lams]

    def run(api):
        rows = api.velocity_jump_probe(PROBE_A, RENEWAL_GAMMA, lams, reps, seed,
                                       i_max=PROBE_I_MAX)
        return {"rows": [{"class": r.classification,
                          "v": None if r.v_estimate is None else _est(r.v_estimate),
                          "slope": r.term_slope, "slope_se": r.term_slope_se}
                         for r in rows]}

    def check(out):
        below, at, above = out["rows"]
        checks = [V.equal_check("class below lambda+ (factor > 1)",
                                below["class"], "diverging"),
                  V.equal_check("class above lambda+ (factor < 1)",
                                above["class"], "converging"),
                  V.Check("class at lambda+", at["class"] == "converging",
                          at["class"] != "diverging", {"class": at["class"]})]
        for tag, row, (lo, hi) in (("at", at, bounds[1]), ("above", above, bounds[2])):
            v = row["v"]
            if v is None:
                checks.append(V.Check(f"v {tag} lambda+ estimated", False,
                                      row["class"] != "converging"))
                continue
            checks.append(V.at_most_check(f"v {tag} lambda+ <= tail bound",
                                          v["mean"], v["se"], hi))
            checks.append(V.at_least_check(f"v {tag} lambda+ >= unit-moment bound",
                                           v["mean"], v["se"], lo))
        if at["v"] is not None:
            checks.append(V.at_least_check("v at lambda+ > 0", at["v"]["mean"],
                                           at["v"]["se"], 0.0))
        return checks

    def mc(out):
        v = out["rows"][2]["v"]
        return [] if v is None else [("v(lambda+ + 0.1)", v["se"], bounds[2][1])]

    return Task(name, run, check, mc)


def _renewal_and_series(api, seed: int, size: dict) -> list[Task]:
    tasks = [_moments_task("renewal-moments", size["renewal_envs"],
                           task_seed(seed, "renewal")),
             _probe_task("jump-probe", size["probe_replicas"], task_seed(seed, "probe"))]
    for tag, base in (("iid-omega", IIDOmega(RHO_TWO_POINT)),
                      ("conductance", IIDConductance(TWO_POINT))):
        model = api.model(base)
        for lam in SERIES_LAMBDAS:
            tasks.append(_series_task(f"series-{tag}-l{lam}", model, lam,
                                      task_seed(seed, "series", tag, lam),
                                      size["series_terms"]))
    rng = np.random.default_rng(task_seed(seed, "periodic"))
    for period in (1, 2, 3, 5):
        pairs = []
        for _ in range(size["periodic_envs"]):
            omega = tuple(0.25 + 0.5 * rng.random(period))
            rates = tuple((0.5 + 1.5 * rng.random(), 0.5 + 1.5 * rng.random())
                          for _ in range(period))
            pairs.append((api.model(PeriodicEnv(omega=omega)),
                          api.model(PeriodicEnv(rates=rates))))
        tasks.append(_periodic_task(f"periodic-L{period}", pairs))
    return tasks


def _series(value) -> dict:
    return {"value": value.value, "err": value.error_bound,
            "status": value.status, "terms": value.terms_used}


def _series_task(name, model, lam, seed, terms) -> Task:
    def run(api):
        env = api.materialize(model, seed, (-4, 4))
        out = {key: _series(fn(env, lam, SERIES_TOL, terms))
               for key, fn in (("sbar", api.sbar_quenched), ("u", api.u_quenched),
                               ("v", api.v_quenched), ("lambda", api.lambda_factor))}
        out["rho0"] = env.rho(0)
        return out

    def check(out):
        checks = [V.status_check(f"{key} status", out[key]["status"])
                  for key in ("sbar", "u", "v", "lambda")]
        s, u, v, lf = out["sbar"], out["u"], out["v"], out["lambda"]
        # certified bounds plus rounding: 1e-9 relative to the sum's size
        if s["status"] == u["status"] == "converged":
            checks.append(V.close_check(
                "sbar = 1 + 2u", s["value"], 1.0 + 2.0 * u["value"],
                s["err"] + 2.0 * u["err"] + 1e-9 * max(1.0, abs(s["value"]))))
        if lf["status"] == v["status"] == "converged":
            pref = 1.0 + out["rho0"] * math.exp(-2.0 * lam)
            checks.append(V.close_check(
                "lambda_factor = (1 + rho_0 e^-2lam)(1 + V)", lf["value"],
                pref * (1.0 + v["value"]),
                lf["err"] + pref * v["err"] + 1e-9 * max(1.0, abs(lf["value"]))))
        return checks

    return Task(name, run, check)


def _periodic_task(name, pairs) -> Task:
    def run(api):
        rows = []
        for denv, renv in pairs:
            exact = api.exact_sbar_periodic(denv, PERIODIC_LAMBDA)
            quenched = api.sbar_quenched(api.materialize(denv, 0, (-2, 2)),
                                         PERIODIC_LAMBDA, SERIES_TOL)
            tau = api.exact_tau1_periodic_continuous(renv, PERIODIC_LAMBDA)
            shat = api.shat_quenched(api.materialize(renv, 0, (-2, 2)),
                                     PERIODIC_LAMBDA, SERIES_TOL)
            rows.append({"exact_sbar": _series(exact), "sbar": _series(quenched),
                         "exact_tau1": tau, "shat": _series(shat)})
        return {"rows": rows}

    def check(out):
        checks = []
        for i, row in enumerate(out["rows"]):
            ex, q, tau, sh = row["exact_sbar"], row["sbar"], row["exact_tau1"], row["shat"]
            checks += [V.status_check(f"env {i} exact sbar status", ex["status"]),
                       V.status_check(f"env {i} quenched sbar status", q["status"]),
                       V.status_check(f"env {i} quenched shat status", sh["status"]),
                       V.close_check(f"env {i} exact sbar vs quenched", ex["value"],
                                     q["value"], q["err"] + 1e-11),
                       V.close_check(f"env {i} exact tau1 vs shat", tau, sh["value"],
                                     sh["err"] + 1e-11 * abs(tau))]
        return checks

    return Task(name, run, check)


# ---------------------------------------------------------------------------

_BUILDERS = {
    "annealed-discrete": _annealed_discrete,
    "annealed-continuous": _annealed_continuous,
    "renewal-and-series": _renewal_and_series,
}


def build(workload: str, api, seed: int, size: str = "full") -> list[Task]:
    """The workload's task list, with references computed and lazy package
    set-up (the renewal tau_1 table) done."""
    tasks = _BUILDERS[workload](api, seed, SIZES[size])
    if workload == "renewal-and-series":
        RenewalPoints(RENEWAL_GAMMA, seed=0)  # builds the cached tau_1 table
    return tasks
