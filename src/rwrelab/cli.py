"""Command-line driver: closed-form tables, simulation runs, figure data,
and the acceptance check suite.

Output files are plain delimited text with '#' provenance headers that
reconstruct the run (artifact version, full configuration, seed); re-running
a configuration reproduces the numeric payload byte for byte.

Exit codes: 0 success, 1 validation error, 2 check failure, 3 abort-rate
violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .checks import ACCEPTANCE, CHECKS, DEFAULT_SEED, run_checks
from .closed_forms import (sigma2_rcm, sigma2_rcm_at_zero, sigma2_rcm_direct,
                           a1_uniform, uniform_conductance_moments)
from .distributions import ScalarDist
from .environments import CoinFlip, IIDConductance, IIDOmega, PeriodicEnv, Renewal
from .estimators import (annealed_diffusion, annealed_tau1, annealed_velocity,
                         einstein_slope, renewal_product_moment,
                         sigma2_of_model, velocity_jump_probe,
                         velocity_of_model)

WORKERS_ENV = "RWRELAB_WORKERS"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


class ValidationError(Exception):
    pass


def _parse_lambda_grid(spec: str) -> list[float]:
    """'start:stop:step' (inclusive within half a step), 'a,b,c', or 'v'."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad lambda grid {spec!r}")
        start, stop, step = (float(p) for p in parts)
        if not (math.isfinite(start) and math.isfinite(stop)
                and 0 < step < math.inf and start <= stop):
            raise ValidationError(f"bad lambda grid {spec!r}")
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + k * step for k in range(count)]
    grid = [float(p) for p in spec.split(",")]
    if any(math.isnan(lam) for lam in grid):
        raise ValidationError(f"bad lambda grid {spec!r}")
    return grid


def _build_model(args):
    kind = args.model
    try:
        if kind == "iid-omega":
            return IIDOmega(ScalarDist.from_spec(_req(args, "dist")))
        if kind == "rcm-discrete":
            return IIDConductance(ScalarDist.from_spec(_req(args, "dist")))
        if kind == "rcm-continuous":
            return IIDConductance(ScalarDist.from_spec(_req(args, "dist")),
                                  time_flavor="continuous")
        if kind == "coinflip":
            a_plus = ScalarDist.from_spec(_req(args, "dist"))
            a_minus = ScalarDist.from_spec(args.dist2) if args.dist2 else a_plus
            return CoinFlip(a_plus, a_minus)
        if kind == "renewal":
            if args.a is None or args.gamma is None:
                raise ValidationError("renewal model needs --a and --gamma")
            return Renewal(args.a, args.gamma)
        if kind == "periodic":
            if args.omega:
                return PeriodicEnv(omega=tuple(float(v) for v in args.omega.split(",")))
            if args.rates:
                pairs = tuple(tuple(float(v) for v in p.split(":"))
                              for p in args.rates.split(","))
                return PeriodicEnv(rates=pairs)
            raise ValidationError("periodic model needs --omega or --rates")
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    raise ValidationError(f"unknown model {kind!r}")


def _req(args, name: str) -> str:
    val = getattr(args, name)
    if val is None:
        raise ValidationError(f"--{name} is required for model {args.model}")
    return val


def _config_dict(args, fields) -> dict:
    return {f: getattr(args, f) for f in fields if getattr(args, f, None) is not None}


def _emit(path, header: dict, columns: list[str], rows) -> None:
    lines = [f"# rwrelab {__version__}"]
    for key, val in header.items():
        lines.append(f"# {key}: {json.dumps(val, sort_keys=True)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join("" if v is None else repr(float(v))
                              if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_eval(args) -> int:
    model = _build_model(args)
    grid = _parse_lambda_grid(args.lam)
    rows = []
    for lam in grid:
        res = velocity_of_model(model, lam)
        sigma2 = sigma2_of_model(model, lam)
        rows.append([lam, res.v, res.regime, res.lambda_minus,
                     res.lambda_plus, sigma2])
    _emit(args.out,
          {"command": "eval",
           "config": _config_dict(args, ["model", "dist", "dist2", "a",
                                         "gamma", "omega", "rates", "lam"])},
          ["lambda", "v", "regime", "lambda_minus", "lambda_plus", "sigma2"],
          rows)
    return 0


def cmd_simulate(args) -> int:
    model = _build_model(args)
    grid = _parse_lambda_grid(args.lam)
    continuous = getattr(model, "time_flavor", "discrete") == "continuous"
    if continuous and args.horizon is None and args.kind != "tau1":
        raise ValidationError("continuous-time models need --horizon")
    if not continuous and args.n is None and args.kind in ("velocity", "diffusion"):
        raise ValidationError("discrete-time models need --n")
    if args.range_cap is not None and args.kind != "velocity":
        raise ValidationError("--range-cap applies to velocity runs only")
    header = {"command": f"simulate {args.kind}",
              "config": _config_dict(args, ["model", "dist", "dist2", "a",
                                            "gamma", "omega", "rates", "lam",
                                            "n", "horizon", "replicas", "kind"]),
              "seed": args.seed}
    aborted = 0
    if args.kind == "velocity":
        rows = []
        for lam in grid:
            kw = {"horizon": args.horizon} if continuous else {"n": args.n}
            if args.range_cap is not None:
                kw["range_cap"] = args.range_cap
            est = annealed_velocity(model, lam, replicas=args.replicas,
                                    seed=args.seed, workers=args.workers, **kw)
            try:
                closed = velocity_of_model(model, lam).v
                z = (est.mean - closed) / est.std_error if est.std_error else None
            except ValueError:
                closed = z = None
            rows.append([lam, est.mean, est.std_error, est.ci95[0], est.ci95[1],
                         est.count, est.excluded, closed, z])
            aborted += est.excluded
        _emit(args.out, header,
              ["lambda", "mean", "std_error", "ci_lo", "ci_hi", "count",
               "excluded", "closed_form", "z"], rows)
    elif args.kind == "diffusion":
        if continuous:
            raise ValidationError("diffusion runs are discrete-time")
        rows = []
        for lam in grid:
            res = annealed_diffusion(model, lam, args.n, args.replicas,
                                     args.seed, workers=args.workers)
            rows.append([lam, res.variance.mean, res.variance.std_error,
                         res.sample_variance.mean, res.sample_variance.std_error,
                         res.sigma2_ref, res.ks_distance, res.v_used,
                         res.variance.count, res.variance.excluded])
            aborted += res.variance.excluded
        _emit(args.out, header,
              ["lambda", "variance", "std_error", "variance_plain",
               "std_error_plain", "sigma2_closed_form", "ks_distance", "v_used",
               "count", "excluded"], rows)
    elif args.kind == "einstein":
        if not isinstance(model, IIDConductance):
            raise ValidationError("einstein runs need a conductance model")
        scale = args.horizon if continuous else args.n
        if scale is None:
            raise ValidationError("einstein runs need --n or --horizon")
        table = einstein_slope(model, grid, scale, args.replicas,
                               args.seed, workers=args.workers)
        rows = [[r.h, r.analytic_slope, r.bias_term, r.mc_slope, r.mc_slope_se,
                 r.mc_corrected, table.limit, int(r.noise_dominated)]
                for r in table.rows]
        _emit(args.out, header,
              ["h", "analytic_slope", "bias_term", "mc_slope", "mc_slope_se",
               "mc_corrected", "limit", "noise_dominated"], rows)
    elif args.kind == "tau1":
        if not continuous:
            raise ValidationError("tau1 runs are continuous-time")
        rows = []
        for lam in grid:
            est = annealed_tau1(model, lam, args.replicas, args.seed)
            rows.append([lam, est.mean, est.std_error, est.count, est.excluded])
            aborted += est.excluded
        _emit(args.out, header,
              ["lambda", "mean", "std_error", "count", "excluded"], rows)
    elif args.kind == "renewal-moments":
        if not isinstance(model, Renewal):
            raise ValidationError("renewal-moments runs need the renewal model")
        if args.n is None:
            raise ValidationError("renewal-moments runs need --n (largest window)")
        ngrid = np.unique(np.geomspace(1, args.n, 13).astype(int))
        rs = renewal_product_moment(model.gamma, ngrid, args.replicas, args.seed)
        if rs.fit is not None:
            header["fit"] = {"slope": rs.fit.slope,
                             "slope_std_error": rs.fit.slope_std_error}
        rows = [[nn, e.mean, e.std_error, lb]
                for nn, e, lb in zip(rs.grid, rs.estimates, rs.lower_bounds)]
        _emit(args.out, header,
              ["n", "mean", "std_error", "exact_lower_bound"], rows)
    elif args.kind == "probe":
        if not isinstance(model, Renewal):
            raise ValidationError("probe runs need the renewal model")
        rows = []
        for r in velocity_jump_probe(model.a, model.gamma, grid,
                                     args.replicas, args.seed):
            v = r.v_estimate
            rows.append([r.lam, r.growth_factor, r.classification,
                         None if v is None else v.mean,
                         None if v is None else v.std_error,
                         r.term_slope, r.term_slope_se])
        _emit(args.out, header,
              ["lambda", "growth_factor", "classification", "v", "v_std_error",
               "term_slope", "term_slope_se"], rows)
    else:
        raise ValidationError(f"unknown simulate kind {args.kind!r}")
    if aborted:
        sys.stderr.write(f"warning: {aborted} replicas hit the range cap and "
                         "were excluded\n")
        return 3
    return 0


def cmd_figure(args) -> int:
    if args.which == "fig2":
        a, b, c, d = uniform_conductance_moments(10.0)
        grid = _parse_lambda_grid(args.grid or "-3:3:0.05")
        rows = []
        for lam in grid:
            if lam == 0.0:
                s_unif = sigma2_rcm_at_zero(a, b)
                s_det = sigma2_rcm_at_zero(1.0, 1.0)
            else:
                s_unif = sigma2_rcm(lam, a, b, c, d).sigma2
                s_det = sigma2_rcm_direct(lam, 1.0, 1.0, 1.0, 1.0)
            rows.append([lam, s_unif, s_det])
        _emit(args.out,
              {"command": "figure fig2",
               "config": {"conductances": "uniform:1,10", "grid": args.grid or "-3:3:0.05"},
               "moments": {"A": a, "B": b, "C": c, "D": d}},
              ["lambda", "sigma2_uniform_1_10", "sigma2_deterministic"], rows)
        return 0
    if args.which == "fig3":
        grid = _parse_lambda_grid(args.grid or "1.05:10:0.05")
        rows = [[x, a1_uniform(x)] for x in grid]
        _emit(args.out,
              {"command": "figure fig3",
               "config": {"grid": args.grid or "1.05:10:0.05"}},
              ["x", "a1"], rows)
        return 0
    raise ValidationError(f"unknown figure {args.which!r}")


def cmd_check(args) -> int:
    names = ACCEPTANCE if args.suite == ["all"] else args.suite
    results = run_checks(names, seed=args.seed, workers=args.workers)
    records = []
    for res in results:
        print(res.line())
        records.append({"name": res.name, "passed": res.passed,
                        "criterion": res.criterion,
                        "runtime_seconds": round(res.seconds, 3),
                        "aborted_replicas": res.aborted,
                        "measured": res.measured})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True, default=float) + "\n")
    if any(r.aborted for r in results):
        return 3
    if not all(r.passed for r in results):
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_model_args(p):
    p.add_argument("--model", required=True,
                   choices=["iid-omega", "rcm-discrete", "rcm-continuous",
                            "coinflip", "renewal", "periodic"])
    p.add_argument("--dist", help="distribution spec: constant:v | "
                   "two-point:a,b:p | uniform:lo,hi | empirical:v1,..:p1,..")
    p.add_argument("--dist2", help="second sequence for coinflip (default --dist)")
    p.add_argument("--a", type=float, help="renewal leftward rate")
    p.add_argument("--gamma", type=float, help="renewal gap exponent (> 2)")
    p.add_argument("--omega", help="periodic omega+ values, comma separated")
    p.add_argument("--rates", help="periodic rates rm:rp pairs, comma separated")


def build_parser() -> _Parser:
    parser = _Parser(prog="rwrelab",
                     description="biased 1d random walks in random environment: "
                                 "closed forms, simulation, cross-validation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="closed-form velocity/diffusivity table")
    _add_model_args(p_eval)
    p_eval.add_argument("--lambda", dest="lam", required=True,
                        help="grid start:stop:step, list a,b,c, or one value")
    p_eval.add_argument("--out", help="output CSV path (default stdout)")
    p_eval.set_defaults(fn=cmd_eval)

    p_sim = sub.add_parser("simulate", help="Monte Carlo estimates")
    _add_model_args(p_sim)
    p_sim.add_argument("--kind", required=True,
                       choices=["velocity", "diffusion", "einstein", "tau1",
                                "renewal-moments", "probe"])
    p_sim.add_argument("--lambda", dest="lam", required=True)
    p_sim.add_argument("--n", type=int, help="steps per discrete trajectory")
    p_sim.add_argument("--horizon", type=float, help="continuous time horizon")
    p_sim.add_argument("--replicas", type=int, default=1000)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--workers", type=int,
                       default=int(os.environ.get(WORKERS_ENV, "1")))
    p_sim.add_argument("--range-cap", type=int, dest="range_cap",
                       help="velocity runs: abort walks whose |position| "
                            "exceeds this (rejected for other kinds)")
    p_sim.add_argument("--out", help="output CSV path (default stdout)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_fig = sub.add_parser("figure", help="two-column plot data for the diffusivity curves")
    p_fig.add_argument("which", choices=["fig2", "fig3"])
    p_fig.add_argument("--grid", help="override the x/lambda grid")
    p_fig.add_argument("--out", help="output path (default stdout)")
    p_fig.set_defaults(fn=cmd_figure)

    p_chk = sub.add_parser("check", help="run acceptance checks")
    p_chk.add_argument("suite", nargs="+",
                       help=f"'all' or any of: {', '.join(sorted(CHECKS))}")
    p_chk.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_chk.add_argument("--workers", type=int,
                       default=int(os.environ.get(WORKERS_ENV, "1")))
    p_chk.add_argument("--out", help="JSONL report path")
    p_chk.set_defaults(fn=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        sys.stderr.write(f"rwrelab: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"rwrelab: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
