"""rwrelab benchmark: one workload, measured in fresh worker processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
./src).  With --trace 0 it prints the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, time_to_1pct_s); with --trace 1 the per-layer metrics of a
traced worker plus unattributed_s and trace_overhead_s.  Every operation is
verified against an independent reference.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
full report (provenance, per-operation verdicts, counters, output digest)
goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("annealed-discrete", "annealed-continuous", "renewal-and-series")
SETUP_PROBES = 5        # extra fresh processes that only set up
RUN_DEADLINE_S = 170.0  # every worker is killed after this much total time

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "time_to_1pct_s": "s"}
PER_LAYER_UNITS = {
    "rng.step_calls": "count", "rng.busy_s": "s", "rng.draws_per_s": "1/s",
    "environments.builds": "count", "environments.sites": "count",
    "environments.busy_s": "s", "environments.sites_per_s": "1/s",
    "walks.discrete.lane_steps": "count", "walks.discrete.self_s": "s",
    "walks.discrete.ns_per_lane_step": "ns",
    "walks.continuous.lane_jumps": "count", "walks.continuous.self_s": "s",
    "walks.continuous.ns_per_lane_jump": "ns",
    "walks.aborted_lanes": "count", "estimators.self_s": "s",
    "estimators.renewal.envs": "count", "estimators.renewal.busy_s": "s",
    "estimators.renewal.envs_per_s": "1/s", "series.terms": "count",
    "series.busy_s": "s", "series.us_per_term": "us",
    "series.inconclusive": "count", "exact.calls": "count",
    "exact.busy_s": "s", "unattributed_s": "s", "trace_overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="rwrelab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--size", choices=("full", "small"), default="full",
                   help="small: reduced task sizes for the self-tests")
    return p.parse_args(argv)


def worker(root: Path, args, mode: str, seconds: float, deadline: float,
           spans: Path | None = None) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode, "--size", args.size]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    # workers=1 throughout; BLAS pinned to one thread so runs do not contend
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(root: Path, seed: int, versions: dict) -> dict:
    rev = "unavailable (not a git checkout)"
    if (root / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError) as exc:
            rev = f"unavailable ({type(exc).__name__})"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((root / "src" / "rwrelab").glob("*.py")))
    return {"seed": seed, "git_revision": rev, **versions,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "src_rwrelab_lines": src_lines}


def ops_summary(plain: dict) -> tuple[int, int, bool]:
    ops = plain["ops"].values()
    return (len(plain["ops"]), sum(op["failed"] for op in ops),
            not any(op["wrong"] for op in ops) and plain["deterministic"])


def measure(root: Path, args, out_dir: Path) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size}
    if args.trace == 0:
        probes = [worker(root, args, "setup", 0.0, deadline)
                  for _ in range(SETUP_PROBES)]
        plain = worker(root, args, "plain", args.seconds, deadline)
        samples = probes + [plain]
        metrics = {"setup_s": statistics.median(p["setup_scaled_s"] for p in samples),
                   "wall_s": plain["wall_s"],
                   "peak_rss_mb": plain["peak_rss_mb"],
                   "time_to_1pct_s": plain["time_to_1pct_s"]}
        units = END_TO_END_UNITS
        report["setup_samples_s"] = [p["setup_s"] for p in samples]
        report["setup_scaled_samples_s"] = [p["setup_scaled_s"] for p in samples]
        attempted, failed, correct = ops_summary(plain)
    else:
        spans = out_dir / f"{stem}-spans.json"
        plain = worker(root, args, "plain", args.seconds / 2, deadline)
        traced = worker(root, args, "traced", args.seconds / 2, deadline, spans)
        metrics = dict(traced["layers"])
        metrics["trace_overhead_s"] = traced["traced_wall_s"] - plain["raw_wall_s"]
        units = PER_LAYER_UNITS
        report["traced"] = traced
        report["spans_file"] = str(spans.relative_to(root))
        attempted, failed, correct = ops_summary(plain)
        # tracing must not change a single output bit
        correct &= traced["deterministic"] and traced["digest"] == plain["digest"]
    report["provenance"] = provenance(root, args.seed, plain["versions"])
    report["plain"] = plain
    report["digest"] = plain["digest"]
    report["failed_share"] = failed / attempted
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    report["result"] = result
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))
    return result, report


def print_summary(result: dict, report: dict, out_dir: Path) -> None:
    plain = report["plain"]
    print(f"rwrelab benchmark  workload={report['workload']}  seed={report['seed']}"
          f"  trace={report['trace']}  passes={plain['passes']}")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    print(f"  raw (unscaled) median pass wall {plain['raw_wall_s']:.4f} s")
    if "setup_samples_s" in report:
        print(f"  raw (unscaled) median setup "
              f"{statistics.median(report['setup_samples_s']):.4f} s")
    print(f"  operations: {result['attempted']} attempted, {result['failed']} failed"
          f" (failed_share {report['failed_share']:.4f}), correct={result['correct']}")
    for name, op in plain["ops"].items():
        if op["failed"]:
            bad = [c["what"] for c in op["checks"] if not c["passed"]]
            print(f"    FAILED {name}: {op['error'] or '; '.join(bad[:3])}")
    prov = report["provenance"]
    print(f"  digest {report['digest']}  rev {prov['git_revision']}  python "
          f"{prov['python']}  numpy {prov['numpy']}  scipy {prov['scipy']}  "
          f"nproc {prov['nproc']}  blas_threads {prov['blas_threads']}  "
          f"src lines {prov['src_rwrelab_lines']}")
    print(f"  report {out_dir.name}/{report['workload']}-seed{report['seed']}"
          f"-trace{report['trace']}.json")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "rwrelab" / "__init__.py").is_file():
        print("run.py: no src/rwrelab here; run it from the root of an rwrelab "
              "source checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    try:
        result, report = measure(root, args, out_dir)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print_summary(result, report, out_dir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
