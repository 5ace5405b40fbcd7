"""One workload in one fresh process; prints its measurements as one JSON line.

Modes:
  setup   import the package, build the task list, report the set-up time;
  plain   then run the task list repeatedly for --seconds, untraced;
  traced  the same with spans and counters (tracing.py), writing the spans
          to --spans.

Every pass runs the same task list with the same seed, so every pass must
give bit-identical outputs; the first pass is verified.  Times are medians
over the passes; per-layer numbers come from the traced pass with the median
wall time.

The host this runs on may change speed by about 1.5x for seconds to minutes
at a time.  So before the first task and after every task a fixed speed probe
that does not use rwrelab is timed, and each task time is also given scaled
to the probes' reference speed (see ``speed_scale``).  Set-up time is scaled
the same way by a pure-Python probe run before the imports and after set-up.
"""

import time


def py_probe() -> float:
    """Seconds for a fixed pure-Python kernel (dict stores, integer math)."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(60_000):
        table[i & 255] = acc
        acc += i % 7
    return time.perf_counter() - start


PY_PROBE_BEFORE_S = py_probe()
T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import verify  # noqa: E402

MIN_PASSES = 2
MAX_PASSES = 50

# Median probe times between tasks on the development host (Intel Xeon
# 2.1 GHz, 2 vCPUs, Python 3.11, NumPy 2.4) in its fast mode: the reference
# speed of scaled times, at which a scaled time equals the wall time.
PY_PROBE_REF_S = 0.0044
NP_PROBE_REF_S = 0.0094


def np_probe() -> float:
    """Seconds for a fixed NumPy kernel shaped like the walks: a toy biased
    walk in a random environment, stepped on 1e3 and then on 1e4 lanes."""
    import numpy as np
    start = time.perf_counter()
    gen = np.random.default_rng(5)
    omega = 0.25 + 0.5 * gen.random(40_000)
    for lanes, steps in ((1_000, 300), (10_000, 60)):
        pos = np.full(lanes, 20_000)
        for _ in range(steps):
            pos += np.where(gen.random(lanes) < omega[pos], 1, -1)
    return time.perf_counter() - start


PROBE_TIMES = []  # (py_probe, np_probe) seconds of every speed_scale call


def speed_scale() -> float:
    """Reference over current speed: the geometric mean of reference over
    measured time for the two probes."""
    py_s, np_s = py_probe(), np_probe()
    PROBE_TIMES.append((py_s, np_s))
    return math.sqrt(PY_PROBE_REF_S / py_s * NP_PROBE_REF_S / np_s)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    p.add_argument("--size", choices=("full", "small"), default="full")
    p.add_argument("--spans", type=Path)
    return p.parse_args(argv)


def feed(h, obj) -> None:
    """Canonical bytes of a task's outputs, for the output digest."""
    import numpy as np
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(f"<{key}>".encode())
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            feed(h, item)
        h.update(b"]")
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        h.update(str(int(obj)).encode())
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    h = hashlib.blake2b(digest_size=16)
    feed(h, obj)
    return h.hexdigest()


def run_pass(tasks, api, tracer) -> list[dict]:
    """Run every task once; time each public-call block.

    A task's ``scaled_s`` is its time times the geometric mean of the speed
    scales measured just before and just after it.
    """
    results = []
    gc.collect()
    before = speed_scale()
    for task in tasks:
        ctx = tracer.span(task.name, "bench") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with ctx:
                out = task.run(api)
            error = None
        except Exception as exc:  # a raising task is a failed operation
            out, error = None, "".join(traceback.format_exception_only(exc)).strip()
        elapsed = time.perf_counter() - start
        gc.collect()
        after = speed_scale()
        results.append({"task": task, "seconds": elapsed,
                        "scaled_s": elapsed * math.sqrt(before * after),
                        "out": out, "error": error,
                        "digest": digest(out if error is None else error)})
        before = after
    return results


def layer_metrics(snap: dict, wall: float, layers) -> dict:
    """Per-layer metrics of one traced pass."""
    c, self_s, busy = snap["counters"], snap["self_s"], snap["busy_s"]

    def rate(num, den, scale=1.0):
        return num / den * scale if den > 0 else 0.0

    lane_steps = c.get("walks.discrete.lane_steps", 0)
    lane_jumps = c.get("walks.continuous.lane_jumps", 0)
    envs = c.get("estimators.renewal.envs", 0)
    terms = c.get("series.terms", 0)
    return {
        "rng.step_calls": c.get("rng.step_calls", 0),
        "rng.busy_s": busy.get("rng", 0.0),
        "rng.draws_per_s": rate(c.get("rng.draws", 0), busy.get("rng", 0.0)),
        "environments.builds": c.get("environments.builds", 0),
        "environments.sites": c.get("environments.sites", 0),
        "environments.busy_s": busy.get("environments", 0.0),
        "environments.sites_per_s": rate(c.get("environments.sites", 0),
                                         busy.get("environments", 0.0)),
        "walks.discrete.lane_steps": lane_steps,
        "walks.discrete.self_s": self_s.get("walks.discrete", 0.0),
        "walks.discrete.ns_per_lane_step": rate(self_s.get("walks.discrete", 0.0),
                                                lane_steps, 1e9),
        "walks.continuous.lane_jumps": lane_jumps,
        "walks.continuous.self_s": self_s.get("walks.continuous", 0.0),
        "walks.continuous.ns_per_lane_jump": rate(self_s.get("walks.continuous", 0.0),
                                                  lane_jumps, 1e9),
        "walks.aborted_lanes": c.get("walks.aborted_lanes", 0),
        "estimators.self_s": self_s.get("estimators", 0.0),
        "estimators.renewal.envs": envs,
        "estimators.renewal.busy_s": busy.get("estimators.renewal", 0.0),
        "estimators.renewal.envs_per_s": rate(envs, busy.get("estimators.renewal", 0.0)),
        "series.terms": terms,
        "series.busy_s": busy.get("series", 0.0),
        "series.us_per_term": rate(busy.get("series", 0.0), terms, 1e6),
        "series.inconclusive": c.get("series.inconclusive", 0),
        "exact.calls": c.get("exact.calls", 0),
        "exact.busy_s": busy.get("exact", 0.0),
        "unattributed_s": wall - sum(self_s.get(layer, 0.0) for layer in layers),
    }


def blas_threads():
    """Thread count reported by the OpenBLAS NumPy loaded, if it is one."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy as np
    import scipy
    import rwrelab
    if Path(rwrelab.__file__).resolve().parent != src / "rwrelab":
        raise SystemExit(f"imported rwrelab from {rwrelab.__file__}, not {src}")
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.mode == "traced" else None
    api = tracing.Api(tracer)
    tasks = workloads.build(args.workload, api, args.seed, args.size)
    setup_s = time.perf_counter() - T_START
    py_after_s = py_probe()
    result = {"mode": args.mode, "workload": args.workload, "seed": args.seed,
              "size": args.size, "setup_s": setup_s,
              "setup_scaled_s": setup_s * PY_PROBE_REF_S
              / math.sqrt(PY_PROBE_BEFORE_S * py_after_s)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    passes, snaps, spans = [], [], []
    start = time.perf_counter()
    with tracer.installed() if tracer else contextlib.nullcontext():
        while len(passes) < MAX_PASSES:
            if tracer:
                tracer.reset()
            passes.append(run_pass(tasks, api, tracer))
            if tracer:
                snaps.append(tracer.snapshot())
                spans.append(tracer.spans)
            elapsed = time.perf_counter() - start
            per_pass = elapsed / len(passes)
            if len(passes) >= MIN_PASSES and elapsed + per_pass > args.seconds:
                break

    first = passes[0]
    walls = [sum(r["seconds"] for r in p) for p in passes]
    deterministic = all([r["digest"] for r in p] == [r["digest"] for r in first]
                        for p in passes)
    if tracer:
        deterministic &= all(s["counters"] == snaps[0]["counters"] for s in snaps)

    ops, mc = {}, []
    task_times, task_scaled = {}, {}
    for i, r in enumerate(first):
        task = r["task"]
        task_times[task.name] = [p[i]["seconds"] for p in passes]
        scaled = [p[i]["scaled_s"] for p in passes]
        task_scaled[task.name] = scaled
        checks = task.verify(r["out"]) if r["error"] is None else []
        ops[task.name] = verify.verdict(checks, r["error"])
        if r["error"] is None:
            t = statistics.median(scaled)
            for label, se, ref in task.mc(r["out"]):
                mc.append({"task": task.name, "estimate": label, "se": se,
                           "ref": ref, "task_s": t,
                           "t1pct_s": t * (se / ref) ** 2 / 1e-4})
    positive = [m["t1pct_s"] for m in mc if m["t1pct_s"] > 0]
    result.update({
        "passes": len(passes),
        "pass_walls": walls,
        "raw_wall_s": statistics.median(walls),
        "wall_s": sum(statistics.median(v) for v in task_scaled.values()),
        "task_times": task_times,
        "task_scaled_s": task_scaled,
        "probe_times_s": PROBE_TIMES,
        "ops": ops,
        "mc": mc,
        "time_to_1pct_s": (math.exp(statistics.fmean(math.log(v) for v in positive))
                           if positive else 0.0),
        "digest": digest([r["digest"] for r in first]),
        "task_digests": {r["task"].name: r["digest"] for r in first},
        "deterministic": deterministic,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "blas_threads": blas_threads()},
    })
    if tracer:
        k = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
        result["median_pass"] = k
        result["counters"] = snaps[0]["counters"]
        result["self_s"] = snaps[k]["self_s"]
        result["traced_wall_s"] = walls[k]
        result["layers"] = layer_metrics(snaps[k], walls[k], tracing.LAYERS)
        if args.spans:
            args.spans.write_text(json.dumps({"pass": k, "spans": spans[k]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
