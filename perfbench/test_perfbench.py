"""Self-tests of the benchmark, at the reduced "small" task sizes.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the benchmark end to end in subprocesses (about a minute in all)
and check its verification, determinism and trace accounting.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def bench(workload: str, trace: int, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=ROOT, capture_output=True, text=True, timeout=175)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads(
        (HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, report


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_completes(workload):
    result, report = bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(report["plain"]["ops"]) >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == run.END_TO_END_UNITS[name]
        assert metric["value"] > 0, name
    assert report["plain"]["deterministic"]
    assert report["provenance"]["src_rwrelab_lines"] > 0
    # one speed probe before each pass and one after every task
    plain = report["plain"]
    assert len(plain["probe_times_s"]) == plain["passes"] * (result["attempted"] + 1)
    for name, raw in plain["task_times"].items():
        for t, scaled in zip(raw, plain["task_scaled_s"][name]):
            assert 0.1 < scaled / t < 10.0, name


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_verification_flags_a_wrong_reference():
    api = tracing.Api()
    model = workloads.IIDConductance(workloads.CONST_ONE, time_flavor="continuous")
    true_v = workloads.velocity_rcm_continuous(1.0, 1.0).v

    def verdict(ref):
        task = workloads._velocity_task("v", model, 1.0, ref, seed=5,
                                        horizon=200.0, replicas=200)
        return verify.verdict(task.verify(task.run(api)), None)

    good, bad = verdict(true_v), verdict(1.1 * true_v)
    assert not good["failed"] and not good["wrong"]
    assert bad["failed"] and bad["wrong"]
    assert not verify.close_check("certified", 1.0, 1.0 + 1e-6, 1e-9).passed
    assert not verify.status_check("series", "diverged").sane
    inconclusive = verify.status_check("series", "inconclusive")
    assert not inconclusive.passed and inconclusive.sane


def test_raising_operation_is_failed_and_wrong():
    op = verify.verdict([], "ValueError: boom")
    assert op["failed"] and op["wrong"]


@pytest.mark.parametrize("workload", ["annealed-discrete", "renewal-and-series"])
def test_counters_and_digest_repeat_and_self_times_add_up(workload):
    first, report1 = bench(workload, trace=1)
    second, report2 = bench(workload, trace=1)
    assert first["correct"] and second["correct"]
    t1, t2 = report1["traced"], report2["traced"]
    assert t1["counters"] == t2["counters"]
    assert t1["digest"] == t2["digest"] == report1["plain"]["digest"]
    assert set(first["metrics"]) == set(run.PER_LAYER_UNITS)
    for key in first["metrics"]:
        if run.PER_LAYER_UNITS[key] == "count":
            assert first["metrics"][key] == second["metrics"][key], key
    for traced, result in ((t1, first), (t2, second)):
        total = sum(traced["self_s"].get(layer, 0.0) for layer in tracing.LAYERS)
        unattributed = result["metrics"]["unattributed_s"]["value"]
        assert math.isclose(total + unattributed, traced["traced_wall_s"],
                            rel_tol=1e-9, abs_tol=1e-9)
        assert all(v >= -1e-9 for v in traced["self_s"].values())
        assert unattributed >= 0.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
