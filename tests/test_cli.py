import json
import math

import numpy as np
import pytest

from rwrelab import checks
from rwrelab.checks import CheckResult
from rwrelab.cli import main, _parse_lambda_grid


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_lambda_grid_parsing():
    assert _parse_lambda_grid("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]
    assert len(_parse_lambda_grid("0:2:0.1")) == 21
    assert _parse_lambda_grid("0.5,1") == [0.5, 1.0]
    assert _parse_lambda_grid("1.25") == [1.25]


def test_eval_rcm_discrete_grid(capsys):
    code, out, _ = run_cli(["eval", "--model", "rcm-discrete", "--dist",
                            "two-point:1,2:0.5", "--lambda", "0:2:0.1"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    assert header[:2] == ["lambda", "v"]
    assert len(rows) == 21
    v_one = float(rows[10][1])
    assert v_one == pytest.approx(0.7395548802746509, rel=1e-12)


def test_eval_continuous_and_zero_window(capsys):
    code, out, _ = run_cli(["eval", "--model", "rcm-continuous", "--dist",
                            "constant:1", "--lambda", "1"], capsys)
    assert code == 0
    _, rows = parse_table(out)
    assert float(rows[0][1]) == pytest.approx(2 * math.sinh(1.0), rel=1e-12)
    code, out, _ = run_cli(["eval", "--model", "iid-omega", "--dist",
                            "two-point:0.5,2:0.5", "--lambda", "0.05"], capsys)
    _, rows = parse_table(out)
    assert float(rows[0][1]) == 0.0
    assert rows[0][2] == "zero"


def test_eval_validation_error_exit_code(capsys):
    code, _, err = run_cli(["eval", "--model", "rcm-discrete", "--dist",
                            "gauss:0,1", "--lambda", "1"], capsys)
    assert code == 1
    assert "spec" in err


def test_simulate_velocity_and_idempotence(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--kind", "velocity", "--model", "rcm-discrete",
            "--dist", "constant:1", "--lambda", "1", "--n", "2000",
            "--replicas", "200", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = parse_table(out1.read_text())
    z = float(rows[0][header.index("z")])
    assert abs(z) < 4.0
    # provenance header reconstructs the run
    text = out1.read_text()
    assert "# seed: 9" in text and "constant:1" in text


def test_simulate_diffusion_split_and_plain(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--kind", "diffusion", "--model", "rcm-discrete",
            "--dist", "constant:1", "--lambda", "1", "--n", "1000",
            "--replicas", "200", "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = parse_table(out1.read_text())
    for col in ("variance", "std_error", "variance_plain", "std_error_plain"):
        assert col in header
    # a constant law: the split is exact up to rounding, the plain variance
    # keeps the walk's own spread
    assert 0 < float(rows[0][header.index("std_error")]) <= 1e-9
    assert float(rows[0][header.index("std_error_plain")]) > 1e-4
    assert float(rows[0][header.index("variance")]) == pytest.approx(
        4 / (math.e + 1 / math.e) ** 2, rel=1e-9)


def test_simulate_abort_rate_exit_code(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(["simulate", "--kind", "velocity", "--model", "rcm-discrete",
                 "--dist", "constant:1", "--lambda", "0", "--n", "2000",
                 "--replicas", "100", "--seed", "3", "--range-cap", "110",
                 "--out", str(out)])
    assert code == 3
    header, rows = parse_table(out.read_text())
    assert int(rows[0][header.index("excluded")]) > 0


def test_simulate_tau1(capsys):
    code, out, _ = run_cli(["simulate", "--kind", "tau1", "--model",
                            "rcm-continuous", "--dist", "constant:1",
                            "--lambda", "1", "--replicas", "500",
                            "--seed", "4"], capsys)
    assert code == 0
    _, rows = parse_table(out)
    mean, se = float(rows[0][1]), float(rows[0][2])
    assert abs(mean - 1 / (2 * math.sinh(1))) < 4 * se


def test_simulate_einstein_table(capsys):
    code, out, _ = run_cli(["simulate", "--kind", "einstein", "--model",
                            "rcm-discrete", "--dist", "two-point:1,2:0.5",
                            "--lambda", "0.4,0.2", "--n", "500",
                            "--replicas", "100", "--seed", "6"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    assert header[0] == "h" and len(rows) == 2
    assert float(rows[0][header.index("limit")]) == pytest.approx(1 / 1.125)


def test_figure_fig3_positive_and_vanishing(capsys):
    code, out, _ = run_cli(["figure", "fig3", "--grid", "1.0001,1.5,2,5,10"],
                           capsys)
    assert code == 0
    _, rows = parse_table(out)
    vals = {float(r[0]): float(r[1]) for r in rows}
    assert all(v > 0 for v in vals.values())
    assert vals[1.0001] < 1e-3


def test_figure_fig2_even_and_decreasing(capsys):
    code, out, _ = run_cli(["figure", "fig2", "--grid=-2:2:0.1"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    lam = np.array([float(r[0]) for r in rows])
    det = np.array([float(r[2]) for r in rows])
    unif = np.array([float(r[1]) for r in rows])
    # deterministic curve: even, strictly decreasing on lam > 0
    assert np.allclose(det, det[::-1], rtol=1e-12)
    assert np.all(np.diff(det[lam >= 0]) < 0)
    # uniform-conductance curve rises before it falls (non-monotone)
    pos = unif[lam > 0]
    assert pos[1] > unif[lam == 0][0] and pos[-1] < pos[0]


def test_check_command_and_jsonl(tmp_path, capsys):
    out = tmp_path / "report.jsonl"
    code, stdout, _ = run_cli(["check", "antisymmetry", "--out", str(out)],
                              capsys)
    assert code == 0
    assert stdout.startswith("PASS antisymmetry")
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["passed"] is True
    assert "measured" in rec and "runtime_seconds" in rec


def test_check_failure_exit_code(monkeypatch, capsys):
    def failing(seed=0, workers=1):
        return CheckResult("doomed", False, 0.0, "always fails")
    monkeypatch.setitem(checks.CHECKS, "doomed", failing)
    code, stdout, _ = run_cli(["check", "doomed"], capsys)
    assert code == 2
    assert stdout.startswith("FAIL doomed")


def test_check_unknown_name(capsys):
    code, _, err = run_cli(["check", "nonsense"], capsys)
    assert code == 1
    assert "unknown check" in err


def test_missing_required_dist(capsys):
    code, _, err = run_cli(["eval", "--model", "rcm-discrete",
                            "--lambda", "1"], capsys)
    assert code == 1
    assert "--dist is required" in err


def test_simulate_renewal_probe(capsys):
    lam_plus = 0.5 * math.log(2.0)
    code, out, _ = run_cli(["simulate", "--kind", "probe", "--model", "renewal",
                            "--a", "2", "--gamma", "3",
                            "--lambda", f"{lam_plus - 0.1},{lam_plus!r}",
                            "--replicas", "30000", "--seed", "3"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    assert rows[0][header.index("classification")] == "diverging"
    assert rows[1][header.index("classification")] == "converging"
    assert float(rows[1][header.index("v")]) > 0


def test_simulate_renewal_moments(capsys):
    code, out, _ = run_cli(["simulate", "--kind", "renewal-moments", "--model",
                            "renewal", "--a", "1", "--gamma", "3",
                            "--lambda", "0", "--n", "40", "--replicas", "20000",
                            "--seed", "3"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    means = [float(r[header.index("mean")]) for r in rows]
    bounds = [float(r[header.index("exact_lower_bound")]) for r in rows]
    ses = [float(r[header.index("std_error")]) for r in rows]
    assert all(m >= b - 3 * s for m, b, s in zip(means, bounds, ses))
    assert means == sorted(means, reverse=True)


def test_simulate_renewal_moments_rejects_one_replica(capsys):
    # one replica has no standard error; the run must fail, not print nan
    code, out, err = run_cli(["simulate", "--kind", "renewal-moments", "--model",
                              "renewal", "--a", "2", "--gamma", "3",
                              "--lambda", "0", "--n", "100", "--replicas", "1"],
                             capsys)
    assert code != 0
    assert "replicas" in err
    assert "nan" not in out


def test_workers_env_var_sets_default(monkeypatch):
    from rwrelab.cli import build_parser
    monkeypatch.setenv("RWRELAB_WORKERS", "4")
    args = build_parser().parse_args(
        ["simulate", "--kind", "velocity", "--model", "rcm-discrete",
         "--dist", "constant:1", "--lambda", "1", "--n", "10"])
    assert args.workers == 4
