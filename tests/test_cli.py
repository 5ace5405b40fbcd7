import json
import math

import numpy as np
import pytest

from rwrelab import IIDConductance, ScalarDist, checks, einstein_slope
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
    assert _parse_lambda_grid("inf") == [math.inf]


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


def test_eval_iid_omega_sigma2_close_to_its_threshold(capsys):
    # sigma2 is finite for lam > log(E[rho^2])/4 = 0.1884 and is printed
    # down to there (at 0.195 the column was empty before the closed form);
    # between lam_plus = 0.1116 and 0.1884, v > 0 and sigma2 is infinite;
    # at or below lam_plus (v = 0) the column stays empty
    code, out, _ = run_cli(["eval", "--model", "iid-omega", "--dist",
                            "two-point:0.5,2:0.5", "--lambda", "0.1,0.15,0.195"],
                           capsys)
    assert code == 0
    header, rows = parse_table(out)
    rows = [dict(zip(header, row)) for row in rows]
    assert rows[0]["sigma2"] == ""
    assert float(rows[1]["v"]) > 0 and rows[1]["sigma2"] == "inf"
    assert float(rows[2]["sigma2"]) == pytest.approx(24.368675856177235, rel=1e-12)


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


def test_simulate_diffusion_prints_an_infinite_closed_form(capsys):
    code, out, _ = run_cli(["simulate", "--kind", "diffusion", "--model",
                            "iid-omega", "--dist", "two-point:0.5,2:0.5",
                            "--lambda", "0.15", "--n", "200", "--replicas", "50",
                            "--seed", "2"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    row = dict(zip(header, rows[0]))
    assert row["sigma2_closed_form"] == "inf"


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


_DISCRETE = ["--model", "rcm-discrete", "--dist", "two-point:1,2:0.5"]
_CONTINUOUS = ["--model", "rcm-continuous", "--dist", "two-point:1,2:0.5"]


@pytest.mark.parametrize("kind,model,length,name", [
    ("velocity", _DISCRETE, ["--n", "-5"], "n"),
    ("velocity", _DISCRETE, ["--n", "0"], "n"),
    ("velocity", _CONTINUOUS, ["--horizon", "-3"], "horizon"),
    ("velocity", _CONTINUOUS, ["--horizon", "0"], "horizon"),
    ("velocity", _CONTINUOUS, ["--horizon", "inf"], "horizon"),
    ("diffusion", _DISCRETE, ["--n", "0"], "n"),
    ("einstein", _DISCRETE, ["--n", "-10"], "n"),
], ids=["velocity-n-negative", "velocity-n-zero", "velocity-horizon-negative",
        "velocity-horizon-zero", "velocity-horizon-inf", "diffusion-n-zero",
        "einstein-n-negative"])
def test_simulate_rejects_nonpositive_run_length(capsys, kind, model, length, name):
    # the estimators divide by the run length; the run must fail, not print
    # a number or a traceback
    code, out, err = run_cli(["simulate", "--kind", kind, *model, "--lambda",
                              "0.5", *length, "--replicas", "10"], capsys)
    assert code == 1
    assert err.startswith("rwrelab: ") and name in err
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("rest,named", [
    (["--lambda", "nan"], "'nan'"),
    (["--lambda", "0.5,nan"], "'0.5,nan'"),
    (["--lambda", "0:nan:0.1"], "'0:nan:0.1'"),
    (["--lambda", "0.5", "--range-cap", "0"], "range_cap"),
    (["--lambda", "0.5", "--range-cap", "-5"], "range_cap"),
], ids=["lambda-nan", "lambda-list-nan", "lambda-grid-nan", "range-cap-0",
        "range-cap-negative"])
def test_simulate_velocity_rejects_bad_field_or_range_cap(capsys, rest, named):
    # each run fails before walking, with a message naming the bad value
    code, out, err = run_cli(["simulate", "--kind", "velocity", *_DISCRETE,
                              *rest, "--n", "100", "--replicas", "20"], capsys)
    assert code == 1
    assert err.startswith("rwrelab: ") and named in err and rest[-1] in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("kind,model,rest", [
    ("diffusion", _DISCRETE, ["--n", "2000"]),
    ("einstein", _DISCRETE, ["--n", "2000"]),
    ("tau1", _CONTINUOUS, []),
], ids=["diffusion", "einstein", "tau1"])
def test_simulate_rejects_range_cap_outside_velocity_runs(capsys, kind, model, rest):
    # only velocity runs abort walks at the cap; the others would ignore it
    code, out, err = run_cli(["simulate", "--kind", kind, *model, "--lambda",
                              "1", *rest, "--replicas", "20", "--range-cap",
                              "5"], capsys)
    assert code == 1
    assert err.startswith("rwrelab: ") and "--range-cap" in err
    assert "Traceback" not in err and out == ""


def test_eval_infinite_field(capsys):
    # lambda = inf is the straight-line limit: v = 1, sigma^2 = 0
    code, out, _ = run_cli(["eval", *_DISCRETE, "--lambda", "inf"], capsys)
    assert code == 0
    header, rows = parse_table(out)
    row = dict(zip(header, rows[0]))
    assert float(row["v"]) == 1.0 and float(row["sigma2"]) == 0.0


EINSTEIN_EDGES = {
    # h = 0 has no difference quotient: exit 1 with a message
    "zero-field": (_DISCRETE, ["--lambda", "0,0.1", "--n", "50"]),
    # below h = 0 the standard error stays positive, and noise is judged by |v|
    "negative-field": (_DISCRETE, ["--lambda=-0.1", "--n", "400"]),
    # a continuous horizon runs as given, not cut to an integer
    "fractional-horizon": (_CONTINUOUS, ["--lambda", "0.2", "--horizon", "100.9"]),
}


@pytest.mark.parametrize("case", sorted(EINSTEIN_EDGES))
def test_simulate_einstein_edge_cases(capsys, case):
    model, rest = EINSTEIN_EDGES[case]
    code, out, err = run_cli(["simulate", "--kind", "einstein", *model, *rest,
                              "--replicas", "40", "--seed", "2"], capsys)
    if case == "zero-field":
        assert code == 1 and err.startswith("rwrelab: ") and "nonzero" in err
        assert out == ""
        return
    assert code == 0
    header, rows = parse_table(out)
    row = dict(zip(header, map(float, rows[0])))
    h, se = row["h"], row["mc_slope_se"]
    assert se > 0
    assert row["noise_dominated"] == float(abs(row["analytic_slope"] * h)
                                           < 3 * se * abs(h))
    if case == "fractional-horizon":
        conductance = IIDConductance(ScalarDist.two_point(1.0, 2.0, 0.5),
                                     time_flavor="continuous")
        slope = {t: einstein_slope(conductance, [h], t, 40, 2).rows[0].mc_slope
                 for t in (100.9, 100)}
        assert row["mc_slope"] == slope[100.9] != slope[100]


def test_workers_env_var_sets_default(monkeypatch):
    from rwrelab.cli import build_parser
    monkeypatch.setenv("RWRELAB_WORKERS", "4")
    args = build_parser().parse_args(
        ["simulate", "--kind", "velocity", "--model", "rcm-discrete",
         "--dist", "constant:1", "--lambda", "1", "--n", "10"])
    assert args.workers == 4
