"""End-to-end tests of the command line interface."""

import json
import math
import os
import subprocess
import sys

import pytest

import sparsemix
from sparsemix.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def gen_args(out_dir, **over):
    params = dict(p=10, s=2, n1=8, n2=8)
    params.update(over)
    return [
        "gen",
        "--p", str(params["p"]),
        "--s", str(params["s"]),
        "--n1", str(params["n1"]),
        "--n2", str(params["n2"]),
        "--sigma1-sq", str(params.get("sigma1_sq", 0.25)),
        "--sigma2-sq", str(params.get("sigma2_sq", 1.0)),
        "--seed", str(params.get("seed", 3)),
        "--out", out_dir,
    ]


def test_gen_then_solve_round_trip(tmp_path, capsys):
    data = str(tmp_path / "ds")
    code, out = run_cli(capsys, *gen_args(data))
    assert code == 0
    info = json.loads(out)
    assert info["p"] == 10 and info["s"] == 2
    assert os.path.exists(os.path.join(data, "meta.json"))

    code, out = run_cli(capsys, "solve", "--data", data, "--decoder", "agnostic")
    assert code == 0
    res = json.loads(out)
    assert res["support"] == [0, 1]
    assert res["exhaustive"] is True
    assert res["error_count"] == 0
    assert res["recovered"] is True

    code, out = run_cli(capsys, "solve", "--data", data, "--decoder", "local",
                        "--restarts", "4", "--seed", "9")
    assert code == 0
    res_local = json.loads(out)
    assert res_local["exhaustive"] is False
    assert res_local["support"] == [0, 1]


def test_gen_accepts_explicit_support_and_values(tmp_path, capsys):
    data = str(tmp_path / "ds2")
    argv = gen_args(data) + ["--support", "2,7", "--values", "1.5,-0.5"]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    with open(os.path.join(data, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["support"] == [2, 7]
    assert meta["values"] == [1.5, -0.5]


def test_plan_reports_thresholds_and_sufficiency(capsys):
    code, out = run_cli(
        capsys, "plan", "--p", "100", "--s", "8",
        "--sigma1-sq", "1.0", "--sigma2-sq", "4.0",
        "--delta", "0.5", "--epsilon", "0.0",
        "--n1", "40", "--n2", "40",
    )
    assert code == 0
    plan = json.loads(out)
    assert math.isclose(plan["n_star"], 40.41165830893209, rel_tol=1e-12)
    assert math.isclose(plan["price_of_quality"], 1.5503397132132084, rel_tol=1e-12)
    assert plan["check"]["holds"] is True
    assert math.isclose(plan["check"]["alpha1"], 0.6286086594223741, rel_tol=1e-12)


def test_plan_emits_frontier_points(capsys):
    code, out = run_cli(
        capsys, "plan", "--p", "100", "--s", "8",
        "--sigma1-sq", "1.0", "--sigma2-sq", "4.0",
        "--delta", "0.5", "--epsilon", "0.0",
        "--frontier-n1", "0,20,40",
    )
    assert code == 0
    plan = json.loads(out)
    pts = plan["frontier"]
    assert len(pts) == 3
    assert pts[0]["n1"] == 0 and pts[0]["n2"] == 100
    assert pts[1]["n2"] <= pts[0]["n2"]


def test_lasso_subcommand_with_witness(tmp_path, capsys):
    data = str(tmp_path / "ds3")
    code, _ = run_cli(capsys, *gen_args(data, n1=30, n2=30, sigma1_sq=0.05,
                                        sigma2_sq=0.1, seed=5))
    assert code == 0
    code, out = run_cli(capsys, "lasso", "--data", data, "--witness")
    assert code == 0
    res = json.loads(out)
    assert res["converged"] is True
    assert res["lam"] > 0.0
    assert set(res["witness"]) >= {"recovery", "condition1", "condition2", "boundary"}
    assert res["signed_match"] is True
    assert res["support"] == [0, 1]


def test_bound_subcommand_with_optimizer_and_mc(capsys):
    code, out = run_cli(
        capsys, "bound", "--n1", "10", "--n2", "10",
        "--sigma1-sq", "1.0", "--sigma2-sq", "4.0", "--m", "8",
    )
    assert code == 0
    res = json.loads(out)
    assert math.isclose(res["bound"], 0.005682472522820031, rel_tol=1e-12)

    code, out = run_cli(
        capsys, "bound", "--n1", "10", "--n2", "10",
        "--sigma1-sq", "1.0", "--sigma2-sq", "4.0",
        "--delta", "0.5", "--s", "8", "--optimize",
        "--mc-trials", "2000", "--p", "16", "--seed", "4",
    )
    assert code == 0
    res = json.loads(out)
    assert res["m"] == 8
    assert res["optimal"]["log_bound"] <= res["log_bound"] + 1e-12
    mc = res["monte_carlo"]
    assert mc["estimate"] <= res["bound"] + 3.0 * mc["ci95"] + 1e-9


def test_bound_requires_m_or_delta_s(capsys):
    code, _ = run_cli(
        capsys, "bound", "--n1", "5", "--n2", "5",
        "--sigma1-sq", "1.0", "--sigma2-sq", "2.0",
    )
    assert code == 2


def test_sweep_subcommand_writes_outputs(tmp_path, capsys):
    cfg = {
        "decoder": "AgnosticScan",
        "p": 8,
        "s": 2,
        "rho": 1.0,
        "sigma1_sq": 0.0,
        "sigma2_sq": 0.0,
        "grid": [[3, 3], [5, 5]],
        "trials": 4,
        "master_seed": 7,
    }
    cfg_path = str(tmp_path / "sweep.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    out_dir = str(tmp_path / "results")
    code, out = run_cli(capsys, "sweep", "--config", cfg_path, "--out", out_dir,
                        "--formats", "csv,svg")
    assert code == 0
    res = json.loads(out)
    assert len(res["written"]) == 3
    assert os.path.exists(os.path.join(out_dir, "summary.csv"))
    assert os.path.exists(os.path.join(out_dir, "phase.svg"))
    assert res["points"][0]["recovery_rate"] == 1.0


def test_sweep_rejects_unknown_config_keys(tmp_path, capsys):
    cfg_path = str(tmp_path / "bad.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump({"decoder": "AgnosticScan", "p": 8, "s": 2, "rho": 1.0,
                   "sigma1_sq": 0.0, "sigma2_sq": 0.0, "grid": [[3, 3]],
                   "trials": 2, "bogus_knob": 1}, fh)
    code, _ = run_cli(capsys, "sweep", "--config", cfg_path,
                      "--out", str(tmp_path / "o"))
    assert code == 2


def test_sweep_refuses_configs_that_fail_every_trial(tmp_path, capsys):
    base = {"p": 16, "s": 2, "rho": 1.0, "trials": 2}
    cases = (
        # the Lasso schedule needs a positive average noise variance
        (2, dict(decoder="Lasso", sigma1_sq=0.0, sigma2_sq=0.5, grid=[[4, 4], [6, 0]])),
        # 16 * 6_250_001 design entries exceed the default cap of 1e8
        (3, dict(decoder="LocalSearch", sigma1_sq=0.1, sigma2_sq=0.5,
                 grid=[[6_250_000, 1]])),
        # the Lasso schedule takes log(p - s), so it needs p - s >= 2
        (2, dict(decoder="Lasso", p=3, sigma1_sq=0.1, sigma2_sq=0.5, grid=[[4, 4]])),
        # C(30, 15) candidates exceed the exhaustive cap, the exit code of `solve`
        (3, dict(decoder="AgnosticScan", p=30, s=15, sigma1_sq=0.1, sigma2_sq=0.5,
                 grid=[[4, 4]])),
    )
    for want, over in cases:
        cfg_path = str(tmp_path / "cfg.json")
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump({**base, **over}, fh)
        out_dir = tmp_path / f"out{want}"
        code, out = run_cli(capsys, "sweep", "--config", cfg_path,
                            "--out", str(out_dir))
        assert code == want
        assert out == ""
        assert not out_dir.exists()


def test_master_seed_override_changes_results_deterministically(tmp_path, capsys):
    cfg = {"decoder": "Lasso", "p": 16, "s": 2, "rho": 1.0, "sigma1_sq": 0.3,
           "sigma2_sq": 0.9, "grid": [[10, 10]], "trials": 4, "master_seed": 1}
    cfg_path = str(tmp_path / "sweep.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    outs = []
    for run, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        out_dir = str(tmp_path / run)
        code, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--out", out_dir,
                          "--master-seed", seed)
        assert code == 0
        with open(os.path.join(out_dir, "trials.csv"), "rb") as fh:
            outs.append(fh.read())
    # wall clock differs, so compare everything but the timing column
    def strip_wall(raw):
        lines = raw.decode("utf-8").strip().split("\n")
        return [",".join(parts.split(",")[:6] + parts.split(",")[7:]) for parts in lines]
    assert strip_wall(outs[0]) == strip_wall(outs[1])
    assert strip_wall(outs[0]) != strip_wall(outs[2])


def test_exit_code_invalid_parameters(tmp_path, capsys):
    code, _ = run_cli(capsys, *gen_args(str(tmp_path / "x"), sigma1_sq=4.0,
                                        sigma2_sq=1.0))
    assert code == 2


def test_exit_code_missing_data_directory(tmp_path, capsys):
    code, _ = run_cli(capsys, "solve", "--data", str(tmp_path / "nope"),
                      "--decoder", "agnostic")
    assert code == 4


def test_exit_code_resource_cap(tmp_path, capsys):
    data = str(tmp_path / "wide")
    code, _ = run_cli(capsys, *gen_args(data, p=30, s=2, n1=4, n2=4))
    assert code == 0
    code, _ = run_cli(capsys, "solve", "--data", data, "--decoder", "agnostic",
                      "--s", "15")
    assert code == 3


def child_env():
    # the child interpreter must import the same sparsemix as this one
    root = os.path.dirname(os.path.dirname(os.path.abspath(sparsemix.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sparsemix.cli", "plan", "--p", "64", "--s", "4",
         "--sigma1-sq", "0.5", "--sigma2-sq", "2.0"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert "n_star" in payload


EDGE_CASES = {
    # no rows: the bound is 1 and every theta is optimal
    "empty-optimize": (0, ["bound", "--n1", "0", "--n2", "0", "--m", "2",
                           "--sigma1-sq", "1", "--sigma2-sq", "4", "--optimize"]),
    # a bound above the float range is reported as +inf
    "overflowing-theta": (0, ["bound", "--n1", "0", "--n2", "100000", "--m", "2",
                              "--sigma1-sq", "1", "--sigma2-sq", "1", "--theta", "0.6"]),
    "fractional-grid": (2, ["sweep", "--config", "{fractional}", "--out", "{out}"]),
    "unknown-threads-flag": (2, ["sweep", "--config", "{valid}", "--out", "{out}",
                                 "--threads", "2"]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_inputs_exit_with_a_documented_code(tmp_path, case):
    want, argv = EDGE_CASES[case]
    base = {"decoder": "AgnosticScan", "p": 8, "s": 2, "rho": 1.0,
            "sigma1_sq": 0.0, "sigma2_sq": 0.0, "grid": [[3, 3]], "trials": 1}
    paths = {"out": str(tmp_path / "out")}
    for name, grid in (("valid", [[3, 3]]), ("fractional", [[3.9, 2.2]])):
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump({**base, "grid": grid}, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "sparsemix.cli"] + [a.format(**paths) for a in argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode in (0, 2, 3, 4)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr


def test_import_does_not_load_scipy_stats():
    # scipy.stats dominates start-up time and nothing in the package needs it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsemix; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
