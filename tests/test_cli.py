"""End-to-end tests of the command line interface."""

import ast
import csv
import dataclasses
import json
import math
import os
import re
import shlex
import subprocess
import sys

import pytest

import sparsemix
from sparsemix.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


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
        "--mc-trials", "2000", "--seed", "4",
    )
    assert code == 0
    res = json.loads(out)
    assert res["m"] == 8
    assert res["optimal"]["log_bound"] <= res["log_bound"] + 1e-12
    mc = res["monte_carlo"]
    assert mc["estimate"] <= res["bound"] + 3.0 * mc["ci95"] + 1e-9


def test_bound_underflows_to_zero_next_to_a_finite_log_bound(capsys):
    code, out = run_cli(
        capsys, "bound", "--n1", "0", "--n2", "100000", "--m", "8",
        "--sigma1-sq", "1", "--sigma2-sq", "1",
    )
    assert code == 0
    res = json.loads(out)
    assert res["bound"] == 0.0
    assert math.isclose(res["log_bound"], -54930.6144334, rel_tol=1e-9)


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


def split_wall_ms(path):
    """trials.csv rows without their wall_ms cells, and those cells."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    wall = rows[0].index("wall_ms")
    return [row[:wall] + row[wall + 1:] for row in rows], [row[wall] for row in rows[1:]]


def test_sweep_subcommand_equals_a_serial_run(tmp_path, capsys, monkeypatch):
    # the CLI runs min(usable CPUs, jobs) workers; three CPUs fork two children,
    # and each trial's wall_ms is stamped with the pid that ran it
    harness, run_one = sparsemix.harness, sparsemix.harness._run_one
    monkeypatch.setattr(sparsemix.rng, "_cpus", lambda: 3)
    monkeypatch.setattr(harness, "_run_one", lambda *args: dataclasses.replace(
        run_one(*args), wall_ms=float(os.getpid())))
    cfg = {"decoder": "Lasso", "p": 24, "s": 2, "rho": 1.0, "sigma1_sq": 0.2,
           "sigma2_sq": 0.6, "grid": [[8, 8], [20, 20]], "trials": 5, "master_seed": 4}
    cfg_path = str(tmp_path / "sweep.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    cli, serial = tmp_path / "cli", tmp_path / "serial"
    code, _ = run_cli(capsys, "sweep", "--config", cfg_path, "--out", str(cli),
                      "--formats", "csv,svg")
    assert code == 0
    config = sparsemix.ExperimentConfig(**cfg)
    records = sparsemix.run_sweep(config)
    sparsemix.emit_outputs(sparsemix.summarize(config, records), records, str(serial),
                           ("csv", "svg"))
    for name in ("summary.csv", "phase.svg"):
        assert (cli / name).read_bytes() == (serial / name).read_bytes()
    (cli_rows, pids), (serial_rows, _) = (split_wall_ms(d / "trials.csv") for d in (cli, serial))
    assert cli_rows == serial_rows
    assert len(set(pids)) == 3


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
        # sigma_avg_sq ln(p - s) overflows, and lam with it
        (2, dict(decoder="Lasso", p=64, s=4, sigma1_sq=1e308, sigma2_sq=1e308, grid=[[0, 1]])),
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


def test_sweep_refuses_bad_outputs_before_any_trial(tmp_path, capsys, monkeypatch):
    def run_sweep(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(sparsemix.harness, "run_sweep", run_sweep)
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps({"decoder": "AgnosticScan", "p": 8, "s": 2, "rho": 1.0,
                                    "sigma1_sq": 0.0, "sigma2_sq": 0.0, "grid": [[3, 3]],
                                    "trials": 2}), encoding="utf-8")
    a_file = tmp_path / "a_file"
    a_file.write_text("", encoding="utf-8")
    for want, out, formats in ((2, tmp_path / "out", "csv,png"), (4, a_file, "csv")):
        code, printed = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out),
                                "--formats", formats)
        assert (code, printed) == (want, "")


def test_sweep_schedule_takes_a_rho_whose_square_overflows(tmp_path, capsys):
    # lam is at its limit there (OverflowError once ended the sweep with exit
    # 1), but the trial's squared response would overflow, so the sweep is
    # refused before any trial; below the response rule's edge it runs clean
    assert math.isfinite(sparsemix.lambda_schedule(0.75, p=8, s=2, n=8, rho=1e155))
    cfg_path = tmp_path / "sweep.json"
    for rho, want in ((1e155, 2), (2e152, 2), (1e152, 0)):
        cfg_path.write_text(json.dumps({"decoder": "Lasso", "p": 8, "s": 2, "rho": rho,
                                        "sigma1_sq": 0.5, "sigma2_sq": 1.0, "grid": [[4, 4]],
                                        "trials": 1}), encoding="utf-8")
        out_dir = tmp_path / f"out{rho}"
        code, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out", str(out_dir))
        assert code == want, rho
        assert out_dir.exists() == (want == 0)
    with open(out_dir / "trials.csv", encoding="utf-8") as fh:
        assert [row["failed"] for row in csv.DictReader(fh)] == ["0"]
    sparsemix.ExperimentConfig(decoder="Lasso", p=8, s=2, rho=1.9e152, sigma1_sq=0.5,
                               sigma2_sq=1.0, grid=((4, 4),), trials=1)


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


def test_exit_code_informed_weight_overflow(tmp_path, capsys):
    # a positive variance whose reciprocal weight overflows to inf
    data = str(tmp_path / "subnormal")
    code, _ = run_cli(capsys, *gen_args(data, sigma1_sq=1e-320))
    assert code == 0
    code, _ = run_cli(capsys, "solve", "--data", data, "--decoder", "informed")
    assert code == 2


def test_exit_code_missing_data_directory(tmp_path, capsys):
    code, _ = run_cli(capsys, "solve", "--data", str(tmp_path / "nope"),
                      "--decoder", "agnostic")
    assert code == 4


def test_solve_refuses_a_dataset_with_fractional_counts(tmp_path, capsys):
    data = str(tmp_path / "ds")
    assert run_cli(capsys, *gen_args(data))[0] == 0
    meta_path = os.path.join(data, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({**meta, "n1": 8.6}, fh)
    assert run_cli(capsys, "solve", "--data", data) == (2, "")


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
    # a theta whose 1 - 2 g overflows is refused, not reported as a bound of 0
    "theta-past-float-range": (2, ["bound", "--n1", "3", "--n2", "0", "--m", "2",
                                   "--sigma1-sq", "1e-320", "--sigma2-sq", "1",
                                   "--theta", "1.7e308"]),
    "fractional-grid": (2, ["sweep", "--config", "{fractional}", "--out", "{out}"]),
    # a design needs both block sizes; one alone must not be dropped silently
    "plan-n1-without-n2": (2, ["plan", "--p", "64", "--s", "4", "--sigma1-sq", "0.5",
                               "--sigma2-sq", "2.0", "--n1", "40"]),
    "unknown-threads-flag": (2, ["sweep", "--config", "{valid}", "--out", "{out}",
                                 "--threads", "2"]),
    # non-finite variances and budgets are refused, as NoiseProfile refuses them
    "plan-infinite-variance": (2, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "1",
                                   "--sigma2-sq", "inf"]),
    "plan-nan-variance": (2, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "nan",
                              "--sigma2-sq", "2", "--n1", "0", "--n2", "0",
                              "--frontier-n1", "0,10"]),
    "plan-infinite-epsilon": (2, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "1",
                                  "--sigma2-sq", "2", "--epsilon", "inf",
                                  "--frontier-n1", "0"]),
    "bound-infinite-variance": (2, ["bound", "--n1", "3", "--n2", "3", "--m", "2",
                                    "--sigma1-sq", "1", "--sigma2-sq", "inf"]),
    "bound-infinite-variance-optimize": (2, ["bound", "--n1", "3", "--n2", "3", "--m", "2",
                                             "--sigma1-sq", "1", "--sigma2-sq", "inf",
                                             "--optimize"]),
    # an accepted exact finish relies on 0 < tol to rebuild the residual
    "lasso-nan-tol": (2, ["lasso", "--data", "{data}", "--tol", "nan"]),
    # the recovery verdict compares against 2 * delta * s
    "solve-nan-delta": (2, ["solve", "--data", "{data}", "--decoder", "agnostic",
                            "--s", "2", "--delta", "nan"]),
    "solve-delta-above-one": (2, ["solve", "--data", "{data}", "--decoder", "agnostic",
                                  "--s", "2", "--delta", "5"]),
    # delta * s / (2 * sigma2_sq) underflows, so the noisy block's coefficient is 0
    "plan-zero-coefficient": (2, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "1",
                                  "--sigma2-sq", "1e10", "--delta", "1e-320"]),
    # a huge but finite variance is planned for, not squared past the float range
    "plan-huge-variance": (0, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "1",
                               "--sigma2-sq", "1e200"]),
    # a frontier n2 past 2**53, where a unit step no longer moves n2 * alpha2
    "plan-huge-frontier": (0, ["plan", "--p", "24", "--s", "4", "--sigma1-sq", "1",
                               "--sigma2-sq", "1e30", "--frontier-n1", "0"]),
    # variances 600 orders of magnitude apart still give a finite optimum
    "bound-far-apart-variances-optimize": (0, ["bound", "--n1", "3", "--n2", "3",
                                               "--m", "2", "--sigma1-sq", "1e-300",
                                               "--sigma2-sq", "1e300", "--optimize"]),
    # subnormal variances: the relaxed point 1/(4 sigma2_sq), or the informed
    # exponent argument, leaves the float range
    "plan-subnormal-variances-agnostic": (2, ["plan", "--p", "24", "--s", "4",
                                              "--sigma1-sq", "1e-320", "--sigma2-sq",
                                              "1e-320", "--setting", "agnostic"]),
    "plan-subnormal-variances-informed": (2, ["plan", "--p", "24", "--s", "4",
                                              "--sigma1-sq", "1e-320", "--sigma2-sq",
                                              "1e-320", "--setting", "informed"]),
    "bound-subnormal-variances": (2, ["bound", "--n1", "3", "--n2", "3", "--m", "2",
                                      "--sigma1-sq", "1e-320", "--sigma2-sq", "1e-320"]),
    "bound-subnormal-variances-optimize": (2, ["bound", "--n1", "3", "--n2", "3",
                                               "--m", "2", "--sigma1-sq", "1e-320",
                                               "--sigma2-sq", "1e-320", "--optimize"]),
    # s and the design cap are checked before a support of s indices is built
    "gen-s-past-p": (2, ["gen", "--p", "10", "--s", str(2**53), "--n1", "2", "--n2", "2",
                         "--sigma1-sq", "1", "--sigma2-sq", "2", "--out", "{out}"]),
    "gen-p-past-design-cap": (3, ["gen", "--p", str(2**53), "--s", str(2**53), "--n1", "2",
                                  "--n2", "2", "--sigma1-sq", "1", "--sigma2-sq", "2",
                                  "--out", "{out}"]),
    # the Monte Carlo check samples the query's m alone, in memory that
    # grows with neither m nor s; s is read only with --delta
    "bound-monte-carlo-s-unread": (0, ["bound", "--n1", "2", "--n2", "2", "--m", "2",
                                       "--sigma1-sq", "1", "--sigma2-sq", "2",
                                       "--mc-trials", "10", "--s", str(2**53)]),
    "bound-monte-carlo-m-past-s": (0, ["bound", "--n1", "2", "--n2", "2", "--m", str(2**53),
                                       "--sigma1-sq", "1", "--sigma2-sq", "2",
                                       "--mc-trials", "10", "--s", "1"]),
    "bound-monte-carlo-wide": (0, ["bound", "--n1", "2", "--n2", "2", "--m", "2",
                                   "--sigma1-sq", "1", "--sigma2-sq", "2",
                                   "--mc-trials", "10", "--s", "30000"]),
    # count flags are checked where they are left unread too
    "bound-negative-seed": (2, ["bound", "--n1", "1", "--n2", "1", "--m", "2",
                                "--sigma1-sq", "1", "--sigma2-sq", "2", "--seed", "-3"]),
    "solve-negative-seed": (2, ["solve", "--data", "{data}", "--decoder", "agnostic",
                                "--seed", "-4"]),
    "gen-negative-seed": (2, ["gen", "--p", "10", "--s", "2", "--n1", "2", "--n2", "2",
                              "--sigma1-sq", "1", "--sigma2-sq", "2", "--seed", "-1",
                              "--out", "{out}"]),
    "sweep-negative-master-seed": (2, ["sweep", "--config", "{valid}", "--out", "{out}",
                                       "--master-seed", "-1"]),
    "gen-s-not-the-support-length": (2, ["gen", "--p", "10", "--s", "3", "--support", "1,2",
                                         "--n1", "2", "--n2", "2", "--sigma1-sq", "1",
                                         "--sigma2-sq", "2", "--out", "{out}"]),
    # a dataset without ground truth needs --s or --lam, and has no witness
    "solve-without-truth-or-s": (2, ["solve", "--data", "{bare}"]),
    "lasso-without-truth-or-lam": (2, ["lasso", "--data", "{bare}"]),
    "lasso-witness-without-truth": (2, ["lasso", "--data", "{bare}", "--lam", "0.1",
                                        "--witness"]),
    "sweep-config-a-list": (2, ["sweep", "--config", "{list}", "--out", "{out}"]),
    # a config's master_seed has the --master-seed flag's range
    "sweep-config-huge-master-seed": (2, ["sweep", "--config", "{huge_seed}", "--out", "{out}"]),
    "sweep-config-negative-master-seed": (2, ["sweep", "--config", "{negative_seed}",
                                              "--out", "{out}"]),
    # s = 1 has no n_inf threshold, which prints as null
    "plan-single-index": (0, ["plan", "--p", "24", "--s", "1", "--sigma1-sq", "1",
                              "--sigma2-sq", "2"]),
    # theta is optimized for the agnostic bound only
    "informed-optimize": (2, ["bound", "--n1", "3", "--n2", "3", "--m", "2",
                              "--sigma1-sq", "1", "--sigma2-sq", "4", "--setting",
                              "informed", "--optimize"]),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_inputs_exit_with_a_documented_code(tmp_path, case):
    want, argv = EDGE_CASES[case]
    base = {"decoder": "AgnosticScan", "p": 8, "s": 2, "rho": 1.0,
            "sigma1_sq": 0.0, "sigma2_sq": 0.0, "grid": [[3, 3]], "trials": 1}
    paths = {name: str(tmp_path / name) for name in ("out", "data", "bare")}
    for name in ("data", "bare"):
        if f"{{{name}}}" in argv:
            assert main(gen_args(paths[name])) == 0
    meta = tmp_path / "bare" / "meta.json"
    if meta.exists():  # the same dataset without its ground truth
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "support": None}))
    configs = {"valid": {**base}, "fractional": {**base, "grid": [[3.9, 2.2]]},
               "list": [base], "huge_seed": {**base, "master_seed": 10**400},
               "negative_seed": {**base, "master_seed": -5}}
    for name, config in configs.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(config, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "sparsemix.cli"] + [a.format(**paths) for a in argv],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode in (0, 2, 3, 4)
    assert proc.returncode == want, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_python_examples_run():
    # the blocks build on each other, so they share one namespace
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), flags=re.DOTALL)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def key_paths(value, prefix=""):
    """Every key path in a JSON value; the items of a list share `[]`."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = (("[]", item) for item in value)
    else:
        return set()
    paths = set()
    for key, item in items:
        paths |= {prefix + key} | key_paths(item, prefix + key + ".")
    return paths


def test_readme_cli_examples_print_the_documented_keys(tmp_path, monkeypatch, capsys):
    # each `sparsemix` shell block runs in turn in one directory; the JSON
    # block after it shows what it prints, the one before sweep its config
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"```(\w+)\n(.*?)```", fh.read(), flags=re.DOTALL)
    monkeypatch.chdir(tmp_path)
    ran = []
    for i, (lang, body) in enumerate(blocks):
        if lang != "sh" or not body.startswith("sparsemix "):
            continue
        argv = shlex.split(body.replace("\\\n", " "))[1:]
        if argv[0] == "sweep":
            assert blocks[i - 1][0] == "json"
            (tmp_path / "sweep.json").write_text(blocks[i - 1][1], encoding="utf-8")
        code, out = run_cli(capsys, *argv)
        assert code == 0, argv
        ran.append(argv[0])
        if argv[0] == "sweep":
            for name in ("summary.csv", "trials.csv", "phase.svg"):
                assert (tmp_path / "results" / name).is_file()
        else:
            assert blocks[i + 1][0] == "json", argv
            documented = json.loads(blocks[i + 1][1])
            assert key_paths(json.loads(out)) == key_paths(documented), argv
    assert ran == ["gen", "plan", "solve", "lasso", "bound", "sweep"]


def _opens_for_writing(call):
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[1:2]
    mode = modes[0] if modes else ast.Constant("r")
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def package_trees():
    """(file name, AST) of each module of the package."""
    src = os.path.join(ROOT, "src", "sparsemix")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read(), name)


def test_only_write_lines_opens_files_for_writing():
    # one writer keeps the in-place rewrite: opening with "w" truncates an
    # existing file to zero, which ext4 flushes to disk on close
    offenders = []
    for name, tree in package_trees():
        allowed = set()
        if name == "model.py":
            writer = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == "write_lines")
            allowed = {id(node) for node in ast.walk(writer)}
        offenders += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in allowed
            and _opens_for_writing(node)
        ]
    assert offenders == []


def test_package_has_no_assert_statements():
    # invariants raise typed errors: python -O strips assert statements
    offenders = [
        f"{name}:{node.lineno}" for name, tree in package_trees()
        for node in ast.walk(tree) if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_import_does_not_load_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsemix; "
         "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_does_not_load_process_pools():
    # run_sweep imports multiprocessing only when it forks, so import time stays put
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sparsemix; "
         "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_bound_refuses_float_max_variances(capsys):
    # the default theta rounds to 0 and 2 sigma2_sq overflows: the exponent
    # argument is NaN, which printed "theta": 0.0 next to "bound": Infinity
    argv = ["bound", "--n1", "0", "--n2", "3", "--m", "5",
            "--sigma1-sq", "1.7e308", "--sigma2-sq", "1.7e308"]
    for extra in ([], ["--optimize"]):
        assert run_cli(capsys, *argv, *extra) == (2, "")


HUGE = str(10**400)
VARIANCES = ["--sigma1-sq", "1", "--sigma2-sq", "2"]
BOUND = ["bound", "--n1", "1", "--n2", "1", *VARIANCES]
PLAN = ["plan", "--p", "100", "--s", "4", *VARIANCES]
# counts that float arithmetic cannot hold: (argument named, argv)
HUGE_COUNTS = {
    "bound-m": ("m", [*BOUND, "--m", HUGE]),
    "bound-m-optimize": ("m", [*BOUND, "--m", str(10**160), "--optimize"]),
    "bound-budget-s": ("s", [*BOUND, "--delta", "0.5", "--s", HUGE]),
    "bound-monte-carlo-s": ("s", [*BOUND, "--m", "2", "--mc-trials", "10", "--s", HUGE]),
    # flags that this run leaves unread are checked all the same
    "bound-unread-s": ("s", [*BOUND, "--m", "2", "--s", HUGE]),
    "bound-unread-seed": ("seed", [*BOUND, "--m", "2", "--seed", HUGE]),
    "solve-unread-restarts": ("restarts", ["solve", "--data", "{out}", "--decoder", "agnostic",
                                           "--restarts", HUGE, "--seed", "-4"]),
    "bound-n1": ("n1", ["bound", "--n1", HUGE, "--n2", "1", "--m", "2", *VARIANCES]),
    "plan-p": ("p", ["plan", "--p", HUGE, "--s", "4", *VARIANCES]),
    "plan-n1": ("n1", [*PLAN, "--n1", HUGE, "--n2", "1"]),
    "plan-frontier-n1": ("n1", [*PLAN, "--frontier-n1", HUGE]),
    "gen-s": ("s", ["gen", "--p", "10", "--s", HUGE, "--n1", "2", "--n2", "2",
                    *VARIANCES, "--out", "{out}"]),
}


@pytest.mark.parametrize("case", sorted(HUGE_COUNTS))
def test_counts_past_the_float_range_exit_2_naming_the_argument(tmp_path, capsys, case):
    arg, argv = HUGE_COUNTS[case]
    assert main([a.format(out=tmp_path / "out") for a in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {arg} must be an integer in [")
    assert not (tmp_path / "out").exists()


# (p, s, n1, n2, cap): the least MAX_DESIGN_ENTRIES that passes; the first
# case is bound by the 16 x 10 design, the second by its 4 support indices
DESIGN_CAP_CASES = [(10, 2, 8, 8, 160), (5, 4, 1, 0, 35)]


@pytest.mark.parametrize("p, s, n1, n2, cap", DESIGN_CAP_CASES)
def test_one_design_cap_moves_every_refusal(tmp_path, monkeypatch, capsys, p, s, n1, n2, cap):
    # generate_dataset, ExperimentConfig and gen read model's cap when called
    signal = sparsemix.SparseSignal(p=p, support=tuple(range(s)), values=(1.0,) * s)
    noise = sparsemix.NoiseProfile(n1=n1, n2=n2, sigma1_sq=0.25, sigma2_sq=1.0)
    config = dict(decoder="LocalSearch", p=p, s=s, rho=1.0, sigma1_sq=0.25,
                  sigma2_sq=1.0, grid=[(n1, n2)], trials=1)
    for cap, refused in ((cap, False), (cap - 1, True)):
        monkeypatch.setattr(sparsemix.model, "MAX_DESIGN_ENTRIES", cap)
        for call in (lambda: sparsemix.generate_dataset(signal, noise, 0),
                     lambda: sparsemix.ExperimentConfig(**config)):
            if refused:
                with pytest.raises(sparsemix.ResourceCapError):
                    call()
            else:
                call()
        gen = gen_args(str(tmp_path / f"gen{cap}"), p=p, s=s, n1=n1, n2=n2)
        assert main(gen) == (3 if refused else 0), cap
    capsys.readouterr()


def limited_run(argv, limit=1_500_000_000):
    """Run the CLI in a child process that caps its own address space."""
    code = ("import resource, sys; from sparsemix.cli import main; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            f"sys.exit(main({argv!r}))")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)


def test_supports_past_the_cap_are_refused_before_they_are_built(tmp_path):
    # each of these would build a tuple of 10**8 ints, or bound's 10**8-row
    # weights, which a 1.5 GB address space cannot hold
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(
        {"decoder": "LocalSearch", "p": 10**8, "s": 10**8 - 1, "rho": 1.0,
         "sigma1_sq": 0.25, "sigma2_sq": 1.0, "grid": [[1, 0]], "trials": 1}))
    commands = [
        ["bound", "--n1", str(10**8), "--n2", "0", *VARIANCES, "--m", "2",
         "--mc-trials", "10"],
        ["gen", "--p", str(10**8), "--s", str(10**8), "--n1", "1", "--n2", "0",
         *VARIANCES, "--out", str(tmp_path / "gen")],
        ["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")],
    ]
    for argv in commands:
        proc = limited_run(argv)
        assert proc.returncode == 3, (argv[0], proc.stderr[-2000:])
        assert proc.stderr.startswith("error: ") and "MemoryError" not in proc.stderr
    assert not any(tmp_path.glob("gen*")) and not (tmp_path / "sweep").exists()


def test_monte_carlo_bounds_sample_only_the_swapped_indices():
    # a unit signal's estimate reads m alone: no index of either support is
    # built, so the cost grows with neither s nor m; an m/2-index instance
    # took the third past 1.5 GB, and the last past the support cap
    base = ["bound", "--n1", "2", "--n2", "2", *VARIANCES, "--mc-trials", "10"]
    for extra in (["--m", "2", "--s", "11428571"], ["--m", "20000"],
                  ["--m", "22857142", "--s", "11428571"], ["--m", str(2**53)]):
        proc = limited_run(base + extra)
        assert proc.returncode == 0, (extra, proc.stderr[-2000:])
        assert json.loads(proc.stdout)["monte_carlo"]["trials"] == 10


def test_monte_carlo_memory_is_bounded_by_entries():
    # one batch of every trial (as many as 4096) would hold 350 and 480 MB
    # of normals, and twice as much again in products; batches of at most
    # 2**15 - 2 normals, or one trial, keep both within 1 GB
    for blocks, trials in ((["--n1", "2000", "--n2", "20000"], "1000"),
                           (["--n1", "100000", "--n2", "0"], "300")):
        argv = ["bound", *blocks, *VARIANCES, "--m", "8", "--mc-trials", trials]
        proc = limited_run(argv, limit=1_000_000_000)
        assert proc.returncode == 0, (blocks, proc.stderr[-2000:])
        assert json.loads(proc.stdout)["monte_carlo"]["trials"] == int(trials)
