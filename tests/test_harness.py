"""Tests for the sweep harness: seeding, aggregation, and file emission."""

import dataclasses
import math
import multiprocessing
import os
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from sparsemix import (
    DecoderKind,
    ExperimentConfig,
    InvalidConfigError,
    NoiseProfile,
    ResourceCapError,
    Setting,
    SparseSignal,
    decoders,
    generate_dataset,
    emit_outputs,
    run_sweep,
    summarize,
    wilson_ci95,
)
from sparsemix import harness, rng


def tiny_config(**overrides):
    base = dict(
        decoder="AgnosticScan",
        p=8,
        s=2,
        rho=1.0,
        sigma1_sq=0.0,
        sigma2_sq=0.0,
        grid=[(3, 3), (5, 5)],
        trials=5,
        master_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def record_key(r):
    # wall clock time legitimately varies between runs
    return (r.point, r.n1, r.n2, r.trial, r.seed, r.recovered, r.error_count, r.failed)


def pava_fit(y):
    """Pool-adjacent-violators fit of a nondecreasing sequence."""
    vals = [float(v) for v in y]
    weights = [1.0] * len(vals)
    blocks = []
    for v, w in zip(vals, weights):
        blocks.append([v, w])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in blocks:
        out.extend([v] * int(w))
    return out


def wilson_reference(k, n):
    z = 1.959963984540054
    phat = k / n
    denom = 1.0 + z * z / n
    half = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n)) / denom
    return half


def test_wilson_ci95_matches_direct_formula():
    for k, n in ((0, 10), (3, 10), (7, 10), (10, 10), (111, 200), (1, 1)):
        assert math.isclose(wilson_ci95(k, n), wilson_reference(k, n), rel_tol=1e-12)
    assert wilson_ci95(3, 10) == wilson_ci95(7, 10)
    with pytest.raises(ValueError):
        wilson_ci95(-1, 10)
    with pytest.raises(ValueError):
        wilson_ci95(11, 10)
    with pytest.raises(ValueError):
        wilson_ci95(0, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(trials=0)
    with pytest.raises(ValueError):
        tiny_config(grid=[])
    with pytest.raises(ValueError):
        tiny_config(grid=[(0, 0)])
    with pytest.raises(ValueError, match="integers"):
        tiny_config(grid=[[3.9, 2.2]])
    with pytest.raises(ValueError):
        tiny_config(p=4, s=4)
    with pytest.raises(ValueError):
        tiny_config(sigma1_sq=2.0, sigma2_sq=1.0)
    with pytest.raises(ValueError):
        tiny_config(decoder="Bogus")
    with pytest.raises(ValueError):
        tiny_config(decoder="Lasso", rho=0.0)
    with pytest.raises(ValueError):
        tiny_config(delta=0.0)
    with pytest.raises(ValueError):
        tiny_config(lambda_value=-0.1)
    with pytest.raises(ValueError):
        tiny_config(lambda_value=math.nan)
    # integer fields fail here, not later inside run_sweep
    for field, value in (("trials", 2.5), ("p", 40.0), ("s", 2.0),
                         ("master_seed", 1.5), ("restarts", 1.5)):
        with pytest.raises(ValueError, match=field):
            tiny_config(**{field: value})
    cfg = tiny_config(grid=[[3, 3]], p=np.int64(8), master_seed=np.uint64(7))
    assert (type(cfg.p), type(cfg.master_seed)) == (int, int)
    assert cfg.grid == ((3, 3),)
    assert cfg.decoder is DecoderKind.AGNOSTIC_SCAN


def test_combinatorial_configs_respect_the_exhaustive_cap():
    with pytest.raises(ResourceCapError):
        tiny_config(decoder="AgnosticScan", p=30, s=15, grid=[(20, 20)])
    ExperimentConfig(
        decoder="LocalSearch", p=30, s=15, rho=1.0, sigma1_sq=0.5,
        sigma2_sq=1.0, grid=[(20, 20)], trials=1,
    )


def test_one_scan_cap_moves_the_config_and_the_decoder_together(monkeypatch):
    # ExperimentConfig and decode_exhaustive read decoders.EXHAUSTIVE_CAP when called
    ds = generate_dataset(SparseSignal(p=8, support=(0, 1), values=(1.0, 1.0)),
                          NoiseProfile(n1=3, n2=3, sigma1_sq=0.5, sigma2_sq=1.0), 0)
    for cap, refused in ((28, False), (27, True)):  # C(8, 2) = 28 candidates
        monkeypatch.setattr(decoders, "EXHAUSTIVE_CAP", cap)
        for call in (lambda: tiny_config(),
                     lambda: decoders.decode_exhaustive(ds, 2, Setting.AGNOSTIC)):
            if refused:
                with pytest.raises(ResourceCapError, match="use local search"):
                    call()
            else:
                call()
    # a count past the cap is refused at once, not formed: C(10**8, 5 * 10**7)
    with pytest.raises(ResourceCapError):
        tiny_config(p=10**8, s=5 * 10**7, grid=[(1, 0)])


def test_configs_that_fail_every_trial_are_refused():
    with pytest.raises(InvalidConfigError, match="set lambda_value"):
        tiny_config(decoder="Lasso", grid=[(3, 3)])
    with pytest.raises(InvalidConfigError):
        tiny_config(decoder="Lasso", sigma2_sq=1.0, grid=[(3, 3), (4, 0)])
    # a fixed penalty needs no variance, and one noisy block is enough
    tiny_config(decoder="Lasso", lambda_value=0.1)
    tiny_config(decoder="Lasso", sigma2_sq=1.0, grid=[(3, 3), (0, 4)])
    with pytest.raises(ResourceCapError):
        tiny_config(decoder="LocalSearch", p=1000, grid=[(3, 3), (60_000, 40_001)])
    tiny_config(decoder="LocalSearch", p=1000, grid=[(60_000, 40_000)])


def test_lasso_schedule_needs_two_off_support_columns():
    # lambda_schedule takes log(p - s), so p - s = 1 would fail every trial
    with pytest.raises(InvalidConfigError, match="p - s >= 2"):
        tiny_config(decoder="Lasso", p=3, s=2, sigma2_sq=1.0)
    tiny_config(decoder="Lasso", p=4, s=2, sigma2_sq=1.0)
    tiny_config(decoder="Lasso", p=3, s=2, lambda_value=0.1)


def test_zero_noise_sweep_recovers_everywhere():
    cfg = tiny_config()
    records = run_sweep(cfg)
    assert len(records) == 10
    assert all(r.recovered and not r.failed and r.error_count == 0 for r in records)
    rows = summarize(cfg, records)
    assert [r.recovery_rate for r in rows] == [1.0, 1.0]


def test_trial_seeds_follow_the_documented_derivation():
    cfg = tiny_config()
    records = run_sweep(cfg)
    for r in records:
        assert r.seed == rng.derive(cfg.master_seed, r.point, r.trial)


def test_sweep_deterministic_across_runs_and_threads():
    cfg = tiny_config(sigma1_sq=0.3, sigma2_sq=1.2, trials=6)
    a = run_sweep(cfg)
    b = run_sweep(cfg)
    c = run_sweep(cfg, threads=4)
    assert [record_key(r) for r in a] == [record_key(r) for r in b]
    assert [record_key(r) for r in a] == [record_key(r) for r in c]
    with pytest.raises(ValueError):
        run_sweep(cfg, threads=0)


def test_sweep_order_matches_grid_then_trial():
    cfg = tiny_config(trials=3)
    records = run_sweep(cfg)
    expect = [(pt, tr) for pt in range(2) for tr in range(3)]
    assert [(r.point, r.trial) for r in records] == expect
    for r in records:
        n1, n2 = cfg.grid[r.point]
        assert (r.n1, r.n2) == (n1, n2)


def patch_run_one(monkeypatch, broken=None):
    """Stamp each record's wall_ms with the pid that ran it; broken maps a
    (point, trial) to what that trial calls first.

    Forked workers inherit the patch. Three usable CPUs make the worker
    count min(threads, 3, jobs) on any host.
    """
    real = harness._run_one

    def run_one(config, point, trial):
        (broken or {}).get((point, trial), lambda: None)()
        return dataclasses.replace(real(config, point, trial), wall_ms=float(os.getpid()))

    monkeypatch.setattr(rng, "_cpus", lambda: 3)
    monkeypatch.setattr(harness, "_run_one", run_one)


def raise_in_child():
    raise RuntimeError(f"trial broke in {os.getpid()}")


def test_jobs_are_dealt_round_robin_and_come_back_in_order(monkeypatch):
    cfg = tiny_config()  # 10 jobs over 3 workers: parts of 4, 3 and 3
    serial = run_sweep(cfg)
    patch_run_one(monkeypatch)
    records = run_sweep(cfg, threads=3)
    assert [record_key(r) for r in records] == [record_key(r) for r in serial]
    pids = [{r.wall_ms for r in records[w::3]} for w in range(3)]
    assert pids[0] == {float(os.getpid())}
    assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == 3
    assert multiprocessing.active_children() == []


def test_a_trial_error_in_a_child_is_raised_by_the_caller(monkeypatch):
    patch_run_one(monkeypatch, {(0, 1): raise_in_child})  # job 1: the child's part
    with pytest.raises(RuntimeError, match="trial broke in") as info:
        run_sweep(tiny_config(), threads=2)
    assert str(os.getpid()) not in str(info.value)
    assert multiprocessing.active_children() == []


def test_an_error_ends_the_other_children(monkeypatch):
    # job 1 raises in the first child while the second sleeps in job 2
    patch_run_one(monkeypatch, {(0, 1): raise_in_child, (0, 2): lambda: time.sleep(60)})
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="trial broke in"):
        run_sweep(tiny_config(), threads=3)
    assert time.monotonic() - start < 30
    assert multiprocessing.active_children() == []


def test_a_child_that_dies_is_raised_by_the_caller(monkeypatch):
    patch_run_one(monkeypatch, {(0, 1): lambda: os._exit(3)})
    with pytest.raises(RuntimeError, match="exited with code 3"):
        run_sweep(tiny_config(), threads=2)
    assert multiprocessing.active_children() == []


def test_one_job_runs_in_the_caller_without_forking(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    patch_run_one(monkeypatch)
    monkeypatch.setattr(os, "fork", no_fork)
    (record,) = run_sweep(tiny_config(grid=[(3, 3)], trials=1), threads=8)
    assert record.wall_ms == float(os.getpid()) and record.recovered


def test_per_trial_failures_are_recorded_not_raised():
    cfg = ExperimentConfig(
        decoder="InformedMLE", p=8, s=2, rho=1.0, sigma1_sq=0.0, sigma2_sq=1.0,
        grid=[(3, 3)], trials=3, master_seed=1,
    )
    records = run_sweep(cfg)
    assert all(r.failed and not r.recovered for r in records)
    assert all(r.error_count == 2 * cfg.s for r in records)
    rows = summarize(cfg, records)
    assert rows[0].recovery_rate == 0.0


def test_informed_trials_with_an_overflowing_weight_fail():
    # 1 / 1e-320 is inf: every informed loss would be inf and the scan would
    # return the lexicographically first support, here the truth
    cfg = ExperimentConfig(
        decoder="InformedMLE", p=12, s=3, rho=1.0, sigma1_sq=1e-320, sigma2_sq=1.0,
        grid=[(6, 6), (20, 20)], trials=10, master_seed=1,
    )
    records = run_sweep(cfg)
    assert all(r.failed and not r.recovered for r in records)
    assert [row.recovered for row in summarize(cfg, records)] == [0, 0]


def test_summarize_counts_and_annotations():
    cfg = tiny_config(decoder="LocalSearch", sigma1_sq=0.4, sigma2_sq=1.5,
                      p=200, s=5, grid=[(15, 15)], trials=10, restarts=2)
    records = run_sweep(cfg)
    rows = summarize(cfg, records)
    assert len(rows) == 1
    row = rows[0]
    assert row.trials == 10
    assert row.recovered == sum(r.recovered for r in records)
    assert row.recovery_rate == row.recovered / 10.0
    assert math.isclose(row.mean_error, np.mean([r.error_count for r in records]))
    assert math.isclose(row.ci95, wilson_ci95(row.recovered, 10), rel_tol=1e-12)
    # threshold annotations: 2 s ln(p/s), 2 s ln(p/s)/ln s, 2 s ln(p-s)+s+1
    assert math.isclose(row.n_star, 10.0 * math.log(40.0), rel_tol=1e-12)
    assert math.isclose(row.n_inf, row.n_star / math.log(5.0), rel_tol=1e-12)
    assert math.isclose(row.n_alg, 58.72999558563747, rel_tol=1e-12)


def test_summarize_marks_undefined_information_threshold():
    cfg = tiny_config(p=8, s=1, grid=[(4, 4)], trials=2)
    records = run_sweep(cfg)
    row = summarize(cfg, records)[0]
    assert math.isnan(row.n_inf)
    assert math.isfinite(row.n_star)


def test_summarize_validates_record_counts():
    cfg = tiny_config(trials=5)
    records = run_sweep(cfg)
    with pytest.raises(ValueError):
        summarize(cfg, records[:-1])


def test_emit_outputs_exact_format(tmp_path):
    cfg = tiny_config(sigma1_sq=0.2, sigma2_sq=0.8, trials=4)
    records = run_sweep(cfg)
    rows = summarize(cfg, records)
    out = str(tmp_path / "run")
    manifest = emit_outputs(rows, records, out)
    names = [os.path.basename(f) for f in manifest]
    assert names == ["summary.csv", "trials.csv"]
    with open(os.path.join(out, "summary.csv"), "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    assert "\r" not in text
    lines = text.strip().split("\n")
    assert lines[0] == "n1,n2,n,trials,recovered,recovery_rate,ci95,mean_error,n_star,n_inf,n_alg"
    assert len(lines) == 1 + len(rows)
    with open(os.path.join(out, "trials.csv"), "r", encoding="utf-8") as fh:
        tlines = fh.read().strip().split("\n")
    assert tlines[0] == "n1,n2,trial,seed,recovered,error_count,wall_ms,failed"
    assert len(tlines) == 1 + len(records)
    # booleans are serialized as 0/1 flags
    first = tlines[1].split(",")
    assert first[4] in ("0", "1") and first[7] in ("0", "1")
    # re-emission of the summary is byte identical
    out2 = str(tmp_path / "again")
    emit_outputs(rows, records, out2)
    with open(os.path.join(out2, "summary.csv"), "rb") as fh:
        assert fh.read() == data


def test_emit_outputs_optional_svg(tmp_path):
    cfg = tiny_config(trials=3)
    records = run_sweep(cfg)
    rows = summarize(cfg, records)
    out = str(tmp_path / "plot")
    manifest = emit_outputs(rows, records, out, formats=("csv", "svg"))
    names = {os.path.basename(f) for f in manifest}
    assert names == {"summary.csv", "trials.csv", "phase.svg"}
    tree = ET.parse(os.path.join(out, "phase.svg"))
    assert tree.getroot().tag.endswith("svg")
    with pytest.raises(ValueError):
        emit_outputs(rows, records, out, formats=("csv", "pdf"))


def test_emit_outputs_into_an_existing_directory_matches_a_fresh_emit(tmp_path):
    out = str(tmp_path / "run")
    big = tiny_config(sigma1_sq=0.2, sigma2_sq=0.8, trials=6)
    big_records = run_sweep(big)
    emit_outputs(summarize(big, big_records), big_records, out, formats=("csv", "svg"))
    small = tiny_config(sigma1_sq=0.2, sigma2_sq=0.8, trials=2)
    records = run_sweep(small)
    rows = summarize(small, records)
    emit_outputs(rows, records, out, formats=("csv", "svg"))
    fresh = str(tmp_path / "fresh")
    emit_outputs(rows, records, fresh, formats=("csv", "svg"))
    for name in ("summary.csv", "trials.csv", "phase.svg"):
        with open(os.path.join(out, name), "rb") as fh:
            reused = fh.read()
        with open(os.path.join(fresh, name), "rb") as fh:
            assert fh.read() == reused


def test_lasso_sweep_rate_increases_with_sample_size():
    cfg = ExperimentConfig(
        decoder="Lasso", p=64, s=4, rho=1.0, sigma1_sq=0.1, sigma2_sq=0.4,
        grid=[(5, 5), (15, 15), (30, 30), (55, 55)], trials=25, master_seed=3,
    )
    records = run_sweep(cfg, threads=4)
    rows = summarize(cfg, records)
    rates = [r.recovery_rate for r in rows]
    fit = pava_fit(rates)
    resid = max(abs(a - b) for a, b in zip(rates, fit))
    assert resid < 0.15
    assert rates[-1] > rates[0]
    assert rates[-1] >= 0.8


def test_lasso_sweep_fixed_penalty_and_threads_agree():
    cfg = ExperimentConfig(
        decoder="Lasso", p=32, s=2, rho=1.0, sigma1_sq=0.2, sigma2_sq=0.5,
        grid=[(20, 20)], trials=8, lambda_value=0.15,
        master_seed=11,
    )
    a = run_sweep(cfg, threads=1)
    b = run_sweep(cfg, threads=8)
    assert [record_key(r) for r in a] == [record_key(r) for r in b]


def test_local_search_sweep_runs_and_aggregates():
    cfg = ExperimentConfig(
        decoder="LocalSearch", p=24, s=3, rho=1.0, sigma1_sq=0.1, sigma2_sq=0.3,
        grid=[(25, 25)], trials=6, master_seed=5, restarts=4,
    )
    records = run_sweep(cfg)
    assert len(records) == 6
    assert not any(r.failed for r in records)
    rows = summarize(cfg, records)
    assert rows[0].trials == 6
