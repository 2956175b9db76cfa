"""The verdict and the two-thread scaling probe that scripts/bench_pairs.py
writes for each summary row."""

import importlib.util
import os
import time

import pytest

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scripts",
                    "bench_pairs.py")
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

DECLARED = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "items_per_s", "better": "higher", "bound": 0.25},
                   {"name": "setup_s", "better": "lower", "bound": 0.25}],
}


def pairs(items, setup, raw=None):
    """Ten pairs from (parent, change) values of each metric; raw_items_per_s
    follows items_per_s unless given."""
    raw = raw or items
    out = []
    for k in range(10):
        pair = {"workload": "w"}
        for i, side in enumerate(("parent", "change")):
            pair[side] = {
                "result": {"metrics": {"items_per_s": {"value": items[i][k]},
                                       "setup_s": {"value": setup[i][k]}}},
                "detail": {"raw_items_per_s": raw[i][k], "reference_kernel_s": 1.0},
            }
        out.append(pair)
    return out


def spread(center, width):
    return [center + width * (k - 4.5) / 4.5 for k in range(10)]


STEADY = (spread(100.0, 1.0), spread(100.0, 1.0))


@pytest.mark.parametrize("items, setup, raw, want", [
    # 10/10 pairs, a median gap past the parent's IQR: a gain, and the same
    # for a lower-is-better metric
    ((spread(100.0, 1.0), spread(110.0, 1.0)), (spread(1.0, 0.01), spread(0.9, 0.01)),
     None, ("gain", "gain")),
    # the scaled rate gains but the raw rate does not follow
    ((spread(100.0, 1.0), spread(110.0, 1.0)), (spread(1.0, 0.01), spread(1.0, 0.01)),
     STEADY, ("within bound", "within bound")),
    # past the bound on the worse side
    ((spread(100.0, 1.0), spread(70.0, 1.0)), (spread(1.0, 0.01), spread(1.3, 0.01)),
     None, ("regression", "regression")),
    # the parent alone spreads wider than the bound, and the sides overlap
    ((spread(100.0, 60.0), spread(105.0, 60.0)), (spread(1.0, 0.6), spread(0.95, 0.6)),
     None, ("unresolved", "unresolved")),
    # as wide, but every change run beats every parent run
    ((spread(100.0, 60.0), spread(300.0, 60.0)), (spread(2.0, 0.6), spread(0.5, 0.1)),
     None, ("gain", "gain")),
])
def test_each_summary_row_carries_its_verdict(items, setup, raw, want):
    rows = bench_pairs.summarize(pairs(items, setup, raw), DECLARED)
    assert [(r["metric"], r["verdict"]) for r in rows] == list(
        zip(("items_per_s", "setup_s"), want))


def test_the_scaling_probe_tells_overlapping_work_from_serialized_work():
    # sleeps overlap on two threads whatever the cores; a pure-Python loop
    # holds the interpreter lock, so its two threads take turns
    def spin():
        total = 0
        for i in range(200_000):
            total += i

    sleeps = bench_pairs.two_thread_scaling(lambda: time.sleep(0.05), repeats=3)
    spins = bench_pairs.two_thread_scaling(spin, repeats=3)
    assert sleeps["scaling"] > 1.5
    assert spins["scaling"] < 1.5
    for probe in (sleeps, spins):
        assert probe["scaling"] == probe["one_thread_s"] / probe["two_threads_s"]
    # the items_per_s row carries the median of the pairs' probes
    with_probes = pairs(STEADY, (spread(1.0, 0.01), spread(1.0, 0.01)))
    for k, pair in enumerate(with_probes):
        pair["two_thread_scaling"] = {"scaling": 1.0 + k / 10}
    rows = bench_pairs.summarize(with_probes, DECLARED)
    assert rows[0]["two_thread_scaling_median"] == 1.45
    assert "two_thread_scaling_median" not in bench_pairs.summarize(
        pairs(STEADY, STEADY), DECLARED)[0]
