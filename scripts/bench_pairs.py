"""Run alternating parent/change pairs of bench/run.py and write BENCH_<n>.json.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --out BENCH_23.json

Both directories are checkouts holding src/, bench/ and BENCHMARK.json;
each run executes `bench/run.py` inside its checkout, so this script only
invokes the benchmark and never imports it. Pair k runs every workload
of the change's BENCHMARK.json at seed k for its `run_seconds`, parent
first when k is odd, for k = 1..10. Before pair 1 both checkouts' src/
is byte-compiled, so that no run of either side compiles it from source. Pair 1 also runs each side once with
--trace 1, in the same order, for the per-layer metrics; those lines go
under `traced`. Every run's two stdout lines (detail, result) are kept as
printed, and the summary reads the untraced pairs alone. The
summary gives, per workload and end-to-end metric, the median and the
inclusive quartiles of each side, the pairs the change won, and whether
the gap of the medians exceeds the parent's interquartile range; the
items_per_s rows also carry the medians of the unscaled raw_items_per_s,
the median per-pair change/parent ratio of raw_items_per_s with the pairs
the change won on it, the median per-pair change/parent ratio of
reference_kernel_s, the time that scales every round, and the median of
the pairs' two-thread scaling probes. Each row ends in a verdict (see
`verdict`). Before its runs, each pair times the probe (see
`two_thread_scaling`), which shows whether a second core delivered while
that pair ran.
The file is written in any case; the exit code is 1 when a run, traced
or not, failed or was not `correct`, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

PAIRS = 10
PROBE = np.linspace(0.0, 100.0, 1 << 20)  # the probe's fixed np.cos input, 8 MB


def simd_found() -> list[str]:
    """The SIMD extensions numpy dispatches to here, as np.show_runtime()
    lists them under simd_extensions.found."""
    try:  # numpy >= 2
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [name for name in __cpu_dispatch__ if __cpu_features__[name]]


def cos_probe() -> None:
    np.cos(PROBE)


def two_thread_scaling(work=cos_probe, repeats: int = 5) -> dict:
    """The median of `repeats` timings of work() run twice on one thread, and
    once on each of two threads at the same time; scaling, their ratio,
    reads 2 where a second core delivered in full and 1 where none did."""
    def two() -> None:
        other = threading.Thread(target=work)
        other.start()
        work()
        other.join()

    def median_s(run) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    one_s, two_s = median_s(lambda: (work(), work())), median_s(two)
    return {"one_thread_s": one_s, "two_threads_s": two_s, "scaling": one_s / two_s}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One bench/run.py run: its detail and result lines, or its failure."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "stderr": proc.stderr[-2000:]}
    return {"result": json.loads(lines[-1]), "detail": json.loads(lines[-2])}


def compile_sources(checkout: Path) -> None:
    """Byte-compile the checkout's src/ with this interpreter, which runs it."""
    argv = [sys.executable, "-m", "compileall", "-q", str(checkout / "src")]
    subprocess.run(argv, check=True, capture_output=True)


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, parent: list[float], change: list[float]) -> str:
    """What a summary row shows, from its runs on each side.

    - regression: the change median is worse than the parent's by more
      than the metric's bound, a fraction of the parent median;
    - gain: the change won at least 9 of 10 pairs and its median is better
      by more than the parent's interquartile range; an items_per_s row
      must also have won 9 of 10 pairs on raw_items_per_s, with a median
      raw ratio above 1;
    - unresolved: the parent's interquartile range exceeds the bound, and
      not every change run beats every parent run;
    - within bound: any other row.
    """
    sign = 1.0 if row["better"] == "higher" else -1.0
    median, most = row["parent"]["median"], 0.9 * row["pairs"]
    gap = sign * (row["change"]["median"] - median)
    if gap < -row["bound"] * median:
        return "regression"
    won = row["change_won"] >= most and gap > 0 and row["median_gap_exceeds_parent_iqr"]
    if "raw_change_won" in row:
        won = won and row["raw_change_won"] >= most and row["raw_ratio_median"] > 1.0
    if won:
        return "gain"
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    if iqr > row["bound"] * median and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], declared: dict) -> list[dict]:
    rows = []
    for workload in declared["workloads"]:
        done = [p for p in pairs if p["workload"] == workload["name"]
                and all("result" in p[side] for side in ("parent", "change"))]
        if len(done) < 2:
            continue
        for metric in declared["end_to_end"]:
            name, higher = metric["name"], metric["better"] == "higher"
            value = {side: [p[side]["result"]["metrics"][name]["value"] for p in done]
                     for side in ("parent", "change")}
            parent, change = quartiles(value["parent"]), quartiles(value["change"])
            row = {
                "workload": workload["name"],
                "metric": name,
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "delta_median_frac": change["median"] / parent["median"] - 1.0,
                "change_won": sum((c > p) if higher else (c < p)
                                  for p, c in zip(value["parent"], value["change"])),
                "pairs": len(done),
                "median_gap_exceeds_parent_iqr":
                    abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
            }
            if name == "items_per_s":
                raw, kernel = ({side: [p[side]["detail"][key] for p in done]
                                for side in ("parent", "change")}
                               for key in ("raw_items_per_s", "reference_kernel_s"))
                row["raw_items_per_s"] = {side: statistics.median(v) for side, v in raw.items()}
                row["raw_ratio_median"] = statistics.median(
                    c / p for p, c in zip(raw["parent"], raw["change"]))
                row["raw_change_won"] = sum(c > p for p, c in zip(raw["parent"], raw["change"]))
                row["kernel_ratio_median"] = statistics.median(
                    c / p for p, c in zip(kernel["parent"], kernel["change"]))
                if all("two_thread_scaling" in p for p in done):
                    row["two_thread_scaling_median"] = statistics.median(
                        p["two_thread_scaling"]["scaling"] for p in done)
            row["verdict"] = verdict(row, value["parent"], value["change"])
            rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="change checkout")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--note", default="", help="appended to the description")
    args = ap.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, simd = declared["run_seconds"], simd_found()
    pairs, traced, ok = [], [], True
    for checkout in (args.parent, args.change):
        compile_sources(checkout)
    for workload in (w["name"] for w in declared["workloads"]):
        for k in range(1, PAIRS + 1):
            order = ["parent", "change"] if k % 2 else ["change", "parent"]
            pair = {"workload": workload, "pair": k, "seed": k, "order": order}
            head = dict(pair)
            pair["two_thread_scaling"] = two_thread_scaling()
            for trace in (0, 1) if k == 1 else (0,):
                for side in order:
                    run = run_once(getattr(args, side), workload, k, seconds, trace)
                    if trace:
                        traced.append({**head, "side": side, **run})
                    else:
                        pair[side] = run
                    correct = run.get("result", {}).get("correct") is True
                    ok &= correct
                    print(f"{workload} pair {k} {side} trace {trace}: "
                          f"{run['result']['metrics'] if correct else run}", file=sys.stderr)
            pairs.append(pair)

    machine = next((p["change"]["detail"]["machine"] for p in pairs
                    if "detail" in p["change"]), {})
    report = {
        "description": (
            "Alternating parent/change pairs of bench/run.py on the BENCHMARK.json "
            "workloads, written by scripts/bench_pairs.py. Odd pairs run the parent "
            "first. Every run's two stdout lines (detail, result) are kept as printed; "
            "the summary is computed from their metrics (median and inclusive "
            "quartiles). Pair 1 of each workload also ran each side once with --trace 1, "
            "in that pair's order; those lines are under traced. Before pair 1 "
            "both checkouts' src/ was byte-compiled (python -m compileall), so no run "
            "compiled the package from source. Before its runs each pair timed a fixed "
            "np.cos workload twice on one thread and once on each of two threads "
            "(two_thread_scaling: 2 where a second core delivered, 1 where none did). "
            + args.note
        ).strip(),
        "command": "python3 bench/run.py --workload <w> --seed <pair> "
                   f"--seconds {seconds:g} --trace 0",
        "traced_command": f"python3 bench/run.py --workload <w> --seed 1 --seconds {seconds:g} "
                          "--trace 1 (pair 1 of every workload, in that pair's order)",
        "machine": {**machine, "numpy_simd_found": simd},
        "summary": summarize(pairs, declared),
        "pairs": pairs,
        "traced": traced,
    }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
