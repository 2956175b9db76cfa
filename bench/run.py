"""Benchmark for sparsemix: one workload per run, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload lasso-phase --seed 3 --seconds 20 --trace 0

The package is imported from ./src of the checkout, never from an
installed copy. With --trace 0 the run measures set-up time (fresh
interpreters that import the package and build the workload's inputs),
runs the fixed-seed reference round and compares its outputs with
bench/expected.json, then runs seeded rounds for --seconds and reports
throughput and memory. Times are scaled to reference host speed by a fixed
kernel timed between rounds (reference.py). With --trace 1 it reports per-layer metrics
instead: an untraced pass at the workload's own parallelism for
--seconds/2, then the same fixed number of serial rounds untraced and
traced. The second-to-last stdout line is a JSON detail record (machine
facts, failures, check messages); the last line is the result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from reference import REFERENCE_S, kernel_seconds

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
SETUP_KERNEL_PASSES = 3  # reference kernel passes before and after each interpreter
TRIAL_TAIL = 90  # percentile; needs at least 100 trials for 10 samples beyond it


class BenchError(Exception):
    """The benchmark cannot run against this checkout."""


def import_program():
    """Import sparsemix from the checkout's src directory, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sparsemix
    except ImportError as exc:
        raise BenchError(f"cannot import sparsemix from {src}: {exc}") from exc
    if Path(sparsemix.__file__).resolve().parent != src / "sparsemix":
        raise BenchError(f"sparsemix was imported from {sparsemix.__file__}, not {src}")
    return sparsemix


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sparsemix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time of fresh interpreters that import and build inputs.

    Returns (scaled, raw) seconds. The raw median is scaled to reference
    host speed by the median of the reference kernel passes run before,
    between and after the interpreters.
    """
    raw = []
    kernel_seconds()  # warm-up: the first pass in a process pays for page faults
    kernel = [kernel_seconds() for _ in range(SETUP_KERNEL_PASSES)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        raw.append(time.perf_counter() - start)
        kernel += [kernel_seconds() for _ in range(SETUP_KERNEL_PASSES)]
    raw_s = statistics.median(raw)
    return raw_s * REFERENCE_S / statistics.median(kernel), raw_s


def timed_round(workload, r: int, threads: int, out_dir: str):
    start = time.perf_counter()
    cpu = time.process_time()
    rnd = workload.run_round(r, threads, out_dir)
    rnd.cpu_seconds = time.process_time() - cpu
    rnd.seconds = time.perf_counter() - start
    return rnd


def run_rounds(workload, threads: int, out_dir: str, seconds: float):
    """Closed loop: run rounds back to back until `seconds` have passed.

    The reference kernel runs before the first round and after each one;
    a round's ref_seconds is the mean of the two passes around it.
    """
    rounds = []
    start = time.perf_counter()
    before = kernel_seconds()
    while not rounds or time.perf_counter() - start < seconds:
        rnd = timed_round(workload, len(rounds), threads, out_dir)
        after = kernel_seconds()
        rnd.ref_seconds = (before + after) / 2
        rounds.append(rnd)
        before = after
    return rounds, time.perf_counter() - start


def items_per_s(rounds, scaled: bool = True) -> float:
    """Median over rounds of completed items per second.

    Scaled, each round's time is first converted to reference host speed:
    multiplied by REFERENCE_S over the round's reference kernel time.
    """
    return statistics.median(
        (r.attempted - r.failed) / r.seconds * (r.ref_seconds / REFERENCE_S if scaled else 1.0)
        for r in rounds
    )


def reference_check(cls, threads: int, out_dir: str) -> list[str]:
    """Run round 0 at the default seed and compare its outputs with the frozen digests."""
    from workloads import DEFAULT_SEED

    with open(Path(__file__).with_name("expected.json")) as fh:
        expected = json.load(fh)[cls.name]
    ref = cls(DEFAULT_SEED)
    rnd = ref.run_round(0, threads, out_dir)
    got = ref.digest(rnd, out_dir)
    problems = [
        f"reference {cls.name}/{key}: output digest {got.get(key)} != frozen {want}"
        for key, want in expected.items()
        if got.get(key) != want
    ]
    return problems + ref.check([rnd])


def end_to_end(cls, seed: int, seconds: float, out_dir: str, detail: dict):
    setup_s, raw_setup_s = measure_setup(cls.name, seed)
    threads = detail["machine"]["nproc"] if cls.parallel else 1
    detail["checks"] = reference_check(cls, threads, out_dir)
    workload = cls(seed)
    rounds, elapsed = run_rounds(workload, threads, out_dir, seconds)
    detail["checks"] += workload.check(rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    detail.update(
        rounds=len(rounds), elapsed_s=elapsed, threads=threads,
        raw_items_per_s=items_per_s(rounds, scaled=False), raw_setup_s=raw_setup_s,
        reference_kernel_s=statistics.median(r.ref_seconds for r in rounds),
        reference_s=REFERENCE_S,
    )
    metrics = {
        "items_per_s": items_per_s(rounds),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return attempted, failed, metrics


def traced(cls, seed: int, seconds: float, out_dir: str, detail: dict):
    from tracing import Tracer, check_counts, layer_metrics

    threads = detail["machine"]["nproc"] if cls.parallel else 1
    detail["checks"] = reference_check(cls, threads, out_dir)
    workload = cls(seed)

    rounds, _ = run_rounds(workload, threads, out_dir, seconds / 2)
    cpu_util = sum(r.cpu_seconds for r in rounds) / (
        sum(r.seconds for r in rounds) * detail["machine"]["nproc"]
    )
    detail["checks"] += workload.check(rounds)
    trial_ms = [
        rec.wall_ms for rnd in rounds for _, records in rnd.records.values() for rec in records
    ]

    # Untraced and traced runs of the same serial rounds alternate, so
    # drift in machine speed falls on both sides of trace.overhead_frac.
    tracer = Tracer()
    plain, spanned = [], []
    for r in range(cls.trace_rounds):
        plain.append(timed_round(workload, r, 1, out_dir))
        with tracer:
            spanned.append(timed_round(workload, r, 1, out_dir))
    expected = sum((rnd.expected for rnd in spanned), Counter())
    problems = check_counts(tracer.spans, expected)
    if problems:
        raise BenchError("span counts disagree with the workload: " + "; ".join(problems))

    every = rounds + plain + spanned
    attempted = sum(rnd.attempted for rnd in every)
    failed = sum(rnd.failed for rnd in every)
    layer = layer_metrics(tracer.spans)
    layer.update(
        {
            "harness.trial_ms_p50": float(np.percentile(trial_ms, 50)) if trial_ms else 0.0,
            "harness.trial_ms_tail": float(np.percentile(trial_ms, TRIAL_TAIL)) if trial_ms else 0.0,
            "harness.cpu_util": cpu_util,
            "trace.overhead_frac": 1.0
            - sum(rnd.seconds for rnd in plain) / sum(rnd.seconds for rnd in spanned),
        }
    )
    detail.update(
        spans=len(tracer.spans), trace_rounds=cls.trace_rounds, trial_samples=len(trial_ms),
        trial_tail_percentile=TRIAL_TAIL, threads=threads,
    )
    return attempted, failed, layer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]
    if args.setup_only:
        cls(args.seed)
        return 0

    detail = {"workload": cls.name, "seed": args.seed, "trace": args.trace,
              "machine": machine_facts()}
    out_dir = ROOT / ".bench_out" / f"run-{os.getpid()}"
    try:
        measure = traced if args.trace else end_to_end
        attempted, failed, metrics = measure(cls, args.seed, args.seconds, str(out_dir), detail)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    detail["failed_frac"] = failed / attempted
    detail["output_mismatches"] = len(detail["checks"])
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    detail["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not detail["checks"],
        "attempted": attempted,
        "failed": failed,
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
