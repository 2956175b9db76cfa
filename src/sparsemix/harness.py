"""Monte Carlo phase-transition experiments over (n1, n2) grids.

Every trial is a pure function of (config, grid point index, trial
index): its seed is derive(master_seed, point, trial), so reruns produce
identical records apart from wall-clock times, which never enter
summary.csv.
"""

from __future__ import annotations

import enum
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields

from . import decoders, lasso, planner, rng
from .errors import InvalidConfigError, SparsemixError
from .errors import COUNT_MAX, as_index, as_real, index_fields
from .model import (
    NoiseProfile,
    Setting,
    SparseSignal,
    check_design_cap,
    fmt_float,
    generate_dataset,
    sign_mismatches,
    support_error,
    wilson_ci95,
    write_lines,
)

__all__ = [
    "DecoderKind",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "run_sweep",
    "summarize",
    "check_outputs",
    "emit_outputs",
]

# the largest size of a normal the counter stream draws (ExperimentConfig)
_NORMAL_MAX = math.sqrt(108 * math.log(2))


class DecoderKind(str, enum.Enum):
    AGNOSTIC_SCAN = "AgnosticScan"
    INFORMED_MLE = "InformedMLE"
    LASSO = "Lasso"
    LOCAL_SEARCH = "LocalSearch"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep, and nothing else.

    grid lists integer (n1, n2) sample splits. For the Lasso decoder the
    signal gets magnitude rho with per-trial random signs and lambda is
    lambda_value, or lasso.lambda_schedule when that is None; combinatorial
    decoders use the all-ones signal and judge recovery by the delta
    budget (symmetric difference below 2*delta*s). A config that would
    fail every trial is refused here: ResourceCapError where
    decoders.exhaustive_candidates refuses a scan decoder's count or
    model.check_design_cap a grid point's design or the support, and
    InvalidConfigError when the schedule refuses a grid point (p - s < 2,
    zero average noise variance, or a penalty that is not finite) or when
    a Lasso grid point's squared response can overflow. Every normal the
    stream draws is r cos a or r sin a with r = sqrt(-2 ln u) and
    u >= 2**-54, so its size is at most R = sqrt(108 ln 2) ~ 8.652; then
    |Y_i| <= R (s rho + sqrt(sigma2_sq)), as sigma1_sq <= sigma2_sq, and
    ||Y||^2 <= n R^2 (s rho + sqrt(sigma2_sq))^2, with lambda_value or
    without. A grid point is refused where twice that bound passes the
    float maximum, the factor 2 covering rounding. The rule is
    conservative: at p = 8, s = 2, n = 8 it refuses rho = 1e153, which
    draws a finite ||Y||^2.
    """

    decoder: DecoderKind
    p: int
    s: int
    rho: float
    sigma1_sq: float
    sigma2_sq: float
    grid: tuple[tuple[int, int], ...]
    trials: int
    delta: float = planner.DEFAULT_DELTA
    lambda_value: float | None = None
    master_seed: int = 0
    restarts: int = 8

    def __post_init__(self) -> None:
        index_fields(self, "p", "s")
        index_fields(self, "master_seed", low=0, high=COUNT_MAX)
        index_fields(self, "trials", "restarts", low=1, high=COUNT_MAX)
        try:
            grid = tuple((as_index(a, "n1"), as_index(b, "n2")) for a, b in self.grid)
        except ValueError:
            raise ValueError(f"grid entries must be integers: {self.grid!r}") from None
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "decoder", DecoderKind(self.decoder))
        planner.RegimeSpec(growth=planner.Growth.SUBLINEAR, p=self.p, s=self.s)
        as_real(self.rho, "rho", positive=True)
        if not self.grid:
            raise ValueError("grid must be nonempty")
        noises = [
            NoiseProfile(n1, n2, sigma1_sq=self.sigma1_sq, sigma2_sq=self.sigma2_sq)
            for n1, n2 in grid
        ]
        planner.validate_delta(self.delta)
        if self.lambda_value is not None:
            as_real(self.lambda_value, "lambda_value")
        if self.decoder in (DecoderKind.AGNOSTIC_SCAN, DecoderKind.INFORMED_MLE):
            decoders.exhaustive_candidates(self.p, self.s)
        for noise in noises:
            check_design_cap(noise.n, self.p, self.s)
            if self.decoder is DecoderKind.LASSO:
                try:
                    _lasso_penalty(self, noise)
                except ValueError as exc:
                    raise InvalidConfigError(
                        f"grid point {(noise.n1, noise.n2)}: {exc}; set lambda_value"
                    ) from exc
                y_max = _NORMAL_MAX * (self.s * float(self.rho) + math.sqrt(self.sigma2_sq))
                if y_max > math.sqrt(sys.float_info.max / (2 * noise.n)):
                    raise InvalidConfigError(
                        f"grid point {(noise.n1, noise.n2)}: the squared response can "
                        "overflow, n R^2 (s rho + sqrt(sigma2_sq))^2 > float max / 2; "
                        "lower rho or sigma2_sq"
                    )


@dataclass(frozen=True)
class TrialRecord:
    """One trial's outcome.

    error_count is on the decoder's own scale: the support symmetric
    difference for the scan decoders (one swapped index counts 2), twice
    model.sign_mismatches for the Lasso (one swapped index counts 4).
    """

    point: int
    n1: int
    n2: int
    trial: int
    seed: int
    recovered: bool
    error_count: int
    wall_ms: float
    failed: bool


@dataclass(frozen=True)
class SummaryRow:
    n1: int
    n2: int
    n: int
    trials: int
    recovered: int
    recovery_rate: float
    ci95: float
    mean_error: float
    n_star: float
    n_inf: float
    n_alg: float


def _trial_signal(config: ExperimentConfig, trial_seed: int) -> SparseSignal:
    support = tuple(range(config.s))
    if config.decoder is DecoderKind.LASSO:
        u = rng.uniforms(rng.derive(trial_seed, rng.SIGN_STREAM), config.s)
        values = tuple(config.rho if x >= 0.5 else -config.rho for x in u)
    else:
        values = (1.0,) * config.s
    return SparseSignal(p=config.p, support=support, values=values)


def _lasso_penalty(config: ExperimentConfig, noise: NoiseProfile) -> float:
    if config.lambda_value is not None:
        return float(config.lambda_value)
    return lasso.lambda_schedule(
        noise.sigma_avg_sq, p=config.p, s=config.s, n=noise.n, rho=config.rho
    )


def _run_one(config: ExperimentConfig, point: int, trial: int) -> TrialRecord:
    n1, n2 = config.grid[point]
    trial_seed = rng.derive(config.master_seed, point, trial)
    noise = NoiseProfile(
        n1=n1, n2=n2, sigma1_sq=config.sigma1_sq, sigma2_sq=config.sigma2_sq
    )
    signal = _trial_signal(config, trial_seed)
    start = time.perf_counter()
    recovered = False
    failed = False
    error_count = 2 * config.s
    try:
        dataset = generate_dataset(signal, noise, trial_seed)
        if config.decoder is DecoderKind.LASSO:
            lam = _lasso_penalty(config, noise)
            sol = lasso.solve_lasso(dataset, lasso.LassoConfig(lam=lam))
            failed = not sol.converged
            mismatches = sign_mismatches(sol.beta, signal)
            error_count = 2 * mismatches
            recovered = sol.converged and mismatches == 0
        else:
            if config.decoder is DecoderKind.AGNOSTIC_SCAN:
                res = decoders.decode_exhaustive(dataset, config.s, Setting.AGNOSTIC)
            elif config.decoder is DecoderKind.INFORMED_MLE:
                res = decoders.decode_exhaustive(dataset, config.s, Setting.INFORMED)
            else:
                res = decoders.decode_local_search(
                    dataset,
                    config.s,
                    Setting.AGNOSTIC,
                    restarts=config.restarts,
                    seed=rng.derive(trial_seed, rng.SEARCH_STREAM),
                )
            error_count = support_error(res.support, signal.support)
            recovered = error_count < 2.0 * config.delta * config.s
    except (SparsemixError, ValueError):
        failed = True
    wall_ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(
        point=point,
        n1=n1,
        n2=n2,
        trial=trial,
        seed=trial_seed,
        recovered=recovered,
        error_count=error_count,
        wall_ms=wall_ms,
        failed=failed,
    )


def _run_part(config: ExperimentConfig, jobs: list[tuple[int, int]]) -> list[TrialRecord]:
    return [_run_one(config, point, trial) for point, trial in jobs]


def _run_child(conn, config: ExperimentConfig, jobs: list[tuple[int, int]]) -> None:
    """A forked worker: send the caller its part's records, or what it raised."""
    try:
        result = _run_part(config, jobs)
    except Exception as exc:
        result = exc
    conn.send(result)
    conn.close()


def _received(child, conn) -> list[TrialRecord]:
    try:
        result = conn.recv()
    except EOFError:  # the child died before it could send
        child.join()
        raise RuntimeError(
            f"sweep worker {child.pid} exited with code {child.exitcode}"
        ) from None
    if isinstance(result, BaseException):
        raise result
    return result


def run_sweep(config: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """Run every (grid point, trial) and return the records in grid-then-trial order.

    Each trial is seeded by derive(master_seed, point, trial), so records
    are deterministic up to wall_ms, whatever the worker count. Solver
    failures mark the trial failed rather than aborting the sweep.

    threads (an integer >= 1) caps the workers: min(threads, usable CPUs,
    jobs). The jobs are dealt round-robin; the caller runs part 0 and
    forked children run the rest, each timing its own trials' wall_ms.
    With one worker, or where the platform cannot fork, the caller runs
    every trial and nothing is forked. Children live only inside the
    call: an exception in a child's trial, or a child's death, is raised
    here after every child has ended.
    """
    as_index(threads, "threads", low=1, high=COUNT_MAX)
    jobs = [(point, trial) for point in range(len(config.grid)) for trial in range(config.trials)]
    workers = min(threads, rng._cpus(), len(jobs)) if hasattr(os, "fork") else 1
    records: list = [None] * len(jobs)
    children = []
    try:
        if workers > 1:
            import multiprocessing

            context = multiprocessing.get_context("fork")
            with warnings.catch_warnings():
                # Python >= 3.12 warns on forking with threads alive. The only
                # ones left here are OpenBLAS's pool, which resets itself at
                # fork; rng's second thread ends with the draw that started it.
                warnings.filterwarnings(
                    "ignore", r"This process .* is multi-threaded", DeprecationWarning
                )
                for w in range(1, workers):
                    conn, child_conn = context.Pipe(duplex=False)
                    child = context.Process(
                        target=_run_child, args=(child_conn, config, jobs[w::workers])
                    )
                    child.start()
                    child_conn.close()
                    children.append((child, conn))
        records[0::workers] = _run_part(config, jobs[0::workers])
        for w, (child, conn) in enumerate(children, start=1):
            records[w::workers] = _received(child, conn)
    except BaseException:
        for child, _ in children:
            child.kill()
        raise
    finally:
        for child, conn in children:
            child.join()
            conn.close()
    return records


def summarize(config: ExperimentConfig, records: list[TrialRecord]) -> list[SummaryRow]:
    """Aggregate trial records per grid point, annotated with thresholds.

    recovery_rate carries a Wilson 95% half-width; the threshold columns
    repeat per row since they depend only on (p, s). The necessity scale
    is NaN when s = 1, where it is undefined.
    """
    regime = planner.RegimeSpec(growth=planner.Growth.SUBLINEAR, p=config.p, s=config.s)
    n_star = planner.recovery_threshold(planner.ThresholdKind.N_STAR, regime)
    n_alg = planner.recovery_threshold(planner.ThresholdKind.N_ALG, regime)
    try:
        n_inf = planner.recovery_threshold(planner.ThresholdKind.N_INF, regime)
    except ValueError:
        n_inf = math.nan
    rows = []
    for point, (n1, n2) in enumerate(config.grid):
        recs = [r for r in records if r.point == point]
        if len(recs) != config.trials:
            raise ValueError(
                f"grid point {point} has {len(recs)} records, expected {config.trials}"
            )
        got = sum(1 for r in recs if r.recovered)
        rows.append(
            SummaryRow(
                n1=n1,
                n2=n2,
                n=n1 + n2,
                trials=config.trials,
                recovered=got,
                recovery_rate=got / config.trials,
                ci95=wilson_ci95(got, config.trials),
                mean_error=math.fsum(r.error_count for r in recs) / config.trials,
                n_star=n_star,
                n_inf=n_inf,
                n_alg=n_alg,
            )
        )
    return rows


def _cell(column: str, value: object) -> str:
    if column == "wall_ms":  # timing, not data: microseconds are enough
        return "%.3f" % value
    if isinstance(value, bool):
        return "1" if value else "0"
    return fmt_float(value) if isinstance(value, float) else str(value)


def _csv_lines(row_type: type, rows: list) -> list[str]:
    # A trial's grid point index is implied by its (n1, n2) columns.
    columns = [f.name for f in fields(row_type) if f.name != "point"]
    return [",".join(columns)] + [
        ",".join(_cell(c, getattr(row, c)) for c in columns) for row in rows
    ]


def _phase_svg(summary: list[SummaryRow]) -> list[str]:
    """Minimal hand-rolled SVG: rate vs n with threshold markers."""
    width, height, pad = 640, 400, 50
    pts = sorted(summary, key=lambda r: (r.n, r.n1))
    ns = [r.n for r in pts]
    lo, hi = min(ns), max(ns)
    marks = [
        ("n_star", pts[0].n_star),
        ("n_inf", pts[0].n_inf),
        ("n_alg", pts[0].n_alg),
    ]
    span = max(hi - lo, 1)

    def sx(n: float) -> float:
        return pad + (n - lo) / span * (width - 2 * pad)

    def sy(rate: float) -> float:
        return height - pad - rate * (height - 2 * pad)

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 12}" text-anchor="middle" '
        'font-size="12">n</text>',
        f'<text x="14" y="{height // 2}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 14 {height // 2})">recovery rate</text>',
    ]
    for label, value in marks:
        if math.isnan(value) or not lo <= value <= hi:
            continue
        x = sx(value)
        lines.append(
            f'<line x1="{x:.2f}" y1="{pad}" x2="{x:.2f}" y2="{height - pad}" '
            'stroke="gray" stroke-dasharray="4 3"/>'
        )
        lines.append(
            f'<text x="{x:.2f}" y="{pad - 6}" text-anchor="middle" font-size="10" '
            f'fill="gray">{label}</text>'
        )
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{sx(r.n):.2f},{sy(r.recovery_rate):.2f}"
        for i, r in enumerate(pts)
    )
    lines.append(f'<path d="{path}" fill="none" stroke="steelblue" stroke-width="2"/>')
    for r in pts:
        lines.append(
            f'<circle cx="{sx(r.n):.2f}" cy="{sy(r.recovery_rate):.2f}" r="3" '
            'fill="steelblue"/>'
        )
    lines.append("</svg>")
    return lines


def check_outputs(out_dir: str, formats: tuple[str, ...]) -> None:
    """Refuse a format emit_outputs does not write, and make out_dir; a sweep
    calls this before its first trial, so neither fault costs a run."""
    for f in formats:
        if f not in ("csv", "svg"):
            raise ValueError(f"unknown output format: {f!r}")
    os.makedirs(out_dir, exist_ok=True)


def emit_outputs(
    summary: list[SummaryRow],
    records: list[TrialRecord],
    out_dir: str,
    formats: tuple[str, ...] = ("csv",),
) -> list[str]:
    """Write summary.csv, trials.csv, and optionally phase.svg.

    CSV files are UTF-8 with Unix newlines; floats carry 17 significant
    digits so emission is byte-stable given equal inputs. Returns the
    list of paths written.
    """
    check_outputs(out_dir, formats)
    outputs = {}
    if "csv" in formats:
        outputs["summary.csv"] = _csv_lines(SummaryRow, summary)
        outputs["trials.csv"] = _csv_lines(TrialRecord, records)
    if "svg" in formats:
        outputs["phase.svg"] = _phase_svg(summary)
    manifest = []
    for name, lines in outputs.items():
        path = os.path.join(out_dir, name)
        write_lines(path, lines)
        manifest.append(path)
    return manifest
