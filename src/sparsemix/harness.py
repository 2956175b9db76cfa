"""Monte Carlo phase-transition experiments over (n1, n2) grids.

Every trial is a pure function of (config, grid point index, trial
index): its seed is derive(master_seed, point, trial), so reruns produce
identical records apart from wall-clock times, which never enter
summary.csv.
"""

from __future__ import annotations

import enum
import math
import operator
import os
import time
from dataclasses import dataclass, fields

from . import decoders, lasso, planner, rng
from .errors import InvalidConfigError, ResourceCapError, SparsemixError
from .model import (
    MAX_DESIGN_ENTRIES,
    NoiseProfile,
    Setting,
    SparseSignal,
    fmt_float,
    generate_dataset,
    sign_mismatches,
    support_error,
    write_lines,
)

__all__ = [
    "DecoderKind",
    "ExperimentConfig",
    "TrialRecord",
    "SummaryRow",
    "wilson_ci95",
    "run_sweep",
    "summarize",
    "emit_outputs",
]

_SIGN_STREAM = 3
_SEARCH_STREAM = 4
_WILSON_Z = 1.959963984540054  # 97.5% normal quantile


class DecoderKind(str, enum.Enum):
    AGNOSTIC_SCAN = "AgnosticScan"
    INFORMED_MLE = "InformedMLE"
    LASSO = "Lasso"
    LOCAL_SEARCH = "LocalSearch"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep, and nothing else.

    grid lists integer (n1, n2) sample splits. For the Lasso decoder the
    signal gets magnitude rho with per-trial random signs and lambda follows
    lambda_rule ("schedule" or "fixed" with lambda_value); combinatorial
    decoders use the all-ones signal and judge recovery by the delta
    budget (symmetric difference below 2*delta*s). A config that would
    fail every trial is refused here: ResourceCapError when a scan
    decoder meets more than decoders.EXHAUSTIVE_CAP candidates or a grid
    point needs more than model.MAX_DESIGN_ENTRIES design entries, and
    InvalidConfigError when lasso.lambda_schedule refuses a grid point
    (p - s < 2, or zero average noise variance).
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
    lambda_rule: str = "schedule"
    lambda_value: float | None = None
    master_seed: int = 0
    restarts: int = 8

    def __post_init__(self) -> None:
        try:
            grid = tuple((operator.index(a), operator.index(b)) for a, b in self.grid)
        except TypeError:
            raise ValueError(f"grid entries must be integers: {self.grid!r}") from None
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "decoder", DecoderKind(self.decoder))
        planner.RegimeSpec(growth=planner.Growth.SUBLINEAR, p=self.p, s=self.s)
        if not (math.isfinite(self.rho) and self.rho > 0.0):
            raise ValueError("rho must be positive")
        if not self.grid:
            raise ValueError("grid must be nonempty")
        noises = [
            NoiseProfile(n1, n2, sigma1_sq=self.sigma1_sq, sigma2_sq=self.sigma2_sq)
            for n1, n2 in grid
        ]
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.lambda_rule not in ("schedule", "fixed"):
            raise ValueError("lambda_rule must be 'schedule' or 'fixed'")
        if self.lambda_rule == "fixed":
            if self.lambda_value is None or not (
                math.isfinite(self.lambda_value) and self.lambda_value >= 0.0
            ):
                raise ValueError("fixed lambda_rule needs a nonnegative lambda_value")
        elif self.lambda_value is not None:
            raise ValueError("lambda_value only applies to the fixed rule")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.decoder in (DecoderKind.AGNOSTIC_SCAN, DecoderKind.INFORMED_MLE):
            if math.comb(self.p, self.s) > decoders.EXHAUSTIVE_CAP:
                raise ResourceCapError(
                    "candidate count exceeds the exhaustive cap, "
                    "choose the LocalSearch decoder for this size"
                )
        for noise in noises:
            point = (noise.n1, noise.n2)
            if noise.n * self.p > MAX_DESIGN_ENTRIES:
                raise ResourceCapError(
                    f"grid point {point} needs {noise.n * self.p} design "
                    f"entries, above the cap of {MAX_DESIGN_ENTRIES}"
                )
            if self.decoder is DecoderKind.LASSO:
                try:
                    _lasso_penalty(self, noise)
                except ValueError as exc:
                    raise InvalidConfigError(
                        f"grid point {point}: {exc}; choose lambda_rule 'fixed'"
                    ) from exc


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


def wilson_ci95(successes: int, trials: int) -> float:
    """Half-width of the Wilson 95% score interval for a binomial rate."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
        / denom
    )
    return half


def _trial_signal(config: ExperimentConfig, trial_seed: int) -> SparseSignal:
    support = tuple(range(config.s))
    if config.decoder is DecoderKind.LASSO:
        u = rng.uniforms(rng.derive(trial_seed, _SIGN_STREAM), config.s)
        values = tuple(config.rho if x >= 0.5 else -config.rho for x in u)
    else:
        values = (1.0,) * config.s
    return SparseSignal(p=config.p, support=support, values=values)


def _lasso_penalty(config: ExperimentConfig, noise: NoiseProfile) -> float:
    if config.lambda_rule == "fixed":
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
                    seed=rng.derive(trial_seed, _SEARCH_STREAM),
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


def run_sweep(config: ExperimentConfig, threads: int = 1) -> list[TrialRecord]:
    """Run every (grid point, trial) serially in grid-then-trial order.

    Each trial is seeded by derive(master_seed, point, trial), so records
    are deterministic up to wall_ms. Solver failures mark the trial failed
    rather than aborting the sweep. threads must be >= 1 but selects
    nothing: every trial runs in the calling thread.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    return [
        _run_one(config, point, trial)
        for point in range(len(config.grid))
        for trial in range(config.trials)
    ]


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
    for f in formats:
        if f not in ("csv", "svg"):
            raise ValueError(f"unknown output format: {f!r}")
    os.makedirs(out_dir, exist_ok=True)
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
