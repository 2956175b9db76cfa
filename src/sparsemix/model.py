"""Observation model: sparse signal, two-block Gaussian noise, datasets.

Rows are ordered with the low-variance block first: rows 0..n1-1 carry
noise variance sigma1_sq and rows n1..n1+n2-1 carry sigma2_sq, with
sigma1_sq <= sigma2_sq. Column indices are 0-based everywhere, including
the on-disk dataset format.
"""

from __future__ import annotations

import enum
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from . import rng
from .errors import DataError, ResourceCapError
from .errors import COUNT_MAX, as_index, as_real, index_fields, support_indices

__all__ = [
    "Regime",
    "Setting",
    "SparseSignal",
    "NoiseProfile",
    "MixedDataset",
    "SnrReport",
    "REGIME_HIGH",
    "REGIME_LOW",
    "MAX_DESIGN_ENTRIES",
    "check_design_cap",
    "validate_variances",
    "generate_dataset",
    "snr_report",
    "classify_regime",
    "support_error",
    "sign_mismatches",
    "signed_support_match",
    "save_dataset",
    "load_dataset",
    "wilson_ci95",
]

# Finite-size SNR cutoffs used only for regime labeling in reports.
REGIME_HIGH = 10.0
REGIME_LOW = 0.1

# Cap on n * p design entries that generate_dataset will allocate.
MAX_DESIGN_ENTRIES = 100_000_000

_ZERO_TOL = 1e-9  # sign checks count estimate entries this close to 0 as 0

_WILSON_Z = 1.959963984540054  # 97.5% normal quantile

_CSV_BLOCK = 4096  # X.csv values formatted per piece of a line

# the one JSON format, of stdout and meta.json alike; iterencode streams it
JSON_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, default=str)


class Regime(str, enum.Enum):
    """Qualitative SNR label attached to reports."""

    HIGH_SNR = "HighSNR"
    LOW_SNR2_HIGH_SNR1 = "LowSnr2HighSnr1"
    LOW_SNR = "LowSNR"
    INTERMEDIATE = "Intermediate"


class Setting(str, enum.Enum):
    """What the analyst knows about the noise when decoding or planning.

    Agnostic procedures never look at the block variances; Informed ones
    may rescale by them.
    """

    AGNOSTIC = "Agnostic"
    INFORMED = "Informed"


@dataclass(frozen=True)
class SparseSignal:
    """A p-dimensional vector supported on `support` with the given values.

    support is a strictly increasing tuple of 0-based indices; values[i]
    is the coefficient at support[i] and must be nonzero, so the minimum
    magnitude rho is well defined and positive.
    """

    p: int
    support: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        index_fields(self, "p", low=1, high=COUNT_MAX)
        support = tuple(as_index(i, "support index") for i in self.support)
        values = tuple(float(v) for v in self.values)
        if list(support) != support_indices(support, self.p, "support"):  # sorted
            raise ValueError("support must be strictly increasing")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        if len(support) != len(values):
            raise ValueError("support and values must have equal length")
        if not all(math.isfinite(v) and v != 0.0 for v in values):
            raise ValueError("support values must be finite and nonzero")

    @property
    def s(self) -> int:
        return len(self.support)

    @property
    def rho(self) -> float:
        """Minimum magnitude over the support."""
        return min(abs(v) for v in self.values)

    def dense(self) -> np.ndarray:
        beta = np.zeros(self.p)
        beta[list(self.support)] = self.values
        return beta


def validate_variances(sigma1_sq: float, sigma2_sq: float) -> None:
    """Refuse block variances that are not finite, nonnegative and ordered;
    zero is allowed for noiseless runs, and callers that divide check > 0."""
    as_real(sigma1_sq, "sigma1_sq")
    as_real(sigma2_sq, "sigma2_sq")
    if sigma1_sq > sigma2_sq:
        raise ValueError("sigma1_sq must not exceed sigma2_sq (low-noise block first)")


@dataclass(frozen=True)
class NoiseProfile:
    """Two-block noise: n1 rows at sigma1_sq, then n2 rows at sigma2_sq."""

    n1: int
    n2: int
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self) -> None:
        index_fields(self, "n1", "n2", low=0, high=COUNT_MAX)
        if self.n1 + self.n2 < 1:
            raise ValueError("total sample count must be >= 1")
        validate_variances(self.sigma1_sq, self.sigma2_sq)

    @property
    def n(self) -> int:
        return self.n1 + self.n2

    @property
    def sigma_avg_sq(self) -> float:
        return (self.n1 * self.sigma1_sq + self.n2 * self.sigma2_sq) / self.n

    def row_variances(self) -> np.ndarray:
        out = np.empty(self.n)
        out[: self.n1] = self.sigma1_sq
        out[self.n1 :] = self.sigma2_sq
        return out

    def block_weights(self, setting: Setting) -> tuple[float, float]:
        """Per-row loss weights of the two blocks under a setting.

        Agnostic losses weight every row by 1; informed losses weight a
        row by the reciprocal of its block variance, which must be finite:
        a zero variance, or one whose reciprocal overflows, is refused.
        """
        if setting is Setting.AGNOSTIC:
            return 1.0, 1.0
        if setting is Setting.INFORMED:
            # sigma1_sq <= sigma2_sq, so the first weight is the larger
            if self.sigma1_sq <= 0.0 or math.isinf(1.0 / self.sigma1_sq):
                raise ValueError(
                    "informed loss requires block variances with finite reciprocals"
                )
            return 1.0 / self.sigma1_sq, 1.0 / self.sigma2_sq
        raise ValueError(f"unknown setting: {setting!r}")


@dataclass(frozen=True)
class MixedDataset:
    """Design matrix, response, and the noise layout that produced them."""

    X: np.ndarray
    Y: np.ndarray
    noise: NoiseProfile
    signal: SparseSignal | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        X = np.asarray(self.X, dtype=np.float64)
        Y = np.asarray(self.Y, dtype=np.float64)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        if X.ndim != 2:
            raise DataError("X must be a 2-d array")
        if Y.shape != (X.shape[0],):
            raise DataError("Y must be a vector with one entry per row of X")
        if X.shape[0] != self.noise.n:
            raise DataError("row count must equal noise.n1 + noise.n2")
        if self.signal is not None and self.signal.p != X.shape[1]:
            raise DataError("signal dimension must equal the number of columns")
        if not np.isfinite(X).all() or not np.isfinite(Y).all():
            raise DataError("X and Y must be finite")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SnrReport:
    sigma_avg_sq: float
    snr: float
    snr1: float
    snr2: float
    regime: Regime = field(compare=False)


def check_design_cap(rows: int, p: int, s: int) -> None:
    """Refuse, before anything that size is built, a rows x p design above
    MAX_DESIGN_ENTRIES entries or s support indices whose tuples outgrow it."""
    rows, p, s = (as_index(v, k, low=0) for k, v in (("rows", rows), ("p", p), ("s", s)))
    most = 8 * MAX_DESIGN_ENTRIES // 70  # about 70 B per index and value in tuples
    if rows * p > MAX_DESIGN_ENTRIES or s > most:
        raise ResourceCapError(f"a {rows} x {p} design with {s} support indices is above "
                               f"the cap of {MAX_DESIGN_ENTRIES} entries and {most} indices")


def generate_dataset(
    signal: SparseSignal, noise: NoiseProfile, seed: int
) -> MixedDataset:
    """Draw X with iid standard normal entries and Y = X beta + noise.

    Entirely deterministic in (signal, noise, seed): X is filled row-major
    from substream derive(seed, rng.X_STREAM) and the standardized noise
    vector from derive(seed, rng.NOISE_STREAM), then scaled per block.
    Raises ResourceCapError, before allocating, where check_design_cap does.
    """
    seed, n, p = as_index(seed, "seed"), noise.n, signal.p
    check_design_cap(n, p, signal.s)
    X = rng.normals(rng.derive(seed, rng.X_STREAM), n * p).reshape(n, p)
    w = rng.normals(rng.derive(seed, rng.NOISE_STREAM), n)
    z = w * np.sqrt(noise.row_variances())
    Y = X @ signal.dense() + z
    return MixedDataset(X=X, Y=Y, noise=noise, signal=signal, seed=seed)


def classify_regime(snr1: float, snr2: float) -> Regime:
    """Label an (snr1, snr2) pair using the reporting cutoffs.

    snr1 is the block-1 ratio s / sigma1_sq and always dominates snr2.
    The labels are reporting conveniences at finite size, not statements
    with asymptotic content.
    """
    if not snr1 >= snr2:  # written so that NaN fails
        raise ValueError("snr1 must be >= snr2 (block 1 is the cleaner block)")
    if not snr2 > 0.0:
        raise ValueError("SNR values must be positive")
    if snr2 >= REGIME_HIGH:
        return Regime.HIGH_SNR
    if snr1 <= REGIME_LOW:
        return Regime.LOW_SNR
    if snr2 <= REGIME_LOW and snr1 >= REGIME_HIGH:
        return Regime.LOW_SNR2_HIGH_SNR1
    return Regime.INTERMEDIATE


def snr_report(s: int, noise: NoiseProfile) -> SnrReport:
    """Summarize signal-to-noise ratios for sparsity s under a noise layout.

    SNR is sparsity over variance: snr1 = s / sigma1_sq, snr2 = s /
    sigma2_sq, and the headline number uses the sample-weighted average
    variance. Zero variances produce infinite ratios.
    """
    s = as_index(s, "s", low=1, high=COUNT_MAX)

    def ratio(v: float) -> float:
        return s / v if v > 0.0 else math.inf

    snr1 = ratio(noise.sigma1_sq)
    snr2 = ratio(noise.sigma2_sq)
    snr = ratio(noise.sigma_avg_sq)
    return SnrReport(
        sigma_avg_sq=noise.sigma_avg_sq,
        snr=snr,
        snr1=snr1,
        snr2=snr2,
        regime=classify_regime(snr1, snr2),
    )


def support_error(estimated: Iterable[int], truth: Iterable[int]) -> int:
    """Size of the symmetric difference between two index collections."""
    return len(set(estimated) ^ set(truth))


def sign_mismatches(estimate: np.ndarray, truth: SparseSignal) -> int:
    """Number of coordinates whose sign differs from the true signed support.

    Coordinates within _ZERO_TOL of zero count as zero, so a flipped sign,
    a missing support index and an extra nonzero each count 1.
    """
    estimate = np.asarray(estimate, dtype=np.float64)
    if estimate.shape != (truth.p,):
        raise DataError("estimate must be a length-p vector")
    est_sign = np.where(np.abs(estimate) > _ZERO_TOL, np.sign(estimate), 0.0)
    return int(np.count_nonzero(est_sign != np.sign(truth.dense())))


def signed_support_match(estimate: np.ndarray, truth: SparseSignal) -> bool:
    """Whether an estimated vector has exactly the true signed support."""
    return sign_mismatches(estimate, truth) == 0


def fmt_float(x: float) -> str:
    """CSV float text: 17 significant digits round-trip IEEE doubles exactly."""
    return "%.17g" % x


def wilson_ci95(successes: int, trials: int) -> float:
    """Half-width of the Wilson 95% score interval for a binomial rate."""
    trials = as_index(trials, "trials", low=1, high=COUNT_MAX)
    successes = as_index(successes, "successes", low=0, high=trials)
    z = _WILSON_Z
    phat = successes / trials
    spread = math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials))
    return z * spread / (1.0 + z * z / trials)


def write_lines(path: str, lines: Iterable[str | Iterable[str]]) -> None:
    """Write UTF-8 text, one line each, with Unix newlines; a line is a str
    or an iterable of its pieces, written as they come.

    An existing file is rewritten in place and cut at the end of what was
    written, keeping its inode, mode and any symlink to it. Opening with
    "w" would first truncate it to zero, and on ext4 (auto_da_alloc) a
    file truncated to zero is flushed to disk on close, tens of ms per
    file; a rename over it is flushed the same way. If `lines` raises,
    the file holds exactly the lines written before.
    """
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    with open(os.open(path, flags, 0o666), "w", encoding="utf-8", newline="\n") as fh:
        try:
            for line in lines:
                if isinstance(line, str):
                    fh.write(line)
                else:
                    fh.writelines(line)
                fh.write("\n")
        finally:
            fh.truncate()


def _csv_pieces(row: np.ndarray) -> Iterator[str]:
    """One X.csv line, the row's values joined by commas, in pieces of
    _CSV_BLOCK values."""
    for start in range(0, len(row), _CSV_BLOCK):
        yield ("," if start else "") + ",".join(map(fmt_float, row[start : start + _CSV_BLOCK]))


def save_dataset(dataset: MixedDataset, directory: str) -> list[str]:
    """Write meta.json, X.csv, and Y.csv into `directory`; returns the paths.

    X.csv is the n-by-p design, one row per line, no header; Y.csv is one
    response value per line. meta.json records the noise layout, the seed,
    and the true support/values when present. Each file is streamed, so
    no file's whole text, nor a whole line of X.csv, is held in memory.
    """
    os.makedirs(directory, exist_ok=True)
    meta = {
        "p": dataset.p,
        "s": dataset.signal.s if dataset.signal is not None else None,
        "n1": dataset.noise.n1,
        "n2": dataset.noise.n2,
        "sigma1_sq": dataset.noise.sigma1_sq,
        "sigma2_sq": dataset.noise.sigma2_sq,
        "seed": dataset.seed,
        "support": dataset.signal.support if dataset.signal is not None else None,
        "values": dataset.signal.values if dataset.signal is not None else None,
    }
    meta_path = os.path.join(directory, "meta.json")
    x_path = os.path.join(directory, "X.csv")
    y_path = os.path.join(directory, "Y.csv")
    write_lines(meta_path, [JSON_ENCODER.iterencode(meta)])
    write_lines(x_path, map(_csv_pieces, dataset.X))
    write_lines(y_path, map(fmt_float, dataset.Y))
    return [meta_path, x_path, y_path]


def load_dataset(directory: str) -> MixedDataset:
    """Read a dataset directory written by save_dataset."""
    meta_path = os.path.join(directory, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    X = np.loadtxt(os.path.join(directory, "X.csv"), delimiter=",", ndmin=2)
    Y = np.loadtxt(os.path.join(directory, "Y.csv"), ndmin=1)
    noise = NoiseProfile(
        n1=meta["n1"],
        n2=meta["n2"],
        sigma1_sq=float(meta["sigma1_sq"]),
        sigma2_sq=float(meta["sigma2_sq"]),
    )
    signal = None
    if meta.get("support") is not None:
        signal = SparseSignal(
            p=meta["p"],
            support=tuple(meta["support"]),
            values=tuple(meta["values"]),
        )
    return MixedDataset(X=X, Y=Y, noise=noise, signal=signal, seed=meta.get("seed"))
