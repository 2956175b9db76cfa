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
from typing import Iterable

import numpy as np

from . import rng
from .errors import DataError, ResourceCapError

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
    "generate_dataset",
    "snr_report",
    "classify_regime",
    "support_error",
    "sign_mismatches",
    "signed_support_match",
    "save_dataset",
    "load_dataset",
]

# Finite-size SNR cutoffs used only for regime labeling in reports.
REGIME_HIGH = 10.0
REGIME_LOW = 0.1

# Default cap on n * p design entries that generate_dataset will allocate.
MAX_DESIGN_ENTRIES = 100_000_000

_ZERO_TOL = 1e-9  # sign checks count estimate entries this close to 0 as 0

# Substream tags for generate_dataset (see rng.derive).
_X_STREAM = 1
_NOISE_STREAM = 2


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
        if self.p < 1:
            raise ValueError("dimension p must be >= 1")
        support = tuple(int(i) for i in self.support)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "values", values)
        if len(support) != len(values):
            raise ValueError("support and values must have equal length")
        if len(support) == 0:
            raise ValueError("support must be nonempty")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if support[0] < 0 or support[-1] >= self.p:
            raise ValueError("support indices must lie in [0, p)")
        if not all(math.isfinite(v) and v != 0.0 for v in values):
            raise ValueError("support values must be finite and nonzero")

    @property
    def s(self) -> int:
        return len(self.support)

    @property
    def rho(self) -> float:
        """Minimum magnitude over the support."""
        return min(abs(v) for v in self.values)

    @property
    def is_binary(self) -> bool:
        return all(abs(v) == 1.0 for v in self.values)

    def dense(self) -> np.ndarray:
        beta = np.zeros(self.p)
        beta[list(self.support)] = self.values
        return beta


@dataclass(frozen=True)
class NoiseProfile:
    """Two-block noise: n1 rows at sigma1_sq, then n2 rows at sigma2_sq."""

    n1: int
    n2: int
    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("block sizes must be nonnegative")
        if self.n1 + self.n2 < 1:
            raise ValueError("total sample count must be >= 1")
        if not (math.isfinite(self.sigma1_sq) and math.isfinite(self.sigma2_sq)):
            raise ValueError("variances must be finite")
        # Zero variance is allowed for noiseless sanity runs; operations
        # that genuinely need positivity check it themselves.
        if self.sigma1_sq < 0.0 or self.sigma2_sq < 0.0:
            raise ValueError("variances must be nonnegative")
        if self.sigma1_sq > self.sigma2_sq:
            raise ValueError("sigma1_sq must not exceed sigma2_sq (low-noise block first)")

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


def generate_dataset(
    signal: SparseSignal,
    noise: NoiseProfile,
    seed: int,
    *,
    max_entries: int = MAX_DESIGN_ENTRIES,
) -> MixedDataset:
    """Draw X with iid standard normal entries and Y = X beta + noise.

    Entirely deterministic in (signal, noise, seed): X is filled row-major
    from substream derive(seed, 1) and the standardized noise vector from
    derive(seed, 2), then scaled per block. Refuses to allocate more than
    max_entries design entries; raise the cap explicitly for larger runs.
    """
    n, p = noise.n, signal.p
    if n * p > max_entries:
        raise ResourceCapError(
            f"design would hold {n * p} entries, above the cap of {max_entries}; "
            "pass a larger max_entries to proceed"
        )
    X = rng.normals(rng.derive(seed, _X_STREAM), n * p).reshape(n, p)
    w = rng.normals(rng.derive(seed, _NOISE_STREAM), n)
    z = w * np.sqrt(noise.row_variances())
    Y = X @ signal.dense() + z
    return MixedDataset(X=X, Y=Y, noise=noise, signal=signal, seed=seed)


def classify_regime(snr1: float, snr2: float) -> Regime:
    """Label an (snr1, snr2) pair using the reporting cutoffs.

    snr1 is the block-1 ratio s / sigma1_sq and always dominates snr2.
    The labels are reporting conveniences at finite size, not statements
    with asymptotic content.
    """
    if snr1 < snr2:
        raise ValueError("snr1 must be >= snr2 (block 1 is the cleaner block)")
    if snr1 <= 0.0 or snr2 <= 0.0:
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
    if s < 1:
        raise ValueError("sparsity must be >= 1")

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


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write UTF-8 text, one line each, with Unix newlines."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def save_dataset(dataset: MixedDataset, directory: str) -> list[str]:
    """Write meta.json, X.csv, and Y.csv into `directory`; returns the paths.

    X.csv is the n-by-p design, one row per line, no header; Y.csv is one
    response value per line. meta.json records the noise layout, the seed,
    and the true support/values when present.
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
        "support": list(dataset.signal.support) if dataset.signal is not None else None,
        "values": list(dataset.signal.values) if dataset.signal is not None else None,
    }
    meta_path = os.path.join(directory, "meta.json")
    x_path = os.path.join(directory, "X.csv")
    y_path = os.path.join(directory, "Y.csv")
    write_lines(meta_path, [json.dumps(meta, indent=2, sort_keys=True)])
    write_lines(x_path, (",".join(map(fmt_float, row)) for row in dataset.X))
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
        n1=int(meta["n1"]),
        n2=int(meta["n2"]),
        sigma1_sq=float(meta["sigma1_sq"]),
        sigma2_sq=float(meta["sigma2_sq"]),
    )
    signal = None
    if meta.get("support") is not None:
        signal = SparseSignal(
            p=int(meta["p"]),
            support=tuple(meta["support"]),
            values=tuple(meta["values"]),
        )
    return MixedDataset(X=X, Y=Y, noise=noise, signal=signal, seed=meta.get("seed"))
