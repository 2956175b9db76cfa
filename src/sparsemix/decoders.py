"""Combinatorial support decoders for binary sparse signals.

Both decoders minimize a residual loss over size-s supports: the agnostic
scan uses the plain squared norm, the informed variant rescales each row
by its noise variance first. Losses are evaluated through one canonical
routine, so a support's loss is the same float no matter which code path
produced it: panels of 8192 rows are each reduced with numpy's pairwise
summation and the panel partials are combined with Kahan compensation,
which keeps long sums (n above ten thousand) stable enough for
reproducible tie ordering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import rng
from .errors import ResourceCapError, SparsemixError
from .model import MixedDataset, Setting

__all__ = [
    "DecodeResult",
    "EXHAUSTIVE_CAP",
    "support_loss",
    "decode_exhaustive",
    "decode_local_search",
]

EXHAUSTIVE_CAP = 2_000_000

_PANEL = 8192  # rows per compensated-summation panel
_CHUNK_ENTRIES = 1 << 21  # float64 budget per gathered candidate block


@dataclass(frozen=True)
class DecodeResult:
    """Decoded support with its loss and scan accounting.

    scanned counts candidate supports whose loss was evaluated;
    exhaustive says whether that was every size-s support.
    """

    support: tuple[int, ...]
    loss: float
    scanned: int
    exhaustive: bool


def _weights(setting: Setting, dataset: MixedDataset) -> tuple[float, float]:
    if setting is Setting.AGNOSTIC:
        return 1.0, 1.0
    if setting is Setting.INFORMED:
        s1, s2 = dataset.noise.sigma1_sq, dataset.noise.sigma2_sq
        if s1 <= 0.0 or s2 <= 0.0:
            raise ValueError("informed decoding requires positive block variances")
        return 1.0 / s1, 1.0 / s2
    raise ValueError(f"unknown setting: {setting!r}")


def _row_sums(sq: np.ndarray) -> np.ndarray:
    """Sum each row of a C-contiguous (c, n) array, panel-compensated."""
    n = sq.shape[1]
    total = np.zeros(sq.shape[0])
    comp = np.zeros(sq.shape[0])
    for start in range(0, n, _PANEL):
        part = np.add.reduce(sq[:, start : start + _PANEL], axis=1)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _losses(resid: np.ndarray, n1: int, w1: float, w2: float) -> np.ndarray:
    """Weighted squared-residual losses for residual rows shaped (c, n)."""
    sq = resid * resid
    return w1 * _row_sums(sq[:, :n1]) + w2 * _row_sums(sq[:, n1:])


def _candidate_losses(
    dataset: MixedDataset, cands: np.ndarray, w1: float, w2: float
) -> np.ndarray:
    """Losses for a (c, s) block of sorted candidate supports."""
    cols = dataset.X.T[cands]  # (c, s, n)
    resid = dataset.Y[None, :] - np.add.reduce(cols, axis=1)
    return _losses(resid, dataset.noise.n1, w1, w2)


def support_loss(
    dataset: MixedDataset, support: Iterable[int], setting: Setting
) -> float:
    """Residual loss of putting a unit coefficient on each given index.

    Agnostic: squared norm of Y - X 1_S. Informed: same residual with
    each row weighted by the reciprocal of its block variance.
    """
    w1, w2 = _weights(setting, dataset)
    idx = sorted(int(i) for i in support)
    if len(idx) == 0:
        raise ValueError("support must be nonempty")
    if len(set(idx)) != len(idx):
        raise ValueError("support indices must be distinct")
    if idx[0] < 0 or idx[-1] >= dataset.p:
        raise ValueError("support indices must lie in [0, p)")
    cands = np.asarray([idx], dtype=np.intp)
    return float(_candidate_losses(dataset, cands, w1, w2)[0])


def _colex_subsets(p: int, s: int) -> Iterator[tuple[int, ...]]:
    """All sorted s-subsets of range(p) in colexicographic order."""
    if s == 0:
        yield ()
        return
    for top in range(s - 1, p):
        for rest in _colex_subsets(top, s - 1):
            yield rest + (top,)


def decode_exhaustive(
    dataset: MixedDataset,
    s: int,
    setting: Setting,
    *,
    cap: int = EXHAUSTIVE_CAP,
) -> DecodeResult:
    """Scan every size-s support and return the loss minimizer.

    Candidates are visited in colex order in fixed-size blocks; the
    result is the candidate minimizing (loss, support) in lexicographic
    order, so exact ties go to the smallest sorted index tuple and the
    answer does not depend on block boundaries. Refuses instances with
    more than `cap` candidates; use decode_local_search for those.
    """
    p = dataset.p
    if not 1 <= s <= p:
        raise ValueError("sparsity must satisfy 1 <= s <= p")
    total = math.comb(p, s)
    if total > cap:
        raise ResourceCapError(
            f"{total} candidate supports exceed the cap of {cap}; "
            "use decode_local_search instead"
        )
    w1, w2 = _weights(setting, dataset)
    chunk = max(16, min(4096, _CHUNK_ENTRIES // max(1, s * dataset.n)))
    best_loss = math.inf
    best_support: tuple[int, ...] | None = None
    gen = _colex_subsets(p, s)
    while True:
        block = list(itertools.islice(gen, chunk))
        if not block:
            break
        cands = np.asarray(block, dtype=np.intp)
        losses = _candidate_losses(dataset, cands, w1, w2)
        lo = losses.min()
        if lo < best_loss:
            best_loss = float(lo)
            best_support = None
        if lo == best_loss:
            for k in np.flatnonzero(losses == lo):
                t = block[int(k)]
                if best_support is None or t < best_support:
                    best_support = t
    if best_support is None:
        raise SparsemixError("exhaustive scan: every candidate loss is NaN")
    return DecodeResult(
        support=best_support, loss=best_loss, scanned=total, exhaustive=True
    )


def _random_support(seed: int, p: int, s: int) -> tuple[int, ...]:
    keys = rng.uniforms(seed, p)
    order = np.argsort(keys, kind="stable")
    return tuple(sorted(int(i) for i in order[:s]))


def decode_local_search(
    dataset: MixedDataset,
    s: int,
    setting: Setting,
    *,
    restarts: int = 8,
    seed: int = 0,
) -> DecodeResult:
    """Steepest-descent single-swap search from random starts.

    Each restart draws a uniform size-s start from its own substream,
    then repeatedly applies the swap (one index out, one in) that lowers
    the loss most, until no swap improves; ties prefer the
    lexicographically smallest resulting support. Deterministic in
    (dataset, seed, restarts). The returned support is swap-locally
    optimal but carries no global guarantee.
    """
    p = dataset.p
    if not 1 <= s <= p:
        raise ValueError("sparsity must satisfy 1 <= s <= p")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    w1, w2 = _weights(setting, dataset)
    n1 = dataset.noise.n1
    Xt = dataset.X.T
    scanned = 0
    best_loss = math.inf
    best_support: tuple[int, ...] | None = None

    def canonical(sup: Sequence[int]) -> float:
        cands = np.asarray([sorted(sup)], dtype=np.intp)
        return float(_candidate_losses(dataset, cands, w1, w2)[0])

    for r in range(restarts):
        cur = _random_support(rng.derive(seed, r), p, s)
        cur_loss = canonical(cur)
        scanned += 1
        while True:
            resid0 = dataset.Y - np.add.reduce(Xt[list(cur)], axis=0)
            outs = np.asarray(
                [j for j in range(p) if j not in set(cur)], dtype=np.intp
            )
            if len(outs) == 0:
                break
            step_loss = math.inf
            step_support: tuple[int, ...] | None = None
            for i in cur:
                base = resid0 + Xt[i]
                resid = base[None, :] - Xt[outs]
                losses = _losses(resid, n1, w1, w2)
                scanned += len(outs)
                lo = losses.min()
                if lo > step_loss:
                    continue
                for k in np.flatnonzero(losses == lo):
                    cand = tuple(sorted(set(cur) - {i} | {int(outs[k])}))
                    if float(lo) < step_loss or (
                        float(lo) == step_loss
                        and (step_support is None or cand < step_support)
                    ):
                        step_loss = float(lo)
                        step_support = cand
            if step_support is None or step_loss >= cur_loss:
                break
            # The swap losses ride an incrementally built residual;
            # confirm the improvement on the canonical evaluation before
            # committing, so termination agrees with support_loss.
            exact = canonical(step_support)
            if exact >= cur_loss:
                break
            cur, cur_loss = step_support, exact
        if cur_loss < best_loss or (
            cur_loss == best_loss
            and (best_support is None or cur < best_support)
        ):
            best_loss = cur_loss
            best_support = cur
    if best_support is None:
        raise SparsemixError("local search: every restart ended on a NaN loss")
    return DecodeResult(
        support=best_support, loss=best_loss, scanned=scanned, exhaustive=False
    )
