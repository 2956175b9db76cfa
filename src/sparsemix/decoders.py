"""Combinatorial support decoders for binary sparse signals.

Both decoders minimize a residual loss over size-s supports: the agnostic
scan uses the plain squared norm, the informed variant rescales each row
by its noise variance first. Candidates are ranked by (loss, support),
so an exact tie goes to the lexicographically smallest sorted index
tuple; the exhaustive scan visits supports in lexicographic order and
local search applies the same rule to its swaps and restarts. Losses are
evaluated through one canonical routine, so a support's loss is the same
float no matter which code path produced it: panels of 8192 rows are
each reduced with numpy's pairwise summation and the panel partials are
combined with Kahan compensation, which keeps long sums (n above ten
thousand) stable enough for reproducible tie ordering.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

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

_Best = tuple[float, tuple[int, ...]]


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


def _candidate_losses(resid: np.ndarray, n1: int, w1: float, w2: float) -> np.ndarray:
    """Weighted squared-residual losses for residual rows shaped (c, n)."""
    sq = resid * resid
    return w1 * _row_sums(sq[:, :n1]) + w2 * _row_sums(sq[:, n1:])


def _support_loss(
    dataset: MixedDataset, support: tuple[int, ...], w1: float, w2: float
) -> float:
    """Canonical loss of one sorted support."""
    resid = dataset.Y - np.add.reduce(dataset.X.T[list(support)], axis=0)
    return float(_candidate_losses(resid[None, :], dataset.noise.n1, w1, w2)[0])


def _fold_best(
    best: _Best | None,
    losses: np.ndarray,
    support_of: Callable[[int], tuple[int, ...]],
) -> _Best | None:
    """The smaller of `best` and the (loss, support) minimum of a block.

    support_of(k) gives the sorted support of flat entry k of `losses`;
    it is called only for the entries tied at the block minimum. A block
    whose minimum is NaN leaves `best` unchanged.
    """
    lo = losses.min()
    if np.isnan(lo):
        return best
    tied = min(support_of(int(k)) for k in np.flatnonzero(losses == lo))
    cand = (float(lo), tied)
    return cand if best is None or cand < best else best


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
    return _support_loss(dataset, tuple(idx), w1, w2)


def decode_exhaustive(
    dataset: MixedDataset,
    s: int,
    setting: Setting,
    *,
    cap: int = EXHAUSTIVE_CAP,
) -> DecodeResult:
    """Scan every size-s support and return the loss minimizer.

    Candidates are visited in lexicographic order in fixed-size blocks;
    the result is the candidate minimizing (loss, support), so exact ties
    go to the lexicographically smallest sorted index tuple and the
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
    n1 = dataset.noise.n1
    Xt = dataset.X.T
    chunk = max(16, min(4096, _CHUNK_ENTRIES // max(1, s * dataset.n)))
    entries = itertools.chain.from_iterable(itertools.combinations(range(p), s))
    best: _Best | None = None
    for start in range(0, total, chunk):
        rows = min(chunk, total - start)
        cands = np.fromiter(entries, np.intp, count=rows * s).reshape(rows, s)
        resid = dataset.Y - np.add.reduce(Xt[cands], axis=1)
        best = _fold_best(
            best,
            _candidate_losses(resid, n1, w1, w2),
            lambda k: tuple(cands[k].tolist()),
        )
    if best is None:
        raise SparsemixError("exhaustive scan: every candidate loss is NaN")
    return DecodeResult(support=best[1], loss=best[0], scanned=total, exhaustive=True)


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
    lexicographically smallest resulting support, within a step and
    across restarts. Deterministic in (dataset, seed, restarts). The
    returned support is swap-locally optimal but carries no global
    guarantee.
    """
    p = dataset.p
    if not 1 <= s <= p:
        raise ValueError("sparsity must satisfy 1 <= s <= p")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    w1, w2 = _weights(setting, dataset)
    n1 = dataset.noise.n1
    Xt = dataset.X.T
    m = p - s  # swap-in choices per removed index
    scanned = 0
    best: _Best | None = None
    for r in range(restarts):
        cur = _random_support(rng.derive(seed, r), p, s)
        cur_loss = _support_loss(dataset, cur, w1, w2)
        scanned += 1
        while m > 0:
            resid0 = dataset.Y - np.add.reduce(Xt[list(cur)], axis=0)
            outs = np.setdiff1d(np.arange(p), cur)
            x_outs = Xt[outs]
            losses = np.empty((s, m))
            for row, i in enumerate(cur):
                resid = (resid0 + Xt[i]) - x_outs
                losses[row] = _candidate_losses(resid, n1, w1, w2)
            scanned += losses.size

            def swapped(k: int) -> tuple[int, ...]:
                row, col = divmod(k, m)
                return tuple(sorted(cur[:row] + cur[row + 1 :] + (int(outs[col]),)))

            step = _fold_best(None, losses.ravel(), swapped)
            if step is None or step[0] >= cur_loss:
                break
            # The swap losses ride an incrementally built residual;
            # confirm the improvement on the canonical evaluation before
            # committing, so termination agrees with support_loss.
            exact = _support_loss(dataset, step[1], w1, w2)
            if exact >= cur_loss:
                break
            cur, cur_loss = step[1], exact
        best = _fold_best(best, np.array([cur_loss]), lambda _: cur)
    if best is None:
        raise SparsemixError("local search: every restart ended on a NaN loss")
    return DecodeResult(
        support=best[1], loss=best[0], scanned=scanned, exhaustive=False
    )
