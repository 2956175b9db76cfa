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
thousand) stable enough for reproducible tie ordering. Data and weights
are finite, so a loss is NaN only where its sum of squares overflowed;
that routine returns such a loss as +inf. Losses are therefore totally
ordered, and a candidate whose loss overflows ranks after every one
whose loss is finite. Since that overflow is handled, the public entry
points silence numpy's overflow and invalid-value warnings.

Both decoders rank every candidate in Gram form first and confirm only
the survivors canonically (the exhaustive scan wherever two p x p planes
of Gram terms fit the block budget). With W the row weights, G = X^T W X and
b = X^T W Y, a support's loss is Y^T W Y + sum_S (G_ii - 2 b_i) +
2 sum_{i<j in S} G_ij: O(s^2) per candidate instead of O(s n). Its
rounding differs from the canonical routine's by at most a proven margin
M (derived in _GramForm.margin for any order of summing the same terms),
so only candidates whose Gram-form score lies within 2M of the lowest
can hold the canonical minimum. Those alone are evaluated canonically and
folded by (loss, support), which leaves supports, loss bits and
tie-breaks as a canonical evaluation of every candidate would give them:
the bound-and-confirm idea of leaps-and-bounds subset search (Furnival &
Wilson 1974). A margin that is not finite keeps every candidate, so
overflow needs no separate path. The exhaustive scan sums a candidate's
s(s+1)/2 Gram terms by position pairs: C(s, 2) gathers, odd s one more.

Local search runs its restarts in lockstep: each step scores every swap-in
of every restart still descending from Gram rows cached for the descent,
each formed on first use, screens each restart's swaps against its own
lowest score, evaluates all survivors on their incremental residuals in
row blocks and confirms the improving steps in one canonical batch.
Restarts run in blocks sized so that a step, the row cache and the
residual blocks stay within _CHUNK_ENTRIES values, so the restart count
costs time, not memory. Restarts are independent and the final fold is
by (loss, support), so supports, loss bits, tie-breaks and scanned are
those of running the restarts one after another.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from . import rng
from .errors import COUNT_MAX, ResourceCapError, as_index, support_indices
from .model import MixedDataset, Setting

__all__ = [
    "DecodeResult",
    "EXHAUSTIVE_CAP",
    "exhaustive_candidates",
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

    scanned counts candidate supports ranked, in Gram form or canonically,
    not the canonical evaluations that confirm the survivors; exhaustive
    says whether that was every size-s support.
    """

    support: tuple[int, ...]
    loss: float
    scanned: int
    exhaustive: bool


def _row_sums(sq: np.ndarray) -> np.ndarray:
    """Sum each row of a C-contiguous (c, n) array, panel-compensated; the
    first partial starts the Kahan sum, as a step from zero leaves it."""
    total, comp = np.add.reduce(sq[:, :_PANEL], axis=1), 0.0
    for start in range(_PANEL, sq.shape[1], _PANEL):
        part = np.add.reduce(sq[:, start : start + _PANEL], axis=1)
        y = part - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _candidate_losses(resid: np.ndarray, n1: int, w1: float, w2: float) -> np.ndarray:
    """Weighted squared-residual losses for residual rows shaped (c, n).

    With finite data and weights a NaN loss means the sum of squares
    overflowed (a Kahan step met inf - inf), so it becomes +inf.
    """
    sq = resid * resid
    return np.fmin(w1 * _row_sums(sq[:, :n1]) + w2 * _row_sums(sq[:, n1:]), math.inf)


def _canonical_losses(
    dataset: MixedDataset, supports: np.ndarray, w1: float, w2: float
) -> np.ndarray:
    """Canonical losses of sorted supports given as the rows of a (k, s) array."""
    resid = dataset.Y - np.add.reduce(dataset.X.T[supports], axis=1)
    return _candidate_losses(resid, dataset.noise.n1, w1, w2)


class _GramForm:
    """Block-weighted Gram quantities of one dataset under one setting.

    Every weighted product is formed per noise block and scaled by the
    block weight afterwards, as the canonical loss is, so both carry the
    same underflow accounting in margin().
    """

    def __init__(self, dataset: MixedDataset, w1: float, w2: float) -> None:
        n1 = dataset.noise.n1
        X, Y = dataset.X, dataset.Y
        self.blocks = ((w1, X[:n1]), (w2, X[n1:]))
        sq1 = np.einsum("ij,ij->j", X[:n1], X[:n1])
        sq2 = np.einsum("ij,ij->j", X[n1:], X[n1:])
        self.diag = w1 * sq1 + w2 * sq2  # G_jj
        self.b = w1 * (Y[:n1] @ X[:n1]) + w2 * (Y[n1:] @ X[n1:])
        self.n = dataset.n
        self.wmax = max(w1, w2)
        self.ynorm = math.sqrt(Y @ Y)
        self.xnorm = math.sqrt((sq1 + sq2).max())

    def rows(self, idx: np.ndarray | slice, out: np.ndarray | None = None,
             spare: np.ndarray | None = None) -> np.ndarray:
        """Rows G[idx, :] of G = X^T W X, formed in out, with the second
        block's product in spare, where they are given."""
        (w1, X1), (w2, X2) = self.blocks
        out = np.matmul(X1[:, idx].T, X1, out=out)
        out *= w1
        spare = np.matmul(X2[:, idx].T, X2, out=spare)
        spare *= w2
        out += spare
        return out

    def margin(self, s: int, t: int) -> float:
        """Proven bound M on |Gram-form score - (canonical loss - C)|.

        C is one constant for all candidates of a ranking: Y^T W Y for the
        exhaustive scores, the current support's loss for local search.
        The canonical winner S* and the Gram-form minimizer S_g then satisfy
        score(S*) <= loss(S*) - C + M <= loss(S_g) - C + M <= score(S_g) + 2M,
        so S* survives a 2M screen. With u = 2^-53, gamma_k = k u / (1 - k u):
        a sum of terms whose values carry relative error gamma_a, formed
        along any tree of depth d (any BLAS blocking, FMA or pairwise
        order), is within gamma_{a+d} of the exact sum times the sum of
        the absolute terms (Higham 2002, ch. 3). For a candidate let
        A = sum_r w_r (|Y_r| + sum_{i in T} |X_ri|)^2, where T is the
        support, or for a local-search swap the current support plus the
        index swapped in and, a second time, the index swapped out
        (t = |T| is s, or s + 2). A bounds the absolute product terms of
        both evaluations.

        Canonical loss: each row residual is an s-term sum (s + 2 for the
        incremental swap residual), squaring gives gamma_{2s+1}
        (gamma_{2s+5}), panel sums add at most L - 1, Kahan's combination
        of P panel partials adds 2u + O(P u^2) <= gamma_{P+1} (Higham
        2002, sec. 4.3; exact for P = 1) with L + P <= n + 1, and the block
        weight and block sum add 2: gamma_{n+2s+4} A (gamma_{n+2s+8} A).

        Gram form: an entry of G or b is an n_b-term dot product scaled
        by its block weight and added across blocks, gamma_{n+2}, whichever
        call formed its row. The exhaustive score sums s(s+1)/2 entries
        of H (H_ii = G_ii - 2 b_i, one more rounding; H_ij = 2 G_ij) in
        any tree, such as _term_codes' pairs: gamma_{n+2+s(s+1)/2} A. The
        swap score G_ii + G_jj + 2c_i - 2c_j - 2G_ij with
        c = b - sum_{k in cur} G_k passes each term through at most s + 3
        roundings in any order: gamma_{n+s+5} A. Either pair of bounds
        adds up to at most gamma_{2n+(s+3)^2} A.

        A <= wmax (||Y|| + t max_j ||X_j||)^2 = wmax R^2 (Minkowski,
        unweighted norms). Forming R^2 from computed norms takes at most
        n + 6 roundings, and gamma_K, M and the screen threshold a few
        more, each shrinking it by at most a factor 1 - u; K =
        3n + (s+5)^2 covers them. The bound is doubled and its weight
        floored at 1, so a finite M also proves that no intermediate of
        either evaluation, at most (1 + gamma) max(1, wmax) R^2,
        overflows. Gradual underflow leaves each product off by at most
        2^-1075 absolute: an entry of G or b and a canonical block sum
        gain at most tau = (wmax n + 2) 2^-1074, a score at most
        (4s + 8) tau and a canonical loss tau, within (s + 3)^2 tau.
        """
        k = 3 * self.n + (s + 5) ** 2
        gamma = k * 2.0**-53 / (1.0 - k * 2.0**-53)
        root = self.ynorm + t * self.xnorm
        bound = 2.0 * max(1.0, self.wmax) * root * root  # inf if anything can overflow
        return gamma * bound + (s + 3) ** 2 * (self.wmax * self.n + 2.0) * 2.0**-1074


def _screen(
    scores: np.ndarray, margin: float, low: float | np.ndarray = math.inf
) -> tuple[np.ndarray, np.ndarray]:
    """Which candidates can still hold the minimum, and the lowest scores.

    Candidates lie along the last axis of `scores`, each leading index
    (a local-search restart) ranked on its own. A candidate survives
    unless its Gram-form score exceeds the lowest score of its row seen
    so far, `low` included, by more than 2 * margin. A NaN score or a
    non-finite margin fails that comparison, so those candidates survive.
    """
    low = np.minimum(low, scores.min(axis=-1, keepdims=True))
    return ~(scores > low + 2.0 * margin), low


def _term_codes(cands: np.ndarray, p: int) -> np.ndarray:
    """Where the Gram-form terms of sorted candidate rows c lie in [H; P].

    With P_ij = H_ii + H_ij + H_jj, sum_{a <= b} H[c_a, c_b] is P over the
    pairs (c_0, c_1), (c_2, c_3), ..., the last c's diagonal for odd s, and
    H across pairs: C(s, 2) + s % 2 terms, one row of flat indices each."""
    s = cands.shape[1]
    terms = [(a, a + 1, p * p) for a in range(0, s - 1, 2)] + [(s - 1, s - 1, 0)] * (s % 2)
    terms += [(a, b, 0) for a in range(s) for b in range(a + 2 - a % 2, s)]
    first, second, offset = np.array(terms).T
    codes = cands.T[first]  # formed in place: a cached table's codes are its largest array
    codes *= p
    codes += cands.T[second]
    codes += offset[:, None]
    return codes


@functools.lru_cache(maxsize=4)
def _support_table(p: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Every size-s support of range(p) in lexicographic order, and its term codes."""
    combos = itertools.chain.from_iterable(itertools.combinations(range(p), s))
    table = np.fromiter(combos, np.intp).reshape(-1, s)
    codes = _term_codes(table, p)
    table.flags.writeable = codes.flags.writeable = False
    return table, codes


def _support_blocks(p: int, s: int, total: int, rows: int) -> Iterator[tuple[np.ndarray, ...]]:
    """The size-s supports of range(p) in lexicographic order, `rows` at a
    time, with their term codes; total is their count, C(p, s). Up to
    _CHUNK_ENTRIES // 8 entries (s^2 per support bounds table and codes)
    they are cached per (p, s), and streamed a block at a time above that."""
    if total * s * s <= _CHUNK_ENTRIES // 8:
        table, codes = _support_table(p, s)
        for start in range(0, total, rows):
            yield table[start : start + rows], codes[:, start : start + rows]
        return
    combos = itertools.chain.from_iterable(itertools.combinations(range(p), s))
    for start in range(0, total, rows):
        k = min(rows, total - start)
        block = np.fromiter(combos, np.intp, count=k * s).reshape(k, s)
        yield block, _term_codes(block, p)


@np.errstate(over="ignore", invalid="ignore")
def support_loss(dataset: MixedDataset, support: Iterable[int], setting: Setting) -> float:
    """Residual loss of putting a unit coefficient on each given index.

    Agnostic: squared norm of Y - X 1_S. Informed: same residual with
    each row weighted by the reciprocal of its block variance.
    """
    w1, w2 = dataset.noise.block_weights(setting)
    idx = support_indices(support, dataset.p, "support")
    return float(_canonical_losses(dataset, np.array([idx]), w1, w2)[0])


def exhaustive_candidates(p: int, s: int) -> int:
    """The count C(p, s) of size-s supports of range(p), refused above
    EXHAUSTIVE_CAP; the product stops past the cap, so a huge p costs no C(p, s)."""
    p = as_index(p, "p", low=0)
    total, s = 1, as_index(s, "s", low=0, high=p)
    for i in range(min(s, p - s)):
        if (total := total * (p - i) // (i + 1)) > EXHAUSTIVE_CAP:  # C(p, i + 1)
            raise ResourceCapError(f"C({p}, {s}) candidate supports exceed the cap of "
                                   f"{EXHAUSTIVE_CAP}; use local search instead")
    return total


@np.errstate(over="ignore", invalid="ignore")
def decode_exhaustive(dataset: MixedDataset, s: int, setting: Setting) -> DecodeResult:
    """Scan every size-s support and return the loss minimizer.

    Candidates are visited in lexicographic order in fixed-size blocks;
    the result is the candidate minimizing (loss, support), so exact ties
    go to the lexicographically smallest sorted index tuple and the
    answer does not depend on block boundaries. Each block is ranked in
    Gram form and only the candidates within the proven margin of the
    lowest score so far are evaluated canonically; scanned counts every
    candidate ranked, not those evaluations. The Gram form is used where
    its two p x p planes fit the block budget (2 p^2 <= _CHUNK_ENTRIES);
    elsewhere every candidate is evaluated canonically. Refuses more
    than EXHAUSTIVE_CAP candidates; use decode_local_search for those.
    """
    p = dataset.p
    s = as_index(s, "s", low=1, high=p)
    total = exhaustive_candidates(p, s)
    w1, w2 = dataset.noise.block_weights(setting)
    HP = None
    if 2 * p * p <= _CHUNK_ENTRIES:
        gram = _GramForm(dataset, w1, w2)
        HP = np.empty((2, p, p))  # [H; P], formed in place; see _term_codes
        H, P = HP
        gram.rows(slice(None), H, P)  # P is scratch until its turn
        H *= 2.0  # read above the diagonal only
        H[np.diag_indices(p)] = d = gram.diag - 2.0 * gram.b
        np.add(d[:, None], H, out=P)
        P += d
        HP = HP.ravel()
        margin = gram.margin(s, s)
    chunk = max(16, min(4096, _CHUNK_ENTRIES // (s * max(dataset.n, s))))
    low, best = math.inf, None
    for cands, codes in _support_blocks(p, s, total, chunk):
        if HP is not None:
            keep, low = _screen(HP[codes].sum(axis=0), margin, low)
            if not keep.any():
                continue
            cands = cands[keep]
        # the first minimum in scan order is the lexicographically smallest
        losses = _canonical_losses(dataset, cands, w1, w2)
        k = int(np.argmin(losses))
        if best is None or losses[k] < best[0]:
            best = (float(losses[k]), tuple(cands[k].tolist()))
    return DecodeResult(support=best[1], loss=best[0], scanned=total, exhaustive=True)


def _random_starts(seed: int, first: int, stop: int, p: int, s: int) -> np.ndarray:
    """Sorted size-s starts of restarts first..stop-1, one row each.

    Restart r ranks the keys uniforms(derive(seed, r), p) stably and
    starts from the indices of its s smallest.
    """
    streams = rng.derive_vec(seed, np.arange(first, stop, dtype=np.uint64))
    keys = rng.uniforms_grid(streams, p)
    return np.sort(np.argsort(keys, axis=1, kind="stable")[:, :s], axis=1)


def _descend(dataset: MixedDataset, gram: _GramForm, margin: float, cur: np.ndarray,
             w1: float, w2: float) -> tuple[np.ndarray, int]:
    """Steepest single-swap descent of every start in `cur`, in lockstep.

    cur holds one sorted support per row and is updated in place; a
    restart whose step does not improve stops there. Returns the final
    canonical losses and the number of swaps ranked.
    """
    p, s = dataset.p, cur.shape[1]
    Xt = dataset.X.T
    # survivor rows per residual block: about four n-long arrays are live
    # per row, so a block stays within a quarter of the budget
    rows_per_block = max(1, _CHUNK_ENTRIES // (16 * dataset.n))
    loss = _canonical_losses(dataset, cur, w1, w2)
    active = np.arange(len(cur) if p > s else 0)
    # Gram rows formed so far, G_j at cache[slot[j]] where slot[j] >= 0: room for
    # a step's rows or a quarter of the budget, emptied when new rows do not fit
    cache = np.empty((min(p, max(s * len(cur), _CHUNK_ENTRIES // (4 * p))), p))
    slot = np.full(p, -1)
    filled = ranked = 0
    while active.size:
        ins = cur[active]
        on = np.arange(a := len(ins))[:, None]
        need = np.zeros(p, dtype=bool)
        need[ins] = True
        new = np.flatnonzero(need & (slot < 0))
        if filled + new.size > len(cache):
            slot[:], filled, new = -1, 0, np.flatnonzero(need)
        if new.size:
            slot[new] = np.arange(filled, filled + new.size)
            gram.rows(new, cache[filled : filled + new.size])
            filled += new.size
        # swap i out, j in: loss - cur_loss = G_ii + G_jj + 2c_i - 2c_j - 2G_ij
        # for every j; j in the support is no swap, so it is left out of
        # the lowest score and then of the survivors (+inf alone would pass
        # a non-finite margin). Every restart keeps its lowest score.
        scores = cache[slot[ins]]
        c = gram.b - scores.sum(axis=1)
        c += c
        u = (gram.diag + c)[on, ins]
        scores *= -2.0
        scores += u[:, :, None]
        scores += (gram.diag - c)[:, None, :]
        scores[on, :, ins] = math.inf
        keep = _screen(scores.reshape(a, s * p), margin)[0].reshape(a, s, p)
        keep[on, :, ins] = False
        who, row, come = np.nonzero(keep)
        ranked += a * s * (p - s)
        # survivors are evaluated on the incremental residual
        # (r0 + X_i) - X_j, so each step's choice is the one a full
        # evaluation of every swap on that residual would make
        gone = ins[who, row]
        resid0 = dataset.Y - np.add.reduce(Xt[ins], axis=1)
        losses = np.empty(who.size)
        for lo in range(0, who.size, rows_per_block):
            sl = slice(lo, lo + rows_per_block)
            resid = (resid0[who[sl]] + Xt[gone[sl]]) - Xt[come[sl]]
            losses[sl] = _candidate_losses(resid, dataset.noise.n1, w1, w2)
        # fold by (loss, support) per restart, survivors grouped by
        # restart; a minimum that does not improve stops it
        low = np.minimum.reduceat(losses, np.searchsorted(who, on[:, 0]))
        better = low < loss[active]
        improved = np.flatnonzero(better)
        if improved.size == 0:
            break
        tied = np.flatnonzero(better[who] & (losses == low[who]))
        owner = who[tied]
        step = ins[owner]
        step[np.arange(tied.size), row[tied]] = come[tied]
        step.sort(axis=1)
        # the smallest support among each restart's tied minima
        order = np.lexsort((*step.T[::-1], owner))
        moved, step = active[improved], step[order[np.searchsorted(owner[order], improved)]]
        # confirm each improvement on the canonical evaluation before
        # committing, so termination agrees with support_loss
        exact = _canonical_losses(dataset, step, w1, w2)
        ok = exact < loss[moved]
        active = moved[ok]
        cur[active] = step[ok]
        loss[active] = exact[ok]
    return loss, ranked


@np.errstate(over="ignore", invalid="ignore")
def decode_local_search(
    dataset: MixedDataset, s: int, setting: Setting, *, restarts: int = 8, seed: int = 0
) -> DecodeResult:
    """Steepest-descent single-swap search from random starts.

    Each restart draws a uniform size-s start from its own substream,
    then repeatedly applies the swap (one index out, one in) that lowers
    the loss most, until no swap improves; ties prefer the
    lexicographically smallest resulting support, within a step and
    across restarts. Deterministic in (dataset, seed, restarts). The
    returned support is swap-locally optimal but carries no global
    guarantee. Each step ranks its s * (p - s) swaps in Gram form and
    evaluates only those within the proven margin of the lowest score;
    scanned counts every swap ranked plus one start per restart, not the
    canonical evaluations. Restarts advance in lockstep, in blocks (see
    the module docstring); result and scanned are those of running the
    restarts one after another.
    """
    p = dataset.p
    s = as_index(s, "s", low=1, high=p)
    restarts = as_index(restarts, "restarts", low=1, high=COUNT_MAX)
    seed = as_index(seed, "seed")
    w1, w2 = dataset.noise.block_weights(setting)
    gram = _GramForm(dataset, w1, w2)
    margin = gram.margin(s, s + 2)
    # half the budget goes to a block's restarts, each holding its Gram
    # rows, gathered columns and residual, swap scores and survivor
    # indices at once; a quarter each to the row cache and the survivor
    # residual blocks (_descend)
    per_restart = (s + 2) * (p + dataset.n) + 10 * s * p
    block = max(1, _CHUNK_ENTRIES // (2 * per_restart))
    scanned = restarts  # one start per restart
    ends = []  # the (loss, support) minimum of each block of restarts
    for first in range(0, restarts, block):
        cur = _random_starts(seed, first, min(restarts, first + block), p, s)
        loss, ranked = _descend(dataset, gram, margin, cur, w1, w2)
        scanned += ranked
        k = np.lexsort((*cur.T[::-1], loss))[0]
        ends.append((float(loss[k]), tuple(cur[k].tolist())))
    best = min(ends)
    return DecodeResult(support=best[1], loss=best[0], scanned=scanned, exhaustive=False)
