"""Tests for the combinatorial subset decoders."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sparsemix import (
    MixedDataset,
    NoiseProfile,
    ResourceCapError,
    Setting,
    SparseSignal,
    decode_exhaustive,
    decode_local_search,
    generate_dataset,
    support_loss,
)
from sparsemix import decoders
from sparsemix.rng import derive, uniforms


def random_support(seed, p, s):
    """Restart start: the s smallest of p stable-ranked uniform keys, sorted."""
    order = np.argsort(uniforms(seed, p), kind="stable")
    return tuple(sorted(int(i) for i in order[:s]))


def binary_dataset(p, support, n1, n2, s1, s2, seed):
    sig = SparseSignal(p=p, support=tuple(support), values=(1.0,) * len(support))
    noise = NoiseProfile(n1=n1, n2=n2, sigma1_sq=s1, sigma2_sq=s2)
    return generate_dataset(sig, noise, seed=seed)


def brute_force(ds, s, setting):
    """Reference minimizer of (loss, support) over every size-s support."""
    return min(
        (support_loss(ds, c, setting), c)
        for c in itertools.combinations(range(ds.p), s)
    )


def test_exhaustive_matches_brute_force_reference():
    for seed in range(6):
        ds = binary_dataset(9, (1, 4, 6), 10, 12, 0.5, 1.5, seed=seed)
        for setting in (Setting.AGNOSTIC, Setting.INFORMED):
            for s in (1, 2, 3):
                res = decode_exhaustive(ds, s, setting)
                assert (res.loss, res.support) == brute_force(ds, s, setting)


def test_exhaustive_tie_across_block_boundary(monkeypatch):
    # one-entry budget gives 16-row blocks; in lexicographic order (2, 5)
    # is candidate 15 (last of block 0) and its exact twin (5, 7), with
    # column 7 a copy of column 2, lies in block 1
    monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 1)
    rng = np.random.default_rng(12)
    X = rng.standard_normal((11, 8))
    X[:, 7] = X[:, 2]
    Y = X[:, 2] + X[:, 5]
    noise = NoiseProfile(n1=5, n2=6, sigma1_sq=0.5, sigma2_sq=2.0)
    ds = MixedDataset(X=X, Y=Y, noise=noise)
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        res = decode_exhaustive(ds, 2, setting)
        assert (res.loss, res.support) == (0.0, (2, 5))
        assert (res.loss, res.support) == brute_force(ds, 2, setting)


def test_exhaustive_recovers_noiseless_support():
    ds = binary_dataset(10, (2, 5, 9), 12, 13, 0.0, 0.0, seed=3)
    res = decode_exhaustive(ds, 3, Setting.AGNOSTIC)
    assert res.support == (2, 5, 9)
    assert res.loss == 0.0
    assert res.exhaustive
    assert res.scanned == math.comb(10, 3)


def test_exhaustive_loss_equals_support_loss_exactly():
    ds = binary_dataset(12, (0, 4, 7), 20, 20, 0.25, 1.0, seed=9)
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        res = decode_exhaustive(ds, 3, setting)
        assert res.loss == support_loss(ds, res.support, setting)
    # the winner never loses to the true support
    res_ag = decode_exhaustive(ds, 3, Setting.AGNOSTIC)
    assert res_ag.loss <= support_loss(ds, (0, 4, 7), Setting.AGNOSTIC)


def test_support_loss_matches_direct_formula():
    ds = binary_dataset(8, (1, 3), 6, 6, 0.5, 2.0, seed=21)
    resid = ds.Y - ds.X[:, [1, 3]].sum(axis=1)
    plain = float(resid @ resid)
    assert math.isclose(
        support_loss(ds, (1, 3), Setting.AGNOSTIC), plain, rel_tol=1e-12
    )
    weighted = float(resid[:6] @ resid[:6] / 0.5 + resid[6:] @ resid[6:] / 2.0)
    assert math.isclose(
        support_loss(ds, (1, 3), Setting.INFORMED), weighted, rel_tol=1e-12
    )
    # order of indices does not matter
    assert support_loss(ds, (3, 1), Setting.AGNOSTIC) == support_loss(
        ds, (1, 3), Setting.AGNOSTIC
    )


def test_support_loss_validation():
    ds = binary_dataset(8, (1, 3), 6, 6, 0.5, 2.0, seed=21)
    with pytest.raises(ValueError):
        support_loss(ds, (1, 1), Setting.AGNOSTIC)
    with pytest.raises(ValueError):
        support_loss(ds, (1, 8), Setting.AGNOSTIC)
    with pytest.raises(ValueError):
        support_loss(ds, (-1, 3), Setting.AGNOSTIC)
    # fractional indices are refused rather than truncated; numpy integers pass
    for bad in ((0.9, 1.2, 2.5), (1, 3.0), (1, "3")):
        with pytest.raises(ValueError, match="must be an integer"):
            support_loss(ds, bad, Setting.AGNOSTIC)
    assert support_loss(ds, (np.int64(1), np.uint8(3)), Setting.AGNOSTIC) == support_loss(
        ds, (1, 3), Setting.AGNOSTIC
    )


def test_informed_requires_positive_variances():
    # 1e-320 is positive, but its reciprocal weight overflows to inf
    for sigma1_sq in (0.0, 1e-320):
        ds = binary_dataset(8, (1, 3), 6, 6, sigma1_sq, 2.0, seed=2)
        with pytest.raises(ValueError):
            decode_exhaustive(ds, 2, Setting.INFORMED)
        decode_exhaustive(ds, 2, Setting.AGNOSTIC)


def test_tie_break_prefers_lexicographically_smallest():
    # columns 3 and 4 are byte-identical, so supports (0,3) and (0,4)
    # produce the same loss and the decoder must return (0,3)
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 6))
    X[:, 4] = X[:, 3]
    Y = X[:, 0] + X[:, 3]
    noise = NoiseProfile(n1=4, n2=5, sigma1_sq=1.0, sigma2_sq=1.0)
    ds = MixedDataset(X=X, Y=Y, noise=noise)
    res = decode_exhaustive(ds, 2, Setting.AGNOSTIC)
    assert res.support == (0, 3)
    assert res.loss == 0.0


def test_equal_variances_make_settings_agree():
    for seed in range(5):
        ds = binary_dataset(11, (1, 6, 8), 15, 15, 2.0, 2.0, seed=seed)
        ag = decode_exhaustive(ds, 3, Setting.AGNOSTIC)
        inf = decode_exhaustive(ds, 3, Setting.INFORMED)
        assert ag.support == inf.support
        assert math.isclose(inf.loss, ag.loss / 2.0, rel_tol=1e-12)


def test_column_permutation_equivariance():
    ds = binary_dataset(10, (2, 5), 12, 12, 0.3, 1.2, seed=31)
    perm = np.array([7, 0, 9, 3, 1, 8, 2, 6, 4, 5])
    ds_perm = MixedDataset(X=ds.X[:, perm], Y=ds.Y, noise=ds.noise)
    base = decode_exhaustive(ds, 2, Setting.INFORMED)
    moved = decode_exhaustive(ds_perm, 2, Setting.INFORMED)
    # position of old column j in the permuted matrix
    where = {int(perm[k]): k for k in range(10)}
    expect = tuple(sorted(where[j] for j in base.support))
    assert moved.support == expect
    assert math.isclose(moved.loss, base.loss, rel_tol=1e-12)


def test_candidate_count_is_the_binomial_until_the_cap(monkeypatch):
    monkeypatch.setattr(decoders, "EXHAUSTIVE_CAP", 10**6)
    for p in range(0, 40):
        for s in range(0, p + 1):
            if math.comb(p, s) <= decoders.EXHAUSTIVE_CAP:
                assert decoders.exhaustive_candidates(p, s) == math.comb(p, s)
            else:
                with pytest.raises(ResourceCapError, match=rf"^C\({p}, {s}\) candidate"):
                    decoders.exhaustive_candidates(p, s)
    # a count past the cap is refused without forming it: C(10**8, 5 * 10**7)
    # has 30 million digits, and forming C(10**6, 5 * 10**5) took seconds
    with pytest.raises(ResourceCapError):
        decoders.exhaustive_candidates(10**8, 5 * 10**7)
    assert decoders.exhaustive_candidates(10**8, 10**8) == 1


def test_exhaustive_cap_mentions_local_search(monkeypatch):
    ds = binary_dataset(30, (0, 1), 5, 5, 0.5, 1.0, seed=1)
    with pytest.raises(ResourceCapError) as info:
        decode_exhaustive(ds, 15, Setting.AGNOSTIC)
    assert "local" in str(info.value).lower()
    # the cap is read at call time
    monkeypatch.setattr(decoders, "EXHAUSTIVE_CAP", 100)
    with pytest.raises(ResourceCapError):
        decode_exhaustive(ds, 3, Setting.AGNOSTIC)


def test_local_search_matches_exhaustive_usually():
    hits = 0
    trials = 100
    for seed in range(trials):
        ds = binary_dataset(12, (1, 5, 9), 30, 30, 0.25, 0.5, seed=seed)
        full = decode_exhaustive(ds, 3, Setting.AGNOSTIC)
        local = decode_local_search(ds, 3, Setting.AGNOSTIC, restarts=1, seed=0)
        assert not local.exhaustive
        assert local.scanned > 0
        # the global optimum can never beat itself
        assert local.loss >= full.loss - 1e-12
        if local.support == full.support:
            hits += 1
    assert hits >= 90


def test_local_search_returns_a_local_optimum():
    for seed in (0, 1, 2):
        ds = binary_dataset(10, (0, 3, 7), 14, 14, 0.5, 1.5, seed=seed)
        res = decode_local_search(ds, 3, Setting.AGNOSTIC, restarts=2, seed=4)
        chosen = set(res.support)
        for out in res.support:
            for cand in range(10):
                if cand in chosen:
                    continue
                swapped = tuple(sorted((chosen - {out}) | {cand}))
                assert support_loss(ds, swapped, Setting.AGNOSTIC) >= res.loss - 1e-9


def test_local_search_swap_ties_go_to_smallest_support():
    # small-integer data makes every sum exact, so mathematically equal
    # losses tie bitwise, also between swaps that remove different indices;
    # duplicated columns add ties the reference descent breaks by the
    # smallest (loss, support)
    def descend(ds, start):
        cur, cur_loss = start, support_loss(ds, start, Setting.AGNOSTIC)
        while True:
            step = min(
                (support_loss(ds, c, Setting.AGNOSTIC), c)
                for c in {
                    tuple(sorted(set(cur) - {i} | {j}))
                    for i in cur
                    for j in range(ds.p)
                    if j not in cur
                }
            )
            if step[0] >= cur_loss:
                return cur_loss, cur
            cur_loss, cur = step

    for seed in range(25):
        rng = np.random.default_rng(seed)
        X = rng.integers(-1, 2, size=(12, 9)).astype(float)
        X[:, 6] = X[:, 1]
        X[:, 8] = X[:, 3]
        Y = X[:, [1, 3, 4]].sum(axis=1) + rng.integers(-1, 2, size=12)
        noise = NoiseProfile(n1=6, n2=6, sigma1_sq=1.0, sigma2_sq=1.0)
        ds = MixedDataset(X=X, Y=Y, noise=noise)
        for restarts in (1, 3):
            res = decode_local_search(
                ds, 3, Setting.AGNOSTIC, restarts=restarts, seed=seed
            )
            want = min(
                descend(ds, random_support(derive(seed, r), 9, 3))
                for r in range(restarts)
            )
            assert (res.loss, res.support) == want


def test_local_search_deterministic_and_seed_sensitive():
    ds = binary_dataset(16, (2, 9, 13), 25, 25, 0.5, 2.0, seed=8)
    a = decode_local_search(ds, 3, Setting.AGNOSTIC, restarts=3, seed=11)
    b = decode_local_search(ds, 3, Setting.AGNOSTIC, restarts=3, seed=11)
    assert a == b
    # more restarts can only improve the best loss found
    wide = decode_local_search(ds, 3, Setting.AGNOSTIC, restarts=8, seed=11)
    assert wide.loss <= a.loss + 1e-12


def test_decode_input_validation():
    ds = binary_dataset(8, (1, 3), 6, 6, 0.5, 2.0, seed=21)
    for bad_s in (0, -1, 9):
        with pytest.raises(ValueError):
            decode_exhaustive(ds, bad_s, Setting.AGNOSTIC)
        with pytest.raises(ValueError):
            decode_local_search(ds, bad_s, Setting.AGNOSTIC)


# Reference decoders that evaluate every candidate canonically, as the scan
# did before Gram-form screening: full residual blocks in lexicographic
# chunks for the exhaustive scan, the full (s, p - s) swap block per step
# for local search.


def fold_best(best, losses, support_of):
    """The smaller of `best` and the (loss, support) minimum of a block.

    support_of(k) gives the sorted support of flat entry k of `losses`;
    it is called only for the entries tied at the block minimum.
    """
    lo = losses.min()
    tied = min(support_of(int(k)) for k in np.flatnonzero(losses == lo))
    cand = (float(lo), tied)
    return cand if best is None or cand < best else best


def reference_exhaustive(ds, s, setting):
    w1, w2 = ds.noise.block_weights(setting)
    combos = list(itertools.combinations(range(ds.p), s))
    chunk = max(16, min(4096, decoders._CHUNK_ENTRIES // max(1, s * ds.n)))
    best = None
    for start in range(0, len(combos), chunk):
        cands = np.array(combos[start : start + chunk], dtype=np.intp)
        resid = ds.Y - np.add.reduce(ds.X.T[cands], axis=1)
        losses = decoders._candidate_losses(resid, ds.noise.n1, w1, w2)
        best = fold_best(best, losses, lambda k: combos[start + k])
    return decoders.DecodeResult(best[1], best[0], len(combos), True)


def reference_local_search(ds, s, setting, restarts, seed):
    w1, w2 = ds.noise.block_weights(setting)
    Xt, p, m = ds.X.T, ds.p, ds.p - s
    scanned, best = 0, None
    for r in range(restarts):
        cur = random_support(derive(seed, r), p, s)
        cur_loss = support_loss(ds, cur, setting)
        scanned += 1
        while m > 0:
            resid0 = ds.Y - np.add.reduce(Xt[list(cur)], axis=0)
            outs = [j for j in range(p) if j not in cur]
            losses = np.empty((s, m))
            for row, i in enumerate(cur):
                resid = (resid0 + Xt[i]) - Xt[outs]
                losses[row] = decoders._candidate_losses(resid, ds.noise.n1, w1, w2)
            scanned += losses.size

            def swapped(k):
                row, col = divmod(k, m)
                return tuple(sorted(cur[:row] + cur[row + 1 :] + (outs[col],)))

            step = fold_best(None, losses.ravel(), swapped)
            if step[0] >= cur_loss:
                break
            exact = support_loss(ds, step[1], setting)
            if exact >= cur_loss:
                break
            cur, cur_loss = step[1], exact
        best = fold_best(best, np.array([cur_loss]), lambda _: cur)
    return decoders.DecodeResult(best[1], best[0], scanned, False)


def key(res):
    return res.support, res.loss.hex(), res.scanned, res.exhaustive


def assert_matches_reference(ds, s, restarts=(1, 3, 9), seed=0):
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        assert key(decode_exhaustive(ds, s, setting)) == key(
            reference_exhaustive(ds, s, setting)
        )
        for r in restarts:
            got = decode_local_search(ds, s, setting, restarts=r, seed=seed)
            assert key(got) == key(reference_local_search(ds, s, setting, r, seed))


def two_block(X, Y, n1, s1=0.5, s2=2.0):
    noise = NoiseProfile(n1=n1, n2=X.shape[0] - n1, sigma1_sq=s1, sigma2_sq=s2)
    return MixedDataset(X=X, Y=Y, noise=noise)


def test_screened_decoders_match_the_residual_reference():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        # random binary instances, including s = p and fewer rows than
        # the support has indices (n = 2)
        ds = binary_dataset(11, (1, 4, 8), 7, 9, 0.3, 1.2, seed=seed)
        assert_matches_reference(ds, 1 + seed % 4, seed=seed)
        tiny = two_block(rng.standard_normal((2, 6)), rng.standard_normal(2), 1)
        assert_matches_reference(tiny, 2 + seed % 4, seed=seed)
        assert_matches_reference(tiny, 6, seed=seed)
        # exact and near-duplicate columns
        X = rng.standard_normal((14, 10))
        X[:, 7] = X[:, 2]
        X[:, 9] = X[:, 4] + 1e-13 * rng.standard_normal(14)
        Y = X[:, [2, 4, 5]].sum(axis=1) + 0.3 * rng.standard_normal(14)
        assert_matches_reference(two_block(X, Y, 6), 3, seed=seed)
        # small integers: every tie is exact, also across removed indices
        X = rng.integers(-1, 2, size=(12, 9)).astype(float)
        X[:, 6] = X[:, 1]
        Y = X[:, [1, 3, 4]].sum(axis=1) + rng.integers(-1, 2, size=12)
        assert_matches_reference(two_block(X, Y, 6, 1.0, 1.0), 3, seed=seed)
        # columns twelve orders of magnitude apart
        X = rng.standard_normal((16, 12)) * 10.0 ** rng.integers(-6, 7, size=12)
        Y = X[:, [0, 3, 6]].sum(axis=1) + rng.standard_normal(16)
        assert_matches_reference(two_block(X, Y, 7, 1e-3, 10.0), 3, seed=seed)


@st.composite
def decoder_cases(draw):
    """A small dataset, its support size, restarts, seed and block budget.

    s runs from 1 to 6, odd and even, up to s = p. The data are standard
    normal, small integers (every tie exact) or normal scaled near 2^512,
    where some losses overflow; copied columns add exact ties. The budget
    splits scan blocks and restart blocks down to one entry. A sixth of
    the cases send 24 restarts at p = 13 toward one planted support of 6
    normal columns with a budget of one entry, which leaves local search a
    row cache of s rows, emptied at nearly every step; in some descents an
    index swapped out comes back after its row was dropped.
    """
    long = draw(st.integers(0, 5)) == 0
    p = 13 if long else draw(st.integers(1, 9))
    s = 6 if long else draw(st.integers(1, min(6, p)))
    n = draw(st.integers(4, 6) if long else st.integers(1, 12))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = "normal" if long else draw(st.sampled_from(["normal", "integer", "huge"]))
    if kind == "integer":
        X = gen.integers(-2, 3, size=(n, p)).astype(float)
        noise = gen.integers(-1, 2, size=n).astype(float)
    else:
        X = gen.standard_normal((n, p))
        noise = 0.3 * gen.standard_normal(n)
    for dst, src in draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=2)):
        X[:, dst] = X[:, src]
    Y = X[:, gen.choice(p, s, replace=False)].sum(axis=1) + noise
    if kind == "huge":
        scale = 2.0 ** draw(st.integers(480, 515))
        X, Y = X * scale, Y * scale
    ds = two_block(X, Y, draw(st.integers(0, n)), *draw(st.sampled_from([(0.5, 2.0), (1.0, 1.0), (0.25, 3.0)])))
    budget = 1 if long else draw(st.sampled_from([1, 1 << 8, 1 << 10, decoders._CHUNK_ENTRIES]))
    restarts = (24,) if long else draw(st.sampled_from([(1,), (2, 5)]))
    return ds, s, restarts, draw(st.integers(0, 2**64 - 1)), budget


@given(decoder_cases())
def test_decoders_match_the_references_on_drawn_cases(case):
    # (support, loss.hex(), scanned, exhaustive) in both settings; the
    # references evaluate overflowing losses unguarded
    ds, s, restarts, seed, budget = case
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        patch.setattr(decoders, "_CHUNK_ENTRIES", budget)
        assert_matches_reference(ds, s, restarts=restarts, seed=seed)


def test_screened_scan_matches_the_reference_in_small_blocks(monkeypatch):
    # 1 << 10 entries keep the Gram form (2 p * p <= 1024) with 16-row blocks
    # and a streamed support table; one entry turns screening off. A copied
    # column puts exact ties on both sides of block boundaries. Both budgets
    # split local search's 3 and 9 restarts into several lockstep blocks.
    blocks = []
    descend = decoders._descend

    def counted(dataset, gram, margin, cur, w1, w2):
        blocks.append(len(cur))
        return descend(dataset, gram, margin, cur, w1, w2)

    monkeypatch.setattr(decoders, "_descend", counted)
    for budget in (1 << 10, 1):
        monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", budget)
        for seed in range(12):
            rng = np.random.default_rng(200 + seed)
            X = rng.standard_normal((11, 9))
            a, b = sorted(rng.choice(9, 2, replace=False).tolist())
            X[:, b] = X[:, a]
            Y = X[:, [a, (a + 3) % 9]].sum(axis=1)
            if seed % 3:
                Y = Y + 0.2 * rng.standard_normal(11)
            blocks.clear()
            assert_matches_reference(two_block(X, Y, 5), 2 + seed % 3, seed=seed)
            # restarts 1, 3 and 9 in both settings, at most 2 per block
            assert sum(blocks) == 2 * 13 and max(blocks) <= 2


def test_screened_decoders_match_the_reference_across_panels():
    # a block longer than one 8192-row panel takes the Kahan-combined path
    n1 = decoders._PANEL + 900
    ds = binary_dataset(7, (1, 4), n1, 300, 0.5, 2.0, seed=4)
    assert_matches_reference(ds, 2, restarts=(2,), seed=1)


def test_gram_screen_needs_its_margin():
    # column 1 is column 0 scaled by 1e8 and column 2 a near copy of it:
    # supports holding 1 or 2 differ in loss by less than the rounding of
    # either evaluation, so the Gram-form order and the canonical order
    # disagree there, and a screen without its margin keeps the wrong one
    for seed in (3, 6, 11, 22):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((12, 8))
        X[:, 1] = X[:, 0] * 1e8
        X[:, 2] = X[:, 1] + rng.standard_normal(12) * 1e-7
        Y = X[:, 1] + X[:, 3] + rng.standard_normal(12) * 1e-3
        assert_matches_reference(two_block(X, Y, 5, 1.0, 3.0), 2, restarts=(4,), seed=seed)


def test_exhaustive_scan_memory_stays_within_the_block_budget():
    # 376,740 candidates: a cached or materialized table of them would take
    # 18 MB, more than one block budget of _CHUNK_ENTRIES float64 values
    ds = binary_dataset(28, (2, 7, 11, 19, 23, 26), 8, 12, 0.5, 2.0, seed=5)
    tracemalloc.start()
    try:
        res = decode_exhaustive(ds, 6, Setting.INFORMED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.scanned == math.comb(28, 6)
    assert peak < decoders._CHUNK_ENTRIES * 8


def test_exhaustive_gram_planes_are_counted_in_the_block_budget(monkeypatch):
    # the two p x p planes [H; P] take exactly a budget of 2 p^2 entries, and
    # the candidate blocks' canonical checks add to them; G, 2 G and the two
    # planes built as copies would peak at twice the budget
    ds = binary_dataset(128, (3, 7), 10, 10, 0.5, 2.0, seed=5)
    monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", 2 * 128 * 128)
    decode_exhaustive(ds, 2, Setting.INFORMED)  # warm the support table's cache
    tracemalloc.start()
    try:
        res = decode_exhaustive(ds, 2, Setting.INFORMED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.support == (3, 7)
    assert peak < 1.5 * decoders._CHUNK_ENTRIES * 8


def test_local_search_restarts_that_stop_at_once_and_ones_that_descend():
    # noiseless data: a restart starting on the true support (0, 1) is
    # already optimal and stops at step 0, while the others keep descending
    X = np.random.default_rng(7).standard_normal((10, 5))
    ds = two_block(X, X[:, 0] + X[:, 1], 4)
    starts = [random_support(derive(3, r), 5, 2) for r in range(9)]
    assert 0 < starts.count((0, 1)) < 9
    assert_matches_reference(ds, 2, seed=3)
    res = decode_local_search(ds, 2, Setting.AGNOSTIC, restarts=9, seed=3)
    assert (res.support, res.loss) == ((0, 1), 0.0)
    # each restart ranks at least its first step's 6 swaps
    assert res.scanned > 9 + 9 * 6


def test_local_search_with_s_equal_to_p_ranks_no_swap():
    rng = np.random.default_rng(8)
    ds = two_block(rng.standard_normal((7, 4)), rng.standard_normal(7), 3)
    assert_matches_reference(ds, 4, seed=5)
    res = decode_local_search(ds, 4, Setting.INFORMED, restarts=9, seed=5)
    assert res.support == (0, 1, 2, 3)
    assert res.scanned == 9


def test_local_search_memory_stays_within_the_block_budget():
    # 4096 restarts take several lockstep blocks; run as one batch, their
    # Gram rows, swap scores and survivor indices alone would exceed the
    # budget of _CHUNK_ENTRIES float64 values
    ds = binary_dataset(24, (2, 7, 11, 19), 10, 10, 0.5, 2.0, seed=5)
    tracemalloc.start()
    try:
        res = decode_local_search(ds, 4, Setting.INFORMED, restarts=4096, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.scanned > 4096 * (1 + 4 * 20)
    assert peak < decoders._CHUNK_ENTRIES * 8


def overflowing_design():
    # one block longer than a panel; column 3 holds 1e200, so its loss
    # overflows and the Kahan step meets inf - inf, while column 0 fits
    # Y exactly
    X = np.random.default_rng(0).standard_normal((8202, 4))
    X[0, 3] = 1e200
    return two_block(X, X[:, 0].copy(), 8202)


def test_an_overflowed_loss_ranks_last_in_the_exhaustive_scan(monkeypatch):
    ds = overflowing_design()
    assert support_loss(ds, (3,), Setting.AGNOSTIC) == math.inf

    def nan_last(c):
        loss = support_loss(ds, c, Setting.AGNOSTIC)
        return (math.inf if math.isnan(loss) else loss), c

    want = min(nan_last((j,)) for j in range(4))
    assert want == (0.0, (0,))
    for budget in (decoders._CHUNK_ENTRIES, 1024, 1):
        monkeypatch.setattr(decoders, "_CHUNK_ENTRIES", budget)
        res = decode_exhaustive(ds, 1, Setting.AGNOSTIC)
        assert (res.loss, res.support) == want


def test_an_overflowed_swap_does_not_stop_local_search():
    ds = overflowing_design()
    for seed in range(6):
        res = decode_local_search(ds, 1, Setting.AGNOSTIC, restarts=1, seed=seed)
        assert (res.support, res.loss, res.scanned) == ((0,), 0.0, 7)


# the reference decoders call the unguarded loss routines directly
@pytest.mark.filterwarnings(
    "ignore:overflow encountered", "ignore:invalid value encountered"
)
def test_screened_decoders_match_the_reference_on_an_overflowed_loss():
    assert_matches_reference(overflowing_design(), 1)


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_decoders_do_not_warn_about_an_overflow_they_handle(setting):
    # the overflowed loss ranks last by design, so numpy's overflow and
    # invalid-value warnings on the way to it are not shown to the caller
    ds = overflowing_design()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert support_loss(ds, (3,), setting) == math.inf
        assert decode_exhaustive(ds, 1, setting).support == (0,)
        assert decode_local_search(ds, 1, setting, restarts=3).support == (0,)
