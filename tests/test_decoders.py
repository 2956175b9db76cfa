"""Tests for the combinatorial subset decoders."""

import itertools
import math

import numpy as np
import pytest

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
from sparsemix.rng import derive


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


def test_informed_requires_positive_variances():
    ds = binary_dataset(8, (1, 3), 6, 6, 0.0, 2.0, seed=2)
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


def test_exhaustive_cap_mentions_local_search():
    ds = binary_dataset(30, (0, 1), 5, 5, 0.5, 1.0, seed=1)
    with pytest.raises(ResourceCapError) as info:
        decode_exhaustive(ds, 15, Setting.AGNOSTIC)
    assert "local" in str(info.value).lower()
    # an explicit cap argument is honored
    with pytest.raises(ResourceCapError):
        decode_exhaustive(ds, 3, Setting.AGNOSTIC, cap=100)


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
                descend(ds, decoders._random_support(derive(seed, r), 9, 3))
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
