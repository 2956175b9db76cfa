"""Tests for signals, noise profiles, dataset synthesis, and recovery metrics."""

import json
import math
import os

import numpy as np
import pytest

from sparsemix import (
    DataError,
    MixedDataset,
    NoiseProfile,
    Regime,
    ResourceCapError,
    SparseSignal,
    classify_regime,
    generate_dataset,
    load_dataset,
    save_dataset,
    sign_mismatches,
    signed_support_match,
    snr_report,
    support_error,
)


def make_signal(p=10, support=(1, 4), values=(1.0, -2.0)):
    return SparseSignal(p=p, support=support, values=values)


def test_sparse_signal_accessors():
    sig = make_signal()
    assert sig.s == 2
    assert sig.rho == 1.0
    assert not sig.is_binary
    dense = sig.dense()
    assert dense.shape == (10,)
    assert dense[1] == 1.0 and dense[4] == -2.0
    assert np.count_nonzero(dense) == 2
    assert SparseSignal(p=3, support=(0, 2), values=(1.0, 1.0)).is_binary


def test_sparse_signal_validation():
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(3, 1), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(1, 1), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(-1, 2), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(1, 5), values=(1.0, 1.0))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(1, 2), values=(1.0,))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(1, 2), values=(1.0, 0.0))
    with pytest.raises(ValueError):
        SparseSignal(p=5, support=(1, 2), values=(1.0, math.nan))
    with pytest.raises(ValueError):
        SparseSignal(p=0, support=(), values=())


def test_noise_profile_validation_and_average():
    prof = NoiseProfile(n1=3, n2=5, sigma1_sq=1.0, sigma2_sq=4.0)
    assert prof.n == 8
    assert math.isclose(prof.sigma_avg_sq, (3 * 1.0 + 5 * 4.0) / 8.0)
    rv = prof.row_variances()
    assert rv.shape == (8,)
    assert np.all(rv[:3] == 1.0) and np.all(rv[3:] == 4.0)
    # zero variance rows are legal, they model exact measurements
    NoiseProfile(n1=2, n2=2, sigma1_sq=0.0, sigma2_sq=0.0)
    with pytest.raises(ValueError):
        NoiseProfile(n1=-1, n2=2, sigma1_sq=1.0, sigma2_sq=1.0)
    with pytest.raises(ValueError):
        NoiseProfile(n1=0, n2=0, sigma1_sq=1.0, sigma2_sq=1.0)
    with pytest.raises(ValueError):
        NoiseProfile(n1=2, n2=2, sigma1_sq=4.0, sigma2_sq=1.0)
    with pytest.raises(ValueError):
        NoiseProfile(n1=2, n2=2, sigma1_sq=-1.0, sigma2_sq=1.0)


def test_generate_dataset_shapes_and_determinism():
    sig = make_signal()
    noise = NoiseProfile(n1=6, n2=10, sigma1_sq=0.5, sigma2_sq=2.0)
    ds1 = generate_dataset(sig, noise, seed=11)
    ds2 = generate_dataset(sig, noise, seed=11)
    ds3 = generate_dataset(sig, noise, seed=12)
    assert ds1.X.shape == (16, 10)
    assert ds1.Y.shape == (16,)
    assert np.array_equal(ds1.X, ds2.X) and np.array_equal(ds1.Y, ds2.Y)
    assert not np.array_equal(ds1.Y, ds3.Y)


def test_generate_dataset_noiseless_identity():
    sig = SparseSignal(p=4, support=(0,), values=(1.0,))
    noise = NoiseProfile(n1=3, n2=3, sigma1_sq=0.0, sigma2_sq=0.0)
    ds = generate_dataset(sig, noise, seed=7)
    assert np.array_equal(ds.Y, ds.X[:, 0])


def test_generate_dataset_design_stream_independent_of_noise():
    sig = make_signal()
    quiet = NoiseProfile(n1=5, n2=5, sigma1_sq=0.1, sigma2_sq=0.2)
    loud = NoiseProfile(n1=5, n2=5, sigma1_sq=1.0, sigma2_sq=9.0)
    a = generate_dataset(sig, quiet, seed=3)
    b = generate_dataset(sig, loud, seed=3)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.Y, b.Y)


def test_generate_dataset_block_noise_variances():
    sig = make_signal()
    noise = NoiseProfile(n1=1000, n2=1000, sigma1_sq=1.0, sigma2_sq=4.0)
    ds = generate_dataset(sig, noise, seed=17)
    resid = ds.Y - ds.X @ sig.dense()
    v1 = resid[:1000].var()
    v2 = resid[1000:].var()
    assert abs(v1 - 1.0) < 0.15
    assert abs(v2 - 4.0) < 0.6


def test_generate_dataset_entry_cap():
    sig = SparseSignal(p=10_000, support=(0,), values=(1.0,))
    noise = NoiseProfile(n1=10_000, n2=10_000, sigma1_sq=1.0, sigma2_sq=1.0)
    with pytest.raises(ResourceCapError):
        generate_dataset(sig, noise, seed=0, max_entries=1_000_000)


def test_mixed_dataset_validation():
    noise = NoiseProfile(n1=2, n2=2, sigma1_sq=1.0, sigma2_sq=1.0)
    X = np.zeros((4, 3))
    with pytest.raises(DataError):
        MixedDataset(X=X, Y=np.zeros(5), noise=noise)
    with pytest.raises(DataError):
        MixedDataset(X=np.zeros((3, 3)), Y=np.zeros(3), noise=noise)
    bad = X.copy()
    bad[0, 0] = math.inf
    with pytest.raises(DataError):
        MixedDataset(X=bad, Y=np.zeros(4), noise=noise)


def test_classify_regime_corners():
    assert classify_regime(100.0, 50.0) is Regime.HIGH_SNR
    assert classify_regime(0.05, 0.01) is Regime.LOW_SNR
    assert classify_regime(100.0, 0.05) is Regime.LOW_SNR2_HIGH_SNR1
    assert classify_regime(1.0, 0.5) is Regime.INTERMEDIATE
    # boundaries are inclusive
    assert classify_regime(50.0, 10.0) is Regime.HIGH_SNR
    assert classify_regime(0.1, 0.05) is Regime.LOW_SNR


def test_snr_report_values_and_ordering():
    noise = NoiseProfile(n1=4, n2=4, sigma1_sq=1.0, sigma2_sq=2.0)
    rep = snr_report(100, noise)
    assert math.isclose(rep.sigma_avg_sq, 1.5)
    assert math.isclose(rep.snr, 100.0 / 1.5)
    assert math.isclose(rep.snr1, 100.0)
    assert math.isclose(rep.snr2, 50.0)
    assert rep.regime is Regime.HIGH_SNR
    sig = SparseSignal(p=8, support=(0, 1, 2), values=(1.0, 1.0, 1.0))
    rep2 = snr_report(sig.s, noise)
    assert math.isclose(rep2.snr1, 3.0)
    # weighted average always sits between the block ratios
    for s in (1, 5, 40):
        for s1, s2 in ((0.5, 0.5), (0.2, 3.0), (1.0, 9.0)):
            n = NoiseProfile(n1=3, n2=7, sigma1_sq=s1, sigma2_sq=s2)
            r = snr_report(s, n)
            assert r.snr2 <= r.snr + 1e-12
            assert r.snr <= r.snr1 + 1e-12


def test_snr_report_zero_variance_gives_infinite_ratio():
    noise = NoiseProfile(n1=2, n2=2, sigma1_sq=0.0, sigma2_sq=1.0)
    rep = snr_report(5, noise)
    assert math.isinf(rep.snr1)
    assert math.isclose(rep.snr2, 5.0)
    assert rep.regime is Regime.INTERMEDIATE
    silent = NoiseProfile(n1=2, n2=2, sigma1_sq=0.0, sigma2_sq=0.0)
    rep2 = snr_report(5, silent)
    assert math.isinf(rep2.snr2)
    assert rep2.regime is Regime.HIGH_SNR


def test_support_error_counts_symmetric_difference():
    sig = make_signal(support=(1, 4))
    assert support_error((1, 4), sig.support) == 0
    assert support_error((1, 2), sig.support) == 2
    assert support_error((0, 2), sig.support) == 4
    assert support_error({4, 1}, sig.support) == 0
    assert support_error([2, 4], (1, 4)) == 2


def test_signed_support_match():
    sig = make_signal(support=(1, 4), values=(1.0, -2.0))
    good = np.zeros(10)
    good[1] = 0.3
    good[4] = -5.0
    assert signed_support_match(good, sig)
    assert sign_mismatches(good, sig) == 0
    flipped = good.copy()
    flipped[4] = 5.0
    assert not signed_support_match(flipped, sig)
    assert sign_mismatches(flipped, sig) == 1
    extra = good.copy()
    extra[7] = 1e-3
    assert not signed_support_match(extra, sig)
    assert sign_mismatches(extra, sig) == 1
    tiny = good.copy()
    tiny[7] = 1e-12
    assert signed_support_match(tiny, sig)
    assert sign_mismatches(tiny, sig) == 0
    missing = good.copy()
    missing[1] = 0.0
    assert not signed_support_match(missing, sig)
    assert sign_mismatches(missing, sig) == 1


def test_dataset_round_trip(tmp_path):
    sig = make_signal()
    noise = NoiseProfile(n1=4, n2=6, sigma1_sq=0.5, sigma2_sq=1.5)
    ds = generate_dataset(sig, noise, seed=23)
    out = str(tmp_path / "data")
    files = save_dataset(ds, out)
    names = {os.path.basename(f) for f in files}
    assert names == {"X.csv", "Y.csv", "meta.json"}
    back = load_dataset(out)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.Y, ds.Y)
    assert back.noise == ds.noise
    assert back.signal == ds.signal
    assert back.seed == ds.seed
    with open(os.path.join(out, "meta.json"), "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    assert meta["p"] == 10 and meta["s"] == 2
    # saving the loaded copy reproduces the files byte for byte
    out2 = str(tmp_path / "again")
    save_dataset(back, out2)
    for name in ("X.csv", "Y.csv", "meta.json"):
        with open(os.path.join(out, name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            second = fh.read()
        assert first == second
