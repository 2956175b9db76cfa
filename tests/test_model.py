"""Tests for signals, noise profiles, dataset synthesis, and recovery metrics."""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from sparsemix import (
    DataError,
    MixedDataset,
    NoiseProfile,
    Regime,
    ResourceCapError,
    Setting,
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
from sparsemix import rng
from sparsemix.model import write_lines


def make_signal(p=10, support=(1, 4), values=(1.0, -2.0)):
    return SparseSignal(p=p, support=support, values=values)


def test_sparse_signal_accessors():
    sig = make_signal()
    assert sig.s == 2
    assert sig.rho == 1.0
    dense = sig.dense()
    assert dense.shape == (10,)
    assert dense[1] == 1.0 and dense[4] == -2.0
    assert np.count_nonzero(dense) == 2


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
    # indices are integers: numpy integers pass as int, fractions are refused
    sig = SparseSignal(p=np.int64(5), support=(np.int32(0), np.uint8(2)), values=(1.0, 1.0))
    assert (sig.p, sig.support, type(sig.p), type(sig.support[1])) == (5, (0, 2), int, int)
    for kw in (dict(p=5.0), dict(p="5"), dict(support=(0.5, 2.7)), dict(support=(0, 2.0))):
        with pytest.raises(ValueError, match="must be an integer"):
            SparseSignal(**{"p": 5, "support": (0, 2), "values": (1.0, 1.0), **kw})


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
    # block sizes are counts: numpy integers pass as int, fractions are refused
    prof = NoiseProfile(n1=np.int64(3), n2=np.uint8(5), sigma1_sq=1.0, sigma2_sq=4.0)
    assert (prof.n1, prof.n2, type(prof.n)) == (3, 5, int)
    for n1, n2 in ((2.5, 3), (2, 3.0), ("2", 3)):
        with pytest.raises(ValueError, match="must be an integer"):
            NoiseProfile(n1=n1, n2=n2, sigma1_sq=1.0, sigma2_sq=4.0)


def test_block_weights_per_setting():
    prof = NoiseProfile(n1=3, n2=5, sigma1_sq=0.5, sigma2_sq=4.0)
    assert prof.block_weights(Setting.AGNOSTIC) == (1.0, 1.0)
    assert prof.block_weights(Setting.INFORMED) == (2.0, 0.25)
    silent = NoiseProfile(n1=2, n2=2, sigma1_sq=0.0, sigma2_sq=1.0)
    assert silent.block_weights(Setting.AGNOSTIC) == (1.0, 1.0)
    with pytest.raises(ValueError):
        silent.block_weights(Setting.INFORMED)
    with pytest.raises(ValueError):
        prof.block_weights("Informed-ish")


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


def test_generate_dataset_draws_the_rng_stream_tags():
    sig = make_signal()
    noise = NoiseProfile(n1=6, n2=10, sigma1_sq=0.5, sigma2_sq=2.0)
    ds = generate_dataset(sig, noise, seed=5)
    n, p = ds.X.shape
    x = rng.normals(rng.derive(5, rng.X_STREAM), n * p)
    w = rng.normals(rng.derive(5, rng.NOISE_STREAM), n)
    assert np.array_equal(ds.X.ravel(), x)
    assert np.array_equal(ds.Y, ds.X @ sig.dense() + w * np.sqrt(noise.row_variances()))


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
        generate_dataset(sig, noise, seed=0)


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


@pytest.mark.parametrize("field, value", [("p", 10.9), ("n1", 8.6), ("n2", 8.9)])
def test_load_dataset_refuses_fractional_counts(tmp_path, field, value):
    # a fractional count in meta.json is refused, not truncated to an int
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=0.5, sigma2_sq=1.5)
    out = str(tmp_path / "data")
    save_dataset(generate_dataset(make_signal(), noise, seed=1), out)
    meta_path = os.path.join(out, "meta.json")
    with open(meta_path, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump({**meta, field: value}, fh)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        load_dataset(out)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("lines, expected", [(["x", "y"], b"x\ny\n"), ([], b"")])
def test_write_lines_over_a_longer_file_leaves_only_the_new_bytes(tmp_path, lines, expected):
    path = str(tmp_path / "out.csv")
    write_lines(path, ["a long first version"] * 50)
    write_lines(path, lines)
    assert read_bytes(path) == expected


def test_write_lines_rewrites_a_symlink_target_and_keeps_the_link(tmp_path):
    target = tmp_path / "target.csv"
    link = tmp_path / "link.csv"
    write_lines(str(target), ["old", "content", "here"])
    os.symlink(target, link)
    write_lines(str(link), ["new"])
    assert os.path.islink(link)
    assert read_bytes(target) == b"new\n"


def test_write_lines_keeps_permission_bits(tmp_path):
    path = str(tmp_path / "out.csv")
    write_lines(path, ["first"])
    os.chmod(path, 0o640)
    write_lines(path, ["second"])
    assert os.stat(path).st_mode & 0o777 == 0o640
    assert read_bytes(path) == b"second\n"


def test_write_lines_keeps_the_prefix_when_the_iterable_raises(tmp_path):
    path = str(tmp_path / "out.csv")
    write_lines(path, ["a much longer stale line"] * 10)

    def lines():
        yield "only"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        write_lines(path, lines())
    assert read_bytes(path) == b"only\n"


def test_write_lines_takes_a_line_as_its_pieces(tmp_path):
    path = str(tmp_path / "out.csv")
    write_lines(path, ["a", iter(["b", "c", "d"]), ("e",), []])
    assert read_bytes(path) == b"a\nbcd\ne\n\n"


def test_save_dataset_streams_the_bytes_of_the_whole_text(tmp_path):
    # 2 x 40,000 design with 20,000 support indices: neither meta.json's
    # text nor an X.csv line is held whole, and the bytes are json.dumps's
    # and the comma-joined rows'
    p, s = 40_000, 20_000
    values = tuple((-1.0) ** i * (1.0 + i / 7.0) for i in range(s))
    sig = SparseSignal(p=p, support=tuple(range(0, p, 2)), values=values)
    noise = NoiseProfile(n1=1, n2=1, sigma1_sq=0.5, sigma2_sq=1.5)
    ds = generate_dataset(sig, noise, seed=3)
    out = tmp_path / "data"
    tracemalloc.start()
    try:
        save_dataset(ds, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    meta = {"p": p, "s": s, "n1": 1, "n2": 1, "sigma1_sq": 0.5, "sigma2_sq": 1.5,
            "seed": 3, "support": list(sig.support), "values": list(values)}
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    assert read_bytes(out / "meta.json") == text.encode()
    rows = "".join(",".join("%.17g" % x for x in row) + "\n" for row in ds.X)
    assert read_bytes(out / "X.csv") == rows.encode()


def test_save_dataset_over_a_larger_dataset_leaves_no_stale_rows(tmp_path):
    sig = make_signal()
    out = str(tmp_path / "data")
    big = generate_dataset(sig, NoiseProfile(n1=20, n2=30, sigma1_sq=0.5, sigma2_sq=1.5), seed=3)
    save_dataset(big, out)
    small = generate_dataset(sig, NoiseProfile(n1=2, n2=3, sigma1_sq=0.5, sigma2_sq=1.5), seed=4)
    save_dataset(small, out)
    back = load_dataset(out)
    assert np.array_equal(back.X, small.X)
    assert np.array_equal(back.Y, small.Y)
    assert back.noise == small.noise
    assert back.seed == small.seed
    fresh = str(tmp_path / "fresh")
    save_dataset(small, fresh)
    for name in ("X.csv", "Y.csv", "meta.json"):
        assert read_bytes(os.path.join(out, name)) == read_bytes(os.path.join(fresh, name))


def test_classify_regime_refuses_nan():
    # NaN fails every comparison, so a test written as `snr1 < snr2` let it through
    for snr1, snr2 in ((math.nan, math.nan), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            classify_regime(snr1, snr2)
    # a zero variance gives an infinite SNR, which stays allowed
    assert classify_regime(math.inf, math.inf) is Regime.HIGH_SNR
    assert classify_regime(math.inf, 0.05) is Regime.LOW_SNR2_HIGH_SNR1
