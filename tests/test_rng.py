"""Tests for the counter-based random number generator.

The generator documents an exact bit-level contract (splitmix64 words,
top-53-bit uniforms, Box-Muller pairs), so most tests here compare
against small reference implementations written with plain Python
integers rather than against recorded outputs.
"""

import hashlib
import math
import os
import random
import re
import select
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from sparsemix import (ChernoffQuery, ExperimentConfig, chernoff, emit_outputs, rng, run_sweep,
                       summarize, unit_misrank)

GOLDEN = 0x9E3779B97F4A7C15
MASK = (1 << 64) - 1


def splitmix64_reference(seed, count):
    """Reference splitmix64 stream using only Python integers."""
    out = []
    x = seed & MASK
    for _ in range(count):
        x = (x + GOLDEN) & MASK
        z = x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_words_match_splitmix64_reference():
    for seed in (0, 1, 42, 2**63, MASK):
        got = rng.raw_words(seed, 8)
        want = splitmix64_reference(seed, 8)
        assert [int(w) for w in got] == want


def test_raw_words_rejects_negative_count():
    try:
        rng.raw_words(3, -1)
    except ValueError:
        pass
    else:
        raise AssertionError("negative count must raise")


def test_uniforms_are_top_53_bits_in_open_interval():
    seed = 31337
    words = rng.raw_words(seed, 1000)
    u = rng.uniforms(seed, 1000)
    expect = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert np.array_equal(u, expect)
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_uniform_moments():
    u = rng.uniforms(2024, 200000)
    assert abs(u.mean() - 0.5) < 0.005
    assert abs(u.var() - 1.0 / 12.0) < 0.002


def test_normals_deterministic_and_seed_sensitive():
    a = rng.normals(5, 64)
    b = rng.normals(5, 64)
    c = rng.normals(6, 64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_normals_moments():
    z = rng.normals(99, 200000)
    assert abs(z.mean()) < 0.02
    assert abs(z.var() - 1.0) < 0.02
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(lag1) < 0.02
    frac_neg = np.mean(z < 0.0)
    assert 0.49 < frac_neg < 0.51


def test_normals_box_muller_pair_identity():
    seed = 777
    z = rng.normals(seed, 40)
    u = rng.uniforms(seed, 40)
    for j in range(20):
        r_sq = z[2 * j] ** 2 + z[2 * j + 1] ** 2
        assert math.isclose(r_sq, -2.0 * math.log(u[2 * j]), rel_tol=1e-9)


def box_muller_reference(seeds, count):
    """The module docstring's normals on whole arrays: no tiles, no buffers."""
    seeds = np.asarray(seeds, dtype=np.uint64)
    npairs = (count + 1) // 2
    k = np.arange(1, 2 * npairs + 1, dtype=np.uint64)
    x = seeds[:, None] + k * np.uint64(GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    u = ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    a = (2.0 * np.pi) * u[:, 1::2]
    out = np.empty((len(seeds), 2 * npairs))
    out[:, 0::2] = r * np.cos(a)
    out[:, 1::2] = r * np.sin(a)
    return out[:, :count]


TILE_EDGE = 2 * rng._TILE  # normals in one full tile


@pytest.mark.parametrize(
    "count",
    [0, 1, 2, 3, 1001, TILE_EDGE - 1, TILE_EDGE, TILE_EDGE + 1, 5 * TILE_EDGE + 7,
     16383, 16384, 16385, 81927],  # the edges of the earlier 2**13-pair tiles
)
def test_normals_equal_the_untiled_definition_bit_for_bit(count):
    for seed in (0, 2**64 - 1, rng.derive(9, rng.X_STREAM)):
        got = rng.normals(seed, count)
        want = box_muller_reference([seed], count)[0]
        assert got.shape == (count,)
        assert np.array_equal(got, want)


def test_normals_grid_equals_the_untiled_definition_bit_for_bit():
    seeds = rng.derive_vec(17, np.arange(2 * rng._TILE + 3, dtype=np.uint64))
    for count in (0, 1, 2, 39, 40, 2 * rng._TILE + 3):
        pairs_per_row = min(max((count + 1) // 2, 1), rng._TILE)
        row_tile = rng._TILE // pairs_per_row
        # one row, one row past a row tile, and two row tiles plus a partial one
        for rows in (1, row_tile + 1, 2 * row_tile + 3):
            got = rng.normals_grid(seeds[:rows], count)
            assert got.shape == (rows, count)
            assert np.array_equal(got, box_muller_reference(seeds[:rows], count))


def test_normals_allocate_little_beyond_their_output():
    # untiled Box-Muller peaks at 3.5x the output in whole-draw temporaries
    seeds = rng.derive_vec(5, np.arange(4096, dtype=np.uint64))
    for draw, limit in (
        (lambda: rng.normals(3, 1_500_000), 1.25),
        (lambda: rng.normals_grid(seeds, 40), 2.0),
    ):
        tracemalloc.start()
        try:
            out = draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit * out.nbytes


def test_a_tile_allocates_no_cast_buffer(monkeypatch):
    # _unit casts a tile's words to doubles by np.copyto; np.add on their
    # int64 view allocated a 64 KB cast buffer in every tile
    monkeypatch.setattr(rng, "_cpus", lambda: 1)  # one thread fills the tile
    seeds = rng.derive_vec(5, np.arange(819, dtype=np.uint64))
    for draw, pairs in (
        (lambda: rng.normals(3, 2 * rng._TILE), rng._TILE),
        (lambda: rng.normals_grid(seeds, 40), 819 * 20),
    ):
        draw()
        tracemalloc.start()
        try:
            out = draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the output: the tile's uint64 and float64 buffers, 2 words per pair
        assert peak - out.nbytes - 32 * pairs < 32 * 1024


def spy_fills(monkeypatch, cpus):
    """Pretend `cpus` CPUs are usable; return the list that gets the id of
    the thread of every _fill call."""
    fills, fill = [], rng._fill

    def fill_spy(out, seeds, first):
        fills.append(threading.get_ident())
        fill(out, seeds, first)

    monkeypatch.setattr(rng, "_cpus", lambda: cpus)
    monkeypatch.setattr(rng, "_fill", fill_spy)
    return fills


SPLIT_EDGE = 4 * rng._SPLIT  # normals in the smallest draw that splits


@pytest.mark.parametrize(
    "rows, count",
    [(1, SPLIT_EDGE - 1), (1, SPLIT_EDGE), (1, SPLIT_EDGE + 1), (1, 5 * SPLIT_EDGE + 3),
     (1, 1_500_000), (2 * rng._SPLIT // 20 + 2, 40), (2 * rng._SPLIT // 20 + 2, 39),
     (2 * rng._TILE + 3, 1), (3, SPLIT_EDGE + 1), (5, 7777)],
)
def test_split_draws_equal_serial_draws_bit_for_bit(monkeypatch, rows, count):
    seeds = rng.derive_vec(23, np.arange(rows, dtype=np.uint64))
    draws = {}
    for cpus in (1, 2):
        fills = spy_fills(monkeypatch, cpus)
        if rows == 1:
            draws[cpus] = rng.normals(int(seeds[0]), count)
        else:
            draws[cpus] = rng.normals_grid(seeds, count)
        splits = cpus == 2 and rows * ((count + 1) // 2) >= 2 * rng._SPLIT
        assert len(set(fills)) == len(fills) == 1 + splits
    assert draws[1].tobytes() == draws[2].tobytes()
    assert np.array_equal(draws[2].reshape(rows, count), box_muller_reference(seeds, count))


def test_import_starts_no_thread_and_small_draws_start_none():
    script = (
        "import sys, threading\n"
        "from sparsemix import rng\n"
        "def facts():\n"
        "    print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
        "facts()\n"
        "rng._cpus = lambda: 2\n"
        "rng.normals(1, 4 * rng._SPLIT - 2)\n"
        "facts()\n"
        "rng.normals(1, 4 * rng._SPLIT)\n"
        "facts()\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(rng.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:3] == ["1 False", "1 False", "2 True"]


def test_a_draw_on_the_worker_thread_fills_serially(monkeypatch):
    # a draw on the worker that split would wait for its own queue forever;
    # the child runs the sampler too, whose batches reach the worker, at
    # rows on both sides of rng's split
    rows = (1, 16, 20, 2 * rng._SPLIT - 1, 2 * rng._SPLIT, 2 * rng._SPLIT + 1)
    script = (
        "import hashlib, sys\n"
        "from sparsemix import ChernoffQuery, chernoff, rng, unit_misrank\n"
        "rng._cpus = lambda: 2\n"
        "draw = rng._worker().submit(rng.normals, 1, 4 * rng._SPLIT).result(timeout=60)\n"
        "print(hashlib.sha256(draw.tobytes()).hexdigest())\n"
        f"for n in {rows!r}:\n"
        "    q = ChernoffQuery('Agnostic', n // 3, n - n // 3, 0.5, 2.0, 4)\n"
        "    print(unit_misrank(q, 2 * chernoff._batch(n) + 1, n).estimate.hex())\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(rng.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setattr(rng, "_cpus", lambda: 1)
    want = [hashlib.sha256(rng.normals(1, 4 * rng._SPLIT).tobytes()).hexdigest()]
    for n in rows:
        q = ChernoffQuery("Agnostic", n // 3, n - n // 3, 0.5, 2.0, 4)
        want.append(unit_misrank(q, 2 * chernoff._batch(n) + 1, n).estimate.hex())
    assert proc.stdout.split() == want


def test_a_raise_in_the_workers_half_reaches_the_caller(monkeypatch):
    fill = rng._fill

    def failing_fill(out, seeds, first):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker half")
        fill(out, seeds, first)

    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    monkeypatch.setattr(rng, "_fill", failing_fill)
    assert threading.current_thread() is threading.main_thread()
    with pytest.raises(FloatingPointError, match="worker half"):
        rng.normals(4, SPLIT_EDGE)
    monkeypatch.setattr(rng, "_fill", fill)
    assert np.array_equal(rng.normals(4, SPLIT_EDGE), box_muller_reference([4], SPLIT_EDGE)[0])


def test_a_raise_in_the_callers_half_waits_for_the_workers_half(monkeypatch):
    fill, worker_done = rng._fill, threading.Event()

    def slow_worker_fill(out, seeds, first):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("caller half")
        time.sleep(0.2)  # still writing long after the caller's half raised
        fill(out, seeds, first)
        worker_done.set()

    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    monkeypatch.setattr(rng, "_fill", slow_worker_fill)
    with pytest.raises(FloatingPointError, match="caller half"):
        rng.normals(4, SPLIT_EDGE)
    assert worker_done.is_set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.filterwarnings("ignore:.*multi-threaded.*fork:DeprecationWarning")
def test_a_forked_child_draws_again(monkeypatch):
    fills = spy_fills(monkeypatch, 2)

    def digest():
        return hashlib.sha256(rng.normals(8, 3 * SPLIT_EDGE + 1).tobytes()).hexdigest()

    want = digest()
    assert len(set(fills)) == 2  # the worker thread exists
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: only this thread survives the fork
        code = 1
        try:
            os.write(write, digest().encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        ready = select.select([read], [], [], 60.0)[0]
        got = os.read(read, 64).decode() if ready else "timed out"
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, 9)
        _, status = os.waitpid(pid, 0)
    assert got == want
    assert os.waitstatus_to_exitcode(status) == 0


def test_concurrent_callers_get_the_serial_values(monkeypatch):
    # more callers than cores, all sharing the one worker
    seeds = [rng.derive(31, i) for i in range(4)]
    counts = (SPLIT_EDGE + 1, 3 * SPLIT_EDGE, 1001)
    monkeypatch.setattr(rng, "_cpus", lambda: 1)
    want = {(s, c): rng.normals(s, c).tobytes() for s in seeds for c in counts}
    monkeypatch.setattr(rng, "_cpus", lambda: 2)
    got, start = {}, threading.Barrier(len(seeds))

    def caller(seed):
        start.wait()
        for _ in range(3):
            for c in counts:
                got.setdefault((seed, c), set()).add(rng.normals(seed, c).tobytes())

    threads = [threading.Thread(target=caller, args=(s,)) for s in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter lock over often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == {key: {value} for key, value in want.items()}


def test_derive_is_order_and_seed_sensitive():
    assert rng.derive(5) == 5
    assert rng.derive(2**64 + 3) == rng.derive(3)
    assert rng.derive(1, 2, 3) != rng.derive(1, 3, 2)
    assert rng.derive(1, 2, 3) != rng.derive(2, 2, 3)
    seen = {rng.derive(0, i, j) for i in range(20) for j in range(20)}
    assert len(seen) == 400


def test_derive_vec_matches_scalar_derive():
    words = np.arange(17, dtype=np.uint64)
    vec = rng.derive_vec(12345, words)
    assert [int(v) for v in vec] == [rng.derive(12345, int(w)) for w in words]
    seeds = np.array([3, 9, 2**60], dtype=np.uint64)
    vec2 = rng.derive_vec(seeds, 7)
    assert [int(v) for v in vec2] == [rng.derive(int(s), 7) for s in seeds]


def test_normals_grid_rows_match_scalar_streams():
    seeds = rng.derive_vec(11, np.arange(6, dtype=np.uint64))
    for count in (7, 8, 1):
        grid = rng.normals_grid(seeds, count)
        assert grid.shape == (6, count)
        for i, s in enumerate(seeds):
            assert np.array_equal(grid[i], rng.normals(int(s), count))


def test_uniforms_grid_rows_match_scalar_streams():
    seeds = rng.derive_vec(13, np.arange(5, dtype=np.uint64))
    for count in (9, 1, 0):
        grid = rng.uniforms_grid(seeds, count)
        assert grid.shape == (5, count)
        for i, s in enumerate(seeds):
            assert grid[i].tobytes() == rng.uniforms(int(s), count).tobytes()
    with pytest.raises(ValueError):
        rng.uniforms_grid(seeds, -1)
    with pytest.raises(ValueError):
        rng.normals_grid(seeds, -1)


def test_streams_with_distinct_derived_seeds_look_independent():
    a = rng.normals(rng.derive(0, 1), 50000)
    b = rng.normals(rng.derive(0, 2), 50000)
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.02


def test_trial_stream_tags_are_defined_once_in_rng():
    # the tags fix every trial's substreams, so their values pin summary.csv
    tags = (rng.X_STREAM, rng.NOISE_STREAM, rng.SIGN_STREAM, rng.SEARCH_STREAM)
    assert tags == (1, 2, 3, 4)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "sparsemix")
    owners = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                if re.search(r"^\s*\w*_STREAM\s*=", fh.read(), flags=re.MULTILINE):
                    owners.append(name)
    assert owners == ["rng.py"]


def stream_corpus(normals=True):
    """Bytes of every rng entry point over a fixed corpus: derive with 0-4
    words (negative seeds and words, words of 64 bits and more), derive_vec
    in both argument orders and on two ints, and draws at the edges of
    2**13-pair tiles, whose sizes are literals so that the corpus does not
    follow rng._TILE. normals=False leaves out the normal draws."""
    edge = 2 * 2**13
    ints = (0, 1, 42, 2**63, MASK, 2**64, 2**70 + 9, -1, -12345, -(2**70) - 3)
    cases = [(s, ints[i : i + k]) for s in ints for i in range(len(ints)) for k in range(5)]
    gen = random.Random(20261019)
    cases += [
        (gen.randint(-(2**70), 2**70), [gen.randint(-(2**70), 2**70) for _ in range(k)])
        for k in (0, 1, 2, 3, 4)
        for _ in range(400)
    ]
    yield b"".join(rng.derive(s, *ws).to_bytes(8, "little") for s, ws in cases)
    arange = np.arange(50, dtype=np.uint64)
    wide = np.array([0, 1, 2**63, MASK], dtype=np.uint64)
    for a, b in ((7, arange), (arange, 7), (-3, wide), (wide, 2**64 + 5), (5, 9),
                 (-1, MASK), (wide[:, None], arange[None, :10])):
        yield np.asarray(rng.derive_vec(a, b), dtype=np.uint64).tobytes()
    for count in (0, 1, 2, 3, edge - 1, edge, edge + 1):
        for seed in (0, MASK, -5, rng.derive(9, rng.X_STREAM)):
            yield rng.raw_words(seed, count).tobytes()
            yield rng.uniforms(seed, count).tobytes()
            yield rng.normals(seed, count).tobytes() if normals else b""
    seeds = rng.derive_vec(17, np.arange(2**13 + 3, dtype=np.uint64))
    for count, rows in ((0, 3), (1, 2**13 + 1), (2, 2**13 + 3), (1000, 17),
                        (edge, 2), (edge + 2, 2)):
        yield rng.uniforms_grid(seeds[:rows], count).tobytes()
        yield rng.normals_grid(seeds[:rows], count).tobytes() if normals else b""


def test_streams_equal_their_frozen_digest():
    # computed before derive moved from numpy scalars to Python ints
    digest = hashlib.sha256(b"".join(stream_corpus())).hexdigest()
    assert digest == "537b748c8f700ae331427b949e384089291929089c9feb08aeda5a46c1ebc3a6"


AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def host_independent_bytes(directory):
    """The sha256 of the integer streams, then the summary.csv bytes of a
    small Lasso sweep written to directory."""
    config = ExperimentConfig(decoder="Lasso", p=64, s=4, rho=1.0, sigma1_sq=0.1,
                              sigma2_sq=0.4, grid=[(12, 12), (24, 24)], trials=20)
    records = run_sweep(config)
    emit_outputs(summarize(config, records), records, directory)
    with open(os.path.join(directory, "summary.csv"), "rb") as fh:
        summary = fh.read()
    return hashlib.sha256(b"".join(stream_corpus(normals=False))).digest() + summary


def test_integer_streams_and_summaries_do_not_follow_simd_dispatch(tmp_path):
    # normal draws may change in the last bit with numpy's AVX512 log; the
    # integer streams must not, nor may the decisions a sweep takes from them
    try:  # numpy >= 2
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__
    if not any(__cpu_features__.get(name) for name in AVX512.split()):
        pytest.skip("numpy dispatches to no AVX512 path on this CPU")
    root = os.path.dirname(os.path.dirname(os.path.abspath(rng.__file__)))
    code = (f"import sys; sys.path[:0] = [{root!r}, {os.path.dirname(__file__)!r}]; "
            "import test_rng; "
            f"sys.stdout.write(test_rng.host_independent_bytes({str(tmp_path / 'off')!r}).hex())")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=AVX512)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert bytes.fromhex(proc.stdout) == host_independent_bytes(str(tmp_path / "on"))
