"""Deterministic counter-based random number generation.

Every value produced here is a pure function of a 64-bit seed and a
counter position, so a trial's draws depend only on its derived seed,
never on which trials ran before it.

Definitions (all arithmetic mod 2**64):

    word(seed, k)  = mix(seed + (k + 1) * GOLDEN)
    mix(x)         = splitmix64 finalizer
                     x ^= x >> 30; x *= 0xBF58476D1CE4E5B9
                     x ^= x >> 27; x *= 0x94D049BB133111EB
                     x ^= x >> 31
    uniform(s, k)  = ((word(s, k) >> 11) + 0.5) * 2**-53      in (0, 1)
    normals        = Box-Muller on uniform counter pairs (2j, 2j+1):
                     r = sqrt(-2 ln u_{2j}),  a = 2 pi u_{2j+1}
                     normal[2j] = r cos a,  normal[2j+1] = r sin a

GOLDEN is 0x9E3779B97F4A7C15. Substreams come from `derive`, which folds
index words into the seed through the same mixer; it is associative with
itself in the sense that derive(derive(s, a), b) == derive(s, a, b).
`derive` folds Python ints; arrays mix as uint64, which wraps silently.

Normals are computed in cache-sized tiles of at most 2**14 pairs, written
into one preallocated output, so a draw of millions of values builds no
full-length temporaries. A draw of at least 2**14 pairs is filled in two
halves by `_on_both`, the one place that decides whether work splits: on
the caller's thread and on one that lives only inside the call where two
CPUs are usable, else, or on a thread already running a part, in turn on
the calling thread; no call leaves a thread behind. Every
step is the elementwise operation of the definitions above in the same
order, so the values equal them bit for bit whatever the tile boundaries,
the split or the CPU count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import COUNT_MAX, as_index

__all__ = [
    "X_STREAM",
    "NOISE_STREAM",
    "SIGN_STREAM",
    "SEARCH_STREAM",
    "derive",
    "derive_vec",
    "raw_words",
    "uniforms",
    "uniforms_grid",
    "normals",
    "normals_grid",
]

_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_MASK = (1 << 64) - 1
_TWO_NEG53 = 2.0**-53

# Substream tags of one trial: derive(trial_seed, X_STREAM) fills its design.
X_STREAM = 1  # design matrix, row-major
NOISE_STREAM = 2  # standardized noise vector
SIGN_STREAM = 3  # Lasso signal signs
SEARCH_STREAM = 4  # local-search restarts

# Box-Muller pairs per tile: a tile's two 2 * _TILE-word buffers (512 KB)
# stay in a core's L2 cache, where whole-draw temporaries spill to memory.
_TILE = 1 << 14
# A draw of at least 2 * _SPLIT pairs is cut in two halves for _on_both;
# on two cores, splitting a smaller draw saved nothing or lost time.
_SPLIT = 1 << 13
# .busy is set on each thread while it runs a part of _on_both, the one it
# starts for the second part and the caller; _on_both called on a busy
# thread runs both parts there.
_THREAD = threading.local()
# Row 0 holds (2j + 1) * GOLDEN and row 1 (2j + 2) * GOLDEN: the counter
# offsets of pair j's radius and angle words, each row contiguous.
_PAIR_OFFSETS = (
    np.arange(1, 2 * _TILE + 1, dtype=np.uint64) * _GOLDEN
).reshape(_TILE, 2).T.copy()


def _mix_int(x: int) -> int:
    """The splitmix64 finalizer of a Python int x in [0, 2**64)."""
    x = (x ^ x >> 30) * _MUL1 & _MASK
    x = (x ^ x >> 27) * _MUL2 & _MASK
    return x ^ x >> 31


def _mix(x: np.ndarray, free: np.ndarray | None = None) -> np.ndarray:
    """The splitmix64 finalizer of a uint64 array x, mixed in place; its
    shifts go to free, a uint64 array of x's shape, when one is given."""
    x ^= np.right_shift(x, 30, out=free)
    x *= _MUL1
    x ^= np.right_shift(x, 27, out=free)
    x *= _MUL2
    x ^= np.right_shift(x, 31, out=free)
    return x


def _words(seeds: np.ndarray, count: int) -> np.ndarray:
    """Counter words 0..count-1 of each uint64 seed, along a new last axis."""
    k = np.arange(1, count + 1, dtype=np.uint64)
    return _mix(seeds[..., None] + k * _GOLDEN)


def _unit(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform doubles from the top 53 bits of words w, shifted in place.

    The shifted words are below 2**53, so their int64 view converts to
    double exactly, and faster than uint64 does.
    """
    w >>= 11
    out = np.empty(w.shape) if out is None else out
    np.copyto(out, w.view(np.int64))  # a ufunc taking the view would buffer the cast
    out += 0.5
    out *= _TWO_NEG53
    return out


def _fill(out: np.ndarray, seeds: np.ndarray, first: int) -> None:
    """Write pairs first, first + 1, ... of each seed of 1-D uint64 seeds into
    out, a (len(seeds), pairs, 2) view.

    A tile is whole rows by up to _TILE pairs, at most _TILE pairs in all.
    Its words land in one buffer as two contiguous blocks, radius words
    then angle words; `_unit` turns them into uniforms in the second
    buffer, the first then takes the cosines and sines, and their
    products with the radii go straight into the interleaved output.
    The seeds and counter offsets are broadcast to the tile's shape by
    np.copyto, which needs no buffer, rather than by a ufunc, which
    allocates numpy's own.
    """
    rows, npairs = out.shape[:2]
    cols = min(npairs, _TILE) or 1
    tile_rows = _TILE // cols
    size = 2 * min(rows, tile_rows) * cols
    words, reals = np.empty(size, dtype=np.uint64), np.empty(size)
    for r0 in range(0, rows, tile_rows):
        block = seeds[r0 : r0 + tile_rows, None]
        nr = len(block)
        for j0 in range(0, npairs, cols):
            nc = min(cols, npairs - j0)
            w = words[: 2 * nr * nc].reshape(2, nr, nc)
            u = reals[: 2 * nr * nc].reshape(2, nr, nc)
            free = u.view(np.uint64)  # scratch until _unit writes u
            np.copyto(w, _PAIR_OFFSETS[:, None, :nc])
            np.copyto(free, block)
            w += free
            if first + j0:  # to pair first + j0's counters; pair 0 needs no add
                w += 2 * (first + j0) * _GOLDEN & _MASK
            _unit(_mix(w, free), out=u)
            radius, angle = u
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            angle *= 2.0 * np.pi
            trig = w.view(np.float64)
            np.cos(angle, out=trig[0])
            np.sin(angle, out=trig[1])
            tile = out[r0 : r0 + nr, j0 : j0 + nc]
            np.multiply(radius, trig[0], out=tile[..., 0])
            np.multiply(radius, trig[1], out=tile[..., 1])


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _on_both(fn, mine: tuple, theirs: tuple) -> tuple:
    """(fn(*mine), fn(*theirs)), in turn on a busy thread (_THREAD) or with
    fewer than two usable CPUs; else a thread started here runs the second
    while the caller runs the first, both busy meanwhile, and it is joined
    before this returns. A raise in either reaches the caller once both
    have stopped, so nothing they share is dropped while the other still
    writes to it."""
    if _cpus() < 2 or getattr(_THREAD, "busy", False):
        return fn(*mine), fn(*theirs)
    half: list = [None, None]  # the second part's result, or what it raised

    def second():
        _THREAD.busy = True
        try:
            half[0] = fn(*theirs)
        except BaseException as exc:
            half[1] = exc

    thread = threading.Thread(target=second)
    thread.start()
    _THREAD.busy = True
    try:
        result = fn(*mine)
    finally:
        _THREAD.busy = False
        thread.join()
    if half[1] is not None:
        raise half[1]
    return result, half[0]


def _box_muller(seeds: np.ndarray, count: int) -> np.ndarray:
    """Normals 0..count-1 of each seed of 1-D uint64 seeds: (len(seeds), count).

    A draw of at least 2 * _SPLIT pairs is cut in two along its longer
    axis, rows or pairs, and _on_both fills the halves.
    """
    rows, npairs = len(seeds), (count + 1) // 2
    out = np.empty((rows, npairs, 2))
    if rows * npairs < 2 * _SPLIT:
        _fill(out, seeds, 0)
    elif rows > npairs:
        h = rows // 2
        _on_both(_fill, (out[:h], seeds[:h], 0), (out[h:], seeds[h:], 0))
    else:
        h = npairs // 2
        _on_both(_fill, (out[:, :h], seeds, 0), (out[:, h:], seeds, h))
    return out.reshape(rows, 2 * npairs)[:, :count]


def derive(seed: int, *words: int) -> int:
    """Derive a substream seed by folding integer words into `seed`.

    Pure and order-sensitive: derive(s, i, j) != derive(s, j, i) in
    general. Used throughout the package to give every (purpose, grid
    point, trial) combination its own independent counter stream.
    """
    h = as_index(seed, "seed") & _MASK
    for w in words:
        w = _mix_int(as_index(w, "words") * _GOLDEN & _MASK)
        h = _mix_int((h ^ w) + _GOLDEN & _MASK)
    return h


def derive_vec(seeds, words) -> np.ndarray:
    """Vectorized derive: fold words into seeds with broadcasting.

    Either side may be a scalar int or a uint64 array; elementwise the
    result equals derive(seed, word) exactly. Two ints give shape (1,).
    """
    seeds, words = (x & _MASK if isinstance(x, int) else x for x in (seeds, words))
    w = _mix(np.atleast_1d(np.asarray(words, dtype=np.uint64)) * _GOLDEN)
    return _mix((np.asarray(seeds, dtype=np.uint64) ^ w) + _GOLDEN)


def raw_words(seed: int, count: int) -> np.ndarray:
    """Return the raw 64-bit words at counter positions 0..count-1."""
    count = as_index(count, "count", low=0, high=COUNT_MAX)
    return _words(np.array(as_index(seed, "seed") & _MASK, dtype=np.uint64), count)


def uniforms(seed: int, count: int) -> np.ndarray:
    """Uniform(0, 1) doubles at counter positions 0..count-1.

    The top 53 bits of each word are used, shifted to the open interval,
    so 0.0 and 1.0 never occur and log/endpoint handling stays safe.
    """
    return _unit(raw_words(seed, count))


def uniforms_grid(seeds: np.ndarray, count: int) -> np.ndarray:
    """Uniform(0, 1) doubles for many streams at once: shape (len(seeds), count).

    Row i equals uniforms(seeds[i], count), as normals_grid is to normals.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _unit(_words(seeds, as_index(count, "count", low=0, high=COUNT_MAX)))


def normals(seed: int, count: int) -> np.ndarray:
    """Standard normal doubles at normal positions 0..count-1.

    Position 2j is r_j*cos(a_j) and 2j+1 is r_j*sin(a_j), with (r_j, a_j)
    built from uniform counters (2j, 2j+1); an odd count drops the last
    sine.
    """
    seed, count = as_index(seed, "seed") & _MASK, as_index(count, "count", low=0, high=COUNT_MAX)
    return _box_muller(np.array([seed], dtype=np.uint64), count)[0]


def normals_grid(seeds: np.ndarray, count: int) -> np.ndarray:
    """Standard normals for many streams at once: shape (len(seeds), count).

    Row i equals normals(seeds[i], count); the broadcast form exists so
    Monte Carlo loops can draw whole batches of independent trials in one
    vectorized call.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    return _box_muller(seeds, as_index(count, "count", low=0, high=COUNT_MAX))
