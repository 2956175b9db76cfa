"""Deterministic counter-based random number generation.

Every value produced here is a pure function of a 64-bit seed and a
counter position, so any slice of a stream can be generated independently
of the rest, and a trial's draws depend only on its derived seed, never on
which trials ran before it.

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
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "mix64",
    "derive",
    "derive_vec",
    "raw_words",
    "uniforms",
    "normals",
    "normals_grid",
]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_MUL2 = np.uint64(0x94D049BB133111EB)
_MASK = (1 << 64) - 1
_TWO_NEG53 = 2.0**-53


def _mix(x: np.uint64 | np.ndarray) -> np.uint64 | np.ndarray:
    with np.errstate(over="ignore"):
        x = (x ^ (x >> np.uint64(30))) * _MUL1
        x = (x ^ (x >> np.uint64(27))) * _MUL2
        return x ^ (x >> np.uint64(31))


def _fold(
    h: np.uint64 | np.ndarray, w: np.uint64 | np.ndarray
) -> np.uint64 | np.ndarray:
    """One derive step: fold word(s) w into state(s) h, broadcasting."""
    with np.errstate(over="ignore"):
        return _mix((h ^ _mix(w * _GOLDEN)) + _GOLDEN)


def _words(seeds: np.uint64 | np.ndarray, offset: int, count: int) -> np.ndarray:
    """Counter words offset..offset+count-1 of each seed, along a new last axis."""
    k = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(np.asarray(seeds)[..., None] + k * _GOLDEN)


def _unit(w: np.ndarray) -> np.ndarray:
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO_NEG53


def _box_muller(
    seeds: np.uint64 | np.ndarray, first_pair: int, npairs: int
) -> np.ndarray:
    """Normals at positions 2*first_pair onward, 2*npairs per seed."""
    u = _unit(_words(seeds, 2 * first_pair, 2 * npairs))
    r = np.sqrt(-2.0 * np.log(u[..., 0::2]))
    a = (2.0 * np.pi) * u[..., 1::2]
    block = np.empty(u.shape, dtype=np.float64)
    block[..., 0::2] = r * np.cos(a)
    block[..., 1::2] = r * np.sin(a)
    return block


def mix64(x: int) -> int:
    """Apply the splitmix64 finalizer to a 64-bit integer."""
    return int(_mix(np.uint64(x & _MASK)))


def derive(seed: int, *words: int) -> int:
    """Derive a substream seed by folding integer words into `seed`.

    Pure and order-sensitive: derive(s, i, j) != derive(s, j, i) in
    general. Used throughout the package to give every (purpose, grid
    point, trial) combination its own independent counter stream.
    """
    h = np.uint64(seed & _MASK)
    for w in words:
        h = _fold(h, np.uint64(w & _MASK))
    return int(h)


def derive_vec(seeds, words) -> np.ndarray:
    """Vectorized derive: fold words into seeds with broadcasting.

    Either side may be a scalar int or a uint64 array; elementwise the
    result equals derive(seed, word) exactly.
    """
    if isinstance(seeds, (int, np.integer)):
        seeds = np.uint64(int(seeds) & _MASK)
    if isinstance(words, (int, np.integer)):
        words = np.uint64(int(words) & _MASK)
    return _fold(
        np.asarray(seeds, dtype=np.uint64), np.asarray(words, dtype=np.uint64)
    )


def raw_words(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Return `count` raw 64-bit words at counter positions offset..offset+count-1."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _words(np.uint64(seed & _MASK), offset, count)


def uniforms(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Uniform(0, 1) doubles at the given counter positions.

    The top 53 bits of each word are used, shifted to the open interval,
    so 0.0 and 1.0 never occur and log/endpoint handling stays safe.
    """
    return _unit(raw_words(seed, count, offset))


def normals(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Standard normal doubles at normal positions offset..offset+count-1.

    Position 2j is r_j*cos(a_j) and 2j+1 is r_j*sin(a_j), with (r_j, a_j)
    built from uniform counters (2j, 2j+1). Arbitrary offsets are allowed;
    partially used pairs are generated and sliced.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0, dtype=np.float64)
    first_pair = offset // 2
    npairs = (offset + count - 1) // 2 - first_pair + 1
    lead = offset - 2 * first_pair
    block = _box_muller(np.uint64(seed & _MASK), first_pair, npairs)
    return block[lead : lead + count]


def normals_grid(seeds: np.ndarray, count: int) -> np.ndarray:
    """Standard normals for many streams at once: shape (len(seeds), count).

    Row i equals normals(seeds[i], count); the broadcast form exists so
    Monte Carlo loops can draw whole batches of independent trials in one
    vectorized call.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty((len(seeds), 0), dtype=np.float64)
    return _box_muller(seeds, 0, (count + 1) // 2)[:, :count]
