"""Exception types shared across the package, and the one owner of argument refusal.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than a bare RuntimeError.
Every single-argument check goes through as_index (integers, optionally
in an inclusive range), as_real (finite reals >= 0 or > 0) or
support_indices (column index sets), which raise ValueError naming the
argument. Checks that relate two arguments stay with their callers.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

__all__ = [
    "SparsemixError",
    "InvalidConfigError",
    "ResourceCapError",
    "DataError",
    "DegenerateInstanceError",
    "as_index",
    "index_fields",
    "as_real",
    "support_indices",
]

COUNT_MAX = 2**53  # the count bound: each integer up to it is exact as a float


class SparsemixError(Exception):
    """Base class for package errors."""


class InvalidConfigError(SparsemixError, ValueError):
    """A configuration value is out of domain or inconsistent."""


class ResourceCapError(SparsemixError, RuntimeError):
    """An operation would exceed an explicit resource cap.

    Raised before any large allocation or enumeration starts; the message
    names the cap and, where one exists, the cheaper alternative.
    """


class DataError(SparsemixError, ValueError):
    """Input arrays contain non-finite entries or have inconsistent shapes."""


class DegenerateInstanceError(SparsemixError, RuntimeError):
    """A linear system required by an analysis is numerically singular."""


def as_index(
    value: object, name: str, *, low: int | None = None, high: int | None = None
) -> int:
    """operator.index of a value, so numpy integers pass as int; anything
    else (2.5, "3"), or an integer outside [low, high] where given, raises
    ValueError naming it."""
    try:
        index = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer: {value!r}") from None
    if (low is not None and index < low) or (high is not None and index > high):
        span = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {span}: {value!r}")
    return index


def index_fields(obj: object, *names: str, **bounds: int | None) -> None:
    """Store each named field of a frozen dataclass as its as_index value."""
    for name in names:
        object.__setattr__(obj, name, as_index(getattr(obj, name), name, **bounds))


def as_real(value: float, name: str, *, positive: bool = False) -> float:
    """Return value if it is a finite real >= 0 (> 0 when positive), else
    raise ValueError naming it; NaN and inf are refused."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}: {value!r}")
    return value


def support_indices(indices: Iterable[int], p: int, name: str) -> list[int]:
    """The sorted as_index values of a support's column indices; refuses
    an empty support, a repeated index and one outside [0, p)."""
    idx, p = sorted(as_index(i, f"{name} index") for i in indices), as_index(p, "p")
    if not idx:
        raise ValueError(f"{name} must be nonempty")
    if any(a == b for a, b in zip(idx, idx[1:])):
        raise ValueError(f"{name} indices must be distinct: {idx!r}")
    if idx[0] < 0 or idx[-1] >= p:
        raise ValueError(f"{name} indices must lie in [0, {p}): {idx!r}")
    return idx
