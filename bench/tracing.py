"""Spans around the public functions of each sparsemix layer.

The tracer replaces each traced function in every sparsemix module that
holds it (so `harness.generate_dataset`, bound by import, is caught as
well as `model.generate_dataset`) and puts the originals back on exit.
Spans live in memory; per-layer metrics are computed from them at the end.
The traced run is serial, so the span stack of one thread is the whole
call tree.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

_GRAM_LIMIT = 4096  # solver switches from Gram to residual updates above this p


# name -> (argument annotator, result annotator); either may be None.
TARGETS = {
    "harness.run_sweep": (None, None),
    "harness.summarize": (None, None),
    "harness.emit_outputs": (None, lambda r: {"bytes": sum(os.path.getsize(p) for p in r)}),
    "model.generate_dataset": (
        lambda a: {"n": a["noise"].n, "p": a["signal"].p, "trial": a["seed"]},
        None,
    ),
    "rng.normals": (lambda a: {"draws": a["count"]}, None),
    "rng.normals_grid": (lambda a: {"draws": len(a["seeds"]) * a["count"]}, None),
    "lasso.solve_lasso": (
        lambda a: {"n": a["dataset"].n, "p": a["dataset"].p, "trial": a["dataset"].seed},
        lambda r: {"sweeps": r.sweeps, "converged": r.converged},
    ),
    "lasso.kkt_recovery_witness": (lambda a: {"trial": a["dataset"].seed}, None),
    "decoders.decode_exhaustive": (
        lambda a: {"trial": a["dataset"].seed},
        lambda r: {"scanned": r.scanned},
    ),
    "decoders.decode_local_search": (
        lambda a: {"trial": a["dataset"].seed},
        lambda r: {"scanned": r.scanned},
    ),
    "chernoff.empirical_misrank": (None, None),
    "chernoff.chernoff_bound": (None, None),
    "chernoff.optimal_theta_agnostic": (None, None),
    "planner.price_of_quality": (None, None),
    "planner.sample_frontier": (None, None),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    trial: int | None  # trial seed, shared by every span of one trial
    attrs: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that records a span per call of each TARGETS function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "sparsemix" or name.startswith("sparsemix.")
        ]
        for name, (on_args, on_result) in TARGETS.items():
            layer, attr = name.split(".")
            original = getattr(sys.modules[f"sparsemix.{layer}"], attr)
            wrapper = self._wrap(name, original, on_args, on_result)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))
        return self

    def __exit__(self, *exc) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name, fn, on_args, on_result):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            attrs = {}
            if on_args is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                attrs = on_args(bound.arguments)
            trial = attrs.pop("trial", None)
            if trial is None and parent is not None:
                trial = spans[parent].trial
            index = len(spans)
            spans.append(Span(name, 0.0, 0.0, parent, trial, attrs))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index].start, spans[index].end = start, end
            if on_result is not None:
                attrs.update(on_result(result))
            return result

        return wrapper


def check_counts(spans: list[Span], expected: Counter) -> list[str]:
    """Compare span counts with the calls the workload made or implied.

    A refactor that routes work around a traced function then fails here
    instead of reporting zeros.
    """
    counts = Counter(s.name for s in spans)
    problems = [
        f"{name}: {counts[name]} spans, expected {expected[name]}"
        for name in TARGETS
        if not name.startswith("rng.") and counts[name] != expected[name]
    ]
    # One generate_dataset draws n*p design and n noise normals.
    want = sum(s.attrs["n"] * (s.attrs["p"] + 1) for s in spans if s.name == "model.generate_dataset")
    got = sum(s.attrs["draws"] for s in spans if s.name == "rng.normals")
    if got != want:
        problems.append(f"rng.normals drew {got} normals, generate_dataset needs {want}")
    if (counts["rng.normals_grid"] > 0) != (expected["chernoff.empirical_misrank"] > 0):
        problems.append(
            f"rng.normals_grid: {counts['rng.normals_grid']} spans for "
            f"{expected['chernoff.empirical_misrank']} empirical_misrank calls"
        )
    return problems


def _self_seconds(spans: list[Span]) -> list[float]:
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def _solve_class(n: int, p: int) -> str:
    if p > _GRAM_LIMIT:
        return "wide"
    if p <= 40:
        return "small"
    return {54: "n54", 218: "n218"}.get(n, "other")


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals and ratios over the traced pass (see README.md)."""
    own = _self_seconds(spans)
    by = {name: [i for i, s in enumerate(spans) if s.name == name] for name in TARGETS}

    def total(name: str) -> float:
        return sum(spans[i].seconds for i in by[name])

    def self_total(name: str) -> float:
        return sum(own[i] for i in by[name])

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i].attrs[key] for i in by[name])

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    solves = [spans[i] for i in by["lasso.solve_lasso"]]
    sweeps = [s.attrs["sweeps"] for s in solves]
    solve_s = Counter()
    for s in solves:
        solve_s[_solve_class(s.attrs["n"], s.attrs["p"])] += s.seconds
    if solve_s["other"]:
        raise ValueError("a Lasso solve fell outside the named shape classes")
    normals_draws = attr_sum("rng.normals", "draws")
    grid_draws = attr_sum("rng.normals_grid", "draws")
    candidates = attr_sum("decoders.decode_exhaustive", "scanned")
    planner_names = [n for n in TARGETS if n.startswith("planner.")]
    return {
        "harness.sweep_s": total("harness.run_sweep"),
        "harness.sweep_self_s": self_total("harness.run_sweep"),
        "harness.summarize_s": total("harness.summarize"),
        "harness.emit_s": total("harness.emit_outputs"),
        "harness.emit_bytes": attr_sum("harness.emit_outputs", "bytes"),
        "model.generate_calls": len(by["model.generate_dataset"]),
        "model.generate_s": total("model.generate_dataset"),
        "model.generate_self_s": self_total("model.generate_dataset"),
        "model.design_bytes": sum(
            8 * spans[i].attrs["n"] * spans[i].attrs["p"] for i in by["model.generate_dataset"]
        ),
        "rng.normals_draws": normals_draws,
        "rng.normals_s": total("rng.normals"),
        "rng.grid_draws": grid_draws,
        "rng.grid_s": total("rng.normals_grid"),
        "rng.ns_per_draw": ratio(
            total("rng.normals") + total("rng.normals_grid"), normals_draws + grid_draws, 1e9
        ),
        "lasso.solve_calls": len(solves),
        "lasso.solve_s.n54": solve_s["n54"],
        "lasso.solve_s.n218": solve_s["n218"],
        "lasso.solve_s.wide": solve_s["wide"],
        "lasso.solve_s.small": solve_s["small"],
        "lasso.sweeps": sum(sweeps),
        "lasso.sweeps_max": max(sweeps, default=0),
        "lasso.us_per_sweep": ratio(total("lasso.solve_lasso"), sum(sweeps), 1e6),
        "lasso.converged_frac": ratio(sum(s.attrs["converged"] for s in solves), len(solves)),
        "lasso.gram_flops": sum(
            s.attrs["n"] * s.attrs["p"] ** 2 for s in solves if s.attrs["p"] <= _GRAM_LIMIT
        ),
        "lasso.witness_calls": len(by["lasso.kkt_recovery_witness"]),
        "lasso.witness_s": total("lasso.kkt_recovery_witness"),
        "decoders.exhaustive_calls": len(by["decoders.decode_exhaustive"]),
        "decoders.exhaustive_s": total("decoders.decode_exhaustive"),
        "decoders.candidates": candidates,
        "decoders.ns_per_candidate": ratio(total("decoders.decode_exhaustive"), candidates, 1e9),
        "decoders.local_calls": len(by["decoders.decode_local_search"]),
        "decoders.local_s": total("decoders.decode_local_search"),
        "decoders.local_scanned": attr_sum("decoders.decode_local_search", "scanned"),
        "chernoff.misrank_calls": len(by["chernoff.empirical_misrank"]),
        "chernoff.misrank_s": total("chernoff.empirical_misrank"),
        "chernoff.misrank_self_s": self_total("chernoff.empirical_misrank"),
        "chernoff.bound_s": total("chernoff.chernoff_bound")
        + total("chernoff.optimal_theta_agnostic"),
        "planner.calls": sum(len(by[n]) for n in planner_names),
        "planner.s": sum(total(n) for n in planner_names),
    }
