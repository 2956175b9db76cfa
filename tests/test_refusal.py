"""Every argument check raises ValueError from one owner, naming the argument.

REFUSALS holds one bad call per checked argument: counts, seeds and
indices that are fractional or out of range, and reals that are NaN. Each
must raise ValueError as "<name> must be ...: <value>". The completeness
test lists every parameter or field annotated `int` on a public name of
the package and fails if one has no row, so a new entry point cannot
skip the check.
"""

import importlib
import math
import re
import typing
from pathlib import Path

import numpy as np
import pytest

import sparsemix
from sparsemix import (
    ChernoffQuery,
    DataError,
    ExperimentConfig,
    Growth,
    LassoConfig,
    MixedDataset,
    NoiseProfile,
    RegimeSpec,
    Setting,
    SparseSignal,
    check_sufficient,
    decode_exhaustive,
    decode_local_search,
    empirical_misrank,
    generate_dataset,
    kkt_recovery_witness,
    lambda_schedule,
    m_for_error_budget,
    optimal_theta_agnostic,
    pair_coefficients,
    price_of_quality,
    run_sweep,
    sample_frontier,
    snr_report,
    unit_misrank,
    wilson_ci95,
)
from sparsemix import decoders, errors, model, rng

AGNOSTIC = Setting.AGNOSTIC
REGIME = RegimeSpec(Growth.SUBLINEAR, p=100, s=8)

# result types: the package builds them from checked inputs, no caller passes them in
RESULT_TYPES = {
    "planner.SufficiencyCheck",
    "planner.FrontierPoint",
    "decoders.DecodeResult",
    "lasso.LassoSolution",
    "harness.TrialRecord",
    "harness.SummaryRow",
}


def signal():
    return SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)


def noise(n1=8, n2=8):
    return NoiseProfile(n1=n1, n2=n2, sigma1_sq=1.0, sigma2_sq=4.0)


def dataset():
    return generate_dataset(signal(), noise(), 3)


def config(**overrides):
    base = dict(decoder="AgnosticScan", p=8, s=2, rho=1.0, sigma1_sq=0.0,
                sigma2_sq=0.0, grid=[(3, 3)], trials=1)
    return ExperimentConfig(**{**base, **overrides})


# (module.name, argument, bad call)
REFUSALS = [
    ("errors.support_indices", "p",
     lambda: errors.support_indices((0, 1), 2.5, "support")),
    ("model.SparseSignal", "p", lambda: SparseSignal(p=0, support=(0,), values=(1.0,))),
    ("model.NoiseProfile", "n1", lambda: noise(n1=-1)),
    ("model.NoiseProfile", "n2", lambda: noise(n2=-1)),
    ("model.generate_dataset", "seed", lambda: generate_dataset(signal(), noise(), 1.5)),
    ("model.check_design_cap", "rows", lambda: model.check_design_cap(1.5, 10, 2)),
    ("model.check_design_cap", "p", lambda: model.check_design_cap(1, 10.5, 2)),
    ("model.check_design_cap", "s", lambda: model.check_design_cap(1, 10, -1)),
    ("model.snr_report", "s", lambda: snr_report(2.5, noise())),
    ("model.wilson_ci95", "successes", lambda: wilson_ci95(2.5, 10)),
    ("model.wilson_ci95", "trials", lambda: wilson_ci95(3, 10.5)),
    ("rng.derive", "seed", lambda: rng.derive(1.5, 2)),
    ("rng.derive", "words", lambda: rng.derive(1, 2.5)),
    ("rng.raw_words", "seed", lambda: rng.raw_words(1.5, 3)),
    ("rng.raw_words", "count", lambda: rng.raw_words(1, 2.5)),
    ("rng.uniforms", "seed", lambda: rng.uniforms(1.5, 3)),
    ("rng.uniforms", "count", lambda: rng.uniforms(1, 2.5)),
    ("rng.uniforms_grid", "count", lambda: rng.uniforms_grid([1], 2.5)),
    ("rng.normals", "seed", lambda: rng.normals(1.5, 3)),
    ("rng.normals", "count", lambda: rng.normals(1, 2.5)),
    ("rng.normals_grid", "count", lambda: rng.normals_grid([1], 2.5)),
    # past numpy's largest array, which would refuse without naming count
    ("rng.raw_words-huge", "count", lambda: rng.raw_words(1, 10**400)),
    ("rng.uniforms_grid-huge", "count", lambda: rng.uniforms_grid([1], 10**400)),
    ("rng.normals-huge", "count", lambda: rng.normals(0, 10**400)),
    ("rng.normals_grid-huge", "count", lambda: rng.normals_grid([1], 10**400)),
    ("planner.RegimeSpec", "p", lambda: RegimeSpec(Growth.SUBLINEAR, p=1, s=1)),
    ("planner.RegimeSpec", "s", lambda: RegimeSpec(Growth.SUBLINEAR, p=24, s=4.5)),
    ("planner.pair_coefficients", "s",
     lambda: pair_coefficients(AGNOSTIC, 1.0, 4.0, 4.5, 0.1)),
    ("planner.check_sufficient", "n1",
     lambda: check_sufficient(AGNOSTIC, -1, 0, 1.0, 4.0, 8, 0.5, 0.0, REGIME)),
    ("planner.check_sufficient", "n2",
     lambda: check_sufficient(AGNOSTIC, 0, -1, 1.0, 4.0, 8, 0.5, 0.0, REGIME)),
    ("planner.check_sufficient", "s",
     lambda: check_sufficient(AGNOSTIC, 9, 9, 1.0, 4.0, 8.0, 0.5, 0.0, REGIME)),
    ("planner.price_of_quality", "s",
     lambda: price_of_quality(AGNOSTIC, 1.0, 4.0, 4.5, 0.1)),
    ("planner.sample_frontier", "s",
     lambda: sample_frontier(AGNOSTIC, 1.0, 4.0, 8.0, 0.5, 0.0, REGIME, [0])),
    ("decoders.decode_exhaustive", "s", lambda: decode_exhaustive(dataset(), 0, AGNOSTIC)),
    ("decoders.exhaustive_candidates", "p", lambda: decoders.exhaustive_candidates(-1, 0)),
    ("decoders.exhaustive_candidates", "s", lambda: decoders.exhaustive_candidates(10, 11)),
    ("decoders.decode_local_search", "s",
     lambda: decode_local_search(dataset(), 7, AGNOSTIC)),
    ("decoders.decode_local_search", "restarts",
     lambda: decode_local_search(dataset(), 4, AGNOSTIC, restarts=0)),
    ("decoders.decode_local_search", "seed",
     lambda: decode_local_search(dataset(), 4, AGNOSTIC, seed=1.5)),
    ("lasso.LassoConfig", "max_sweeps", lambda: LassoConfig(lam=0.1, max_sweeps=0)),
    ("lasso.lambda_schedule", "p", lambda: lambda_schedule(1.0, p=24.5, s=4, n=50, rho=1.0)),
    ("lasso.lambda_schedule", "s", lambda: lambda_schedule(1.0, p=24, s=0, n=50, rho=1.0)),
    ("lasso.lambda_schedule", "n", lambda: lambda_schedule(1.0, p=24, s=4, n=0, rho=1.0)),
    ("lasso.lambda_schedule", "sigma_avg_sq",
     lambda: lambda_schedule(math.nan, p=24, s=4, n=50, rho=1.0)),
    ("chernoff.ChernoffQuery", "n1",
     lambda: ChernoffQuery(AGNOSTIC, n1=-1, n2=3, sigma1_sq=1.0, sigma2_sq=4.0, m=2)),
    ("chernoff.ChernoffQuery", "n2",
     lambda: ChernoffQuery(AGNOSTIC, n1=3, n2=-1, sigma1_sq=1.0, sigma2_sq=4.0, m=2)),
    ("chernoff.ChernoffQuery", "m",
     lambda: ChernoffQuery(AGNOSTIC, n1=3, n2=3, sigma1_sq=1.0, sigma2_sq=4.0, m=0)),
    ("chernoff.m_for_error_budget", "s", lambda: m_for_error_budget(0.1, 25.0)),
    ("chernoff.empirical_misrank", "trials",
     lambda: empirical_misrank(signal(), noise(), (2, 3, 4, 5), 0, seed=0)),
    ("chernoff.empirical_misrank", "seed",
     lambda: empirical_misrank(signal(), noise(), (2, 3, 4, 5), 100, seed=1.5)),
    ("chernoff.unit_misrank", "trials",
     lambda: unit_misrank(ChernoffQuery(AGNOSTIC, 3, 3, 1.0, 4.0, 2), 0, seed=0)),
    ("chernoff.unit_misrank", "seed",
     lambda: unit_misrank(ChernoffQuery(AGNOSTIC, 3, 3, 1.0, 4.0, 2), 10, seed=1.5)),
    ("harness.ExperimentConfig", "p", lambda: config(p=1)),
    ("harness.ExperimentConfig", "s", lambda: config(s=2.5)),
    ("harness.ExperimentConfig", "trials", lambda: config(trials=0)),
    ("harness.ExperimentConfig", "master_seed", lambda: config(master_seed=1.5)),
    ("harness.ExperimentConfig-huge", "master_seed", lambda: config(master_seed=10**400)),
    ("harness.ExperimentConfig-negative", "master_seed", lambda: config(master_seed=-5)),
    ("harness.ExperimentConfig", "restarts", lambda: config(restarts=0)),
    ("harness.run_sweep", "threads", lambda: run_sweep(config(), threads=1.5)),
]


@pytest.mark.parametrize(
    "arg, call", [pytest.param(a, c, id=f"{w}.{a}") for w, a, c in REFUSALS]
)
def test_refusal_names_the_argument(arg, call):
    with pytest.raises(ValueError, match=rf"^{arg} must be [^:]*: "):
        call()


def int_arguments():
    """module.name.argument of every int-annotated parameter or field."""
    src = Path(sparsemix.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"sparsemix.{path.stem}")
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or f"{path.stem}.{name}" in RESULT_TYPES:
                continue
            for arg, hint in typing.get_type_hints(obj).items():
                if hint is int and arg != "return":
                    yield f"{path.stem}.{name}.{arg}"


def test_every_integer_argument_has_a_refusal_row():
    covered = {f"{where}.{arg}" for where, arg, _ in REFUSALS}
    found = list(int_arguments())
    assert "rng.derive.words" in found  # the walk sees *args too
    assert sorted(set(found) - covered) == []


def test_numpy_integers_pass_as_python_ints():
    ds = dataset()
    assert decode_local_search(ds, np.int64(4), AGNOSTIC, seed=np.uint64(2)) == (
        decode_local_search(ds, 4, AGNOSTIC, seed=2)
    )
    assert rng.uniforms(np.uint64(1), np.int32(3)).tolist() == rng.uniforms(1, 3).tolist()
    assert wilson_ci95(np.int64(3), np.int64(10)) == wilson_ci95(3, 10)


# (module.name.case, error, message, bad call): refusals of shapes and of
# one argument against another, which no other test reaches
SHAPE_REFUSALS = [
    ("errors.support_indices.empty", ValueError, "^support must be nonempty$",
     lambda: SparseSignal(p=5, support=(), values=())),
    ("model.MixedDataset.X", DataError, "^X must be a 2-d array$",
     lambda: MixedDataset(X=np.zeros(16), Y=np.zeros(16), noise=noise())),
    ("model.MixedDataset.signal", DataError,
     "^signal dimension must equal the number of columns$",
     lambda: MixedDataset(X=dataset().X, Y=dataset().Y, noise=noise(),
                          signal=SparseSignal(p=7, support=(0,), values=(1.0,)))),
    ("model.classify_regime.snr2", ValueError, "^SNR values must be positive$",
     lambda: model.classify_regime(1.0, 0.0)),
    ("model.sign_mismatches.estimate", DataError, "^estimate must be a length-p vector$",
     lambda: model.sign_mismatches(np.zeros(5), signal())),
    ("planner.RegimeSpec.alpha-linear", ValueError, r"^alpha must lie in \(0, 1\)$",
     lambda: RegimeSpec(Growth.LINEAR, p=24, s=4, alpha=1.5)),
    ("planner.RegimeSpec.alpha-sublinear", ValueError,
     "^alpha is only meaningful for linear growth$",
     lambda: RegimeSpec(Growth.SUBLINEAR, p=24, s=4, alpha=0.25)),
    ("planner.pair_coefficients.sigma1_sq", ValueError,
     "^an information coefficient is not finite",
     lambda: price_of_quality(Setting.INFORMED, 1e-310, 1e-310, 4, 0.25)),
    ("chernoff.optimal_theta_agnostic.setting", ValueError,
     "^theta optimization applies to the agnostic setting$",
     lambda: optimal_theta_agnostic(
         ChernoffQuery(Setting.INFORMED, n1=3, n2=3, sigma1_sq=1.0, sigma2_sq=4.0, m=2))),
    ("chernoff.unit_misrank.m", ValueError, "^Monte Carlo checks need an even m$",
     lambda: unit_misrank(ChernoffQuery(AGNOSTIC, 3, 3, 1.0, 4.0, 3), 10, seed=0)),
    ("lasso.kkt_recovery_witness.truth", ValueError,
     "^signal dimension must match the design$",
     lambda: kkt_recovery_witness(
         dataset(), SparseSignal(p=7, support=(0, 1), values=(1.0, 1.0)), 0.1)),
]


@pytest.mark.parametrize(
    "error, message, call",
    [pytest.param(e, m, c, id=w) for w, e, m, c in SHAPE_REFUSALS],
)
def test_shape_refusal(error, message, call):
    with pytest.raises(error, match=message):
        call()


def test_counts_stop_where_floats_stop_being_exact():
    query = dict(setting=AGNOSTIC, n1=3, n2=3, sigma1_sq=1.0, sigma2_sq=4.0)
    ChernoffQuery(**query, m=errors.COUNT_MAX)
    bound = re.escape(f"[1, {2**53}]")
    with pytest.raises(ValueError, match=rf"^m must be an integer in {bound}: "):
        ChernoffQuery(**query, m=errors.COUNT_MAX + 1)
    # sample budgets enter only float arithmetic, so any integer a float holds
    # passes: a frontier can ask for more than COUNT_MAX samples
    budget = (AGNOSTIC, 10**300, 0, 1.0, 4.0, 8, 0.5, 0.0, REGIME)
    assert check_sufficient(*budget).holds
    with pytest.raises(ValueError, match=r"^n1 must be an integer in \[0, \d+\]: "):
        check_sufficient(AGNOSTIC, 10**400, *budget[2:])
