"""Tests for the coordinate-descent solver, penalty schedule, and KKT witness."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from sparsemix import (
    DataError,
    DegenerateInstanceError,
    ExperimentConfig,
    InvalidConfigError,
    LassoConfig,
    MixedDataset,
    NoiseProfile,
    SparseSignal,
    SparsemixError,
    generate_dataset,
    kkt_recovery_witness,
    lambda_schedule,
    signed_support_match,
    solve_lasso,
)
from sparsemix import lasso as lasso_mod


def uniform_profile(n):
    n1 = n // 2
    return NoiseProfile(n1=n1, n2=n - n1, sigma1_sq=1.0, sigma2_sq=1.0)


def random_dataset(n, p, seed, sigma1_sq=0.25, sigma2_sq=1.0, support=(0, 3), values=(1.0, -1.0)):
    sig = SparseSignal(p=p, support=support, values=values)
    n1 = n // 2
    noise = NoiseProfile(n1=n1, n2=n - n1, sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq)
    return generate_dataset(sig, noise, seed=seed), sig


def objective(ds, beta, lam):
    resid = ds.Y - ds.X @ beta
    return 0.5 * float(resid @ resid) / len(ds.Y) + lam * float(np.abs(beta).sum())


def test_scalar_soft_threshold():
    prof = NoiseProfile(n1=1, n2=0, sigma1_sq=1.0, sigma2_sq=1.0)
    ds = MixedDataset(X=np.array([[1.0]]), Y=np.array([2.0]), noise=prof)
    sol = solve_lasso(ds, LassoConfig(lam=0.5))
    assert sol.converged
    assert math.isclose(sol.beta[0], 1.5, rel_tol=1e-12)


def test_zero_penalty_solves_least_squares():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((8, 8)) + 3.0 * np.eye(8)
    Y = rng.standard_normal(8)
    ds = MixedDataset(X=X, Y=Y, noise=uniform_profile(8))
    sol = solve_lasso(ds, LassoConfig(lam=0.0, tol=1e-12))
    exact = np.linalg.solve(X.T @ X, X.T @ Y)
    assert sol.converged
    assert np.abs(sol.beta - exact).max() < 1e-8
    grad = X.T @ (Y - X @ sol.beta) / 8.0
    assert np.abs(grad).max() < 1e-10


def test_full_shrinkage_above_lambda_max():
    ds, _ = random_dataset(20, 10, seed=4)
    lam_max = float(np.abs(ds.X.T @ ds.Y).max()) / 20.0
    sol = solve_lasso(ds, LassoConfig(lam=lam_max * 1.000001))
    assert np.all(sol.beta == 0.0)
    assert sol.converged


def test_orthonormal_design_has_closed_form():
    rng = np.random.default_rng(8)
    n, p = 32, 12
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = math.sqrt(n) * q
    Y = rng.standard_normal(n)
    ds = MixedDataset(X=X, Y=Y, noise=uniform_profile(n))
    lam = 0.07
    sol = solve_lasso(ds, LassoConfig(lam=lam, tol=1e-13))
    corr = X.T @ Y / n
    closed = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
    assert np.abs(sol.beta - closed).max() < 1e-12
    assert sol.sweeps <= 3


def test_objective_is_the_reported_value_and_never_worse_than_zero_vector():
    ds, _ = random_dataset(40, 25, seed=6)
    lam = 0.1
    sol = solve_lasso(ds, LassoConfig(lam=lam))
    assert math.isclose(sol.objective, objective(ds, sol.beta, lam), rel_tol=1e-10)
    assert sol.objective <= objective(ds, np.zeros(25), lam) + 1e-12


def test_solver_satisfies_kkt_stationarity():
    for seed in range(5):
        ds, _ = random_dataset(50, 30, seed=seed)
        lam = 0.05 + 0.02 * seed
        tol = 1e-10
        sol = solve_lasso(ds, LassoConfig(lam=lam, tol=tol))
        assert sol.converged
        grad = ds.X.T @ (ds.Y - ds.X @ sol.beta) / 50.0
        on = sol.beta != 0.0
        if on.any():
            assert np.abs(grad[on] - lam * np.sign(sol.beta[on])).max() < 10 * math.sqrt(tol)
        if (~on).any():
            assert np.abs(grad[~on]).max() <= lam + 10 * math.sqrt(tol)


def test_budget_exhaustion_reports_nonconvergence():
    ds, _ = random_dataset(60, 40, seed=2)
    sol = solve_lasso(ds, LassoConfig(lam=0.01, tol=1e-15, max_sweeps=2))
    assert not sol.converged
    assert sol.sweeps == 2


def test_solution_depends_only_on_realized_data():
    ds, _ = random_dataset(30, 15, seed=9, sigma1_sq=0.2, sigma2_sq=0.9)
    relabeled = MixedDataset(
        X=ds.X,
        Y=ds.Y,
        noise=NoiseProfile(n1=10, n2=20, sigma1_sq=0.01, sigma2_sq=5.0),
    )
    a = solve_lasso(ds, LassoConfig(lam=0.08))
    b = solve_lasso(relabeled, LassoConfig(lam=0.08))
    assert np.array_equal(a.beta, b.beta)


def full_sweep_lasso(X, Y, lam, tol=1e-8):
    """Reference: cyclic coordinate descent over every coordinate each sweep."""
    n, p = X.shape
    beta = np.zeros(p)
    resid = Y.copy()
    diag = np.einsum("ij,ij->j", X, X) / n
    for _ in range(100_000):
        max_delta = 0.0
        for j in range(p):
            rho = float(X[:, j] @ resid) / n + diag[j] * beta[j]
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / diag[j]
            d = new - beta[j]
            if d != 0.0:
                resid -= X[:, j] * d
                beta[j] = new
                max_delta = max(max_delta, abs(d))
        if max_delta < tol:
            return beta
    raise AssertionError("reference did not converge")


def a01_instance(n1, seed):
    """A trial at the reference Lasso sweep's shape: p=512, s=8, schedule lam."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=8)
    sig = SparseSignal(p=512, support=tuple(range(8)), values=tuple(signs))
    noise = NoiseProfile(n1=n1, n2=n1, sigma1_sq=0.1, sigma2_sq=0.4)
    lam = lambda_schedule(noise.sigma_avg_sq, p=512, s=8, n=2 * n1, rho=1.0)
    return generate_dataset(sig, noise, seed=seed), lam


def assert_matches_full_sweep_reference(ds, lam, tol=1e-8):
    sol = solve_lasso(ds, LassoConfig(lam=lam, tol=tol))
    ref = full_sweep_lasso(ds.X, ds.Y, lam, tol)
    assert sol.converged
    assert np.array_equal(np.sign(sol.beta), np.sign(ref))
    assert math.isclose(sol.objective, objective(ds, ref, lam), rel_tol=1e-9)
    grad = ds.X.T @ (ds.Y - ds.X @ sol.beta) / len(ds.Y)
    on = sol.beta != 0.0
    assert np.abs(grad[on] - lam * np.sign(sol.beta[on])).max() < 1e-6
    assert np.abs(grad[~on]).max() <= lam + 1e-6


@pytest.mark.parametrize(
    "n1,seed", [(27, 1), (27, 2), (27, 5), (109, 3), (109, 4), (109, 6)]
)
def test_working_set_solver_matches_full_sweep_reference(n1, seed):
    assert_matches_full_sweep_reference(*a01_instance(n1, seed))


def test_small_instance_matches_full_sweep_reference():
    ds, _ = random_dataset(40, 20, seed=12)
    assert_matches_full_sweep_reference(ds, 0.06, tol=1e-12)


def test_sign_breaking_finish_falls_back_to_descent(monkeypatch):
    ds, lam = a01_instance(27, 0)
    tried = []
    real = lasso_mod._sign_pattern_solution

    def spy(X, Y, signs, lam):
        tried.append((signs.copy(), real(X, Y, signs, lam)))
        return tried[-1][1]

    monkeypatch.setattr(lasso_mod, "_sign_pattern_solution", spy)
    assert_matches_full_sweep_reference(ds, lam)
    # the first pattern's stationarity solution is nonsingular but flips a sign
    signs, first = tried[0]
    assert first is None
    cols = np.flatnonzero(signs)
    xa = ds.X[:, cols]
    beta_a = np.linalg.solve(xa.T @ xa, xa.T @ ds.Y - len(ds.Y) * lam * signs[cols])
    assert not np.array_equal(np.sign(beta_a), signs[cols])
    assert tried[-1][1] is not None


def test_finish_that_would_raise_the_objective_is_skipped(monkeypatch):
    ds, lam = a01_instance(109, 3)
    # keeps every sign of the pattern but lands far from the minimizer
    monkeypatch.setattr(
        lasso_mod, "_sign_pattern_solution", lambda X, Y, signs, lam: 3.0 * signs
    )
    assert_matches_full_sweep_reference(ds, lam)


def test_singular_finish_falls_back_to_descent(monkeypatch):
    # column 5 is twice column 4, so a sign pattern holding both has a
    # singular stationarity system; the finish skips it and descent goes on
    gen = np.random.default_rng(0)
    X = gen.standard_normal((30, 12))
    X[:, 5] = 2 * X[:, 4]
    Y = 3 * X[:, 4] + X[:, :3].sum(1) + 0.1 * gen.standard_normal(30)
    noise = NoiseProfile(n1=15, n2=15, sigma1_sq=0.1, sigma2_sq=0.1)
    ds = MixedDataset(X=X, Y=Y, noise=noise)
    singular, solve = [], np.linalg.solve

    def spy(a, b):
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    sol = solve_lasso(ds, LassoConfig(lam=0.05))
    assert singular
    assert sol.converged and sol.sweeps == 78
    monkeypatch.undo()
    assert_matches_full_sweep_reference(ds, 0.05)


def test_objective_rise_raises_typed_error(monkeypatch):
    ds, _ = random_dataset(40, 20, seed=12)
    monkeypatch.setattr(lasso_mod, "_soft", lambda x, t: 2 * x)
    with pytest.raises(SparsemixError, match="objective rose"):
        solve_lasso(ds, LassoConfig(lam=0.06))


def count_from_scratch_residuals(monkeypatch, ds, lam):
    """Solve with spies; return the solution, a copy of the beta of each
    _residual call and how many of those calls formed a finish candidate's
    residual."""
    calls, pending = [], []
    residual, finish = lasso_mod._residual, lasso_mod._sign_pattern_solution

    def residual_spy(X, Y, beta):
        calls.append(beta.copy())
        return residual(X, Y, beta)

    def finish_spy(X, Y, signs, lam):
        exact = finish(X, Y, signs, lam)
        if exact is not None:
            pending.append((len(calls), exact.copy()))
        return exact

    monkeypatch.setattr(lasso_mod, "_residual", residual_spy)
    monkeypatch.setattr(lasso_mod, "_sign_pattern_solution", finish_spy)
    sol = solve_lasso(ds, LassoConfig(lam=lam))
    # each candidate's residual is the very next call
    assert all(np.array_equal(calls[i], exact) for i, exact in pending)
    return sol, calls, len(pending)


def test_no_pass_rebuilds_the_residual_from_scratch(monkeypatch):
    # no two consecutive from-scratch residuals are formed for equal betas:
    # a check after a kept finish and the returned objective after a check
    # reuse the residual already formed
    ds, lam = a01_instance(27, 0)
    for refresh in (lasso_mod._REFRESH_SWEEPS, 1):  # 1: a check after every pass
        monkeypatch.setattr(lasso_mod, "_REFRESH_SWEEPS", refresh)
        sol, calls, candidates = count_from_scratch_residuals(monkeypatch, ds, lam)
        assert sol.converged and sol.sweeps >= 10 and candidates
        assert np.array_equal(calls[-1], sol.beta)  # the returned objective's
        assert not any(np.array_equal(a, b) for a, b in zip(calls, calls[1:]))
        checks = len(calls) - candidates
        assert checks <= (sol.sweeps if refresh == 1 else sol.sweeps // 2 - 1)


def unscreened_solve(ds, config):
    """Oracle: the solver without the pass-1 screen or the per-pass column
    gather. Every pass steps through all of its coordinates on columns of a
    Fortran copy of X."""
    X, Y, lam, tol = ds.X, ds.Y, config.lam, config.tol
    n = len(Y)
    beta = np.zeros(X.shape[1])
    xf = np.asfortranarray(X)
    diag = np.einsum("ij,ij->j", X, X) / n
    resid = Y.copy()
    coords = np.flatnonzero(diag > 0.0).tolist()
    admitted = np.zeros(len(beta), dtype=bool)
    prev_obj = lasso_mod._objective(resid, beta, lam)
    converged = finish_due = False
    signs = tried = None
    for sweeps in range(1, config.max_sweeps + 1):
        max_delta = 0.0
        if finish_due:
            exact = lasso_mod._sign_pattern_solution(X, Y, signs, lam)
            tried, max_delta = signs, math.inf
            if exact is not None:
                fresh = lasso_mod._residual(X, Y, exact)
                finish_obj = lasso_mod._objective(fresh, exact, lam)
                if finish_obj <= prev_obj + 1e-10 * (1.0 + abs(prev_obj)):
                    beta, resid, max_delta = exact, fresh, 0.0
                    coords = np.flatnonzero(exact)
        else:
            for j in coords:
                a = diag[j]
                old = beta[j]
                new = lasso_mod._soft(float(xf[:, j] @ resid) / n + a * old, lam) / a
                d = new - old
                if d != 0.0:
                    resid -= xf[:, j] * d
                    beta[j] = new
                    max_delta = max(max_delta, abs(d))
        prev_obj = lasso_mod._objective(resid, beta, lam)
        if max_delta < tol or sweeps % lasso_mod._REFRESH_SWEEPS == 0:
            resid = lasso_mod._residual(X, Y, beta)
            admitted = np.abs((X.T @ resid) / n) > lam
            admitted[coords] = False
            if max_delta < tol and not admitted.any():
                converged = True
                break
        coords = np.flatnonzero((beta != 0.0) | admitted).tolist()
        signs, last = np.sign(beta), signs
        finish_due = np.array_equal(signs, last) and not np.array_equal(signs, tried)
    obj = lasso_mod._objective(lasso_mod._residual(X, Y, beta), beta, lam)
    return beta, obj, sweeps, converged


def with_design(ds, X):
    return MixedDataset(X=X, Y=ds.Y, noise=ds.noise)


def screen_parity_corpus():
    """(name, dataset, config) cases around the pass-1 screen."""
    cases = []
    for n1, seeds in ((27, range(6)), (109, range(4))):
        for seed in seeds:
            ds, lam = a01_instance(n1, seed)
            cases.append((f"a01-n{2 * n1}-seed{seed}", ds, LassoConfig(lam=lam)))
    ds, lam = a01_instance(27, 7)
    cases.append(("a01-budget", ds, LassoConfig(lam=lam, max_sweeps=3)))
    fortran = with_design(ds, np.asfortranarray(ds.X))
    cases.append(("a01-fortran-design", fortran, LassoConfig(lam=lam)))
    for n1 in (27, 109):
        noise = NoiseProfile(n1=n1, n2=n1, sigma1_sq=0.1, sigma2_sq=0.4)
        sig = SparseSignal(p=512, support=tuple(range(504, 512)), values=(1.0, -1.0) * 4)
        lam = lambda_schedule(noise.sigma_avg_sq, p=512, s=8, n=2 * n1, rho=1.0)
        ds = generate_dataset(sig, noise, seed=n1)
        cases.append((f"last-support-n{2 * n1}", ds, LassoConfig(lam=lam)))
    ds, lam = a01_instance(27, 3)
    X = ds.X.copy()
    X[:, [0, 63, 64, 65, 511]] = 0.0
    X[:, 300:370] = 0.0  # a whole block of zero columns
    cases.append(("zero-columns", with_design(ds, X), LassoConfig(lam=lam)))
    ds, _ = random_dataset(40, 100, seed=21)
    cases.append(("lam0-wide", ds, LassoConfig(lam=0.0, max_sweeps=30)))
    ds, _ = random_dataset(150, 70, seed=22)
    cases.append(("lam0-tall", ds, LassoConfig(lam=0.0, max_sweeps=300)))
    for p in (lasso_mod._BLOCK - 1, lasso_mod._BLOCK, lasso_mod._BLOCK + 1):
        ds, _ = random_dataset(30, p, seed=p, support=(0, p - 1))
        cases.append((f"p{p}", ds, LassoConfig(lam=0.05)))
    return cases


def assert_matches_unscreened_solve(ds, config):
    sol = solve_lasso(ds, config)
    beta, obj, sweeps, converged = unscreened_solve(ds, config)
    assert sol.beta.tobytes() == beta.tobytes()
    assert sol.objective.hex() == obj.hex()
    assert (sol.sweeps, sol.converged) == (sweeps, converged)
    return sol


@pytest.mark.parametrize("case", screen_parity_corpus(), ids=lambda c: c[0])
def test_screened_solver_matches_unscreened_pass_loop_bit_for_bit(case):
    _, ds, config = case
    assert_matches_unscreened_solve(ds, config)


@pytest.mark.parametrize("ulps", [-1, 0, 1])
def test_screen_boundary_matches_unscreened_pass_loop(ulps):
    # column 130 has the largest |x_j^T Y|, so pass 1 reaches it with r = Y;
    # lam sits at its step value |fl(x_j . Y) / n| or one ulp to either side,
    # where the step starts to move. With OpenBLAS 0.3.31 the gemv over
    # columns 128-191 reads |g_k| 4 ulps under the step's ddot, so at one ulp
    # below, a screen without the rounding slack would skip this move.
    rng = np.random.default_rng(21)
    n, p, k = 50, 200, 130
    X = rng.standard_normal((n, p))
    Y = rng.standard_normal(n)
    X[:, k] *= 4.0
    assert int(np.argmax(np.abs(X.T @ Y))) == k
    t = float(np.ascontiguousarray(X[:, k]) @ Y)
    lam = float(np.nextafter(abs(t / n), math.inf * ulps)) if ulps else abs(t / n)
    ds = MixedDataset(X=X, Y=Y, noise=uniform_profile(n))
    sol = assert_matches_unscreened_solve(ds, LassoConfig(lam=lam, max_sweeps=40))
    assert (sol.beta[k] != 0.0) == (ulps < 0)


def test_wide_solve_allocates_a_small_fraction_of_the_design():
    sig = SparseSignal(p=5000, support=tuple(range(8)), values=(1.0, -1.0) * 4)
    noise = NoiseProfile(n1=150, n2=150, sigma1_sq=0.1, sigma2_sq=0.4)
    ds = generate_dataset(sig, noise, seed=3)
    lam = lambda_schedule(noise.sigma_avg_sq, p=5000, s=8, n=300, rho=1.0)
    tracemalloc.start()
    try:
        sol = solve_lasso(ds, LassoConfig(lam=lam))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sol.converged
    assert peak < ds.X.nbytes / 4


def test_lasso_config_validation():
    with pytest.raises(ValueError):
        LassoConfig(lam=-0.5)
    with pytest.raises(ValueError):
        LassoConfig(lam=math.nan)
    with pytest.raises(ValueError):
        LassoConfig(lam=0.1, tol=0.0)
    with pytest.raises(ValueError):
        LassoConfig(lam=0.1, max_sweeps=0)


def test_lasso_config_needs_a_finite_tol_and_an_integer_budget():
    # an accepted exact finish relies on 0 < tol to rebuild the residual
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            LassoConfig(lam=0.1, tol=tol)
    with pytest.raises(ValueError, match="max_sweeps"):
        LassoConfig(lam=0.1, max_sweeps=2.5)
    assert type(LassoConfig(lam=0.1, max_sweeps=np.int64(3)).max_sweeps) is int


def test_lambda_schedule_frozen_value():
    # (sigma_avg_sq * ln(p-s) / ((1+s/rho^2) n))^(1/4)
    # at (2, p=152, s=4, n=1000, rho=1): (2 ln 148 / 5000)^(1/4)
    lam = lambda_schedule(2.0, p=152, s=4, n=1000, rho=1.0)
    assert math.isclose(lam, 0.2114447699070308, rel_tol=1e-12)


def test_lambda_schedule_scaling_laws():
    base = lambda_schedule(1.0, p=100, s=4, n=500, rho=1.0)
    quad = lambda_schedule(16.0, p=100, s=4, n=500, rho=1.0)
    assert math.isclose(quad, 2.0 * base, rel_tol=1e-12)
    # huge rho removes the 1 + s/rho^2 factor
    loose = lambda_schedule(1.0, p=100, s=1, n=500, rho=1e9)
    assert math.isclose(loose, (math.log(99.0) / 500.0) ** 0.25, rel_tol=1e-6)
    with pytest.raises(ValueError):
        lambda_schedule(1.0, p=5, s=4, n=500, rho=1.0)
    with pytest.raises(ValueError):
        lambda_schedule(1.0, p=100, s=4, n=500, rho=0.0)


def test_lambda_schedule_past_the_float_range():
    # rho^2 overflows from about 1.34e154 on; from rho = 2^511 on 1 + s/rho^2
    # is already 1, so every rho whose square is finite keeps its lam
    def formula(rho):
        return (1.0 * math.log(96) / ((1.0 + 4 / rho**2) * 500)) ** 0.25

    for rho in (1e150, 2.0**511, 1e154):
        assert lambda_schedule(1.0, p=100, s=4, n=500, rho=rho) == formula(rho)
    for rho in (1e155, 1e300, sys.float_info.max):
        assert lambda_schedule(1.0, p=100, s=4, n=500, rho=rho) == formula(1e154)
    # sigma_avg_sq ln(p - s) overflows: a lam of inf would fail every solve
    with pytest.raises(ValueError, match="not finite"):
        lambda_schedule(1e308, p=64, s=4, n=1, rho=1.0)
    with pytest.raises(InvalidConfigError, match="not finite"):
        ExperimentConfig(decoder="Lasso", p=64, s=4, rho=1.0, sigma1_sq=1e308,
                         sigma2_sq=1e308, grid=((0, 1),), trials=2)
    # the schedule takes rho = 1e155, but the config's squared response could
    # overflow, so the config is refused all the same
    with pytest.raises(InvalidConfigError, match="squared response can overflow"):
        ExperimentConfig(decoder="Lasso", p=64, s=4, rho=1e155, sigma1_sq=0.5,
                         sigma2_sq=1.0, grid=((4, 4),), trials=2)


def test_schedule_counts_are_keyword_only():
    # p and n are both ints, so a positional swap would pass silently
    with pytest.raises(TypeError):
        lambda_schedule(1.0, 100, 4, 500, 1.0)


def test_witness_orthonormal_noiseless_case():
    rng = np.random.default_rng(15)
    n, p, lam = 36, 9, 0.3
    q, _ = np.linalg.qr(rng.standard_normal((n, p)))
    X = math.sqrt(n) * q
    sig = SparseSignal(p=p, support=(1, 4, 6), values=(1.0, -1.0, 2.0))
    Y = X @ sig.dense()
    ds = MixedDataset(X=X, Y=Y, noise=uniform_profile(n))
    rep = kkt_recovery_witness(ds, sig, lam)
    assert rep.condition1 and rep.condition2 and rep.recovery
    assert not rep.boundary
    # with orthonormal columns U reduces to -lam * sign(beta), so the
    # strict slack is |beta| - lam on every support coordinate
    expect = np.abs(np.array(sig.values)) - lam
    assert np.allclose(np.sort(rep.on_support_slack), np.sort(expect), atol=1e-9)
    assert np.allclose(rep.off_support_margin, lam, atol=1e-9)


def test_witness_zero_penalty_zero_noise_recovers():
    sig = SparseSignal(p=6, support=(1, 4), values=(1.0, -2.0))
    noise = NoiseProfile(n1=6, n2=6, sigma1_sq=0.0, sigma2_sq=0.0)
    ds = generate_dataset(sig, noise, seed=5)
    rep = kkt_recovery_witness(ds, sig, 0.0)
    assert rep.recovery
    assert rep.boundary  # equality margins sit exactly on the boundary


def test_witness_on_a_full_support_has_no_margins():
    # with s = p no column lies off the support, so condition2 holds vacuously
    sig = SparseSignal(p=3, support=(0, 1, 2), values=(1.0, -1.0, 2.0))
    noise = NoiseProfile(n1=6, n2=6, sigma1_sq=0.0, sigma2_sq=0.0)
    rep = kkt_recovery_witness(generate_dataset(sig, noise, seed=2), sig, 0.1)
    assert rep.off_support_margin.shape == (0,)
    assert rep.condition2 and rep.recovery == rep.condition1


def test_witness_flags_degenerate_design():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 6))
    X[:, 1] = X[:, 0]
    sig = SparseSignal(p=6, support=(0, 1), values=(1.0, 1.0))
    Y = X @ sig.dense()
    ds = MixedDataset(X=X, Y=Y, noise=uniform_profile(20))
    with pytest.raises(DegenerateInstanceError):
        kkt_recovery_witness(ds, sig, 0.1)


def test_witness_requires_fewer_support_columns_than_rows():
    ds, sig = random_dataset(30, 10, seed=3)
    big = SparseSignal(p=10, support=tuple(range(10)), values=(1.0,) * 10)
    wide = MixedDataset(X=ds.X[:8], Y=ds.Y[:8], noise=NoiseProfile(n1=4, n2=4, sigma1_sq=0.25, sigma2_sq=1.0))
    with pytest.raises(ValueError):
        kkt_recovery_witness(wide, big, 0.1)


def irrepresentable_design():
    # orthogonal support columns of squared norm n and an off-support column
    # 0.765 (x_0 + x_1): noiseless, V_2 = 1.53 lam, so condition2 fails by
    # 0.53 lam at every lam while the other margins read lam
    n, p = 40, 6
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((n, p)))
    X = math.sqrt(n) * q
    X[:, 2] = 0.765 * (X[:, 0] + X[:, 1])
    sig = SparseSignal(p=p, support=(0, 1), values=(1.0, 1.0))
    return MixedDataset(X=X, Y=X[:, 0] + X[:, 1], noise=uniform_profile(n)), sig


@pytest.mark.parametrize("lam", [1e-1, 1e-9, 1e-11])
def test_witness_verdict_does_not_follow_the_scale_of_lam(lam):
    ds, sig = irrepresentable_design()
    rep = kkt_recovery_witness(ds, sig, lam)
    assert rep.condition1 and not rep.condition2 and not rep.recovery
    assert not rep.boundary
    assert math.isclose(rep.off_support_margin.min(), -0.53 * lam, rel_tol=1e-9)


@pytest.mark.parametrize("seed", [6, 27, 103, 162, 184])
def test_witness_refuses_a_tiny_negative_margin_at_tiny_noise(seed):
    # at sigma^2 = 1e-30 and lam = 1e-10 every margin is a few lam or less;
    # these seeds hold one below zero (solve_lasso puts 37 nonzeros off
    # the support), which an absolute tolerance of 1e-9 used to accept
    sig = SparseSignal(p=40, support=(0, 1, 2), values=(1.0, 1.0, 1.0))
    noise = NoiseProfile(n1=20, n2=20, sigma1_sq=1e-30, sigma2_sq=1e-30)
    rep = kkt_recovery_witness(generate_dataset(sig, noise, seed=seed), sig, 1e-10)
    assert rep.off_support_margin.min() < 0.0
    assert not rep.condition2 and not rep.recovery and not rep.boundary


def test_witness_verdicts_keep_under_power_of_two_rescaling():
    # X, Y -> c X, c Y and lam -> c^2 lam leave U and slack alone and scale
    # V and the margins by c^2; a verdict must not change with c
    cases = [irrepresentable_design() + (0.3,)]
    for seed in range(6):
        ds, sig = random_dataset(30, 12, seed=seed, support=(1, 4, 7), values=(1.0, -1.0, 0.8))
        cases.append((ds, sig, 0.25))
    for ds, sig, lam in cases:
        base = kkt_recovery_witness(ds, sig, lam)
        for k in (-40, -7, 9, 60):
            c = 2.0**k
            scaled = MixedDataset(X=c * ds.X, Y=c * ds.Y, noise=ds.noise)
            rep = kkt_recovery_witness(scaled, sig, c * c * lam)
            verdict = (rep.condition1, rep.condition2, rep.recovery, rep.boundary)
            assert verdict == (base.condition1, base.condition2, base.recovery, base.boundary)
            assert np.allclose(rep.on_support_slack, base.on_support_slack, rtol=1e-12)
            assert np.allclose(rep.off_support_margin, c * c * base.off_support_margin, rtol=1e-12)


def test_witness_agrees_with_solver_verdict():
    agree = 0
    total = 0
    rng = np.random.default_rng(33)
    for trial in range(40):
        p = int(rng.integers(10, 30))
        s = int(rng.integers(1, 4))
        n = 10 * s + int(rng.integers(10, 30))
        support = tuple(sorted(rng.choice(p, size=s, replace=False).tolist()))
        values = tuple(float(rng.choice([-1.0, 1.0])) for _ in range(s))
        sig = SparseSignal(p=p, support=support, values=values)
        n1 = n // 2
        s2 = float(rng.uniform(0.05, 1.0))
        s1 = float(rng.uniform(0.1, 1.0)) * s2
        noise = NoiseProfile(n1=n1, n2=n - n1, sigma1_sq=s1, sigma2_sq=s2)
        ds = generate_dataset(sig, noise, seed=1000 + trial)
        lam = lambda_schedule(noise.sigma_avg_sq, p=p, s=s, n=n, rho=1.0)
        rep = kkt_recovery_witness(ds, sig, lam)
        if rep.boundary:
            continue
        sol = solve_lasso(ds, LassoConfig(lam=lam, tol=1e-10))
        if not sol.converged:
            continue
        total += 1
        if rep.recovery == signed_support_match(sol.beta, sig):
            agree += 1
    assert total >= 25
    assert agree == total


def test_non_finite_inputs_rejected_at_construction():
    X = np.ones((4, 2))
    Y = np.ones(4)
    Y[1] = math.inf
    with pytest.raises(DataError):
        MixedDataset(X=X, Y=Y, noise=NoiseProfile(n1=2, n2=2, sigma1_sq=1.0, sigma2_sq=1.0))
