"""Tests for the coordinate-descent solver, penalty schedule, and KKT witness."""

import math

import numpy as np
import pytest

from sparsemix import (
    DataError,
    DegenerateInstanceError,
    LassoConfig,
    MixedDataset,
    NoiseProfile,
    SampleSizeVerdict,
    SparseSignal,
    SparsemixError,
    classify_sample_size,
    generate_dataset,
    kkt_recovery_witness,
    lambda_schedule,
    noise_scaling_ok,
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


def test_objective_rise_raises_typed_error(monkeypatch):
    ds, _ = random_dataset(40, 20, seed=12)
    monkeypatch.setattr(lasso_mod, "_soft", lambda x, t: 2 * x)
    with pytest.raises(SparsemixError, match="objective rose"):
        solve_lasso(ds, LassoConfig(lam=0.06))


def test_lasso_config_validation():
    with pytest.raises(ValueError):
        LassoConfig(lam=-0.5)
    with pytest.raises(ValueError):
        LassoConfig(lam=math.nan)
    with pytest.raises(ValueError):
        LassoConfig(lam=0.1, tol=0.0)
    with pytest.raises(ValueError):
        LassoConfig(lam=0.1, max_sweeps=0)


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


def test_noise_scaling_frozen_example():
    res = noise_scaling_ok(0.25, p=512, s=8, n=220, rho=1.0)
    assert res.ok
    assert math.isclose(res.ratio, 0.06363998455982083, rel_tol=1e-12)
    assert noise_scaling_ok(0.0, p=512, s=8, n=220, rho=1.0).ok
    # ratio exactly one fails any margin below one
    n, p, s, rho = 220, 512, 8, 1.0
    avg = n / ((1.0 + s / rho**2) * math.log(p - s))
    res_one = noise_scaling_ok(avg, p=p, s=s, n=n, rho=rho)
    assert math.isclose(res_one.ratio, 1.0, rel_tol=1e-12)
    assert not res_one.ok


def test_schedule_counts_are_keyword_only():
    # p and n are both ints, so a positional swap would pass silently
    with pytest.raises(TypeError):
        lambda_schedule(1.0, 100, 4, 500, 1.0)
    with pytest.raises(TypeError):
        noise_scaling_ok(0.25, 512, 8, 220, 1.0)


def test_classify_sample_size_frozen_boundaries():
    # threshold 2 s ln(p-s) + s + 1 at (s=8, p=512) is 16 ln 504 + 9
    assert classify_sample_size(109, 512, 8, 0.5) is SampleSizeVerdict.GAP
    assert classify_sample_size(218, 512, 8, 0.5) is SampleSizeVerdict.ABOVE_SUFFICIENCY
    assert classify_sample_size(54, 512, 8, 0.5) is SampleSizeVerdict.BELOW_NECESSITY
    with pytest.raises(ValueError):
        classify_sample_size(100, 512, 8, 0.0)


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
