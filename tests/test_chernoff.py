"""Tests for the misranking bounds and the Monte Carlo misrank estimator."""

import math

import numpy as np
import pytest
from scipy.stats import binomtest

from sparsemix import (
    ChernoffQuery,
    NoiseProfile,
    Setting,
    SparseSignal,
    block_mgf,
    chernoff,
    chernoff_bound,
    chernoff_log_bound,
    empirical_misrank,
    lq_domain_limit,
    m_for_error_budget,
    optimal_theta_agnostic,
)


def query(setting=Setting.AGNOSTIC, n1=10, n2=10, s1=1.0, s2=4.0, m=8, theta=None):
    return ChernoffQuery(
        setting=setting, n1=n1, n2=n2, sigma1_sq=s1, sigma2_sq=s2, m=m, theta=theta
    )


def test_mgf_is_one_at_theta_zero():
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        q = query(setting=setting, theta=0.0)
        assert block_mgf(q, 1) == 1.0
        assert block_mgf(q, 2) == 1.0
        assert chernoff_bound(q) == 1.0


def test_mgf_relaxed_point_closed_form():
    # at theta = 1/(4 sigma2_sq) the noisy-block MGF simplifies to
    # (1 + m/(4 sigma2_sq))^(-1/2)
    q = query(theta=1.0 / 16.0)
    want = (1.0 + 8.0 / 16.0) ** -0.5
    assert math.isclose(block_mgf(q, 2), want, rel_tol=1e-12)


def test_mgf_domain_boundary_is_infinite():
    q = query(theta=10.0)
    assert math.isinf(block_mgf(q, 2))
    assert math.isinf(block_mgf(q, 1))
    assert chernoff_bound(q) == math.inf


def test_bound_frozen_values():
    # agnostic at (1, 4), n1=n2=10, m=8 with the relaxed theta:
    # (1 + 4*7/32)^(-5) * (1 + 4/8)^(-5) = 1.875^(-5) * 1.5^(-5)
    assert math.isclose(
        chernoff_bound(query()), 0.005682472522820031, rel_tol=1e-12
    )
    # informed at the same instance: (1 + 8/4)^(-5) * (1 + 8/16)^(-5)
    assert math.isclose(
        chernoff_bound(query(setting=Setting.INFORMED)),
        0.0005419228098697692,
        rel_tol=1e-12,
    )


def test_bound_trivial_cases():
    empty = query(n1=0, n2=0)
    assert chernoff_bound(empty) == 1.0
    assert chernoff_log_bound(empty) == 0.0
    # equal variances collapse the two settings onto one expression
    for m in (2, 4, 10):
        for v in (0.5, 1.0, 3.0):
            ag = chernoff_bound(query(s1=v, s2=v, m=m))
            inf = chernoff_bound(query(setting=Setting.INFORMED, s1=v, s2=v, m=m))
            assert math.isclose(ag, inf, rel_tol=1e-12)


def test_log_bound_consistency_and_underflow_safety():
    q = query()
    assert math.isclose(
        math.exp(chernoff_log_bound(q)), chernoff_bound(q), rel_tol=1e-12
    )
    huge = query(n1=10**6, n2=10**6)
    lb = chernoff_log_bound(huge)
    assert lb < -100000.0
    assert math.isfinite(lb)
    assert chernoff_bound(huge) == 0.0


@pytest.mark.parametrize("s2", [2.0, 3.0, 4.0, 9.0])
def test_empty_block_contributes_no_factor_and_no_domain(s2):
    lone = query(n1=10, n2=0, s1=1.0, s2=s2, m=2)
    # only the clean block counts: its domain, and its optimum 1/(4 sigma1_sq)
    clean_only = query(n1=10, n2=10, s1=1.0, s2=1.0, m=2)
    assert lq_domain_limit(lone) == lq_domain_limit(clean_only)
    best = optimal_theta_agnostic(lone)
    assert math.isclose(best.theta, 0.25, rel_tol=1e-12)
    assert math.isclose(best.log_bound, -5.0 * math.log1p(0.5), rel_tol=1e-12)
    # theta = 0.45 is off the empty block's domain but inside the clean one's
    at = query(n1=10, n2=0, s1=1.0, s2=s2, m=2, theta=0.45)
    assert math.isinf(block_mgf(at, 2))
    want = -5.0 * math.log1p(0.18)
    assert math.isclose(chernoff_log_bound(at), want, rel_tol=1e-12)
    # with the clean block empty instead, the noisy block alone binds
    noisy = query(n1=0, n2=10, s1=1.0, s2=s2, m=2)
    both = query(n1=10, n2=10, s1=1.0, s2=s2, m=2)
    assert lq_domain_limit(noisy) == lq_domain_limit(both)
    assert optimal_theta_agnostic(noisy).theta == noisy.default_theta()


def test_query_without_rows_bounds_by_one_at_any_theta():
    empty = query(n1=0, n2=0, s1=1.0, s2=4.0, m=2)
    assert lq_domain_limit(empty) == math.inf
    assert optimal_theta_agnostic(empty) == (empty.default_theta(), 0.0)
    assert chernoff_bound(query(n1=0, n2=0, theta=100.0)) == 1.0


def test_bound_beyond_float_range_is_the_useless_marker():
    q = query(n1=0, n2=100_000, s1=1.0, s2=1.0, m=2, theta=0.6)
    assert 709.0 < chernoff_log_bound(q) < math.inf
    assert chernoff_bound(q) == math.inf


def test_informed_bound_dominates_agnostic():
    for m in (2, 6, 12):
        for s2 in (0.5, 2.0, 8.0):
            for frac in (0.1, 0.5, 0.999, 1.0):
                s1 = frac * s2
                ag = chernoff_log_bound(query(s1=s1, s2=s2, m=m))
                inf = chernoff_log_bound(
                    query(setting=Setting.INFORMED, s1=s1, s2=s2, m=m)
                )
                assert inf <= ag + 1e-12


def test_bounds_monotone_in_sample_counts_and_overlap():
    base = chernoff_log_bound(query())
    assert chernoff_log_bound(query(n1=11)) <= base
    assert chernoff_log_bound(query(n2=11)) <= base
    assert chernoff_log_bound(query(m=10)) <= base
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        prev = 0.0
        for n in (1, 2, 5, 10, 50):
            val = chernoff_log_bound(query(setting=setting, n1=n, n2=n))
            assert val <= prev + 1e-15
            prev = val


def test_domain_limit_marks_the_mgf_boundary():
    for m in (2, 8, 20):
        for s2 in (0.5, 4.0):
            s1 = 0.5 * s2
            q = query(s1=s1, s2=s2, m=m)
            lim = lq_domain_limit(q)
            inside = query(s1=s1, s2=s2, m=m, theta=lim * (1.0 - 1e-9))
            outside = query(s1=s1, s2=s2, m=m, theta=lim)
            assert math.isfinite(block_mgf(inside, 2))
            assert math.isinf(block_mgf(outside, 2))
            # the clean block stays finite longer than the noisy block
            assert math.isfinite(block_mgf(inside, 1))


def test_optimal_theta_equal_variances_closed_form():
    for v in (0.25, 1.0, 2.0, 7.5):
        q = query(s1=v, s2=v, m=4)
        best = optimal_theta_agnostic(q)
        assert abs(best.theta - 1.0 / (4.0 * v)) < 1e-9
        assert math.isclose(best.log_bound, chernoff_log_bound(q), rel_tol=1e-9)


def test_optimal_theta_never_loses_to_relaxed_point():
    rng = np.random.default_rng(44)
    for _ in range(60):
        s2 = float(rng.uniform(0.3, 8.0))
        s1 = float(rng.uniform(0.05, 1.0)) * s2
        q = query(
            n1=int(rng.integers(1, 40)),
            n2=int(rng.integers(1, 40)),
            s1=s1,
            s2=s2,
            m=2 * int(rng.integers(1, 12)),
        )
        best = optimal_theta_agnostic(q)
        relaxed = chernoff_log_bound(q)
        assert best.log_bound <= relaxed + 1e-12
        assert 0.0 < best.theta < lq_domain_limit(q)


def test_optimal_theta_beats_relaxed_strictly_when_heterogeneous():
    q = query()
    best = optimal_theta_agnostic(q)
    assert best.log_bound < chernoff_log_bound(q) - 1e-6


def test_optimal_theta_matches_grid_scan():
    rng = np.random.default_rng(91)
    grid_n = 2000
    for _ in range(5):
        s2 = float(rng.uniform(0.5, 6.0))
        s1 = float(rng.uniform(0.1, 0.9)) * s2
        q = query(n1=int(rng.integers(1, 20)), n2=int(rng.integers(1, 20)), s1=s1, s2=s2, m=6)
        lim = lq_domain_limit(q)
        thetas = lim * (np.arange(1, grid_n + 1) / (grid_n + 1.0))
        vals = [
            chernoff_log_bound(query(n1=q.n1, n2=q.n2, s1=s1, s2=s2, m=6, theta=float(t)))
            for t in thetas
        ]
        grid_best = float(thetas[int(np.argmin(vals))])
        best = optimal_theta_agnostic(q)
        assert abs(best.theta - grid_best) <= lim / (grid_n + 1.0)
        assert best.log_bound <= min(vals) + 1e-12


def test_m_for_error_budget():
    assert m_for_error_budget(0.25, 4) == 2
    assert m_for_error_budget(0.1, 40) == 8
    assert m_for_error_budget(0.5, 8) == 8
    with pytest.raises(ValueError):
        m_for_error_budget(0.17, 3)
    with pytest.raises(ValueError):
        m_for_error_budget(0.0, 10)


def test_empirical_misrank_trivial_cases():
    sig = SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0)
    same = empirical_misrank(sig, noise, (0, 1, 2, 3), 500, seed=1)
    assert same.estimate == 1.0
    silent = NoiseProfile(n1=8, n2=8, sigma1_sq=0.0, sigma2_sq=0.0)
    zero = empirical_misrank(sig, silent, (2, 3, 4, 5), 500, seed=1)
    assert zero.estimate == 0.0
    assert zero.ci95 >= 0.0


def test_empirical_misrank_deterministic_and_below_bound():
    sig = SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0)
    cand = (2, 3, 4, 5)
    a = empirical_misrank(sig, noise, cand, 20000, seed=9)
    b = empirical_misrank(sig, noise, cand, 20000, seed=9)
    assert a == b
    q = ChernoffQuery(
        setting=Setting.AGNOSTIC, n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0, m=4
    )
    assert a.estimate <= chernoff_bound(q) + 3.0 * a.ci95
    assert a.estimate > 0.0


def test_empirical_misrank_informed_setting():
    sig = SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0)
    cand = (2, 3, 4, 5)
    est = empirical_misrank(sig, noise, cand, 20000, seed=5, setting=Setting.INFORMED)
    q = ChernoffQuery(
        setting=Setting.INFORMED, n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0, m=4
    )
    assert est.estimate <= chernoff_bound(q) + 3.0 * est.ci95


def _full_design_misrank(signal, noise, candidate, trials, seed, setting):
    """Reference estimate: materialize X and z, compare the two losses directly."""
    gen = np.random.default_rng(seed)
    beta = signal.dense()
    sig = np.sqrt(noise.row_variances())
    w = 1.0 / noise.row_variances() if setting is Setting.INFORMED else np.ones(noise.n)
    cand, true = list(candidate), list(signal.support)
    hits = 0
    for start in range(0, trials, 5000):
        batch = min(5000, trials - start)
        X = gen.standard_normal((batch, noise.n, signal.p))
        y = X @ beta + gen.standard_normal((batch, noise.n)) * sig
        loss_cand = ((y - X[:, :, cand].sum(axis=2)) ** 2) @ w
        loss_true = ((y - X[:, :, true].sum(axis=2)) ** 2) @ w
        hits += int(np.count_nonzero(loss_cand <= loss_true))
    ci = binomtest(hits, trials).proportion_ci(confidence_level=0.95, method="exact")
    return hits / trials, (ci.high - ci.low) / 2.0


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
@pytest.mark.parametrize("candidate", [(1, 2, 4), (3, 4, 5)])
def test_empirical_misrank_matches_full_design_reference(setting, candidate):
    sig = SparseSignal(p=7, support=(0, 1, 2), values=(1.3, -0.7, 2.0))
    noise = NoiseProfile(n1=5, n2=7, sigma1_sq=0.5, sigma2_sq=2.0)
    trials = 20000
    est = empirical_misrank(sig, noise, candidate, trials, seed=17, setting=setting)
    ref, ref_ci = _full_design_misrank(sig, noise, candidate, trials, 23, setting)
    assert 0.01 < ref < 0.99
    assert abs(est.estimate - ref) <= est.ci95 + ref_ci


def test_empirical_misrank_independent_of_batch_size(monkeypatch):
    sig = SparseSignal(p=7, support=(0, 1, 2), values=(1.3, -0.7, 2.0))
    noise = NoiseProfile(n1=5, n2=7, sigma1_sq=0.5, sigma2_sq=2.0)
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        whole = empirical_misrank(sig, noise, (1, 2, 4), 3000, seed=4, setting=setting)
        monkeypatch.setattr(chernoff, "_BATCH", 7)
        split = empirical_misrank(sig, noise, (1, 2, 4), 3000, seed=4, setting=setting)
        monkeypatch.undo()
        assert split == whole


def test_empirical_misrank_validates_candidate():
    sig = SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2), 100, seed=0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2, 9), 100, seed=0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2, 3), 0, seed=0)


def test_query_validation():
    with pytest.raises(ValueError):
        query(s1=2.0, s2=1.0)
    with pytest.raises(ValueError):
        query(s1=0.0, s2=1.0)
    with pytest.raises(ValueError):
        query(m=0)
    with pytest.raises(ValueError):
        query(n1=-1)
    with pytest.raises(ValueError):
        query(theta=-0.1)
