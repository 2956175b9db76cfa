"""Tests for the misranking bounds and the Monte Carlo misrank estimator."""

import hashlib
import math
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.stats import binomtest

import sparsemix
from sparsemix import (
    ChernoffQuery,
    NoiseProfile,
    ResourceCapError,
    Setting,
    SparseSignal,
    chernoff,
    chernoff_bound,
    chernoff_log_bound,
    empirical_misrank,
    lq_domain_limit,
    m_for_error_budget,
    optimal_theta_agnostic,
    pair_coefficients,
    unit_misrank,
    planner,
    rng,
    wilson_ci95,
)


def query(setting=Setting.AGNOSTIC, n1=10, n2=10, s1=1.0, s2=4.0, m=8, theta=None):
    return ChernoffQuery(
        setting=setting, n1=n1, n2=n2, sigma1_sq=s1, sigma2_sq=s2, m=m, theta=theta
    )


def only_block(block, **kw):
    """A query whose ten rows all sit in one block, so its bound is that
    block's per-row MGF factor to the tenth power."""
    return query(n1=10 * (block == 1), n2=10 * (block == 2), **kw)


def test_mgf_is_one_at_theta_zero():
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        for block in (1, 2):
            q = only_block(block, setting=setting, theta=0.0)
            assert chernoff_log_bound(q) == 0.0
        assert chernoff_bound(query(setting=setting, theta=0.0)) == 1.0


def test_mgf_relaxed_point_closed_form():
    # at theta = 1/(4 sigma2_sq) the noisy-block MGF simplifies to
    # (1 + m/(4 sigma2_sq))^(-1/2)
    q = only_block(2, theta=1.0 / 16.0)
    want = -5.0 * math.log1p(8.0 / 16.0)
    assert math.isclose(chernoff_log_bound(q), want, rel_tol=1e-12)


def test_mgf_domain_boundary_is_infinite():
    assert chernoff_log_bound(only_block(2, theta=10.0)) == math.inf
    assert chernoff_log_bound(only_block(1, theta=10.0)) == math.inf
    assert chernoff_bound(query(theta=10.0)) == math.inf


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_relaxed_log_bound_is_the_planner_information_sum(setting):
    # at m = 2 delta s and the default theta, each row's -ln(1 - 2 g_b) is
    # the planner's alpha_b, bit for bit, empty blocks included
    rng = np.random.default_rng(12)
    checked = 0
    for _ in range(3000):
        s = int(rng.integers(1, 51))
        m = int(rng.integers(1, 2 * s))
        delta = m / (2.0 * s)
        if 2.0 * delta * s != m:
            continue
        s2 = float(np.exp(rng.uniform(-5.0, 5.0)))
        s1 = s2 * float(np.exp(rng.uniform(-7.0, 0.0)))
        n1, n2 = (int(n) * (rng.uniform() > 0.1) for n in rng.integers(0, 501, size=2))
        a1, a2 = pair_coefficients(setting, s1, s2, s, delta)
        lb = chernoff_log_bound(ChernoffQuery(setting, n1, n2, s1, s2, m))
        assert lb == -0.5 * (n1 * a1 + n2 * a2), (n1, n2, s1, s2, m)
        checked += 1
    assert checked > 2500


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
    assert chernoff_log_bound(only_block(2, s1=1.0, s2=s2, m=2, theta=0.45)) == math.inf
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
            # g reaches 1/2 at lim itself only by rounding, so every case here
            # pins the order of planner.exponent_arg's agnostic products
            inside = dict(s1=s1, s2=s2, m=m, theta=lim * (1.0 - 1e-9))
            outside = dict(s1=s1, s2=s2, m=m, theta=lim)
            assert math.isfinite(chernoff_log_bound(only_block(2, **inside)))
            assert chernoff_log_bound(only_block(2, **outside)) == math.inf
            # the clean block stays finite longer than the noisy block
            assert math.isfinite(chernoff_log_bound(only_block(1, **inside)))


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_domain_limit_is_where_the_bound_turns_infinite(setting):
    # informed, the clean block's domain ends first; agnostic, the noisy one's
    rng = np.random.default_rng(8)
    cases = [(10, 10, 1.0, 4.0, 8), (10, 0, 1.0, 4.0, 2), (0, 10, 1.0, 4.0, 2),
             (5, 7, 2.0, 2.0, 6)]
    for _ in range(200):
        s2 = float(np.exp(rng.uniform(-3.0, 3.0)))
        s1 = s2 * float(np.exp(rng.uniform(-7.0, 0.0)))
        n1, n2 = (int(n) for n in rng.integers(0, 2000, size=2))
        cases.append((n1, n2 or 1, s1, s2, int(rng.integers(1, 200))))
    for n1, n2, s1, s2, m in cases:
        lim = lq_domain_limit(query(setting, n1, n2, s1, s2, m))
        inside = query(setting, n1, n2, s1, s2, m, theta=lim * (1.0 - 1e-9))
        outside = query(setting, n1, n2, s1, s2, m, theta=lim * (1.0 + 1e-9))
        assert math.isfinite(chernoff_log_bound(inside))
        assert chernoff_log_bound(outside) == math.inf


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


def test_optimal_theta_reaches_the_optimum_on_an_ill_conditioned_query():
    # a variance ratio near 2e-9 puts the optimum near the domain limit and
    # far from the relaxed point 1/(4 sigma2_sq) = 2165
    layout = dict(n1=634, n2=14, s1=2.657e-13, s2=1.155e-4, m=576)
    best = optimal_theta_agnostic(query(**layout))
    grid_best = chernoff_log_bound(query(**layout, theta=4237.446737))
    assert best.log_bound <= -4962.92
    assert best.log_bound <= grid_best
    assert abs(best.theta - 4237.45) < 0.1


@pytest.mark.parametrize("s1, s2", [(1e-300, 1e300), (1e-200, 1e-150), (1e-160, 1e-160)])
def test_optimal_theta_when_the_root_formula_leaves_the_float_range(s1, s2):
    # variances near the ends of the float range, far apart or equal: the
    # bisection's midpoints and slopes stay finite
    q = query(n1=3, n2=3, s1=s1, s2=s2, m=2)
    best = optimal_theta_agnostic(q)
    assert 0.0 < best.theta < math.inf
    assert math.isfinite(best.log_bound)
    assert best.log_bound <= chernoff_log_bound(q)


def test_subnormal_variance_optimum_reaches_the_float_range_edge():
    # the 1e-320 block's domain root (about 5e319) overflows; the bisection
    # then runs up to the last theta at which its 1 - 2 g is finite
    layout = dict(n1=3, n2=0, s1=1e-320, s2=1.0, m=2)
    assert lq_domain_limit(query(**layout)) == math.inf
    best = optimal_theta_agnostic(query(**layout))
    assert best.log_bound <= -1000.0
    assert best.log_bound == chernoff_log_bound(query(**layout, theta=best.theta))
    # past it the log-bound would read -inf, a misranking probability of 0
    with pytest.raises(ValueError, match="overflow"):
        query(**layout, theta=1.7e308)


def test_no_accepted_query_has_a_log_bound_of_minus_inf():
    # seeded queries across the float range: subnormal variances, theta up
    # to 1e308, both settings; some are refused, none reads -inf
    rng = np.random.default_rng(16)
    refused = 0
    for _ in range(2000):
        setting = Setting.INFORMED if rng.uniform() < 0.3 else Setting.AGNOSTIC
        s2 = float(10.0 ** rng.uniform(-323.0, 300.0))
        s1 = s2 * float(10.0 ** rng.uniform(-30.0, 0.0))
        n1, n2 = (int(n) * (rng.uniform() > 0.1) for n in rng.integers(1, 10**6, size=2))
        m = int(rng.integers(1, 10**4))
        theta = None if rng.uniform() < 0.5 else float(10.0 ** rng.uniform(-5.0, 308.0))
        try:
            q = query(setting=setting, n1=n1, n2=n2, s1=s1, s2=s2, m=m, theta=theta)
        except ValueError:
            refused += 1
            continue
        assert chernoff_log_bound(q) > -math.inf
        if setting is Setting.AGNOSTIC:
            assert optimal_theta_agnostic(q).log_bound > -math.inf
    assert 0 < refused < 2000


def test_bisection_optimum_is_the_convex_minimum():
    # about 300 seeded queries with empty blocks, equal variances and
    # variance ratios down to e^-30
    rng = np.random.default_rng(1515)
    cases = [(10, 0, 1.0, 4.0, 2), (0, 10, 1.0, 4.0, 2), (7, 9, 2.0, 2.0, 6)]
    for _ in range(300):
        s2 = float(np.exp(rng.uniform(-10.0, 10.0)))
        s1 = s2 if rng.uniform() < 0.1 else s2 * float(np.exp(rng.uniform(-30.0, 0.0)))
        n1, n2 = (int(n) * (rng.uniform() > 0.1) for n in rng.integers(1, 10**5, size=2))
        cases.append((n1, n2 or 1, s1, s2, int(rng.integers(1, 1000))))
    for n1, n2, s1, s2, m in cases:
        q = query(n1=n1, n2=n2, s1=s1, s2=s2, m=m)
        lim = lq_domain_limit(q)
        best = optimal_theta_agnostic(q)
        assert 0.0 < best.theta < lim
        tol = 1e-14 * max(1.0, abs(best.log_bound))
        for t in (q.theta, best.theta * (1.0 - 1e-4), best.theta * (1.0 + 1e-4)):
            other = chernoff_log_bound(query(n1=n1, n2=n2, s1=s1, s2=s2, m=m, theta=t))
            assert best.log_bound <= other + tol, (n1, n2, s1, s2, m, t)
        # the slope the bisection follows is the log-bound's derivative
        for t in (0.5 * best.theta, 0.5 * (best.theta + lim)):
            h = 1e-6 * t
            up, down = (
                chernoff_log_bound(query(n1=n1, n2=n2, s1=s1, s2=s2, m=m, theta=t + d))
                for d in (h, -h)
            )
            slope = chernoff._log_bound_slope(q, t)
            assert np.sign(slope) == np.sign(up - down), (n1, n2, s1, s2, m, t)


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
    assert same == (1.0, wilson_ci95(500, 500))
    silent = NoiseProfile(n1=8, n2=8, sigma1_sq=0.0, sigma2_sq=0.0)
    zero = empirical_misrank(sig, silent, (2, 3, 4, 5), 500, seed=1)
    assert zero == (0.0, wilson_ci95(0, 500))
    # ci95 is the Wilson half-width of the count, as in summary.csv
    mid = empirical_misrank(sig, noise, (2, 3, 4, 5), 500, seed=1)
    k = round(mid.estimate * 500)
    assert 0 < k < 500 and k / 500 == mid.estimate
    assert mid.ci95 == wilson_ci95(k, 500)


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


def definition_misrank(signal, noise, candidate, trials, seed, setting):
    """Reference: the estimator with its factor taken from the definition,
    over all p coordinates, on the estimator's own draws."""
    cols = np.arange(signal.p)
    c = signal.dense() - np.isin(cols, candidate)
    c_true = signal.dense() - np.isin(cols, signal.support)
    a, b = c - c_true, c + c_true
    var_d, cov = float(a @ a), float(a @ b)
    resid = max(float(b @ b) - cov * cov / var_d, 0.0) if var_d else 0.0
    n = noise.n
    g = rng.normals_grid(rng.derive_vec(seed, np.arange(trials, dtype=np.uint64)), 2 * n)
    d = math.sqrt(var_d) * g[:, :n]
    t = (cov / math.sqrt(var_d) if var_d else 0.0) * g[:, :n]
    t += np.sqrt(resid + 4.0 * noise.row_variances()) * g[:, n:]
    w = np.repeat(noise.block_weights(setting), (noise.n1, noise.n2))
    return int(np.count_nonzero(np.add.reduce(w * d * t, axis=1) <= 0.0)) / trials


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_closed_form_factor_matches_its_definition(setting):
    gen = np.random.default_rng(26)
    for _ in range(12):
        s = int(gen.integers(1, 9))
        p = s + int(gen.integers(0, 9))
        values = gen.choice([-1.0, 1.0], s) * gen.uniform(0.2, 3.0, s)
        sig = SparseSignal(p=p, support=tuple(range(s)), values=tuple(values.tolist()))
        cand = tuple(sorted(gen.choice(p, s, replace=False).tolist()))
        noise = NoiseProfile(n1=int(gen.integers(1, 6)), n2=int(gen.integers(0, 6)),
                             sigma1_sq=0.3, sigma2_sq=1.7)
        est = empirical_misrank(sig, noise, cand, 2000, 11, setting)
        assert est.estimate == definition_misrank(sig, noise, cand, 2000, 11, setting)


def test_empirical_misrank_independent_of_batch_size(monkeypatch):
    sig = SparseSignal(p=7, support=(0, 1, 2), values=(1.3, -0.7, 2.0))
    noise = NoiseProfile(n1=5, n2=7, sigma1_sq=0.5, sigma2_sq=2.0)
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        whole = empirical_misrank(sig, noise, (1, 2, 4), 3000, seed=4, setting=setting)
        monkeypatch.setattr(chernoff, "_BATCH", 7)
        split = empirical_misrank(sig, noise, (1, 2, 4), 3000, seed=4, setting=setting)
        monkeypatch.undo()
        assert split == whole


def hexes(est):
    return est.estimate.hex(), est.ci95.hex()


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_unit_misrank_is_empirical_misrank_on_the_unit_instance(setting):
    # support range(m/2) against candidate range(m/2, m), unit values: the
    # same floats bit for bit, across the trial batch's edge and with one
    # block empty
    for m in (2, 4, 6, 30, 3000):
        sig = SparseSignal(p=m, support=tuple(range(m // 2)), values=(1.0,) * (m // 2))
        for n1, n2 in ((3, 0), (0, 4), (2, 5)):
            q = query(setting, n1=n1, n2=n2, s1=0.5, s2=2.0, m=m)
            noise = NoiseProfile(n1, n2, 0.5, 2.0)
            for trials in (1, 4095, 4097):
                want = empirical_misrank(sig, noise, range(m // 2, m), trials, m, setting)
                assert hexes(unit_misrank(q, trials, m)) == hexes(want)


def test_unit_misrank_costs_nothing_in_m():
    tracemalloc.start()
    try:
        est = unit_misrank(query(m=2**53), 2000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert 0.0 <= est.estimate < 1.0


def test_misrank_batches_are_bounded_by_entries(monkeypatch):
    # 2 n = 400 normals a trial: 655 trials a batch, not 3000, and the count
    # is the same bit for bit however the batch is cut (1, 3 or 10 trials)
    q = query(n1=150, n2=50, m=4)
    tracemalloc.start()
    try:
        whole = unit_misrank(q, 3000, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6  # one batch of all 3000 trials holds 3000 x 200 x 6 floats, 29 MB
    for entries in (400, 1200, 4000):
        monkeypatch.setattr(chernoff, "_ENTRIES", entries)
        assert hexes(unit_misrank(q, 3000, 5)) == hexes(whole), entries


def test_a_trial_past_the_design_cap_is_refused(monkeypatch):
    # one trial holds 8 floats per row: 10 rows pass a cap of 80 entries, not 79
    sig = SparseSignal(p=4, support=(0, 1), values=(1.0, 1.0))
    noise = NoiseProfile(4, 6, 0.5, 2.0)
    for cap, refused in ((80, False), (79, True)):
        monkeypatch.setattr(sparsemix.model, "MAX_DESIGN_ENTRIES", cap)
        for call in (lambda: unit_misrank(query(n1=4, n2=6, m=4), 10, 0),
                     lambda: empirical_misrank(sig, noise, (2, 3), 10, 0)):
            if refused:
                with pytest.raises(ResourceCapError):
                    call()
            else:
                call()


def spy_grids(monkeypatch, cpus, grid=None):
    """Pretend `cpus` CPUs are usable and route the sampler's draws through
    grid(seeds, count), rng.normals_grid by default; return the list that
    gets the id of the thread of every draw."""
    grid, threads = grid or rng.normals_grid, []

    def grid_spy(seeds, count):
        threads.append(threading.get_ident())
        return grid(seeds, count)

    monkeypatch.setattr(rng, "_cpus", lambda: cpus)
    monkeypatch.setattr(rng, "normals_grid", grid_spy)
    return threads


def misrank_hexes(n1, n2, trials):
    """.hex() of empirical_misrank and unit_misrank in both settings."""
    sig = SparseSignal(p=7, support=(0, 1, 2), values=(1.3, -0.7, 2.0))
    noise = NoiseProfile(n1, n2, 0.5, 2.0)
    out = []
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        out += hexes(empirical_misrank(sig, noise, (1, 2, 4), trials, 3, setting))
        out += hexes(unit_misrank(query(setting, n1=n1, n2=n2, s1=0.5, s2=2.0, m=4), trials, 3))
    return out


@pytest.mark.parametrize("n1, n2", [(1, 0), (0, 16), (8, 12), (150, 50)])
def test_misrank_is_the_same_on_one_thread_and_two(monkeypatch, n1, n2):
    # batches dealt to the caller and the worker count what one thread counts,
    # across the batch edges, and every batch is drawn whole on one thread
    batch = chernoff._batch(n1 + n2)
    assert batch * (n1 + n2) < 2 * rng._SPLIT
    for trials in (1, batch, batch + 1, 2 * batch + 1):
        got = {}
        for cpus in (1, 2):
            threads = spy_grids(monkeypatch, cpus)
            got[cpus] = misrank_hexes(n1, n2, trials)
            batches = -(-trials // batch)
            assert len(threads) == 4 * batches
            assert len(set(threads)) == 1 + (cpus == 2 and batches > 1)
            monkeypatch.undo()
        assert got[1] == got[2], trials


def test_a_raise_in_a_workers_batch_reaches_the_caller_after_its_batches(monkeypatch):
    grid, mine = rng.normals_grid, []

    def failing_grid(seeds, count):
        if threading.current_thread() is not threading.main_thread():
            raise FloatingPointError("worker batch")
        time.sleep(0.1)  # still drawing long after the worker's batch raised
        mine.append(len(seeds))
        return grid(seeds, count)

    spy_grids(monkeypatch, 2, failing_grid)
    n = 20
    batch = chernoff._batch(n)
    with pytest.raises(FloatingPointError, match="worker batch"):
        unit_misrank(query(n1=8, n2=12, m=4), 4 * batch, 1)
    assert mine == [batch, batch]  # batches 0 and 2, the caller's, both drawn


def test_a_raise_in_a_callers_batch_waits_for_the_workers_batches(monkeypatch):
    grid, worker_done = rng.normals_grid, threading.Event()

    def slow_worker_grid(seeds, count):
        if threading.current_thread() is threading.main_thread():
            raise FloatingPointError("caller batch")
        time.sleep(0.2)  # still drawing long after the caller's batch raised
        out = grid(seeds, count)
        worker_done.set()
        return out

    spy_grids(monkeypatch, 2, slow_worker_grid)
    with pytest.raises(FloatingPointError, match="caller batch"):
        unit_misrank(query(n1=8, n2=12, m=4), 2 * chernoff._batch(20), 1)
    assert worker_done.is_set()


def test_misrank_starts_no_thread_but_the_one_worker(monkeypatch):
    before = threading.active_count()
    threads = spy_grids(monkeypatch, 2)
    for _ in range(3):
        unit_misrank(query(n1=8, n2=12, m=4), 20 * chernoff._batch(20) + 7, 5)
    assert len(set(threads)) == 2
    assert threading.active_count() <= before + 1


def test_library_seeds_are_used_mod_2_64():
    q = query(n1=8, n2=12, m=4)
    assert hexes(unit_misrank(q, 100, -5)) == hexes(unit_misrank(q, 100, 2**64 - 5))


def test_empirical_misrank_memory_does_not_grow_with_the_shared_support():
    # one index swapped out of s: only the 2 swapped indices enter the
    # factor, so a 3000 x 3000 outer product is never formed
    noise = NoiseProfile(n1=2, n2=2, sigma1_sq=1.0, sigma2_sq=2.0)
    for setting in (Setting.AGNOSTIC, Setting.INFORMED):
        estimates = []
        for s in (300, 3000):
            sig = SparseSignal(p=s + 1, support=tuple(range(s)), values=(1.0,) * s)
            cand = tuple(range(1, s + 1))
            tracemalloc.start()
            try:
                estimates.append(empirical_misrank(sig, noise, cand, 2000, 7, setting))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8e6
        assert estimates[0] == estimates[1]


def test_misrank_memory_does_not_grow_with_the_square_of_the_swaps():
    # |D| = 4000 swapped indices: a D x D product would take 128 MB
    noise = NoiseProfile(n1=2, n2=2, sigma1_sq=1.0, sigma2_sq=2.0)
    sig = SparseSignal(p=4000, support=tuple(range(2000)), values=(1.0,) * 2000)
    cand = tuple(range(2000, 4000))
    tracemalloc.start()
    try:
        est = empirical_misrank(sig, noise, cand, 2000, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6
    assert 0.0 <= est.estimate < 1.0


def test_empirical_misrank_validates_candidate():
    sig = SparseSignal(p=6, support=(0, 1, 2, 3), values=(1.0,) * 4)
    noise = NoiseProfile(n1=8, n2=8, sigma1_sq=1.0, sigma2_sq=4.0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2), 100, seed=0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2, 9), 100, seed=0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, noise, (0, 1, 2, 3), 0, seed=0)
    # fractional indices are refused rather than truncated; numpy integers pass
    for cand in ((0.2, 1.9, 3.3, 4), (0, 1, 2, 3.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            empirical_misrank(sig, noise, cand, 100, seed=0)
    cand = tuple(np.arange(2, 6))
    assert empirical_misrank(sig, noise, cand, 100, seed=0) == empirical_misrank(
        sig, noise, (2, 3, 4, 5), 100, seed=0
    )
    silent = NoiseProfile(n1=8, n2=8, sigma1_sq=0.0, sigma2_sq=4.0)
    with pytest.raises(ValueError):
        empirical_misrank(sig, silent, (2, 3, 4, 5), 100, seed=0, setting=Setting.INFORMED)


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
    # the default theta 1/(4 sigma2_sq) overflows
    with pytest.raises(ValueError):
        query(s1=1e-320, s2=1e-320)
    # counts are integers: numpy integers pass as int, fractions are refused
    q = query(n1=np.int64(10), n2=np.int32(10), m=np.int64(8))
    assert (q.n1, q.n2, q.m, type(q.m)) == (10, 10, 8, int)
    assert chernoff_log_bound(q) == chernoff_log_bound(query())
    for kw in (dict(n1=2.5), dict(n2=3.0), dict(m=2.5), dict(m="2")):
        with pytest.raises(ValueError, match="must be an integer"):
            query(**kw)


def test_setting_strings_dispatch_through_the_enum():
    # a setting's value names it: without rows "Agnostic" held the informed
    # point 1/4, and with rows it was refused as an unknown setting
    assert ChernoffQuery("Agnostic", 0, 0, 1.0, 2.0, 2).theta == 0.125
    named = ChernoffQuery("Agnostic", 3, 5, 1.0, 2.0, 2)
    assert named.setting is Setting.AGNOSTIC
    assert named == ChernoffQuery(Setting.AGNOSTIC, 3, 5, 1.0, 2.0, 2)
    assert chernoff_log_bound(named) == chernoff_log_bound(
        ChernoffQuery(Setting.AGNOSTIC, 3, 5, 1.0, 2.0, 2))
    assert ChernoffQuery("Informed", 3, 5, 1.0, 2.0, 2).theta == 0.25
    for setting in ("agnostic", "Neither", None):
        with pytest.raises(ValueError, match="is not a valid Setting"):
            ChernoffQuery(setting, 3, 5, 1.0, 2.0, 2)
    for setting in ("Agnostic", "Informed", None):
        with pytest.raises(ValueError, match="^unknown setting: "):
            planner.relaxed_theta(setting, 2.0)


def test_query_refuses_non_finite_variances():
    # an infinite sigma2_sq puts the relaxed theta at 0, outside any optimum
    for s1, s2 in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            query(s1=s1, s2=s2)


def test_float_max_variances_refuse_a_nan_exponent():
    # at v = 1.7e308 the default theta 1/(4 v) rounds to 0 and 2 v overflows,
    # so g = m (inf * 0 - 0) is NaN: refused, not read as a bound of +inf
    with pytest.raises(ValueError, match="overflow or read NaN"):
        query(n1=0, n2=3, s1=1.7e308, s2=1.7e308, m=5)
    with pytest.raises(ValueError, match="overflow or read NaN"):
        query(s1=1.0, s2=1e308, theta=0.0)
    # below 2 v's overflow theta = 0 is still a bound of exactly 1
    assert chernoff_bound(query(n1=0, n2=3, s1=5e307, s2=5e307)) == 1.0


@pytest.mark.parametrize("setting", [Setting.AGNOSTIC, Setting.INFORMED])
def test_domain_limit_stays_finite_where_4mv_overflows(setting):
    # the noisy root (m + sqrt(m^2 + 4 m v)) / (4 m v) read inf / inf = NaN
    # agnostic and inf informed, and min() dropped a NaN that came second
    def root(m, v):
        with localcontext() as ctx:
            ctx.prec = 40
            scale = Decimal(v) if setting is Setting.AGNOSTIC else 1
            return (m + (m * m + 4 * m * Decimal(v)).sqrt()) / (4 * m * scale)

    for m, v in ((5, 4e307), (8, 1.7e308), (10**12, 1e300)):
        for n1 in (0, 3):
            q = query(setting, n1=n1, n2=3, s1=1.0, s2=v, m=m, theta=1e-200)
            want = float(min([root(m, v)] + [root(m, 1.0)] * (n1 > 0)))
            assert math.isclose(lq_domain_limit(q), want, rel_tol=1e-14)


def theta_parity_corpus():
    """Seeded agnostic queries with variances up to 1e307, where 4 v is
    finite, empty blocks, equal variances and m up to 1e15."""
    rng = np.random.default_rng(22)
    for _ in range(1000):
        s2 = float(10.0 ** rng.uniform(-300.0, 307.0))
        s1 = s2 if rng.uniform() < 0.1 else s2 * float(10.0 ** rng.uniform(-40.0, 0.0))
        n1, n2 = (int(n) * (rng.uniform() > 0.15) for n in rng.integers(1, 10**6, size=2))
        yield n1, n2 or 1, s1, s2, int(10 ** rng.uniform(0.0, 15.0))


def test_optimal_theta_equals_its_frozen_hex_corpus():
    # digest of the theta and log-bound .hex() strings before the slope
    # formed 4 (v theta) in place of (4 v) theta
    lines = []
    for n1, n2, s1, s2, m in theta_parity_corpus():
        try:
            best = optimal_theta_agnostic(query(n1=n1, n2=n2, s1=s1, s2=s2, m=m))
        except ValueError:  # a sigma1_sq that underflowed to 0
            lines.append("refused")
            continue
        lines.append(f"{best.theta.hex()} {best.log_bound.hex()}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "954c03199e8db8ec4d98cf25db84f1a709b479d8dcad8cfec2fb36d373f41860"


def test_optimal_theta_where_4v_overflows():
    # 4 v overflows at v = 5e307, so a slope formed as (4 v) theta read +inf
    # everywhere and the bracket closed on the smallest subnormal
    best = optimal_theta_agnostic(query(n1=0, n2=3, s1=5e307, s2=5e307, m=5))
    assert best.theta == 5e-309
    assert math.isclose(best.log_bound, -3.75e-308, rel_tol=1e-14)
