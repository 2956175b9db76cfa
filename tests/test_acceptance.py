"""End-to-end acceptance checks for the whole package at desk scale.

Each test prints one PASS or FAIL line with the measured numbers so a
full run doubles as a scoreboard. The checks cover the Lasso phase
transition and its heterogeneity invariance, the combinatorial decoders
on a sufficiency frontier, the informed-versus-agnostic comparison,
Chernoff bound validity against Monte Carlo, price-of-quality and trade
invariants, the cubic optimizer, the KKT witness, and byte determinism
of the sweep outputs.
"""

import math
import os
import time

import numpy as np
import pytest

import sparsemix as sm

RATE_HIGH = 0.8
RATE_LOW = 0.2
PAIRWISE_GAP = 0.10
FRONTIER_RATE = 0.9
INFORMED_SLACK = 0.05
MISRANK_SIGMAS = 3.0
POQ_EQ_TOL = 1e-12
TRADE_TOL = 1e-9
ROOT_TOL = 1e-9
EXPONENT_TOL = 1e-12
AGREEMENT_FLOOR = 0.99
BOUNDARY_CEIL = 0.05

PHASE_CONFIG = dict(
    decoder="Lasso",
    p=512,
    s=8,
    rho=1.0,
    sigma1_sq=0.1,
    sigma2_sq=0.4,
    grid=((27, 27), (109, 109)),
    trials=200,
    master_seed=1,
)


def _report(tag, ok, detail):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _rate_at(rows, n):
    for row in rows:
        if row.n == n:
            return row.recovery_rate
    raise AssertionError(f"no summary row with n={n}")


@pytest.fixture(scope="module")
def phase_run():
    """Run the reference Lasso sweep once and share records plus timing."""
    config = sm.ExperimentConfig(**PHASE_CONFIG)
    start = time.perf_counter()
    records = sm.run_sweep(config, threads=8)
    elapsed = time.perf_counter() - start
    rows = sm.summarize(config, records)
    return config, records, rows, elapsed


def _summary_bytes(config, records, out_dir):
    rows = sm.summarize(config, records)
    sm.emit_outputs(rows, records, out_dir, formats=("csv",))
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        return fh.read()


def test_a01_lasso_phase_transition(phase_run):
    config, records, rows, elapsed = phase_run
    high = _rate_at(rows, 218)
    low = _rate_at(rows, 54)
    ok = high >= RATE_HIGH and low <= RATE_LOW and elapsed < 300.0
    _report(
        "a01",
        ok,
        f"rate(n=218)={high:.3f} >= {RATE_HIGH}, rate(n=54)={low:.3f} "
        f"<= {RATE_LOW}, {elapsed:.1f}s < 300s",
    )


def test_a02_heterogeneity_invariance():
    splits = [(0.25, 0.25), (0.05, 0.45), (0.01, 0.49)]
    rates = []
    for s1, s2 in splits:
        config = sm.ExperimentConfig(
            **{**PHASE_CONFIG, "sigma1_sq": s1, "sigma2_sq": s2, "grid": ((109, 109),)}
        )
        rows = sm.summarize(config, sm.run_sweep(config, threads=8))
        rates.append(rows[0].recovery_rate)
    gap = max(abs(a - b) for a in rates for b in rates)
    ok = gap <= PAIRWISE_GAP
    shown = ", ".join(f"{r:.3f}" for r in rates)
    _report("a02", ok, f"rates ({shown}) max pairwise gap {gap:.3f} <= {PAIRWISE_GAP}")


def test_a03_agnostic_frontier_recovery():
    regime = sm.RegimeSpec(sm.Growth.SUBLINEAR, p=24, s=4)
    points = sm.sample_frontier(
        sm.Setting.AGNOSTIC, 0.5, 2.0, 4, 0.25, 1.0, regime, [0, 20, 40]
    )
    point = points[-1]
    config = sm.ExperimentConfig(
        decoder="AgnosticScan",
        p=24,
        s=4,
        rho=1.0,
        delta=0.25,
        sigma1_sq=0.5,
        sigma2_sq=2.0,
        grid=((point.n1, point.n2),),
        trials=100,
        master_seed=7,
    )
    start = time.perf_counter()
    rows = sm.summarize(config, sm.run_sweep(config, threads=8))
    elapsed = time.perf_counter() - start
    rate = rows[0].recovery_rate
    ok = rate >= FRONTIER_RATE and elapsed < 120.0
    _report(
        "a03",
        ok,
        f"exact recovery at ({point.n1},{point.n2}) rate={rate:.3f} "
        f">= {FRONTIER_RATE}, {elapsed:.1f}s < 120s",
    )


def test_a04_informed_beats_agnostic():
    budget = (8, 12)
    rates = {}
    for decoder in ("AgnosticScan", "InformedMLE"):
        config = sm.ExperimentConfig(
            decoder=decoder,
            p=24,
            s=4,
            rho=1.0,
            delta=0.25,
            sigma1_sq=0.5,
            sigma2_sq=2.0,
            grid=(budget,),
            trials=400,
            master_seed=11,
        )
        rows = sm.summarize(config, sm.run_sweep(config, threads=8))
        rates[decoder] = rows[0].recovery_rate
    agnostic = rates["AgnosticScan"]
    informed = rates["InformedMLE"]
    ok = 0.3 <= agnostic <= 0.8 and informed >= agnostic - INFORMED_SLACK
    _report(
        "a04",
        ok,
        f"agnostic={agnostic:.3f} in [0.3, 0.8], informed={informed:.3f} "
        f">= agnostic - {INFORMED_SLACK}",
    )


def test_a05_chernoff_bounds_hold_empirically():
    draws = np.random.default_rng(20260816)
    worst = -math.inf
    for i in range(20):
        s = int(draws.integers(1, 11))
        m = 2 * int(draws.integers(1, s + 1))
        lo, hi = np.sort(draws.uniform(0.5, 8.0, size=2) ** 2)
        n1 = int(draws.integers(1, 21))
        n2 = int(draws.integers(1, 21))
        signal = sm.SparseSignal(
            p=2 * s + m, support=tuple(range(s)), values=(1.0,) * s
        )
        candidate = tuple(range(m // 2, s)) + tuple(range(s, s + m // 2))
        noise = sm.NoiseProfile(
            n1=n1, n2=n2, sigma1_sq=float(lo), sigma2_sq=float(hi)
        )
        query = sm.ChernoffQuery(
            sm.Setting.AGNOSTIC, n1, n2, float(lo), float(hi), m
        )
        estimate = sm.empirical_misrank(
            signal, noise, candidate, 10**5, seed=1000 + i
        )
        bound = sm.chernoff_bound(query)
        slack = estimate.estimate - (bound + MISRANK_SIGMAS * estimate.ci95)
        worst = max(worst, slack)
    ok = worst <= 0.0
    _report("a05", ok, f"worst (estimate - bound - 3 ci95) = {worst:+.5f} <= 0")


def test_a06_price_of_quality_invariants():
    s = 100
    sigma2_grid = np.linspace(0.2, 10.0, 10)
    ds_grid = np.linspace(0.5, 50.0, 10)
    start = time.perf_counter()
    checked = 0
    worst_low = math.inf
    worst_high = -math.inf
    worst_order = math.inf
    worst_eq = 0.0
    for s2 in sigma2_grid:
        for s1 in np.linspace(0.1, s2, 10):
            for ds in ds_grid:
                delta = ds / s
                gamma_ag = sm.price_of_quality(
                    sm.Setting.AGNOSTIC, float(s1), float(s2), s, delta
                )
                gamma_inf = sm.price_of_quality(
                    sm.Setting.INFORMED, float(s1), float(s2), s, delta
                )
                checked += 1
                worst_low = min(worst_low, gamma_ag - 1.0)
                worst_high = max(worst_high, gamma_ag - (2.0 - s1 / s2))
                worst_order = min(worst_order, gamma_inf - gamma_ag)
                if s1 == s2:
                    worst_eq = max(
                        worst_eq, abs(gamma_ag - 1.0), abs(gamma_inf - 1.0)
                    )
    elapsed = time.perf_counter() - start
    ok = (
        checked == 1000
        and worst_low >= -POQ_EQ_TOL
        and worst_high <= POQ_EQ_TOL
        and worst_order >= -POQ_EQ_TOL
        and worst_eq <= POQ_EQ_TOL
        and elapsed < 1.0
    )
    _report(
        "a06",
        ok,
        f"{checked} points: min(g_ag - 1)={worst_low:.2e}, "
        f"max(g_ag - cap)={worst_high:.2e}, min(g_inf - g_ag)={worst_order:.2e}, "
        f"equal-variance dev={worst_eq:.2e}, {elapsed:.2f}s < 1s",
    )


def test_a07_trade_preserves_sufficiency():
    draws = np.random.default_rng(777)
    worst = math.inf
    built = 0
    while built < 1000:
        s = int(draws.integers(2, 11))
        p = int(draws.integers(4 * s, 40 * s))
        delta = float(draws.uniform(0.05, 0.5))
        epsilon = float(draws.uniform(0.0, 1.0))
        lo, hi = np.sort(draws.uniform(0.5, 3.0, size=2) ** 2)
        if hi <= lo:
            hi = lo * 1.5
        setting = (
            sm.Setting.AGNOSTIC if draws.integers(2) == 0 else sm.Setting.INFORMED
        )
        regime = sm.RegimeSpec(sm.Growth.SUBLINEAR, p=p, s=s)
        alpha1, alpha2 = sm.pair_coefficients(
            setting, float(lo), float(hi), s, delta
        )
        target = (1.0 + epsilon) * sm.recovery_threshold(
            sm.ThresholdKind.N_STAR, regime
        )
        n1 = int(draws.integers(1, 60))
        n2 = math.ceil(max(0.0, target - n1 * alpha1) / alpha2) + int(
            draws.integers(0, 5)
        )
        check = sm.check_sufficient(
            setting, n1, n2, float(lo), float(hi), s, delta, epsilon, regime
        )
        if not check.holds:
            continue
        built += 1
        gamma = sm.price_of_quality(setting, float(lo), float(hi), s, delta)
        traded = (n1 - 1) * check.alpha1 + (n2 + gamma) * check.alpha2
        worst = min(worst, traded - target)
    ok = worst >= -TRADE_TOL
    _report(
        "a07",
        ok,
        f"1000 held instances: min slack after (n1-1, n2+gamma) trade "
        f"= {worst:.2e} >= -{TRADE_TOL}",
    )


def _log_bound_curve(n1, n2, s1, s2, m, thetas):
    g1 = m * (-thetas + 2.0 * thetas**2 * s1)
    g2 = m * (-thetas + 2.0 * thetas**2 * s2)
    out = np.full(thetas.shape, np.inf)
    inside = (g1 < 0.5) & (g2 < 0.5)
    out[inside] = -0.5 * (
        n1 * np.log1p(-2.0 * g1[inside]) + n2 * np.log1p(-2.0 * g2[inside])
    )
    return out


def test_a08_cubic_optimizer():
    draws = np.random.default_rng(808)
    worst_root = 0.0
    for v in (0.25, 0.5, 1.0, 2.0, 5.0):
        query = sm.ChernoffQuery(
            sm.Setting.AGNOSTIC,
            int(draws.integers(1, 20)),
            int(draws.integers(1, 20)),
            v,
            v,
            int(draws.integers(1, 9)),
        )
        best = sm.optimal_theta_agnostic(query)
        worst_root = max(worst_root, abs(best.theta - 1.0 / (4.0 * v)))
    worst_gain = -math.inf
    worst_grid = 0.0
    for _ in range(100):
        lo, hi = np.sort(draws.uniform(0.5, 2.0, size=2) ** 2)
        if hi - lo < 1e-6:
            hi = lo * 1.7
        n1 = int(draws.integers(1, 16))
        n2 = int(draws.integers(1, 16))
        m = int(draws.integers(1, 9))
        query = sm.ChernoffQuery(
            sm.Setting.AGNOSTIC, n1, n2, float(lo), float(hi), m
        )
        best = sm.optimal_theta_agnostic(query)
        relaxed = sm.chernoff_log_bound(query)
        worst_gain = max(worst_gain, best.log_bound - relaxed)
        limit = sm.lq_domain_limit(query)
        thetas = np.linspace(0.0, limit, 10**5, endpoint=False)
        curve = _log_bound_curve(n1, n2, float(lo), float(hi), m, thetas)
        spacing = limit / 10**5
        grid_best = thetas[int(np.argmin(curve))]
        worst_grid = max(worst_grid, abs(grid_best - best.theta) / spacing)
    ok = worst_root <= ROOT_TOL and worst_gain <= EXPONENT_TOL and worst_grid <= 1.0
    _report(
        "a08",
        ok,
        f"equal-variance root dev={worst_root:.2e} <= {ROOT_TOL}, "
        f"max(optimal - relaxed)={worst_gain:.2e} <= {EXPONENT_TOL}, "
        f"grid distance={worst_grid:.2f} cells <= 1",
    )


def test_a09_witness_matches_solver():
    draws = np.random.default_rng(909)
    total = agree = boundary = 0
    for i in range(500):
        s = int(draws.integers(1, 5))
        p = int(draws.integers(max(2 * s, 8), 41))
        n = int(draws.integers(10 * s, 20 * s + 1))
        n1 = int(draws.integers(1, n))
        n2 = n - n1
        lo, hi = np.sort(draws.uniform(0.05, 1.0, size=2) ** 2)
        support = tuple(sorted(draws.choice(p, size=s, replace=False).tolist()))
        values = tuple(
            float(draws.choice([-1.0, 1.0]) * draws.uniform(0.8, 1.5))
            for _ in range(s)
        )
        signal = sm.SparseSignal(p=p, support=support, values=values)
        noise = sm.NoiseProfile(
            n1=n1, n2=n2, sigma1_sq=float(lo), sigma2_sq=float(hi)
        )
        dataset = sm.generate_dataset(signal, noise, seed=5000 + i)
        lam = sm.lambda_schedule(noise.sigma_avg_sq, p=p, s=s, n=n, rho=1.0)
        try:
            solution = sm.solve_lasso(dataset, sm.LassoConfig(lam=lam))
            witness = sm.kkt_recovery_witness(dataset, signal, lam)
        except sm.DegenerateInstanceError:
            continue
        if not solution.converged:
            continue
        total += 1
        if witness.boundary:
            boundary += 1
            continue
        if sm.signed_support_match(solution.beta, signal) == witness.recovery:
            agree += 1
    clear = total - boundary
    agreement = agree / clear if clear else 0.0
    boundary_frac = boundary / total if total else 1.0
    ok = (
        total >= 450
        and agreement >= AGREEMENT_FLOOR
        and boundary_frac <= BOUNDARY_CEIL
    )
    _report(
        "a09",
        ok,
        f"{total} instances, agreement {agree}/{clear} = {agreement:.3%} "
        f">= 99%, boundary {boundary_frac:.1%} <= 5%",
    )


def test_a10_summary_bytes_deterministic(phase_run, tmp_path):
    config, records, _, _ = phase_run
    first = _summary_bytes(config, records, str(tmp_path / "a"))
    again = _summary_bytes(
        config, sm.run_sweep(config, threads=8), str(tmp_path / "b")
    )
    serial = _summary_bytes(
        config, sm.run_sweep(config, threads=1), str(tmp_path / "c")
    )
    ok = first == again == serial
    _report(
        "a10",
        ok,
        f"summary.csv identical across runs ({len(first)} bytes) "
        f"and across threads 1 vs 8",
    )
