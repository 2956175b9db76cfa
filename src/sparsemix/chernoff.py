"""Chernoff bounds on pairwise support misranking, and their Monte Carlo check.

The bounded event: a candidate support S at symmetric-difference size m
from the truth scores a loss no worse than the truth's. Each sample row
contributes one moment-generating-function factor per noise block, so
the bound is M1(theta)^n1 * M2(theta)^n2, minimized over theta inside
the MGF domain. A block with no rows contributes neither a factor nor a
domain limit. Everything is accumulated in log space; the agnostic
optimum is the positive root of a cubic, solved in closed form and
polished by two Newton steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import betaincinv

from . import rng
from .errors import SparsemixError
from .model import NoiseProfile, Setting, SparseSignal

__all__ = [
    "ChernoffQuery",
    "OptimalTheta",
    "MisrankEstimate",
    "block_mgf",
    "chernoff_log_bound",
    "chernoff_bound",
    "optimal_theta_agnostic",
    "lq_domain_limit",
    "empirical_misrank",
    "m_for_error_budget",
]


@dataclass(frozen=True)
class ChernoffQuery:
    """One bound evaluation: block layout, variances, overlap size m.

    m is the size of the symmetric difference between the candidate and
    true supports (equal-cardinality supports always give an even m).
    theta overrides the setting's default evaluation point when given.
    """

    setting: Setting
    n1: int
    n2: int
    sigma1_sq: float
    sigma2_sq: float
    m: int
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.n1 < 0 or self.n2 < 0:
            raise ValueError("block sizes must be nonnegative")
        if not 0.0 < self.sigma1_sq <= self.sigma2_sq:
            raise ValueError("variances must satisfy 0 < sigma1_sq <= sigma2_sq")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if self.theta is not None and (
            not math.isfinite(self.theta) or self.theta < 0.0
        ):
            raise ValueError("theta must be a finite nonnegative real when given")

    def default_theta(self) -> float:
        """Relaxed agnostic point 1/(4 sigma2_sq); exact informed point 1/4."""
        if self.setting is Setting.AGNOSTIC:
            return 1.0 / (4.0 * self.sigma2_sq)
        return 0.25


class OptimalTheta(NamedTuple):
    theta: float
    log_bound: float


class MisrankEstimate(NamedTuple):
    estimate: float
    ci95: float


def m_for_error_budget(delta: float, s: int) -> int:
    """Map an error budget to the overlap size m = 2 delta s.

    The product must be an integer (within rounding fuzz): a budget of
    delta means strictly fewer than 2 delta s misplaced indices, and the
    bound is evaluated at the smallest excluded overlap.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if s < 1:
        raise ValueError("s must be positive")
    m = 2.0 * delta * s
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError("2 * delta * s must be a positive integer")
    return int(round(m))


def _mgf_arg(setting: Setting, theta: float, m: int, sigma_sq: float) -> float:
    if setting is Setting.AGNOSTIC:
        return m * (-theta + 2.0 * theta**2 * sigma_sq)
    return m * (-theta + 2.0 * theta**2) / sigma_sq


def block_mgf(query: ChernoffQuery, block: int) -> float:
    """Per-sample MGF factor of one block at the query's theta.

    Returns (1 - 2 g)^(-1/2) with g the setting's exponent argument, or
    +inf when g >= 1/2 (theta outside the MGF domain).
    """
    if block not in (1, 2):
        raise ValueError("block must be 1 or 2")
    theta = query.theta if query.theta is not None else query.default_theta()
    sigma_sq = query.sigma1_sq if block == 1 else query.sigma2_sq
    g = _mgf_arg(query.setting, theta, query.m, sigma_sq)
    if g >= 0.5:
        return math.inf
    return (1.0 - 2.0 * g) ** -0.5


def _block_log_mgf(query: ChernoffQuery, theta: float, n: int, v: float) -> float:
    """n ln(1 - 2 g) of n rows at variance v; 0 if n = 0, -inf off-domain."""
    if n == 0:
        return 0.0
    g = _mgf_arg(query.setting, theta, query.m, v)
    return n * math.log1p(-2.0 * g) if g < 0.5 else -math.inf


def chernoff_log_bound(query: ChernoffQuery) -> float:
    """ln of the misranking bound at the query's theta; +inf off-domain."""
    theta = query.theta if query.theta is not None else query.default_theta()
    return -0.5 * (
        _block_log_mgf(query, theta, query.n1, query.sigma1_sq)
        + _block_log_mgf(query, theta, query.n2, query.sigma2_sq)
    )


def chernoff_bound(query: ChernoffQuery) -> float:
    """Misranking probability bound in (0, 1] at the query's theta.

    At the default theta both exponent arguments are negative, so the
    bound is always finite and at most 1; a caller-supplied theta off the
    MGF domain, or past the float range, yields +inf, the useless marker.
    """
    try:
        return math.exp(chernoff_log_bound(query))
    except OverflowError:
        return math.inf


def lq_domain_limit(query: ChernoffQuery) -> float:
    """Supremum of feasible theta > 0; the noisiest nonempty block binds.

    Solves m(-theta + 2 theta^2 v) = 1/2 for the agnostic argument (or
    its informed rescaling) at v = sigma2_sq, or sigma1_sq when block 2
    has no rows; a query without rows has no limit, +inf.
    """
    if query.n1 + query.n2 == 0:
        return math.inf
    m, v = query.m, (query.sigma2_sq if query.n2 else query.sigma1_sq)
    # agnostic: 2 m v t^2 - m t - 1/2 = 0; informed: m(-t + 2 t^2)/v = 1/2,
    # i.e. 2 m t^2 - m t - v/2 = 0; same root up to the factor v
    scale = v if query.setting is Setting.AGNOSTIC else 1.0
    return (m + math.sqrt(m * m + 4.0 * m * v)) / (4.0 * m * scale)


def _cubic_real_roots(c3: float, c2: float, c1: float, c0: float) -> list[float]:
    """Real roots of a cubic by the closed-form trigonometric/Cardano split."""
    a = c2 / c3
    b = c1 / c3
    c = c0 / c3
    # depress with t = x + a/3: t^3 + p t + q
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = a / 3.0
    disc = -4.0 * p**3 - 27.0 * q * q
    roots: list[float] = []
    if disc > 0.0 or (disc == 0.0 and p < 0.0):
        # three real roots; at disc = 0 two of them coincide
        r = math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (2.0 * p * r))))
        for k in range(3):
            roots.append(2.0 * r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift)
    else:
        # one real root (Cardano), or a triple root when p = q = 0
        half_q = q / 2.0
        inner = half_q * half_q + p**3 / 27.0
        if inner >= 0.0:
            su = math.sqrt(inner)
            u = math.copysign(abs(-half_q + su) ** (1.0 / 3.0), -half_q + su)
            v = math.copysign(abs(-half_q - su) ** (1.0 / 3.0), -half_q - su)
            roots.append(u + v - shift)
        else:  # pragma: no cover - disc <= 0 implies inner >= 0
            roots.append(-shift)
    return roots


def optimal_theta_agnostic(query: ChernoffQuery) -> OptimalTheta:
    """Best feasible theta for the agnostic bound, with its log-bound.

    The stationarity condition is the cubic

        n1 (4 s1 t - 1)(1 - 2m(-t + 2 t^2 s2))
      + n2 (4 s2 t - 1)(1 - 2m(-t + 2 t^2 s1)) = 0

    (s_b the block variances). Roots come from the closed form, get two
    Newton polish steps each, are filtered to the feasible interval, and
    compete against the relaxed point 1/(4 s2), which is always feasible;
    the smallest log-bound wins, so the result never loses to the
    relaxed bound.
    """
    if query.setting is not Setting.AGNOSTIC:
        raise ValueError("theta optimization applies to the agnostic setting")
    m, n1, n2 = query.m, query.n1, query.n2
    a1, a2 = 4.0 * query.sigma1_sq, 4.0 * query.sigma2_sq
    c3 = -m * a1 * a2 * (n1 + n2)
    c2 = m * (n1 * (2.0 * a1 + a2) + n2 * (2.0 * a2 + a1))
    c1 = n1 * (a1 - 2.0 * m) + n2 * (a2 - 2.0 * m)
    c0 = -float(n1 + n2)

    def poly(t: float) -> float:
        return ((c3 * t + c2) * t + c1) * t + c0

    def dpoly(t: float) -> float:
        return (3.0 * c3 * t + 2.0 * c2) * t + c1

    limit = lq_domain_limit(query)
    candidates = [query.default_theta()]
    # without rows every coefficient is 0 and the bound is 1 at any theta
    for t in _cubic_real_roots(c3, c2, c1, c0) if n1 + n2 else ():
        for _ in range(2):
            d = dpoly(t)
            if d != 0.0:
                t -= poly(t) / d
        if 0.0 < t < limit:
            candidates.append(t)

    best: OptimalTheta | None = None
    for t in candidates:
        lb = chernoff_log_bound(replace(query, theta=t))
        if math.isinf(lb):
            continue
        if best is None or lb < best.log_bound:
            best = OptimalTheta(theta=t, log_bound=lb)
    if best is None:
        raise SparsemixError("relaxed theta fell outside the MGF domain")
    return best


_BATCH = 4096


def empirical_misrank(
    signal: SparseSignal,
    noise: NoiseProfile,
    candidate: Sequence[int],
    trials: int,
    seed: int,
    setting: Setting = Setting.AGNOSTIC,
) -> MisrankEstimate:
    """Monte Carlo probability that a candidate support outscores the truth.

    Each trial draws from its own substream derive(seed, trial) and counts
    loss(candidate) <= loss(true support) under the requested setting's
    loss (row weights w_i = 1, or 1/sigma_i^2 when informed). No design
    is materialized: with c = beta - 1_cand and c' = beta - 1_true, row
    i's residuals are r = x.c + z and r' = x.c' + z, and

        loss(cand) - loss(true) = sum_i w_i d_i t_i,
        d_i = r - r' = x.(c - c'),   t_i = r + r' = x.(c + c') + 2 z,

    where (d_i, t_i) is a centered 2-D Gaussian with

        Var d = |c - c'|^2,   Cov(d, t) = |c|^2 - |c'|^2,
        Var t = |c + c'|^2 + 4 sigma_b^2   (sigma_b^2 the row's block).

    Each row is drawn from 2 standard normals through the Cholesky factor
    of that covariance, so the count has exactly the law of the full-design
    count. The factor's residual variance Var t - Cov^2 / Var d is taken
    in Lagrange-identity form, a sum of squares that cannot go negative
    and is exactly 0 when c and c' are parallel. A candidate equal to the
    truth gives d = 0 and an estimate of exactly 1. The half-width ci95 is
    the exact binomial (Clopper-Pearson) 95% interval's.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cand = sorted(int(j) for j in candidate)
    if len(cand) != signal.s or len(set(cand)) != len(cand):
        raise ValueError("candidate support must hold s distinct indices")
    if cand[0] < 0 or cand[-1] >= signal.p:
        raise ValueError("candidate indices must lie in [0, p)")
    if setting is Setting.INFORMED and noise.sigma1_sq <= 0.0:
        raise ValueError("informed loss requires positive variances")

    union = sorted(set(cand) | set(signal.support))
    values = dict(zip(signal.support, signal.values))
    beta_u = np.array([values.get(j, 0.0) for j in union])
    coef_cand = beta_u - np.isin(union, cand)
    coef_true = beta_u - np.isin(union, signal.support)
    diff = coef_cand - coef_true
    total = coef_cand + coef_true
    var_d = float(diff @ diff)
    if var_d > 0.0:
        d_scale = math.sqrt(var_d)
        t_from_d = float(diff @ total) / d_scale
        # |a|^2 |b|^2 - (a.b)^2 = sum_{i<j} (a_i b_j - a_j b_i)^2
        wedge = np.outer(diff, total)
        wedge -= wedge.T
        t_resid = 0.5 * float(np.sum(wedge * wedge)) / var_d
    else:
        d_scale = t_from_d = t_resid = 0.0
    n = noise.n
    row_var = noise.row_variances()
    t_own = np.sqrt(t_resid + 4.0 * row_var)
    w = 1.0 / row_var if setting is Setting.INFORMED else np.ones(n)

    successes = 0
    for start in range(0, trials, _BATCH):
        stop = min(start + _BATCH, trials)
        st = rng.derive_vec(seed, np.arange(start, stop, dtype=np.uint64))
        g = rng.normals_grid(st, 2 * n)
        g1 = g[:, :n]
        d = d_scale * g1
        t = t_from_d * g1 + t_own * g[:, n:]
        delta_loss = np.add.reduce(w * d * t, axis=1)
        successes += int(np.count_nonzero(delta_loss <= 0.0))

    estimate = successes / trials
    lo = 0.0 if successes == 0 else float(
        betaincinv(successes, trials - successes + 1, 0.025)
    )
    hi = 1.0 if successes == trials else float(
        betaincinv(successes + 1, trials - successes, 0.975)
    )
    return MisrankEstimate(estimate=estimate, ci95=(hi - lo) / 2.0)
