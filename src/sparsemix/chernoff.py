"""Chernoff bounds on pairwise support misranking, and their Monte Carlo check.

The bounded event: a candidate support S at symmetric-difference size m
from the truth scores a loss no worse than the truth's. Each sample row
contributes one moment-generating-function factor (1 - 2 g_b)^(-1/2)
per noise block, so the bound is M1(theta)^n1 * M2(theta)^n2, minimized
over theta inside the MGF domain, where each nonempty block's exponent
argument g_b is below 1/2; an empty block contributes neither a factor
nor a domain limit. g_b is planner.exponent_arg, the function the
planner's coefficients come from, so at m = 2 delta s and the default
theta the log-bound is exactly -(n1 alpha1 + n2 alpha2) / 2.
Everything is accumulated in log space. The log-bound is convex in
theta on the MGF domain, so the agnostic optimum is found by bisection
on the sign of its slope over (0, lq_domain_limit).

One rule covers the float range (_in_float_range): a theta at which some
nonempty block's 1 - 2 g_b overflows (g_b hugely negative, at a subnormal
variance or a theta near float max), or is NaN (theta = 0 where 2 v
overflows), is refused. The true bound there is positive, but ln(1 - 2 g_b)
is lost, and a log-bound of -inf would claim a misranking probability of
exactly 0. Where every 1 - 2 g_b is finite nothing changes.

The Monte Carlo check (empirical_misrank, unit_misrank) draws its trials
in batches, each drawn and reduced on one thread. Two batches or more are
dealt round-robin to the two parts of rng._on_both, which decides whether
they run on two threads, the second on one that ends with the call;
trial k draws from derive(seed, k) wherever it runs, and the count is an
integer sum, so the estimate does not depend on the dealing or the CPU
count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import model, rng
from .errors import COUNT_MAX, as_index, as_real, index_fields, support_indices
from .model import NoiseProfile, Setting, SparseSignal, validate_variances, wilson_ci95
from .planner import exponent_arg, relaxed_theta, validate_delta

__all__ = [
    "ChernoffQuery",
    "OptimalTheta",
    "MisrankEstimate",
    "chernoff_log_bound",
    "chernoff_bound",
    "optimal_theta_agnostic",
    "lq_domain_limit",
    "empirical_misrank",
    "unit_misrank",
    "m_for_error_budget",
]


@dataclass(frozen=True)
class ChernoffQuery:
    """One bound evaluation: block layout, variances, overlap size m.

    m is the size of the symmetric difference between the candidate and
    true supports (equal-cardinality supports always give an even m).
    theta overrides the setting's default evaluation point when given;
    a query built without one holds default_theta(). Either way the
    theta held must be finite and nonnegative, so a variance too small
    for 1/(4 sigma2_sq) to be finite is refused, and so is a theta at
    which a nonempty block's 1 - 2 g overflows or is NaN (module docstring).
    """

    setting: Setting
    n1: int
    n2: int
    sigma1_sq: float
    sigma2_sq: float
    m: int
    theta: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "setting", Setting(self.setting))
        index_fields(self, "n1", "n2", low=0, high=COUNT_MAX)
        index_fields(self, "m", low=1, high=COUNT_MAX)
        as_real(self.sigma1_sq, "sigma1_sq", positive=True)
        validate_variances(self.sigma1_sq, self.sigma2_sq)
        if self.theta is None:
            object.__setattr__(self, "theta", self.default_theta())
        as_real(self.theta, "theta")
        if not _in_float_range(_blocks(self, self.theta)):
            raise ValueError("theta makes a block's 1 - 2 g overflow or read NaN")

    def default_theta(self) -> float:
        """Relaxed agnostic point 1/(4 sigma2_sq); exact informed point 1/4."""
        return relaxed_theta(self.setting, self.sigma2_sq)


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
    validate_delta(delta)
    s = as_index(s, "s", low=1, high=COUNT_MAX)
    m = 2.0 * delta * s
    if abs(m - round(m)) > 1e-9 or round(m) < 1:
        raise ValueError("2 * delta * s must be a positive integer")
    return int(round(m))


def _blocks(query: ChernoffQuery, theta: float) -> list[tuple[int, float, float]]:
    """(rows n, variance v, exponent argument g at theta) of each block with rows."""
    pairs = ((query.n1, query.sigma1_sq), (query.n2, query.sigma2_sq))
    return [(n, v, exponent_arg(query.setting, theta, query.m, v)) for n, v in pairs if n]


def _in_float_range(blocks: list[tuple[int, float, float]]) -> bool:
    """The float-range rule: every 1 - 2 g is below +inf, which NaN is not."""
    return all(1.0 - 2.0 * g < math.inf for _, _, g in blocks)


def _log_bound(blocks: list[tuple[int, float, float]]) -> float:
    """-(t1 + t2) / 2, t_b = n_b ln(1 - 2 g_b) or 0.0 without rows; +inf if a g_b >= 1/2."""
    terms = [n * math.log1p(-2.0 * g) if g < 0.5 else -math.inf for n, _, g in blocks]
    t1, t2, *_ = terms + [0.0, 0.0]
    return -0.5 * (t1 + t2)


def chernoff_log_bound(query: ChernoffQuery) -> float:
    """ln of the misranking bound at the query's theta; +inf off-domain."""
    return _log_bound(_blocks(query, query.theta))


def chernoff_bound(query: ChernoffQuery) -> float:
    """Misranking probability bound in [0, 1] at the query's theta.

    At the default theta both exponent arguments are negative, so the
    bound is always finite and at most 1. It reads 0.0 once the log-bound
    is below about -745, where exp underflows; chernoff_log_bound carries
    the value there. A caller-supplied theta off the MGF domain, or past
    the float range, yields +inf, the useless marker.
    """
    try:
        return math.exp(chernoff_log_bound(query))
    except OverflowError:
        return math.inf


def lq_domain_limit(query: ChernoffQuery) -> float:
    """Supremum of feasible theta > 0: the smallest per-block domain root.

    A nonempty block at variance v reaches g = 1/2 at the positive root
    (m + sqrt(m^2 + 4 m v)) / (4 m v) agnostic, or / (4 m) informed, so
    the noisiest block binds agnostic and the cleanest informed. Where
    m^2 + 4 m v overflows, the root is taken in a scaled form whose
    factors stay in the float range. A query without rows has no limit,
    +inf.
    """
    m, agnostic = query.m, query.setting is Setting.AGNOSTIC

    def root(v: float) -> float:
        scale = v if agnostic else 1.0
        disc = m * m + 4.0 * m * v
        if disc == math.inf:  # m + S = (1 + m / S) S with S = 2 sqrt(m) sqrt(v) t
            a, b, t = math.sqrt(m), math.sqrt(v), math.sqrt(1.0 + 0.25 * m / v)
            return (1.0 + a / (2.0 * b * t)) * t * (b / scale) / (2.0 * a)
        return (m + math.sqrt(disc)) / (4.0 * m * scale)

    return min((root(v) for _, v, _ in _blocks(query, query.theta)), default=math.inf)


def _log_bound_slope(query: ChernoffQuery, theta: float) -> float:
    """d/dtheta of the agnostic log-bound: sum_b n_b g_b' / (1 - 2 g_b).

    g_b is planner.exponent_arg and g_b' = m (4 (v theta) - 1) its slope,
    grouped so that no 4 v overflows; +inf where a block's g_b >= 1/2,
    which rounding can give at the domain's edge, and where its 1 - 2 g_b
    overflows, so that the bisection never leaves the float range either.
    """
    slope = 0.0
    for n, v, g in _blocks(query, theta):
        d = 1.0 - 2.0 * g
        slope += n * query.m * (4.0 * (v * theta) - 1.0) / d if 0.0 < d < math.inf else math.inf
    return slope


def optimal_theta_agnostic(query: ChernoffQuery) -> OptimalTheta:
    """Best feasible theta for the agnostic bound, with its log-bound.

    The log-bound is a sum of log-MGFs, so it is convex on the MGF domain
    (0, lq_domain_limit): its slope is -m (n1 + n2) < 0 at 0 and goes to
    +inf at the limit. Bisection on the slope's sign brackets the optimum
    between two floats, halving until the midpoint equals an endpoint.
    The relaxed point 1/(4 sigma2_sq), always inside the domain, then
    competes with both ends; the smallest log-bound wins and a tie goes
    to the relaxed point, so the result never loses to the relaxed bound.
    A limit past float max (a variance so small that the root overflows)
    is cut to float max. Where a block's 1 - 2 g overflows the slope reads
    +inf, so the bracket closes on the last theta in the float range, and
    a point that ChernoffQuery refuses does not compete. Without rows the
    slope and log-bound are 0 everywhere, so the relaxed point wins the tie.
    """
    if query.setting is not Setting.AGNOSTIC:
        raise ValueError("theta optimization applies to the agnostic setting")
    relaxed = query.default_theta()
    lo, hi = 0.0, min(lq_domain_limit(query), sys.float_info.max)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _log_bound_slope(query, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    best = OptimalTheta(relaxed, math.inf)
    # an end off the domain, or one ChernoffQuery refuses, scores +inf and never wins
    for t in (relaxed, lo, hi):
        blocks = _blocks(query, t)
        lb = _log_bound(blocks) if _in_float_range(blocks) else math.inf
        if lb < best.log_bound:
            best = OptimalTheta(t, lb)
    return best


_BATCH = 4096  # trials per batch, at most
# normals per batch, at most, within one rng tile: up to n = 3 a batch is _BATCH trials
_ENTRIES = 2**15 - 2


def _batch(n: int) -> int:
    """Trials per batch at n rows: at most _BATCH trials and _ENTRIES normals,
    but at least one trial."""
    return min(_BATCH, max(1, _ENTRIES // (2 * n)))


def _sample(factor: tuple[float, float, float], noise: NoiseProfile, trials: int,
            seed: int, setting: Setting) -> MisrankEstimate:
    """The estimate of empirical_misrank from its factor (d_scale, t_from_d,
    t_resid), drawn in batches of _batch(n) trials.

    Each batch is drawn and reduced on one thread. Two batches or more are
    dealt round-robin to rng._on_both's parts, even ones to the first and
    odd ones to the second; a lone batch runs on the caller. Trial k always
    draws from derive(seed, k) and the count is an integer sum, so the
    estimate does not depend on the cut or the dealing.
    """
    trials = as_index(trials, "trials", low=1, high=COUNT_MAX)
    seed = as_index(seed, "seed")
    n = noise.n
    # a row's floats at a batch's peak: its 2 normals, d, t's two products
    # and their sum, w and t_own
    model.check_design_cap(n, 8, 1)
    d_scale, t_from_d, t_resid = factor
    w = np.repeat(noise.block_weights(setting), (noise.n1, noise.n2))
    t_own = np.sqrt(t_resid + 4.0 * noise.row_variances())
    batch = _batch(n)
    starts = range(0, trials, batch)

    def misranked(start: int) -> int:
        """How many trials of the batch from trial start on score the candidate
        no worse; its arrays die on return, before the next batch draws."""
        stop = min(start + batch, trials)
        g = rng.normals_grid(rng.derive_vec(seed, np.arange(start, stop, dtype=np.uint64)), 2 * n)
        g1 = g[:, :n]
        d, t = g1 * d_scale, g1 * t_from_d + g[:, n:] * t_own
        return int(np.count_nonzero(np.add.reduce(w * d * t, axis=1) <= 0.0))

    def count(part: range) -> int:
        return sum(map(misranked, part))

    if len(starts) > 1:
        successes = sum(rng._on_both(count, (starts[0::2],), (starts[1::2],)))
    else:
        successes = count(starts)
    return MisrankEstimate(successes / trials, wilson_ci95(successes, trials))


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
    count. The factor reads only the swap structure: c - c' is +-1 on the
    symmetric difference D (m indices, half of them the truth-only A) and
    0 on the shared indices I. With u_j = (c - c')_j (c + c')_j, which is
    2 beta_j - 1 on A and 1 on D - A, Lagrange's identity gives

        Var d = m,   Cov = sum_D u_j,
        |c + c'|^2 - Cov^2 / m = sum_D (u_j - Cov / m)^2 + sum_I (2 beta_j - 2)^2,

    a sum of squares that cannot go negative and is exactly 0 in the one
    parallel case, beta = 1 on the whole support. A candidate equal to the
    truth gives d = 0 and an estimate of exactly 1. ci95 is the Wilson 95%
    half-width (model.wilson_ci95), the interval of summary.csv's ci95.
    """
    cand = support_indices(candidate, signal.p, "candidate")
    if len(cand) != signal.s:
        raise ValueError("candidate support must hold s indices")
    beta = np.array(signal.values)
    shared = np.isin(signal.support, cand)
    lost = beta[~shared]  # the truth-only indices; as many are candidate-only
    u = np.concatenate([2.0 * lost - 1.0, np.ones(lost.size)])
    rest = 2.0 * beta[shared] - 2.0
    factor = (0.0, 0.0, 0.0)  # a candidate equal to the truth: d = 0 in every row
    if u.size:
        cov, d_scale = float(u.sum()), math.sqrt(u.size)
        dev = u - cov / u.size
        factor = (d_scale, cov / d_scale, float(dev @ dev) + float(rest @ rest))
    return _sample(factor, noise, trials, seed, setting)


def unit_misrank(query: ChernoffQuery, trials: int, seed: int) -> MisrankEstimate:
    """empirical_misrank of the query's candidate for a unit signal. There u = 1
    on the m swapped indices and the shared ones add 0, so the factor is that of
    support range(m/2) against range(m/2, m), (sqrt m, m / sqrt m, 0), whose cost
    does not grow with m. m must be even, and the blocks need a row."""
    if query.m % 2:
        raise ValueError("Monte Carlo checks need an even m")
    noise = NoiseProfile(query.n1, query.n2, query.sigma1_sq, query.sigma2_sq)
    root = math.sqrt(query.m)
    return _sample((root, float(query.m) / root, 0.0), noise, trials, seed, query.setting)
