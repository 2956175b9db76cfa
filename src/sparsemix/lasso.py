"""L1-penalized least squares: solver, penalty schedule, KKT witness.

The objective throughout is

    f(beta) = ||Y - X beta||^2 / (2 n) + lam * ||beta||_1

minimized by working-set coordinate descent with exact soft-threshold
steps and an exact finish on a stable sign pattern (glmnet active sets,
Friedman et al. 2010; Celer working sets, Massias et al. 2018). The
correlations come from one maintained residual r, with X^T r recomputed
at every check. No Gram matrix is built: a pass touches only the working
set, so an n p^2 Gram build would cost more than the passes it speeds up.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInstanceError, SparsemixError
from .model import MixedDataset, SparseSignal
from .planner import Growth, RegimeSpec, ThresholdKind, recovery_threshold

__all__ = [
    "LassoConfig",
    "LassoSolution",
    "KktWitnessReport",
    "NoiseScaling",
    "SampleSizeVerdict",
    "solve_lasso",
    "lambda_schedule",
    "noise_scaling_ok",
    "classify_sample_size",
    "kkt_recovery_witness",
]

_REFRESH_SWEEPS = 64  # check and rebuild this often even while passes still move
_GRAM_CONDITION_LIMIT = 1e12
_NOISE_SCALING_MARGIN = 0.1  # noise_scaling_ok accepts ratios up to this
_STRICT_MARGIN = 1e-9  # KKT witness: each support slack must exceed this
_EQ_TOL = 1e-9  # KKT witness: each off-support margin may fall this far below 0


@dataclass(frozen=True)
class LassoConfig:
    """Penalty level and stopping rule for solve_lasso."""

    lam: float
    tol: float = 1e-8
    max_sweeps: int = 100_000

    def __post_init__(self) -> None:
        if not math.isfinite(self.lam) or self.lam < 0.0:
            raise ValueError("lam must be finite and nonnegative")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")


@dataclass(frozen=True)
class LassoSolution:
    """Solver output; objective is computed from scratch for the final beta.

    sweeps counts every pass, descent or exact finish. converged reports
    that, within that budget, the KKT check passed after a pass that moved
    nothing by tol or after an accepted exact finish; False is returned,
    never raised.
    """

    beta: np.ndarray
    objective: float
    sweeps: int
    converged: bool


class SampleSizeVerdict(str, enum.Enum):
    BELOW_NECESSITY = "BelowNecessity"
    ABOVE_SUFFICIENCY = "AboveSufficiency"
    GAP = "Gap"


class NoiseScaling(NamedTuple):
    ok: bool
    ratio: float


@dataclass(frozen=True)
class KktWitnessReport:
    """Exact adjudication of signed-support recovery at a penalty level.

    on_support_slack[i] = |beta_i| - |U_i| over the support in ascending
    index order; off_support_margin[j] = lam - |V_j| over the complement.
    condition1 needs every slack above _STRICT_MARGIN, condition2 every
    margin at least -_EQ_TOL; recovery is their conjunction. boundary
    flags reports whose smallest |slack| or |margin| sits within ten times
    its tolerance, where the verdict should not be trusted to agree with
    a finite-precision solver.
    """

    on_support_slack: np.ndarray
    off_support_margin: np.ndarray
    condition1: bool
    condition2: bool
    recovery: bool
    boundary: bool
    gram_condition: float


def _soft(x: float, t: float) -> float:
    if x > t:
        return x - t
    if x < -t:
        return x + t
    return 0.0


def _objective(X: np.ndarray, Y: np.ndarray, beta: np.ndarray, lam: float) -> float:
    on = np.flatnonzero(beta)
    resid = Y - X[:, on] @ beta[on]
    return 0.5 * float(resid @ resid) / len(Y) + lam * float(np.abs(beta).sum())


def _sign_pattern_solution(
    X: np.ndarray, Y: np.ndarray, signs: np.ndarray, lam: float
) -> np.ndarray | None:
    """beta solving G_AA beta_A = xty_A - lam sign_A on the signed active set A
    of signs, zero off A; None if that is singular or breaks a sign of A."""
    cols = np.flatnonzero(signs)
    xa = X[:, cols]
    try:
        beta_a = np.linalg.solve(xa.T @ xa, xa.T @ Y - len(Y) * lam * signs[cols])
    except np.linalg.LinAlgError:
        return None
    if not np.array_equal(np.sign(beta_a), signs[cols]):
        return None
    beta = np.zeros_like(signs)
    beta[cols] = beta_a
    return beta


def solve_lasso(dataset: MixedDataset, config: LassoConfig) -> LassoSolution:
    """Working-set coordinate descent from beta = 0, with an exact finish.

    Pass 1 visits every coordinate with a nonzero column, later passes the
    nonzeros of beta plus the coordinates the last check admitted, all in
    index order, each step solving its one-coordinate problem exactly.
    Correlations come from one maintained residual r = Y - X beta, updated
    after every step. A pass that moves nothing by tol, and every 64th
    pass, is followed by a check that rebuilds r, recomputes X^T r / n and
    admits the coordinates outside the pass with |corr| > lam; none after
    a pass that moved nothing by tol converges.
    A signed active set unchanged over two passes gets one exact finish:
    the next pass solves its stationarity equations and takes the result
    unless a sign breaks or the objective would rise, then runs the check.
    An objective rise across a pass raises SparsemixError; every pass
    counts against max_sweeps, and hitting it sets converged=False.
    """
    X, Y, lam, tol = dataset.X, dataset.Y, config.lam, config.tol
    n = len(Y)
    beta = np.zeros(X.shape[1])
    xf = np.asfortranarray(X)  # contiguous columns for the coordinate steps
    diag = np.einsum("ij,ij->j", X, X) / n
    resid = Y.copy()
    coords = np.flatnonzero(diag > 0.0).tolist()
    admitted = np.zeros(len(beta), dtype=bool)
    prev_obj = _objective(X, Y, beta, lam)
    converged = finish_due = False
    signs = tried = None
    for sweeps in range(1, config.max_sweeps + 1):
        max_delta = 0.0
        if finish_due:
            exact = _sign_pattern_solution(X, Y, signs, lam)
            tried, max_delta = signs, math.inf
            if exact is not None and _objective(X, Y, exact, lam) <= prev_obj:
                beta, max_delta, coords = exact, 0.0, np.flatnonzero(exact)
        else:
            for j in coords:
                a = diag[j]
                old = beta[j]
                new = _soft(float(xf[:, j] @ resid) / n + a * old, lam) / a
                d = new - old
                if d != 0.0:
                    resid -= xf[:, j] * d
                    beta[j] = new
                    max_delta = max(max_delta, abs(d))
        obj = _objective(X, Y, beta, lam)
        if obj > prev_obj + 1e-10 * (1.0 + abs(prev_obj)):
            raise SparsemixError(
                f"objective rose from {prev_obj!r} to {obj!r} on sweep {sweeps}"
            )
        prev_obj = obj
        if max_delta < tol or sweeps % _REFRESH_SWEEPS == 0:
            resid = Y - X @ beta
            admitted = np.abs((X.T @ resid) / n) > lam  # zero columns have corr 0
            admitted[coords] = False
            if max_delta < tol and not admitted.any():
                converged = True
                break
        coords = np.flatnonzero((beta != 0.0) | admitted).tolist()
        signs, last = np.sign(beta), signs
        finish_due = np.array_equal(signs, last) and not np.array_equal(signs, tried)
    return LassoSolution(beta, prev_obj, sweeps, converged)


def _check_schedule_shape(*, p: int, s: int, n: int, rho: float) -> None:
    if p - s < 2:
        raise ValueError("schedule requires p - s >= 2")
    if s < 1 or n < 1:
        raise ValueError("s and n must be positive")
    if rho <= 0.0:
        raise ValueError("rho must be positive")


def lambda_schedule(
    sigma_avg_sq: float, *, p: int, s: int, n: int, rho: float
) -> float:
    """Penalty level lam = (sigma_avg_sq ln(p-s) / ((1 + s/rho^2) n))^(1/4).

    Decays with n slowly enough to suppress noise yet fast enough to
    leave the smallest coefficient visible. Requires p - s >= 2 so the
    logarithm is positive.
    """
    _check_schedule_shape(p=p, s=s, n=n, rho=rho)
    if sigma_avg_sq <= 0.0:
        raise ValueError("sigma_avg_sq must be positive")
    return (sigma_avg_sq * math.log(p - s) / ((1.0 + s / rho**2) * n)) ** 0.25


def noise_scaling_ok(
    sigma_avg_sq: float, *, p: int, s: int, n: int, rho: float
) -> NoiseScaling:
    """Whether the noise level is small enough for the schedule to work.

    Computes ratio = sigma_avg_sq (1 + s/rho^2) ln(p-s) / n and accepts
    it up to _NOISE_SCALING_MARGIN. The ratio is the square of the
    schedule's lam over the crude scale rho-independent planning uses, so
    values near 1 mean the penalty would drown the smallest coefficients.
    """
    _check_schedule_shape(p=p, s=s, n=n, rho=rho)
    if sigma_avg_sq < 0.0:
        raise ValueError("sigma_avg_sq must be nonnegative")
    ratio = sigma_avg_sq * (1.0 + s / rho**2) * math.log(p - s) / n
    return NoiseScaling(ok=ratio <= _NOISE_SCALING_MARGIN, ratio=ratio)


def classify_sample_size(n: int, p: int, s: int, epsilon: float) -> SampleSizeVerdict:
    """Place a sample count relative to the l1-relaxation threshold.

    Below (1 - epsilon) times the threshold is BelowNecessity, above
    (1 + epsilon) times is AboveSufficiency, and anything between lands
    in Gap, where the theory is silent at finite size.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    n_alg = recovery_threshold(
        ThresholdKind.N_ALG, RegimeSpec(growth=Growth.SUBLINEAR, p=p, s=s)
    )
    if n < (1.0 - epsilon) * n_alg:
        return SampleSizeVerdict.BELOW_NECESSITY
    if n > (1.0 + epsilon) * n_alg:
        return SampleSizeVerdict.ABOVE_SUFFICIENCY
    return SampleSizeVerdict.GAP


def kkt_recovery_witness(
    dataset: MixedDataset,
    truth: SparseSignal,
    lam: float,
) -> KktWitnessReport:
    """Primal-dual certificate for signed-support recovery at penalty lam.

    With Z = Y - X beta_true, b the true sign vector, and G the support
    Gram matrix X_S^T X_S / n:

        U_i = e_i^T G^{-1} (X_S^T Z / n - lam b)       (support shifts)
        V_j = X_j^T (X_S (X_S^T X_S)^{-1} lam b + (I - P) Z / n)

    where P projects onto the support columns. The Lasso recovers the
    signed support iff |U_i| < |beta_i| on the support and |V_j| <= lam
    off it, up to the tolerances in KktWitnessReport. Factorization is by
    SVD; a support Gram condition number above 1e12 raises
    DegenerateInstanceError rather than certifying anything.
    """
    if lam < 0.0 or not math.isfinite(lam):
        raise ValueError("lam must be finite and nonnegative")
    X, Y = dataset.X, dataset.Y
    n, p = X.shape
    s = truth.s
    if truth.p != p:
        raise ValueError("signal dimension must match the design")
    if s >= n:
        raise ValueError("witness requires s < n")

    support = list(truth.support)
    beta_s = np.asarray(truth.values)
    b = np.sign(beta_s)
    Xs = X[:, support]
    Z = Y - X @ truth.dense()

    u_fac, sv, vt = np.linalg.svd(Xs, full_matrices=False)
    if sv[-1] <= 0.0:
        raise DegenerateInstanceError("support columns are rank deficient")
    gram_condition = float((sv[0] / sv[-1]) ** 2)
    if gram_condition > _GRAM_CONDITION_LIMIT:
        raise DegenerateInstanceError(
            f"support Gram condition {gram_condition:.3e} exceeds "
            f"{_GRAM_CONDITION_LIMIT:.0e}"
        )

    # G^{-1} x = V diag(n / sv^2) V^T x
    rhs = Xs.T @ Z / n - lam * b
    u_vec = vt.T @ ((n / sv**2) * (vt @ rhs))

    # X_S (X_S^T X_S)^{-1} b = U diag(1/sv) V^T b
    dual_dir = u_fac @ ((1.0 / sv) * (vt @ b))
    resid_perp = (Z - u_fac @ (u_fac.T @ Z)) / n
    w = lam * dual_dir + resid_perp
    on_support = set(support)
    off = [j for j in range(p) if j not in on_support]
    v_vec = X[:, off].T @ w if off else np.empty(0)

    slack = np.abs(beta_s) - np.abs(u_vec)
    margin = lam - np.abs(v_vec)
    condition1 = bool(slack.min() > _STRICT_MARGIN)
    condition2 = bool(margin.min() >= -_EQ_TOL) if off else True
    boundary = bool(np.abs(slack).min() < 10.0 * _STRICT_MARGIN)
    if off and np.abs(margin).min() < 10.0 * _EQ_TOL:
        boundary = True
    return KktWitnessReport(
        on_support_slack=slack,
        off_support_margin=margin,
        condition1=condition1,
        condition2=condition2,
        recovery=condition1 and condition2,
        boundary=boundary,
        gram_condition=gram_condition,
    )
