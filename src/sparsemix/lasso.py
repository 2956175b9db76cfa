"""L1-penalized least squares: solver, penalty schedule, KKT witness.

The objective throughout is

    f(beta) = ||Y - X beta||^2 / (2 n) + lam * ||beta||_1

minimized by working-set coordinate descent with exact soft-threshold
steps and an exact finish on a stable sign pattern (glmnet active sets,
Friedman et al. 2010; Celer working sets, Massias et al. 2018). The
correlations come from one maintained residual r, with X^T r recomputed
at every check. Every step takes its correlation x_j . r by ddot on a
contiguous column. Pass 1, from beta = 0, screens its coordinates with one
gemv per block of 64 and steps only where the product, widened by a proven
rounding bound, could pass lam; every skipped step would have moved
nothing, so the iterates are those of visiting every coordinate. Later
passes gather their columns once, and X is never copied whole. No Gram
matrix is built: a pass touches only the working set, so an n p^2 Gram
build would cost more than the passes it speeds up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegenerateInstanceError, SparsemixError
from .errors import COUNT_MAX, as_index, as_real, index_fields
from .model import MixedDataset, SparseSignal

__all__ = [
    "LassoConfig",
    "LassoSolution",
    "KktWitnessReport",
    "solve_lasso",
    "lambda_schedule",
    "kkt_recovery_witness",
]

_REFRESH_SWEEPS = 64  # check and rebuild this often even while passes still move
_BLOCK = 64  # pass-1 screen: coordinates per gemv, and the pass size that turns it on
_U = 2.0**-53  # unit roundoff of float64
_H = 2.0**-1074  # smallest subnormal: the absolute error unit of gradual underflow
_GRAM_CONDITION_LIMIT = 1e12


@dataclass(frozen=True)
class LassoConfig:
    """Penalty level and stopping rule for solve_lasso."""

    lam: float
    tol: float = 1e-8
    max_sweeps: int = 100_000

    def __post_init__(self) -> None:
        as_real(self.lam, "lam")
        as_real(self.tol, "tol", positive=True)
        index_fields(self, "max_sweeps", low=1, high=COUNT_MAX)


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


@dataclass(frozen=True)
class KktWitnessReport:
    """Adjudication of signed-support recovery at a penalty level.

    on_support_slack[i] = |beta_i| - |U_i| over the support in ascending
    index order; off_support_margin[j] = lam - |V_j| over the complement,
    both as computed in float64, each within a proven rounding bound of its
    exact value (E_U and E_V, derived in kkt_recovery_witness). condition1
    holds when every slack exceeds E_U and condition2 when every margin
    reaches E_V, so each also holds exactly; recovery is their conjunction.
    boundary flags a slack or margin within its bound of zero: float64
    cannot decide that condition, or decides it only by an exact equality,
    and a condition it cannot decide is False.
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


def _residual(X: np.ndarray, Y: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Y - X beta from scratch, over the nonzero columns of beta."""
    on = np.flatnonzero(beta)
    return Y - X[:, on] @ beta[on]


def _objective(resid: np.ndarray, beta: np.ndarray, lam: float) -> float:
    return 0.5 * float(resid @ resid) / len(resid) + lam * float(np.abs(beta).sum())


def _rose(obj: float, prev: float) -> bool:
    return obj > prev + 1e-10 * (1.0 + abs(prev))  # by more than rounding


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


def _screened_pass(
    X: np.ndarray, coords: np.ndarray, diag: np.ndarray, resid: np.ndarray, lam: float
) -> Iterator[tuple[int, np.ndarray, float, float]]:
    """Pass 1 from beta = 0: yield the step arguments (j, x_j, diag_j, beta_j = 0)
    of each j in coords, in order, whose step could move beta_j, x_j as a
    contiguous copy; every skipped step would leave beta_j at 0.

    The step at j takes t = fl(x_j . r) by ddot and moves beta_j iff
    |fl(t / n)| > lam. Rounding is monotone and lam is a float, so it does
    not move when |t| <= n lam. One gemv gives g = fl(X_B^T r) for a block B
    of up to _BLOCK coordinates, summed in another order. Any order lands
    within gamma_n sum_i |x_ij r_i| <= gamma_n ||x_j|| ||r|| of the exact
    product, gamma_n = n u / (1 - n u), u = 2^-53 (Higham 2002, sec. 3.1),
    plus n h / 2 from products that underflow, h = 2^-1074. Hence

        |t| <= |g_j| + 2 gamma_n ||x_j|| ||r|| + n h.

    j is skipped when fl(|g_j| + slack_j) < fl(n lam) (1 - 8u), with
    slack_j = 4 n u xhat_j rhat + 4 (n + 1) h, xhat_j = sqrt(n diag_j + 2 n h)
    and rhat = sqrt(r . r + 2 n h). The 2 n h restores what squares and the
    scaling of diag lose to underflow, so xhat_j >= (1 - gamma_{n+4}) ||x_j||
    and likewise rhat. For n u < 1/16, 4 n u (1 - gamma_{n+4})^2 (1 - u)^3
    exceeds 2 gamma_n; the factor (1 - 8u) covers the rounding of n lam and
    of the sums, and the spare h's their underflow. So a skipped j has
    |t| <= n lam, and a NaN in the test is not skipped. After a yield r may
    have moved, so the next block starts at the next coordinate.
    """
    n = len(resid)
    limit = n * lam * (1.0 - 8.0 * _U)
    scale = 4.0 * n * _U * np.sqrt(n * diag + 2 * n * _H)
    floor = 4.0 * (n + 1) * _H
    i = 0
    while i < len(coords):
        block = coords[i : i + _BLOCK]
        lo, hi = block[0], block[-1] + 1
        near = slice(lo, hi) if hi - lo == len(block) else block
        rhat = math.sqrt(float(resid @ resid) + 2 * n * _H)
        g = resid @ X[:, near]
        hits = np.flatnonzero(~(np.abs(g) + (scale[near] * rhat + floor) < limit))
        if not hits.size:
            i += len(block)
            continue
        j = int(block[hits[0]])
        yield j, np.ascontiguousarray(X[:, j]), float(diag[j]), 0.0
        i += hits[0] + 1


def solve_lasso(dataset: MixedDataset, config: LassoConfig) -> LassoSolution:
    """Working-set coordinate descent from beta = 0, with an exact finish.

    Pass 1 offers every coordinate with a nonzero column, later passes the
    nonzeros of beta plus the coordinates the last check admitted, all in
    index order, each step solving its one-coordinate problem exactly.
    When pass 1 offers more than _BLOCK coordinates, blocked gemv products
    screen them against a proven rounding bound and only those whose step
    could move take it (_screened_pass); the skipped steps would move
    nothing, so the floats are those of visiting every coordinate. Later
    passes gather their columns once as contiguous rows.
    Correlations come from one maintained residual r = Y - X beta, updated
    after every step. A pass that moves nothing by tol, and every 64th
    pass, is followed by a check that rebuilds r, recomputes X^T r / n and
    admits the coordinates outside the pass with |corr| > lam; none after
    a pass that moved nothing by tol converges.
    A signed active set unchanged over two passes gets one exact finish:
    the next pass solves its stationarity equations and takes the result
    unless a sign breaks or the objective would rise (_rose), then runs the check.
    An objective rise across a pass (_rose), read from the maintained r, raises
    SparsemixError; every pass counts against max_sweeps, and hitting it
    sets converged=False. Only the check, a finish candidate and the
    returned objective form r from scratch (_residual), and none of them
    when r already is that of the current beta.
    """
    X, Y, lam, tol = dataset.X, dataset.Y, config.lam, config.tol
    n = len(Y)
    beta = np.zeros(X.shape[1])
    diag = np.einsum("ij,ij->j", X, X) / n
    resid = Y.copy()
    coords = np.flatnonzero(diag > 0.0)
    admitted = np.zeros(len(beta), dtype=bool)
    prev_obj = _objective(resid, beta, lam)
    converged = finish_due = scratch = False  # scratch: resid is _residual's for beta
    signs = tried = None
    for sweeps in range(1, config.max_sweeps + 1):
        max_delta = 0.0
        if finish_due:
            exact = _sign_pattern_solution(X, Y, signs, lam)
            tried, max_delta = signs, math.inf
            if exact is not None:
                fresh = _residual(X, Y, exact)
                if not _rose(_objective(fresh, exact, lam), prev_obj):
                    beta, resid, max_delta, scratch = exact, fresh, 0.0, True
                    coords = np.flatnonzero(exact)
        else:
            if sweeps == 1 and len(coords) > _BLOCK:
                steps = _screened_pass(X, coords, diag, resid, lam)
            else:
                steps = zip(  # X.T[coords] has contiguous rows
                    coords.tolist(), X.T[coords], diag[coords].tolist(), beta[coords].tolist()
                )
            for j, col, a, old in steps:
                new = _soft(float(col.dot(resid)) / n + a * old, lam) / a
                d = new - old
                if d != 0.0:
                    resid -= col * d
                    beta[j] = new
                    max_delta = max(max_delta, abs(d))
                    scratch = False
        obj = _objective(resid, beta, lam)
        if _rose(obj, prev_obj):
            raise SparsemixError(
                f"objective rose from {prev_obj!r} to {obj!r} on sweep {sweeps}"
            )
        prev_obj = obj
        if max_delta < tol or sweeps % _REFRESH_SWEEPS == 0:
            if not scratch:
                resid, scratch = _residual(X, Y, beta), True
            admitted = np.abs((X.T @ resid) / n) > lam  # zero columns have corr 0
            admitted[coords] = False
            if max_delta < tol and not admitted.any():
                converged = True
                break
        coords = np.flatnonzero((beta != 0.0) | admitted)
        signs, last = np.sign(beta), signs
        finish_due = np.array_equal(signs, last) and not np.array_equal(signs, tried)
    if not scratch:
        resid = _residual(X, Y, beta)
    return LassoSolution(beta, _objective(resid, beta, lam), sweeps, converged)


def lambda_schedule(
    sigma_avg_sq: float, *, p: int, s: int, n: int, rho: float
) -> float:
    """Penalty level lam = (sigma_avg_sq ln(p-s) / ((1 + s/rho^2) n))^(1/4).

    Decays with n slowly enough to suppress noise yet fast enough to
    leave the smallest coefficient visible. Requires p - s >= 2 so the
    logarithm is positive. From rho = 2^511 on, 1 + s/rho^2 rounds to 1,
    so it is taken as 1 before rho^2 can overflow; a lam that is not
    finite (sigma_avg_sq ln(p - s) overflowing) is refused.
    """
    p, s, n = (as_index(v, k, low=1, high=COUNT_MAX) for k, v in zip("psn", (p, s, n)))
    if p - s < 2:
        raise ValueError("schedule requires p - s >= 2")
    as_real(rho, "rho", positive=True)
    as_real(sigma_avg_sq, "sigma_avg_sq", positive=True)
    shrink = 1.0 + s / rho**2 if rho < 2.0**511 else 1.0
    lam = (sigma_avg_sq * math.log(p - s) / (shrink * n)) ** 0.25
    if not math.isfinite(lam):
        raise ValueError(f"schedule lambda {lam} is not finite")
    return lam


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
    off it. Factorization is by SVD; a support Gram condition number above
    1e12 raises DegenerateInstanceError rather than certifying anything.

    Z is taken as computed; every later rounding is bounded, so that the
    verdicts hold exactly (KktWitnessReport). With u_hat the computed U
    and R = Z - X_S u_hat, V_j = X_j^T R / n - X_j^T X_S (U - u_hat) / n
    and U - u_hat = -G^{-1} rho with rho = lam b - X_S^T R / n, the
    support's stationarity residual. Each X^T R / n is computed within
    err = gamma_{n+s+1} |X|^T (|Z| + |X_S||u_hat| + |R|) / n of its exact
    value (Higham 2002, ch. 3; u = 2^-53), and |R| <= |Z| + |X_S||u_hat|
    up to rounding, so doubling the first two terms and the count covers
    it and the rounding of evaluating the bound. ||G^{-1}|| = n / sv_min^2
    <= 2 n / sv_hat_min^2 whenever the SVD's backward error is below
    0.29 ||X_S|| / sqrt(1e12), far above LAPACK's. Hence, with both bounds
    doubled once more so that forming slack, margin and the comparisons
    cannot undercut them:
    E_U = 4 n / sv_hat_min^2 (||rho_hat|| + ||err_S||) and
    E_V = 2 err_j + E_U |X_j|^T |X_S| 1 / n. Both scale with the data,
    so verdicts keep under power-of-two rescaling of X, Y and lam;
    gradual underflow is not covered.
    """
    as_real(lam, "lam")
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
    Z = Y - Xs @ beta_s  # _residual's product: the support is sorted, its values nonzero

    _, sv, vt = np.linalg.svd(Xs, full_matrices=False)
    if sv[-1] <= 0.0:
        raise DegenerateInstanceError("support columns are rank deficient")
    gram_condition = float((sv[0] / sv[-1]) ** 2)
    if gram_condition > _GRAM_CONDITION_LIMIT:
        raise DegenerateInstanceError(
            f"support Gram condition {gram_condition:.3e} exceeds "
            f"{_GRAM_CONDITION_LIMIT:.0e}"
        )

    # G^{-1} x = V diag(n / sv^2) V^T x; beta_S + U solves the Lasso on S
    rhs = Xs.T @ Z / n - lam * b
    u_vec = vt.T @ ((n / sv**2) * (vt @ rhs))
    fit = Z - Xs @ u_vec  # Y - X (beta + U)
    corr = X.T @ fit / n  # lam b on the support, V off it
    off = np.ones(p, dtype=bool)
    off[support] = False
    abs_s, abs_x = np.abs(Xs), np.abs(X)
    k = 2 * (n + s) + 8
    gamma = 2.0 * k * _U / ((1.0 - k * _U) * n)
    err = gamma * ((np.abs(Z) + abs_s @ np.abs(u_vec)) @ abs_x)
    rho = lam * b - corr[support]
    e_u = 4.0 * n / sv[-1] ** 2 * (math.sqrt(rho @ rho) + math.sqrt(err[support] @ err[support]))
    e_v = (2.0 * err + e_u / n * (abs_s.sum(axis=1) @ abs_x))[off]

    slack = np.abs(beta_s) - np.abs(u_vec)
    margin = lam - np.abs(corr[off])
    condition1 = bool(slack.min() > e_u)
    condition2 = bool((margin >= e_v).all())
    boundary = bool(np.abs(slack).min() <= e_u or (np.abs(margin) <= e_v).any())
    return KktWitnessReport(
        on_support_slack=slack,
        off_support_margin=margin,
        condition1=condition1,
        condition2=condition2,
        recovery=condition1 and condition2,
        boundary=boundary,
        gram_condition=gram_condition,
    )
