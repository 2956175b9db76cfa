"""L1-penalized least squares: solver, penalty schedule, KKT witness.

The objective throughout is

    f(beta) = ||Y - X beta||^2 / (2 n) + lam * ||beta||_1

minimized by cyclic coordinate descent with exact soft-threshold steps.
For moderate column counts the solver precomputes the Gram matrix and
maintains correlations (covariance updates); beyond that it falls back
to residual updates. Both paths take identical coordinate steps in exact
arithmetic, and which one runs is a pure function of the problem shape,
so results stay reproducible.
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

_GRAM_LIMIT = 4096  # widest design granted a precomputed Gram matrix
_REFRESH_SWEEPS = 64  # rebuild maintained state this often to stop drift
_GRAM_CONDITION_LIMIT = 1e12


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
    """Solver output; objective is recomputed from scratch at the end.

    converged reports whether the largest coordinate change fell below
    tol within the sweep budget; a False value is returned, never raised.
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
    condition1 needs every slack strictly positive, condition2 every
    margin nonnegative (within eq_tol); recovery is their conjunction.
    boundary flags reports whose smallest slack or margin sits within ten
    times the tolerance, where the verdict should not be trusted to
    agree with a finite-precision solver.
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


def solve_lasso(dataset: MixedDataset, config: LassoConfig) -> LassoSolution:
    """Cyclic coordinate descent from beta = 0.

    Coordinates are visited in index order; each step solves its
    one-dimensional problem exactly, so the objective never increases
    across sweeps (a rise raises SparsemixError). Convergence is declared
    when no coordinate moves more than tol in a full sweep. Hitting the
    sweep budget sets converged=False on the result instead of raising.
    """
    X, Y = dataset.X, dataset.Y
    n, p = X.shape
    lam, tol = config.lam, config.tol
    beta = np.zeros(p)

    use_gram = p <= _GRAM_LIMIT
    if use_gram:
        xty = (X.T @ Y) / n
        gram = (X.T @ X) / n
        diag = gram.diagonal().copy()
        corr = xty.copy()  # corr = xty - gram @ beta, maintained
        yy = float(Y @ Y) / n
    else:
        xf = np.asfortranarray(X)
        resid = Y.copy()
        diag = np.einsum("ij,ij->j", X, X) / n

    def objective_fast() -> float:
        if use_gram:
            fit = 0.5 * (yy - float(beta @ (corr + xty)))
        else:
            fit = 0.5 * float(resid @ resid) / n
        return fit + lam * float(np.abs(beta).sum())

    prev_obj = objective_fast()
    sweeps = 0
    converged = False
    while sweeps < config.max_sweeps:
        sweeps += 1
        max_delta = 0.0
        if use_gram:
            for j in range(p):
                a = diag[j]
                if a <= 0.0:
                    continue
                old = beta[j]
                rho = corr[j] + a * old
                new = _soft(rho, lam) / a
                d = new - old
                if d != 0.0:
                    corr -= gram[:, j] * d
                    beta[j] = new
                    ad = abs(d)
                    if ad > max_delta:
                        max_delta = ad
            if sweeps % _REFRESH_SWEEPS == 0:
                corr = xty - gram @ beta
        else:
            for j in range(p):
                a = diag[j]
                if a <= 0.0:
                    continue
                old = beta[j]
                col = xf[:, j]
                rho = float(col @ resid) / n + a * old
                new = _soft(rho, lam) / a
                d = new - old
                if d != 0.0:
                    resid -= col * d
                    beta[j] = new
                    ad = abs(d)
                    if ad > max_delta:
                        max_delta = ad
            if sweeps % _REFRESH_SWEEPS == 0:
                resid = Y - X @ beta
        obj = objective_fast()
        slack = 1e-10 * (1.0 + abs(prev_obj))
        if obj > prev_obj + slack:
            raise SparsemixError(
                f"objective rose from {prev_obj!r} to {obj!r} on sweep {sweeps}"
            )
        prev_obj = obj
        if max_delta < tol:
            converged = True
            break

    final_resid = Y - X @ beta
    objective = 0.5 * float(final_resid @ final_resid) / n + lam * float(
        np.abs(beta).sum()
    )
    return LassoSolution(
        beta=beta, objective=objective, sweeps=sweeps, converged=converged
    )


def lambda_schedule(
    sigma_avg_sq: float, *, p: int, s: int, n: int, rho: float
) -> float:
    """Penalty level lam = (sigma_avg_sq ln(p-s) / ((1 + s/rho^2) n))^(1/4).

    Decays with n slowly enough to suppress noise yet fast enough to
    leave the smallest coefficient visible. Requires p - s >= 2 so the
    logarithm is positive.
    """
    if p - s < 2:
        raise ValueError("schedule requires p - s >= 2")
    if s < 1 or n < 1:
        raise ValueError("s and n must be positive")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if sigma_avg_sq <= 0.0:
        raise ValueError("sigma_avg_sq must be positive")
    return (sigma_avg_sq * math.log(p - s) / ((1.0 + s / rho**2) * n)) ** 0.25


def noise_scaling_ok(
    sigma_avg_sq: float,
    *,
    p: int,
    s: int,
    n: int,
    rho: float,
    margin: float = 0.1,
) -> NoiseScaling:
    """Whether the noise level is small enough for the schedule to work.

    Computes ratio = sigma_avg_sq (1 + s/rho^2) ln(p-s) / n and accepts
    when it is at most margin. The ratio is the square of the schedule's
    lam over the crude scale rho-independent planning uses, so values
    near 1 mean the penalty would drown the smallest coefficients.
    """
    if p - s < 2:
        raise ValueError("requires p - s >= 2")
    if s < 1 or n < 1:
        raise ValueError("s and n must be positive")
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if sigma_avg_sq < 0.0:
        raise ValueError("sigma_avg_sq must be nonnegative")
    if margin <= 0.0:
        raise ValueError("margin must be positive")
    ratio = sigma_avg_sq * (1.0 + s / rho**2) * math.log(p - s) / n
    return NoiseScaling(ok=ratio <= margin, ratio=ratio)


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
    *,
    strict_margin: float = 1e-9,
    eq_tol: float = 1e-9,
) -> KktWitnessReport:
    """Primal-dual certificate for signed-support recovery at penalty lam.

    With Z = Y - X beta_true, b the true sign vector, and G the support
    Gram matrix X_S^T X_S / n:

        U_i = e_i^T G^{-1} (X_S^T Z / n - lam b)       (support shifts)
        V_j = X_j^T (X_S (X_S^T X_S)^{-1} lam b + (I - P) Z / n)

    where P projects onto the support columns. The Lasso recovers the
    signed support iff |U_i| < |beta_i| on the support and |V_j| <= lam
    off it. Factorization is by SVD; a support Gram condition number
    above 1e12 raises DegenerateInstanceError rather than certifying
    anything.
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
    off = [j for j in range(p) if j not in set(support)]
    v_vec = X[:, off].T @ w if off else np.empty(0)

    slack = np.abs(beta_s) - np.abs(u_vec)
    margin = lam - np.abs(v_vec)
    condition1 = bool(slack.min() > strict_margin) if s else True
    condition2 = bool(margin.min() >= -eq_tol) if off else True
    near = False
    if s and np.abs(slack).min() < 10.0 * strict_margin:
        near = True
    if off and np.abs(margin).min() < 10.0 * eq_tol:
        near = True
    return KktWitnessReport(
        on_support_slack=slack,
        off_support_margin=margin,
        condition1=condition1,
        condition2=condition2,
        recovery=condition1 and condition2,
        boundary=near,
        gram_condition=gram_condition,
    )
