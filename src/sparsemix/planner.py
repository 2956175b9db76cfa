"""Sample-size planning for sparse recovery with two noise qualities.

All logarithms are natural. The central quantity is the homogeneous
unit-variance sample requirement n_star; a mixed-quality design satisfies
the sufficient condition when its quality-weighted information sum

    n1 * alpha1 + n2 * alpha2  >=  (1 + epsilon) * n_star

holds, where the per-sample coefficients alpha1 >= alpha2 depend on the
setting (agnostic or informed), the error budget delta, the sparsity,
and the block variances. The ratio alpha1 / alpha2 is the price of
quality: how many low-quality samples one high-quality sample is worth.

The condition is the Chernoff misranking bound at its relaxed point, so
both rest on one per-row exponent argument, exponent_arg, which lives
here: alpha_b = ln(1 - 2 g_b) at m = 2 delta s, and chernoff raises
each row's (1 - 2 g_b)^(-1/2) factor from the same g_b.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import COUNT_MAX, as_index, as_real, index_fields
from .model import Setting, validate_variances

__all__ = [
    "Growth",
    "ThresholdKind",
    "RegimeSpec",
    "SufficiencyCheck",
    "FrontierPoint",
    "DEFAULT_DELTA",
    "DEFAULT_EPSILON",
    "binary_entropy",
    "recovery_threshold",
    "validate_delta",
    "exponent_arg",
    "relaxed_theta",
    "pair_coefficients",
    "check_sufficient",
    "price_of_quality",
    "sample_frontier",
]

# Defaults used by the CLI and the experiment harness when unspecified.
DEFAULT_DELTA = 0.1
DEFAULT_EPSILON = 0.5
_BUDGET_MAX = int(sys.float_info.max)  # float-only sample budgets can pass COUNT_MAX


class Growth(str, enum.Enum):
    """How sparsity scales with dimension."""

    SUBLINEAR = "Sublinear"
    LINEAR = "Linear"


class ThresholdKind(str, enum.Enum):
    N_STAR = "NStar"  # homogeneous unit-variance requirement
    N_INF = "NInf"  # information-theoretic necessity scale
    N_ALG = "NAlg"  # l1-relaxation (Lasso) threshold


@dataclass(frozen=True)
class RegimeSpec:
    """Problem shape: dimension, sparsity, and how they scale together.

    Linear growth means s tracks alpha * p (within rounding); alpha is
    only meaningful and only allowed in that case.
    """

    growth: Growth
    p: int
    s: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        index_fields(self, "p", low=2, high=COUNT_MAX)
        index_fields(self, "s")
        if not 1 <= self.s < self.p:
            raise ValueError("sparsity must satisfy 1 <= s < p")
        if self.growth is Growth.LINEAR:
            if self.alpha is None:
                raise ValueError("linear growth requires alpha")
            if not 0.0 < self.alpha < 1.0:
                raise ValueError("alpha must lie in (0, 1)")
            if abs(self.s - self.alpha * self.p) > 0.5:
                raise ValueError("s and alpha * p disagree by more than rounding")
        elif self.alpha is not None:
            raise ValueError("alpha is only meaningful for linear growth")


@dataclass(frozen=True)
class SufficiencyCheck:
    """Outcome of the sufficient-condition test at one (n1, n2) design:
    holds says whether lhs = n1*alpha1 + n2*alpha2 reaches (1+epsilon)*n_star."""

    setting: Setting
    n1: int
    n2: int
    alpha1: float
    alpha2: float
    lhs: float
    n_star: float
    delta: float
    epsilon: float
    holds: bool


@dataclass(frozen=True)
class FrontierPoint:
    """Minimal low-quality complement for a given high-quality budget."""

    n1: int
    n2: int
    n2_continuous: float


def binary_entropy(x: float) -> float:
    """Natural-log binary entropy -x ln x - (1-x) ln(1-x) on the open (0, 1).

    The endpoints 0 and 1 are limits, not interior values, and raise.
    """
    if not 0.0 < x < 1.0:
        raise ValueError("entropy argument must lie in (0, 1)")
    return -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)


def recovery_threshold(kind: ThresholdKind, regime: RegimeSpec) -> float:
    """Evaluate one of the three sample-size scales for a problem shape.

    NStar is the homogeneous unit-variance requirement (2 s ln(p/s)
    sublinear, 2 h(alpha) p linear). NInf rescales it by ln s and needs
    s >= 2. NAlg = 2 s ln(p - s) + s + 1 marks the l1-relaxation
    transition.
    """
    p, s = regime.p, regime.s
    if kind is ThresholdKind.N_STAR:
        if regime.growth is Growth.LINEAR:
            return 2.0 * binary_entropy(regime.alpha) * p
        return 2.0 * s * math.log(p / s)
    if kind is ThresholdKind.N_INF:
        as_index(s, "s", low=2)  # the necessity scale divides by ln s
        return 2.0 * s * math.log(p / s) / math.log(s)
    if kind is ThresholdKind.N_ALG:
        return 2.0 * s * math.log(p - s) + s + 1.0
    raise ValueError(f"unknown threshold kind: {kind!r}")


def _n_star(s: int, epsilon: float, regime: RegimeSpec) -> float:
    """Check epsilon and that s is regime.s; return the query's n_star."""
    as_real(epsilon, "epsilon")
    if s != regime.s:
        raise ValueError(f"sparsity {s} disagrees with the regime's s = {regime.s}")
    return recovery_threshold(ThresholdKind.N_STAR, regime)


def validate_delta(delta: float) -> None:
    """Refuse an error budget outside (0, 1), NaN included."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")


def exponent_arg(setting: Setting, theta: float, m: float, v: float) -> float:
    """Per-row exponent argument g(theta) of a block at variance v, overlap m.

    A row's MGF factor is (1 - 2 g)^(-1/2), finite while g < 1/2:
        agnostic  g = m (2 v theta^2 - theta)
        informed  g = m theta (2 theta - 1) / v
    The products run left to right, so neither theta nor v is squared on
    its own: v = 1e200 at theta = 1/(4 v) neither overflows nor loses its
    theta^2 term to underflow.
    """
    if setting is Setting.AGNOSTIC:
        return m * (2.0 * v * theta * theta - theta)
    if setting is Setting.INFORMED:
        return m * theta * (2.0 * theta - 1.0) / v
    raise ValueError(f"unknown setting: {setting!r}")


def relaxed_theta(setting: Setting, sigma2_sq: float) -> float:
    """The relaxed evaluation point: 1/(4 sigma2_sq) agnostic, exactly 1/4 informed."""
    if not isinstance(setting, Setting):
        raise ValueError(f"unknown setting: {setting!r}")
    return 1.0 / (4.0 * sigma2_sq) if setting is Setting.AGNOSTIC else 0.25


def pair_coefficients(
    setting: Setting, sigma1_sq: float, sigma2_sq: float, s: int, delta: float
) -> tuple[float, float]:
    """Per-sample information coefficients (alpha1, alpha2) for each block.

    alpha_b = ln(1 - 2 g_b) with g_b = exponent_arg at m = 2 delta s and
    the relaxed point theta0 = relaxed_theta(setting, sigma2_sq):
        agnostic  alpha1 = ln(1 + delta s (2 sigma2_sq - sigma1_sq) / (2 sigma2_sq^2)),
                  alpha2 = ln(1 + delta s / (2 sigma2_sq))
        informed  alpha_b = ln(1 + delta s / (2 sigma_b_sq))

    In both settings alpha1 >= alpha2 whenever sigma1_sq <= sigma2_sq.
    Requires s >= 1, delta in (0, 1) and finite 0 < sigma1_sq <= sigma2_sq.
    A coefficient that rounds to 0 (delta * s tiny against a variance) is
    refused: that block would need infinitely many samples. So is one
    that is not finite (a variance so small that theta0 or the exponent
    argument leaves the float range).
    """
    s = as_index(s, "s", low=1, high=COUNT_MAX)
    validate_delta(delta)
    as_real(sigma1_sq, "sigma1_sq", positive=True)  # sigma1_sq <= sigma2_sq
    validate_variances(sigma1_sq, sigma2_sq)
    m = 2.0 * delta * s
    theta = relaxed_theta(setting, sigma2_sq)
    a1 = math.log1p(-2.0 * exponent_arg(setting, theta, m, sigma1_sq))
    a2 = math.log1p(-2.0 * exponent_arg(setting, theta, m, sigma2_sq))
    if a1 == 0.0 or a2 == 0.0:
        raise ValueError(
            "an information coefficient rounds to 0: delta * s is too small "
            "against the block variances"
        )
    if not (math.isfinite(a1) and math.isfinite(a2)):
        raise ValueError(
            "an information coefficient is not finite: a block variance is "
            "too small for the float range"
        )
    return a1, a2


def check_sufficient(
    setting: Setting,
    n1: int,
    n2: int,
    sigma1_sq: float,
    sigma2_sq: float,
    s: int,
    delta: float,
    epsilon: float,
    regime: RegimeSpec,
) -> SufficiencyCheck:
    """Test whether n1 clean and n2 noisy samples meet the sufficient condition.

    The condition is n1 * alpha1 + n2 * alpha2 >= (1 + epsilon) * n_star,
    with (alpha1, alpha2) from pair_coefficients and n_star the regime's
    homogeneous requirement. s must equal regime.s.
    """
    n_star = _n_star(s, epsilon, regime)
    target = (1.0 + epsilon) * n_star
    n1 = as_index(n1, "n1", low=0, high=_BUDGET_MAX)
    n2 = as_index(n2, "n2", low=0, high=_BUDGET_MAX)
    a1, a2 = pair_coefficients(setting, sigma1_sq, sigma2_sq, s, delta)
    lhs = n1 * a1 + n2 * a2
    return SufficiencyCheck(
        setting=setting,
        n1=n1,
        n2=n2,
        alpha1=a1,
        alpha2=a2,
        lhs=lhs,
        n_star=n_star,
        delta=delta,
        epsilon=epsilon,
        holds=lhs >= target,
    )


def price_of_quality(
    setting: Setting, sigma1_sq: float, sigma2_sq: float, s: int, delta: float
) -> float:
    """How many low-quality samples one high-quality sample replaces.

    Equals alpha1 / alpha2, hence always >= 1; it is 1 exactly when the
    blocks share a variance.
    """
    a1, a2 = pair_coefficients(setting, sigma1_sq, sigma2_sq, s, delta)
    return a1 / a2


def sample_frontier(
    setting: Setting,
    sigma1_sq: float,
    sigma2_sq: float,
    s: int,
    delta: float,
    epsilon: float,
    regime: RegimeSpec,
    n1_grid: Sequence[int],
) -> list[FrontierPoint]:
    """Minimal n2 completing each n1 so the sufficient condition holds.

    Each point carries both the integer n2 (the smallest count whose
    check passes) and the continuous crossing value it was ceiled from.
    Along an increasing n1 grid the n2 values are nonincreasing. s must
    equal regime.s.
    """
    target = (1.0 + epsilon) * _n_star(s, epsilon, regime)
    a1, a2 = pair_coefficients(setting, sigma1_sq, sigma2_sq, s, delta)
    points = []
    for n1 in n1_grid:
        n1 = as_index(n1, "n1", low=0, high=_BUDGET_MAX)
        shortfall = target - n1 * a1
        n2_cont = max(0.0, shortfall / a2)

        def passes(n2: int) -> bool:  # the arithmetic check_sufficient applies
            return n1 * a1 + n2 * a2 >= target

        # Ceiling in floats can land off the least passing n2, and past
        # about 2**53 a unit step no longer moves n2 * a2. The check is
        # monotone in n2, so double from the ceiling until it passes, then
        # bisect between a failing lo (-1 while none is known) and hi.
        lo, hi = -1, max(1, math.ceil(n2_cont))
        while not passes(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if passes(mid) else (mid, hi)
        points.append(FrontierPoint(n1=n1, n2=hi, n2_continuous=n2_cont))
    return points
