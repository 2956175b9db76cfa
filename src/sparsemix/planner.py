"""Sample-size planning for sparse recovery with two noise qualities.

All logarithms are natural. The central quantity is the homogeneous
unit-variance sample requirement n_star; a mixed-quality design satisfies
the sufficient condition when its quality-weighted information sum

    n1 * alpha1 + n2 * alpha2  >=  (1 + epsilon) * n_star

holds, where the per-sample coefficients alpha1 >= alpha2 depend on the
setting (agnostic or informed), the error budget delta, the sparsity,
and the block variances. The ratio alpha1 / alpha2 is the price of
quality: how many low-quality samples one high-quality sample is worth.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .model import Setting

__all__ = [
    "Growth",
    "ThresholdKind",
    "PoqRegime",
    "RegimeSpec",
    "SufficiencyCheck",
    "PoqAsymptote",
    "FrontierPoint",
    "DEFAULT_DELTA",
    "DEFAULT_EPSILON",
    "binary_entropy",
    "recovery_threshold",
    "pair_coefficients",
    "check_sufficient",
    "price_of_quality",
    "poq_asymptotic",
    "sample_frontier",
]

# Defaults used by the CLI and the experiment harness when unspecified.
DEFAULT_DELTA = 0.1
DEFAULT_EPSILON = 0.5


class Growth(str, enum.Enum):
    """How sparsity scales with dimension."""

    SUBLINEAR = "Sublinear"
    LINEAR = "Linear"


class ThresholdKind(str, enum.Enum):
    N_STAR = "NStar"  # homogeneous unit-variance requirement
    N_INF = "NInf"  # information-theoretic necessity scale
    N_ALG = "NAlg"  # l1-relaxation (Lasso) threshold


class PoqRegime(str, enum.Enum):
    """Asymptotic regimes for which a closed-form price of quality exists."""

    HIGH_SNR2 = "HighSNR2"
    LOW_SNR2 = "LowSNR2"
    HIGH_SNR = "HighSNR"
    LOW_SNR = "LowSNR"
    LOW_SNR2_HIGH_SNR1 = "LowSnr2HighSnr1"


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
        if self.p < 2:
            raise ValueError("dimension p must be >= 2")
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
    """Outcome of the sufficient-condition test at one (n1, n2) design."""

    setting: Setting
    n1: int
    n2: int
    alpha1: float | None
    alpha2: float | None
    lhs: float
    n_star: float
    delta: float
    epsilon: float
    holds: bool
    per_sample_terms: tuple[float, ...] | None = None


@dataclass(frozen=True)
class PoqAsymptote:
    """A limiting price of quality; order_only marks values exact only up
    to constant factors."""

    value: float
    order_only: bool = False


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
        if s < 2:
            raise ValueError("the necessity scale requires s >= 2")
        return 2.0 * s * math.log(p / s) / math.log(s)
    if kind is ThresholdKind.N_ALG:
        return 2.0 * s * math.log(p - s) + s + 1.0
    raise ValueError(f"unknown threshold kind: {kind!r}")


def _validate_inputs(s: int, delta: float, epsilon: float) -> None:
    if s < 1:
        raise ValueError("sparsity must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if epsilon < 0.0:
        raise ValueError("epsilon must be nonnegative")


def _n_star(s: int, delta: float, epsilon: float, regime: RegimeSpec) -> float:
    """Validate a planning query and return its n_star; s must be regime.s."""
    _validate_inputs(s, delta, epsilon)
    if s != regime.s:
        raise ValueError(f"sparsity {s} disagrees with the regime's s = {regime.s}")
    return recovery_threshold(ThresholdKind.N_STAR, regime)


def _validate_variances(sigma1_sq: float, sigma2_sq: float) -> None:
    if sigma1_sq <= 0.0 or sigma2_sq <= 0.0:
        raise ValueError("variances must be positive")
    if sigma1_sq > sigma2_sq:
        raise ValueError("sigma1_sq must not exceed sigma2_sq")


def pair_coefficients(
    setting: Setting, sigma1_sq: float, sigma2_sq: float, s: int, delta: float
) -> tuple[float, float]:
    """Per-sample information coefficients (alpha1, alpha2) for each block.

    Agnostic:
        alpha1 = ln(1 + delta*(2*sigma2_sq - sigma1_sq)*s / (2*sigma2_sq**2))
        alpha2 = ln(1 + delta*s / (2*sigma2_sq))
    Informed:
        alpha_b = ln(1 + delta*s / (2*sigma_b_sq))

    In both settings alpha1 >= alpha2 whenever sigma1_sq <= sigma2_sq.
    """
    _validate_variances(sigma1_sq, sigma2_sq)
    if setting is Setting.AGNOSTIC:
        a1 = math.log1p(delta * (2.0 * sigma2_sq - sigma1_sq) * s / (2.0 * sigma2_sq**2))
        a2 = math.log1p(delta * s / (2.0 * sigma2_sq))
    elif setting is Setting.INFORMED:
        a1 = math.log1p(delta * s / (2.0 * sigma1_sq))
        a2 = math.log1p(delta * s / (2.0 * sigma2_sq))
    else:
        raise ValueError(f"unknown setting: {setting!r}")
    return a1, a2


def check_sufficient(
    setting: Setting,
    n1: int | None,
    n2: int | None,
    sigma1_sq: float | None,
    sigma2_sq: float | None,
    s: int,
    delta: float,
    epsilon: float,
    regime: RegimeSpec,
    sigma_sq_seq: Sequence[float] | None = None,
) -> SufficiencyCheck:
    """Test whether a sample allocation meets the sufficient condition.

    Two-block form: pass n1, n2 and the block variances. Heterogeneous
    form: pass sigma_sq_seq, one variance per sample, and leave the block
    arguments as None; per-sample terms are then reported individually
    and summed into lhs. A two-valued sequence reproduces the two-block
    result exactly. s must equal regime.s.
    """
    n_star = _n_star(s, delta, epsilon, regime)
    target = (1.0 + epsilon) * n_star

    if sigma_sq_seq is not None:
        if any(v is not None for v in (n1, n2, sigma1_sq, sigma2_sq)):
            raise ValueError("pass either block arguments or sigma_sq_seq, not both")
        seq = [float(v) for v in sigma_sq_seq]
        if not seq:
            raise ValueError("sigma_sq_seq must be nonempty")
        if any(v <= 0.0 for v in seq):
            raise ValueError("variances must be positive")
        # each sample's term is the clean-block coefficient against the noisiest
        vmax = max(seq)
        terms = tuple(pair_coefficients(setting, v, vmax, s, delta)[0] for v in seq)
        lhs = math.fsum(terms)
        return SufficiencyCheck(
            setting=setting,
            n1=0,
            n2=len(seq),
            alpha1=None,
            alpha2=None,
            lhs=lhs,
            n_star=n_star,
            delta=delta,
            epsilon=epsilon,
            holds=lhs >= target,
            per_sample_terms=terms,
        )

    if n1 is None or n2 is None or sigma1_sq is None or sigma2_sq is None:
        raise ValueError("two-block form requires n1, n2, sigma1_sq, sigma2_sq")
    if n1 < 0 or n2 < 0:
        raise ValueError("block sizes must be nonnegative")
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
    _validate_inputs(s, delta, 0.0)
    a1, a2 = pair_coefficients(setting, sigma1_sq, sigma2_sq, s, delta)
    return a1 / a2


def poq_asymptotic(
    setting: Setting,
    regime: PoqRegime,
    sigma1_sq: float,
    sigma2_sq: float,
    s: int,
) -> PoqAsymptote:
    """Closed-form limit of the price of quality in a named regime.

    Agnostic limits exist for HighSNR2 (value 1: quality stops mattering)
    and LowSNR2 (2 - sigma1_sq/sigma2_sq, never above 2). Informed limits
    exist for LowSNR (the variance ratio), HighSNR (a log ratio, needing
    sigma2_sq < s), and the mixed LowSnr2HighSnr1 regime, where only the
    order of growth is pinned down, so order_only is set. The agnostic
    mixed regime has no established limit and is rejected.
    """
    _validate_variances(sigma1_sq, sigma2_sq)
    if s < 1:
        raise ValueError("sparsity must be >= 1")
    if setting is Setting.AGNOSTIC:
        if regime is PoqRegime.HIGH_SNR2:
            return PoqAsymptote(1.0)
        if regime is PoqRegime.LOW_SNR2:
            return PoqAsymptote(2.0 - sigma1_sq / sigma2_sq)
        raise ValueError(f"no agnostic asymptote available for {regime.value}")
    if setting is Setting.INFORMED:
        if regime is PoqRegime.LOW_SNR:
            return PoqAsymptote(sigma2_sq / sigma1_sq)
        if regime is PoqRegime.HIGH_SNR:
            if sigma2_sq >= s:
                raise ValueError("informed high-SNR limit requires sigma2_sq < s")
            return PoqAsymptote(math.log(s / sigma1_sq) / math.log(s / sigma2_sq))
        if regime is PoqRegime.LOW_SNR2_HIGH_SNR1:
            if sigma1_sq >= s:
                raise ValueError("mixed-regime limit requires sigma1_sq < s")
            return PoqAsymptote(
                math.log(s / sigma1_sq) / (s / sigma2_sq), order_only=True
            )
        raise ValueError(f"no informed asymptote available for {regime.value}")
    raise ValueError(f"unknown setting: {setting!r}")


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
    target = (1.0 + epsilon) * _n_star(s, delta, epsilon, regime)
    a1, a2 = pair_coefficients(setting, sigma1_sq, sigma2_sq, s, delta)
    points = []
    for n1 in n1_grid:
        n1 = int(n1)
        if n1 < 0:
            raise ValueError("n1 values must be nonnegative")
        shortfall = target - n1 * a1
        n2_cont = max(0.0, shortfall / a2)
        n2 = max(0, math.ceil(n2_cont))
        # Ceiling in floats can land one step off the true minimum; fix
        # against the same arithmetic check_sufficient applies.
        while n2 > 0 and n1 * a1 + (n2 - 1) * a2 >= target:
            n2 -= 1
        while n1 * a1 + n2 * a2 < target:
            n2 += 1
        points.append(FrontierPoint(n1=n1, n2=n2, n2_continuous=n2_cont))
    return points
