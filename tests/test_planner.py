"""Tests for thresholds, sufficiency checks, and price-of-quality numbers.

Frozen constants below were computed independently with direct
arithmetic on the defining formulas (natural logarithms throughout);
each constant's derivation is noted inline.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np
import pytest

from sparsemix import (
    FrontierPoint,
    Growth,
    RegimeSpec,
    Setting,
    ThresholdKind,
    binary_entropy,
    check_sufficient,
    pair_coefficients,
    price_of_quality,
    recovery_threshold,
    sample_frontier,
)

SUBLINEAR_100_8 = RegimeSpec(growth=Growth.SUBLINEAR, p=100, s=8)


class PoqRegime(str, enum.Enum):
    """Asymptotic regimes for which a closed-form price of quality exists."""

    HIGH_SNR2 = "HighSNR2"
    LOW_SNR2 = "LowSNR2"
    HIGH_SNR = "HighSNR"
    LOW_SNR = "LowSNR"
    LOW_SNR2_HIGH_SNR1 = "LowSnr2HighSnr1"


@dataclass(frozen=True)
class PoqAsymptote:
    """A limiting price of quality; order_only marks values exact only up
    to constant factors."""

    value: float
    order_only: bool = False


def poq_asymptotic(setting, regime, sigma1_sq, sigma2_sq, s):
    """Oracle: the closed-form limit of price_of_quality in a named regime.

    Agnostic limits exist for HighSNR2 (value 1: quality stops mattering)
    and LowSNR2 (2 - sigma1_sq/sigma2_sq: one clean sample never replaces
    more than two noisy ones). Informed limits exist for LowSNR (the
    variance ratio), HighSNR (a log ratio, needing sigma2_sq < s), and the
    mixed LowSnr2HighSnr1 regime, where only the order of growth is pinned
    down, so order_only is set. Other combinations have no established
    limit and are rejected.
    """
    if setting is Setting.AGNOSTIC:
        if regime is PoqRegime.HIGH_SNR2:
            return PoqAsymptote(1.0)
        if regime is PoqRegime.LOW_SNR2:
            return PoqAsymptote(2.0 - sigma1_sq / sigma2_sq)
    else:
        if regime is PoqRegime.LOW_SNR:
            return PoqAsymptote(sigma2_sq / sigma1_sq)
        if regime is PoqRegime.HIGH_SNR:
            if sigma2_sq >= s:
                raise ValueError("informed high-SNR limit requires sigma2_sq < s")
            return PoqAsymptote(math.log(s / sigma1_sq) / math.log(s / sigma2_sq))
        if regime is PoqRegime.LOW_SNR2_HIGH_SNR1:
            if sigma1_sq >= s:
                raise ValueError("mixed-regime limit requires sigma1_sq < s")
            return PoqAsymptote(math.log(s / sigma1_sq) / (s / sigma2_sq), order_only=True)
    raise ValueError(f"no {setting.value} asymptote available for {regime.value}")


def test_binary_entropy_values():
    # h(x) = -x ln x - (1-x) ln(1-x); h(0.25) = 0.25 ln 4 + 0.75 ln(4/3)
    assert math.isclose(binary_entropy(0.25), 0.5623351446188083, rel_tol=1e-12)
    assert math.isclose(binary_entropy(0.5), math.log(2.0), rel_tol=1e-15)
    for x in (0.05, 0.2, 0.37):
        assert math.isclose(binary_entropy(x), binary_entropy(1.0 - x), rel_tol=1e-12)
        assert binary_entropy(x) < binary_entropy(0.5)


def test_binary_entropy_boundaries():
    with pytest.raises(ValueError):
        binary_entropy(0.0)
    with pytest.raises(ValueError):
        binary_entropy(1.0)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_regime_spec_validation():
    RegimeSpec(growth=Growth.LINEAR, p=100, s=50, alpha=0.5)
    with pytest.raises(ValueError):
        RegimeSpec(growth=Growth.LINEAR, p=100, s=50)
    with pytest.raises(ValueError):
        RegimeSpec(growth=Growth.LINEAR, p=100, s=80, alpha=0.5)
    with pytest.raises(ValueError):
        RegimeSpec(growth=Growth.SUBLINEAR, p=8, s=8)
    with pytest.raises(ValueError):
        RegimeSpec(growth=Growth.SUBLINEAR, p=8, s=0)


def test_regime_spec_refuses_fractional_dimension_and_sparsity():
    # a fractional p or s is refused, not carried into the thresholds
    with pytest.raises(ValueError, match="p must be an integer"):
        RegimeSpec(growth=Growth.SUBLINEAR, p=24.5, s=4.5)
    with pytest.raises(ValueError, match="s must be an integer"):
        RegimeSpec(growth=Growth.SUBLINEAR, p=24, s=4.5)
    spec = RegimeSpec(growth=Growth.SUBLINEAR, p=np.int64(24), s=np.int64(4))
    assert type(spec.p) is int and type(spec.s) is int


def test_recovery_thresholds_frozen_values():
    # 2 s ln(p/s) with p=100, s=8: 16 ln 12.5
    assert math.isclose(
        recovery_threshold(ThresholdKind.N_STAR, SUBLINEAR_100_8),
        40.41165830893209,
        rel_tol=1e-12,
    )
    # linear growth: 2 h(alpha) p with alpha=0.5, p=100
    lin = RegimeSpec(growth=Growth.LINEAR, p=100, s=50, alpha=0.5)
    assert math.isclose(
        recovery_threshold(ThresholdKind.N_STAR, lin),
        138.62943611198907,
        rel_tol=1e-12,
    )
    # 2 s ln(p/s)/ln s with p=1000, s=10: 20 ln(100)/ln(10) = 40
    inf10 = RegimeSpec(growth=Growth.SUBLINEAR, p=1000, s=10)
    assert math.isclose(
        recovery_threshold(ThresholdKind.N_INF, inf10), 40.0, rel_tol=1e-12
    )
    # 2 s ln(p-s) + s + 1 with p=200, s=5: 10 ln 195 + 6
    alg = RegimeSpec(growth=Growth.SUBLINEAR, p=200, s=5)
    assert math.isclose(
        recovery_threshold(ThresholdKind.N_ALG, alg),
        58.72999558563747,
        rel_tol=1e-12,
    )


def test_n_inf_needs_s_at_least_two():
    spec = RegimeSpec(growth=Growth.SUBLINEAR, p=50, s=1)
    with pytest.raises(ValueError):
        recovery_threshold(ThresholdKind.N_INF, spec)
    assert recovery_threshold(ThresholdKind.N_STAR, spec) > 0.0


def test_pair_coefficients_frozen_values():
    # sigma1сq=1, sigma2sq=4, s=8, delta=0.5, so delta*s = 4:
    # agnostic alpha1 = ln(1 + 4*(8-1)/(2*16)) = ln 1.875
    # alpha2 = ln(1 + 4/8) = ln 1.5
    a1, a2 = pair_coefficients(Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5)
    assert math.isclose(a1, 0.6286086594223741, rel_tol=1e-12)
    assert math.isclose(a2, 0.4054651081081644, rel_tol=1e-12)
    # informed alpha1 = ln(1 + 4/2) = ln 3
    i1, i2 = pair_coefficients(Setting.INFORMED, 1.0, 4.0, 8, 0.5)
    assert math.isclose(i1, 1.0986122886681096, rel_tol=1e-12)
    assert math.isclose(i2, a2, rel_tol=1e-15)


def test_pair_coefficients_validates_sparsity_and_delta():
    # alpha1 and alpha2 are only defined for s >= 1 and a budget in (0, 1);
    # price_of_quality relies on this check
    for s, delta in ((0, 0.5), (8, 3.0), (8, -0.5), (8, 0.0), (8, 1.0), (8, math.nan)):
        for setting in Setting:
            with pytest.raises(ValueError):
                pair_coefficients(setting, 1.0, 2.0, s, delta)
            with pytest.raises(ValueError):
                price_of_quality(setting, 1.0, 2.0, s, delta)


def test_pair_coefficients_refuse_a_coefficient_that_rounds_to_zero():
    # delta * s / (2 * sigma2_sq) underflows: the noisy block carries no
    # information the planner can use, and the frontier would divide by 0
    for setting in Setting:
        with pytest.raises(ValueError, match="rounds to 0"):
            pair_coefficients(setting, 1.0, 1e10, 4, 1e-320)
        with pytest.raises(ValueError, match="rounds to 0"):
            price_of_quality(setting, 1.0, 1e10, 4, 1e-320)
        with pytest.raises(ValueError, match="rounds to 0"):
            sample_frontier(setting, 1.0, 1e10, 8, 1e-320, 0.0, SUBLINEAR_100_8, [0])


@pytest.mark.parametrize(
    "s1, s2", [(1.0, math.inf), (math.inf, math.inf), (math.nan, 2.0), (1.0, math.nan)]
)
def test_planning_refuses_non_finite_variances(s1, s2):
    # an infinite noisy block makes alpha2 zero, which the price of quality
    # and the frontier divide by; NaN slips through every ordering test
    for setting in Setting:
        with pytest.raises(ValueError, match="finite"):
            pair_coefficients(setting, s1, s2, 8, 0.5)
        with pytest.raises(ValueError, match="finite"):
            check_sufficient(setting, 0, 0, s1, s2, 8, 0.5, 0.0, SUBLINEAR_100_8)
        with pytest.raises(ValueError, match="finite"):
            sample_frontier(setting, s1, s2, 8, 0.5, 0.0, SUBLINEAR_100_8, [0, 10])


def test_planning_refuses_a_non_finite_epsilon():
    for epsilon in (math.inf, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            sample_frontier(
                Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5, epsilon, SUBLINEAR_100_8, [0]
            )


def test_informed_coefficients_dominate_agnostic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        s2 = float(rng.uniform(0.2, 10.0))
        s1 = float(rng.uniform(0.05, 1.0)) * s2
        s = int(rng.integers(1, 60))
        delta = float(rng.uniform(0.01, 1.0))
        a1, a2 = pair_coefficients(Setting.AGNOSTIC, s1, s2, s, delta)
        i1, i2 = pair_coefficients(Setting.INFORMED, s1, s2, s, delta)
        assert a1 > 0.0 and a2 > 0.0
        assert i1 >= a1 - 1e-15
        assert math.isclose(i2, a2, rel_tol=1e-15)
        assert a1 >= a2 - 1e-15


def test_check_sufficient_matches_manual_arithmetic():
    chk = check_sufficient(
        Setting.AGNOSTIC, 40, 40, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8
    )
    a1, a2 = pair_coefficients(Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5)
    assert math.isclose(chk.alpha1, a1, rel_tol=1e-15)
    assert math.isclose(chk.alpha2, a2, rel_tol=1e-15)
    assert math.isclose(chk.lhs, 40 * a1 + 40 * a2, rel_tol=1e-12)
    assert math.isclose(chk.n_star, 40.41165830893209, rel_tol=1e-12)
    assert chk.holds == (chk.lhs >= (1.0 + chk.epsilon) * chk.n_star)
    assert chk.holds
    tight = check_sufficient(
        Setting.AGNOSTIC, 30, 40, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8
    )
    assert not tight.holds


def test_check_sufficient_refuses_fractional_block_sizes():
    # a fractional block size is refused, not checked and reported as given
    for n1, n2 in ((2.5, 3.5), (2, 3.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            check_sufficient(
                Setting.AGNOSTIC, n1, n2, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8
            )
    n1, n2 = np.int64(2), np.int64(3)
    chk = check_sufficient(
        Setting.AGNOSTIC, n1, n2, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8
    )
    assert (chk.n1, chk.n2) == (2, 3)


def test_check_sufficient_epsilon_raises_the_bar():
    base = check_sufficient(
        Setting.AGNOSTIC, 0, 100, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8
    )
    strict = check_sufficient(
        Setting.AGNOSTIC, 0, 100, 1.0, 4.0, 8, 0.5, 0.5, SUBLINEAR_100_8
    )
    assert base.holds
    assert not strict.holds


def test_sparsity_must_match_the_regime():
    with pytest.raises(ValueError, match="disagrees"):
        check_sufficient(
            Setting.AGNOSTIC, 40, 40, 1.0, 4.0, 7, 0.5, 0.0, SUBLINEAR_100_8
        )
    with pytest.raises(ValueError, match="disagrees"):
        sample_frontier(Setting.AGNOSTIC, 1.0, 4.0, 4, 0.5, 0.0, SUBLINEAR_100_8, [0])


def test_homogeneous_high_noise_budget_implies_mixed_budget():
    # replacing sigma2sq rows by cleaner sigma1sq rows never hurts, so a
    # budget sufficient with every row at sigma2sq stays sufficient mixed
    rng = np.random.default_rng(13)
    for _ in range(100):
        n1 = int(rng.integers(0, 60))
        n2 = int(rng.integers(0, 60))
        if n1 + n2 == 0:
            continue
        s2 = float(rng.uniform(0.5, 8.0))
        s1 = float(rng.uniform(0.1, 1.0)) * s2
        for setting in (Setting.AGNOSTIC, Setting.INFORMED):
            hom = check_sufficient(
                setting, 0, n1 + n2, s2, s2, 8, 0.5, 0.25, SUBLINEAR_100_8
            )
            if hom.holds:
                mixed = check_sufficient(
                    setting, n1, n2, s1, s2, 8, 0.5, 0.25, SUBLINEAR_100_8
                )
                assert mixed.holds


def test_price_of_quality_frozen_values():
    # agnostic: ln(1.875)/ln(1.5) at sigma=(1,4), delta*s=4
    g_ag = price_of_quality(Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5)
    assert math.isclose(g_ag, 1.5503397132132084, rel_tol=1e-12)
    # informed: ln(3)/ln(1.5)
    g_inf = price_of_quality(Setting.INFORMED, 1.0, 4.0, 8, 0.5)
    assert math.isclose(g_inf, 2.7095112913514545, rel_tol=1e-12)
    assert g_inf >= g_ag


def test_price_of_quality_grid_invariants():
    fracs = np.linspace(0.1, 1.0, 7)
    for s2 in (0.2, 1.0, 4.0, 10.0):
        for frac in fracs:
            s1 = float(frac * s2)
            for ds in (0.5, 4.0, 50.0):
                delta = ds / 100.0
                g_ag = price_of_quality(Setting.AGNOSTIC, s1, s2, 100, delta)
                g_inf = price_of_quality(Setting.INFORMED, s1, s2, 100, delta)
                assert g_ag >= 1.0 - 1e-12
                assert g_ag <= 2.0 - s1 / s2 + 1e-12
                assert g_inf >= g_ag - 1e-12
                if frac == 1.0:
                    assert abs(g_ag - 1.0) <= 1e-12
                    assert abs(g_inf - 1.0) <= 1e-12


def test_poq_asymptotic_values():
    # informed, high snr: ln(s/sigma1sq)/ln(s/sigma2sq) at s=100, (1,2)
    hi = poq_asymptotic(Setting.INFORMED, PoqRegime.HIGH_SNR, 1.0, 2.0, 100)
    assert not hi.order_only
    assert math.isclose(hi.value, 1.177183820135558, rel_tol=1e-12)
    # informed, low snr: sigma2sq/sigma1sq
    lo = poq_asymptotic(Setting.INFORMED, PoqRegime.LOW_SNR, 1.0, 4.0, 100)
    assert math.isclose(lo.value, 4.0, rel_tol=1e-12)
    assert not lo.order_only
    # informed, split regime: only the order of growth is meaningful
    split = poq_asymptotic(
        Setting.INFORMED, PoqRegime.LOW_SNR2_HIGH_SNR1, 1.0, 400.0, 100
    )
    assert split.order_only
    assert math.isclose(split.value, math.log(100.0) / 0.25, rel_tol=1e-12)
    # agnostic, high snr2 tends to one
    ag_hi = poq_asymptotic(Setting.AGNOSTIC, PoqRegime.HIGH_SNR2, 1.0, 2.0, 100)
    assert math.isclose(ag_hi.value, 1.0, rel_tol=1e-15)
    # agnostic, low snr2: 2 - sigma1sq/sigma2sq
    ag_lo = poq_asymptotic(Setting.AGNOSTIC, PoqRegime.LOW_SNR2, 1.0, 4.0, 100)
    assert math.isclose(ag_lo.value, 1.75, rel_tol=1e-12)


def test_poq_asymptotic_rejects_undefined_combinations():
    with pytest.raises(ValueError):
        poq_asymptotic(Setting.AGNOSTIC, PoqRegime.HIGH_SNR, 1.0, 2.0, 100)
    with pytest.raises(ValueError):
        poq_asymptotic(Setting.INFORMED, PoqRegime.HIGH_SNR2, 1.0, 2.0, 100)
    # informed high snr needs s above sigma2sq for a positive denominator
    with pytest.raises(ValueError):
        poq_asymptotic(Setting.INFORMED, PoqRegime.HIGH_SNR, 1.0, 200.0, 100)


def test_poq_limits_approach_asymptotes():
    # large snr2 drives the agnostic ratio toward one
    g = price_of_quality(Setting.AGNOSTIC, 1.0, 2.0, 10**8, 0.5)
    one = poq_asymptotic(Setting.AGNOSTIC, PoqRegime.HIGH_SNR2, 1.0, 2.0, 10**8)
    assert abs(g - one.value) < 0.05
    # small delta*s drives it toward 2 - sigma1sq/sigma2sq
    g_lo = price_of_quality(Setting.AGNOSTIC, 1.0, 4.0, 1, 1e-8)
    cap = poq_asymptotic(Setting.AGNOSTIC, PoqRegime.LOW_SNR2, 1.0, 4.0, 1)
    assert abs(g_lo - cap.value) < 1e-6
    # small delta*s drives the informed ratio toward sigma2sq/sigma1sq
    g_inf = price_of_quality(Setting.INFORMED, 1.0, 4.0, 1, 1e-8)
    ratio = poq_asymptotic(Setting.INFORMED, PoqRegime.LOW_SNR, 1.0, 4.0, 1)
    assert abs(g_inf - ratio.value) < 1e-6


def test_price_of_quality_at_a_huge_noisy_variance():
    # delta * s / (2 sigma2_sq) is near 1e-201: squaring sigma2_sq would
    # overflow, and losing the noisy block's theta^2 term to underflow
    # would put the ratio at 1 instead of near its cap of 2
    g = price_of_quality(Setting.AGNOSTIC, 1.0, 1e200, 4, 0.1)
    cap = poq_asymptotic(Setting.AGNOSTIC, PoqRegime.LOW_SNR2, 1.0, 1e200, 4)
    assert 1.0 <= g <= cap.value
    assert g > 1.5


def test_sample_frontier_frozen_example():
    spec = RegimeSpec(growth=Growth.SUBLINEAR, p=100, s=8)
    pts = sample_frontier(Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5, 0.0, spec, [0])
    assert pts == [
        FrontierPoint(n1=0, n2=pts[0].n2, n2_continuous=pts[0].n2_continuous)
    ]
    assert pts[0].n2 == 100
    # continuous value is 16 ln(12.5) / ln(1.5)
    assert math.isclose(pts[0].n2_continuous, 99.6674128076925, rel_tol=1e-10)


def test_sample_frontier_refuses_fractional_budgets():
    # a fractional n1 budget is refused, not truncated to an int
    with pytest.raises(ValueError, match="n1 must be an integer"):
        sample_frontier(
            Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8, [2.5, 7.9]
        )
    pts = sample_frontier(
        Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5, 0.0, SUBLINEAR_100_8, np.arange(2)
    )
    assert [type(q.n1) for q in pts] == [int, int]


def test_sample_frontier_points_are_minimal_and_sufficient():
    spec = SUBLINEAR_100_8
    pts = sample_frontier(
        Setting.AGNOSTIC, 1.0, 4.0, 8, 0.5, 0.5, spec, list(range(0, 120, 10))
    )
    prev_n2 = None
    for pt in pts:
        chk = check_sufficient(
            Setting.AGNOSTIC, pt.n1, pt.n2, 1.0, 4.0, 8, 0.5, 0.5, spec
        )
        assert chk.holds
        if pt.n2 > 0:
            below = check_sufficient(
                Setting.AGNOSTIC, pt.n1, pt.n2 - 1, 1.0, 4.0, 8, 0.5, 0.5, spec
            )
            assert not below.holds
        if prev_n2 is not None:
            assert pt.n2 <= prev_n2
        prev_n2 = pt.n2
    assert pts[-1].n2 == 0


def unit_step_frontier(setting, s1, s2, s, delta, epsilon, spec, n1_grid):
    """Reference: ceil the crossing, then fix it up one step at a time."""
    target = (1.0 + epsilon) * check_sufficient(
        setting, 0, 0, s1, s2, s, delta, epsilon, spec
    ).n_star
    a1, a2 = pair_coefficients(setting, s1, s2, s, delta)
    out = []
    for n1 in n1_grid:
        n2 = max(0, math.ceil(max(0.0, (target - n1 * a1) / a2)))
        while n2 > 0 and n1 * a1 + (n2 - 1) * a2 >= target:
            n2 -= 1
        while n1 * a1 + n2 * a2 < target:
            n2 += 1
        out.append(n2)
    return out


def test_sample_frontier_equals_the_unit_step_search():
    # variance ratios up to 1e17 put n2 past 2**53 in about one point in
    # nine, where the ceiled crossing is off and the unit steps still end
    rng = np.random.default_rng(53)
    for _ in range(300):
        s = int(rng.integers(2, 12))
        spec = RegimeSpec(growth=Growth.SUBLINEAR, p=int(rng.integers(s + 2, 400)), s=s)
        s1 = float(10.0 ** rng.uniform(-4, 3))
        s2 = s1 * float(10.0 ** rng.uniform(0, 17))
        setting = Setting.AGNOSTIC if rng.random() < 0.5 else Setting.INFORMED
        args = (setting, s1, s2, s, float(rng.uniform(0.05, 0.95)),
                float(rng.uniform(0.0, 1.0)), spec, [0, 1, 5, 17, 100, 1000, 10**6])
        assert [pt.n2 for pt in sample_frontier(*args)] == unit_step_frontier(*args)


def test_sample_frontier_past_two_to_the_53():
    # a unit step no longer moves n2 * alpha2 at this size
    spec = RegimeSpec(growth=Growth.SUBLINEAR, p=24, s=4)
    (pt,) = sample_frontier(Setting.AGNOSTIC, 1.0, 1e30, 4, 0.5, 0.0, spec, [0])
    assert pt.n2 > 2**53
    args = (1.0, 1e30, 4, 0.5, 0.0, spec)
    assert check_sufficient(Setting.AGNOSTIC, 0, pt.n2, *args).holds
    assert not check_sufficient(Setting.AGNOSTIC, 0, pt.n2 - 1, *args).holds


def test_sample_frontier_equal_variances_has_unit_slope():
    spec = SUBLINEAR_100_8
    pts = sample_frontier(
        Setting.INFORMED, 2.0, 2.0, 8, 0.5, 0.0, spec, list(range(0, 30))
    )
    for a, b in zip(pts, pts[1:]):
        if b.n2_continuous > 0.0:
            assert math.isclose(
                a.n2_continuous - b.n2_continuous, 1.0, abs_tol=1e-9
            )


def test_trade_one_clean_sample_for_gamma_noisy_samples():
    # moving one unit of n1 into gamma units of n2 preserves the
    # continuous budget exactly, by definition of the exchange ratio
    rng = np.random.default_rng(29)
    spec = SUBLINEAR_100_8
    for _ in range(100):
        s2 = float(rng.uniform(0.5, 6.0))
        s1 = float(rng.uniform(0.1, 1.0)) * s2
        delta = float(rng.uniform(0.05, 0.9))
        setting = Setting.AGNOSTIC if rng.random() < 0.5 else Setting.INFORMED
        a1, a2 = pair_coefficients(setting, s1, s2, 8, delta)
        gamma = price_of_quality(setting, s1, s2, 8, delta)
        n1 = int(rng.integers(1, 80))
        n2 = int(rng.integers(0, 80))
        lhs = n1 * a1 + n2 * a2
        traded = (n1 - 1) * a1 + (n2 + gamma) * a2
        assert math.isclose(traded, lhs, rel_tol=1e-12, abs_tol=1e-9)
