"""Policy synthesis: targets, breakpoints, diagnostics.

A worked example (service rate 6, two users, exponent 2, keep
probability 0.9, effective target 3.9) pins the expected breakpoints;
everything else is cross-checked by independent numerics (finite
differences, grid scans, best-response runs).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mm1game import (
    DesignInfeasibleError,
    DesignSpec,
    GameConfig,
    LinearPolicy,
    NoDrop,
    PolicyDesign,
    RateProfile,
    WelfareKind,
    best_response,
    design_linear,
    designed_with_diagnostics,
    equilibrium_census,
    keep_probability,
    optimal_total_rate,
    poa_at_symmetric_rate,
    run_dynamics,
    step_policy,
    target_effective_rate,
    utility,
    validate_design,
    verify_equilibrium,
)
from mm1game.mechanism import _POA_MARGIN

CFG = GameConfig.uniform(6.0, 2.0, 2)
GOLDEN_SPEC = DesignSpec(CFG, epsilon=0.05, keep_prob=0.9, target_effective_total=3.9)


def test_step_policy_thresholds():
    assert step_policy(CFG).threshold == pytest.approx(4.0)
    assert step_policy(GameConfig.uniform(10.0, 1.0, 2)).threshold == pytest.approx(5.0)
    assert step_policy(GameConfig.uniform(1.0, 100.0, 3)).threshold == pytest.approx(100.0 / 101.0)


# ------------------------------------------------------------------ spec guards


def test_epsilon_zero_is_impossible():
    with pytest.raises(ValueError, match="approached"):
        DesignSpec(CFG, epsilon=0.0)
    with pytest.raises(ValueError):
        DesignSpec(CFG, epsilon=-0.1)


def test_keep_prob_must_exceed_its_floor():
    # alpha/(alpha+1) = 2/3 for exponent 2
    with pytest.raises(ValueError):
        DesignSpec(CFG, epsilon=0.05, keep_prob=2.0 / 3.0)
    with pytest.raises(ValueError):
        DesignSpec(CFG, epsilon=0.05, keep_prob=1.0)
    DesignSpec(CFG, epsilon=0.05, keep_prob=0.7)  # just inside: fine


def test_target_must_sit_below_the_optimum_total():
    with pytest.raises(ValueError):
        DesignSpec(CFG, epsilon=0.05, target_effective_total=4.0)
    with pytest.raises(ValueError):
        DesignSpec(CFG, epsilon=0.05, target_effective_total=0.0)


def test_heterogeneous_users_are_rejected():
    with pytest.raises(ValueError):
        DesignSpec(GameConfig(6.0, (1.0, 2.0)), epsilon=0.05)


# ------------------------------------------------------------------ target rate


def test_target_rate_meets_its_ratio_budget():
    for eps in (0.3, 0.1, 0.05, 0.01, 0.001):
        spec = DesignSpec(CFG, epsilon=eps)
        lam_e = target_effective_rate(spec)
        assert 0.0 < lam_e < 4.0
        ratio = poa_at_symmetric_rate(CFG, spec.welfare_kind, lam_e)
        assert 1.0 < ratio <= 1.0 + eps


def test_target_rate_worked_example():
    lam_e = target_effective_rate(DesignSpec(CFG, epsilon=0.05))
    assert lam_e == pytest.approx(3.63, abs=0.01)


def test_target_rate_approaches_the_optimum_as_epsilon_shrinks():
    vals = [
        target_effective_rate(DesignSpec(CFG, epsilon=eps)) for eps in (1e-2, 1e-4, 1e-6)
    ]
    assert vals[0] < vals[1] < vals[2] < 4.0
    assert vals[2] == pytest.approx(4.0, abs=1e-2)


def test_symmetric_ratio_at_nearly_full_rate_is_nearly_one():
    assert poa_at_symmetric_rate(CFG, WelfareKind.SUM_LOG_UTILITY, 3.9) == pytest.approx(
        1.0036977233707745
    )
    with pytest.raises(ValueError):
        poa_at_symmetric_rate(CFG, WelfareKind.SUM_LOG_UTILITY, 0.0)


def test_sum_welfare_with_high_exponent_has_a_floor():
    # concentrating beats splitting for exponent 2, so symmetric profiles
    # cannot push the plain-sum ratio below m**(alpha-1) = 2
    spec = DesignSpec(CFG, epsilon=0.5, welfare_kind=WelfareKind.SUM_UTILITY)
    with pytest.raises(DesignInfeasibleError, match="infimum"):
        target_effective_rate(spec)
    # above the floor the design goes through
    ok = design_linear(DesignSpec(CFG, epsilon=1.5, welfare_kind=WelfareKind.SUM_UTILITY))
    assert ok.predicted_poa <= 2.5


def _target_by_200_rounds(spec):
    """The bisection as it was: a fixed 200 rounds, most of them no-ops."""
    lam_opt = optimal_total_rate(spec.config)
    goal = 1.0 + (1.0 - _POA_MARGIN) * spec.epsilon
    lo = lam_opt * 1e-12
    hi = lam_opt * (1.0 - 1e-12)
    if poa_at_symmetric_rate(spec.config, spec.welfare_kind, hi) > goal:
        return None
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if poa_at_symmetric_rate(spec.config, spec.welfare_kind, mid) > goal:
            lo = mid
        else:
            hi = mid
    return hi


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    alpha=st.floats(0.2, 3.0),
    mu=st.floats(0.1, 1e5),
    kind=st.sampled_from(list(WelfareKind)),
    epsilon=st.floats(1e-4, 3.0),
)
# the ends of the user range, in both welfare kinds
@example(m=1, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.05)
@example(m=1, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.05)
@example(m=12, alpha=0.7, mu=50.0, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.01)
@example(m=12, alpha=0.7, mu=50.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.01)
# the plain sum with exponent above one, asked for less than its m**(alpha-1) floor
@example(m=3, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.5)
def test_target_rate_stops_where_the_fixed_round_bisection_ends(m, alpha, mu, kind, epsilon):
    spec = DesignSpec(GameConfig.uniform(mu, alpha, m), epsilon=epsilon, welfare_kind=kind)
    want = _target_by_200_rounds(spec)
    if want is None:
        with pytest.raises(DesignInfeasibleError):
            target_effective_rate(spec)
    else:
        assert target_effective_rate(spec) == want  # bit for bit


def test_an_infeasible_target_reports_the_ratio_at_the_bracket_end():
    spec = DesignSpec(
        GameConfig.uniform(6.0, 2.0, 3), epsilon=0.5, welfare_kind=WelfareKind.SUM_UTILITY
    )
    hi = optimal_total_rate(spec.config) * (1.0 - 1e-12)
    floor = poa_at_symmetric_rate(spec.config, spec.welfare_kind, hi)
    assert floor == pytest.approx(3.0)  # m**(alpha-1)
    with pytest.raises(DesignInfeasibleError) as info:
        target_effective_rate(spec)
    assert str(info.value) == (
        "no symmetric equilibrium reaches a price of anarchy of 1.5: "
        f"the achievable infimum for this welfare kind is about {floor}"
    )


# ---------------------------------------------------------------- linear design


def test_design_golden_breakpoints():
    design = design_linear(GOLDEN_SPEC)
    assert design.policy.r1 == pytest.approx(4.3012, abs=0.01)
    assert design.policy.r2 == pytest.approx(4.622, abs=0.01)
    # tighter: the exact solve, frozen at full precision
    assert design.policy.r1 == pytest.approx(4.301234567901234, rel=1e-12)
    assert design.policy.r2 == pytest.approx(4.622222222222222, rel=1e-12)
    assert design.target_raw_total == pytest.approx(3.9 / 0.9)


def test_design_construction_identities():
    design = design_linear(GOLDEN_SPEC)
    pol = design.policy
    assert pol.r1 == pytest.approx(1.0 / pol.slope + pol.r2, abs=1e-9)
    assert pol.slope * design.target_raw_total + pol.intercept == pytest.approx(0.9, abs=1e-9)
    assert keep_probability(pol, design.target_raw_total) == pytest.approx(0.9, abs=1e-6)


def test_designed_equilibrium_is_stationary():
    """Independent check: each user's utility has zero slope at the target."""
    design = design_linear(GOLDEN_SPEC)
    lam = design.predicted_ne.rates[0]
    h = 1e-6
    prof = design.predicted_ne
    up = utility(0, prof.replace(0, lam + h), design.policy, CFG)
    dn = utility(0, prof.replace(0, lam - h), design.policy, CFG)
    assert (up - dn) / (2 * h) == pytest.approx(0.0, abs=1e-5)


def test_designed_equilibrium_is_a_best_response_fixed_point():
    design = design_linear(GOLDEN_SPEC)
    lam = design.predicted_ne.rates[0]
    assert best_response(0, lam, design.policy, CFG) == pytest.approx(lam, abs=1e-9)


def test_design_second_worked_example():
    # service rate 10 at the same keep probability, effective target 6.4
    cfg = GameConfig.uniform(10.0, 2.0, 2)
    design = design_linear(
        DesignSpec(cfg, epsilon=0.01, keep_prob=0.9, target_effective_total=6.4)
    )
    assert design.policy.r1 == pytest.approx(7.0321, abs=0.01)
    assert design.policy.r2 == pytest.approx(7.8222, abs=0.01)
    assert design.predicted_ne.rates == pytest.approx((6.4 / 1.8,) * 2)


def test_design_slope_steepens_toward_the_optimum():
    """Pinning an equilibrium nearer the drop-free optimum needs an ever
    steeper ramp; the slope magnitude blows up as the target approaches it."""
    lam_opt = optimal_total_rate(CFG)

    def slope_at(frac: float) -> float:
        design = design_linear(
            DesignSpec(
                CFG, epsilon=10.0, keep_prob=0.9, target_effective_total=frac * lam_opt
            )
        )
        return abs(design.policy.slope)

    upper = [slope_at(f) for f in np.linspace(0.76, 0.98, 10)]
    assert all(b > a for a, b in zip(upper, upper[1:]))
    assert upper[-1] > 3.0 * slope_at(0.5)


def test_design_rejects_poa_above_budget():
    # an aggressive low target has a symmetric ratio well above 1 + 0.01
    with pytest.raises(DesignInfeasibleError):
        design_linear(DesignSpec(CFG, epsilon=0.01, target_effective_total=2.0))


# ------------------------------------------------------------------ validation


def test_validate_worked_example_design():
    design = designed_with_diagnostics(GOLDEN_SPEC)
    diag = design.diagnostics
    assert diag is not None
    assert diag.slope_exceeds_uniqueness_bound
    assert diag.r1_below_service_rate
    assert diag.ne_matches_prediction
    assert diag.poa_within_bound
    assert diag.all_ok
    assert diag.realized_ne.rates == pytest.approx(design.predicted_ne.rates, abs=1e-6)
    assert 1.0 < diag.realized_poa <= 1.05


def test_validate_flags_a_flat_ramp():
    # shallow slope: the uniqueness condition fails and is reported, not raised
    flat = PolicyDesign(
        policy=LinearPolicy(4.2, 104.2),
        predicted_ne=RateProfile((2.1667, 2.1667)),
        predicted_poa=1.01,
        keep_prob=0.9,
        target_effective_total=3.9,
        target_raw_total=3.9 / 0.9,
    )
    diag = validate_design(flat, DesignSpec(CFG, epsilon=0.05, target_effective_total=3.9))
    assert not diag.slope_exceeds_uniqueness_bound
    assert not diag.all_ok
    assert math.isfinite(diag.uniqueness_bound)


@pytest.mark.parametrize("eps", [0.2, 0.05])
def test_realized_equilibrium_stays_inside_the_budget(eps):
    design = designed_with_diagnostics(DesignSpec(CFG, epsilon=eps))
    diag = design.diagnostics
    assert diag is not None
    assert diag.ne_matches_prediction
    assert diag.poa_within_bound
    assert diag.r1_below_service_rate
    # the served total at the realized equilibrium stays below the optimum,
    # so the ratio is strictly above one
    realized_total = diag.realized_ne.total * keep_probability(
        design.policy, diag.realized_ne.total
    )
    assert realized_total < optimal_total_rate(CFG)
    assert 1.0 < diag.realized_poa <= 1.0 + eps


def test_sufficient_slope_condition_applies_only_to_tight_budgets():
    """The slope check is a sufficient condition for ramps whose
    keep-everything region ends above the optimal total.  Loose budgets put
    r1 below it, so the flag reports not-proven (infinite bound); the census
    still certifies the equilibrium unique, so the design is all_ok.  Tight
    budgets satisfy both."""
    loose = designed_with_diagnostics(DesignSpec(CFG, epsilon=0.2))
    diag = loose.diagnostics
    assert diag is not None
    assert loose.policy.r1 < optimal_total_rate(CFG)
    assert not diag.slope_exceeds_uniqueness_bound
    assert math.isinf(diag.uniqueness_bound)
    assert diag.certified_unique
    assert diag.ne_matches_prediction
    assert diag.all_ok

    tight = designed_with_diagnostics(DesignSpec(CFG, epsilon=0.01))
    diag = tight.diagnostics
    assert diag is not None
    assert tight.policy.r1 > optimal_total_rate(CFG)
    assert diag.slope_exceeds_uniqueness_bound
    assert abs(tight.policy.slope) > diag.uniqueness_bound
    assert diag.certified_unique
    assert diag.all_ok


# ------------------------------------------------------------------ census


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 50),
    alpha=st.floats(0.2, 3.0),
    mu=st.floats(0.1, 1e4),
    epsilon=st.floats(1e-4, 3.0),
    keep_frac=st.floats(1e-3, 1.0 - 1e-3),
)
# large service rates, where an unpolished root is off by more than the play's tol
@example(m=36, alpha=1.8, mu=9993.0, epsilon=0.0017, keep_frac=0.36)
@example(m=44, alpha=2.77, mu=7388.0, epsilon=0.0445, keep_frac=0.36)
def test_census_of_every_design_is_its_target(m, alpha, mu, epsilon, keep_frac):
    cfg = GameConfig.uniform(mu, alpha, m)
    low = alpha / (alpha + 1.0)
    spec = DesignSpec(cfg, epsilon=epsilon, keep_prob=low + keep_frac * (1.0 - low))
    try:
        design = design_linear(spec)
    except DesignInfeasibleError:
        return
    census = equilibrium_census(design.policy, cfg)
    assert census.kink is None and census.flat is None
    (total,) = census.roots
    assert total == pytest.approx(design.target_raw_total, rel=1e-12)
    assert validate_design(design, spec).certified_unique
    profile = RateProfile((total / m,) * m)
    # validate_design's play from here must stop after its first round
    assert run_dynamics(cfg, design.policy, profile, tol=1e-10, max_iter=1).converged
    own = utility(0, profile, design.policy, cfg)
    # relative 1e-10: verify_equilibrium scales tol by max(1, own)
    assert verify_equilibrium(profile, design.policy, cfg, tol=1e-10 * min(1.0, own))


@pytest.mark.parametrize("m", [10, 12])
def test_many_user_designs_verify(m):
    # round-robin play from a cold start ran out of rounds on these
    design = designed_with_diagnostics(DesignSpec(GameConfig.uniform(50.0, 1.0, m), epsilon=0.01))
    diag = design.diagnostics
    assert diag is not None
    assert diag.ne_matches_prediction
    assert diag.certified_unique
    assert diag.all_ok


def test_a_steep_ramp_has_a_continuum_of_kink_equilibria():
    steep = LinearPolicy(3.0, 3.01)
    for rates in ((1.5, 1.5), (1.0, 2.0)):
        assert verify_equilibrium(RateProfile(rates), steep, CFG)
    census = equilibrium_census(steep, CFG)
    assert census.roots == ()
    lo, hi = census.kink
    assert lo <= 1.0 and 2.0 <= hi
    assert not census.unique
    design = PolicyDesign(
        policy=steep,
        predicted_ne=RateProfile((1.5, 1.5)),
        predicted_poa=1.0,
        keep_prob=1.0,
        target_effective_total=3.0,
        target_raw_total=3.0,
    )
    diag = validate_design(design, DesignSpec(CFG, epsilon=0.05, target_effective_total=3.0))
    assert not diag.certified_unique
    assert not diag.all_ok


@pytest.mark.parametrize("policy", [step_policy(CFG), NoDrop()], ids=["step", "no_drop"])
def test_census_refuses_a_policy_without_a_ramp(policy):
    # every split of the step's threshold can be an equilibrium: no finite list
    with pytest.raises(ValueError, match="r1 < r2"):
        equilibrium_census(policy, CFG)


def test_a_lone_user_below_the_ramp_is_a_census_member():
    # a lone user's drop-free optimum (4 here) is an equilibrium when r1 lies above it
    lone = GameConfig.uniform(6.0, 2.0, 1)
    ramp = LinearPolicy(5.0, 6.0)
    census = equilibrium_census(ramp, lone)
    assert census.flat == pytest.approx(optimal_total_rate(lone))
    assert not census.unique
    assert verify_equilibrium(RateProfile((census.flat,)), ramp, lone)
