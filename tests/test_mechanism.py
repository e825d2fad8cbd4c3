"""Policy synthesis: targets, breakpoints, diagnostics.

A worked example (service rate 6, two users, exponent 2, keep
probability 0.9, effective target 3.9) pins the expected breakpoints;
everything else is cross-checked by independent numerics (finite
differences, grid scans, best-response runs).
"""

import math
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from mm1game import (
    RATE_FLOOR,
    SERVICE_RATE_LIMIT,
    DesignInfeasibleError,
    DesignSpec,
    EquilibriumCensus,
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
from mm1game.dynamics import _cubic_roots
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


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_epsilon_must_be_finite(epsilon):
    # NaN fails every comparison, so a test of epsilon <= 0 alone lets it through
    with pytest.raises(ValueError, match="positive and finite"):
        DesignSpec(CFG, epsilon=epsilon)


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
    for total in (0.0, CFG.mu):
        with pytest.raises(ValueError):
            poa_at_symmetric_rate(CFG, WelfareKind.SUM_LOG_UTILITY, total)


def test_sum_welfare_with_high_exponent_has_a_floor():
    # concentrating beats splitting for exponent 2, so symmetric profiles
    # cannot push the plain-sum ratio below m**(alpha-1) = 2
    spec = DesignSpec(CFG, epsilon=0.5, welfare_kind=WelfareKind.SUM_UTILITY)
    with pytest.raises(DesignInfeasibleError, match="infimum"):
        target_effective_rate(spec)
    # above the floor the design goes through
    ok = design_linear(DesignSpec(CFG, epsilon=1.5, welfare_kind=WelfareKind.SUM_UTILITY))
    assert ok.predicted_poa <= 2.5


def _decimal_target(spec):
    """The target solved in 60-digit decimal from the spec's exact inputs, or None if infeasible.

    Beside it comes the root's condition number: one ulp of ``log(K)`` moves
    ``log(s)`` by ``|log(K)| / F'`` ulps of ``s`` (``F'`` is the slope of
    ``log(g)`` in ``log(s)``), so a solver that rounds ``log(K)`` to a double
    cannot come closer than that, however exact its iteration.
    """
    cfg = spec.config
    with localcontext() as ctx:
        ctx.prec = 60
        a, m = Decimal(cfg.alpha), cfg.m
        goal = 1 + (1 - Decimal(_POA_MARGIN)) * Decimal(spec.epsilon)
        if spec.welfare_kind is WelfareKind.SUM_LOG_UTILITY:
            k = goal ** (Decimal(-1) / m)
        else:
            r0 = Decimal(m) ** (a - 1) if a > 1 else Decimal(1)
            if r0 >= goal:
                return None
            k = r0 / goal
        # an even split of s times the optimal total earns g(s) = s**a (a + 1 - a s) times
        # the optimum's, and g rises from 0 to 1 on (0, 1): bisect, then polish by Newton
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(40):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if mid**a * (a + 1 - a * mid) < k else (lo, mid)
        s = (lo + hi) / 2
        for _ in range(4):
            s -= (s**a * (a + 1 - a * s) - k) / (a * (a + 1) * s ** (a - 1) * (1 - s))
        assert Decimal("1e-12") < s < 1 - Decimal("1e-12")  # inside the solver's clamps
        slope = a * (a + 1) * (1 - s) / (1 + a * (1 - s))
        return Decimal(cfg.mu) * a / (a + 1) * s, max(1, abs(k.ln()) / slope)


_LOG_UNIFORM_EPSILON = st.floats(math.log(1e-4), math.log(3.0)).map(math.exp)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    alpha=st.floats(0.2, 3.0),
    mu=st.floats(0.1, 1e5),
    kind=st.sampled_from(list(WelfareKind)),
    epsilon=_LOG_UNIFORM_EPSILON,
)
# the ends of the user range, in both welfare kinds
@example(m=1, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.05)
@example(m=1, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.05)
@example(m=12, alpha=0.7, mu=50.0, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.01)
@example(m=12, alpha=0.7, mu=50.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.01)
# the plain sum with exponent above one, asked for less than its m**(alpha-1) floor
@example(m=3, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_UTILITY, epsilon=0.5)
def test_target_rate_matches_a_60_digit_decimal_root(m, alpha, mu, kind, epsilon):
    spec = DesignSpec(GameConfig.uniform(mu, alpha, m), epsilon=epsilon, welfare_kind=kind)
    solved = _decimal_target(spec)
    if solved is None:
        with pytest.raises(DesignInfeasibleError):
            target_effective_rate(spec)
    else:
        want, condition = solved
        error = abs(Decimal(target_effective_rate(spec)) - want)
        assert error <= 8 * condition * Decimal(math.ulp(float(want)))


def _in_domain(*rates):
    return all(RATE_FLOOR <= rate < SERVICE_RATE_LIMIT for rate in rates)


# a service rate log-uniform over the whole domain [RATE_FLOOR, SERVICE_RATE_LIMIT)
_LOG_UNIFORM_MU = st.floats(-30.0, 21.0, exclude_max=True).map(lambda e: 10.0**e)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 12),
    alpha=st.floats(0.2, 3.0),
    mu=_LOG_UNIFORM_MU,
    kind=st.sampled_from(list(WelfareKind)),
    epsilon=_LOG_UNIFORM_EPSILON,
    k=st.integers(-30, 30),
)
@example(m=2, alpha=2.0, mu=6.0, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.05, k=3)
# the ramp start crosses the floor: r1 is 6.6e-30 at mu = 1e-29 and 8.2e-31 at mu / 8
@example(m=2, alpha=2.0, mu=1e-29, kind=WelfareKind.SUM_LOG_UTILITY, epsilon=0.05, k=-3)
def test_scaling_mu_by_a_power_of_two_scales_the_design_bit_for_bit(
    m, alpha, mu, kind, epsilon, k
):
    # the price of anarchy does not depend on the unit of rate, nor should its rounding
    assume(_in_domain(mu, math.ldexp(mu, k)))

    def solve(rate):
        spec = DesignSpec(GameConfig.uniform(rate, alpha, m), epsilon=epsilon, welfare_kind=kind)
        values = []
        try:
            values.append(target_effective_rate(spec))
            design = design_linear(spec)
            values += [design.policy.r1, design.policy.r2]
        except DesignInfeasibleError:
            pass
        return values

    got = solve(math.ldexp(mu, k))
    want = [math.ldexp(v, k) for v in solve(mu)]
    assert got[:1] == want[:1]
    if len(got) == len(want):
        assert got == want
    else:  # the floor is the one bound that does not scale: one ramp start lies below it
        r1 = max(got, want, key=len)[1]  # the ramp start at the scaled rate
        assert min(r1, math.ldexp(r1, -k)) < RATE_FLOOR


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(a, b))


@settings(max_examples=300, deadline=None)
@given(
    mu=_LOG_UNIFORM_MU,
    # exponents log-uniform over the domain, or over the usual range half the time
    alpha=st.one_of(st.floats(-30.0, 2.0), st.floats(-3.0, 2.0)).map(lambda e: 10.0**e),
    m=st.integers(1, 12),
    start=st.floats(-3.0, 0.5),
    width=st.floats(-9.0, 1.0),
    others=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
    k=st.integers(-60, 60),
)
# the candidates' utilities overflow a double here, and all underflow to 0 at 2**-54 the unit
@example(mu=3032004912.205291, alpha=83.1934954626257, m=1, start=-2.242, width=-2.66,
         others=0.2436, k=-54)
def test_scaling_a_ramp_game_by_a_power_of_two_scales_best_responses_and_the_census(
    mu, alpha, m, start, width, others, k
):
    r1 = mu * 10.0**start
    r2 = r1 + r1 * 10.0**width
    assume(_in_domain(mu, math.ldexp(mu, k), r1, math.ldexp(r1, k)))

    def play(unit):
        game = GameConfig.uniform(math.ldexp(mu, unit), alpha, m)
        policy = LinearPolicy(math.ldexp(r1, unit), math.ldexp(r2, unit))
        census = equilibrium_census(policy, game)
        members = [*census.roots, *(census.kink or ()), *filter(None, [census.flat])]
        response = best_response(0, math.ldexp(others * r2, unit), policy, game)
        return math.ldexp(response, -unit), [math.ldexp(t, -unit) for t in members]

    response, members = play(0)
    scaled, scaled_members = play(k)
    assert (scaled == 0.0) == (response == 0.0)
    if response:
        assert _ulps(scaled, response) <= 4
    assert len(scaled_members) == len(members)
    # a census root can sit in a cluster of roots (with m = 1 one lies at r2 / 2), where
    # rounding moved it by up to 2 ulps in 476,571 random ramps (|k| <= 60)
    assert all(_ulps(a, b) <= 64 for a, b in zip(scaled_members, members))


def test_a_lone_users_census_at_r2_twice_r1_lists_the_ramp_start_in_every_unit():
    # With m = 1 and r2 = 2 r1 the census condition's root r2 / 2 is the ramp start,
    # where the root test (r1 < T) and the kink's ramp side are both on their boundary.
    # The lone user's best response to nothing is r1, an equilibrium; the census lists
    # it once, as the kink, in every unit from 2**-3 to 2**3.
    r1 = 50.0 * 10.0**-0.375
    for k in range(-3, 4):
        game = GameConfig.uniform(math.ldexp(50.0, k), 2.0, 1)
        policy = LinearPolicy(math.ldexp(r1, k), math.ldexp(2.0 * r1, k))
        assert best_response(0, 0.0, policy, game) == policy.r1
        census = equilibrium_census(policy, game)
        assert census.roots == () and census.flat is None
        lo, hi = census.kink
        assert lo <= policy.r1 <= hi


def test_a_lone_users_exact_triple_root_is_the_kink():
    # r1 is the drop-free optimum mu alpha / (alpha + 1) = 2 and r2 = 2 r1: the census
    # condition is -4 (T - 2)^3, so Newton's slope at its root is exactly 0
    policy, game = LinearPolicy(2.0, 4.0), GameConfig.uniform(4.0, 1.0, 1)
    assert equilibrium_census(policy, game) == EquilibriumCensus((), (2.0, 2.0), None)
    assert best_response(0, 0.0, policy, game) == 2.0 == optimal_total_rate(game)


def _members_at_the_ramp_start(mu, alpha, m, r1, r2):
    """For each unit from 2**-3 to 2**3: the census members within max(64, kappa)
    ulps of r1 (the kink counting as r1), and the policy of that unit.  ``kappa``
    is the census condition's rounding noise at its root nearest r1, in ulps (see
    :func:`_decimal_census_root`); it passes 64 only where roots cluster at r1."""
    kappa = _decimal_census_root(r1, LinearPolicy(r1, r2), GameConfig.uniform(mu, alpha, m))[1]
    ulps = max(64.0, kappa)
    for k in range(-3, 4):
        game = GameConfig.uniform(math.ldexp(mu, k), alpha, m)
        policy = LinearPolicy(math.ldexp(r1, k), math.ldexp(r2, k))
        census = equilibrium_census(policy, game)
        members = [*census.roots, *filter(None, [census.flat])]
        if census.kink is not None:
            members.append(policy.r1)
        near = [t for t in members if abs(t - policy.r1) <= ulps * math.ulp(policy.r1)]
        yield near, policy


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    alpha=st.floats(-1.5, 1.0).map(lambda e: 10.0**e),
    share=st.floats(0.01, 1.0, exclude_max=True),
)
# r1 an ulp below the optimum: the condition's three roots meet at r1, and the float
# cubic put its one real root 2.7e-6 above r1, relative, within kappa, for the kink
@example(mu=10.0, alpha=1.0, share=0.9999999999999998)
# and here it returned r1 + 1 ulp three times, which the census lists once
@example(mu=9.999999999999998, alpha=0.15274435846658263, share=0.9999999999999999)
def test_a_lone_user_with_r2_twice_r1_below_its_optimum_has_one_member_at_r1(mu, alpha, share):
    # r1 below the drop-free optimum: the kink is an equilibrium, and the census
    # condition's root r2 / 2 sits on it
    r1 = optimal_total_rate(GameConfig.uniform(mu, alpha, 1)) * share
    for near, policy in _members_at_the_ramp_start(mu, alpha, 1, r1, 2.0 * r1):
        assert len(near) == 1, (policy, near)


@settings(max_examples=300, deadline=None)
@given(
    m=st.integers(1, 12),
    mu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    share=st.floats(0.05, 0.95),
    excess=st.floats(0.001, 1.5),
)
def test_a_ramp_start_that_is_a_root_of_the_census_condition_is_one_member(m, mu, share, excess):
    # With q = mu - r1 the condition g(r1) = w (m alpha w q - r1 (w - r1 + alpha q))
    # vanishes at w = r1 (alpha q - r1) / (m alpha q - r1).  An exponent above
    # r1 / q puts r1 below the drop-free optimum, where w > 0 and the kink's flat
    # side holds: the kink or a root just above r1, not both, is the member there.
    r1 = mu * share
    q = mu - r1
    alpha = r1 / q * 10.0**excess
    r2 = r1 * (m * alpha * q + alpha * q - 2.0 * r1) / (m * alpha * q - r1)
    for near, policy in _members_at_the_ramp_start(mu, alpha, m, r1, r2):
        assert len(near) == 1, (policy, near)


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    alpha=st.floats(-1.5, 1.0).map(lambda e: 10.0**e),
    width=st.floats(-6.0, 1.0).map(lambda e: 10.0**e),  # w / r1
)
def test_a_lone_user_whose_ramp_starts_at_its_optimum_has_one_member_there(mu, alpha, width):
    # r1 = optimal_total_rate: the flat member and the kink's flat side are both on
    # their boundary, and r1 is a root of the census condition
    # the roots are r1, r2 / 2 and w: at w = r1 they meet, the triple corner pinned below
    assume(abs(width - 1.0) > 1e-4)
    r1 = optimal_total_rate(GameConfig.uniform(mu, alpha, 1))
    for near, policy in _members_at_the_ramp_start(mu, alpha, 1, r1, r1 + r1 * width):
        assert len(near) == 1, (policy, near)


@pytest.mark.parametrize(
    "mu,alpha,m,keep_prob,infimum",
    [
        (6.0, 2.0, 3, 0.9, "3.0"),
        (1.0, 400.0, 2, 0.999, "1.2911249390434543e+120"),
        (6.0, 1e4, 12, 0.99999, "12**9999.0, beyond the float range"),
    ],
    ids=["m3-alpha2", "alpha400", "past-the-float-range"],
)
def test_an_infeasible_target_names_the_exact_infimum(mu, alpha, m, keep_prob, infimum):
    spec = DesignSpec(
        GameConfig.uniform(mu, alpha, m),
        epsilon=0.5,
        keep_prob=keep_prob,
        welfare_kind=WelfareKind.SUM_UTILITY,
    )
    with pytest.raises(DesignInfeasibleError) as info:
        target_effective_rate(spec)
    assert str(info.value) == (
        "no symmetric equilibrium reaches a price of anarchy of 1.5: "
        f"the achievable infimum for this welfare kind is m**(alpha-1) = {infimum}"
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


def test_a_target_an_ulp_below_the_optimum_names_both_totals():
    # with one user the slope's numerator rounds to zero one ulp under the optimum
    game = GameConfig.uniform(10.0, 2.0, 1)
    lam_opt = optimal_total_rate(game)
    target = math.nextafter(lam_opt, 0.0)
    spec = DesignSpec(game, epsilon=0.05, target_effective_total=target)
    with pytest.raises(DesignInfeasibleError) as info:
        design_linear(spec)
    assert str(info.value) == (
        f"the target effective total {target} is too close to the welfare-optimal "
        f"total {lam_opt} to solve for a slope"
    )


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


def _recorded_plays(monkeypatch):
    """The trajectory of every play that validate_design runs, in order."""
    from mm1game import mechanism

    trajectories = []

    def recording_run_dynamics(*args, **kwargs):
        trajectories.append(run_dynamics(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(mechanism, "run_dynamics", recording_run_dynamics)
    return trajectories


@pytest.mark.parametrize("alpha, m", [(0.5, 5), (1.0, 2), (2.0, 2)])
def test_validation_plays_to_a_few_ulps_at_a_large_service_rate(monkeypatch, alpha, m):
    # an absolute 1e-10 is below one ulp of these rates, so play never stopped
    trajectories = _recorded_plays(monkeypatch)
    spec = DesignSpec(GameConfig.uniform(1e15, alpha, m), epsilon=0.05)
    diag = validate_design(design_linear(spec), spec)
    (trajectory,) = trajectories
    assert trajectory.converged
    assert diag.ne_matches_prediction


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


def test_validation_lists_a_lone_users_flat_member(monkeypatch):
    # design_linear never builds this ramp: a lone user's design puts r1 below its
    # target.  Above the optimum 4 the ramp's accepted rate x (r2 - x) / w reaches 4
    # at the root 5.236..., so that root and the flat member earn the same.  The
    # flat member, nearest the prediction, is no start: a lone user's every round
    # answers the others' total 0, so play starts at the root and ends there.
    plays = _recorded_plays(monkeypatch)
    lone = GameConfig.uniform(6.0, 2.0, 1)
    ramp = LinearPolicy(5.0, 6.0)
    design = PolicyDesign(
        policy=ramp,
        predicted_ne=RateProfile((4.0,)),
        predicted_poa=1.0,
        keep_prob=1.0,
        target_effective_total=4.0,
        target_raw_total=4.0,
    )
    diag = validate_design(design, DesignSpec(lone, epsilon=0.05, target_effective_total=3.9))
    census = equilibrium_census(ramp, lone)
    (root,) = census.roots
    assert census.flat == 4.0 and root == 5.23606797749979
    assert [play.iterates[0] for play in plays] == [RateProfile((root,))]
    assert not diag.certified_unique and not diag.ne_matches_prediction
    assert diag.realized_ne.rates == (root,)
    flat = utility(0, RateProfile((4.0,)), ramp, lone)
    assert utility(0, diag.realized_ne, ramp, lone) == pytest.approx(flat, rel=1e-12)


def test_validation_starts_play_at_a_kink_one_ulp_from_the_prediction(monkeypatch):
    # With 1 - keep_prob one ulp, the design's ramp start r1 rounds one ulp above its
    # target raw total.  The census then has no roots and lists the kink, so play
    # starts at the even split of r1, not at the prediction.
    plays = _recorded_plays(monkeypatch)
    spec = DesignSpec(GameConfig.uniform(6.0, 2.0, 2), 0.2, keep_prob=0.9999999999999999)
    design = design_linear(spec)
    r1 = design.policy.r1
    assert r1 == 3.2731734128117047 and math.ulp(r1) == r1 - design.predicted_ne.total
    census = equilibrium_census(design.policy, spec.config)
    assert census == EquilibriumCensus((), (1.6365867064058524, 5.453653174376591), None)
    diag = validate_design(design, spec)
    assert [play.iterates[0] for play in plays] == [RateProfile((r1 / 2,) * 2)]
    assert not diag.certified_unique
    assert diag.ne_matches_prediction and diag.poa_within_bound


def _reference_census(policy, config):
    """The census on the shared ramp condition, with ``k = m`` users and no
    outsiders, polished by a generic loop taking the condition as a closure.
    The written-out polish keeps every float operation and its order, so it
    must reproduce this bit for bit."""
    alpha, m, mu = config.alpha, config.m, config.mu
    r1, r2 = policy.r1, policy.r2
    w = r2 - r1
    muw = mu * w
    k1, kd = m + 1.0, m * r2

    def condition(t):
        return alpha * (muw - t * (r2 - t)) * (kd - k1 * t) - t * (r2 - t) * (r2 - 2.0 * t)

    a = -alpha * k1 - 2.0
    b = alpha * (r2 * k1 + kd) + 2.0 * r2 + r2
    c = -alpha * (muw * k1 + r2 * kd) - r2 * r2
    roots = []
    for x in _cubic_roots(a, b, c, alpha * muw * kd):
        g = condition(x)
        for _ in range(2):
            slope = (3.0 * a * x + 2.0 * b) * x + c
            if slope == 0.0:
                break
            step = x - g / slope
            g_step = condition(step)
            if not abs(g_step) < abs(g):
                break
            x, g = step, g_step
        if r1 < x < r2 and muw > x * (r2 - x):
            roots.append(x)
    kink = None
    if r1 < mu:
        hi = alpha * (mu - r1)
        gain = r2 - 2.0 * r1 + alpha * (mu - r1)
        if gain > 0.0:
            lo = alpha * w * (mu - r1) / gain
            if m * lo <= r1 <= m * hi:
                kink = (lo, hi)
    star = optimal_total_rate(config)
    return sorted(roots), kink, star if m == 1 and star < r1 else None


def _census_hex(roots, kink, flat):
    return (
        [t.hex() for t in roots],
        None if kink is None else [x.hex() for x in kink],
        None if flat is None else flat.hex(),
    )


def _random_ramps(n, seed, narrowest):
    """``n`` shared-exponent ramp games, log-uniform in mu, alpha, r1 / mu and
    the width over r1, which runs from ``10**narrowest`` to 10."""
    rng = np.random.default_rng(seed)
    mu = 10.0 ** rng.uniform(-5.0, 20.0, n)
    alpha = 10.0 ** rng.uniform(-2.0, 1.0, n)
    m = rng.integers(1, 13, n)
    r1 = mu * 10.0 ** rng.uniform(-2.0, 0.5, n)
    r2 = r1 + r1 * 10.0 ** rng.uniform(narrowest, 1.0, n)
    for k in range(n):
        policy = LinearPolicy(float(r1[k]), float(r2[k]))
        yield policy, GameConfig.uniform(float(mu[k]), float(alpha[k]), int(m[k]))


def test_census_matches_its_reference_bit_for_bit():
    seen = {"roots": 0, "kink": 0, "flat": 0}
    for policy, game in _random_ramps(10_000, 20261019, -9.0):
        got = equilibrium_census(policy, game)
        want = _reference_census(policy, game)
        assert _census_hex(got.roots, got.kink, got.flat) == _census_hex(*want), (policy, game)
        seen["roots"] += bool(got.roots)
        seen["kink"] += got.kink is not None
        seen["flat"] += got.flat is not None
    assert min(seen.values()) >= 100, seen


def _decimal_census_root(t, policy, config):
    """The census root nearest ``t`` in 60-digit decimal, from the exact
    inputs, and its condition number.

    The condition is ``g(T) = alpha (mu w - T (r2 - T)) (m r2 - (m + 1) T)
    - T (r2 - T) (r2 - 2 T)``.  Its float evaluation adds products whose
    magnitudes sum to ``M``, so its rounding noise is a few ulps of ``M``,
    and no polish on it can pin the root closer than about
    ``kappa = M / |T g'(T)|`` ulps of ``T``.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        a, m, r2 = Decimal(config.alpha), config.m, Decimal(policy.r2)
        muw = Decimal(config.mu) * (r2 - Decimal(policy.r1))
        c3 = -a * (m + 1) - 2
        c2 = a * (2 * m + 1) * r2 + 3 * r2
        c1 = -a * (muw * (m + 1) + m * r2 * r2) - r2 * r2
        c0 = a * muw * m * r2
        x = Decimal(t)
        for _ in range(50):
            value = ((c3 * x + c2) * x + c1) * x + c0
            slope = (3 * c3 * x + 2 * c2) * x + c1
            if not (value and slope):  # an exact root, or a flat point by a triple one
                break
            step = value / slope
            x -= step
            if abs(step) <= abs(x) * Decimal("1e-55"):
                break
        room = abs(x * (r2 - x))
        magnitude = a * (muw + room) * (m * r2 + (m + 1) * x) + room * (r2 + 2 * x)
        slope = (3 * c3 * x + 2 * c2) * x + c1
        if not slope:  # a multiple root, which no float polish can pin
            return x, math.inf
        return x, float(magnitude / abs(x * slope))


def test_census_roots_match_a_60_digit_decimal_root():
    # 8 ulps where the root is well conditioned; near a second root no polish on
    # the float condition can come closer than its noise, about kappa ulps
    roots = tight = 0
    for policy, game in _random_ramps(4_000, 20261020, -6.0):
        for t in equilibrium_census(policy, game).roots:
            want, kappa = _decimal_census_root(t, policy, game)
            error = abs(Decimal(t) - want) / Decimal(math.ulp(t))
            assert error <= max(8.0, kappa), (policy, game, t, float(error), kappa)
            roots += 1
            tight += kappa <= 8.0
    assert roots >= 2_000 and tight >= 0.9 * roots, (roots, tight)


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(-5.0, 20.0).map(lambda e: 10.0**e),
    alpha=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    m=st.integers(1, 12),
    start=st.floats(-2.0, 0.5),
    width=st.floats(-6.0, 1.0),
)
# ramps with three census roots
@example(mu=748231702151742.8, alpha=0.016562525167488764, m=6,
         start=math.log10(77892795425005.14 / 748231702151742.8),
         width=math.log10(399358655821496.0 / 77892795425005.14 - 1.0))
@example(mu=385.6488667448196, alpha=0.03043562193589723, m=9,
         start=math.log10(105.69419277816694 / 385.6488667448196),
         width=math.log10(454.49356970419507 / 105.69419277816694 - 1.0))
def test_each_census_root_is_a_users_stationary_rate_against_the_others(
    mu, alpha, m, start, width
):
    # an interior symmetric equilibrium total T is where one user's own
    # stationarity cubic, against the others' (m - 1) T / m, has the root T / m
    r1 = mu * 10.0**start
    r2 = r1 + r1 * 10.0**width
    policy, game = LinearPolicy(r1, r2), GameConfig.uniform(mu, alpha, m)
    w = r2 - r1
    x = Polynomial([0.0, 1.0])
    for t in equilibrium_census(policy, game).roots:
        own = t / m
        b = (m - 1) * own
        d = r2 - b
        ramp = alpha * (mu * w - (b + x) * (d - x)) * (d - 2.0 * x) - x * (d - x) * (d - b - 2.0 * x)
        assert min(abs(r - own) for r in _scaled_real_roots(ramp, r2)) <= 1e-9 * own


# ------------------------------------------------------- an exact census
# The census decides in floats.  The helpers below decide the same members in
# exact rationals of its float inputs and share no code with it: the condition
# is built from its unexpanded factors, and its roots on the ramp are counted
# with a Sturm sequence, not solved (Sturm 1829; Basu, Pollack & Roy,
# "Algorithms in Real Algebraic Geometry", ch. 2).  Polynomials are lists of
# Fractions, constant term first.


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sub(p, q):
    n = max(len(p), len(q))
    out = [a - b for a, b in zip(p + [0] * (n - len(p)), q + [0] * (n - len(q)))]
    while out and out[-1] == 0:
        out.pop()
    return out


def _poly_at(p, x):
    value = Fraction(0)
    for c in reversed(p):
        value = value * x + c
    return value


def _poly_rem(p, q):
    p = list(p)
    while len(p) >= len(q):
        lead, shift = p[-1] / q[-1], len(p) - len(q)
        p = _poly_sub(p, [0] * shift + [lead * c for c in q])
    return p


def _tarski_query(p, q, a, b):
    """The sum of the sign of ``q`` over the distinct real roots of ``p`` in
    ``(a, b]``, where neither ``a`` nor ``b`` is a root of ``p`` (the
    Sturm-Tarski theorem): the sign changes that the signed remainder
    sequence of ``p`` and ``p' q`` loses from a to b."""
    seq = [p, _poly_mul([k * c for k, c in enumerate(p)][1:], q)]
    while seq[-1]:
        seq.append([-c for c in _poly_rem(seq[-2], seq[-1])])

    def changes(x):
        signs = [v > 0 for v in (_poly_at(f, x) for f in seq[:-1]) if v]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return changes(a) - changes(b)


def _exact_census(policy, config, cut):
    """The census decided exactly, with ``cut`` just above r1.

    Returns the number of distinct roots T of ``g`` in ``(cut, r2)`` whose
    headroom ``H = mu w - T (r2 - T)`` is positive; whether a member lies
    within ``cut - r1`` of r1 (the kink, by the sign of ``g(r1)`` and by
    ``r1 (1 + m alpha) <= m alpha mu``; a root with ``H > 0`` in
    ``(r1, cut]``; or a lone user's drop-free optimum that close below r1);
    whether that optimum is a member farther below; and whether the kink's
    flat side holds or the optimum stands in for it.
    """
    a, mu, r1, r2, cut = map(Fraction, (config.alpha, config.mu, policy.r1, policy.r2, cut))
    m = config.m
    w = r2 - r1
    room = [Fraction(0), r2, Fraction(-1)]  # T (r2 - T)
    headroom = [mu * w, -r2, Fraction(1)]
    ramp = _poly_mul([a], _poly_mul(headroom, [m * r2, -(m + 1)]))
    g = _poly_sub(ramp, _poly_mul(room, [r2, -2]))
    flat_side = r1 * (1 + m * a) <= m * a * mu
    kink = _poly_at(g, r1) <= 0 and flat_side
    p = g
    while _poly_at(p, r1) == 0:  # no Sturm endpoint may be a root
        p = _deflate(p, r1)
    assert _poly_at(p, cut) != 0  # nor is r2: g(r2) = -alpha mu w r2

    def members(lo, hi):  # TaQ(H) + TaQ(H^2) counts the roots with H > 0 twice
        signed = _tarski_query(p, headroom, lo, hi)
        return (signed + _tarski_query(p, _poly_mul(headroom, headroom), lo, hi)) // 2

    optimum = mu * a / (a + 1)
    lone = m == 1 and optimum < r1
    near_flat = lone and r1 - optimum <= cut - r1
    edge = kink or members(r1, cut) > 0 or near_flat
    return members(cut, r2), edge, lone and not near_flat, flat_side or near_flat


def _deflate(p, r):
    """``p / (T - r)`` for a root ``r`` of ``p``, by synthetic division."""
    out, acc = [], Fraction(0)
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    assert out.pop() == 0
    return out[::-1]


def _assert_the_census_is_exact(policy, game):
    census = equilibrium_census(policy, game)
    r1 = policy.r1
    # a float root within max(8, kappa) ulps of r1 counts as the kink (kappa is
    # infinite where r1 is a multiple root of g)
    kappa = _decimal_census_root(r1, policy, game)[1]
    cut = min(r1 + max(8.0, kappa) * math.ulp(r1), policy.r2)
    roots, edge, flat, decided = _exact_census(policy, game, cut)
    far = [t for t in census.roots if t > cut]
    assert len(far) == roots, (policy, game, census)
    near_flat = census.flat is not None and r1 - census.flat <= cut - r1
    assert (census.flat is not None and not near_flat) == flat, (policy, game, census)
    if decided:
        listed = census.kink is not None or len(far) < len(census.roots) or near_flat
        assert listed == edge, (policy, game, census)
    else:
        # Each user would rather send its drop-free optimum, a finite gain, than
        # r1 / m or a rate within rounding of it: neither the kink nor a ramp root
        # that close to r1 is an equilibrium.  The census may list such a root or
        # not, as its float lands above r1 or not (r1 a rising root of g).
        assert census.kink is None, (policy, game, census)


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(-5.0, 20.0).map(lambda e: 10.0**e),
    alpha=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    m=st.integers(1, 12),
    start=st.floats(-2.0, 0.5),
    width=st.floats(-9.0, 1.0),
)
# ramps with three census roots
@example(mu=748231702151742.8, alpha=0.016562525167488764, m=6,
         start=math.log10(77892795425005.14 / 748231702151742.8),
         width=math.log10(399358655821496.0 / 77892795425005.14 - 1.0))
@example(mu=385.6488667448196, alpha=0.03043562193589723, m=9,
         start=math.log10(105.69419277816694 / 385.6488667448196),
         width=math.log10(454.49356970419507 / 105.69419277816694 - 1.0))
def test_the_census_matches_an_exact_count_on_random_ramps(mu, alpha, m, start, width):
    r1 = mu * 10.0**start
    policy = LinearPolicy(r1, r1 + r1 * 10.0**width)
    _assert_the_census_is_exact(policy, GameConfig.uniform(mu, alpha, m))


@settings(max_examples=300, deadline=None)
@given(
    edge=st.sampled_from(["root", "twice", "optimum"]),
    m=st.integers(1, 12),
    mu=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    share=st.floats(0.05, 0.95),
    excess=st.floats(-1.5, 1.5),
    width=st.floats(-6.0, 1.0).map(lambda e: 10.0**e),
)
# r1 a rising root of g, above the drop-free optimum: the flat side fails
@example(edge="twice", m=1, mu=10.0, share=0.9, excess=-0.5, width=1.0)
# a ramp one ulp wide, on which the kink's gain rounds to 0 and the root to r1
@example(edge="root", m=5, mu=1.0, share=0.2424301476289374, excess=0.0, width=1.0)
def test_the_census_matches_an_exact_count_at_knife_edges(edge, m, mu, share, excess, width):
    # "root": r1 a root of g, below the drop-free optimum (excess > 0) or above it;
    # "twice": a lone user with r2 = 2 r1, whose root r2 / 2 is then r1;
    # "optimum": a lone user whose ramp starts at its drop-free optimum
    r1 = mu * share
    q = mu - r1
    alpha = r1 / q * 10.0**excess
    if edge == "root":
        assume(m * alpha * q != r1)
        r2 = r1 * (m * alpha * q + alpha * q - 2.0 * r1) / (m * alpha * q - r1)
    elif edge == "twice":
        m, r2 = 1, 2.0 * r1
    else:
        m, r1 = 1, optimal_total_rate(GameConfig.uniform(mu, alpha, 1))
        r2 = r1 + r1 * width
    assume(r1 < r2 < math.inf)
    # the lone user's triple corner, r1 and r2 / 2 at the optimum, is pinned below
    optimum = optimal_total_rate(GameConfig.uniform(mu, alpha, 1))
    assume(m > 1 or max(abs(r1 / optimum - 1.0), abs(r2 / (2.0 * r1) - 1.0)) > 1e-4)
    _assert_the_census_is_exact(LinearPolicy(r1, r2), GameConfig.uniform(mu, alpha, m))


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _meeting_service_rates(alpha, m, r1, r2):
    """Service rates at which two roots of the census condition meet in (r1, r2),
    and the one at which the headroom H touches 0 there.

    ``g`` is linear in mu, so its roots are the T at which mu equals
    ``mu(T) = T (r2 - T) (alpha lean + r2 - 2 T) / (alpha w lean)``, with
    ``lean = m r2 - (m + 1) T``; two roots meet at an extremum of ``mu(T)``,
    found on a grid and refined by golden section.  ``H = mu w - T (r2 - T)``
    touches 0 at ``r2 / 2`` when ``mu = r2^2 / (4 w)``.
    """
    w = r2 - r1

    def rate(t):
        lean = m * r2 - (m + 1) * t
        return t * (r2 - t) * (alpha * lean + r2 - 2.0 * t) / (alpha * w * lean)

    ts = np.linspace(r1, r2, 2001)[1:-1]
    rates = [r2 * r2 / (4.0 * w)]
    with np.errstate(all="ignore"):  # lean is 0 at one T
        grid = rate(ts)
        for k in range(1, len(ts) - 1):
            turn = (grid[k] - grid[k - 1]) * (grid[k] - grid[k + 1])
            if turn > 0.0 and grid[k] > 0.0 and math.isfinite(grid[k]):
                a, b, sign = ts[k - 1], ts[k + 1], math.copysign(1.0, grid[k] - grid[k - 1])
                for _ in range(80):
                    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
                    a, b = (a, d) if sign * rate(c) > sign * rate(d) else (c, b)
                rates.append(float(rate(0.5 * (a + b))))
    return [mu for mu in rates if math.isfinite(mu)]


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(-2.0, 1.0).map(lambda e: 10.0**e),
    m=st.integers(1, 12),
    r1=st.floats(-3.0, 6.0).map(lambda e: 10.0**e),
    width=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
    pick=st.integers(0, 2),
    nudge=st.floats(-12.0, -3.0).map(lambda e: 10.0**e),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_the_census_matches_an_exact_count_where_roots_nearly_meet(
    alpha, m, r1, width, pick, nudge, sign
):
    r2 = r1 + r1 * width
    # with m = 1, two roots of g meet only at r2 / 2, on its third root: that
    # triple corner is pinned by the test below
    rates = _meeting_service_rates(alpha, m, r1, r2)[: 1 if m == 1 else None]
    mu = rates[pick % len(rates)] * (1.0 + sign * nudge)
    assume(_in_domain(mu))
    _assert_the_census_is_exact(LinearPolicy(r1, r2), GameConfig.uniform(mu, alpha, m))


def test_a_lone_users_census_lists_one_root_where_three_nearly_meet():
    # Pins a defect.  With m = 1 the census condition is (r2 - 2 T) (alpha mu w -
    # (alpha + 1) T (r2 - T)), whose three roots meet at r2 / 2 when mu is
    # (alpha + 1) r2^2 / (4 alpha w).  Here mu lies 1e-10 below that, relative:
    # the roots are r2 / 2 and r2 / 2 -+ 2.08e-5, and the lone user's utility,
    # symmetric about r2 / 2, is as high at the outer two.  The depressed cubic's
    # q rounds to one ulp of 2 shift^3, its discriminant to +1.5e-31, and the
    # census lists one root, so it certifies a unique equilibrium.
    policy = LinearPolicy(1.0, 4.16227766016838)
    game = GameConfig.uniform(2.739252712818683, 1.0, 1)
    census = equilibrium_census(policy, game)
    assert census.roots == pytest.approx((2.0811180,), rel=1e-7) and census.unique
    assert _exact_census(policy, game, 1.5)[:2] == (3, False)


@settings(max_examples=150, deadline=None)
@given(
    m=st.sampled_from([2, 3]),
    alpha=st.sampled_from([0.5, 1.0, 2.0]),
    mu=st.floats(5.0, 50.0),
    epsilon=st.floats(0.0097, 0.206),
    keep_prob=st.sampled_from([0.9, 0.95]),
)
def test_the_census_of_a_design_matches_an_exact_count(m, alpha, mu, epsilon, keep_prob):
    # the designs of the equilibria benchmark
    game = GameConfig.uniform(mu, alpha, m)
    design = design_linear(DesignSpec(game, epsilon=epsilon, keep_prob=keep_prob))
    _assert_the_census_is_exact(design.policy, game)


# ------------------------------------------------------- tiny exponents
# A design's rates scale with alpha: at mu = 60 an exponent of 1e-18 puts them
# near 3e-29, just above RATE_FLOOR.  Below the floor the game is refused: there
# the cubics' coefficients turned subnormal, and from alpha near 1e-49 designed
# play drifted from its prediction.  An exponent above the floor whose design
# solves its ramp start below it is infeasible.


def test_designs_at_every_tiny_exponent_return_or_are_infeasible():
    matched = 0
    for k in range(1, 31):
        for m in (1, 2, 3, 8):
            for epsilon in (0.05, 2.0):
                spec = DesignSpec(GameConfig.uniform(60.0, 10.0**-k, m), epsilon)
                try:
                    design = designed_with_diagnostics(spec)
                except DesignInfeasibleError:
                    continue
                assert design.diagnostics.ne_matches_prediction, spec
                matched += 1
    assert matched >= 100


def test_an_exponent_below_the_floor_is_refused_naming_alpha_and_the_floor():
    message = "every alpha must be finite and at least 1e-30, got 1e-300"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        GameConfig.uniform(60.0, 1e-300, 1)


def test_a_design_whose_ramp_start_falls_below_the_floor_is_infeasible():
    # alpha = 1e-20 is in the domain, but the solved r1 is near 6.3e-31
    spec = DesignSpec(GameConfig.uniform(60.0, 1e-20, 2), 0.05)
    with pytest.raises(DesignInfeasibleError, match=r"r1=6\.29.*e-31, .* the rate floor 1e-30"):
        design_linear(spec)


@pytest.mark.parametrize("mu,alpha", [(60.0, 1e-100), (1e-55, 1.0)], ids=["alpha", "mu"])
def test_a_game_whose_designed_play_drifted_is_refused(mu, alpha):
    # designed play drifted from its prediction at rates near 3e-111 and 2.5e-56
    with pytest.raises(ValueError, match="must be (finite and )?at least 1e-30, got "):
        GameConfig.uniform(mu, alpha, 2)


def _scaled_real_roots(poly: Polynomial, unit: float) -> list[float]:
    """Real roots of ``poly`` from numpy's companion-matrix solve, with ``x``
    measured in the power of two nearest ``unit`` so nothing underflows."""
    k = math.frexp(unit)[1]
    n = len(poly.coef) - 1
    scaled = Polynomial([math.ldexp(float(c), (j - n) * k) for j, c in enumerate(poly.coef)])
    real = [r.real for r in scaled.roots() if abs(r.imag) <= 1e-9 * abs(r)]
    return sorted(math.ldexp(float(r), k) for r in real)


@pytest.mark.parametrize("alpha", [1e-18, 1e-19])
def test_a_design_at_the_rate_floor_solves_its_cubics_like_a_scaled_reference(alpha):
    mu, m = 60.0, 2
    game = GameConfig.uniform(mu, alpha, m)
    design = designed_with_diagnostics(DesignSpec(game, 0.05))
    assert design.diagnostics.all_ok
    policy = design.policy
    r1, r2 = policy.r1, policy.r2
    assert RATE_FLOOR < r1 < 1e3 * RATE_FLOOR
    w = r2 - r1
    x = Polynomial([0.0, 1.0])

    # the census cubic times w^2, from its unexpanded factors
    head = mu * w - x * (r2 - x)
    census = m * alpha * (r2 - x) * head - x * ((r2 - x) * (r2 - 2.0 * x) + alpha * head)
    want = [t for t in _scaled_real_roots(census, r2) if r1 < t < r2 and mu * w > t * (r2 - t)]
    got = equilibrium_census(policy, game).roots
    assert len(got) == len(want) == 1
    assert got[0] == pytest.approx(want[0], rel=1e-9)
    assert got[0] == pytest.approx(design.predicted_ne.total, rel=1e-9)

    # one user's stationarity cubic against the other's designed rate
    star = design.predicted_ne.rates[0]
    b = (m - 1) * star
    d = r2 - b
    ramp = alpha * (mu * w - (b + x) * (d - x)) * (d - 2.0 * x) - x * (d - x) * (d - b - 2.0 * x)
    (root,) = [r for r in _scaled_real_roots(ramp, r2) if max(0.0, r1 - b) < r < d]
    assert best_response(0, b, policy, game) == pytest.approx(root, rel=1e-9)
    assert root == pytest.approx(star, rel=1e-9)
