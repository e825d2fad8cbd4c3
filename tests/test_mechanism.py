"""Policy synthesis: targets, breakpoints, diagnostics.

A worked example (service rate 6, two users, exponent 2, keep
probability 0.9, effective target 3.9) pins the expected breakpoints;
everything else is cross-checked by independent numerics (finite
differences, grid scans, best-response runs).
"""

import math
import re
from decimal import Decimal, localcontext

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
    if m == 1 and r2 == 2.0 * r1:
        return  # the census's knife edge, pinned by the test below
    assert len(scaled_members) == len(members)
    # a census root can sit in a cluster of roots (with m = 1 one lies at r2 / 2), where
    # the cube root's rounding moved it by up to 36 ulps in 600,000 random draws
    assert all(_ulps(a, b) <= 64 for a, b in zip(scaled_members, members))


def test_a_lone_users_census_at_r2_twice_r1_depends_on_the_unit():
    # Pins a defect.  With m = 1 and r2 = 2 r1 the census cubic's root r2 / 2 is the
    # ramp start, where the root test (r1 < T) and the kink test (m lo <= r1) are both
    # on their boundary.  The lone user's best response to nothing is r1, an
    # equilibrium, yet at mu = 100 the root rounds onto r1 and lo above it, so the
    # census is empty; in a unit 2**-5 as large it holds the root.
    game = GameConfig.uniform(100.0, 1.0, 1)
    r1 = 100.0 * 10.0**-0.375
    policy = LinearPolicy(r1, r1 + r1)
    assert best_response(0, 0.0, policy, game) == r1
    assert equilibrium_census(policy, game) == EquilibriumCensus((), None, None)
    scaled = LinearPolicy(math.ldexp(r1, -5), math.ldexp(2.0 * r1, -5))
    (root,) = equilibrium_census(scaled, GameConfig.uniform(100.0 / 32.0, 1.0, 1)).roots
    assert math.ldexp(root, 5) == pytest.approx(r1, rel=1e-15)


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


@pytest.mark.parametrize("alpha, m", [(0.5, 5), (1.0, 2), (2.0, 2)])
def test_validation_plays_to_a_few_ulps_at_a_large_service_rate(monkeypatch, alpha, m):
    # an absolute 1e-10 is below one ulp of these rates, so play never stopped
    from mm1game import mechanism

    trajectories = []

    def recording_run_dynamics(*args, **kwargs):
        trajectories.append(run_dynamics(*args, **kwargs))
        return trajectories[-1]

    monkeypatch.setattr(mechanism, "run_dynamics", recording_run_dynamics)
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


def _reference_census(policy, config):
    """The census as it read with a generic root polish taking the condition
    as a closure.  The written-out polish keeps every float operation and
    its order, so it must reproduce this bit for bit."""
    alpha, m, mu = config.alpha, config.m, config.mu
    r1, r2 = policy.r1, policy.r2
    w = r2 - r1
    ma = m * alpha

    def condition(t):
        room = r2 - t
        head = mu * w - t * room
        return ma * room * head - t * (room * (r2 - 2.0 * t) + alpha * head)

    a = -(ma + 2.0 + alpha)
    b = (2.0 * ma + 3.0 + alpha) * r2
    c = -ma * (r2 * r2 + mu * w) - r2 * r2 - alpha * mu * w
    roots = []
    for x in _cubic_roots(a, b, c, ma * r2 * mu * w):
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
        if r1 < x < r2 and mu * w > x * (r2 - x):
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


def test_census_matches_its_reference_bit_for_bit():
    n = 10_000
    rng = np.random.default_rng(20261019)
    mu = 10.0 ** rng.uniform(-5.0, 20.0, n)
    alpha = 10.0 ** rng.uniform(-2.0, 1.0, n)
    m = rng.integers(1, 13, n)
    r1 = mu * 10.0 ** rng.uniform(-2.0, 0.5, n)
    r2 = r1 + r1 * 10.0 ** rng.uniform(-9.0, 1.0, n)
    seen = {"roots": 0, "kink": 0, "flat": 0}
    for k in range(n):
        policy = LinearPolicy(float(r1[k]), float(r2[k]))
        game = GameConfig.uniform(float(mu[k]), float(alpha[k]), int(m[k]))
        got = equilibrium_census(policy, game)
        want = _reference_census(policy, game)
        assert _census_hex(got.roots, got.kink, got.flat) == _census_hex(*want), (policy, game)
        seen["roots"] += bool(got.roots)
        seen["kink"] += got.kink is not None
        seen["flat"] += got.flat is not None
    assert min(seen.values()) >= 100, seen


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
