"""Closed forms (equilibrium, optima, anarchy ratios) against numeric oracles."""

import itertools
import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mm1game import (
    RATE_FLOOR,
    SERVICE_RATE_LIMIT,
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    WelfareKind,
    feasible,
    ne_closed_form,
    no_drop_report,
    optimal_total_rate,
    poa_at_symmetric_rate,
    poa_closed_form,
    poa_of_equilibrium,
    social_optimum_log,
    social_optimum_sum,
    utility,
    welfare,
)
from mm1game.analysis import _poa
from mm1game.model import _keep_and_load

CFG = GameConfig.uniform(6.0, 2.0, 2)

# frozen by hand: ((2*2+1)**3 / (2**2 * 3**3)) ** 2
POA_LOG_GOLDEN = 1.3395919067215365
# (2*2+1)**3 / (2 * 3**3)
POA_SUM_GOLDEN = 125.0 / 54.0


def test_optimal_total_rate_values():
    assert optimal_total_rate(CFG) == pytest.approx(4.0)
    assert optimal_total_rate(GameConfig.uniform(10.0, 1.0, 3)) == pytest.approx(5.0)
    assert optimal_total_rate(GameConfig.uniform(1.0, 100.0, 1)) == pytest.approx(100.0 / 101.0)


def test_ne_closed_form_values():
    assert ne_closed_form(CFG).rates == pytest.approx((2.4, 2.4))
    het = ne_closed_form(GameConfig(6.0, (1.0, 2.0)))
    assert het.rates == pytest.approx((1.5, 3.0))


@pytest.mark.parametrize("alpha,m", list(itertools.product([0.5, 1.0, 2.0, 3.0], [1, 2, 3, 5])))
def test_ne_is_stationary_for_every_user(alpha, m):
    """Independent check: the closed form sits at a zero of each utility slope."""
    cfg = GameConfig.uniform(6.0, alpha, m)
    ne = ne_closed_form(cfg)
    h = 1e-6
    for i in range(m):
        lam = ne.rates[i]
        up = utility(i, ne.replace(i, lam + h), NoDrop(), cfg)
        dn = utility(i, ne.replace(i, lam - h), NoDrop(), cfg)
        assert (up - dn) / (2 * h) == pytest.approx(0.0, abs=1e-4)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_sum_optimum_beats_a_dense_grid(alpha):
    cfg = GameConfig.uniform(6.0, alpha, 2)
    profile, value = social_optimum_sum(cfg)
    assert value == pytest.approx(welfare(profile, NoDrop(), cfg, WelfareKind.SUM_UTILITY))
    axis = np.linspace(0.0, cfg.mu * 0.99, 140)
    best = -math.inf
    for a, b in itertools.product(axis, axis):
        if a + b < cfg.mu:
            best = max(best, welfare(RateProfile((a, b)), NoDrop(), cfg, WelfareKind.SUM_UTILITY))
    assert value >= best - 1e-6
    if alpha > 1.0:
        # all traffic on one user
        assert profile.rates[1] == 0.0
        assert profile.rates[0] == pytest.approx(optimal_total_rate(cfg))
    else:
        assert profile.rates[0] == pytest.approx(profile.rates[1])


def test_log_optimum_is_even_split_and_beats_grid():
    profile = social_optimum_log(CFG)
    assert profile.rates == (2.0, 2.0)  # exact: 4 split two ways
    base = welfare(profile, NoDrop(), CFG, WelfareKind.SUM_LOG_UTILITY)
    axis = np.linspace(0.05, 5.5, 120)
    for a, b in itertools.product(axis, axis):
        if a + b < CFG.mu:
            w = welfare(RateProfile((a, b)), NoDrop(), CFG, WelfareKind.SUM_LOG_UTILITY)
            assert base >= w - 1e-9


def test_welfare_log_of_zero_utility():
    assert welfare(RateProfile((0.0, 2.0)), NoDrop(), CFG, WelfareKind.SUM_LOG_UTILITY) == -math.inf
    assert welfare(RateProfile((0.0, 2.0)), NoDrop(), CFG, WelfareKind.SUM_UTILITY) == pytest.approx(
        utility(1, RateProfile((0.0, 2.0)), NoDrop(), CFG)
    )


def test_poa_closed_form_golden_values():
    assert poa_closed_form(2, 2.0, WelfareKind.SUM_LOG_UTILITY) == pytest.approx(POA_LOG_GOLDEN)
    assert poa_closed_form(2, 2.0, WelfareKind.SUM_UTILITY) == pytest.approx(POA_SUM_GOLDEN)


@pytest.mark.parametrize("kind", list(WelfareKind))
def test_poa_closed_form_single_user_is_one(kind):
    assert poa_closed_form(1, 2.0, kind) == pytest.approx(1.0)
    assert poa_closed_form(1, 0.7, kind) == pytest.approx(1.0)


def test_poa_closed_form_validation():
    with pytest.raises(ValueError):
        poa_closed_form(0, 2.0, WelfareKind.SUM_UTILITY)
    with pytest.raises(ValueError):
        poa_closed_form(2, 0.0, WelfareKind.SUM_UTILITY)


def test_closed_form_overflows_name_their_inputs():
    with pytest.raises(OverflowError, match=r"^the price of anarchy overflows a float at m=200, alpha=3$"):
        poa_closed_form(200, 3.0, WelfareKind.SUM_LOG_UTILITY)
    with pytest.raises(OverflowError, match=r"^the price of anarchy overflows a float at m=200, alpha=200$"):
        poa_closed_form(200, 200.0, WelfareKind.SUM_UTILITY)
    with pytest.raises(OverflowError, match=r"^the social optimum overflows a float at mu=6, alpha=400$"):
        social_optimum_sum(GameConfig.uniform(6.0, 400.0, 2))


def test_a_closed_form_ratio_within_a_double_does_not_overflow():
    # (2 * 400 + 1) ** 401 overflows a double, the ratio it enters does not: in exact
    # arithmetic the plain sum's is 801**401 / (2 * 401**401) and the log kind's is
    # (801**401 / (2**400 * 401**401)) ** 2
    with localcontext() as ctx:
        ctx.prec = 60
        per_user = Decimal(801) ** 401 / (Decimal(2) ** 400 * Decimal(401) ** 401)
        want = {
            WelfareKind.SUM_UTILITY: per_user * 2**399,
            WelfareKind.SUM_LOG_UTILITY: per_user**2,
        }
    for kind, value in want.items():
        assert poa_closed_form(2, 400.0, kind) == pytest.approx(float(value), rel=1e-13)


@pytest.mark.parametrize("alpha,m", list(itertools.product([0.5, 1.0, 2.0, 3.0], [1, 2, 3, 5])))
def test_poa_formula_matches_direct_evaluation(alpha, m):
    """Dual route: formula vs welfare ratios computed from the actual profiles."""
    cfg = GameConfig.uniform(6.0, alpha, m)
    ne = ne_closed_form(cfg)
    # plain-sum kind: ratio of welfare values
    _, opt_value = social_optimum_sum(cfg)
    ne_value = welfare(ne, NoDrop(), cfg, WelfareKind.SUM_UTILITY)
    assert poa_closed_form(m, alpha, WelfareKind.SUM_UTILITY) == pytest.approx(
        opt_value / ne_value, rel=1e-10
    )
    # log kind: welfare gap mapped back through exp
    opt_log = welfare(social_optimum_log(cfg), NoDrop(), cfg, WelfareKind.SUM_LOG_UTILITY)
    ne_log = welfare(ne, NoDrop(), cfg, WelfareKind.SUM_LOG_UTILITY)
    assert poa_closed_form(m, alpha, WelfareKind.SUM_LOG_UTILITY) == pytest.approx(
        math.exp(opt_log - ne_log), rel=1e-10
    )


def test_poa_of_equilibrium_agrees_with_formula_at_the_ne():
    for kind in WelfareKind:
        got = poa_of_equilibrium(ne_closed_form(CFG), NoDrop(), CFG, kind)
        assert got == pytest.approx(poa_closed_form(2, 2.0, kind), rel=1e-12)


def test_poa_of_equilibrium_zero_utility_is_infinite():
    prof = RateProfile((0.0, 2.0))
    assert poa_of_equilibrium(prof, NoDrop(), CFG, WelfareKind.SUM_LOG_UTILITY) == math.inf


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(-30.0, 21.0, exclude_max=True).map(lambda e: 10.0**e),
    alpha=st.floats(-1.0, 1.5).map(lambda e: 10.0**e),
    # each rate a share of the optimum's per-user rate; no share is so small that a
    # rate turns subnormal, where a change of units rounds
    shares=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)), min_size=1, max_size=12),
    ramp=st.one_of(st.none(), st.tuples(st.floats(0.3, 2.0), st.floats(-6.0, 1.0))),
    fill=st.floats(1e-3, 0.999),
    kind=st.sampled_from(list(WelfareKind)),
    k=st.integers(-60, 60),
)
def test_scaling_every_rate_by_a_power_of_two_leaves_the_price_of_anarchy_bit_for_bit(
    mu, alpha, shares, ramp, fill, kind, k
):
    # a ratio of welfare has no unit, so a change of units must not change its rounding
    assume(RATE_FLOOR <= math.ldexp(mu, k) < SERVICE_RATE_LIMIT)
    m = len(shares)
    per_user = optimal_total_rate(GameConfig.uniform(mu, alpha, m)) / m
    rates = [share * per_user for share in shares]
    if ramp is not None:
        r1 = ramp[0] * per_user * m
        r2 = r1 + r1 * 10.0 ** ramp[1]
        assume(min(r1, math.ldexp(r1, k)) >= RATE_FLOOR)

    def ratios(unit):
        game = GameConfig.uniform(math.ldexp(mu, unit), alpha, m)
        if ramp is None:
            policy = NoDrop()
        else:
            policy = LinearPolicy(math.ldexp(r1, unit), math.ldexp(r2, unit))
        profile = RateProfile([math.ldexp(r, unit) for r in rates])
        out = [poa_at_symmetric_rate(game, kind, math.ldexp(fill * mu, unit))]
        if feasible(profile, policy, game):
            out.append(poa_of_equilibrium(profile, policy, game, kind))
        return out

    assert ratios(k) == ratios(0)


def _exact_poa(config, kind, accepted, headroom):
    """The drop-free optimum over the welfare of ``accepted`` rates sharing ``headroom``,
    in 60-digit decimal from the exact values of the arguments."""
    with localcontext() as ctx:
        ctx.prec = 60
        mu, alpha, m = Decimal(config.mu), Decimal(config.alpha), config.m
        lam = mu * alpha / (alpha + 1)
        if kind is WelfareKind.SUM_LOG_UTILITY:
            logs = [alpha * (lam / (m * x)).ln() for x in accepted]
            return +(sum(logs) + m * ((mu - lam) / headroom).ln()).exp()
        count, a = (1, lam) if alpha > 1 else (m, lam / m)
        welfare = sum((alpha * x.ln()).exp() for x in accepted if x) * headroom
        return count * (alpha * a.ln()).exp() * (mu - lam) / welfare


def _near_optimal_profile(rng, kind, m):
    """A game and a profile whose accepted rates lie within 1e-9 to 1e-2 of the optimum's,
    relative, kept whole (no dropping) or thinned by a ramp."""
    mu = 10.0 ** rng.uniform(-3.0, 6.0)
    alpha = 10.0 ** rng.uniform(math.log10(0.2), math.log10(5.0))
    config = GameConfig.uniform(mu, alpha, m)
    lam = optimal_total_rate(config)
    if kind is WelfareKind.SUM_UTILITY and alpha > 1.0:
        centre = [lam] + [1e-3 * lam] * (m - 1)  # the optimum sends lam through one user
    else:
        centre = [lam / m] * m
    spread = 10.0 ** rng.uniform(-9.0, -2.0)
    accepted = [c * (1.0 + spread * rng.uniform(-1.0, 1.0)) for c in centre]
    if rng.random() < 0.5:
        return config, RateProfile(accepted), NoDrop()
    keep = rng.uniform(0.5, 1.0)
    profile = RateProfile([x / keep for x in accepted])
    total = profile.total
    return config, profile, LinearPolicy(keep * total, total + keep * total)


# Worst errors, in ulps of the exact ratio, over 6,000 profiles per (kind, m) drawn as
# below (seeds 1000 s + m, s = 1-3), first against the exact ratio of the profile and
# then against the exact ratio of the float rates and headroom that _poa was given:
#   sum kind, m = 1, 2, 3, 8, 50:  profile 3.2, 6.4, 6.9, 9.3, 33;  own 3.2, 3.3, 3.0, 3.8, 4.5
#   log kind, m = 1, 2, 3, 8, 50:  profile 1.5, 11, 14, 50, 643;    own 1.3, 3.0, 8.5, 8.3, 50
# When the ratio was formed from utilities the same profiles gave, for the sum kind,
# 24-47 (own 23-41) and, for the log kind, 2.1, 12, 17, 56, 634 (own 2.7, 5.3, 13, 18,
# 182).  The profile's log-kind error grows with m because the headroom is mu minus a
# float sum of m rates, which the ratio then raises to the m-th power.  The bounds are
# 1.7 to 2.7 times the worst seen.
_ORACLE_BOUNDS = {
    WelfareKind.SUM_UTILITY: {1: (6, 6), 2: (12, 6), 3: (12, 6), 8: (16, 8), 50: (60, 8)},
    WelfareKind.SUM_LOG_UTILITY: {
        1: (4, 4), 2: (20, 6), 3: (28, 16), 8: (100, 16), 50: (1100, 100)
    },
}


@pytest.mark.parametrize("m,count", [(1, 150), (2, 150), (3, 150), (8, 150), (50, 50)])
@pytest.mark.parametrize("kind", list(WelfareKind), ids=lambda kind: kind.value)
def test_poa_near_the_optimum_matches_a_60_digit_oracle(kind, m, count):
    profile_bound, own_bound = _ORACLE_BOUNDS[kind][m]
    rng = random.Random(m)
    for _ in range(count):
        config, profile, policy = _near_optimal_profile(rng, kind, m)
        keep, load = _keep_and_load(profile, policy, config)
        accepted = [r * keep for r in profile.rates]
        headroom = config.mu - load
        got = poa_of_equilibrium(profile, policy, config, kind)
        assert got == _poa(config, kind, accepted, headroom)
        # the profile's exact ratio: its keep probability, rates and headroom in decimal
        with localcontext() as ctx:
            ctx.prec = 60
            rates = [Decimal(r) for r in profile.rates]
            total = sum(rates)
            r1, r2 = Decimal(policy.r1), Decimal(policy.r2)  # NoDrop's are infinite
            p = Decimal(1) if total <= r1 else (r2 - total) / (r2 - r1)
            exact = [r * p for r in rates], Decimal(config.mu) - total * p
        for (xs, h), bound in (
            (exact, profile_bound),
            (([Decimal(x) for x in accepted], Decimal(headroom)), own_bound),
        ):
            want = _exact_poa(config, kind, xs, h)
            ulp = Decimal(math.ulp(float(want)))
            assert abs(Decimal(got) - want) <= bound * ulp, (config, profile)


@settings(max_examples=500, deadline=None)
@given(
    mu=st.floats(RATE_FLOOR, SERVICE_RATE_LIMIT, exclude_max=True),
    alpha=st.floats(RATE_FLOOR, 1e4),
    shares=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8),
    room=st.floats(0.0, 1.0, exclude_min=True),
    kind=st.sampled_from(list(WelfareKind)),
)
def test_the_ratio_from_rates_never_raises_over_the_domain(mu, alpha, shares, room, kind):
    config = GameConfig.uniform(mu, alpha, len(shares))
    lam = optimal_total_rate(config)
    optimum = lam if kind is WelfareKind.SUM_UTILITY and alpha > 1.0 else lam / config.m
    headroom = room * mu
    assume(headroom > 0.0)
    ratio = _poa(config, kind, [share * optimum for share in shares], headroom)
    assert ratio >= 0.0  # not NaN either


def test_an_optimum_without_headroom_in_a_float_is_named():
    # alpha / (alpha + 1) rounds to 1, so the optimal total is mu itself
    game = GameConfig.uniform(20.0, 1e17, 2)
    for kind in WelfareKind:
        with pytest.raises(ValueError, match=r"^the drop-free optimum leaves no headroom in a float at alpha=1e\+17$"):
            poa_of_equilibrium(RateProfile((5.0, 5.0)), NoDrop(), game, kind)


def test_poa_grows_with_the_number_of_users():
    vals = [poa_closed_form(m, 2.0, WelfareKind.SUM_LOG_UTILITY) for m in range(1, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_no_drop_report_is_internally_consistent():
    rep = no_drop_report(CFG, WelfareKind.SUM_LOG_UTILITY)
    assert rep.poa == rep.pos == pytest.approx(POA_LOG_GOLDEN)
    assert rep.ne_profile.rates == pytest.approx((2.4, 2.4))
    assert rep.optimum_profile.rates == (2.0, 2.0)
    assert rep.ne_value == pytest.approx(
        welfare(rep.ne_profile, NoDrop(), CFG, WelfareKind.SUM_LOG_UTILITY)
    )

    rep_sum = no_drop_report(CFG, WelfareKind.SUM_UTILITY)
    assert rep_sum.poa == pytest.approx(POA_SUM_GOLDEN)
    assert rep_sum.optimum_value >= rep_sum.ne_value
