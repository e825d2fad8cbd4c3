"""Closed forms (equilibrium, optima, anarchy ratios) against numeric oracles."""

import itertools
import math

import numpy as np
import pytest

from mm1game import (
    GameConfig,
    NoDrop,
    RateProfile,
    WelfareKind,
    ne_closed_form,
    no_drop_report,
    optimal_total_rate,
    poa_closed_form,
    poa_of_equilibrium,
    social_optimum_log,
    social_optimum_sum,
    utility,
    welfare,
)

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
    with pytest.raises(OverflowError, match=r"at m=2, alpha=400$"):
        poa_closed_form(2, 400.0, WelfareKind.SUM_UTILITY)
    with pytest.raises(OverflowError, match=r"^the social optimum overflows a float at mu=6, alpha=400$"):
        social_optimum_sum(GameConfig.uniform(6.0, 400.0, 2))


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
