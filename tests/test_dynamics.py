"""Best responses, iterated play, equilibrium verification, response fields.

best_response solves a cubic on a linear policy.  It is audited against
``verify_equilibrium``'s dense scan, brute-force grids and scipy's bounded
scalar minimizer, which share none of its code; its interior answers must
zero ``marginal_utility``, and each kind of candidate it weighs (a root of
the cubic, the ramp start), the dominance of the flat-piece optimum that
needs no candidate, and its tie rule are pinned by cases of their own.
Best responses and whole trajectories are also compared bit for bit with the
closure-based code and per-round loop they replaced, kept here as references.
"""

import itertools
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from mm1game import dynamics
from mm1game import (
    EXPONENT_LIMIT,
    RAMP_LIMIT,
    RATE_FLOOR,
    SERVICE_RATE_LIMIT,
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    StepPolicy,
    UnstableQueueError,
    UpdateMode,
    best_response,
    design_linear,
    designed_with_diagnostics,
    DesignSpec,
    keep_probability,
    marginal_utility,
    ne_closed_form,
    potential,
    response_field,
    run_dynamics,
    triangular_grid,
    utility,
    verify_equilibrium,
)

CFG = GameConfig.uniform(6.0, 2.0, 2)
FIG7_CFG = GameConfig.uniform(10.0, 2.0, 2)
FIG7_POLICY = LinearPolicy(7.0321, 7.8222)


def _own_utility(rate, others, alpha, mu, policy):
    prof = np.asarray(rate, dtype=float)
    total = others + prof
    p = keep_probability(policy, total)
    return (prof * p) ** alpha * (mu - total * p)


# --------------------------------------------------------------- best response


def test_best_response_no_drop_closed_form():
    assert best_response(0, 2.4, NoDrop(), CFG) == pytest.approx(2.4)
    # alpha (mu - b) / (alpha + 1) for a few operating points
    for b in (0.0, 1.0, 3.7):
        assert best_response(0, b, NoDrop(), CFG) == pytest.approx(2.0 * (6.0 - b) / 3.0)
    assert best_response(0, 6.0, NoDrop(), CFG) == 0.0
    assert best_response(0, 9.0, NoDrop(), CFG) == 0.0


def test_best_response_step_caps_at_the_threshold():
    pol = StepPolicy(4.0)
    # unconstrained would be 8/3, the cap bites at 2
    assert best_response(0, 2.0, pol, CFG) == pytest.approx(2.0)
    assert best_response(0, 3.8, pol, CFG) == pytest.approx(0.2)
    # at zero others the unconstrained optimum meets this threshold exactly
    assert best_response(0, 0.0, pol, CFG) == pytest.approx(4.0)
    # a looser threshold leaves the unconstrained optimum slack
    assert best_response(0, 0.0, StepPolicy(5.0), CFG) == pytest.approx(4.0)
    assert best_response(0, 1.0, StepPolicy(5.0), CFG) == pytest.approx(10.0 / 3.0)
    assert best_response(0, 4.5, pol, CFG) == 0.0  # no room left


def test_best_response_linear_fixed_point_worked_example():
    design = design_linear(DesignSpec(CFG, epsilon=0.05, keep_prob=0.9, target_effective_total=3.9))
    lam = design.target_raw_total / 2
    assert best_response(0, lam, design.policy, CFG) == pytest.approx(lam, abs=1e-6)


def test_best_response_rejects_negative_others():
    with pytest.raises(ValueError):
        best_response(0, -0.5, NoDrop(), CFG)


@pytest.mark.parametrize(
    "policy", [LinearPolicy(2.0, 5.0), StepPolicy(4.0), NoDrop()], ids=["ramp", "step", "none"]
)
def test_best_response_rejects_nan_others(policy):
    with pytest.raises(ValueError, match="others_total must be non-negative, got nan"):
        best_response(0, math.nan, policy, CFG)


def test_best_response_beats_dense_scans():
    """200 random (policy, load) cases: nothing on a 10^4 grid does better."""
    rng = np.random.default_rng(123)
    for _ in range(200):
        alpha = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        cfg = GameConfig.uniform(6.0, alpha, 2)
        r1 = float(rng.uniform(2.0, 5.0))
        pol = LinearPolicy(r1, r1 + float(rng.uniform(0.3, 3.0)))
        others = float(rng.uniform(0.0, 0.9 * min(pol.r2, cfg.mu)))
        br = best_response(0, others, pol, cfg)
        u_br = _own_utility(br, others, alpha, cfg.mu, pol)
        grid = np.linspace(0.0, max(pol.r2 - others, 1e-6), 10_000)
        u_grid = _own_utility(grid, others, alpha, cfg.mu, pol)
        assert u_br >= float(u_grid.max()) - 1e-9


@pytest.mark.parametrize("others", [0.0, 1.3, 2.1667, 3.9])
def test_best_response_matches_scipy(others):
    pol = LinearPolicy(4.3012, 4.6222)
    br = best_response(0, others, pol, CFG)
    u_br = _own_utility(br, others, 2.0, 6.0, pol)
    res = minimize_scalar(
        lambda x: -_own_utility(x, others, 2.0, 6.0, pol),
        bounds=(0.0, max(pol.r2 - others, 1e-9)),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert u_br >= -res.fun - 1e-9


def _ramp_cases(n, seed):
    """Seeded (mu, alpha, policy, others) cases over linear policies.

    Mixed exponents in [0.2, 3]; others' totals over [0, 1.3 r2], a fifth of
    them within 1% of r2, where the keep probability at the answer is tiny;
    r1 up to 1.2 mu, so some totals pass r1 and some pass mu.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(5.0, 50.0, n)
    r1 = rng.uniform(0.2, 1.2, n) * mu
    r2 = r1 + rng.uniform(0.02, 1.0, n) * mu
    alpha = rng.uniform(0.2, 3.0, n)
    near_r2 = rng.random(n) < 0.2
    others = np.where(
        near_r2, r2 * (1.0 + rng.uniform(-0.01, 0.01, n)), rng.uniform(0.0, 1.3 * r2)
    )
    for k in range(n):
        yield (
            float(mu[k]),
            float(alpha[k]),
            LinearPolicy(float(r1[k]), float(r2[k])),
            float(others[k]),
        )


def _ramp_utility(rate, others, alpha, mu, policy):
    """One user's utility on a linear policy, keep probability ``(d - x) / w``.

    ``d = r2 - others`` is formed once, so no total near r2 is formed and
    subtracted again: unlike ``r2 - (others + rate)``, this carries no
    cancellation noise when the keep probability is tiny.
    """
    d = policy.r2 - others
    p = min(1.0, max(0.0, (d - rate) / (policy.r2 - policy.r1)))
    return (rate * p) ** alpha * (mu - (others + rate) * p)


def _scan_best(others, alpha, mu, policy):
    """verify_equilibrium's dense scan over [0, r2 - others]: the oracle.

    The scan picks its argmax from noisy values; its utility is then taken
    again with :func:`_ramp_utility`, so the oracle's value is not the best of
    ~40 rounding errors.
    """
    hi = policy.r2 - others
    if hi <= 0.0:
        return 0.0
    x, _ = dynamics._grid_golden_max(
        lambda x: dynamics._own_utility(x, others, alpha, mu, policy), 0.0, hi, 10_001, 1e-10
    )
    return _ramp_utility(x, others, alpha, mu, policy)


def _on_the_ramp(br, others, policy):
    """Whether ``br`` is an interior answer: strictly inside the ramp, not its start."""
    return br != max(0.0, policy.r1 - others) and policy.r1 < others + br < policy.r2


def test_best_response_matches_the_dense_scan_on_ten_thousand_ramps():
    """Never below the oracle by more than 1e-11 relative, on every stratum.

    Both sides are valued by :func:`_ramp_utility`, so near r2 the bound
    measures the answer and not the cancellation noise of ``r2 - (B + x)``.
    """
    seen = {"others_past_r1": 0, "others_past_mu": 0, "near_r2": 0, "interior": 0, "zero": 0}
    for mu, alpha, pol, others in _ramp_cases(10_000, 20261018):
        cfg = GameConfig(mu, (alpha,))
        br = best_response(0, others, pol, cfg)
        u_br = _ramp_utility(br, others, alpha, mu, pol)
        best = _scan_best(others, alpha, mu, pol)
        assert u_br >= 0.0
        assert u_br >= best - 1e-11 * abs(best), (mu, alpha, pol, others, br)
        seen["others_past_r1"] += others > pol.r1
        seen["others_past_mu"] += others >= mu
        seen["near_r2"] += abs(others - pol.r2) <= 0.01 * pol.r2
        seen["interior"] += _on_the_ramp(br, others, pol)
        seen["zero"] += br == 0.0
    assert min(seen.values()) >= 500, seen


def test_best_response_holds_on_near_cliff_ramps():
    """Ramps as narrow as 1e-6 of r2, others' totals within 1e-9 to 1e-2 of r2.

    Here the expanded cubic's roots alone trail the oracle by up to ~6e-4
    relative in about one case in eight; the Newton polish on the unexpanded
    condition brings every answer within the same 1e-11.
    """
    rng = np.random.default_rng(20261019)
    interior = 0
    for _ in range(1000):
        mu, alpha = rng.uniform(1.0, 20.0), rng.uniform(0.2, 3.0)
        r2 = mu * rng.uniform(0.3, 1.5)
        pol = LinearPolicy(r2 * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0)), r2)
        others = r2 * (1.0 - 10.0 ** rng.uniform(-9.0, -2.0))
        br = best_response(0, others, pol, GameConfig(mu, (alpha,)))
        best = _scan_best(others, alpha, mu, pol)
        assert _ramp_utility(br, others, alpha, mu, pol) >= best - 1e-11 * best, (
            mu, alpha, pol, others, br,
        )
        interior += _on_the_ramp(br, others, pol)
    assert interior >= 500


def _log_score(rate, others, alpha, mu, policy):
    """``alpha log(x p) + log q`` on a linear policy, -inf where either is not positive.

    Takes a float or an array of rates.  At large exponents a power of the
    accepted rate overflows or underflows a double, its logarithm does not.
    """
    p = np.minimum(1.0, (policy.r2 - others - rate) / (policy.r2 - policy.r1))
    a, q = rate * p, mu - (others + rate) * p
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((a > 0.0) & (q > 0.0), alpha * np.log(a) + np.log(q), -np.inf)


def test_best_response_matches_a_log_scan_up_to_the_exponent_limit():
    """Exponents log-uniform up to EXPONENT_LIMIT, service rates over the whole
    domain, 1 to 12 users, ramps 1e-6 to 1e3 times mu wide, others' totals
    below r1 and in [r1, r2).

    The oracle scans the log utility on 4,001 points plus golden refinement.
    Rounding of ``alpha log(x p)`` is relative to its size, so the answer may
    trail the scan by 1e-10 of the terms' sizes; an answer of 0 where the scan
    earns a positive utility scores -inf and fails.
    """
    rng = np.random.default_rng(20261020)
    top = math.log10(EXPONENT_LIMIT)
    seen = {"alpha_past_1e6": 0, "others_past_r1": 0, "interior": 0, "ramp_start": 0}
    for k in range(1500):
        alpha = EXPONENT_LIMIT if k % 100 == 0 else float(10.0 ** rng.uniform(-1.0, top))
        mu = min(float(10.0 ** rng.uniform(-30.0, 21.0)), 0.99 * SERVICE_RATE_LIMIT)
        m = int(rng.integers(1, 13))
        r1 = max(RATE_FLOOR, float(rng.uniform(0.05, 1.5)) * mu)
        pol = LinearPolicy(r1, r1 + float(10.0 ** rng.uniform(-6.0, 3.0)) * mu)
        if m == 1:
            others = 0.0
        else:
            others = float(rng.uniform(0.0, r1) if rng.random() < 0.5 else rng.uniform(r1, pol.r2))
        br = best_response(m - 1, others, pol, GameConfig(mu, (1.0,) * (m - 1) + (alpha,)))
        x, best = dynamics._grid_golden_max(
            lambda x: _log_score(x, others, alpha, mu, pol),
            0.0, pol.r2 - others, 4001, 1e-15 * (pol.r2 - others),
        )
        if best > -math.inf:
            p = min(1.0, (pol.r2 - others - x) / (pol.r2 - pol.r1))
            size = 1.0 + alpha * abs(math.log(x * p)) + abs(math.log(mu - (others + x) * p))
            got = float(_log_score(br, others, alpha, mu, pol))
            assert got >= best - 1e-10 * size, (mu, alpha, pol, others, br)
        seen["alpha_past_1e6"] += alpha > 1e6
        seen["others_past_r1"] += others >= r1
        seen["interior"] += _on_the_ramp(br, others, pol)
        seen["ramp_start"] += br == r1 - others
    assert min(seen.values()) >= 100, seen


def _stepped_log_scan(others, alpha, mu, policy):
    """Best ``(rate, log utility)`` on ``[0, d]``, ``d = r2 - others``.

    A 4,001-point grid, and 4,001 log steps each up from 0 and down from
    ``d``, each refined by golden section.  On a ramp far wider than mu the
    best rate lies within ~mu of 0 or of ``d``, inside one grid step; the log
    steps reach both bands.
    """
    d = policy.r2 - others

    def score(x):
        return _log_score(x, others, alpha, mu, policy)

    found = [dynamics._grid_golden_max(score, 0.0, d, 4001, 1e-15 * d)]
    for rate in (np.exp, lambda t: d - np.exp(t)):
        t, u = dynamics._grid_golden_max(
            lambda t: score(rate(t)), math.log(math.ulp(d)), math.log(d), 4001, 1e-12
        )
        found.append((float(rate(t)), u))
    return max(found, key=lambda c: c[1])


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(-2.0, 6.0).map(lambda e: 10.0**e),
    alpha=st.floats(0.2, 3.0),
    top=st.floats(6.0, 12.0),  # log10(r2 / mu), up to the ramp limit
    start=st.floats(0.0, 1.0),  # where log10(r1 / mu) lies in [-3, top + log10(0.999)]
    share=st.floats(0.0, 1.2),  # the others' total over mu
)
@example(mu=10.0, alpha=2.0, top=12.0, start=0.0, share=0.025)
def test_best_response_matches_a_stepped_log_scan_on_ramps_up_to_the_ramp_limit(
    mu, alpha, top, start, share
):
    """Ramps 1e6 to 1e12 times mu wide and at least 1e-3 r2, others' totals up to 1.2 mu.

    Near the ramp's top ``d`` a rate is a float within one ulp of ``d``, and
    the keep probability ``(d - x) / w`` moves by ``ulp(d) / (d - x)`` of
    itself from one float to the next.  So an answer there may trail the real
    optimum by about ``(alpha + 1) (ulp(d) / (d - x))**2`` in log utility,
    where the scan may find a rate away from ``d`` (the flat optimum, when
    the others send nothing, ties with the ramp).  That is the answer's
    slack; at ``r2**2 / (mu w) = 1e15`` it is ~0.06.  Others' totals near
    ``r2`` on such ramps are not drawn: there the answer can be 0 where a
    positive utility is on offer (see CHANGES.md).
    """
    r2 = min(10.0**top * mu, RAMP_LIMIT * mu)
    r1 = 10.0 ** (-3.0 + start * (top + math.log10(0.999) + 3.0)) * mu
    assume(r2 - r1 >= 1e6 * mu)
    policy, others = LinearPolicy(r1, r2), share * mu
    br = best_response(0, others, policy, GameConfig(mu, (alpha, 1.0)))
    x, best = _stepped_log_scan(others, alpha, mu, policy)
    if best > -math.inf:
        p = min(1.0, (r2 - others - x) / (r2 - r1))
        size = 1.0 + alpha * abs(math.log(x * p)) + abs(math.log(mu - (others + x) * p))
        d = r2 - others
        slack = (alpha + 1.0) * (math.ulp(d) / (d - br)) ** 2 if br < d else math.inf
        got = float(_log_score(br, others, alpha, mu, policy))
        assert got >= best - 1e-10 * size - slack, (mu, alpha, policy, others, br, x)


def test_interior_best_responses_zero_the_marginal_utility():
    """At every answer strictly inside the ramp the first-order condition holds.

    The residual is measured against the size of the three terms of
    ``u * d/dx log u``, so it is relative at every scale.
    """
    checked = 0
    for mu, alpha, pol, others in _ramp_cases(10_000, 20261018):
        cfg = GameConfig(mu, (alpha, 1.0))
        br = best_response(0, others, pol, cfg)
        if not _on_the_ramp(br, others, pol):
            continue
        profile = RateProfile((br, others))
        total = profile.total
        p = keep_probability(pol, total)
        q = mu - total * p
        u = utility(0, profile, pol, cfg)
        scale = u * (alpha / br + alpha * abs(pol.slope) / p + abs(p + pol.slope * total) / q)
        assert abs(marginal_utility(0, profile, pol, cfg)) <= 1e-10 * scale, (mu, alpha, pol, others)
        checked += 1
    assert checked >= 3000


def test_the_ramp_beats_the_flat_piece_optimum():
    """Whenever the drop-free optimum ``star`` fits below r1, some ramp rate
    keeps the user's accepted rate at ``star`` while dropping part of the
    others' load, so the answer is on the ramp and earns at least as much."""
    cases = 0
    for mu, alpha, pol, others in _ramp_cases(10_000, 7):
        star = alpha * (mu - others) / (alpha + 1.0)
        if not (others < mu and others + star <= pol.r1):
            continue
        br = best_response(0, others, pol, GameConfig(mu, (alpha,)))
        u_star = float(_own_utility(star, others, alpha, mu, pol))
        assert br > pol.r1 - others
        assert float(_own_utility(br, others, alpha, mu, pol)) > u_star
        cases += 1
    assert cases >= 500
    # a lone user ties: its utility depends on its accepted rate alone
    alpha, mu = 0.3, 6.0
    star = alpha * mu / (alpha + 1.0)
    pol = LinearPolicy(2.0, 5.0)
    br = best_response(0, 0.0, pol, GameConfig(mu, (alpha,)))
    assert br > pol.r1
    assert float(_own_utility(br, 0.0, alpha, mu, pol)) == pytest.approx(
        float(_own_utility(star, 0.0, alpha, mu, pol)), rel=1e-14
    )


def test_best_response_takes_the_ramp_start():
    """Utility climbs up to r1 and a near-cliff ramp past it costs more than it gives."""
    pol = LinearPolicy(3.0, 3.01)
    br = best_response(0, 1.0, pol, CFG)
    assert br == 2.0
    assert _ramp_utility(br, 1.0, 2.0, 6.0, pol) >= _scan_best(1.0, 2.0, 6.0, pol)


def test_best_response_takes_a_root_of_the_cubic():
    """On the Fig. 7 ramp the answer is a stationary point strictly inside it."""
    cfg = GameConfig(10.0, (2.0, 2.0))
    br = best_response(0, 3.5, FIG7_POLICY, cfg)
    assert FIG7_POLICY.r1 < 3.5 + br < FIG7_POLICY.r2
    profile = RateProfile((br, 3.5))
    assert abs(marginal_utility(0, profile, FIG7_POLICY, cfg)) <= 1e-9 * utility(
        0, profile, FIG7_POLICY, cfg
    )


def test_best_response_ties_go_to_the_larger_rate():
    """A lone user's accepted rate ``x (r2 - x) / w`` is a parabola in ``x``;
    where its peak passes the drop-free optimum ``star``, the two rates that
    accept exactly ``star`` are both roots of the cubic and earn equal
    utility.  The larger one wins on every ramp, whatever rounding does."""
    alpha, mu = 0.3, 6.0
    star = alpha * mu / (alpha + 1.0)
    cfg = GameConfig(mu, (alpha,))
    for r2 in np.linspace(5.5, 6.5, 101):
        pol = LinearPolicy(0.5, float(r2))
        w = pol.r2 - pol.r1
        larger = 0.5 * (pol.r2 + math.sqrt(pol.r2**2 - 4.0 * w * star))
        assert best_response(0, 0.0, pol, cfg) == pytest.approx(larger, rel=1e-12)


def test_cubic_roots_returns_a_triple_root_once():
    # the depressed cubic is t^3: p and q are both 0
    assert dynamics._cubic_roots(1.0, -3.0, 3.0, -1.0) == [1.0]
    assert dynamics._cubic_roots(-2.0, 12.0, -24.0, 16.0) == [2.0]  # -2 (x - 2)^3


# -------------------------------------------------------------------- dynamics


def test_dynamics_reaches_the_drop_free_equilibrium():
    traj = run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), tol=1e-10)
    assert traj.converged
    assert traj.final_profile.rates == pytest.approx((2.4, 2.4), abs=1e-8)


def test_dynamics_single_user_converges_immediately():
    cfg = GameConfig.uniform(6.0, 2.0, 1)
    traj = run_dynamics(cfg, NoDrop(), RateProfile((0.3,)))
    assert traj.converged
    assert len(traj.iterates) <= 3  # the move plus the confirming round
    assert traj.final_profile.rates[0] == pytest.approx(4.0)


def test_dynamics_heterogeneous_users():
    cfg = GameConfig(6.0, (1.0, 2.0))
    traj = run_dynamics(cfg, NoDrop(), RateProfile((0.1, 0.1)), tol=1e-10)
    assert traj.converged
    assert traj.final_profile.rates == pytest.approx(ne_closed_form(cfg).rates, abs=1e-8)


def test_dynamics_simultaneous_mode_on_drop_free_game():
    traj = run_dynamics(
        CFG, NoDrop(), RateProfile((0.5, 3.0)), mode=UpdateMode.SIMULTANEOUS, tol=1e-10
    )
    assert traj.converged
    assert traj.final_profile.rates == pytest.approx((2.4, 2.4), abs=1e-8)


def test_dynamics_two_distant_starts_agree():
    a = run_dynamics(FIG7_CFG, FIG7_POLICY, RateProfile((0.5, 0.5)), tol=1e-10)
    b = run_dynamics(FIG7_CFG, FIG7_POLICY, RateProfile((4.5, 0.5)), tol=1e-10)
    assert a.converged and b.converged
    assert a.final_profile.rates == pytest.approx(b.final_profile.rates, abs=1e-6)


def _non_decreasing(series) -> bool:
    return all(b >= a - 1e-12 for a, b in zip(series, series[1:]))


def test_dynamics_potential_never_decreases_with_flat_keep_probability():
    """Every best-response step raises the mover's utility, and with a flat
    keep probability the potential moves with the same sign, so the recorded
    series climbs."""
    rng = np.random.default_rng(5)
    for _ in range(5):
        pol = StepPolicy(float(rng.uniform(3.0, 5.0))) if rng.random() < 0.5 else NoDrop()
        init = RateProfile(tuple(rng.uniform(0.05, 2.5, 2)))
        traj = run_dynamics(CFG, pol, init, tol=1e-9)
        assert traj.converged
        assert _non_decreasing(traj.potential_series)


def test_dynamics_potential_climbs_ramp_policies_from_cold_starts():
    """With a shared exponent the potential is exact on a ramp too, so every
    best-response step raises it and the per-round series climbs, from cold
    starts and from a warm start deep inside the Fig. 7 ramp alike."""
    rng = np.random.default_rng(5)
    for _ in range(5):
        r1 = float(rng.uniform(3.0, 5.0))
        pol = LinearPolicy(r1, r1 + float(rng.uniform(0.5, 2.0)))
        init = RateProfile(tuple(rng.uniform(0.05, 0.5, 2)))
        traj = run_dynamics(CFG, pol, init, tol=1e-9)
        assert traj.converged
        assert _non_decreasing(traj.potential_series)
    warm = run_dynamics(FIG7_CFG, FIG7_POLICY, RateProfile((5.0, 1.0)), tol=1e-9)
    assert warm.converged
    assert _non_decreasing(warm.potential_series)


def test_dynamics_reports_non_convergence_instead_of_raising():
    traj = run_dynamics(FIG7_CFG, FIG7_POLICY, RateProfile((0.5, 0.5)), tol=1e-10, max_iter=3)
    assert not traj.converged
    assert len(traj.iterates) == 4


@pytest.mark.parametrize(
    "limits,message",
    [
        ({"max_iter": -5}, "max_iter must be at least 1, got -5"),
        ({"max_iter": 0}, "max_iter must be at least 1, got 0"),
        ({"tol": -1.0}, "tol must be positive, got -1.0"),
        ({"tol": 0.0}, "tol must be positive, got 0.0"),
        ({"tol": math.nan}, "tol must be positive, got nan"),
    ],
    ids=["negative-max-iter", "zero-max-iter", "negative-tol", "zero-tol", "nan-tol"],
)
def test_dynamics_rejects_a_round_limit_below_one_and_a_tol_that_is_not_positive(
    limits, message
):
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), **limits)
    # an infinite tolerance is a limit too: any first round meets it
    traj = run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), tol=math.inf)
    assert traj.converged and len(traj.iterates) == 2


@pytest.mark.parametrize("max_iter", [2.5, 3.0, True, "3"], ids=["2.5", "3.0", "True", "str"])
def test_dynamics_refuses_a_round_limit_that_is_not_an_integer(max_iter):
    # 2.5 raised a bare TypeError from range, and True played one round
    message = f"^max_iter must be an integer, got {re.escape(repr(max_iter))}$"
    with pytest.raises(ValueError, match=message):
        run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), max_iter=max_iter)
    traj = run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), max_iter=np.int64(3), tol=1e-300)
    assert len(traj.iterates) == 4


@pytest.mark.parametrize("mode", ["round_robin", "simultaneous", None])
def test_dynamics_refuses_a_mode_that_is_not_a_member(mode):
    message = f"mode must be one of {[*UpdateMode]}, got {mode!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), mode=mode)


def test_the_round_robin_member_is_what_converges_on_a_mixed_ramp():
    # the string "round_robin" used to play simultaneous updates, which run all 5,000 rounds here
    game, policy = GameConfig(20.0, (0.5, 1.0, 2.5)), LinearPolicy(12.0, 25.0)
    init = RateProfile((1 / 3,) * 3)
    traj = run_dynamics(game, policy, init, mode=UpdateMode.ROUND_ROBIN)
    assert traj.converged and len(traj.iterates) == 40
    assert not run_dynamics(game, policy, init, mode=UpdateMode.SIMULTANEOUS).converged


def test_dynamics_rejects_unstable_start():
    with pytest.raises(UnstableQueueError):
        run_dynamics(CFG, NoDrop(), RateProfile((3.5, 3.5)))


def test_trajectory_records_every_round():
    traj = run_dynamics(CFG, NoDrop(), RateProfile((0.1, 0.1)), tol=1e-10)
    assert len(traj.iterates) == len(traj.potential_series)
    assert traj.iterates[0].rates == (0.1, 0.1)
    assert traj.final_profile is traj.iterates[-1]


def test_play_succeeds_where_only_its_potential_series_overflows():
    config = GameConfig.uniform(1e20, 20.0, 2)
    traj = run_dynamics(config, NoDrop(), RateProfile((2.5e18, 2.5e18)), tol=math.inf)
    assert len(traj.iterates) == 2  # (2.5e18) ** 20 overflows a double
    with pytest.raises(OverflowError):
        traj.potential_series


# ------------------------------------------------- the lean paths against references
# The closure-based ramp best response and the per-round loop of profiles that
# ``best_response`` and ``run_dynamics`` were before their call overhead was
# cut.  The lean code keeps every float operation and its order, so it must
# reproduce these bit for bit.


def _reference_cubic_roots(a, b, c, d):
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = d - shift * c + 2.0 * shift**3
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:
        v = -q / 2.0 - math.copysign(math.sqrt(disc), q)
        u = math.cbrt(v)
        return [u - p / (3.0 * u) - shift]
    if p == 0.0:
        return [-shift]
    r = 2.0 * math.sqrt(-p / 3.0)
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
    return [r * math.cos((phi - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)]


def _reference_polished_roots(a, b, c, d, condition):
    roots = []
    for x in _reference_cubic_roots(a, b, c, d):
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
        roots.append(x)
    return roots


def _reference_ramp_best_response(b, alpha, mu, policy):
    d = policy.r2 - b
    if d <= 0.0:
        return 0.0
    w = policy.r2 - policy.r1
    e = d - b
    h = mu * w - b * d

    def condition(x):
        return alpha * (mu * w - (b + x) * (d - x)) * (d - 2.0 * x) - x * (d - x) * (e - 2.0 * x)

    a3 = -2.0 * (alpha + 1.0)
    a2 = alpha * (d + 2.0 * e) + 2.0 * d + e
    a1 = -alpha * (e * d + 2.0 * h) - d * e
    lo = max(0.0, policy.r1 - b)
    candidates = [(lo, 1.0)]
    for x in _reference_polished_roots(a3, a2, a1, alpha * h * d, condition):
        if lo < x < d:
            candidates.append((x, (d - x) / w))
    valued = [(x, (x * p) ** alpha * (mu - (b + x) * p)) for x, p in candidates]
    best = max(u for _, u in valued)
    if best <= 0.0:
        return 0.0
    return max(x for x, u in valued if u >= best - 1e-12 * best)


def _reference_best_response(i, others_total, policy, config):
    alpha, mu = config.alphas[i], config.mu
    if policy.r1 < policy.r2:
        return _reference_ramp_best_response(others_total, alpha, mu, policy)
    star = alpha * (mu - others_total) / (alpha + 1.0) if others_total < mu else 0.0
    return max(0.0, min(star, policy.r2 - others_total))


def _reference_potential(profile, policy, config):
    p = keep_probability(policy, profile.total)
    prod = p ** max(config.alphas)
    for r, a in zip(profile.rates, config.alphas):
        prod *= r**a
    return (config.mu - profile.total * p) * prod


def _reference_run_dynamics(config, policy, init, mode, tol, max_iter):
    rates = list(init.rates)
    iterates = [RateProfile(tuple(rates))]
    converged = False
    for _ in range(max_iter):
        prev = list(rates)
        if mode is UpdateMode.ROUND_ROBIN:
            for i in range(config.m):
                others = sum(rates) - rates[i]
                rates[i] = _reference_best_response(i, others, policy, config)
        else:
            total_prev = sum(prev)
            rates = [
                _reference_best_response(i, total_prev - prev[i], policy, config)
                for i in range(config.m)
            ]
        iterates.append(RateProfile(tuple(rates)))
        if max(abs(r - q) for r, q in zip(rates, prev)) < tol:
            converged = True
            break
    return iterates, [_reference_potential(p, policy, config) for p in iterates], converged


def _three_root_cases(n, seed):
    """Seeded lone users (the others send 0) whose ramp holds three roots.

    Alone, a user's utility is a function of its accepted rate
    ``a = x (r2 - x) / w`` only.  So the ramp's roots are the rate ``r2 / 2``
    where ``a`` peaks and the two rates where ``a`` is the drop-free optimum
    ``star = alpha mu / (alpha + 1)``, which tie exactly.  With ``r1 = t r2``
    and ``r2 = 4 (1 - t) star (1 + s)`` the peak exceeds ``star``, and for
    ``t <= 0.25``, ``s <= 0.3`` the lower tie lies above ``r1``.
    """
    rng = np.random.default_rng(seed)
    mu = rng.uniform(5.0, 50.0, n)
    alpha = rng.uniform(0.2, 3.0, n)
    t = rng.uniform(0.02, 0.25, n)
    s = rng.uniform(0.02, 0.3, n)
    r2 = 4.0 * (1.0 - t) * (alpha * mu / (alpha + 1.0)) * (1.0 + s)
    for k in range(n):
        yield float(mu[k]), float(alpha[k]), LinearPolicy(float(t[k] * r2[k]), float(r2[k])), 0.0


def test_best_response_matches_its_reference_bit_for_bit():
    """Among the random draws, thousands take the uncontested branch: the
    others already send r1 or more, and one root lies inside the ramp.
    Thousands more are contested (the ramp start is above 0 and a root lies
    inside), and a few hundred hold two or more roots.  Each lone user
    holds three, two of them tied exactly; where rounding values the lower
    tie above the upper one, the tie floor alone makes the upper one win."""
    seen = Counter()
    lone = _three_root_cases(200, 20261022)
    for mu, alpha, pol, others in itertools.chain(_ramp_cases(10_000, 20261018), lone):
        cfg = GameConfig(mu, (alpha,))
        got = best_response(0, others, pol, cfg)
        assert got.hex() == _reference_best_response(0, others, pol, cfg).hex(), (
            mu, alpha, pol, others,
        )
        d = pol.r2 - others
        if d <= 0.0:
            continue
        lo = max(0.0, pol.r1 - others)
        found = dynamics._ramp_roots(alpha, 1.0, others, mu, pol)
        roots = sorted(x for x in found if lo < x < d)
        seen["uncontested"] += not lo and len(roots) == 1
        seen["contested"] += lo > 0.0 and bool(roots)
        seen["two or more roots"] += len(roots) >= 2
        seen["three roots"] += len(roots) == 3
        if others == 0.0 and len(roots) == 3:
            assert got == roots[2], (mu, alpha, pol)
            lower, upper = (_ramp_utility(x, 0.0, alpha, mu, pol) for x in (roots[0], roots[2]))
            seen["lower tie valued higher"] += lower > upper
    assert seen["uncontested"] >= 3000, seen
    assert seen["contested"] >= 3000, seen
    assert seen["two or more roots"] >= 350, seen
    assert seen["three roots"] >= 200, seen
    assert seen["lower tie valued higher"] >= 10, seen


_alphas = st.floats(0.2, 3.0)


@st.composite
def _plays(draw):
    """A game, a policy of any shape, a feasible cold start and an update mode."""
    m = draw(st.integers(1, 8))
    mu = draw(st.floats(1.0, 100.0))
    alphas = (draw(_alphas),) * m if draw(st.booleans()) else tuple(draw(_alphas) for _ in range(m))
    r1 = draw(st.floats(0.1, 1.5)) * mu
    shape = draw(st.sampled_from(["ramp", "step", "none"]))
    if shape == "ramp":
        policy = LinearPolicy(r1, r1 + draw(st.floats(1e-3, 1.0)) * mu)
    else:
        policy = StepPolicy(r1) if shape == "step" else NoDrop()
    init = RateProfile(tuple(draw(st.floats(0.0, 0.5)) * mu / m for _ in range(m)))  # total <= mu/2
    mode = draw(st.sampled_from(list(UpdateMode)))
    return GameConfig(mu, alphas), policy, init, mode, draw(st.sampled_from([1e-6, 1e-10]))


@settings(max_examples=300, deadline=None)
@given(_plays())
def test_run_dynamics_matches_its_reference_bit_for_bit(play):
    config, policy, init, mode, tol = play
    traj = run_dynamics(config, policy, init, mode=mode, tol=tol, max_iter=60)
    iterates, potentials, converged = _reference_run_dynamics(config, policy, init, mode, tol, 60)
    assert traj.converged == converged
    assert [[r.hex() for r in p.rates] for p in traj.iterates] == [
        [r.hex() for r in p.rates] for p in iterates
    ]
    assert [v.hex() for v in traj.potential_series] == [v.hex() for v in potentials]


# ------------------------------------------------------------runtime  verification


def test_verify_accepts_the_drop_free_equilibrium():
    assert verify_equilibrium(ne_closed_form(CFG), NoDrop(), CFG)


def test_verify_rejects_a_perturbed_profile():
    assert not verify_equilibrium(RateProfile((2.7, 2.4)), NoDrop(), CFG)


def test_verify_refuses_an_infeasible_profile():
    with pytest.raises(UnstableQueueError, match="^profile is not feasible$"):
        verify_equilibrium(RateProfile((3.0, 3.0)), NoDrop(), CFG)


def test_verify_step_profiles():
    pol = StepPolicy(4.0)
    assert verify_equilibrium(RateProfile((1.0, 3.0)), pol, CFG)
    # below the threshold user 0 can claim the slack up to the cap
    assert not verify_equilibrium(RateProfile((1.0, 2.0)), pol, CFG)


def test_verify_designed_equilibrium():
    design = design_linear(DesignSpec(CFG, epsilon=0.05, keep_prob=0.9, target_effective_total=3.9))
    assert verify_equilibrium(design.predicted_ne, design.policy, CFG)
    shifted = design.predicted_ne.replace(0, design.predicted_ne.rates[0] - 0.4)
    assert not verify_equilibrium(shifted, design.policy, CFG)


def test_verify_accepts_a_profile_whose_others_already_reach_r2():
    # each user's others send past r2, so the ramp drops whatever anyone adds
    ramp = LinearPolicy(1.0, 2.0)
    assert verify_equilibrium(RateProfile((2.5, 2.5)), ramp, CFG)
    # here user 0's others send 0.5, and user 0 gains by sending into the ramp
    assert not verify_equilibrium(RateProfile((2.5, 0.5)), ramp, CFG)


@pytest.mark.parametrize("tol", [math.nan, -1e-7, -math.inf])
def test_verify_refuses_a_tolerance_that_is_nan_or_negative(tol):
    # a NaN tolerance used to certify a profile that fails at the default one
    profile, policy = RateProfile((0.5, 0.5)), LinearPolicy(11.0, 30.0)
    game = GameConfig.uniform(20.0, 1.0, 2)
    assert not verify_equilibrium(profile, policy, game)
    with pytest.raises(ValueError, match=f"^tol must be non-negative, got {tol!r}$"):
        verify_equilibrium(profile, policy, game, tol=tol)
    assert not verify_equilibrium(profile, policy, game, tol=0.0)


def test_verify_tolerance_scales_sensitivity():
    near = RateProfile((2.4 + 1e-5, 2.4))
    assert verify_equilibrium(near, NoDrop(), CFG, tol=1e-3)
    assert verify_equilibrium(near, NoDrop(), CFG)  # gain is about 1e-10 here


def test_verify_tolerance_is_relative_above_a_utility_of_one():
    # the designed equilibrium's utility is 1.0e12, where 1e-7 is below one ulp
    cfg = GameConfig.uniform(5000.0, 3.0, 4)
    design = designed_with_diagnostics(DesignSpec(cfg, epsilon=0.05))
    ne = design.diagnostics.realized_ne
    assert utility(0, ne, design.policy, cfg) == pytest.approx(1.0175e12, rel=1e-4)
    assert verify_equilibrium(ne, design.policy, cfg)
    assert verify_equilibrium(design.predicted_ne, design.policy, cfg)
    for factor in (0.999, 1.001):
        assert not verify_equilibrium(ne.replace(0, ne.rates[0] * factor), design.policy, cfg)


def test_verify_tolerance_is_absolute_below_a_utility_of_one():
    cfg = GameConfig.uniform(0.5, 2.0, 2)  # utility 0.004 at the equilibrium (0.2, 0.2)
    near = RateProfile((0.2 + 2e-4, 0.2))  # gain is about 1.2e-8 here
    assert verify_equilibrium(near, NoDrop(), cfg)
    assert not verify_equilibrium(near, NoDrop(), cfg, tol=1e-9)


def _exact_utility(rate, others, alpha, mu, policy):
    """One user's utility on a ramp in rational arithmetic, for an integer ``alpha``."""
    x, b = Fraction(rate), Fraction(others)
    r1, r2 = Fraction(policy.r1), Fraction(policy.r2)
    p = min(Fraction(1), max(Fraction(0), (r2 - b - x) / (r2 - r1)))
    return (x * p) ** alpha * (Fraction(mu) - (b + x) * p)


@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_the_scan_reads_no_cancellation_noise_near_r2(alpha):
    """With the others within 1e-4 r2 of r2 the keep probability at every
    scanned rate is tiny.  The scan values it as ``(d - x) / w`` with
    ``d = r2 - others``, so its best value is its own rate's exact utility
    within 1e-14; forming ``r2 - (others + x)`` read up to ~3e-10 high."""
    rng = np.random.default_rng(alpha)
    for _ in range(100):
        mu = rng.uniform(5.0, 50.0)
        r2 = mu * rng.uniform(0.3, 1.5)
        pol = LinearPolicy(r2 * rng.uniform(0.05, 0.95), r2)
        others = r2 * (1.0 - rng.uniform(1e-7, 1e-4))
        x, value = dynamics._grid_golden_max(
            lambda x: dynamics._own_utility(x, others, float(alpha), mu, pol),
            0.0, r2 - others, 10_001, 1e-10,
        )
        exact = _exact_utility(x, others, alpha, mu, pol)
        assert abs(Fraction(value) - exact) <= Fraction(1e-14) * abs(exact), (mu, pol, others)


# ------------------------------------------------------------------- the field


def test_field_vanishes_at_the_equilibrium():
    ne = ne_closed_form(CFG)
    (_, vec), = response_field(CFG, NoDrop(), [ne])
    assert vec == pytest.approx((0.0, 0.0), abs=1e-9)


def test_field_vectors_shrink_along_a_trajectory():
    traj = run_dynamics(FIG7_CFG, FIG7_POLICY, RateProfile((0.5, 0.5)), tol=1e-10)
    some = list(traj.iterates[:40])
    field = response_field(FIG7_CFG, FIG7_POLICY, some)
    norms = [math.hypot(*vec) for _, vec in field]
    assert all(b <= a + 1e-9 for a, b in zip(norms, norms[1:]))


def test_field_requires_two_users():
    with pytest.raises(ValueError):
        response_field(GameConfig.uniform(6.0, 2.0, 3), NoDrop(), [])


@pytest.mark.parametrize("rates", [(1.0, 1.0, 1.0), (1.0,)])
def test_field_refuses_a_grid_profile_that_does_not_hold_two_rates(rates):
    # the field reads only the first two rates of a profile
    message = f"^every grid profile must hold two rates, got {len(rates)}$"
    with pytest.raises(ValueError, match=message):
        response_field(CFG, NoDrop(), [RateProfile((1.0, 1.0)), RateProfile(rates)])


def test_triangular_grid_covers_the_feasible_wedge():
    grid = triangular_grid(FIG7_CFG, FIG7_POLICY, 12)
    assert all(p.total <= FIG7_POLICY.r2 + 1e-12 for p in grid)
    assert RateProfile((0.0, 0.0)) in grid
    axis = {p.rates[0] for p in grid}
    assert max(axis) == pytest.approx(FIG7_POLICY.r2)
    expected = sum(
        1
        for x, y in itertools.product(np.linspace(0, FIG7_POLICY.r2, 12), repeat=2)
        if x + y <= FIG7_POLICY.r2
    )
    assert len(grid) == expected
    with pytest.raises(ValueError):
        triangular_grid(FIG7_CFG, FIG7_POLICY, 1)


@pytest.mark.parametrize("points", [3.0, 2.5, True], ids=["3.0", "2.5", "True"])
def test_triangular_grid_refuses_a_point_count_that_is_not_an_integer(points):
    # 3.0 raised a bare TypeError from linspace
    with pytest.raises(ValueError, match=f"^points_per_axis must be an integer, got {points!r}$"):
        triangular_grid(FIG7_CFG, FIG7_POLICY, points)
    assert len(triangular_grid(FIG7_CFG, FIG7_POLICY, np.int32(3))) == 6


def test_triangular_grid_refuses_a_game_that_is_not_two_user():
    with pytest.raises(ValueError, match="^triangular_grid is defined for two-user games$"):
        triangular_grid(GameConfig.uniform(6.0, 2.0, 3), NoDrop(), 5)
