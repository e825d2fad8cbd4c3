"""Core model: keep probabilities, utilities, potential, derivatives.

Golden values are frozen from hand calculation; derivative checks run
against central finite differences rather than the closed form they test.
"""

import dataclasses
import math
import pickle
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mm1game import (
    EXPONENT_LIMIT,
    RATE_FLOOR,
    SERVICE_RATE_LIMIT,
    DropPolicy,
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    StepPolicy,
    UnstableQueueError,
    UnsupportedGameError,
    feasible,
    keep_probability,
    marginal_utility,
    potential,
    utility,
)
from mm1game.model import _keep_and_load

CFG = GameConfig.uniform(6.0, 2.0, 2)


# ---------------------------------------------------------------- config types


def test_uniform_config():
    assert CFG.m == 2
    assert CFG.alpha == 2.0
    assert CFG.homogeneous


@pytest.mark.parametrize("m", [2.5, 6.0, np.float64(2.0), True])
def test_uniform_refuses_an_m_that_is_not_an_integer(m):
    with pytest.raises(ValueError, match=r"^m must be an integer, got "):
        GameConfig.uniform(6.0, 2.0, m)
    assert GameConfig.uniform(6.0, 2.0, np.int64(3)).m == 3


@pytest.mark.parametrize("m", [0, -1])
def test_uniform_with_no_users_is_refused_by_the_constructor(m):
    with pytest.raises(ValueError, match="^alphas must contain at least one user$"):
        GameConfig.uniform(6.0, 2.0, m)


def test_heterogeneous_alpha_guard():
    cfg = GameConfig(6.0, (1.0, 2.0))
    assert not cfg.homogeneous
    with pytest.raises(UnsupportedGameError):
        _ = cfg.alpha


@pytest.mark.parametrize(
    "mu,alphas",
    [(0.0, (1.0,)), (-2.0, (1.0,)), (6.0, ()), (6.0, (0.0,)), (6.0, (1.0, -1.0)), (math.inf, (1.0,))],
)
def test_config_validation(mu, alphas):
    with pytest.raises(ValueError):
        GameConfig(mu, alphas)


def test_the_cached_flag_leaves_equality_hash_repr_replace_and_pickle_alone():
    mixed = GameConfig(6.0, (1.0, 2.0))
    assert repr(CFG) == "GameConfig(mu=6.0, alphas=(2.0, 2.0))"
    assert CFG == GameConfig(6, [2, 2]) and CFG != mixed
    assert hash(CFG) == hash((6.0, (2.0, 2.0)))
    assert [f.name for f in dataclasses.fields(CFG) if f.init] == ["mu", "alphas"]
    assert dataclasses.replace(mixed, alphas=(2.0, 2.0)) == CFG
    assert dataclasses.replace(mixed, alphas=(2.0, 2.0)).homogeneous
    assert not dataclasses.replace(CFG, alphas=(2.0, 3.0)).homogeneous
    with pytest.raises(ValueError):
        dataclasses.replace(CFG, homogeneous=False)
    with pytest.raises(dataclasses.FrozenInstanceError):
        CFG.homogeneous = False
    for cfg in (CFG, mixed):
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg and hash(back) == hash(cfg)
        assert back.homogeneous == cfg.homogeneous
    with pytest.raises(UnsupportedGameError):
        _ = pickle.loads(pickle.dumps(mixed)).alpha
    with pytest.raises(UnsupportedGameError):
        _ = dataclasses.replace(CFG, alphas=(2.0, 3.0)).alpha


def test_mu_is_bounded_above():
    inside = math.nextafter(SERVICE_RATE_LIMIT, 0.0)
    assert GameConfig(inside, (2.0,)).mu == inside
    for mu in (SERVICE_RATE_LIMIT, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"mu must be below 1e+21, got {mu}")):
            GameConfig.uniform(mu, 2.0, 2)


def test_alpha_is_bounded_above_by_the_exponent_limit():
    assert GameConfig(6.0, (2.0, EXPONENT_LIMIT)).alphas == (2.0, EXPONENT_LIMIT)
    above = math.nextafter(EXPONENT_LIMIT, math.inf)
    for alpha in (above, 1e16, 9.922539697764571e302):
        message = f"every alpha must be at most 1e+08, got {alpha}"
        for alphas in [(alpha,), (2.0, alpha)]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                GameConfig(6.0, alphas)


def test_mu_alpha_and_r1_are_bounded_below_by_the_rate_floor():
    below = math.nextafter(RATE_FLOOR, 0.0)
    assert GameConfig(RATE_FLOOR, (RATE_FLOOR,)) == GameConfig(1e-30, (1e-30,))
    assert DropPolicy(RATE_FLOOR, RATE_FLOOR).r1 == RATE_FLOOR
    message = f"mu must be at least 1e-30, got {below}"
    with pytest.raises(ValueError, match=re.escape(message)):
        GameConfig(below, (2.0,))
    with pytest.raises(ValueError, match=re.escape("mu must be a positive finite rate, got 0.0")):
        GameConfig(0.0, (2.0,))
    for alphas in [(below,), (2.0, below), (2.0, -1.0), (math.inf,)]:
        message = "every alpha must be finite and at least 1e-30, got "
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            GameConfig(6.0, alphas)
    for make in (DropPolicy, LinearPolicy):
        message = f"need 1e-30 <= r1 <= r2 and a finite r2 on a ramp, got r1={below}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            make(below, 1.0)


def test_profile_validation_and_helpers():
    with pytest.raises(ValueError):
        RateProfile((1.0, -0.5))
    p = RateProfile((1.0, 2.0, 3.0))
    assert p.total == 6.0
    assert p.others_total(1) == 4.0
    q = p.replace(0, 0.25)
    assert q.rates == (0.25, 2.0, 3.0)
    assert p.rates == (1.0, 2.0, 3.0)  # original untouched


def _reference_profile_rates(rates):
    """The element-wise validator ``RateProfile`` used before its one-pass check."""
    rates = tuple(float(r) for r in rates)
    for r in rates:
        if not math.isfinite(r) or r < 0:
            raise ValueError(f"rates must be non-negative and finite, got {r}")
    return rates


@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, -5e-324, -1e-300, -0.0, 0.0, 5e-324, 1.7e308, 3, 0, True,
     False, np.float32(0.1), np.float32(math.nan), np.int64(7), np.int64(-1), np.float64(-math.inf)],
    ids=repr,
)
def test_profile_validation_matches_the_element_wise_reference(value):
    rates = (1.0, value, 2.0)
    try:
        expected = _reference_profile_rates(rates)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            RateProfile(rates)
        return
    got = RateProfile(rates).rates
    assert all(type(r) is float for r in got)
    assert [r.hex() for r in got] == [r.hex() for r in expected]


# ------------------------------------------------------------ keep probability


def test_no_drop_keeps_everything():
    assert keep_probability(NoDrop(), 0.0) == 1.0
    assert keep_probability(NoDrop(), 123.0) == 1.0


def test_step_keeps_up_to_threshold_inclusive():
    pol = StepPolicy(4.0)
    assert keep_probability(pol, 3.999) == 1.0
    assert keep_probability(pol, 4.0) == 1.0
    assert keep_probability(pol, 4.0 + 1e-12) == 0.0


@pytest.mark.parametrize(
    "threshold,message",
    [(math.inf, "threshold must be finite"), (0.0, "need 1e-30 <= r1 <= r2")],
    ids=["inf", "0.0"],
)
def test_a_step_threshold_that_is_not_finite_and_positive_is_refused(threshold, message):
    # the step checks only finiteness; the floor under every ramp start is DropPolicy's
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        StepPolicy(threshold)


def test_linear_ramp_endpoints_and_midpoint():
    pol = LinearPolicy(4.0, 6.0)
    assert keep_probability(pol, 4.0) == 1.0
    assert keep_probability(pol, 6.0) == 0.0
    assert keep_probability(pol, 5.0) == pytest.approx(0.5)
    assert keep_probability(pol, 1.0) == 1.0  # clipped below
    assert keep_probability(pol, 50.0) == 0.0  # clipped above


def test_linear_slope_intercept_identities():
    pol = LinearPolicy(4.3012, 4.6222)
    assert pol.slope < 0
    assert pol.slope * pol.r1 + pol.intercept == pytest.approx(1.0, abs=1e-12)
    assert pol.slope * pol.r2 + pol.intercept == pytest.approx(0.0, abs=1e-12)


def test_linear_validation():
    with pytest.raises(ValueError):
        LinearPolicy(5.0, 5.0)
    with pytest.raises(ValueError):
        LinearPolicy(0.0, 5.0)
    with pytest.raises(ValueError):
        LinearPolicy(6.0, 4.0)


def test_a_ramp_needs_a_finite_r2():
    # (inf - T) / (inf - r1) would make every keep probability on the ramp NaN
    for make in (LinearPolicy, DropPolicy):
        with pytest.raises(ValueError, match="finite r2"):
            make(1.0, math.inf)
    assert DropPolicy(math.inf, math.inf) == DropPolicy(math.inf, math.inf)


def test_keep_probability_vectorized_matches_scalar():
    pol = LinearPolicy(3.0, 7.0)
    totals = np.linspace(0.0, 9.0, 57)
    vec = keep_probability(pol, totals)
    assert vec.shape == totals.shape
    for t, v in zip(totals, vec):
        assert v == keep_probability(pol, float(t))
    # Python and numpy scalars take the plain-float path: same bits, float out
    edge = np.array([0.0, 3.0, 4.0, 5.5, 6.9999999999, 7.0, 7.5, math.inf])
    for policy in (NoDrop(), StepPolicy(4.0), pol, LinearPolicy(0.1, 1e-3 + 0.1)):
        want = keep_probability(policy, edge)
        for t, w in zip(edge, want):
            for scalar in (float(t), t, np.array(t)):
                got = keep_probability(policy, scalar)
                assert type(got) is float
                assert got == w
        assert keep_probability(policy, 4) == keep_probability(policy, np.int64(4))
        assert keep_probability(policy, 4) == float(keep_probability(policy, np.array([4.0]))[0])
    # non-increasing in the total for every policy shape
    for policy in (NoDrop(), StepPolicy(4.0), pol):
        vals = keep_probability(policy, totals)
        assert np.all(np.diff(vals) <= 1e-15)


@settings(max_examples=200, deadline=None)
@given(
    r1=st.floats(1e-3, 1e3),
    width=st.one_of(st.just(0.0), st.floats(1e-9, 1e3)),
    inner=st.lists(st.floats(0.0, 1.0), max_size=20),
    beyond=st.lists(st.floats(0.0, 1e6), max_size=5),
)
def test_keep_probability_array_is_the_scalar_path_to_the_bit(r1, width, inner, beyond):
    # a ramp (or a step, at width 0) at its breakpoints, at 0, between and past r2
    policy = StepPolicy(r1) if width == 0.0 else LinearPolicy(r1, r1 + width)
    r2 = policy.r2
    totals = np.array(
        [0.0, r1, r2, math.nextafter(r1, 0.0), math.nextafter(r2, math.inf), math.inf]
        + [r1 + f * (r2 - r1) for f in inner]
        + [r2 + b for b in beyond]
    )
    before = totals.copy()
    got = keep_probability(policy, totals)
    assert got is not totals and np.array_equal(totals, before)  # the input is not clipped
    assert got.dtype == np.float64 and got.shape == totals.shape
    for t, g in zip(totals.tolist(), got.tolist()):
        assert g.hex() == keep_probability(policy, t).hex(), t
    for t in totals[:3]:
        zero_d = keep_probability(policy, np.array(t))
        assert type(zero_d) is float and zero_d.hex() == keep_probability(policy, float(t)).hex()
    for bad in (np.array([r1, -0.5]), np.array([math.nan, r1]), np.array(-1.0), np.array(math.nan)):
        with pytest.raises(ValueError, match="^total_rate must be non-negative$"):
            keep_probability(policy, bad)


def test_keep_probability_rejects_negative_totals():
    nan = math.nan
    for total in (-0.1, np.float64(-0.1), -1, np.array([1.0, -0.1]), nan, np.array([1.0, nan])):
        with pytest.raises(ValueError):
            keep_probability(NoDrop(), total)


def test_keep_probability_rejects_unknown_policies():
    for total in (1.0, np.float64(1.0), np.array([1.0])):
        with pytest.raises(TypeError):
            keep_probability(object(), total)


def test_utility_and_potential_evaluate_the_keep_probability_once(monkeypatch):
    from mm1game import model

    calls = []

    def counting(policy, total):
        calls.append(total)
        return keep_probability(policy, total)

    monkeypatch.setattr(model, "keep_probability", counting)
    pol = LinearPolicy(3.0, 7.0)
    profile = RateProfile((1.5, 2.5))
    utility(0, profile, pol, CFG)
    potential(profile, pol, CFG)
    assert calls == [4.0, 4.0]
    calls.clear()
    with pytest.raises(UnstableQueueError, match="effective load 6.0 is not below"):
        utility(0, RateProfile((3.0, 3.0)), NoDrop(), CFG)
    assert calls == [6.0]


# ------------------------------------------------------------- effective rates


def test_effective_rates_thin_by_the_total():
    pol = LinearPolicy(4.0, 6.0)
    profile = RateProfile((2.0, 3.0))
    keep, load = _keep_and_load(profile, pol, CFG)  # total 5 -> keep 0.5
    assert tuple(r * keep for r in profile.rates) == pytest.approx((1.0, 1.5))
    assert load == pytest.approx(2.5)


def test_feasibility_is_on_the_surviving_load():
    assert feasible(RateProfile((2.4, 2.4)), NoDrop(), CFG)
    assert not feasible(RateProfile((3.0, 3.0)), NoDrop(), CFG)
    # a ramp policy drops the overload away, so huge totals stay feasible
    assert feasible(RateProfile((30.0, 30.0)), LinearPolicy(4.0, 6.0), CFG)
    with pytest.raises(ValueError):
        feasible(RateProfile((1.0,)), NoDrop(), CFG)


# ---------------------------------------------------------------------- utility


def test_utility_golden_value():
    # 2.4**2 * (6 - 4.8) = 6.912, worked by hand
    assert utility(0, RateProfile((2.4, 2.4)), NoDrop(), CFG) == pytest.approx(6.912)


def test_utility_symmetry_under_user_swap():
    prof = RateProfile((1.0, 3.0))
    swapped = RateProfile((3.0, 1.0))
    assert utility(0, prof, NoDrop(), CFG) == utility(1, swapped, NoDrop(), CFG)


def test_utility_zero_rate_and_full_drop():
    assert utility(0, RateProfile((0.0, 2.0)), NoDrop(), CFG) == 0.0
    # beyond the ramp everything is dropped: zero utility, not an error
    pol = LinearPolicy(4.0, 6.0)
    assert utility(0, RateProfile((5.0, 5.0)), pol, CFG) == 0.0


def test_utility_unstable_queue_raises():
    with pytest.raises(UnstableQueueError):
        utility(0, RateProfile((4.0, 4.0)), NoDrop(), CFG)


def test_a_utility_whose_power_alone_passes_a_double_is_still_formed():
    # 2**1025 is about 3.6e308; times the headroom 2.01 - 2, about 3.6e306, it fits
    game = GameConfig.uniform(2.01, 1025.0, 1)
    want = Decimal(2) ** 1025 * (Decimal(2.01) - 2)
    got = utility(0, RateProfile((2.0,)), NoDrop(), game)
    assert got == pytest.approx(float(want), rel=1e-15)
    # at exponent 1100 the utility, about 1.4e329, is past a double too
    with pytest.raises(OverflowError):
        utility(0, RateProfile((2.0,)), NoDrop(), GameConfig.uniform(2.01, 1100.0, 1))


def test_utility_drops_reduce_throughput_but_add_headroom():
    # keeping 90% of this profile beats keeping all of it (less congestion)
    prof = RateProfile((2.8, 2.8))
    pol = LinearPolicy(5.0, 11.0)  # keep(5.6) = 0.9
    assert keep_probability(pol, prof.total) == pytest.approx(0.9)
    assert utility(0, prof, pol, CFG) > utility(0, prof, NoDrop(), CFG)


# -------------------------------------------------------------------- potential


def test_potential_golden_value():
    # (6 - 4.8) * (2.4**2)**2 = 39.81312
    assert potential(RateProfile((2.4, 2.4)), NoDrop(), CFG) == pytest.approx(39.81312)


def test_potential_names_the_game_whose_potential_overflows():
    # (2.5e18) ** 20 is past a double; the profile itself is feasible
    game = GameConfig.uniform(1e20, 20.0, 2)
    message = "the potential overflows a float at mu=1e+20, alpha=20"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        potential(RateProfile((2.5e18, 2.5e18)), NoDrop(), game)


def _sign(x: float) -> float:
    return 0.0 if abs(x) <= 1e-12 else math.copysign(1.0, x)


def test_potential_tracks_utility_sign_when_keep_probability_is_flat():
    """With no dropping or a step cliff, unilateral moves shift the potential
    with exactly the mover's utility-change sign."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        alphas = tuple(rng.uniform(0.4, 3.0, m))
        cfg = GameConfig(6.0, alphas)
        pol = StepPolicy(rng.uniform(2.0, 5.0)) if rng.random() < 0.5 else NoDrop()
        cap = 5.9 if isinstance(pol, NoDrop) else 8.0
        rates = rng.uniform(0.05, cap / m, m)
        prof = RateProfile(tuple(rates))
        i = int(rng.integers(m))
        dev = prof.replace(i, rng.uniform(0.0, cap - prof.others_total(i)))
        du = utility(i, dev, pol, cfg) - utility(i, prof, pol, cfg)
        dphi = potential(dev, pol, cfg) - potential(prof, pol, cfg)
        assert _sign(du) == _sign(dphi), (prof, dev, i, du, dphi)


def test_potential_factors_into_utility_and_keep_terms():
    """potential == U_i * prod_{j!=i} rate_j**alpha_j * keep**(max(alpha) - alpha_i).

    With a shared exponent the keep term is keep**0 and vanishes."""
    rng = np.random.default_rng(11)
    for k in range(200):
        m = int(rng.integers(2, 5))
        if k % 2 == 0:
            alphas = tuple(rng.uniform(0.4, 3.0, m))
        else:
            alphas = (float(rng.uniform(0.4, 3.0)),) * m
        cfg = GameConfig(6.0, alphas)
        r1 = rng.uniform(1.5, 5.0)
        pol = LinearPolicy(r1, r1 + rng.uniform(0.3, 3.0))
        prof = RateProfile(tuple(rng.uniform(0.05, pol.r2 / m, m)))
        p = keep_probability(pol, prof.total)
        for i in range(m):
            others = math.prod(
                prof.rates[j] ** alphas[j] for j in range(m) if j != i
            )
            expected = utility(i, prof, pol, cfg) * others * p ** (max(alphas) - alphas[i])
            assert potential(prof, pol, cfg) == pytest.approx(expected, rel=1e-12)


def test_sloped_ramp_can_decouple_potential_from_utility_sign():
    """With a shared exponent the potential is exact, even inside a ramp: a
    move that raises the mover's utility raises the potential.  With mixed
    exponents no ordinal potential exists on a ramp, because best-response
    improvements can cycle; this pins one strict improvement cycle."""
    cfg = GameConfig(6.0, (1.0, 1.0))
    pol = LinearPolicy(2.0, 6.0)
    a = RateProfile((2.0, 1.0))
    b = RateProfile((2.5, 1.0))
    du = utility(0, b, pol, cfg) - utility(0, a, pol, cfg)
    dphi = potential(b, pol, cfg) - potential(a, pol, cfg)
    assert du > 0.1
    assert dphi > 0.1

    mixed = GameConfig(10.0, (2.21814, 0.58694))
    ramp = LinearPolicy(6.73954, 7.81755)
    cycle = [
        (2.01793, 2.43721),
        (2.59518, 2.43721),
        (2.59518, 4.55065),
        (2.01793, 4.55065),
        (2.01793, 2.43721),
    ]
    assert cycle[-1] == cycle[0]
    for before, after in zip(cycle, cycle[1:]):
        movers = [j for j in range(2) if before[j] != after[j]]
        assert len(movers) == 1
        i = movers[0]
        x, y = RateProfile(before), RateProfile(after)
        assert feasible(x, ramp, mixed) and feasible(y, ramp, mixed)
        assert utility(i, y, ramp, mixed) > utility(i, x, ramp, mixed) + 0.1


# ------------------------------------------------------------------- marginals


def test_marginal_utility_golden_value():
    # d/dl [l**2 (6 - l - 1)] at l = 1: 2*4 - 1 = 7
    assert marginal_utility(0, RateProfile((1.0, 1.0)), NoDrop(), CFG) == pytest.approx(7.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
def test_marginal_matches_finite_differences(alpha):
    rng = np.random.default_rng(int(alpha * 10))
    cfg = GameConfig.uniform(6.0, alpha, 2)
    policies = [NoDrop(), LinearPolicy(3.0, 7.0)]
    for _ in range(40):
        pol = policies[int(rng.integers(2))]
        lam = float(rng.uniform(0.2, 2.2))
        other = float(rng.uniform(0.2, 2.2))
        prof = RateProfile((lam, other))
        h = 1e-5
        up = utility(0, prof.replace(0, lam + h), pol, cfg)
        dn = utility(0, prof.replace(0, lam - h), pol, cfg)
        fd = (up - dn) / (2 * h)
        an = marginal_utility(0, prof, pol, cfg)
        assert an == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_marginal_undefined_at_breakpoints():
    pol = LinearPolicy(4.0, 6.0)
    with pytest.raises(ValueError):
        marginal_utility(0, RateProfile((2.0, 2.0)), pol, CFG)
    with pytest.raises(ValueError):
        marginal_utility(0, RateProfile((2.0, 2.0)), StepPolicy(4.0), CFG)


def test_marginal_edge_cases():
    pol = LinearPolicy(4.0, 6.0)
    # everything dropped: flat zero utility
    assert marginal_utility(0, RateProfile((4.0, 3.0)), pol, CFG) == 0.0
    # zero own rate: slope depends on the exponent
    assert marginal_utility(0, RateProfile((0.0, 1.0)), NoDrop(), CFG) == 0.0
    lin_cfg = GameConfig.uniform(6.0, 1.0, 2)
    assert marginal_utility(0, RateProfile((0.0, 1.0)), NoDrop(), lin_cfg) == pytest.approx(5.0)
    sub_cfg = GameConfig.uniform(6.0, 0.5, 2)
    assert marginal_utility(0, RateProfile((0.0, 1.0)), NoDrop(), sub_cfg) == math.inf
