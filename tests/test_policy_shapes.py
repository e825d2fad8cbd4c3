"""Shape behaviour of the three drop policies, pinned by property tests.

No dropping, a step at ``threshold`` and a linear ramp from ``r1`` to ``r2``
are checked against formulas written here, one per shape, so the test does
not lean on how the library tells the shapes apart.  Totals are drawn on
and around each breakpoint, and at infinity.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mm1game import (
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    StepPolicy,
    best_response,
    keep_probability,
    marginal_utility,
    triangular_grid,
)

_RATES = st.floats(1e-3, 1e3)

POLICIES = st.one_of(
    st.just(NoDrop()),
    _RATES.map(StepPolicy),
    st.tuples(_RATES, st.floats(1e-6, 1e3)).map(lambda rw: LinearPolicy(rw[0], rw[0] + rw[1])),
)

CONFIGS = st.builds(
    GameConfig.uniform,
    mu=st.floats(0.1, 1e3),
    alpha=st.floats(0.2, 5.0),
    m=st.integers(1, 4),
)


def _breakpoints(policy) -> list[float]:
    if isinstance(policy, NoDrop):
        return []
    if isinstance(policy, StepPolicy):
        return [policy.threshold]
    return [policy.r1, policy.r2]


def _expected_keep(policy, t: float) -> float:
    if isinstance(policy, NoDrop):
        return 1.0
    if isinstance(policy, StepPolicy):
        return 1.0 if t <= policy.threshold else 0.0
    return min(1.0, max(0.0, (policy.r2 - t) / (policy.r2 - policy.r1)))


def _expected_cutoff(policy, mu: float) -> float:
    if isinstance(policy, NoDrop):
        return mu
    if isinstance(policy, StepPolicy):
        return policy.threshold
    return policy.r2


def _near(points: list[float]) -> list[float]:
    """Each point and its two neighbouring floats, kept non-negative."""
    out = []
    for x in points:
        out += [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    return [x for x in out if x >= 0.0]


@st.composite
def _policy_and_totals(draw):
    policy = draw(POLICIES)
    top = 2.0 * max(_breakpoints(policy), default=1.0)
    free = draw(st.lists(st.floats(0.0, top), max_size=8))
    return policy, [0.0, math.inf, *_near(_breakpoints(policy)), *free]


@settings(max_examples=300, deadline=None)
@given(_policy_and_totals())
def test_keep_probability_follows_each_shape_on_both_paths(case):
    policy, totals = case
    want = [_expected_keep(policy, t) for t in totals]
    for t, w in zip(totals, want):
        got = keep_probability(policy, t)
        assert type(got) is float and got == w
        assert keep_probability(policy, np.float64(t)) == w
        assert keep_probability(policy, np.array(t)) == w
    assert keep_probability(policy, np.array(totals)).tolist() == want


@settings(max_examples=300, deadline=None)
@given(
    config=CONFIGS,
    threshold=st.one_of(st.none(), _RATES),
    free=st.lists(st.floats(0.0, 2e3), max_size=6),
)
def test_best_response_on_flat_shapes_is_the_capped_optimum(config, threshold, free):
    policy = NoDrop() if threshold is None else StepPolicy(threshold)
    others = [0.0, config.mu, *_near([config.mu]), *free]
    if threshold is not None:
        others += _near([threshold])
    alpha = config.alphas[0]
    for b in others:
        star = alpha * (config.mu - b) / (alpha + 1.0) if b < config.mu else 0.0
        want = max(0.0, star) if threshold is None else max(0.0, min(star, threshold - b))
        assert best_response(0, b, policy, config) == want


@settings(max_examples=300, deadline=None)
@given(case=_policy_and_totals(), config=CONFIGS)
def test_marginal_utility_raises_exactly_at_breakpoints(case, config):
    policy, totals = case
    kinks = set(_breakpoints(policy))
    for t in totals:
        if not math.isfinite(t):
            continue
        profile = RateProfile((t,) + (0.0,) * (config.m - 1))
        assert profile.total == t
        if t in kinks:
            with pytest.raises(ValueError, match="not differentiable"):
                marginal_utility(0, profile, policy, config)
        else:
            assert isinstance(marginal_utility(0, profile, policy, config), float)


@settings(max_examples=200, deadline=None)
@given(policy=POLICIES, mu=st.floats(0.1, 1e3), points=st.integers(2, 6))
def test_triangular_grid_reaches_each_shapes_cutoff(policy, mu, points):
    config = GameConfig.uniform(mu, 1.0, 2)
    cutoff = _expected_cutoff(policy, mu)
    grid = triangular_grid(config, policy, points)
    assert max(p.rates[0] for p in grid) == cutoff
    assert RateProfile((cutoff, 0.0)) in grid
    assert all(p.total <= cutoff for p in grid)
