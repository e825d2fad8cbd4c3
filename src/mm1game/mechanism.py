"""Synthesis of dropping policies that pin equilibrium efficiency.

A step policy placed at the welfare-optimal total makes every split of that
total an equilibrium (best case optimal, worst case arbitrarily bad).  The
linear designs below instead aim the unique equilibrium at a chosen effective
total just under the optimum, trading an efficiency loss of at most
``epsilon`` for robustness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .analysis import (
    WelfareKind,
    _check_kind,
    _poa,
    optimal_total_rate,
    poa_of_equilibrium,
)
from .dynamics import _ramp_roots, run_dynamics
from .model import RATE_FLOOR, DropPolicy, GameConfig, LinearPolicy, RateProfile, StepPolicy

__all__ = [
    "DesignInfeasibleError",
    "DesignSpec",
    "PolicyDesign",
    "DesignDiagnostics",
    "EquilibriumCensus",
    "step_policy",
    "poa_at_symmetric_rate",
    "target_effective_rate",
    "design_linear",
    "equilibrium_census",
    "validate_design",
    "designed_with_diagnostics",
]

# The target solver aims a hair inside the requested bound so that rounding in
# the designed breakpoints and in the realized equilibrium cannot push the
# realized ratio past it.
_POA_MARGIN = 1e-3

# Every design's epsilon is at least this times m * max(1, alpha).  Its target
# aims at 1 + (1 - _POA_MARGIN) epsilon, a relative margin of about _POA_MARGIN
# epsilon / (1 + epsilon) under the promise, and the realized ratio carries a
# relative rounding that grows with m and alpha; below the floor validation's
# check cannot resolve the margin.  On 200,000 random specs (exponents 1e-30 to
# 1e8, m 2 to 1,000, service rates over the whole domain, both welfare kinds,
# epsilon 1e-6 to 1e6 times the floor), poa_within_bound failed in a third of
# the feasible designs at 1e-6 of the floor, in 76 of 7,662 at 1e-3 to 1e-2 and
# in none of 13,439 at 0.1 to 1; none of 57,865 designs inside the domain failed
# it.  Once epsilon passes 1 the margin stops growing, so from 1e-9 m alpha = 10
# designs failed at every epsilon (21 of 128 with exponents 1e4 to 1e8, log
# kind; none of 396 from 1 to 10): the keep_prob ceiling below admits no
# keep_prob there, as it leaves room only while m (alpha + 1) < 1e9.  The plain
# sum above exponent one needs the same gap per user (see
# target_effective_rate): its goal just above the infimum m**(alpha-1) puts the
# target within rounding of the optimum, and with the gap -log K under about
# 1e-18 max(1, alpha) its designs failed the check, under 1e-14 max(1, alpha)
# they listed kinks, and from 1e-14 on none of 5,354 did either.
_EPSILON_FLOOR = 1e-9

# Every design drops at least this times m of the traffic at its equilibrium:
# keep_prob <= 1 - _DROP_FLOOR * m.  The equilibrium sits the share
# 1 - keep_prob into the ramp, which is about (alpha + 1)(1 - s) / (m - 1) of
# the total wide (s the target over the optimal total), so nearer 1 the ramp
# start r1 rounds onto the equilibrium: the census lists a kink there, and the
# design loses its certificate.  With epsilon above its floor, kinks appeared
# in 26 of 1,031 designs with (1 - keep_prob) / m between 1e-13 and 1e-12, in a
# sixth to nine tenths of those in each decade below, and in none of 54,029
# above 1e-12; where epsilon sits on its floor too, a ceiling of 1 - 1e-9 still
# gave 3 kinks, at m 691 to 963.  The bound keeps about two decades above that
# corner.  With alpha / (alpha + 1) < keep_prob, it leaves keep_prob room
# exactly while m (alpha + 1) < 1e9, where the epsilon floor stays below 1.
_DROP_FLOOR = 1e-9


class DesignInfeasibleError(ValueError):
    """No policy with the requested shape and guarantees exists."""


@dataclass(frozen=True)
class DesignSpec:
    """What the designed policy must achieve.

    ``epsilon`` is the tolerated efficiency loss: the designed equilibrium's
    price of anarchy may not exceed ``1 + epsilon``.  ``keep_prob`` is the
    fraction of traffic the server should still accept at the designed
    equilibrium; it must exceed ``alpha / (alpha + 1)`` for such an
    equilibrium to exist.  ``target_effective_total`` pins the surviving
    total at the equilibrium explicitly; when omitted it is solved from
    ``epsilon``.  ``welfare_kind`` is a :class:`WelfareKind`; a member's value,
    such as ``"sum"``, is refused.

    The spec must lie in the design domain, where a design solved from
    ``epsilon`` can keep its promise in floats: ``epsilon`` at least
    ``1e-9 * m * max(1, alpha)``, and ``keep_prob`` at most ``1 - 1e-9 * m``
    (so no keep_prob once ``m (alpha + 1)`` reaches ``1e9``).  Past either
    bound, or with a non-finite epsilon, it raises ValueError naming the bound
    and the value.  Inside the domain every design :func:`design_linear` returns
    for a solved target passes its own price-of-anarchy check and lists no
    kink; the evidence is beside ``_EPSILON_FLOOR`` and ``_DROP_FLOOR``.
    """

    config: GameConfig
    epsilon: float
    keep_prob: float = 0.9
    welfare_kind: WelfareKind = WelfareKind.SUM_LOG_UTILITY
    target_effective_total: float | None = None

    def __post_init__(self) -> None:
        _check_kind("welfare_kind", self.welfare_kind)
        alpha, m = self.config.alpha, self.config.m  # alpha raises for heterogeneous exponents
        floor = _EPSILON_FLOOR * m * max(1.0, alpha)
        if not floor <= self.epsilon < math.inf:  # false for NaN too
            raise ValueError(
                f"epsilon must be finite and at least {_EPSILON_FLOOR:g} * m * max(1, alpha) = "
                f"{floor!r} at m={m}, alpha={alpha!r}, got {self.epsilon}: a price of anarchy "
                "of 1 can only be approached"
            )
        low, ceiling = alpha / (alpha + 1.0), 1.0 - _DROP_FLOOR * m
        if not low < self.keep_prob <= ceiling:
            raise ValueError(
                f"keep_prob must lie above alpha/(alpha+1)={low} and at most "
                f"1 - {_DROP_FLOOR:g} * m = {ceiling!r} at m={m}, got {self.keep_prob}"
            )
        if self.target_effective_total is not None:
            lam_opt = optimal_total_rate(self.config)
            if not 0.0 < self.target_effective_total < lam_opt:
                raise ValueError(
                    "target_effective_total must lie strictly between 0 and the "
                    f"welfare-optimal total {lam_opt}, got {self.target_effective_total}"
                )


@dataclass(frozen=True)
class DesignDiagnostics:
    """Validation outcome of a produced design.

    ``certified_unique`` is the census certificate of
    :func:`equilibrium_census`: the designed game has no equilibrium candidate
    besides one ramp total.  ``slope_exceeds_uniqueness_bound`` is the paper's
    sufficient slope condition, reported beside it; it cannot hold when ``r1``
    lies below the welfare-optimal total, however unique the equilibrium is.
    ``all_ok`` asks the certificate, not the slope condition.
    """

    slope_exceeds_uniqueness_bound: bool
    certified_unique: bool
    r1_below_service_rate: bool
    ne_matches_prediction: bool
    poa_within_bound: bool
    uniqueness_bound: float
    realized_ne: RateProfile
    realized_poa: float

    @property
    def all_ok(self) -> bool:
        return (
            self.certified_unique
            and self.r1_below_service_rate
            and self.ne_matches_prediction
            and self.poa_within_bound
        )


@dataclass(frozen=True)
class EquilibriumCensus:
    """Every candidate total of an equilibrium of a shared-exponent ramp game.

    ``roots`` are the interior totals on the ramp, ascending; ``kink`` is the
    range ``(lo, hi)`` of per-user rates that a profile with total ``r1``
    must keep to, or None when no profile summing to ``r1`` fits it;
    ``flat`` is a lone user's drop-free optimum when it lies below ``r1``.
    Profiles in which every user's others already reach ``r2`` earn nothing
    whatever anyone sends; they are not counted.
    """

    roots: tuple[float, ...]
    kink: tuple[float, float] | None
    flat: float | None

    @property
    def unique(self) -> bool:
        return len(self.roots) == 1 and self.kink is None and self.flat is None


@dataclass(frozen=True)
class PolicyDesign:
    """A synthesized linear policy plus what it was built to do.

    ``spec`` is the spec it was built from, the one source of the game, the
    keep probability, the budget and the welfare kind that
    :func:`validate_design` checks it against.
    """

    spec: DesignSpec
    policy: LinearPolicy
    predicted_ne: RateProfile
    predicted_poa: float
    target_effective_total: float
    target_raw_total: float
    diagnostics: DesignDiagnostics | None = None


def step_policy(config: GameConfig) -> StepPolicy:
    """Threshold policy at the welfare-optimal total rate."""
    return StepPolicy(optimal_total_rate(config))


def poa_at_symmetric_rate(
    config: GameConfig, kind: WelfareKind, effective_total: float
) -> float:
    """Price of anarchy if the equilibrium delivers ``effective_total``, split evenly."""
    if not 0.0 < effective_total < config.mu:
        raise ValueError(
            f"effective_total must lie in (0, mu={config.mu}), got {effective_total}"
        )
    return _poa(config, kind, [effective_total / config.m] * config.m, config.mu - effective_total)


def target_effective_rate(spec: DesignSpec) -> float:
    """Effective equilibrium total whose symmetric price of anarchy meets the spec.

    Write the target as ``t = s * lam_opt`` with ``lam_opt`` the
    welfare-optimal total.  An even split of ``t`` then earns
    ``g(s) = s**alpha * (alpha + 1 - alpha * s)`` times an even split of
    ``lam_opt``, whatever ``mu`` is.  The symmetric price of anarchy is
    ``g(s)**-m`` for the log kind and ``R0 / g(s)`` for the plain sum, where
    ``R0 = m**(alpha-1)`` above exponent one (the optimum gives all traffic
    to one user) and 1 otherwise.  The ratio meets ``goal = 1 + (1 -
    margin) * epsilon`` when ``g(s) >= K``, with ``K = goal**(-1/m)`` or
    ``K = R0 / goal``.  ``g`` rises from 0 to 1 on ``(0, 1)``, so a target
    exists exactly when ``K < 1``.  It is resolved only when ``-log(K)``, the
    gap each user's utility must close, is at least ``1e-9 * max(1, alpha)``:
    the spec's epsilon floor gives about that to the log kind and to the
    plain sum at exponents up to one, and the plain sum above exponent one
    needs its goal to pass ``R0`` by that factor, or
    :class:`DesignInfeasibleError` is raised.

    The root is solved in ``u = log(s)``, on
    ``F(u) = alpha u + log1p(-alpha expm1(u)) - log(K)``, by Newton steps
    from ``s = 1e-12``.  ``F`` is increasing and concave, so each tangent
    meets zero at or below the root and the iterates climb to it without
    passing it.  The loop stops at the first step that does not raise ``u``:
    once rounding hides the rest of the climb, nothing below the root is left
    to take.  The gap above keeps the root at ``1 - s >= 4e-9`` or more
    (``1 - s`` is about ``sqrt(2 gap / (alpha (alpha + 1)))``, and
    ``EXPONENT_LIMIT`` bounds ``alpha``), so ``u`` stays clear of 0, where
    ``F'`` divides by ``expm1(u)``.
    """
    alpha, m = spec.config.alpha, spec.config.m
    log_goal = math.log1p((1.0 - _POA_MARGIN) * spec.epsilon)
    if spec.welfare_kind is WelfareKind.SUM_LOG_UTILITY:
        log_k = -log_goal / m
    else:
        log_k = max(alpha - 1.0, 0.0) * math.log(m) - log_goal  # log(R0) - log(goal)
        if log_k > -_EPSILON_FLOOR * max(1.0, alpha):
            try:
                infimum = repr(m ** (alpha - 1.0))
            except OverflowError:  # the test above compared logarithms, which fit
                infimum = f"{m}**{alpha - 1.0!r}, beyond the float range"
            raise DesignInfeasibleError(
                f"no symmetric equilibrium reaches a price of anarchy of {1 + spec.epsilon}: "
                f"the achievable infimum for this welfare kind is m**(alpha-1) = {infimum}, "
                f"and the design's goal must pass it by exp({_EPSILON_FLOOR:g} * max(1, alpha))"
            )
    u, nxt = -math.inf, math.log(1e-12)
    while nxt > u:
        u = nxt
        e = math.expm1(u)
        f = alpha * u + math.log1p(-alpha * e) - log_k
        # minus f / F'(u), with F'(u) = -alpha (alpha + 1) e / (1 - alpha e): the form
        # alpha - alpha s / (1 - alpha e) cancels to noise as s nears 1
        nxt = u + f * (1.0 - alpha * e) / (alpha * (alpha + 1.0) * e)
    return optimal_total_rate(spec.config) * math.exp(u)


def design_linear(spec: DesignSpec) -> PolicyDesign:
    """Build the linear policy whose unique equilibrium hits the spec's target.

    The target effective total and keep probability fix the raw equilibrium
    total.  A symmetric user's stationarity condition there is linear in the
    policy's slope, which pins the slope and hence both breakpoints.  Breakpoints
    that do not bracket the target, or a ramp start below
    :data:`~mm1game.model.RATE_FLOOR`, raise :class:`DesignInfeasibleError`.
    So does a lone user, first: its drop-free equilibrium is already the
    welfare optimum, so no dropping policy can improve on it.
    """
    config = spec.config
    alpha, m, mu = config.alpha, config.m, config.mu
    if m == 1:
        raise DesignInfeasibleError(
            "a lone user needs no dropping policy: its drop-free equilibrium is already "
            "the welfare optimum, with a price of anarchy of 1"
        )
    lam_opt = optimal_total_rate(config)
    lam_e = spec.target_effective_total
    if lam_e is None:
        lam_e = target_effective_rate(spec)
    p = spec.keep_prob
    lam_raw = lam_e / p

    # Stationarity of one user at the even split of lam_raw, solved for the slope.
    # As lam_e < lam_opt = alpha mu / (alpha + 1), keep_gain exceeds
    # p alpha mu (m - 1) / ((alpha + 1) m) exactly.  For m >= 2 that is at least
    # p alpha mu / (2 (alpha + 1)), a relative margin of ~5e-9 or more under
    # EXPONENT_LIMIT, while rounding lam_opt, lam_e and keep_gain moves it by a
    # few ulps of p alpha mu: keep_gain stays positive.  drop_cost is positive
    # too, but a target deep in the subnormals underflows it to 0; the slope is
    # then the -inf of IEEE division, and the breakpoint check below refuses
    # the ramp it gives, r1 = r2.
    keep_gain = p * (alpha * mu - lam_e * (alpha * m + 1.0) / m)
    drop_cost = lam_raw * (alpha + 1.0) * (lam_opt - lam_e) / m
    slope = -keep_gain / drop_cost if drop_cost else -math.inf
    r2 = lam_raw - p / slope
    r1 = 1.0 / slope + r2

    if r1 <= lam_e or r2 <= r1 or r1 < RATE_FLOOR:
        raise DesignInfeasibleError(
            f"the solved breakpoints r1={r1}, r2={r2} do not bracket the target "
            f"(effective total {lam_e}, raw total {lam_raw}) above the rate floor "
            f"{RATE_FLOOR:g}; pick a keep_prob closer to 1 or a less aggressive target"
        )

    predicted_poa = poa_at_symmetric_rate(config, spec.welfare_kind, lam_e)
    if predicted_poa > 1.0 + spec.epsilon:
        raise DesignInfeasibleError(
            f"the requested target gives a price of anarchy of {predicted_poa}, "
            f"above the allowed {1.0 + spec.epsilon}"
        )

    return PolicyDesign(
        spec=spec,
        policy=LinearPolicy(r1, r2),
        predicted_ne=RateProfile((lam_raw / m,) * m),
        predicted_poa=predicted_poa,
        target_effective_total=lam_e,
        target_raw_total=lam_raw,
    )


def equilibrium_census(policy: DropPolicy, config: GameConfig) -> EquilibriumCensus:
    """Every candidate equilibrium of a shared-exponent game on a ramp, without iteration.

    The game is aggregative: fix the total ``T`` on the ramp, with keep
    probability ``p`` and headroom ``q = mu - T p``.  An interior symmetric
    equilibrium total is a ``T`` at which one user's stationarity condition
    in :func:`~mm1game.dynamics.best_response`, taken against the others'
    total ``(m - 1) T / m``, holds at its own rate ``T / m``.  That is the
    condition ``g`` of :func:`~mm1game.dynamics._ramp_roots` with ``k = m``
    users sharing ``y = T`` and no outsiders (``b = 0``), the same cubic
    and Newton polish as a best response's ``k = 1``.  Its coefficients
    are used times ``w^2`` with ``w = r2 - r1``, which keeps them the size
    of the breakpoints on a steep ramp.  A root counts when
    ``r1 < T < r2`` and ``q > 0``; each user then sends a positive rate
    ``T / m`` into a stable queue.  Roots that polish to one float count once.

    At the kink ``T = r1`` no user may gain by moving either way: the
    drop-free side asks ``x <= alpha (mu - r1)`` of each rate, the ramp side
    ``x >= lo = alpha / ((1 + s r1) / (mu - r1) - alpha s)``.  Both are read
    at the even split ``x = r1 / m`` off floats the census lists anyway.  The
    drop-free side is ``r1 <= top = mu m alpha / (m alpha + 1)``; for a lone
    user ``top`` is the drop-free optimum to the bit, so the flat member
    below and the kink exclude each other exactly.  The ramp side is
    ``g(r1) <= 0``, since ``g(r1) = w gain (m lo - r1)`` with ``gain > 0``;
    ``g`` ends negative, so that holds when an even number of its real roots
    lie above ``r1``.  The root filter reads the same roots: where ``r1`` is a
    root of ``g``, a root polished just above ``r1`` takes the kink's place,
    and one at or below ``r1`` leaves it.  The kink's range ``(lo, hi)``
    holds ``r1 / m`` however ``lo`` and ``hi`` round.  Below ``r1`` a ramp
    rate beats the drop-free optimum whenever the others send anything (see
    :func:`~mm1game.dynamics.best_response`), so the flat piece holds an
    equilibrium only for a lone user.

    These are first-order conditions, so every equilibrium that lets traffic
    through is a member: one root and nothing else certifies that the
    equilibrium is unique.  Whether a member is an equilibrium at all is
    left to best-response play.

    A policy without a ramp (``r1 == r2``: a step, or no dropping) raises
    ValueError: at a step's threshold every split can be an equilibrium,
    a continuum this census does not list.  A ramp with ``r2`` above
    :data:`~mm1game.model.RAMP_LIMIT` times ``mu`` raises ValueError naming
    ``mu``, the ramp and the bound, as
    :func:`~mm1game.dynamics.best_response` does.
    """
    alpha = config.alpha  # raises for heterogeneous exponents
    m, mu = config.m, config.mu
    r1, r2 = policy.r1, policy.r2
    if not r1 < r2:
        raise ValueError(f"the census needs a ramp with r1 < r2, got r1={r1}, r2={r2}")
    w = r2 - r1
    muw = mu * w
    ys = _ramp_roots(alpha, m, 0.0, mu, policy)
    roots = {t for t in ys if r1 < t < r2 and muw > t * (r2 - t)}  # a double root once
    top = mu * (m * alpha) / (m * alpha + 1.0)  # m = 1: optimal_total_rate, to the bit
    kink = None
    # the ramp side: an even number of g's roots above r1; the flat side: r1 <= top
    # (r1 < mu too, as top rounds to mu once m alpha passes 2**53)
    if r1 < mu and r1 <= top and sum(t > r1 for t in ys) % 2 == 0:
        x = r1 / m  # the even split, which the range holds however lo and hi round
        gain = r2 - 2.0 * r1 + alpha * (mu - r1)  # w (mu - r1) times the ramp-side bound
        lo = alpha * w * (mu - r1) / gain if gain > 0.0 else x  # gain is noise at a 1-ulp edge
        kink = (min(lo, x), max(alpha * (mu - r1), x))
    flat = top if m == 1 and top < r1 else None
    return EquilibriumCensus(tuple(sorted(roots)), kink, flat)


def validate_design(design: PolicyDesign) -> DesignDiagnostics:
    """Check a produced design against its own ``design.spec``.

    Reports the paper's sufficient slope condition for uniqueness, the
    census certificate of :func:`equilibrium_census`, and that the
    keep-everything region stays below the service rate.  Best-response
    play then starts from the census root nearest the prediction (from the
    prediction itself if there is none); at an equilibrium the first round
    changes nothing.  Inside the spec's domain a design's census lists no
    kink, and a lone user's flat member is no start either: each round
    answers the others' total 0, so play ends on the same rate from any
    start.  The realized equilibrium and its price of anarchy are where
    that play ends; it matches the prediction when play converged and each
    rate is within 1e-6 of its predicted rate, relative.
    """
    spec, policy = design.spec, design.policy
    config, alpha = spec.config, spec.config.alpha
    lam_opt = optimal_total_rate(config)

    bound = 1.0 / ((alpha + 1.0) * (policy.r1 - lam_opt)) if policy.r1 > lam_opt else math.inf

    census = equilibrium_census(policy, config)
    predicted = design.predicted_ne.total
    start = min(census.roots, key=lambda t: abs(t - predicted), default=predicted)
    init = RateProfile((start / config.m,) * config.m)
    # play may stop at a step of a few ulps: 1e-10 is below one ulp of rates near 1e15
    tol = max(1e-10, 8 * math.ulp(predicted))
    trajectory = run_dynamics(config, policy, init, tol=tol, max_iter=20_000)  # round-robin
    realized = trajectory.final_profile
    ne_ok = trajectory.converged and all(
        abs(r - q) <= 1e-6 * q
        for r, q in zip(realized.rates, design.predicted_ne.rates)
    )
    realized_poa = poa_of_equilibrium(realized, policy, config, spec.welfare_kind)

    return DesignDiagnostics(
        slope_exceeds_uniqueness_bound=abs(policy.slope) > bound,
        certified_unique=census.unique,
        r1_below_service_rate=policy.r1 < config.mu,
        ne_matches_prediction=ne_ok,
        poa_within_bound=realized_poa <= 1.0 + spec.epsilon,
        uniqueness_bound=bound,
        realized_ne=realized,
        realized_poa=realized_poa,
    )


def designed_with_diagnostics(spec: DesignSpec) -> PolicyDesign:
    """Run the full pipeline: synthesize, validate, and attach diagnostics."""
    design = design_linear(spec)
    return replace(design, diagnostics=validate_design(design))
