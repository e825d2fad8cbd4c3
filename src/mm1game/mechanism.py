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
    _poa,
    optimal_total_rate,
    poa_of_equilibrium,
)
from .dynamics import UpdateMode, _ramp_roots, run_dynamics
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
    ``epsilon``.
    """

    config: GameConfig
    epsilon: float
    keep_prob: float = 0.9
    welfare_kind: WelfareKind = WelfareKind.SUM_LOG_UTILITY
    target_effective_total: float | None = None

    def __post_init__(self) -> None:
        alpha = self.config.alpha  # raises for heterogeneous exponents
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError(
                f"epsilon must be positive and finite, got {self.epsilon}: no policy of "
                "this family reaches a price of anarchy of exactly 1, it can only be approached"
            )
        low = alpha / (alpha + 1.0)
        if not low < self.keep_prob < 1.0:
            raise ValueError(
                f"keep_prob must lie strictly between alpha/(alpha+1)={low} and 1, "
                f"got {self.keep_prob}"
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
    """A synthesized linear policy plus what it was built to do."""

    policy: LinearPolicy
    predicted_ne: RateProfile
    predicted_poa: float
    keep_prob: float
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
    exists exactly when ``K < 1``; for the plain sum that is ``R0 < goal``,
    and otherwise :class:`DesignInfeasibleError` is raised.

    The root is solved in ``u = log(s)``, on
    ``F(u) = alpha u + log1p(-alpha expm1(u)) - log(K)``, by Newton steps
    from ``s = 1e-12``.  ``F`` is increasing and concave, so each tangent
    meets zero at or below the root and the iterates climb to it without
    passing it.  The loop stops at the first step that does not raise ``u``:
    once rounding hides the rest of the climb, nothing below the root is left
    to take.  ``s`` is clamped to ``[1e-12, 1 - 1e-12]``.
    """
    alpha, m = spec.config.alpha, spec.config.m
    log_goal = math.log1p((1.0 - _POA_MARGIN) * spec.epsilon)
    if spec.welfare_kind is WelfareKind.SUM_LOG_UTILITY:
        log_k = -log_goal / m
    else:
        log_k = max(alpha - 1.0, 0.0) * math.log(m) - log_goal  # log(R0) - log(goal)
        if log_k >= 0.0:
            try:
                infimum = repr(m ** (alpha - 1.0))
            except OverflowError:  # the test above compared logarithms, which fit
                infimum = f"{m}**{alpha - 1.0!r}, beyond the float range"
            raise DesignInfeasibleError(
                f"no symmetric equilibrium reaches a price of anarchy of {1 + spec.epsilon}: "
                f"the achievable infimum for this welfare kind is m**(alpha-1) = {infimum}"
            )
    u, nxt = -math.inf, math.log(1e-12)
    while nxt > u:
        u = nxt
        e = math.expm1(u)
        f = alpha * u + math.log1p(-alpha * e) - log_k
        # minus f / F'(u), with F'(u) = -alpha (alpha + 1) e / (1 - alpha e): the form
        # alpha - alpha s / (1 - alpha e) cancels to noise as s nears 1.  The clamp
        # u <= -1e-12 keeps s at or below 1 - 1e-12, to the bit.
        nxt = min(-1e-12, u + f * (1.0 - alpha * e) / (alpha * (alpha + 1.0) * e))
    return optimal_total_rate(spec.config) * math.exp(u)


def design_linear(spec: DesignSpec) -> PolicyDesign:
    """Build the linear policy whose unique equilibrium hits the spec's target.

    The target effective total and keep probability fix the raw equilibrium
    total.  A symmetric user's stationarity condition there is linear in the
    policy's slope, which pins the slope and hence both breakpoints.  Breakpoints
    that do not bracket the target, or a ramp start below
    :data:`~mm1game.model.RATE_FLOOR`, raise :class:`DesignInfeasibleError`.
    """
    config = spec.config
    alpha = config.alpha
    m = config.m
    mu = config.mu
    lam_opt = optimal_total_rate(config)
    lam_e = (
        spec.target_effective_total
        if spec.target_effective_total is not None
        else target_effective_rate(spec)
    )
    p = spec.keep_prob
    lam_raw = lam_e / p

    # stationarity of one user at the even split of lam_raw, solved for the slope
    keep_gain = p * (alpha * mu - lam_e * (alpha * m + 1.0) / m)
    drop_cost = lam_raw * (alpha + 1.0) * (lam_opt - lam_e) / m
    if not keep_gain > 0.0:  # positive below the optimum, but it rounds to 0 within an ulp of it
        raise DesignInfeasibleError(
            f"the target effective total {lam_e} is too close to the welfare-optimal "
            f"total {lam_opt} to solve for a slope"
        )
    slope = -keep_gain / drop_cost
    r2 = lam_raw - p / slope
    r1 = 1.0 / slope + r2

    if r1 <= lam_e or r2 <= r1 or r1 < RATE_FLOOR:
        raise DesignInfeasibleError(
            f"the solved breakpoints r1={r1}, r2={r2} do not bracket the target "
            f"(effective total {lam_e}, raw total {lam_raw}) above the rate floor "
            f"{RATE_FLOOR:g}; pick a keep_prob closer to 1 or a less aggressive target"
        )

    predicted_poa = poa_at_symmetric_rate(config, spec.welfare_kind, lam_e)
    if predicted_poa > 1.0 + spec.epsilon + 1e-12:
        raise DesignInfeasibleError(
            f"the requested target gives a price of anarchy of {predicted_poa}, "
            f"above the allowed {1.0 + spec.epsilon}"
        )

    return PolicyDesign(
        policy=LinearPolicy(r1, r2),
        predicted_ne=RateProfile((lam_raw / m,) * m),
        predicted_poa=predicted_poa,
        keep_prob=p,
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
    a continuum this census does not list.
    """
    alpha = config.alpha  # raises for heterogeneous exponents
    m = config.m
    mu = config.mu
    r1, r2 = policy.r1, policy.r2
    if not r1 < r2:
        raise ValueError(f"the census needs a ramp with r1 < r2, got r1={r1}, r2={r2}")
    w = r2 - r1
    muw = mu * w
    ys = _ramp_roots(alpha, m, 0.0, r2, muw)
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


def validate_design(design: PolicyDesign, spec: DesignSpec) -> DesignDiagnostics:
    """Check a produced design against its spec.

    Reports the paper's sufficient slope condition for uniqueness, the
    census certificate of :func:`equilibrium_census`, and that the
    keep-everything region stays below the service rate.  Best-response
    play then starts from the census root or kink nearest the prediction
    (from the prediction itself if there is neither); at an equilibrium the
    first round changes nothing.  A lone user's flat member is no start:
    each round answers the others' total 0, so play ends on the same rate
    from any start.  The realized equilibrium and its price of
    anarchy are where that play ends; it matches the prediction when play
    converged and each rate is within 1e-6 of its predicted rate, relative.
    """
    config = spec.config
    alpha = config.alpha
    policy = design.policy
    lam_opt = optimal_total_rate(config)

    bound = 1.0 / ((alpha + 1.0) * (policy.r1 - lam_opt)) if policy.r1 > lam_opt else math.inf
    slope_ok = abs(policy.slope) > bound
    r1_ok = policy.r1 < config.mu

    census = equilibrium_census(policy, config)
    members = list(census.roots)
    if census.kink is not None:
        members.append(policy.r1)
    predicted = design.predicted_ne.total
    start = min(members, key=lambda t: abs(t - predicted), default=predicted)
    init = RateProfile((start / config.m,) * config.m)
    # play may stop at a step of a few ulps: 1e-10 is below one ulp of rates near 1e15
    tol = max(1e-10, 8 * math.ulp(predicted))
    trajectory = run_dynamics(
        config, policy, init, mode=UpdateMode.ROUND_ROBIN, tol=tol, max_iter=20_000
    )
    realized = trajectory.final_profile
    ne_ok = trajectory.converged and all(
        abs(r - q) <= 1e-6 * q
        for r, q in zip(realized.rates, design.predicted_ne.rates)
    )
    realized_poa = poa_of_equilibrium(realized, policy, config, spec.welfare_kind)
    poa_ok = realized_poa <= 1.0 + spec.epsilon

    return DesignDiagnostics(
        slope_exceeds_uniqueness_bound=slope_ok,
        certified_unique=census.unique,
        r1_below_service_rate=r1_ok,
        ne_matches_prediction=ne_ok,
        poa_within_bound=poa_ok,
        uniqueness_bound=bound,
        realized_ne=realized,
        realized_poa=realized_poa,
    )


def designed_with_diagnostics(spec: DesignSpec) -> PolicyDesign:
    """Run the full pipeline: synthesize, validate, and attach diagnostics."""
    design = design_linear(spec)
    diagnostics = validate_design(design, spec)
    return replace(design, diagnostics=diagnostics)
