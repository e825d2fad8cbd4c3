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
    _poa_ratio,
    optimal_total_rate,
    poa_of_equilibrium,
)
from .dynamics import UpdateMode, run_dynamics
from .model import GameConfig, LinearPolicy, RateProfile, StepPolicy

__all__ = [
    "DesignInfeasibleError",
    "DesignSpec",
    "PolicyDesign",
    "DesignDiagnostics",
    "step_policy",
    "poa_at_symmetric_rate",
    "target_effective_rate",
    "design_linear",
    "validate_design",
    "designed_with_diagnostics",
]

# The target solver aims a hair inside the requested bound so that floating
# point and best-response refinement noise cannot push the realized ratio past it.
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
        if self.epsilon <= 0:
            raise ValueError(
                "epsilon must be positive: no policy of this family reaches a "
                "price of anarchy of exactly 1, it can only be approached"
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
    """Validation outcome of a produced design."""

    slope_exceeds_uniqueness_bound: bool
    r1_below_service_rate: bool
    ne_matches_prediction: bool
    poa_within_bound: bool
    uniqueness_bound: float
    realized_ne: RateProfile
    realized_poa: float

    @property
    def all_ok(self) -> bool:
        return (
            self.slope_exceeds_uniqueness_bound
            and self.r1_below_service_rate
            and self.ne_matches_prediction
            and self.poa_within_bound
        )


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


def _symmetric_utility(config: GameConfig, effective_total: float) -> float:
    """Per-user utility when ``effective_total`` survives, split evenly."""
    x = effective_total / config.m
    return x**config.alpha * (config.mu - effective_total)


def poa_at_symmetric_rate(
    config: GameConfig, kind: WelfareKind, effective_total: float
) -> float:
    """Price of anarchy if the equilibrium delivers ``effective_total``, split evenly."""
    if not 0.0 < effective_total < config.mu:
        raise ValueError(
            f"effective_total must lie in (0, mu={config.mu}), got {effective_total}"
        )
    return _poa_ratio([_symmetric_utility(config, effective_total)] * config.m, config, kind)


def target_effective_rate(spec: DesignSpec) -> float:
    """Effective equilibrium total whose symmetric price of anarchy meets the spec.

    Solved by bisection; the symmetric ratio decreases strictly as the target
    approaches the welfare-optimal total, so the solution is unique when it
    exists.  For the plain-sum welfare with exponent above one the ratio
    cannot fall below ``m**(alpha-1)``, in which case tighter requests raise
    :class:`DesignInfeasibleError`.
    """
    config = spec.config
    lam_opt = optimal_total_rate(config)
    goal = 1.0 + (1.0 - _POA_MARGIN) * spec.epsilon
    lo = lam_opt * 1e-12
    hi = lam_opt * (1.0 - 1e-12)
    if poa_at_symmetric_rate(config, spec.welfare_kind, hi) > goal:
        floor = poa_at_symmetric_rate(config, spec.welfare_kind, hi)
        raise DesignInfeasibleError(
            f"no symmetric equilibrium reaches a price of anarchy of {1 + spec.epsilon}: "
            f"the achievable infimum for this welfare kind is about {floor}"
        )
    while lo < (mid := 0.5 * (lo + hi)) < hi:  # until lo and hi are adjacent floats
        if poa_at_symmetric_rate(config, spec.welfare_kind, mid) > goal:
            lo = mid
        else:
            hi = mid
    return hi


def design_linear(spec: DesignSpec) -> PolicyDesign:
    """Build the linear policy whose unique equilibrium hits the spec's target.

    The target effective total and keep probability fix the raw equilibrium
    total.  A symmetric user's stationarity condition there is linear in the
    policy's slope, which pins the slope and hence both breakpoints.
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
    slope = -keep_gain / drop_cost
    r2 = lam_raw - p / slope
    r1 = 1.0 / slope + r2

    if r1 <= lam_e or r2 <= r1:
        raise DesignInfeasibleError(
            f"the solved breakpoints r1={r1}, r2={r2} do not bracket the target "
            f"(effective total {lam_e}, raw total {lam_raw}); "
            "pick a keep_prob closer to 1 or a less aggressive target"
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


def validate_design(design: PolicyDesign, spec: DesignSpec) -> DesignDiagnostics:
    """Check a produced design against its spec.

    Verifies the slope condition that makes the designed equilibrium unique,
    that the keep-everything region stays below the service rate, and — by
    actually running best-response dynamics — that the realized equilibrium
    and its price of anarchy match the prediction.
    """
    config = spec.config
    alpha = config.alpha
    policy = design.policy
    lam_opt = optimal_total_rate(config)

    if policy.r1 > lam_opt:
        bound = 1.0 / ((alpha + 1.0) * (policy.r1 - lam_opt))
        slope_ok = abs(policy.slope) > bound
    else:
        bound = math.inf
        slope_ok = False
    r1_ok = policy.r1 < config.mu

    init = RateProfile((0.05 * config.mu / config.m,) * config.m)
    trajectory = run_dynamics(
        config, policy, init, mode=UpdateMode.ROUND_ROBIN, tol=1e-10, max_iter=20_000
    )
    realized = trajectory.final_profile
    ne_ok = trajectory.converged and all(
        abs(r - q) <= 1e-6 * config.mu
        for r, q in zip(realized.rates, design.predicted_ne.rates)
    )
    realized_poa = poa_of_equilibrium(realized, policy, config, spec.welfare_kind)
    poa_ok = realized_poa <= 1.0 + spec.epsilon

    return DesignDiagnostics(
        slope_exceeds_uniqueness_bound=slope_ok,
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
