"""Core data types and evaluation functions for the selfish-rate queueing game.

Each of ``m`` users offers Poisson traffic to one shared exponential server
(service rate ``mu``, packets per unit time).  The server may drop arrivals
with a probability that depends only on the total offered rate; what survives
is a thinned Poisson stream.  A user cares about its *power*: accepted
throughput raised to a personal exponent, divided by the steady-state system
delay of the resulting FCFS queue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

__all__ = [
    "GameConfig",
    "RateProfile",
    "NoDrop",
    "StepPolicy",
    "LinearPolicy",
    "DropPolicy",
    "EffectiveRates",
    "UnstableQueueError",
    "UnsupportedGameError",
    "keep_probability",
    "effective_rates",
    "feasible",
    "utility",
    "potential",
    "marginal_utility",
]


class UnstableQueueError(ValueError):
    """Effective load reaches the service rate, so the queue has no steady state."""


class UnsupportedGameError(ValueError):
    """Operation is only defined when all users share one throughput exponent."""


@dataclass(frozen=True)
class GameConfig:
    """Service rate and per-user throughput exponents.

    ``alphas[i]`` is user *i*'s exponent: the user maximizes
    ``throughput**alphas[i] / delay``.  Exponents above one favour throughput,
    below one favour low delay.
    """

    mu: float
    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be a positive finite rate, got {self.mu}")
        if len(self.alphas) == 0:
            raise ValueError("alphas must contain at least one user")
        for a in self.alphas:
            if not math.isfinite(a) or a <= 0:
                raise ValueError(f"every alpha must be positive and finite, got {a}")

    @classmethod
    def uniform(cls, mu: float, alpha: float, m: int) -> "GameConfig":
        """Game with ``m`` identical users of exponent ``alpha``."""
        if m < 1:
            raise ValueError(f"m must be at least 1, got {m}")
        return cls(mu, (float(alpha),) * int(m))

    @property
    def m(self) -> int:
        return len(self.alphas)

    @property
    def homogeneous(self) -> bool:
        return len(set(self.alphas)) == 1

    @property
    def alpha(self) -> float:
        """The common exponent; raises if users differ."""
        if not self.homogeneous:
            raise UnsupportedGameError(
                f"users have distinct exponents {self.alphas}; "
                "this operation needs a single shared alpha"
            )
        return self.alphas[0]


@dataclass(frozen=True)
class RateProfile:
    """One offered (pre-drop) rate per user."""

    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        for r in self.rates:
            if not math.isfinite(r) or r < 0:
                raise ValueError(f"rates must be non-negative and finite, got {r}")

    @property
    def total(self) -> float:
        return float(sum(self.rates))

    def others_total(self, i: int) -> float:
        """Sum of everyone's rate except user ``i``."""
        return self.total - self.rates[i]

    def replace(self, i: int, rate: float) -> "RateProfile":
        """Profile with user ``i`` unilaterally moved to ``rate``."""
        rates = list(self.rates)
        rates[i] = float(rate)
        return RateProfile(tuple(rates))


@dataclass(frozen=True)
class NoDrop:
    """Server keeps everything."""


@dataclass(frozen=True)
class StepPolicy:
    """Keep everything while the offered total is at most ``threshold``, else drop all."""

    threshold: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "threshold", float(self.threshold))
        if not math.isfinite(self.threshold) or self.threshold <= 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")


@dataclass(frozen=True)
class LinearPolicy:
    """Keep everything below ``r1``, drop everything above ``r2``, interpolate between.

    The keep probability falls affinely from 1 at ``r1`` to 0 at ``r2``.
    """

    r1: float
    r2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "r1", float(self.r1))
        object.__setattr__(self, "r2", float(self.r2))
        if not (0 < self.r1 < self.r2):
            raise ValueError(f"need 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")

    @property
    def slope(self) -> float:
        """Slope of the keep probability on the interpolating segment (negative)."""
        return 1.0 / (self.r1 - self.r2)

    @property
    def intercept(self) -> float:
        """Intercept of the keep probability on the interpolating segment."""
        return -self.slope * self.r2


DropPolicy = Union[NoDrop, StepPolicy, LinearPolicy]


_SCALARS = (int, float, np.integer, np.floating)


def keep_probability(policy: DropPolicy, total_rate):
    """Probability an arrival survives when the offered total is ``total_rate``.

    Accepts a scalar or a numpy array of totals.  Python and numpy scalars
    take a plain-float path with the same expression, so both give the same
    bits.
    """
    if isinstance(total_rate, _SCALARS):
        t = float(total_rate)
        if t < 0:
            raise ValueError("total_rate must be non-negative")
        if isinstance(policy, NoDrop):
            return 1.0
        if isinstance(policy, StepPolicy):
            return 1.0 if t <= policy.threshold else 0.0
        if isinstance(policy, LinearPolicy):
            x = (policy.r2 - t) / (policy.r2 - policy.r1)
            return 1.0 if x > 1.0 else 0.0 if x < 0.0 else x  # np.clip, NaN kept
        raise TypeError(f"unknown drop policy {policy!r}")
    t = np.asarray(total_rate, dtype=float)
    if np.any(t < 0):
        raise ValueError("total_rate must be non-negative")
    if isinstance(policy, NoDrop):
        out = np.ones_like(t)
    elif isinstance(policy, StepPolicy):
        out = np.where(t <= policy.threshold, 1.0, 0.0)
    elif isinstance(policy, LinearPolicy):
        out = np.clip((policy.r2 - t) / (policy.r2 - policy.r1), 0.0, 1.0)
    else:
        raise TypeError(f"unknown drop policy {policy!r}")
    if np.ndim(total_rate) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class EffectiveRates:
    """Post-drop per-user rates and their total."""

    rates: tuple[float, ...]
    total: float


def effective_rates(profile: RateProfile, policy: DropPolicy) -> EffectiveRates:
    """Thinned rates after the policy drops a ``1 - keep`` fraction of the total."""
    p = keep_probability(policy, profile.total)
    return EffectiveRates(
        rates=tuple(r * p for r in profile.rates),
        total=profile.total * p,
    )


def feasible(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> bool:
    """Whether the surviving load is strictly below the service rate."""
    if len(profile.rates) != config.m:
        raise ValueError(
            f"profile has {len(profile.rates)} users but the game has {config.m}"
        )
    return profile.total * keep_probability(policy, profile.total) < config.mu


def _require_feasible(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> None:
    if not feasible(profile, policy, config):
        eff = profile.total * keep_probability(policy, profile.total)
        raise UnstableQueueError(
            f"effective load {eff} is not below the service rate {config.mu}; "
            "the queue has no steady state"
        )


def utility(i: int, profile: RateProfile, policy: DropPolicy, config: GameConfig) -> float:
    """User ``i``'s power: accepted throughput ** alpha_i divided by system delay.

    With total effective load ``s`` the FCFS delay is ``1 / (mu - s)``, so the
    power equals ``(rate_i * keep)**alpha_i * (mu - total * keep)``.
    """
    _require_feasible(profile, policy, config)
    p = keep_probability(policy, profile.total)
    eff_i = profile.rates[i] * p
    return eff_i ** config.alphas[i] * (config.mu - profile.total * p)


def _potential_raw(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> float:
    p = keep_probability(policy, profile.total)
    prod = p ** max(config.alphas)
    for r, a in zip(profile.rates, config.alphas):
        prod *= r**a
    return (config.mu - profile.total * p) * prod


def potential(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> float:
    """Scalar landscape tracked by best-response play.

    The value is ``keep ** A * prod_j rate_j ** alpha_j * (mu - total * keep)``
    with ``A = max(alphas)``.  For a unilateral move by user ``i`` it factors
    as ``utility_i`` times ``prod_{j != i} rate_j ** alpha_j`` times
    ``keep ** (A - alpha_i)``.

    With a shared exponent ``alpha`` the keep term vanishes: the logarithm of
    this value is an exact potential of the log-utility game (Monderer and
    Shapley, 1996), so every unilateral move changes it with the sign of the
    mover's utility change, on any policy.  With mixed exponents the same sign
    alignment holds wherever the keep probability does not change across the
    move (no dropping, or a step policy away from its cliff); on a sloped ramp
    no ordinal potential exists (strict improvement cycles occur), and
    ``A = max(alphas)`` is a convention that keeps the value defined there.
    """
    _require_feasible(profile, policy, config)
    return _potential_raw(profile, policy, config)


def _piece(policy: DropPolicy, total: float) -> tuple[float, float]:
    """Keep probability and its slope on the piece containing ``total``.

    Raises ValueError at a kink, where the keep probability is not
    differentiable.  Comparisons against breakpoints are exact.
    """
    if isinstance(policy, NoDrop):
        return 1.0, 0.0
    if isinstance(policy, StepPolicy):
        if total == policy.threshold:
            raise ValueError(
                f"keep probability is not differentiable at the threshold {total}"
            )
        return (1.0, 0.0) if total < policy.threshold else (0.0, 0.0)
    if total == policy.r1 or total == policy.r2:
        raise ValueError(f"keep probability is not differentiable at breakpoint {total}")
    if total < policy.r1:
        return 1.0, 0.0
    if total > policy.r2:
        return 0.0, 0.0
    return float(keep_probability(policy, total)), policy.slope


def marginal_utility(
    i: int, profile: RateProfile, policy: DropPolicy, config: GameConfig
) -> float:
    """Partial derivative of user ``i``'s utility in its own rate.

    Only defined strictly inside one differentiable piece of the policy;
    evaluation exactly at a breakpoint raises ValueError.
    """
    if len(profile.rates) != config.m:
        raise ValueError(
            f"profile has {len(profile.rates)} users but the game has {config.m}"
        )
    total = profile.total
    p, dp = _piece(policy, total)
    if p == 0.0:
        return 0.0  # everything is dropped on this piece, utility is flat zero
    alpha = config.alphas[i]
    lam = profile.rates[i]
    eff = lam * p
    headroom = config.mu - total * p
    if eff == 0.0:
        if alpha > 1.0:
            return 0.0
        if alpha == 1.0:
            return p * headroom
        return math.inf
    return alpha * eff ** (alpha - 1.0) * (p + lam * dp) * headroom - eff**alpha * (
        p + total * dp
    )
