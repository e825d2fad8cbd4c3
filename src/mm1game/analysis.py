"""Closed-form equilibria, social optima, and price-of-anarchy ratios.

All closed forms here describe the game without dropping; they are the
yardstick the drop-policy designs in :mod:`mm1game.mechanism` are measured
against.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

from .model import (
    DropPolicy,
    GameConfig,
    NoDrop,
    RateProfile,
    utility,
)

__all__ = [
    "WelfareKind",
    "WelfareReport",
    "optimal_total_rate",
    "ne_closed_form",
    "social_optimum_sum",
    "social_optimum_log",
    "welfare",
    "poa_closed_form",
    "poa_of_equilibrium",
    "no_drop_report",
]


class WelfareKind(Enum):
    """How individual utilities are aggregated into social welfare."""

    SUM_UTILITY = "sum"
    SUM_LOG_UTILITY = "sum_log"


def optimal_total_rate(config: GameConfig) -> float:
    """Total rate ``mu * alpha / (alpha + 1)`` that maximizes welfare.

    Both welfare kinds are maximized at this total; they differ only in how
    it is split across users.  Requires a shared exponent.
    """
    a = config.alpha
    return config.mu * a / (a + 1.0)


def ne_closed_form(config: GameConfig) -> RateProfile:
    """The unique Nash equilibrium without dropping.

    User ``i`` sends ``mu * alpha_i / (sum(alphas) + 1)``.  Valid for
    heterogeneous exponents.
    """
    denom = sum(config.alphas) + 1.0
    return RateProfile(tuple(config.mu * a / denom for a in config.alphas))


def social_optimum_sum(config: GameConfig) -> tuple[RateProfile, float]:
    """Profile and value maximizing the plain sum of utilities.

    Above exponent one the sum is maximized by concentrating all traffic on a
    single user (reported on user 0); at or below one, by an even split.
    """
    a = config.alpha
    m = config.m
    mu = config.mu
    lam = optimal_total_rate(config)
    try:
        base = a**a * mu ** (a + 1.0) / (a + 1.0) ** (a + 1.0)
    except OverflowError as exc:
        raise OverflowError(
            f"the social optimum overflows a float at mu={mu:g}, alpha={a:g}"
        ) from exc
    if a > 1.0:
        profile = RateProfile((lam,) + (0.0,) * (m - 1))
        return profile, base
    profile = RateProfile((lam / m,) * m)
    return profile, m ** (1.0 - a) * base


def social_optimum_log(config: GameConfig) -> RateProfile:
    """Profile maximizing the sum of log-utilities: the optimal total, split evenly."""
    lam = optimal_total_rate(config)
    return RateProfile((lam / config.m,) * config.m)


def welfare(
    profile: RateProfile,
    policy: DropPolicy,
    config: GameConfig,
    kind: WelfareKind,
) -> float:
    """Aggregate welfare of a profile under a policy.

    For the log kind, any user with zero utility sends the welfare to -inf.
    """
    utilities = [utility(i, profile, policy, config) for i in range(config.m)]
    if kind is WelfareKind.SUM_UTILITY:
        return float(sum(utilities))
    if any(u == 0.0 for u in utilities):
        return -math.inf
    return float(sum(math.log(u) for u in utilities))


def poa_closed_form(m: int, alpha: float, kind: WelfareKind) -> float:
    """Price of anarchy of the drop-free game with ``m`` identical users.

    Worst-case ratio of optimal to equilibrium welfare (for the log kind the
    ratio is taken after mapping the welfare gap back through exp, i.e. it is
    the product of per-user utility ratios).  Grows without bound in ``m``.
    """
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    try:
        top = (alpha * m + 1.0) ** (alpha + 1.0)
        denom = (alpha + 1.0) ** (alpha + 1.0)
        ratio = top / (m**alpha * denom)
        if kind is WelfareKind.SUM_UTILITY:
            if alpha > 1.0:
                return top / (m * denom)
            return ratio
        return ratio**m
    except OverflowError as exc:
        raise OverflowError(
            f"the price of anarchy overflows a float at m={m}, alpha={alpha:g}"
        ) from exc


def _poa_against(config: GameConfig, kind: WelfareKind) -> Callable[[Sequence[float]], float]:
    """Drop-free optimal welfare over the welfare of per-user utilities, as a function of them.

    The optimum is computed once, here, so it needs a shared exponent, and an
    overflow raises before any utility is read.  For the log kind the ratio
    is the product over users of optimal-to-given utility ratios; a user at
    zero utility makes it +inf.  For the sum kind a zero total makes it +inf.
    """
    if kind is WelfareKind.SUM_LOG_UTILITY:
        lam = optimal_total_rate(config)
        per_user_opt = (lam / config.m) ** config.alpha * (config.mu - lam)

        def ratio(utilities: Sequence[float]) -> float:
            if 0.0 in utilities:  # -0.0 too
                return math.inf
            value = 1.0
            for u in utilities:
                value *= per_user_opt / u
            return value

        return ratio
    _, opt_value = social_optimum_sum(config)

    def ratio(utilities: Sequence[float]) -> float:
        total = sum(utilities)
        if total == 0.0:
            return math.inf
        return opt_value / total

    return ratio


def poa_of_equilibrium(
    ne_profile: RateProfile,
    policy: DropPolicy,
    config: GameConfig,
    kind: WelfareKind,
) -> float:
    """Ratio of the drop-free optimum to the welfare of a given equilibrium.

    For the log kind this is the product over users of optimal-to-equilibrium
    utility ratios; a user stuck at zero utility makes it +inf.  A game with
    mixed exponents has no such optimum and raises
    :class:`~mm1game.model.UnsupportedGameError`, whatever the utilities.
    """
    ratio = _poa_against(config, kind)
    return ratio([utility(i, ne_profile, policy, config) for i in range(config.m)])


@dataclass(frozen=True)
class WelfareReport:
    """Equilibrium-versus-optimum summary for one welfare kind."""

    kind: WelfareKind
    optimum_profile: RateProfile
    optimum_value: float
    ne_profile: RateProfile
    ne_value: float
    poa: float
    pos: float


def no_drop_report(config: GameConfig, kind: WelfareKind) -> WelfareReport:
    """Summary of the drop-free game.

    Its equilibrium is unique, so the price of stability equals the price of
    anarchy.
    """
    ne = ne_closed_form(config)
    if kind is WelfareKind.SUM_UTILITY:
        opt_profile, opt_value = social_optimum_sum(config)
    else:
        opt_profile = social_optimum_log(config)
        opt_value = welfare(opt_profile, NoDrop(), config, kind)
    ratio = poa_closed_form(config.m, config.alpha, kind)
    return WelfareReport(
        kind=kind,
        optimum_profile=opt_profile,
        optimum_value=opt_value,
        ne_profile=ne,
        ne_value=welfare(ne, NoDrop(), config, kind),
        poa=ratio,
        pos=ratio,
    )
