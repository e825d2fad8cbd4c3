"""Closed-form equilibria, social optima, and price-of-anarchy ratios.

All closed forms here describe the game without dropping; they are the
yardstick the drop-policy designs in :mod:`mm1game.mechanism` are measured
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import (
    DropPolicy,
    GameConfig,
    NoDrop,
    RateProfile,
    _check_integer,
    _require_feasible,
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

# Largest logarithm of a finite double, math.log(sys.float_info.max): exp of anything
# above it overflows.
_LOG_FLOAT_MAX = 709.782712893384


class WelfareKind(Enum):
    """How individual utilities are aggregated into social welfare."""

    SUM_UTILITY = "sum"
    SUM_LOG_UTILITY = "sum_log"


def _check_kind(name: str, kind: object) -> None:
    """Raise ValueError naming ``name`` unless ``kind`` is a :class:`WelfareKind`;
    a member's value, such as ``"sum"``, is refused."""
    if not isinstance(kind, WelfareKind):
        raise ValueError(f"{name} must be one of {[*WelfareKind]}, got {kind!r}")


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
    single user (reported on user 0); at or below one, by an even split.  The
    value is the profile's :func:`welfare`.
    """
    lam = optimal_total_rate(config)
    m = config.m
    if config.alpha > 1.0:
        profile = RateProfile((lam,) + (0.0,) * (m - 1))
    else:
        profile = RateProfile((lam / m,) * m)
    return profile, welfare(profile, NoDrop(), config, WelfareKind.SUM_UTILITY)


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
    A utility's OverflowError is raised again naming ``mu`` and ``alpha``.
    """
    _check_kind("kind", kind)
    try:
        utilities = [utility(i, profile, policy, config) for i in range(config.m)]
    except OverflowError as exc:
        alphas = ",".join(f"{a:g}" for a in dict.fromkeys(config.alphas))
        message = f"a user's utility overflows a float at mu={config.mu:g}, alpha={alphas}"
        raise OverflowError(message) from exc
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
    It is formed from its logarithm, so only a ratio past a double overflows.
    ``m`` is an integer of at least 1 and ``alpha`` positive and finite.
    """
    _check_integer("m", m)
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if not 0 < alpha < math.inf:  # false for NaN too
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    _check_kind("kind", kind)
    # log of the per-user ratio (alpha m + 1)**(alpha + 1) / (m**alpha (alpha + 1)**(alpha + 1)),
    # as log(m) plus (alpha + 1) log((alpha m + 1) / ((alpha + 1) m)): no large terms cancel
    log_ratio = math.log(m) + (alpha + 1.0) * math.log1p((1 - m) / ((alpha + 1.0) * m))
    if kind is WelfareKind.SUM_LOG_UTILITY:
        log_ratio *= m
    elif alpha > 1.0:  # the optimum sends everything through one user
        log_ratio += (alpha - 1.0) * math.log(m)
    if log_ratio > _LOG_FLOAT_MAX:
        raise OverflowError(f"the price of anarchy overflows a float at m={m}, alpha={alpha:g}")
    return math.exp(log_ratio)


def _log_over(x: float, y: float) -> float:
    """``log(x / y)`` for positive ``x`` and ``y``; near ``x == y`` it keeps the
    digits of their difference, and a quotient past a double gives +-inf."""
    return math.log1p((x - y) / y) if x > y else -math.log1p((y - x) / x)


def _poa(config: GameConfig, kind: WelfareKind, accepted, headroom: float) -> float:
    """Drop-free optimal welfare over the welfare of users that get ``accepted``
    through and share the positive ``headroom``, the service rate left over.

    User ``i``'s utility is ``accepted[i]**alpha * headroom``, so the ratio
    depends only on each accepted rate over the optimum's per-user rate and
    on ``headroom`` over the optimum's ``mu - lam``: it is the same under
    any change of units, and nothing is raised to a power that can pass a
    double.  A ratio past a double is +inf, and a welfare past a double
    gives 0.0.  A user at zero (log kind) or a zero total (sum kind) makes
    it +inf.  Needs a shared exponent, which is read once ``kind`` is
    checked.  Under :data:`~mm1game.model.EXPONENT_LIMIT` the optimum's
    headroom ``mu - lam`` is positive: ``alpha / (alpha + 1)`` never rounds
    to 1.
    """
    _check_kind("kind", kind)
    alpha, m = config.alpha, config.m
    lam = optimal_total_rate(config)
    spare = config.mu - lam  # the optimum's headroom
    if kind is WelfareKind.SUM_LOG_UTILITY:
        if 0.0 in accepted:  # -0.0 too
            return math.inf
        # each rate over the optimum's lam / m, as m times the rate over lam: the
        # rounding of lam cancels to first order against mu - lam, one of lam / m would not
        gains = math.fsum(_log_over(m * x, lam) for x in accepted)
        log_ratio = m * _log_over(spare, headroom) - alpha * gains
    else:
        top = max(accepted)
        if top == 0.0:
            return math.inf
        # above exponent one the optimum sends all of lam through one user
        count, a = (1, lam) if alpha > 1.0 else (m, lam / m)
        # the sum of (x / top) ** alpha lies in [1, m]
        scale = count * spare / headroom / math.fsum((x / top) ** alpha for x in accepted)
        lead = -alpha * _log_over(top, a)  # log of (a / top) ** alpha
        if abs(lead) < _LOG_FLOAT_MAX / 2:  # the power fits; a product past a double rounds
            return scale * (a / top) ** alpha
        log_ratio = math.log(scale) + lead
    return math.exp(log_ratio) if log_ratio <= _LOG_FLOAT_MAX else math.inf


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
    p = _require_feasible(ne_profile, policy, config)
    return _poa(config, kind, [r * p for r in ne_profile.rates], config.mu - ne_profile.total * p)


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
        opt_profile, _ = social_optimum_sum(config)
    else:
        opt_profile = social_optimum_log(config)
    ratio = poa_closed_form(config.m, config.alpha, kind)
    return WelfareReport(
        kind=kind,
        optimum_profile=opt_profile,
        optimum_value=welfare(opt_profile, NoDrop(), config, kind),
        ne_profile=ne,
        ne_value=welfare(ne, NoDrop(), config, kind),
        poa=ratio,
        pos=ratio,
    )
