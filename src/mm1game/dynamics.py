"""Numerical best responses, best-response iteration, and equilibrium checks."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from operator import sub

import numpy as np

from .model import (
    DropPolicy,
    GameConfig,
    RateProfile,
    UnstableQueueError,
    _potential,
    _unchecked_profile,
    feasible,
    keep_probability,
    utility,
)

__all__ = [
    "UpdateMode",
    "Trajectory",
    "best_response",
    "run_dynamics",
    "verify_equilibrium",
    "response_field",
    "triangular_grid",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI, _FOUR_PI = 2.0 * math.pi, 2.0 * math.pi * 2  # 2 pi k for the cubic's roots k = 1, 2
_LOG_TIE = math.log1p(-1e-12)  # utilities within 1e-12 of the best, relative, tie with it


class UpdateMode(Enum):
    ROUND_ROBIN = "round_robin"
    SIMULTANEOUS = "simultaneous"


@dataclass(frozen=True)
class Trajectory:
    """Recorded best-response path: one profile per full update round.

    It carries the policy and the game it was played on; both take part in
    ``==``.  ``potential_series`` holds :func:`~mm1game.model.potential` at
    each iterate, computed on first read by the same formula; at an iterate
    that overloads the queue, where the potential is undefined, it holds a
    value that is not positive.  Reading it raises that formula's
    ``OverflowError``, naming the game, where a potential overflows a
    double, though play itself succeeded.
    """

    iterates: tuple[RateProfile, ...]
    converged: bool
    policy: DropPolicy
    config: GameConfig

    @property
    def final_profile(self) -> RateProfile:
        return self.iterates[-1]

    @cached_property
    def potential_series(self) -> tuple[float, ...]:
        policy, config = self.policy, self.config
        return tuple(
            _potential(p.rates, p.total, keep_probability(policy, p.total), config)
            for p in self.iterates
        )


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_golden_max(f, lo: float, hi: float, points: int, tol: float) -> tuple[float, float]:
    """Dense-grid bracketing followed by golden-section refinement.

    ``f`` takes an array of points for the grid and a float for the refinement.
    """
    xs = np.linspace(lo, hi, points)
    us = f(xs)
    k = int(np.argmax(us))
    a = xs[max(k - 1, 0)]
    b = xs[min(k + 1, points - 1)]
    x, ux = _golden_max(f, float(a), float(b), tol)
    if us[k] > ux:
        return float(xs[k]), float(us[k])
    return x, ux


def _own_utility(rate, others_total: float, alpha: float, mu: float, policy: DropPolicy):
    """Utility of one user at ``rate`` against a fixed total of everyone else.

    Takes a float or an array of rates; negative where the load would be
    unstable, which keeps such points out of any argmax.  On a ramp the keep
    probability is ``(d - rate) / w`` with ``d = r2 - others_total``, clipped
    to [0, 1]: no total near ``r2`` is formed and subtracted again, so tiny
    keep probabilities carry no cancellation noise.
    """
    total = others_total + rate
    r1, r2 = policy.r1, policy.r2
    if r1 < r2:
        p = (r2 - others_total - rate) / (r2 - r1)
        p = np.clip(p, 0.0, 1.0) if isinstance(p, np.ndarray) else min(1.0, max(0.0, p))
    else:
        p = keep_probability(policy, total)
    return (rate * p) ** alpha * (mu - total * p)


def _cubic_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """Real roots of ``a x^3 + b x^2 + c x + d`` (``a != 0``), trigonometric or Cardano."""
    b, c, d = b / a, c / a, d / a
    shift = b / 3.0
    p = c - b * shift
    q = d - shift * c + 2.0 * shift**3
    disc = (q / 2.0) ** 2 + (p / 3.0) ** 3
    if disc > 0.0:  # one real root
        v = -q / 2.0 - math.copysign(math.sqrt(disc), q)
        u = math.cbrt(v)
        return [u - p / (3.0 * u) - shift]
    if p == 0.0:  # triple root
        return [-shift]
    r = 2.0 * math.sqrt(-p / 3.0)  # disc <= 0 and p != 0 leave p < 0
    phi = math.acos(max(-1.0, min(1.0, 3.0 * q / (p * r))))
    cos = math.cos
    return [
        r * cos(phi / 3.0) - shift,
        r * cos((phi - _TWO_PI) / 3.0) - shift,
        r * cos((phi - _FOUR_PI) / 3.0) - shift,
    ]


def _ramp_roots(alpha: float, k: float, b: float, d: float, muw: float) -> list[float]:
    """Real roots ``y`` of the ramp's stationarity condition, each Newton-polished.

    ``k`` users share a total ``y`` evenly against outsiders sending ``b``;
    ``d = r2 - b`` and ``muw = mu w`` with ``w = r2 - r1``.  With
    ``e = d - b`` and ``h = mu w - b d``, ``k w^2`` times each user's
    condition (see :func:`best_response`) is
    ``g(y) = alpha (mu w - (b + y)(d - y)) (k d - (k + 1) y) - y (d - y)(e - 2 y)``,
    a cubic with coefficients from ``y^3`` down ``-alpha (k + 1) - 2``,
    ``alpha (e (k + 1) + k d) + 2 d + e``, ``-alpha (h (k + 1) + e k d) - d e``
    and ``alpha h k d``.  Each root gets at most two Newton steps on the
    unexpanded ``g``, each kept only while it shrinks ``|g|``.  The roots are
    not filtered: callers keep those inside their ramp.
    """
    e = d - b  # r2 - 2b
    h = muw - b * d  # w times the headroom q at y = 0
    k1, kd = k + 1.0, k * d
    c3 = -alpha * k1 - 2.0
    c2 = alpha * (e * k1 + kd) + 2.0 * d + e
    c1 = -alpha * (h * k1 + e * kd) - d * e
    a3, b2 = 3.0 * c3, 2.0 * c2
    roots = []
    for x in _cubic_roots(c3, c2, c1, alpha * h * kd):
        g = alpha * (muw - (b + x) * (d - x)) * (kd - k1 * x) - x * (d - x) * (e - 2.0 * x)
        for _ in range(2):  # a Newton step, kept only while it shrinks |g|
            slope = (a3 * x + b2) * x + c1
            if slope == 0.0:
                break
            y = x - g / slope
            g_y = alpha * (muw - (b + y) * (d - y)) * (kd - k1 * y) - y * (d - y) * (e - 2.0 * y)
            if not abs(g_y) < abs(g):
                break
            x, g = y, g_y
        roots.append(x)
    return roots


def _ramp_overflow(mu: float, policy: DropPolicy) -> OverflowError:
    """The error for a ramp too wide for its stationarity cubic to form in floats."""
    return OverflowError(
        f"the ramp's stationarity cubic overflows a float at mu={mu:g}, "
        f"r1={policy.r1:g}, r2={policy.r2:g}"
    )


def best_response(
    i: int, others_total: float, policy: DropPolicy, config: GameConfig
) -> float:
    """Rate maximizing user ``i``'s utility against a fixed total of the others.

    With ``B`` the others' total, the flat-piece optimum is
    ``star = alpha (mu - B) / (alpha + 1)``.  When ``r1 = r2`` (a step, or
    no dropping at all when ``r2`` is infinite) the answer is ``star``
    capped at ``r2 - B``.

    On a ramp (``r1 < r2``) the keep probability is ``p = s T + c``
    with ``T = B + x`` (``s``, ``c`` are the policy's slope and intercept) and
    the headroom is ``q = mu - T p``.  Multiplying the stationarity condition
    of ``log u``, ``alpha / x + alpha s / p - (p + s T) / q = 0``, by
    ``x p q`` gives, for any real ``alpha``, the cubic
    ``alpha q (p + s x) - x p (p + s T) = 0``.  With ``s = -1 / w``,
    ``w = r2 - r1``, it is the condition of :func:`_ramp_roots` over
    ``w^2`` with ``k = 1`` and ``b = B``.  Rates are measured against
    ``d = r2 - B``, so ``p = (d - x) / w``: no total near ``r2`` is formed
    and subtracted again, which keeps tiny keep probabilities exact.  The
    answer is the best of two kinds of candidate: the cubic's polished real
    roots strictly inside the ramp ``(max(0, r1 - B), d)``, and the ramp
    start ``max(0, r1 - B)``.  ``star`` needs no candidate of its own: when
    ``B + star <= r1``, some ramp rate has accepted rate ``x p = star``, and
    there the others' accepted load ``B p`` is at most ``B``, so the ramp
    earns at least ``star``'s utility (strictly more when ``B > 0``; a lone
    user ties).

    Candidates are compared by the logarithm of their utility, so that no
    power of a rate overflows or underflows a double.  Ties go to
    the larger rate; utilities within a relative ``1e-12`` of the best count
    as tied, so rounding does not pick between exact ties such as
    the two ramp rates at which a lone user's accepted rate is ``star``.
    Only contested candidates are scored: when the others already send
    ``r1`` or more, the ramp start is 0 and earns nothing, so a lone root
    inside the ramp is the answer exactly when its accepted rate and
    headroom are positive (under :data:`~mm1game.model.EXPONENT_LIMIT` a
    positive accepted rate has a finite log).
    Returns 0 when no rate earns positive utility.  A ramp so wide that
    its cubic's coefficients overflow a double raises ``OverflowError``
    naming ``mu`` and the ramp.
    """
    if not others_total >= 0:  # NaN fails this too
        raise ValueError(f"others_total must be non-negative, got {others_total!r}")
    b = others_total
    r1, r2 = policy.r1, policy.r2
    alpha = config.alphas[i]
    mu = config.mu
    if not r1 < r2:
        star = alpha * (mu - b) / (alpha + 1.0) if b < mu else 0.0
        return max(0.0, min(star, r2 - b))  # no cap when r2 is infinite
    d = r2 - b
    if d <= 0.0:
        return 0.0  # everything the user could send is dropped
    w = r2 - r1
    lo = r1 - b
    if not lo > 0.0:  # max(0, r1 - b): the ramp start
        lo = 0.0
    try:
        found = _ramp_roots(alpha, 1.0, b, d, mu * w)
    except OverflowError as exc:
        raise _ramp_overflow(mu, policy) from exc
    roots = []  # a loop: before Python 3.12 a comprehension builds a frame each call
    for x in found:
        if lo < x < d:
            roots.append(x)
    if not lo and len(roots) == 1:  # a ramp start of 0 earns nothing: the root is uncontested
        x = roots[0]
        p = (d - x) / w
        return x if x * p > 0.0 < mu - (b + x) * p else 0.0
    log = math.log
    q = mu - (b + lo)  # the ramp start keeps everything
    best = alpha * log(lo) + log(q) if lo > 0.0 < q else -math.inf
    scored = [(best, lo)]  # (log utility, rate) of each candidate
    for x in roots:
        p = (d - x) / w
        a, q = x * p, mu - (b + x) * p
        u = alpha * log(a) + log(q) if a > 0.0 < q else -math.inf
        scored.append((u, x))
        if u > best:
            best = u
    floor = best + _LOG_TIE  # the largest rate this close to the best wins
    answer = 0.0  # also when no rate earns a positive utility
    for u, x in scored:
        if u >= floor > -math.inf and x > answer:
            answer = x
    return answer


def run_dynamics(
    config: GameConfig,
    policy: DropPolicy,
    init: RateProfile,
    mode: UpdateMode = UpdateMode.ROUND_ROBIN,
    tol: float = 1e-8,
    max_iter: int = 5000,
) -> Trajectory:
    """Iterate best responses from ``init`` until per-round changes fall below ``tol``.

    Round-robin updates users in index order within a round; simultaneous
    updates all of them against the previous round.  Non-convergence within
    ``max_iter`` rounds is reported in the trajectory, not raised.  Steeply
    sloped policies contract slowly (per-round factors above 0.99 occur), so
    the default budget is generous.  ``max_iter`` must be at least 1 and
    ``tol`` positive; ``tol=inf`` stops after one round.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:  # NaN fails this too
        raise ValueError(f"tol must be positive, got {tol!r}")
    if not feasible(init, policy, config):
        raise UnstableQueueError("initial profile is not feasible")
    users = range(config.m)
    round_robin = mode is UpdateMode.ROUND_ROBIN
    rates = init.rates
    history = [rates]  # one tuple per round; profiles are built once, at the end
    converged = False
    for _ in range(max_iter):
        prev = rates
        new = list(prev)
        seen = new if round_robin else prev
        for i in users:
            new[i] = best_response(i, sum(seen) - seen[i], policy, config)
        rates = tuple(new)
        history.append(rates)
        if max(map(abs, map(sub, rates, prev))) < tol:
            converged = True
            break
    return Trajectory(tuple(map(_unchecked_profile, history)), converged, policy, config)


def _scan_cutoff(policy: DropPolicy, mu: float) -> float:
    """Total beyond which no unilateral rate can earn positive utility."""
    return policy.r2 if math.isfinite(policy.r2) else mu


def verify_equilibrium(
    profile: RateProfile,
    policy: DropPolicy,
    config: GameConfig,
    tol: float = 1e-7,
) -> bool:
    """Deviation scan: no user can gain more than ``tol * max(1, |own|)`` by moving alone.

    ``own`` is the user's utility at the profile, so ``tol`` is relative for
    utilities above one and absolute below.  Each user's alternatives are
    swept on a grid of 10,001 points (with golden-section refinement around
    the best grid point), independently of how best responses are computed
    elsewhere.
    """
    if not feasible(profile, policy, config):
        raise UnstableQueueError("profile is not feasible")
    for i in range(config.m):
        own = utility(i, profile, policy, config)
        others = profile.others_total(i)
        hi = _scan_cutoff(policy, config.mu) - others
        if hi <= 0.0:
            best_alt = 0.0
        else:
            alpha = config.alphas[i]

            def u(rate):
                return _own_utility(rate, others, alpha, config.mu, policy)

            _, best_alt = _grid_golden_max(u, 0.0, hi, 10_001, 1e-10)
        if best_alt > own + tol * max(1.0, abs(own)):
            return False
    return True


def response_field(
    config: GameConfig, policy: DropPolicy, grid: list[RateProfile]
) -> list[tuple[RateProfile, tuple[float, float]]]:
    """Two-user update vectors: from each grid point toward both best responses."""
    if config.m != 2:
        raise ValueError("response_field is defined for two-user games")
    out = []
    for profile in grid:
        b0 = best_response(0, profile.rates[1], policy, config)
        b1 = best_response(1, profile.rates[0], policy, config)
        out.append((profile, (b0 - profile.rates[0], b1 - profile.rates[1])))
    return out


def triangular_grid(
    config: GameConfig, policy: DropPolicy, points_per_axis: int
) -> list[RateProfile]:
    """Two-user grid over the lower triangle where traffic can still get through."""
    if config.m != 2:
        raise ValueError("triangular_grid is defined for two-user games")
    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    cutoff = _scan_cutoff(policy, config.mu)
    axis = np.linspace(0.0, cutoff, points_per_axis)
    grid = []
    for x in axis:
        for y in axis:
            if x + y <= cutoff:
                grid.append(RateProfile((float(x), float(y))))
    return grid
