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
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RATE_FLOOR",
    "SERVICE_RATE_LIMIT",
    "EXPONENT_LIMIT",
    "RAMP_LIMIT",
    "GameConfig",
    "RateProfile",
    "NoDrop",
    "StepPolicy",
    "LinearPolicy",
    "DropPolicy",
    "UnstableQueueError",
    "UnsupportedGameError",
    "keep_probability",
    "feasible",
    "utility",
    "potential",
    "marginal_utility",
]


# Every service rate lies below this.  Far above it the float arithmetic
# fails: with alpha <= 3 and m <= 12, the census overflows cubing its
# coefficients from about mu = 1e52, the closed forms overflow raising rates
# to the power alpha + 1 from about 1e80, and the design divides by zero from
# about 1e155.  The bound keeps thirty decades under the first of these and
# admits every service rate at which the simulator can still run one slot at
# a load near mu (a run counts at most 2**62, about 4.6e18, packets).
SERVICE_RATE_LIMIT = 1e21

# Every service rate, exponent and ramp start lies at or above this.  Far
# below it the float arithmetic fails: the best-response and census cubics'
# coefficients turn subnormal, and designed play drifts from its prediction
# once the per-user optimal rate mu alpha / ((alpha + 1) m) is near 2.5e-56
# (mu = 1e-55, alpha = 1, m = 2).  On about 96,000 random ramps whose rates
# all lay at or above the floor, neither cubic's solve underflowed; with a
# floor of 1e-60 each underflowed about 7,500 times.  The floor keeps about
# twenty-five decades above the drift.  A design whose per-user optimum lies
# under the drift solves its ramp start below the floor, so it is refused.
RATE_FLOOR = 1e-30

# Every exponent lies at or below this.  Far above it the best response
# fails.  It was checked against a dense scan of the log utility (4,001
# points plus golden refinement) with service rates log-uniform over the
# whole domain, 1 to 12 users, ramps 1e-6 to 1e3 times mu wide, and others'
# totals both below r1 and in [r1, r2).  None of 64,000 draws with exponents
# from 1e4 to 1e10 fell short of the scan.  From an exponent of about 1.5e10
# the cubic loses its root on narrow ramps and the answer is 0 where the
# scan earns a positive utility: in 0.3% of draws at 3e10 to 1e11, 2% at
# 1e12 and about 20% from 1e16.  From about 1e290 the cubic's solve raises a
# bare math domain error.  The bound keeps two decades under the first
# failure, and under it a positive accepted rate always has a finite log.
EXPONENT_LIMIT = 1e8

# Every ramp whose stationarity cubic is solved, in a best response or the
# census, ends at or below this times the service rate: r2 <= RAMP_LIMIT * mu.
# Far above it the best response fails.  It was checked against a scan of
# the log utility on 4,001 grid points that also steps up from 0 and down
# from the ramp's top d = r2 - B (B the others' total) in log steps, since
# on a wide ramp the best rate lies within ~mu of 0 or of d, far inside one
# grid step, with exponents 0.2 to 3, service rates 1e-2 to 1e6, ramp starts
# 0.05 to 1.5 times mu and others' totals up to 1.2 mu.  None of 400 draws
# with ramps 1e10 to 1e12 times mu wide fell short of the scan, and 2 of
# 1,400 at 1e12 to 1e14, both above 7e13 and short by one ulp of d.  13 of
# 1,000 fell short at 1e14 to 1e15, 165 of 1,000 at 1e15 to 1e16 (88
# answering 0) and about 40% from 1e16.  From about 1e45 the cubic's
# coefficients overflow a double.  The bound keeps two decades under the
# first failure.  Under it no intermediate can overflow: with mu below
# SERVICE_RATE_LIMIT, r2 <= 1e33, and the cubic divided by its leading
# coefficient has coefficients of at most about 2 r2, (mu + 2 r2) r2 and
# (mu + r2) r2**2, so its largest intermediate, (q/2)**2, stays near 1e200.
# On 40,000 draws over the whole domain (exponents up to EXPONENT_LIMIT, m
# up to 1,000, others' totals up to r2) none raised or gave a root that is
# not finite; the largest (q/2)**2 was 1.4e195 and the largest coefficient
# 1.4e109.
RAMP_LIMIT = 1e12


class UnstableQueueError(ValueError):
    """Effective load reaches the service rate, so the queue has no steady state."""


class UnsupportedGameError(ValueError):
    """Operation is only defined when all users share one throughput exponent."""


def _check_integer(name: str, value: object) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a Python or numpy
    integer; a bool, or a float such as 2.0, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class GameConfig:
    """Service rate and per-user throughput exponents.

    ``alphas[i]`` is user *i*'s exponent: the user maximizes
    ``throughput**alphas[i] / delay``.  Exponents above one favour throughput,
    below one favour low delay.  ``mu`` must lie in
    ``[RATE_FLOOR, SERVICE_RATE_LIMIT)`` and every exponent in
    ``[RATE_FLOOR, EXPONENT_LIMIT]``.  ``homogeneous`` (all users share one
    exponent) is computed once; it takes no part in ``==``, ``hash`` or
    ``repr``.
    """

    mu: float
    alphas: tuple[float, ...]
    homogeneous: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        if not math.isfinite(self.mu) or self.mu <= 0:
            raise ValueError(f"mu must be a positive finite rate, got {self.mu}")
        if self.mu < RATE_FLOOR:
            raise ValueError(f"mu must be at least {RATE_FLOOR:g}, got {self.mu}")
        if not self.mu < SERVICE_RATE_LIMIT:
            raise ValueError(f"mu must be below {SERVICE_RATE_LIMIT:g}, got {self.mu}")
        if len(self.alphas) == 0:
            raise ValueError("alphas must contain at least one user")
        for a in self.alphas:
            if not RATE_FLOOR <= a < math.inf:  # false for NaN too
                raise ValueError(f"every alpha must be finite and at least {RATE_FLOOR:g}, got {a}")
            if a > EXPONENT_LIMIT:
                raise ValueError(f"every alpha must be at most {EXPONENT_LIMIT:g}, got {a}")
        object.__setattr__(self, "homogeneous", len(set(self.alphas)) == 1)

    @classmethod
    def uniform(cls, mu: float, alpha: float, m: int) -> "GameConfig":
        """Game with ``m`` identical users of exponent ``alpha``."""
        _check_integer("m", m)
        return cls(mu, (float(alpha),) * m)

    @property
    def m(self) -> int:
        return len(self.alphas)

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
        rates = tuple(map(float, self.rates))
        object.__setattr__(self, "rates", rates)
        for r in rates:
            if not 0.0 <= r < math.inf:  # false for NaN too
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


def _unchecked_profile(rates: tuple[float, ...]) -> RateProfile:
    """A profile of ``rates`` without the constructor's checks.

    Only for a tuple of floats already known to be non-negative and finite,
    such as the best responses of play.
    """
    profile = object.__new__(RateProfile)
    object.__setattr__(profile, "rates", rates)
    return profile


@dataclass(frozen=True)
class DropPolicy:
    """Keep everything up to ``r1``, drop everything from ``r2`` on, fall linearly between.

    The paper's single dropping function: the keep probability falls affinely
    from 1 at ``r1`` to 0 at ``r2``.  A step at ``theta`` is the degenerate
    ramp ``r1 = r2 = theta``, and keeping everything is the step at infinity.
    ``r1`` must be at least :data:`RATE_FLOOR`.
    """

    r1: float
    r2: float

    def __post_init__(self) -> None:
        r1, r2 = float(self.r1), float(self.r2)
        object.__setattr__(self, "r1", r1)
        object.__setattr__(self, "r2", r2)
        if not RATE_FLOOR <= r1 <= r2 or (r1 < r2 and math.isinf(r2)):
            raise ValueError(
                f"need {RATE_FLOOR:g} <= r1 <= r2 and a finite r2 on a ramp, got r1={r1}, r2={r2}"
            )


class NoDrop(DropPolicy):
    """Server keeps everything: the step at infinity."""

    def __init__(self) -> None:
        super().__init__(math.inf, math.inf)


class StepPolicy(DropPolicy):
    """Keep everything while the offered total is at most ``threshold``, else drop all."""

    def __init__(self, threshold: float) -> None:
        threshold = float(threshold)
        if not math.isfinite(threshold):
            raise ValueError(f"threshold must be finite, got {threshold}")
        super().__init__(threshold, threshold)

    @property
    def threshold(self) -> float:
        """The largest offered total that is kept: both breakpoints."""
        return self.r1


class LinearPolicy(DropPolicy):
    """A ramp of positive width: ``r1 < r2``."""

    def __init__(self, r1: float, r2: float) -> None:
        r1, r2 = float(r1), float(r2)
        if not r1 < r2:
            raise ValueError(f"need r1 < r2, got r1={r1}, r2={r2}")
        super().__init__(r1, r2)

    @property
    def slope(self) -> float:
        """Slope of the keep probability on the interpolating segment (negative)."""
        return 1.0 / (self.r1 - self.r2)

    @property
    def intercept(self) -> float:
        """Intercept of the keep probability on the interpolating segment."""
        return -self.slope * self.r2


_SCALARS = (int, float, np.integer, np.floating)


def keep_probability(policy: DropPolicy, total_rate):
    """Probability an arrival survives when the offered total is ``total_rate``.

    1 up to ``r1``, 0 from ``r2`` on, ``(r2 - T) / (r2 - r1)`` between.
    Accepts a scalar or a numpy array of totals.  Python and numpy scalars,
    and 0-d arrays, take a plain-float path with the same expression, so
    every path gives the same bits.  Negative and NaN totals raise ValueError.
    """
    if not isinstance(policy, DropPolicy):
        raise TypeError(f"unknown drop policy {policy!r}")
    r1, r2 = policy.r1, policy.r2
    if not isinstance(total_rate, _SCALARS):
        t = np.asarray(total_rate, dtype=float)
        if t.ndim:
            if not (t >= 0).all():
                raise ValueError("total_rate must be non-negative")
            if r1 < r2:
                out = r2 - t
                out /= r2 - r1
                np.maximum(out, 0.0, out=out)
                return np.minimum(out, 1.0, out=out)
            # a step, where the ramp expression would divide by zero
            return (t <= r1).astype(float)
        total_rate = t
    t = float(total_rate)
    if not t >= 0:
        raise ValueError("total_rate must be non-negative")
    return 1.0 if t <= r1 else 0.0 if t >= r2 else (r2 - t) / (r2 - r1)


def _keep_and_load(
    profile: RateProfile, policy: DropPolicy, config: GameConfig
) -> tuple[float, float]:
    """Keep probability at the profile's total, and the load that survives it."""
    if len(profile.rates) != config.m:
        raise ValueError(
            f"profile has {len(profile.rates)} users but the game has {config.m}"
        )
    p = keep_probability(policy, profile.total)
    return p, profile.total * p


def feasible(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> bool:
    """Whether the surviving load is strictly below the service rate."""
    return _keep_and_load(profile, policy, config)[1] < config.mu


def _require_feasible(profile: RateProfile, policy: DropPolicy, config: GameConfig) -> float:
    """Keep probability at the profile's total; raises unless the surviving load is stable."""
    p, eff = _keep_and_load(profile, policy, config)
    if not eff < config.mu:
        raise UnstableQueueError(
            f"effective load {eff} is not below the service rate {config.mu}; "
            "the queue has no steady state"
        )
    return p


def utility(i: int, profile: RateProfile, policy: DropPolicy, config: GameConfig) -> float:
    """User ``i``'s power: accepted throughput ** alpha_i divided by system delay.

    With total effective load ``s`` the FCFS delay is ``1 / (mu - s)``, so the
    power equals ``(rate_i * keep)**alpha_i * (mu - total * keep)``.  Where
    ``(rate_i * keep)**alpha_i`` alone passes a double, the utility is formed
    from half that exponent twice, and its OverflowError is raised only if the
    utility passes a double too.
    """
    p = _require_feasible(profile, policy, config)
    eff_i = profile.rates[i] * p
    headroom = config.mu - profile.total * p
    try:
        return eff_i ** config.alphas[i] * headroom
    except OverflowError:  # the utility may still fit: split the power
        half = eff_i ** (config.alphas[i] / 2)
        value = half * headroom * half
        if value == math.inf:
            raise
        return value


def _potential(rates, total: float, keep: float, config: GameConfig) -> float:
    """:func:`potential` of ``rates``, given their total and keep probability."""
    prod = keep ** max(config.alphas)
    try:
        for r, a in zip(rates, config.alphas):
            prod *= r**a
    except OverflowError as exc:
        alphas = ",".join(f"{a:g}" for a in dict.fromkeys(config.alphas))
        message = f"the potential overflows a float at mu={config.mu:g}, alpha={alphas}"
        raise OverflowError(message) from exc
    return (config.mu - total * keep) * prod


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

    Where a power of a rate overflows a double, raises ``OverflowError``
    naming ``mu`` and the exponents.
    """
    p = _require_feasible(profile, policy, config)
    return _potential(profile.rates, profile.total, p, config)


def marginal_utility(
    i: int, profile: RateProfile, policy: DropPolicy, config: GameConfig
) -> float:
    """Partial derivative of user ``i``'s utility in its own rate.

    Only defined strictly inside one differentiable piece of the policy;
    evaluation exactly at a breakpoint raises ValueError.  It shares no code
    with :func:`~mm1game.dynamics.best_response`, whose answers strictly
    inside a ramp the tests check against it as the stationarity oracle.
    """
    p, _ = _keep_and_load(profile, policy, config)
    total = profile.total
    r1, r2 = policy.r1, policy.r2
    if total == r1 or total == r2:  # exact comparison against the breakpoints
        raise ValueError(f"keep probability is not differentiable at breakpoint {total}")
    dp = 1.0 / (r1 - r2) if r1 < total < r2 else 0.0  # the keep probability's slope
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
