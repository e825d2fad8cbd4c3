"""Slotted stochastic simulation of the shared queue with estimated-rate dropping.

Time advances in unit slots.  Each slot the server estimates the offered
total from a sliding window of past arrival counts, applies the drop policy
to that estimate, and thins the slot's arrivals.  Each accepted packet is
charged its slot's delay: the steady-state formula at the slot's load (fast,
good for sweeps), or the mean sojourn measured over the slot's packets in an
explicit FCFS event queue.

Users cannot be told apart inside a slot: every packet is user i's with
probability lambda_i / Lambda, whatever its slot and whether it is kept.  So
the run draws only per-slot totals, and splits the packets past warm-up
among the users once, by two multinomials (one for the accepted packets, one
for the dropped).  The counts keep their exact joint distribution, and every
user with an accepted packet is charged the pooled mean delay, which is the
conditional expectation of its own mean delay given those counts; a model
where users differ within a slot would need per-packet labels.

Arrivals never depend on the drop decision, so the whole horizon is drawn
and thinned as array operations.  The event queue runs in blocks bounded by
slots and by packets (Lindley's recursion as a running maximum), and it
returns only the summed sojourn past warm-up: the pooled delay is the one
figure the report reads.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields, replace
from enum import Enum
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .analysis import WelfareKind, _check_kind, _poa
from .mechanism import DesignSpec, design_linear
from .model import DropPolicy, GameConfig, RateProfile, _check_integer, keep_probability

__all__ = [
    "QueueMode",
    "OverloadError",
    "SimConfig",
    "SimReport",
    "SweepCell",
    "run",
    "empirical_poa",
    "sweep",
]


class QueueMode(Enum):
    ANALYTIC_DELAY = "analytic"
    EVENT_QUEUE = "event"


class OverloadError(RuntimeError):
    """The accepted load exceeded what the server can drain."""


# Most packets a run may expect to draw: the offered total times the slots.
# 2**62 leaves 2x headroom under the int64 maximum for the sums over slots
# and the estimate's prefix sum, and keeps every single Poisson draw under
# numpy's limit of about 9.22e18.
_MAX_PACKETS = 2**62
# Most slots a run may cover.  No array has a user axis; each per-slot trace
# then holds at most 2**32 values (32 GiB of int64 or float64), and a longer
# horizon is refused before numpy tries to allocate it.
_MAX_SLOTS = 2**32


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: game, policy, offered rates (packets per slot).

    ``slots``, ``window``, ``seed`` and ``queue_cap`` are Python or numpy
    integers, and ``seed`` is non-negative.  ``queue_mode`` is a
    :class:`QueueMode`.
    """

    game: GameConfig
    policy: DropPolicy
    input_rates: RateProfile
    slots: int = 100_000
    window: int = 1
    seed: int = 0
    queue_mode: QueueMode = QueueMode.EVENT_QUEUE
    queue_cap: int = 100_000

    def __post_init__(self) -> None:
        if len(self.input_rates.rates) != self.game.m:
            raise ValueError(
                f"input_rates has {len(self.input_rates.rates)} users, "
                f"the game has {self.game.m}"
            )
        for name in ("slots", "window", "seed", "queue_cap"):
            _check_integer(name, getattr(self, name))
        if not isinstance(self.queue_mode, QueueMode):  # a member's value, such as "event", too
            raise ValueError(f"queue_mode must be one of {[*QueueMode]}, got {self.queue_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.window < 1:
            raise ValueError(f"window must be at least 1, got {self.window}")
        if self.slots < self.window:
            raise ValueError(
                f"slots ({self.slots}) must be at least the window ({self.window})"
            )
        if self.queue_cap < 1:
            raise ValueError(f"queue_cap must be positive, got {self.queue_cap}")
        if self.input_rates.total * self.slots > _MAX_PACKETS:
            raise ValueError(
                f"input_rates total {self.input_rates.total:.6g} per slot over {self.slots} "
                "slots is more than 2**62 packets, too many to count in int64"
            )
        if self.slots > _MAX_SLOTS:
            raise ValueError(
                f"slots ({self.slots}) is more than 2**32, too many to hold in memory"
            )


_TRACES = ("estimated_rates", "drop_probs", "slot_arrivals")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregates past warm-up, plus a per-slot trace of the dropping loop.

    It carries the game it was run on, which takes part in ``==`` and is
    the game :func:`empirical_poa` measures it in.  The per-user summaries
    are tuples.  ``mean_delay`` is the pooled mean delay of all accepted
    packets for every user that had one (0.0 for a user that had none): the
    users are indistinguishable within a slot, so this is each user's
    expected mean delay given the run's counts.  The per-slot
    traces are read-only numpy arrays, so two reports compare equal when
    their traces hold the same values and their other fields are equal; a
    report is not hashable.

    ``power``, ``sum_welfare``, ``log_welfare`` and ``empirical_poa`` (the
    log-kind ratio, NaN where the exponents differ) are computed from the
    game, ``goodput`` and ``mean_delay`` on first read, so a run whose
    caller reads only the goodputs and delays does not pay for them.
    """

    game: GameConfig
    input_rates: tuple[float, ...]
    arrivals: tuple[int, ...]
    accepted: tuple[int, ...]
    goodput: tuple[float, ...]
    mean_delay: tuple[float, ...]
    estimated_rates: np.ndarray
    drop_probs: np.ndarray
    slot_arrivals: np.ndarray
    slots: int
    warmup_slots: int

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        names = [f.name for f in fields(self) if f.name not in _TRACES]
        # one tuple comparison, as a generated __eq__ makes it
        if tuple(getattr(self, n) for n in names) != tuple(getattr(other, n) for n in names):
            return False
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in _TRACES)

    @cached_property
    def power(self) -> tuple[float, ...]:
        # zero where no packet was accepted, so no delay was measured; +inf
        # where it exceeds a double.  The power, the log and the sums are
        # numpy's, whose bits can differ from Python's
        divisors = [d if d > 0 else math.inf for d in self.mean_delay]
        with np.errstate(over="ignore"):
            return tuple((np.power(self.goodput, self.game.alphas) / divisors).tolist())

    @cached_property
    def sum_welfare(self) -> float:
        return float(np.sum(self.power))

    @cached_property
    def log_welfare(self) -> float:
        if all(p > 0 for p in self.power):
            return float(np.log(self.power).sum())
        return -math.inf

    @cached_property
    def empirical_poa(self) -> float:
        if not self.game.homogeneous:
            return math.nan
        return empirical_poa(self, WelfareKind.SUM_LOG_UTILITY)


# An event-queue block closes at this many slots or, if it would pass it
# first, this many packets, and always holds at least one slot.  The
# per-packet arrays are then bounded by the larger of the budget and the
# busiest slot, not by the horizon or the per-slot rate.
_BLOCK_SLOTS = 256
_BLOCK_PACKETS = 2**18


def _fifo_departures(
    arrivals: np.ndarray, services: np.ndarray, server_free: float
) -> np.ndarray:
    """Departure instants of a FCFS batch given when the server last freed up."""
    cum = np.cumsum(services)
    # Lindley's recursion as a running maximum, in one work array
    out = cum - services
    np.subtract(arrivals, out, out=out)
    np.maximum(out, server_free, out=out)
    np.maximum.accumulate(out, out=out)
    out += cum
    return out


def _event_queue_sojourn_total(
    sim: SimConfig, acc_sum: np.ndarray, rng: np.random.Generator
) -> float:
    """Summed FCFS sojourn of the accepted packets from slot ``sim.window`` on.

    Arrival instants within a slot are iid uniform whatever the user, so a
    slot's mean sojourn is the exact conditional expectation of each of its
    packets' sojourns given the slot's counts, and no packet carries a user
    label; a model where a user's arrival pattern within a slot differs
    would need the labels back.  Slots go through the queue in blocks of at
    most ``_BLOCK_SLOTS`` slots and ``_BLOCK_PACKETS`` packets, so the
    per-packet arrays stay small whatever the horizon and the rate.  The
    instant the server frees up and the departures still pending carry
    across blocks.
    """
    total = 0.0
    server_free = 0.0
    pending = np.empty(0)  # departure instants after the previous block's end
    start = 0
    while start < len(acc_sum):
        per_slot = acc_sum[start : start + _BLOCK_SLOTS]
        n = int(per_slot.sum())
        if n > _BLOCK_PACKETS:
            filled = np.cumsum(per_slot)
            fits = max(int(np.searchsorted(filled, _BLOCK_PACKETS, side="right")), 1)
            per_slot = per_slot[:fits]
            n = int(filled[fits - 1])
        end = start + len(per_slot)
        slot_ids = np.arange(start, end, dtype=float)
        queue = pending
        if n:
            # slot t's arrivals lie in [t, t + 1], so sorting by value
            # permutes only within slots: the first packets are the first
            # slots'
            times = rng.random(n)
            times += np.repeat(slot_ids, per_slot)
            times.sort()
            services = rng.standard_exponential(n)
            services *= 1.0 / sim.game.mu
            departures = _fifo_departures(times, services, server_free)
            server_free = float(departures[-1])
            if end > sim.window:
                warm = int(per_slot[: max(sim.window - start, 0)].sum())
                sojourn = np.subtract(departures[warm:], times[warm:], out=times[warm:])
                total += float(sojourn.sum())
            queue = np.concatenate((pending, departures)) if len(pending) else departures
        # FIFO departures are sorted, so the packets gone by a slot's end are
        # a prefix of those that arrived by then.  The backlog never exceeds
        # the packets in the system, so below the cap there is nothing to scan.
        if len(queue) > sim.queue_cap:
            in_system = len(pending) + np.cumsum(per_slot)
            gone = np.minimum(np.searchsorted(queue, slot_ids + 1.0, side="right"), in_system)
            backlog = in_system - gone
            over = np.flatnonzero(backlog > sim.queue_cap)
            if over.size:
                t = int(over[0])
                raise OverloadError(
                    f"queue backlog {int(backlog[t])} exceeded the cap {sim.queue_cap} "
                    f"at slot {start + t}"
                )
        pending = queue[np.searchsorted(queue, end, side="right") :]
        start = end
    return total


def run(sim: SimConfig) -> SimReport:
    """Simulate and aggregate.  Deterministic for a given config and seed."""
    rng = np.random.Generator(np.random.PCG64(sim.seed))
    mu = sim.game.mu
    rates = sim.input_rates.rates
    offered = sim.input_rates.total
    warmup = sim.window

    slot_totals = rng.poisson(offered, sim.slots)
    # the estimate at slot t is the mean of the last min(t, window) totals,
    # 0.0 at slot 0; prefix[k] sums the totals of slots 0..k
    prefix = slot_totals.cumsum()
    ramp_up = min(warmup, sim.slots - 1)
    est = np.empty(sim.slots)
    est[0] = 0.0
    np.divide(prefix[:ramp_up], np.arange(1, ramp_up + 1), out=est[1 : ramp_up + 1])
    np.divide(prefix[warmup:-1] - prefix[: -warmup - 1], warmup, out=est[ramp_up + 1 :])
    keep = keep_probability(sim.policy, est)
    acc_sum = rng.binomial(slot_totals, keep)

    counted = acc_sum[warmup:]
    if sim.queue_mode is QueueMode.EVENT_QUEUE:
        total_delay = _event_queue_sojourn_total(sim, acc_sum, rng)
    else:
        if float(acc_sum.max()) >= mu:
            first = int(np.argmax(acc_sum >= mu))
            raise OverloadError(
                f"accepted load {int(acc_sum[first])} reached the per-slot service rate "
                f"{mu} at slot {first}; the steady-state delay is undefined"
            )
        total_delay = float((1.0 / (mu - counted)) @ counted)
    n_accepted = int(counted.sum())
    pooled_delay = total_delay / max(n_accepted, 1)

    # every packet is user i's with probability rates[i] / offered, apart
    # from its slot and its fate, so one split of each pool is exact
    shares = [r / offered for r in rates] if offered > 0 else rates
    accepted = rng.multinomial(n_accepted, shares).tolist()
    n_dropped = int(prefix[-1] - prefix[warmup - 1]) - n_accepted
    dropped = rng.multinomial(n_dropped, shares).tolist()

    kept_slots = max(sim.slots - warmup, 1)
    goodput = tuple(float(a) / kept_slots for a in accepted)
    mean_delay = tuple(pooled_delay if a > 0 else 0.0 for a in accepted)
    drop_probs = 1.0 - keep
    for trace in (est, drop_probs, slot_totals):
        trace.flags.writeable = False

    return SimReport(
        game=sim.game,
        input_rates=rates,
        arrivals=tuple(a + d for a, d in zip(accepted, dropped)),
        accepted=tuple(accepted),
        goodput=goodput,
        mean_delay=mean_delay,
        estimated_rates=est,
        drop_probs=drop_probs,
        slot_arrivals=slot_totals,
        slots=sim.slots,
        warmup_slots=warmup,
    )


def empirical_poa(report: SimReport, kind: WelfareKind) -> float:
    """Measured price of anarchy: drop-free optimal welfare over measured welfare.

    Both are taken in the report's own game, ``report.game``.  The ratio is
    formed from the goodputs and the inverse of the pooled delay, so a power
    past a double does not stop it.  A user with zero measured goodput makes
    the log-kind ratio +inf.  A game with mixed exponents raises
    :class:`~mm1game.model.UnsupportedGameError`.
    """
    delay = max(report.mean_delay)
    return _poa(report.game, kind, report.goodput, 1.0 / delay if delay else math.inf)


@dataclass(frozen=True)
class SweepCell:
    """Aggregated replications for one (target, service rate, window) point.

    ``mean_poa`` is ``statistics.fmean`` of the replications' empirical
    price of anarchy.  ``std_poa`` is their sample standard deviation as
    ``statistics.stdev`` gives it: the exact value, correctly rounded.  It
    is 0.0 for one replication and NaN when a ratio is unbounded.
    """

    desired_poa: float
    mu: float
    window: int
    replications: int
    mean_poa: float
    std_poa: float
    error: str | None = None


# Bits of the scaled variance whose integer root is rounded to odd: twice a
# double's 53, plus 3, so the root keeps at least 55 bits and its one later
# rounding to a float is the correct rounding of the exact root.
_ROOT_BITS = 2 * 53 + 3


def _sample_stdev(values: Sequence[float]) -> float:
    """Sample standard deviation of two or more finite floats, bit for bit ``statistics.stdev``.

    Over the largest denominator 2**k of the floats' integer ratios each
    value is an integer X, and the variance is the exact ratio
    ``(n * sum(X**2) - sum(X)**2) / (n * (n - 1) * 4**k)``.  Its square
    root is taken on integers, rounded to odd and then once to a float: the
    correctly rounded root, as ``statistics.stdev`` computes it, without its
    ``Fraction`` arithmetic.
    """
    ratios = [v.as_integer_ratio() for v in values]
    k = max(d for _, d in ratios).bit_length() - 1
    scaled = [x << (k - d.bit_length() + 1) for x, d in ratios]
    n = len(scaled)
    num = n * sum(x * x for x in scaled) - sum(scaled) ** 2
    den = n * (n - 1) << 2 * k
    # sqrt(num / den) = sqrt(num / (den * 4**shift)) * 2**shift, with the
    # first ratio about 2**_ROOT_BITS
    shift = (num.bit_length() - den.bit_length() - _ROOT_BITS) // 2
    if shift >= 0:
        den <<= 2 * shift
    else:
        num <<= -2 * shift
    root = math.isqrt(num // den)
    root |= root * root * den != num  # round to odd: an inexact root gets its last bit set
    # int / int rounds the exact quotient once, subnormals included
    return float(root << shift) if shift >= 0 else root / (1 << -shift)


def _run_cell(
    base: SimConfig,
    desired_poa: float,
    mu: float,
    window: int,
    replications: int,
    welfare_kind: WelfareKind,
    keep_prob: float,
) -> SweepCell:
    def failed(exc: Exception) -> SweepCell:
        return SweepCell(
            desired_poa, mu, window, replications, math.nan, math.nan, str(exc)
        )

    try:
        game = GameConfig.uniform(mu, base.game.alpha, base.game.m)
        design = design_linear(
            DesignSpec(
                config=game,
                epsilon=desired_poa - 1.0,
                keep_prob=keep_prob,
                welfare_kind=welfare_kind,
            )
        )
        sims = [
            replace(
                base,
                game=game,
                policy=design.policy,
                input_rates=design.predicted_ne,
                window=window,
                seed=base.seed + k,
            )
            for k in range(replications)
        ]
    except ValueError as exc:  # includes DesignInfeasibleError
        return failed(exc)
    try:
        poas = [empirical_poa(run(sim), welfare_kind) for sim in sims]
    except OverloadError as exc:
        return failed(exc)
    mean = statistics.fmean(poas)
    if not all(map(math.isfinite, poas)):  # an unbounded ratio has no spread
        std = math.nan
    else:
        std = _sample_stdev(poas) if len(poas) > 1 else 0.0
    return SweepCell(desired_poa, mu, window, replications, mean, std)


def sweep(
    base: SimConfig,
    desired_poas: Sequence[float],
    mus: Sequence[float],
    windows: Sequence[int],
    replications: int,
    welfare_kind: WelfareKind = WelfareKind.SUM_LOG_UTILITY,
    keep_prob: float = 0.9,
) -> list[SweepCell]:
    """Design-and-simulate over the cross product of targets, rates, and windows.

    Every cell designs a linear policy for its target, offers the predicted
    equilibrium rates open-loop, and replicates the run with seeds
    ``base.seed + k``.  A cell whose design is infeasible, whose run is
    refused (too many packets, say) or whose run overloads records its error
    instead of aborting the sweep.  ``replications`` is a Python or numpy
    integer, at least 1, and ``welfare_kind`` a :class:`WelfareKind`; either
    is refused before any cell runs.
    """
    _check_integer("replications", replications)
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    _check_kind("welfare_kind", welfare_kind)
    return [
        _run_cell(base, q, mu, w, replications, welfare_kind, keep_prob)
        for q, mu, w in product(desired_poas, mus, windows)
    ]
