"""Slotted stochastic simulation of the shared queue with estimated-rate dropping.

Time advances in unit slots.  Each slot the server estimates the offered
total from a sliding window of past arrival counts, applies the drop policy
to that estimate, and thins every user's arrivals independently.  Each
accepted packet is charged its slot's delay: the steady-state formula at the
slot's load (fast, good for sweeps), or the mean sojourn measured over the
slot's packets in an explicit FCFS event queue.  Arrival instants within a
slot do not depend on the user, so that mean is the exact conditional
expectation of a packet's sojourn given the slot's counts; a model where a
user's arrival pattern within a slot differs would need per-packet labels.

Arrivals never depend on the drop decision, so the whole horizon is drawn
and thinned as array operations; the event queue runs in fixed-size blocks
of slots (Lindley's recursion as a cumulative max).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, fields, replace
from enum import Enum
from itertools import product
from typing import Sequence

import numpy as np

from .analysis import WelfareKind, _poa_against
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
# Most per-slot, per-user counts a run may hold: slots times users.  Each
# int64 matrix of them (arrivals, accepted) then takes at most 32 GiB, so a
# horizon beyond this is refused before numpy tries to allocate it.
_MAX_COUNTS = 2**32


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: game, policy, offered rates (packets per slot).

    ``slots``, ``window``, ``seed`` and ``queue_cap`` are Python or numpy
    integers, and ``seed`` is non-negative.
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
        if self.slots * self.game.m > _MAX_COUNTS:
            raise ValueError(
                f"slots ({self.slots}) times users ({self.game.m}) is more than 2**32 "
                "per-slot counts, too many to hold in memory"
            )


_TRACES = ("estimated_rates", "drop_probs", "slot_arrivals")


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregates past warm-up, plus a per-slot trace of the dropping loop.

    The per-user summaries are tuples.  The per-slot traces are read-only
    numpy arrays, so two reports compare equal when their traces hold the
    same values and their other fields are equal; a report is not hashable.
    """

    input_rates: tuple[float, ...]
    arrivals: tuple[int, ...]
    accepted: tuple[int, ...]
    goodput: tuple[float, ...]
    mean_delay: tuple[float, ...]
    power: tuple[float, ...]
    sum_welfare: float
    log_welfare: float
    empirical_poa: float
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


# Slots per event-queue block.  Bounds the per-packet arrays by the block,
# not the horizon, at no measurable cost in speed.
_BLOCK_SLOTS = 256


def _fifo_departures(
    arrivals: np.ndarray, services: np.ndarray, server_free: float
) -> np.ndarray:
    """Departure instants of a FCFS batch given when the server last freed up."""
    cum = np.cumsum(services)
    started_before = arrivals - (cum - services)
    return cum + np.maximum.accumulate(np.maximum(started_before, server_free))


def _event_queue_sojourns(
    sim: SimConfig, acc_sum: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Mean FCFS sojourn of each slot's accepted packets (0.0 if none).

    Arrival instants within a slot are iid uniform whatever the user, so this
    mean is the exact conditional expectation of each packet's sojourn given
    the slot's counts, and no packet carries a user label; a model where a
    user's arrival pattern within a slot differs would need the labels back.
    Slots go through the queue in blocks of ``_BLOCK_SLOTS``, so the
    per-packet arrays stay small whatever the horizon.  The instant the
    server frees up and the departures still pending carry across blocks.
    """
    sojourn = np.zeros(len(acc_sum))
    server_free = 0.0
    pending = np.empty(0)  # departure instants after the previous block's end
    for start in range(0, len(acc_sum), _BLOCK_SLOTS):
        per_slot = acc_sum[start : start + _BLOCK_SLOTS]
        slot_ids = np.arange(start, start + len(per_slot))
        n = int(per_slot.sum())
        queue = pending
        if n:
            slot_of = np.repeat(slot_ids, per_slot)
            # slot t's arrivals lie in [t, t + 1], so sorting by value
            # permutes only within slots and slot_of needs no reordering
            times = np.sort(slot_of + rng.random(n))
            services = rng.exponential(1.0 / sim.game.mu, n)
            departures = _fifo_departures(times, services, server_free)
            server_free = float(departures[-1])
            sojourn[slot_ids] = np.bincount(slot_of - start, departures - times, len(slot_ids))
            queue = np.concatenate((pending, departures))
        # FIFO departures are sorted, so the packets gone by a slot's end are
        # a prefix of those that arrived by then
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
        pending = queue[gone[-1] :]
    return sojourn / np.maximum(acc_sum, 1)


def run(sim: SimConfig) -> SimReport:
    """Simulate and aggregate.  Deterministic for a given config and seed."""
    rng = np.random.Generator(np.random.PCG64(sim.seed))
    m = sim.game.m
    mu = sim.game.mu
    rates = np.asarray(sim.input_rates.rates, dtype=float)
    warmup = sim.window
    kept_slots = sim.slots - warmup
    # integer totals as products with ones: exact in int64, and much cheaper
    # than a sum along the short axis
    ones_m = np.ones(m, dtype=np.int64)
    ones_kept = np.ones(kept_slots, dtype=np.int64)

    arrivals = rng.poisson(rates, size=(sim.slots, m))
    slot_totals = arrivals @ ones_m
    # the estimate at slot t is the mean of the last min(t, window) totals,
    # 0.0 at slot 0; prefix[k] sums the totals of slots 0..k
    prefix = np.cumsum(slot_totals)
    ramp_up = min(warmup, sim.slots - 1)
    est = np.zeros(sim.slots)
    est[1 : ramp_up + 1] = prefix[:ramp_up] / np.arange(1, ramp_up + 1)
    est[ramp_up + 1 :] = (prefix[warmup:-1] - prefix[: -warmup - 1]) / warmup
    keep = keep_probability(sim.policy, est)
    accepted = rng.binomial(arrivals, keep[:, None])

    acc_sum = accepted @ ones_m
    if sim.queue_mode is QueueMode.EVENT_QUEUE:
        slot_delay = _event_queue_sojourns(sim, acc_sum, rng)
    else:
        over = np.flatnonzero(acc_sum >= mu)
        if over.size:
            first = int(over[0])
            raise OverloadError(
                f"accepted load {int(acc_sum[first])} reached the per-slot service rate "
                f"{mu} at slot {first}; the steady-state delay is undefined"
            )
        slot_delay = 1.0 / (mu - acc_sum)
    delay_weight = slot_delay[warmup:] @ accepted[warmup:]

    arrivals_total = ones_kept @ arrivals[warmup:]
    accepted_total = ones_kept @ accepted[warmup:]

    goodput = accepted_total / max(kept_slots, 1)
    mean_delay = np.where(accepted_total > 0, delay_weight / np.maximum(accepted_total, 1), 0.0)
    # zero power where no packet was accepted, so no delay was measured
    power = goodput ** np.asarray(sim.game.alphas) / np.where(mean_delay > 0, mean_delay, np.inf)
    power_t = tuple(power.tolist())
    log_welfare = float(np.sum(np.log(power))) if np.all(power > 0) else -math.inf
    if sim.game.homogeneous:
        poa = _poa_against(sim.game, WelfareKind.SUM_LOG_UTILITY)(power_t)
    else:
        poa = math.nan
    drop_probs = 1.0 - keep
    for trace in (est, drop_probs, slot_totals):
        trace.flags.writeable = False

    return SimReport(
        input_rates=tuple(rates.tolist()),
        arrivals=tuple(arrivals_total.tolist()),
        accepted=tuple(accepted_total.tolist()),
        goodput=tuple(goodput.tolist()),
        mean_delay=tuple(mean_delay.tolist()),
        power=power_t,
        sum_welfare=float(power.sum()),
        log_welfare=log_welfare,
        empirical_poa=poa,
        estimated_rates=est,
        drop_probs=drop_probs,
        slot_arrivals=slot_totals,
        slots=sim.slots,
        warmup_slots=warmup,
    )


def empirical_poa(report: SimReport, config: GameConfig, kind: WelfareKind) -> float:
    """Measured price of anarchy: drop-free optimal welfare over measured welfare.

    A user with zero measured power makes the log-kind ratio +inf.  A game
    with mixed exponents raises :class:`~mm1game.model.UnsupportedGameError`.
    """
    return _poa_against(config, kind)(report.power)


@dataclass(frozen=True)
class SweepCell:
    """Aggregated replications for one (target, service rate, window) point."""

    desired_poa: float
    mu: float
    window: int
    replications: int
    mean_poa: float
    std_poa: float
    error: str | None = None


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
        sim = replace(
            base,
            game=game,
            policy=design.policy,
            input_rates=design.predicted_ne,
            window=window,
        )
    except ValueError as exc:  # includes DesignInfeasibleError
        return failed(exc)
    try:
        poas = [
            empirical_poa(run(replace(sim, seed=base.seed + k)), game, welfare_kind)
            for k in range(replications)
        ]
    except OverloadError as exc:
        return failed(exc)
    mean = statistics.fmean(poas)
    if not all(map(math.isfinite, poas)):  # an unbounded ratio has no spread; stdev raises
        std = math.nan
    else:
        std = statistics.stdev(poas) if len(poas) > 1 else 0.0
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
    ``base.seed + k``.  A cell whose design is infeasible or whose run
    overloads records its error instead of aborting the sweep.
    """
    if replications < 1:
        raise ValueError(f"replications must be at least 1, got {replications}")
    return [
        _run_cell(base, q, mu, w, replications, welfare_kind, keep_prob)
        for q, mu, w in product(desired_poas, mus, windows)
    ]
