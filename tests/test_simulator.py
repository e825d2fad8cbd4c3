"""Slotted simulator: estimator, queue physics, dropping statistics, sweeps.

Statistical assertions use 3-to-4 sigma bands around queueing-theory
quantities (Poisson thinning, M/M/1 sojourn) with fixed seeds, so they are
deterministic in practice.
"""

import csv
import json
import math
import re
import statistics
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mm1game import (
    DesignSpec,
    GameConfig,
    LinearPolicy,
    NoDrop,
    OverloadError,
    QueueMode,
    RateProfile,
    SimConfig,
    StepPolicy,
    UnsupportedGameError,
    WelfareKind,
    design_linear,
    empirical_poa,
    keep_probability,
    ne_closed_form,
    poa_of_equilibrium,
    run,
    sweep,
    utility,
)
from mm1game import simulator
from mm1game.cli import main
from mm1game.simulator import (
    _BLOCK_PACKETS,
    _BLOCK_SLOTS,
    _event_queue_sojourn_total,
    _fifo_departures,
    _sample_stdev,
)

CFG = GameConfig.uniform(6.0, 2.0, 2)


# ------------------------------------------------------------------ basic runs


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0,)))
    with pytest.raises(ValueError):
        SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)), window=0)
    with pytest.raises(ValueError):
        SimConfig(
            game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)),
            slots=3, window=5,
        )
    with pytest.raises(ValueError):
        SimConfig(
            game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)), queue_cap=0
        )
    SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)), queue_cap=1)


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("slots", 200.0, "slots must be an integer, got 200.0"),
        ("window", 2.5, "window must be an integer, got 2.5"),
        ("window", 2.0, "window must be an integer, got 2.0"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", np.float64(3.0), f"seed must be an integer, got {np.float64(3.0)!r}"),
        ("queue_cap", 10.5, "queue_cap must be an integer, got 10.5"),
        ("seed", -1, "seed must be non-negative, got -1"),
    ],
    ids=["float-slots", "fractional-window", "float-window", "fractional-seed",
         "numpy-float-seed", "fractional-queue-cap", "negative-seed"],
)
def test_sim_config_refuses_run_options_that_are_not_counts(option, value, message):
    sim = SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)), slots=200)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(sim, **{option: value})
    assert getattr(replace(sim, **{option: np.int64(3)}), option) == 3  # a numpy integer passes


def test_sim_config_bounds_the_packets_a_run_can_count():
    # int64 sums over 2**62 expected packets cannot wrap, and no draw meets numpy's limit
    at_bound = SimConfig(
        game=GameConfig.uniform(1e19, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((2.0**60, 2.0**60)),
        slots=2,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(at_bound)
    assert min(rep.arrivals) > 2**59 and min(rep.slot_arrivals) > 2**60
    assert rep.accepted == rep.arrivals
    with pytest.raises(ValueError, match=r"input_rates total .* over 3 slots .* 2\*\*62 packets"):
        replace(at_bound, slots=3)
    with pytest.raises(ValueError, match=r"2\*\*62 packets"):
        SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((1e20, 1.0)), slots=1)


def test_sim_config_bounds_the_counts_a_run_holds():
    # each per-slot trace stays within 32 GiB; building a config allocates nothing
    idle = SimConfig(game=CFG, policy=NoDrop(), input_rates=RateProfile((0.0, 0.0)), slots=2**32)
    with pytest.raises(ValueError, match=r"^slots \(4294967297\) is more than 2\*\*32, "):
        replace(idle, slots=2**32 + 1)
    # no array has a user axis, so the users do not shorten the horizon
    crowd = GameConfig.uniform(1e6, 1.0, 10_000)
    SimConfig(game=crowd, policy=NoDrop(), input_rates=RateProfile((1.0,) * 10_000), slots=500_000)


def test_same_seed_same_report():
    sim = SimConfig(
        game=GameConfig.uniform(20.0, 2.0, 2),
        policy=LinearPolicy(9.0, 14.0),
        input_rates=RateProfile((5.0, 5.0)),
        slots=2000,
        window=3,
        seed=99,
    )
    assert run(sim) == run(sim)
    other = run(replace(sim, seed=100))
    assert other != run(sim)


def test_report_equality_compares_the_traces_by_value():
    sim = SimConfig(
        game=CFG, policy=LinearPolicy(3.0, 8.0), input_rates=RateProfile((1.0, 1.5)),
        slots=300, window=4, seed=5,
    )
    rep = run(sim)
    assert rep == replace(rep, drop_probs=rep.drop_probs.copy())
    # the summaries match, only one slot's count differs
    assert rep != replace(rep, slot_arrivals=rep.slot_arrivals + (np.arange(sim.slots) == 0))
    # a report is never equal to anything else
    assert rep.__eq__(rep.slots) is NotImplemented and rep != "report"


@pytest.mark.parametrize("name", ["estimated_rates", "drop_probs", "slot_arrivals"])
def test_report_traces_are_read_only_and_the_report_is_unhashable(name):
    sim = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.5)), slots=50, seed=2
    )
    rep = run(sim)
    trace = getattr(rep, name)
    with pytest.raises(ValueError, match="read-only"):
        trace[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        trace += 1
    with pytest.raises(TypeError, match="unhashable"):
        hash(rep)


def test_zero_input_is_a_zero_throughput_report():
    sim = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((0.0, 0.0)), slots=200
    )
    rep = run(sim)
    assert rep.goodput == (0.0, 0.0)
    assert rep.power == (0.0, 0.0)
    assert rep.mean_delay == (0.0, 0.0)
    assert rep.log_welfare == -math.inf
    assert rep.empirical_poa == math.inf


def test_accepted_never_exceeds_arrivals():
    sim = SimConfig(
        game=GameConfig.uniform(50.0, 2.0, 3),
        policy=LinearPolicy(20.0, 30.0),
        input_rates=RateProfile((8.0, 8.0, 8.0)),
        slots=4000,
        seed=1,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(sim)
    assert all(a <= b for a, b in zip(rep.accepted, rep.arrivals))
    # the ramp sheds enough here that goodput sits well below the offered rate
    assert all(g <= r for g, r in zip(rep.goodput, rep.input_rates))


def test_dropping_is_binomially_unbiased():
    """Accepted counts match the thinned-Poisson mean within 3 sigma."""
    sim = SimConfig(
        game=GameConfig.uniform(30.0, 2.0, 2),
        policy=LinearPolicy(4.0, 16.0),
        input_rates=RateProfile((3.0, 5.0)),
        slots=20_000,
        window=1,
        seed=4,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(sim)
    keep = 1.0 - np.asarray(rep.drop_probs[rep.warmup_slots :])
    kept_mass = float(keep.sum())
    for i, lam in enumerate(rep.input_rates):
        mean = lam * kept_mass
        assert abs(rep.accepted[i] - mean) <= 3.0 * math.sqrt(mean)


def test_estimator_tracks_the_true_total():
    sim = SimConfig(
        game=GameConfig.uniform(30.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.5, 2.5)),
        slots=20_000,
        window=5,
        seed=12,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(sim)
    ests = np.asarray(rep.estimated_rates[rep.warmup_slots :])
    total = 4.0
    stderr = math.sqrt(total / ests.size)
    assert abs(float(ests.mean()) - total) <= 4.0 * stderr


def test_warmup_slots_are_discarded():
    sim = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((1.0, 1.0)),
        slots=500, window=50, seed=3,
    )
    rep = run(sim)
    assert rep.warmup_slots == 50
    counted = sum(rep.slot_arrivals[50:])
    assert sum(rep.arrivals) == counted


_POLICIES = {
    "none": NoDrop(),
    "step": StepPolicy(4.0),
    "linear": LinearPolicy(3.0, 8.0),
}


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=3),
    window=st.integers(1, 12),
    extra_slots=st.integers(0, 300),
    shape=st.sampled_from(sorted(_POLICIES)),
    mode=st.sampled_from(list(QueueMode)),
    seed=st.integers(0, 2**32 - 1),
)
def test_report_traces_match_a_plain_python_oracle(
    rates, window, extra_slots, shape, mode, seed
):
    policy = _POLICIES[shape]
    sim = SimConfig(
        game=GameConfig.uniform(60.0, 2.0, len(rates)),
        policy=policy,
        input_rates=RateProfile(tuple(rates)),
        slots=window + extra_slots,
        window=window,
        seed=seed,
        queue_mode=mode,
    )
    rep = run(sim)
    totals = rep.slot_arrivals
    assert len(totals) == len(rep.estimated_rates) == len(rep.drop_probs) == sim.slots
    for t in range(sim.slots):
        n = min(t, window)
        trailing_mean = sum(totals[t - n : t]) / n if n else 0.0
        assert rep.estimated_rates[t] == trailing_mean
        assert rep.drop_probs[t] == 1.0 - keep_probability(policy, rep.estimated_rates[t])
    assert sum(rep.arrivals) == sum(totals[rep.warmup_slots :])
    assert all(a <= b for a, b in zip(rep.accepted, rep.arrivals))


@settings(max_examples=40, deadline=None)
@given(
    rates=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4),
    window=st.integers(1, 30),
    extra_slots=st.integers(0, 300),
    shape=st.sampled_from(sorted(_POLICIES)),
    seed=st.integers(0, 2**32 - 1),
)
def test_analytic_delay_matches_a_plain_python_per_slot_sum(
    rates, window, extra_slots, shape, seed
):
    policy = _POLICIES[shape]
    mu, alpha, m = 60.0, 2.0, len(rates)
    sim = SimConfig(
        game=GameConfig.uniform(mu, alpha, m),
        policy=policy,
        input_rates=RateProfile(tuple(rates)),
        slots=window + extra_slots,
        window=window,
        seed=seed,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(sim)
    # the generator calls run makes, in its order: the slot totals, their
    # thinning, then one split of the accepted and one of the dropped packets
    gen = np.random.Generator(np.random.PCG64(seed))
    offered = sum(rates)
    totals = gen.poisson(offered, sim.slots).tolist()
    est = [sum(totals[t - min(t, window) : t]) / min(t, window) if t else 0.0
           for t in range(sim.slots)]
    accepted = gen.binomial(totals, keep_probability(policy, np.asarray(est))).tolist()
    shares = [r / offered if offered else 0.0 for r in rates]
    n_accepted = sum(accepted[window:])
    counted = gen.multinomial(n_accepted, shares).tolist()
    dropped = gen.multinomial(sum(totals[window:]) - n_accepted, shares).tolist()

    weight = sum(a / (mu - a) for a in accepted[window:])
    pooled = weight / n_accepted if n_accepted else 0.0
    kept = sim.slots - window
    power = []
    for i in range(m):
        delay = pooled if counted[i] else 0.0
        goodput = counted[i] / kept if kept else 0.0
        power.append(goodput**alpha / delay if goodput > 0 and delay > 0 else 0.0)
        assert rep.accepted[i] == counted[i]
        assert rep.arrivals[i] == counted[i] + dropped[i]
        assert rep.mean_delay[i] == pytest.approx(delay, rel=1e-12, abs=0.0)
        assert rep.power[i] == pytest.approx(power[i], rel=1e-12, abs=0.0)
    # the log kind's optimum splits alpha mu / (alpha + 1) evenly
    per_user_opt = (alpha * mu / (alpha + 1.0) / m) ** alpha * (mu / (alpha + 1.0))
    poa = math.prod(per_user_opt / p for p in power) if all(power) else math.inf
    assert rep.empirical_poa == pytest.approx(poa, rel=1e-12, abs=0.0)


def _numpy_summaries(sim, gen):
    """The per-user summaries as whole-array numpy formulas, on a replay of
    run's draws: the reference that run's plain-float summaries must match
    to the bit."""
    rates = np.asarray(sim.input_rates.rates, dtype=float)
    offered, w = sim.input_rates.total, sim.window
    totals = gen.poisson(offered, sim.slots)
    est = [sum(totals[t - min(t, w) : t].tolist()) / min(t, w) if t else 0.0
           for t in range(sim.slots)]
    acc_sum = gen.binomial(totals, keep_probability(sim.policy, np.asarray(est)))
    counted = acc_sum[w:]
    if sim.queue_mode is QueueMode.EVENT_QUEUE:
        total_delay = _event_queue_sojourn_total(sim, acc_sum, gen)
    else:
        total_delay = float((1.0 / (sim.game.mu - acc_sum))[w:] @ counted)
    n_accepted = int(counted.sum())
    pooled = total_delay / max(n_accepted, 1)
    shares = rates / offered if offered > 0 else rates
    accepted = gen.multinomial(n_accepted, shares)
    arrivals = accepted + gen.multinomial(int(totals[w:].sum()) - n_accepted, shares)
    goodput = accepted / max(sim.slots - w, 1)
    mean_delay = np.where(accepted > 0, pooled, 0.0)
    power = goodput ** np.asarray(sim.game.alphas) / np.where(mean_delay > 0, mean_delay, np.inf)
    return {
        "arrivals": tuple(arrivals.tolist()),
        "accepted": tuple(accepted.tolist()),
        "goodput": tuple(goodput.tolist()),
        "mean_delay": tuple(mean_delay.tolist()),
        "power": tuple(power.tolist()),
        "sum_welfare": float(power.sum()),
        "log_welfare": float(np.sum(np.log(power))) if np.all(power > 0) else -math.inf,
    }


@settings(max_examples=60, deadline=None)
@given(
    rates=st.lists(st.sampled_from([0.0, 0.3, 2.5, 7.0]), min_size=1, max_size=9),
    alphas=st.lists(st.sampled_from([0.5, 1.0, 1.7, 2.0, 3.0]), min_size=9, max_size=9),
    window=st.integers(1, 12),
    extra_slots=st.integers(0, 200),
    shape=st.sampled_from(sorted(_POLICIES)),
    mode=st.sampled_from(list(QueueMode)),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_user_summaries_match_the_numpy_formulas_exactly(
    rates, alphas, window, extra_slots, shape, mode, seed
):
    # up to nine users, so numpy's pairwise sum of the powers takes both of
    # its paths; mixed exponents and silent users included
    sim = SimConfig(
        game=GameConfig(200.0, tuple(alphas[: len(rates)])),
        policy=_POLICIES[shape],
        input_rates=RateProfile(tuple(rates)),
        slots=window + extra_slots,
        window=window,
        seed=seed,
        queue_mode=mode,
    )
    rep = run(sim)
    want = _numpy_summaries(sim, np.random.Generator(np.random.PCG64(seed)))
    assert {name: getattr(rep, name) for name in want} == want
    assert rep.input_rates == sim.input_rates.rates


@pytest.mark.parametrize("mode", list(QueueMode), ids=lambda mode: mode.value)
def test_per_user_summaries_of_a_silent_user_and_mixed_exponents_match_exactly(mode):
    sim = SimConfig(
        game=GameConfig(30.0, (0.5, 2.0, 1.3, 2.0)),
        policy=LinearPolicy(4.0, 12.0),
        input_rates=RateProfile((0.0, 1.5, 2.5, 4.0)),
        slots=700,
        window=7,
        seed=99,
        queue_mode=mode,
    )
    rep = run(sim)
    want = _numpy_summaries(sim, np.random.Generator(np.random.PCG64(sim.seed)))
    assert {name: getattr(rep, name) for name in want} == want
    assert rep.accepted[0] == 0 and rep.power[0] == 0.0 and rep.log_welfare == -math.inf
    assert all(rep.accepted[1:])


# --------------------------------------------------------------- queue physics


def test_event_queue_reproduces_mm1_delay():
    # utilization 2/3; mean sojourn should be 1/(30 - 20) = 0.1
    sim = SimConfig(
        game=GameConfig.uniform(30.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((12.0, 8.0)),
        slots=8000,
        seed=21,
    )
    assert sim.slots % _BLOCK_SLOTS != 0  # the queue also runs a partial block
    rep = run(sim)
    pooled = sum(d * a for d, a in zip(rep.mean_delay, rep.accepted)) / sum(rep.accepted)
    assert pooled == pytest.approx(0.1, rel=0.05)


def test_an_event_run_with_no_slot_past_warm_up_measures_no_delay():
    # the warm-up covers every block, so the queue runs but sums nothing
    sim = SimConfig(
        game=GameConfig.uniform(6.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.5, 2.5)),
        slots=2 * _BLOCK_SLOTS + 3,
        window=2 * _BLOCK_SLOTS + 3,
        seed=4,
    )
    rep = run(sim)
    assert rep.slot_arrivals.sum() > 0
    assert rep.arrivals == rep.accepted == (0, 0)
    assert rep.mean_delay == (0.0, 0.0) and rep.power == (0.0, 0.0)
    acc_sum = rep.slot_arrivals  # no dropping
    rng = _PooledRng(3, int(acc_sum.sum()))
    assert _event_queue_sojourn_total(sim, acc_sum, rng) == 0.0
    assert len(rng.batches) == 3  # 256, 256 and 3 slots, each block with packets


def test_analytic_and_event_delays_agree_at_scale():
    base = SimConfig(
        game=GameConfig.uniform(500.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((200.0, 200.0)),
        slots=1500,
        seed=7,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    ra = run(base)
    re = run(replace(base, queue_mode=QueueMode.EVENT_QUEUE))

    def pooled(rep):
        return sum(d * a for d, a in zip(rep.mean_delay, rep.accepted)) / sum(rep.accepted)

    assert pooled(ra) == pytest.approx(pooled(re), rel=0.10)


def test_analytic_mode_flags_overload():
    sim = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((4.0, 4.0)),
        slots=2000, seed=0, queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    with pytest.raises(OverloadError):
        run(sim)


def test_event_mode_flags_sustained_backlog():
    sim = SimConfig(
        game=GameConfig.uniform(0.5, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.0, 1.0)),
        slots=5000,
        seed=0,
        queue_cap=50,
    )
    with pytest.raises(OverloadError):
        run(sim)


def test_event_backlog_carries_across_blocks_until_the_cap():
    mu, lam, cap = 0.5, 2.0, 2000
    sim = SimConfig(
        game=GameConfig.uniform(mu, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((lam / 2, lam / 2)),
        slots=5000,
        seed=0,
        queue_cap=cap,
    )
    with pytest.raises(OverloadError) as info:
        run(sim)
    slot = int(re.search(r"at slot (\d+)", str(info.value)).group(1))
    # The server never idles, so the backlog is a random walk with drift
    # lam - mu and variance lam + mu per slot; one block adds ~384 packets.
    crossing = cap / (lam - mu)
    sigma = math.sqrt((lam + mu) * crossing) / (lam - mu)
    assert slot >= 2 * _BLOCK_SLOTS
    assert abs(slot - crossing) <= 4.0 * sigma


class _PooledRng:
    """Hands out pre-drawn uniforms and unit exponentials in order.

    Packet k gets the k-th of each, whatever batch sizes the caller asks
    for, so the per-slot and the blocked event queue see the same packets.
    Every batch is a fresh array, which the caller may overwrite, and
    ``batches`` lists the sizes of the uniform batches asked for.
    """

    def __init__(self, seed, n):
        gen = np.random.default_rng(seed)
        self._uniforms = gen.random(n)
        self._exponentials = gen.exponential(1.0, n)
        self._used_u = self._used_e = 0
        self.batches = []

    def random(self, k):
        out = self._uniforms[self._used_u : self._used_u + k].copy()
        self._used_u += k
        self.batches.append(k)
        return out

    def standard_exponential(self, k):
        out = self._exponentials[self._used_e : self._used_e + k].copy()
        self._used_e += k
        return out

    def exponential(self, scale, k):
        return scale * self.standard_exponential(k)


def _per_slot_event_queue(sim, acc_sum, rng):
    """The event queue one slot at a time: the reference for the blocked one.

    Returns the per-slot mean sojourns, the first slot whose backlog
    exceeds the cap (None if none does), and the backlog at each slot's end
    up to there.
    """
    sojourn = np.zeros(len(acc_sum))
    server_free = 0.0
    pending = deque()
    backlogs = []
    for t, n in enumerate(acc_sum.tolist()):
        if n:
            times = np.sort(t + rng.random(n))
            services = rng.exponential(1.0 / sim.game.mu, n)
            departures = _fifo_departures(times, services, server_free)
            server_free = float(departures[-1])
            sojourn[t] = np.mean(departures - times)
            pending.extend(departures[departures > t + 1.0])
        while pending and pending[0] <= t + 1.0:
            pending.popleft()
        backlogs.append(len(pending))
        if len(pending) > sim.queue_cap:
            return sojourn, t, backlogs
    return sojourn, None, backlogs


def _blocks(acc_sum, block, budget):
    """The (start, end) slots of the blocked queue's blocks: each closes at
    ``block`` slots or before its packets would pass ``budget``, and holds
    at least one slot."""
    counts = acc_sum.tolist()
    bounds, start = [], 0
    while start < len(counts):
        end, packets = start + 1, counts[start]
        while end < min(start + block, len(counts)) and packets + counts[end] <= budget:
            packets += counts[end]
            end += 1
        bounds.append((start, end))
        start = end
    return bounds


def _labelled_event_queue(sim, accepted, rng):
    """The event queue with every packet labelled by its user, one slot at a
    time: summed per-user sojourn of the packets past warm-up.

    An independent oracle for charging each packet its slot's mean sojourn,
    which is this sum's conditional expectation given the slots' counts.
    """
    m = accepted.shape[1]
    delay_weight = np.zeros(m)
    server_free = 0.0
    for t, acc in enumerate(accepted):
        acc_sum = int(acc.sum())
        if acc_sum:
            users = np.repeat(np.arange(m), acc)
            times = t + rng.random(acc_sum)
            order = np.argsort(times, kind="stable")
            times = times[order]
            users = users[order]
            services = rng.exponential(1.0 / sim.game.mu, acc_sum)
            departures = _fifo_departures(times, services, server_free)
            server_free = float(departures[-1])
            if t >= sim.window:
                np.add.at(delay_weight, users, departures - times)
    return delay_weight


_BLOCKS = [1, 7, _BLOCK_SLOTS, 5000]
_BUDGETS = [1, 5, 64, _BLOCK_PACKETS]


def _poisson_pair(sim):
    """Two users' accepted packets per slot at rates 1.2 and 1.5, their
    per-slot totals and the sum of those."""
    accepted = np.random.default_rng(8).poisson((1.2, 1.5), size=(sim.slots, 2))
    acc_sum = accepted.sum(axis=1)
    return accepted, acc_sum, int(acc_sum.sum())


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("mu, cap, overloads", [(3.0, 10**6, False), (2.5, 60, True)])
def test_blocked_event_queue_matches_the_per_slot_loop(
    monkeypatch, block, budget, mu, cap, overloads
):
    sim = SimConfig(
        game=GameConfig.uniform(mu, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.2, 1.5)),
        slots=1000,
        window=5,
        queue_cap=cap,
    )
    accepted, acc_sum, n = _poisson_pair(sim)
    want, overload_slot, _ = _per_slot_event_queue(sim, acc_sum, _PooledRng(3, n))
    assert (overload_slot is not None) == overloads
    monkeypatch.setattr(simulator, "_BLOCK_SLOTS", block)
    monkeypatch.setattr(simulator, "_BLOCK_PACKETS", budget)
    if overloads:
        with pytest.raises(OverloadError, match=f"at slot {overload_slot}$"):
            _event_queue_sojourn_total(sim, acc_sum, _PooledRng(3, n))
        return
    rng = _PooledRng(3, n)
    got = _event_queue_sojourn_total(sim, acc_sum, rng)
    # one batch of draws per block that holds a packet
    packets = [int(acc_sum[start:end].sum()) for start, end in _blocks(acc_sum, block, budget)]
    assert rng.batches == [k for k in packets if k]
    # a sojourn is a difference of instants up to the horizon, where both
    # queues round at ulp(1000) ~ 1.1e-13 along their own paths
    w = sim.window
    assert got == pytest.approx(acc_sum[w:] @ want[w:], rel=1e-12)
    # the labelled queue sees the same packets: its pooled total is exactly
    # the slots' means times their counts, split among users by their counts
    labelled = _labelled_event_queue(sim, accepted, _PooledRng(3, n))
    charged = want[w:] @ accepted[w:]
    assert labelled.sum() == pytest.approx(got, rel=1e-12)
    assert charged.sum() == pytest.approx(labelled.sum(), rel=1e-12)
    assert not np.allclose(charged, labelled, rtol=1e-6)  # equal only in expectation


@pytest.mark.parametrize(
    "budget, batches", [(8, [8]), (7, [7, 1]), (3, [3, 4, 1]), (2, [2, 1, 4, 1])]
)
def test_an_event_block_closes_before_its_packets_pass_the_budget(
    monkeypatch, budget, batches
):
    # a block may hold exactly the budget, and a slot over it is a block alone
    acc_sum = np.array([1, 1, 1, 4, 1])
    sim = SimConfig(
        game=GameConfig.uniform(3.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.2, 1.5)),
        slots=len(acc_sum),
    )
    monkeypatch.setattr(simulator, "_BLOCK_PACKETS", budget)
    rng = _PooledRng(3, int(acc_sum.sum()))
    _event_queue_sojourn_total(sim, acc_sum, rng)
    assert rng.batches == batches


@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize(
    "window", [1, 5, _BLOCK_SLOTS - 1, _BLOCK_SLOTS, _BLOCK_SLOTS + 1, 600]
)
def test_blocked_event_queue_total_skips_the_warm_up_across_block_edges(
    monkeypatch, window, block
):
    # the warm-up ends inside a block, at its first or last slot, or past it
    sim = SimConfig(
        game=GameConfig.uniform(3.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.2, 1.5)),
        slots=1000,
        window=window,
    )
    _, acc_sum, n = _poisson_pair(sim)
    want, overload_slot, _ = _per_slot_event_queue(sim, acc_sum, _PooledRng(3, n))
    assert overload_slot is None
    monkeypatch.setattr(simulator, "_BLOCK_SLOTS", block)
    got = _event_queue_sojourn_total(sim, acc_sum, _PooledRng(3, n))
    assert got == pytest.approx(acc_sum[window:] @ want[window:], rel=1e-12)


@pytest.fixture(scope="module")
def uncapped_run():
    """The cap test's run, its slots' packets and its backlogs under no cap:
    one per-slot loop for every case."""
    sim = SimConfig(
        game=GameConfig.uniform(2.7, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((1.2, 1.5)),
        slots=1000,
        window=5,
    )
    _, acc_sum, n = _poisson_pair(sim)
    _, never, backlogs = _per_slot_event_queue(sim, acc_sum, _PooledRng(3, n))
    assert never is None
    return sim, acc_sum, n, backlogs


@pytest.mark.parametrize("budget", _BUDGETS)
@pytest.mark.parametrize("block", _BLOCKS)
@pytest.mark.parametrize("cap_at", ["peak backlog", "peak in system"])
@pytest.mark.parametrize("below", [0, 1], ids=["at", "one below"])
def test_event_queue_cap_at_its_boundaries_matches_the_per_slot_loop(
    monkeypatch, uncapped_run, block, budget, cap_at, below
):
    # The blocked queue scans a block's backlog only when the packets in the
    # system during it (those pending at its start plus its arrivals) exceed
    # the cap.  Put the cap at the largest such count and at the largest
    # backlog, and one below each: the per-slot loop decides every case.
    sim, acc_sum, n, backlogs = uncapped_run
    in_system = [
        (backlogs[start - 1] if start else 0) + int(acc_sum[start:end].sum())
        for start, end in _blocks(acc_sum, block, budget)
    ]
    cap = (max(backlogs) if cap_at == "peak backlog" else max(in_system)) - below
    sim = replace(sim, queue_cap=cap)
    want, overload_slot, _ = _per_slot_event_queue(sim, acc_sum, _PooledRng(3, n))
    assert (overload_slot is not None) == (cap_at == "peak backlog" and below == 1)
    monkeypatch.setattr(simulator, "_BLOCK_SLOTS", block)
    monkeypatch.setattr(simulator, "_BLOCK_PACKETS", budget)
    if overload_slot is not None:
        message = f"^queue backlog {cap + 1} exceeded the cap {cap} at slot {overload_slot}$"
        with pytest.raises(OverloadError, match=message):
            _event_queue_sojourn_total(sim, acc_sum, _PooledRng(3, n))
        return
    got = _event_queue_sojourn_total(sim, acc_sum, _PooledRng(3, n))
    assert got == pytest.approx(acc_sum[sim.window :] @ want[sim.window :], rel=1e-12)


def test_run_charges_every_user_the_pooled_mean_sojourn():
    sim = SimConfig(
        game=GameConfig.uniform(6.0, 2.0, 4),
        policy=LinearPolicy(2.0, 8.0),
        input_rates=RateProfile((0.0, 0.5, 1.5, 2.5)),
        slots=700,
        window=4,
        seed=5,
    )
    rep = run(sim)
    # replay run's draws in order: slot totals, their thinning, the queue,
    # then the split of the accepted and of the dropped packets among users
    gen = np.random.Generator(np.random.PCG64(sim.seed))
    totals = gen.poisson(sim.input_rates.total, sim.slots)
    np.testing.assert_array_equal(totals, rep.slot_arrivals)
    acc_sum = gen.binomial(totals, keep_probability(sim.policy, rep.estimated_rates))
    total_delay = _event_queue_sojourn_total(sim, acc_sum, gen)
    shares = np.asarray(sim.input_rates.rates) / sim.input_rates.total
    counted = acc_sum[sim.window :]
    n_accepted = int(counted.sum())
    accepted = gen.multinomial(n_accepted, shares)
    dropped = gen.multinomial(int(totals[sim.window :].sum()) - n_accepted, shares)
    assert rep.accepted == tuple(accepted.tolist())
    assert rep.arrivals == tuple((accepted + dropped).tolist())
    pooled = total_delay / n_accepted
    assert rep.accepted[0] == 0 and rep.mean_delay[0] == 0.0  # a silent user measures no delay
    for i in range(1, sim.game.m):
        assert rep.accepted[i] > 0
        assert rep.mean_delay[i] == pytest.approx(pooled, rel=1e-12)


def test_per_user_event_delays_match_the_labelled_queue_in_mean():
    # users of very different rates through a loaded queue, 40 seeds: on the
    # same packets the charged and the labelled per-user mean delays differ
    # by noise of mean zero
    sim = SimConfig(
        game=GameConfig.uniform(6.0, 2.0, 3),
        policy=NoDrop(),
        input_rates=RateProfile((0.5, 1.5, 3.0)),
        slots=150,
        window=1,
    )
    charged, labelled = [], []
    for seed in range(40):
        accepted = np.random.default_rng(seed).poisson(sim.input_rates.rates, (sim.slots, 3))
        acc_sum = accepted.sum(axis=1)
        n = int(acc_sum.sum())
        counted = accepted[sim.window :].sum(axis=0)
        sojourn, _, _ = _per_slot_event_queue(sim, acc_sum, _PooledRng(100 + seed, n))
        charged.append(sojourn[sim.window :] @ accepted[sim.window :] / counted)
        labelled.append(_labelled_event_queue(sim, accepted, _PooledRng(100 + seed, n)) / counted)
    charged, labelled = np.array(charged), np.array(labelled)
    diff = charged - labelled
    stderr = diff.std(axis=0, ddof=1) / math.sqrt(len(diff))
    assert np.all(np.abs(diff.mean(axis=0)) <= 4.0 * stderr)


def _per_cell_reference(sim):
    """The sampler that drew a Poisson and a binomial for every (slot, user)
    cell and charged each user its own slots' delays: the reference for
    splitting the users once per run.  Per-user arrivals, accepted packets
    and mean delay past warm-up."""
    rng = np.random.default_rng(sim.seed)
    w = sim.window
    arrivals = rng.poisson(sim.input_rates.rates, size=(sim.slots, sim.game.m))
    prefix = np.concatenate(([0], np.cumsum(arrivals.sum(axis=1))))
    t = np.arange(sim.slots)
    n = np.minimum(t, w)
    est = (prefix[t] - prefix[t - n]) / np.maximum(n, 1)
    accepted = rng.binomial(arrivals, keep_probability(sim.policy, est)[:, None])
    acc_sum = accepted.sum(axis=1)
    if sim.queue_mode is QueueMode.EVENT_QUEUE:
        delay, overload_slot, _ = _per_slot_event_queue(sim, acc_sum, rng)
        assert overload_slot is None
    else:
        delay = 1.0 / (sim.game.mu - acc_sum)
    counted = accepted[w:].sum(axis=0)
    mean_delay = np.where(counted > 0, delay[w:] @ accepted[w:] / np.maximum(counted, 1), 0.0)
    return arrivals[w:].sum(axis=0), counted, mean_delay


def _assert_same_moments(got, want, variance):
    """Columns agree in mean, and in variance if asked, within 4 sigma of
    the difference as estimated from the samples themselves."""
    n = len(got)
    mean_se = np.sqrt((got.var(axis=0, ddof=1) + want.var(axis=0, ddof=1)) / n)
    assert np.all(np.abs(got.mean(axis=0) - want.mean(axis=0)) <= 4.0 * mean_se)
    if variance:
        def var_se2(x):  # squared standard error of the sample variance
            dev = x - x.mean(axis=0)
            return ((dev**4).mean(axis=0) - dev.var(axis=0) ** 2) / n

        var_se = np.sqrt(var_se2(got) + var_se2(want))
        assert np.all(np.abs(got.var(axis=0, ddof=1) - want.var(axis=0, ddof=1)) <= 4.0 * var_se)


@pytest.mark.parametrize("mode", list(QueueMode), ids=lambda mode: mode.value)
def test_splitting_the_users_once_matches_per_cell_sampling(mode):
    # a shedding ramp and users of unequal rates; the pooled delay keeps each
    # user's mean delay in mean, while the counts keep their whole law
    sim = SimConfig(
        game=GameConfig.uniform(30.0, 2.0, 3),
        policy=LinearPolicy(4.0, 12.0),
        input_rates=RateProfile((0.5, 2.0, 4.5)),
        slots=150,
        window=3,
        queue_mode=mode,
    )
    split, cells = [], []
    for seed in range(200):
        rep = run(replace(sim, seed=seed))
        split.append((rep.arrivals, rep.accepted, rep.mean_delay))
        cells.append(_per_cell_reference(replace(sim, seed=10_000 + seed)))
    split, cells = np.array(split, dtype=float), np.array(cells, dtype=float)
    for k in (0, 1):  # arrivals, accepted
        _assert_same_moments(split[:, k], cells[:, k], variance=True)
    _assert_same_moments(split[:, 2], cells[:, 2], variance=False)  # mean delay


# ------------------------------------------------- accepted fraction, exactly


def _accepted_fraction_oracle(policy, offered, window, kept_slots):
    """The exact expected accepted fraction past warm-up, and a bound on the
    standard deviation of a run's fraction.

    There the estimate is N / window with N ~ Poisson(window * offered),
    independent of the slot's own arrivals, so the expected fraction is
    kappa = E[keep(N / window)], a finite Poisson sum.  A run's fraction
    minus kappa is, to first order, a sum of three parts over the offered
    packets: the keep series' mean deviation (keeps more than window - 1
    slots apart are independent, so its variance is at most 2 window - 1
    times a single keep's), that deviation times each slot's arrival noise
    (a martingale), and the thinning.  Their standard deviations add.
    """
    lam = window * offered
    n = np.arange(int(lam + 12.0 * math.sqrt(lam) + 30.0))
    pmf = np.exp(n * math.log(lam) - lam - np.array([math.lgamma(k + 1.0) for k in n]))
    keep = keep_probability(policy, n / window)
    kappa = float(pmf @ keep)
    var_keep = float(pmf @ keep**2) - kappa**2
    packets = offered * kept_slots
    sd = (
        math.sqrt((2 * window - 1) * var_keep / kept_slots)
        + math.sqrt(var_keep / packets)
        + math.sqrt(float(pmf @ (keep * (1.0 - keep))) / packets)
    )
    return kappa, sd


# the ramp clips the likely estimates around the offered total of 13 at both
# ends, so the expected keep is not the keep at the offered total
_CLIPPING_RAMP = LinearPolicy(11.0, 16.0)


@pytest.mark.parametrize("mode", list(QueueMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("window", [1, 4])
def test_accepted_fraction_matches_the_exact_poisson_sum(mode, window):
    sim = SimConfig(
        game=GameConfig.uniform(60.0, 2.0, 2),
        policy=_CLIPPING_RAMP,
        input_rates=RateProfile((6.0, 7.0)),
        slots=20_000,
        window=window,
        seed=17,
        queue_mode=mode,
    )
    rep = run(sim)
    kappa, sd = _accepted_fraction_oracle(_CLIPPING_RAMP, 13.0, window, sim.slots - window)
    assert abs(sum(rep.accepted) / sum(rep.arrivals) - kappa) <= 4.0 * sd


def test_the_exact_accepted_fraction_is_not_the_keep_at_the_offered_total():
    kappa, sd = _accepted_fraction_oracle(_CLIPPING_RAMP, 13.0, 1, 20_000 - 1)
    assert kappa == pytest.approx(0.56561, abs=5e-6)
    # the naive keep(13) = 0.6 lies far outside the band the test above allows
    assert keep_probability(_CLIPPING_RAMP, 13.0) - kappa > 8.0 * sd


# --------------------------------------------------------------- empirical PoA


def _report_from_analytic_profile(profile, policy, cfg):
    """Build a noiseless report whose measurements equal the steady-state values."""
    from mm1game import SimReport
    from mm1game.model import _keep_and_load

    keep, load = _keep_and_load(profile, policy, cfg)
    goodput = tuple(r * keep for r in profile.rates)
    delay = 1.0 / (cfg.mu - load)
    power = tuple(
        (g ** a) / delay for g, a in zip(goodput, cfg.alphas)
    )
    return SimReport(
        input_rates=profile.rates,
        arrivals=(0,) * cfg.m,
        accepted=(0,) * cfg.m,
        goodput=goodput,
        mean_delay=(delay,) * cfg.m,
        power=power,
        sum_welfare=sum(power),
        log_welfare=(
            sum(math.log(p) for p in power) if all(p > 0 for p in power) else -math.inf
        ),
        empirical_poa=math.nan,
        estimated_rates=(),
        drop_probs=(),
        slot_arrivals=(),
        slots=0,
        warmup_slots=0,
    )


def test_empirical_poa_matches_analytic_on_noiseless_input():
    design = design_linear(DesignSpec(CFG, epsilon=0.05, keep_prob=0.9, target_effective_total=3.9))
    rep = _report_from_analytic_profile(design.predicted_ne, design.policy, CFG)
    want = poa_of_equilibrium(design.predicted_ne, design.policy, CFG, WelfareKind.SUM_LOG_UTILITY)
    assert empirical_poa(rep, CFG, WelfareKind.SUM_LOG_UTILITY) == pytest.approx(want, abs=1e-6)


def test_empirical_poa_is_one_at_each_kinds_own_optimum():
    from mm1game import social_optimum_log, social_optimum_sum

    log_rep = _report_from_analytic_profile(social_optimum_log(CFG), NoDrop(), CFG)
    assert empirical_poa(log_rep, CFG, WelfareKind.SUM_LOG_UTILITY) == pytest.approx(
        1.0, abs=1e-12
    )
    sum_profile, _ = social_optimum_sum(CFG)
    sum_rep = _report_from_analytic_profile(sum_profile, NoDrop(), CFG)
    assert empirical_poa(sum_rep, CFG, WelfareKind.SUM_UTILITY) == pytest.approx(
        1.0, abs=1e-12
    )
    # the even split is not the sum-optimal shape for exponents above one
    assert empirical_poa(log_rep, CFG, WelfareKind.SUM_UTILITY) == pytest.approx(2.0)


def test_empirical_poa_zero_power_is_infinite():
    rep = _report_from_analytic_profile(
        RateProfile((2.0, 2.0)), NoDrop(), CFG
    )
    # a user that got nothing through has no goodput, no measured delay and no power
    rep = replace(
        rep,
        goodput=(0.0, rep.goodput[1]),
        mean_delay=(0.0, rep.mean_delay[1]),
        power=(0.0, rep.power[1]),
    )
    assert empirical_poa(rep, CFG, WelfareKind.SUM_LOG_UTILITY) == math.inf


@pytest.mark.parametrize("kind", list(WelfareKind), ids=lambda kind: kind.value)
@pytest.mark.parametrize("rates", [(0.0, 1.0), (2.0, 1.0)], ids=["zero-utility", "positive"])
def test_mixed_exponents_have_no_drop_free_optimum_whatever_the_utilities(kind, rates):
    # the optimum is read before any utility, so a zero utility does not turn this into +inf
    game = GameConfig(6.0, (1.0, 2.0))
    profile = RateProfile(rates)
    with pytest.raises(UnsupportedGameError):
        poa_of_equilibrium(profile, NoDrop(), game, kind)
    rep = _report_from_analytic_profile(profile, NoDrop(), game)
    with pytest.raises(UnsupportedGameError):
        empirical_poa(rep, game, kind)


def test_simulated_equilibrium_poa_lands_near_the_design():
    game = GameConfig.uniform(50_000.0, 2.0, 3)
    design = design_linear(DesignSpec(game, epsilon=0.05))
    sim = SimConfig(
        game=game,
        policy=design.policy,
        input_rates=design.predicted_ne,
        slots=10_000,
        window=1,
        seed=9,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    rep = run(sim)
    assert 1.0 <= rep.empirical_poa <= 1.3


@pytest.mark.parametrize("mode", list(QueueMode), ids=lambda mode: mode.value)
def test_mixed_exponents_have_no_empirical_poa_and_write_it_as_missing(tmp_path, mode):
    sim = SimConfig(
        game=GameConfig(20.0, (1.0, 2.0)),
        policy=NoDrop(),
        input_rates=RateProfile((3.0, 4.0)),
        slots=500,
        seed=3,
        queue_mode=mode,
    )
    assert math.isnan(run(sim).empirical_poa)
    argv = ["simulate", "--mu", "20", "--alpha", "1,2", "--rates", "3,4", "--slots", "500",
            "--seed", "3", "--queue-mode", mode.value]
    assert main([*argv, "--out", str(tmp_path / "sim.csv")]) == 0
    with open(tmp_path / "sim.csv", encoding="utf-8", newline="") as fh:
        assert [row["empirical_poa"] for row in csv.DictReader(fh)] == ["", ""]
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "sim.json")]) == 0
    users = json.loads((tmp_path / "sim.json").read_text())["users"]
    assert [user["empirical_poa"] for user in users] == [None, None]


# ----------------------------------------------------------------------- sweep


def test_single_cell_sweep_reduces_to_runs():
    game = GameConfig.uniform(800.0, 2.0, 2)
    base = SimConfig(
        game=game, policy=NoDrop(), input_rates=RateProfile((0.0, 0.0)),
        slots=2000, window=1, seed=31, queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    cells = sweep(base, desired_poas=[1.1], mus=[800.0], windows=[1], replications=3)
    assert len(cells) == 1
    cell = cells[0]
    assert cell.error is None

    design = design_linear(DesignSpec(game, epsilon=0.1))
    vals = []
    for k in range(3):
        rep = run(
            replace(base, policy=design.policy, input_rates=design.predicted_ne, seed=31 + k)
        )
        vals.append(empirical_poa(rep, game, WelfareKind.SUM_LOG_UTILITY))
    assert cell.mean_poa == statistics.fmean(vals)
    assert cell.std_poa == statistics.stdev(vals)


def test_sweep_records_per_cell_errors():
    base = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((0.0, 0.0)),
        slots=500, window=1, seed=0, queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    cells = sweep(
        base,
        desired_poas=[1.5],  # below the plain-sum floor of 2 for this game
        mus=[600.0],
        windows=[1],
        replications=2,
        welfare_kind=WelfareKind.SUM_UTILITY,
    )
    assert len(cells) == 1
    assert cells[0].error is not None
    assert math.isnan(cells[0].mean_poa)


def test_sweep_records_a_fractional_window_as_the_cells_error():
    base = SimConfig(
        game=GameConfig.uniform(500.0, 2.0, 2), policy=NoDrop(),
        input_rates=RateProfile((0.0, 0.0)), slots=200, queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    (cell,) = sweep(base, [1.2], [500.0], [2.7], 1)
    assert cell.window == 2.7
    assert cell.error == "window must be an integer, got 2.7"
    assert math.isnan(cell.mean_poa)


def test_sweep_is_deterministic():
    base = SimConfig(
        game=GameConfig.uniform(600.0, 2.0, 3),
        policy=NoDrop(),
        input_rates=RateProfile((0.0, 0.0, 0.0)),
        slots=1000,
        window=1,
        seed=5,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    serial = sweep(base, [1.05, 1.2], [600.0], [1, 10], replications=2)
    again = sweep(base, [1.05, 1.2], [600.0], [1, 10], replications=2)
    assert serial == again


def test_sweep_lets_programming_errors_through(monkeypatch):
    def broken_run(sim):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(simulator, "run", broken_run)
    base = SimConfig(
        game=GameConfig.uniform(800.0, 2.0, 2),
        policy=NoDrop(),
        input_rates=RateProfile((0.0, 0.0)),
        slots=100,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    with pytest.raises(ValueError, match="broadcast"):
        sweep(base, [1.1], [800.0], [1], replications=1)


def test_sweep_validates_replications():
    base = SimConfig(
        game=CFG, policy=NoDrop(), input_rates=RateProfile((0.0, 0.0)), slots=100
    )
    # an empty replication list also fails later, in statistics.fmean, so the
    # message tells the sweep's own check from that
    with pytest.raises(ValueError, match="^replications must be at least 1, got 0$"):
        sweep(base, [1.1], [600.0], [1], replications=0)


def test_a_sweep_cell_of_unbounded_ratios_has_no_spread():
    # at mu=3, alpha=1/16 the designed rates are ~6e-6 a slot, so no packet
    # arrives in 100 slots and every replication's ratio is infinite; an
    # infinite value has no integer ratio, so the spread is not computed
    base = SimConfig(
        game=GameConfig.uniform(3.0, 0.0625, 2),
        policy=NoDrop(),
        input_rates=RateProfile((0.0, 0.0)),
        slots=100,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    (cell,) = sweep(base, [3.0], [3.0], [1], replications=2)
    assert cell.error is None
    assert cell.mean_poa == math.inf
    assert math.isnan(cell.std_poa)


def _ulps_from(x, steps):
    """``x`` moved one ulp up or down per step, stopping short of infinity."""
    for step in steps:
        y = math.nextafter(x, step * math.inf) if step else x
        x = y if math.isfinite(y) else x
    return x


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SPREAD_INPUTS = st.one_of(
    # any exponents, subnormals and signed zeros included
    st.lists(_FINITE, min_size=2, max_size=10),
    # a few values repeated
    st.lists(_FINITE, min_size=1, max_size=3).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=10)
    ),
    # values a few ulps apart
    st.builds(
        lambda x, walks: [_ulps_from(x, walk) for walk in walks],
        _FINITE,
        st.lists(st.lists(st.sampled_from([-1, 0, 1]), max_size=3), min_size=2, max_size=10),
    ),
    # replications of a price of anarchy, where the sweep takes its spread
    st.lists(st.floats(1.0, 1.5), min_size=2, max_size=4),
)


@settings(max_examples=500, deadline=None)
@given(_SPREAD_INPUTS)
def test_sample_stdev_is_statistics_stdev_to_the_bit(values):
    try:
        want = statistics.stdev(values)
    except OverflowError:  # a spread beyond the float range
        with pytest.raises(OverflowError):
            _sample_stdev(values)
        return
    got = _sample_stdev(values)
    assert got.hex() == want.hex(), values
    if len(set(values)) == 1:
        assert got.hex() == "0x0.0p+0"


def test_sample_stdev_is_exact_where_summed_squares_round():
    # the squared deviations of values one ulp apart near 1 are exact, but
    # their float sum and mean are not: a float formula lands ulps away
    values = [1.0, math.nextafter(1.0, 2.0), 1.0 + 4 * math.ulp(1.0), 1.0]
    mean = math.fsum(values) / len(values)
    naive = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1))
    assert _sample_stdev(values) == statistics.stdev(values) != naive

