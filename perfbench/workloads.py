"""The benchmark's three workloads: seeded inputs, one op each, and its check.

A workload turns a seed into passes of op inputs, runs one op against the
public mm1game API, and checks the op's output against theory or an
independent oracle, never against per-seed golden values (the simulator's
random draw order is expected to change).

Every pass covers the same strata (service rates, windows, exponents, target
bands, loads, output formats) in a seeded order, with seeded values inside
each stratum, so that two seeds see the same mix of cheap and expensive ops.

Calls the benchmark itself makes into mm1game go through ``ctx.api`` so that
a traced run can give them spans; everything else calls mm1game directly.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

from mm1game import (
    DesignSpec,
    GameConfig,
    LinearPolicy,
    NoDrop,
    QueueMode,
    RateProfile,
    SimConfig,
    UpdateMode,
)
from mm1game.cli import EXIT_OK


@dataclass(frozen=True)
class Size:
    """How much work one op does, and how many ops the traced pass runs."""

    slots: int = 0  # simulated slots per replication (per CLI run)
    replications: int = 0
    trace_ops: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict[str, Size]
    make_pass: Callable[[random.Random, Size], list[Any]]
    op: Callable[[Any, SimpleNamespace], Any]
    check: Callable[[Any, Any, SimpleNamespace], bool]
    slots_per_op: Callable[[Size], int]


def _interleave(groups: list[list[Any]], rng: random.Random) -> list[Any]:
    """Shuffle each group and spread it evenly over the pass.

    Any stretch of the pass then holds about the same mix of groups, so a run
    that ends part-way through a pass measures the same mix as a whole one.
    """
    keyed = []
    for group in groups:
        rng.shuffle(group)
        keyed.extend(((k + rng.random()) / len(group), case) for k, case in enumerate(group))
    keyed.sort(key=lambda kc: kc[0])
    return [case for _, case in keyed]


# --- sweep_analytic -------------------------------------------------------
# Acceptance check 8's grid: m=3, alpha=2, three service rates, three windows,
# targets from 1.02 to 1.4 (one per band, so every pass has tight and loose).

SWEEP_MUS = (500.0, 5000.0, 50_000.0)
SWEEP_WINDOWS = (1, 10, 100)
SWEEP_TARGET_BANDS = ((1.02, 1.1), (1.1, 1.4))


@dataclass(frozen=True)
class SweepCase:
    base: SimConfig
    target: float


def _sweep_pass(rng: random.Random, size: Size) -> list[SweepCase]:
    groups = []
    for mu in SWEEP_MUS:
        cases = []
        groups.append(cases)
        for window in SWEEP_WINDOWS:
            for lo, hi in SWEEP_TARGET_BANDS:
                base = SimConfig(
                    game=GameConfig.uniform(mu, 2.0, 3),
                    policy=NoDrop(),
                    input_rates=RateProfile((0.0, 0.0, 0.0)),
                    slots=size.slots,
                    window=window,
                    seed=rng.randrange(2**31),
                    queue_mode=QueueMode.ANALYTIC_DELAY,
                )
                cases.append(SweepCase(base, rng.uniform(lo, hi)))
    return _interleave(groups, rng)


def _sweep_op(case: SweepCase, ctx: SimpleNamespace):
    b = case.base
    return ctx.api.sweep(
        b, [case.target], [b.game.mu], [b.window], replications=ctx.size.replications
    )


def _sweep_check(case: SweepCase, cells, ctx: SimpleNamespace) -> bool:
    if len(cells) != 1:
        return False
    cell = cells[0]
    return cell.error is None and math.isfinite(cell.mean_poa) and cell.mean_poa >= 1.0


SWEEP_ANALYTIC = Workload(
    name="sweep_analytic",
    sizes={
        "full": Size(slots=1000, replications=2, trace_ops=18),
        "tiny": Size(slots=200, replications=2, trace_ops=2),
    },
    make_pass=_sweep_pass,
    op=_sweep_op,
    check=_sweep_check,
    slots_per_op=lambda size: size.slots * size.replications,
)


# --- equilibria -----------------------------------------------------------
# Designs over homogeneous specs on a fixed ladder of epsilon, because the
# dynamics' round count grows as epsilon shrinks (a seeded jitter of a few
# percent keeps the seed meaningful without moving the cost); plus
# mixed-exponent best-response play on random ramps from a cold start.

EQ_MS = (2, 3)
EQ_ALPHAS = (0.5, 1.0, 2.0)
EQ_KEEP_PROBS = (0.9, 0.95)
EQ_EPSILONS = tuple(0.01 * 20.0 ** (k / 7) for k in range(8))  # 0.01 to 0.2
EQ_EPS_JITTER = 0.03
EQ_MIXED_PER_PASS = 16


@dataclass(frozen=True)
class MixedCase:
    config: GameConfig
    policy: LinearPolicy
    init: RateProfile


def _equilibria_pass(rng: random.Random, size: Size) -> list[Any]:
    groups: list[list[Any]] = []
    for eps in EQ_EPSILONS:
        groups.append([
            DesignSpec(
                GameConfig.uniform(rng.uniform(5.0, 50.0), alpha, m),
                eps * rng.uniform(1.0 - EQ_EPS_JITTER, 1.0 + EQ_EPS_JITTER),
                keep_prob=rng.choice(EQ_KEEP_PROBS),
            )
            for m in EQ_MS
            for alpha in EQ_ALPHAS
        ])
    mixed = []
    for k in range(EQ_MIXED_PER_PASS):
        m = EQ_MS[k % len(EQ_MS)]
        mu = rng.uniform(5.0, 50.0)
        alphas = tuple(rng.uniform(0.5, 2.0) for _ in range(m))
        r1 = rng.uniform(0.3, 0.7) * mu
        r2 = r1 + rng.uniform(0.3, 1.0) * mu
        init = RateProfile((0.05 * mu / m,) * m)  # cold start
        mixed.append(MixedCase(GameConfig(mu, alphas), LinearPolicy(r1, r2), init))
    return _interleave([*groups, mixed], rng)


def _equilibria_op(case, ctx: SimpleNamespace):
    if isinstance(case, DesignSpec):
        return ctx.api.designed_with_diagnostics(case)
    return ctx.api.run_dynamics(
        case.config,
        case.policy,
        case.init,
        mode=UpdateMode.ROUND_ROBIN,
        tol=1e-10,
        max_iter=20_000,
    )


def _equilibria_check(case, out, ctx: SimpleNamespace) -> bool:
    if isinstance(case, DesignSpec):
        # ne_matches_prediction includes the trajectory's convergence. The
        # slope-uniqueness flag in all_ok is only sufficient, so it is not asked.
        diag = out.diagnostics
        return diag.ne_matches_prediction and diag.poa_within_bound
    return out.converged and ctx.api.verify_equilibrium(
        out.final_profile, case.policy, case.config
    )


EQUILIBRIA = Workload(
    name="equilibria",
    sizes={"full": Size(trace_ops=64), "tiny": Size(trace_ops=3)},
    make_pass=_equilibria_pass,
    op=_equilibria_op,
    check=_equilibria_check,
    slots_per_op=lambda size: 0,
)


# --- cli_simulate_event ---------------------------------------------------
# In-process `mm1game simulate` in event-queue mode, at mu=20 (packets per
# slot), two users, loads 0.5 and 0.7, window 1 and 20, NoDrop and a ramp.
# Each case runs once as CSV and once as JSON, so the formats alternate.

CLI_MU = 20.0
CLI_LOADS = (0.5, 0.7)
CLI_WINDOWS = (1, 20)
CLI_POLICIES = ("none", "linear")
CLI_FORMATS = ("csv", "json")
# Relative standard deviation of the pooled M/M/1 sojourn, times sqrt(packets),
# measured over 60 seeds at 2000 slots; the check allows six of them.
CLI_SOJOURN_SPREAD = {0.5: 2.7, 0.7: 6.0}
CLI_SIGMAS = 6.0


@dataclass(frozen=True)
class CliCase:
    argv: tuple[str, ...]
    fmt: str
    out: str  # file name inside the run's scratch directory
    load: float
    slots: int
    window: int
    ramp: tuple[float, float] | None


def _cli_pass(rng: random.Random, size: Size) -> list[CliCase]:
    cases = []
    specs = [(p, load, w) for p in CLI_POLICIES for load in CLI_LOADS for w in CLI_WINDOWS]
    rng.shuffle(specs)
    for policy, load, window in specs:
        lam = load * CLI_MU
        share = rng.uniform(0.3, 0.7)
        rates = f"{lam * share!r},{lam * (1.0 - share)!r}"
        ramp = None
        policy_args = ["--policy", "none"]
        if policy == "linear":
            # the ramp spans every likely estimate, so E[keep(estimate)] = keep(offered)
            ramp = (rng.uniform(0.5, 2.0), rng.uniform(26.0, 34.0))
            policy_args = ["--policy", "linear", "--r1", repr(ramp[0]), "--r2", repr(ramp[1])]
        for fmt in CLI_FORMATS:
            out = f"simulate.{fmt}"
            argv = [
                "simulate", "--mu", repr(CLI_MU), "--alpha", "1", "--m", "2",
                "--rates", rates, "--slots", str(size.slots), "--window", str(window),
                "--seed", str(rng.randrange(2**31)), "--queue-mode", "event",
                "--format", fmt,
                *policy_args,
            ]
            cases.append(CliCase(tuple(argv), fmt, out, load, size.slots, window, ramp))
    return cases


def _cli_op(case: CliCase, ctx: SimpleNamespace) -> int:
    return ctx.api.cli_main([*case.argv, "--out", os.path.join(ctx.scratch, case.out)])


def _read_csv(path: str) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _cli_outputs(case: CliCase, scratch: str) -> tuple[list[dict[str, Any]], int]:
    """Per-user rows and the number of slot rows, from either format."""
    path = os.path.join(scratch, case.out)
    if case.fmt == "csv":
        stem, ext = os.path.splitext(path)
        return _read_csv(path), len(_read_csv(f"{stem}.slots{ext}"))
    with open(path, encoding="utf-8") as fh:
        body = json.load(fh)  # accepts bare NaN as well as null
    return body["users"], len(body["slots"]["total_arrivals"])


def _cli_check(case: CliCase, code: int, ctx: SimpleNamespace) -> bool:
    if code != EXIT_OK:
        return False
    users, slot_rows = _cli_outputs(case, ctx.scratch)
    if len(users) != 2 or slot_rows != case.slots:
        return False
    arrivals = sum(int(u["arrivals"]) for u in users)
    accepted = sum(int(u["accepted"]) for u in users)
    if accepted == 0:
        return False
    lam = case.load * CLI_MU
    if case.ramp is None:
        pooled = sum(float(u["mean_delay"]) * int(u["accepted"]) for u in users) / accepted
        want = 1.0 / (CLI_MU - lam)
        tol = CLI_SIGMAS * CLI_SOJOURN_SPREAD[case.load] / math.sqrt(accepted)
        return abs(pooled - want) <= tol * want
    r1, r2 = case.ramp
    keep = (r2 - lam) / (r2 - r1)  # closed form, independent of the library
    counted = case.slots - case.window  # the first window slots are warm-up
    se = math.sqrt(keep * (1.0 - keep) / arrivals + lam / counted / (r2 - r1) ** 2)
    return abs(accepted / arrivals - keep) <= CLI_SIGMAS * se


CLI_SIMULATE_EVENT = Workload(
    name="cli_simulate_event",
    sizes={
        "full": Size(slots=2000, trace_ops=16),
        "tiny": Size(slots=500, trace_ops=2),
    },
    make_pass=_cli_pass,
    op=_cli_op,
    check=_cli_check,
    slots_per_op=lambda size: size.slots,
)


WORKLOADS = {w.name: w for w in (SWEEP_ANALYTIC, EQUILIBRIA, CLI_SIMULATE_EVENT)}
