"""One workload in one fresh interpreter: set up, run ops in a closed loop, report.

Run by ``run.py``, which starts this file once per set-up sample and once for
the measured run.  The first thing the process does is read the clock, so the
reported set-up time covers importing ``mm1game.cli`` and generating the
workload's inputs.

Timings are corrected for the machine's speed.  On a shared host the speed
can change by a third from one spell of seconds to the next, which moves
every timing alike.  A fixed kernel, timed before every op and after set-up,
measures that; each op time is scaled to a machine on which the kernel takes
``REFERENCE_KERNEL_S``, using the mean of the kernel runs just before and
just after the op.  The uncorrected wall times are reported beside them,
with a ``_wall`` suffix.

Modes:
  --setup-only   set up, report the set-up time, exit.
  (default)      set up, then with --trace 0 run ops for --seconds seconds;
                 with --trace 1 run a fixed list of ops, each once untraced
                 and once traced, so call counts repeat exactly for a seed.

The last line of standard output is one JSON record.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Inputs for this many passes are generated up front; a longer run cycles them.
PASSES = 40
# The reported tail percentile: the first of these with at least ten ops beyond
# it.  A full-size run has well over a hundred ops, so it reports p90.
TAIL_PCTS = (90, 75, 50)
# Speed correction: the kernel's time on the reference machine, and how many
# kernel runs after set-up give that process's speed.
REFERENCE_KERNEL_S = 0.003
SETUP_KERNEL_RUNS = 15


def kernel() -> float:
    """Time a fixed piece of interpreter-bound work with small numpy calls.

    It looks like the inner loops of the workloads and calls no mm1game code,
    so a change to the program cannot move it.
    """
    t0 = perf_counter()
    rng = np.random.Generator(np.random.PCG64(0))
    lam = np.array([3.0, 4.0, 5.0])
    total = 0
    for i in range(200):
        total += int(rng.poisson(lam).sum()) + i % 7
    return perf_counter() - t0


def import_mm1game():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import mm1game
    import mm1game.cli  # noqa: F401

    where = os.path.realpath(mm1game.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"mm1game was imported from {where}, not from {src}")
    return mm1game


def make_cases(workload, seed: int, size) -> list:
    rng = random.Random(seed)
    cases = []
    for _ in range(PASSES):
        cases.extend(workload.make_pass(rng, size))
    return cases


def run_op(workload, case, ctx) -> tuple[float, str | None]:
    """One op: its wall time, and why it failed (None if it passed its check).

    The check runs after the clock stops, so an oracle costs no op time.
    """
    t0 = perf_counter()
    try:
        out = workload.op(case, ctx)
    except Exception:  # a failed op is counted and reported, the run goes on
        return perf_counter() - t0, traceback.format_exc(limit=3)
    elapsed = perf_counter() - t0
    try:
        if workload.check(case, out, ctx):
            return elapsed, None
        return elapsed, f"check failed for {case!r}"
    except Exception:
        return elapsed, traceback.format_exc(limit=3)


def run_ops(workload, cases, ctx, deadline=None) -> dict:
    """Run ops in order: the whole list, or cycling it until ``deadline``.

    The speed kernel runs before each op and after the last, outside op time.
    """
    times: list[float] = []
    kernel_s: list[float] = []
    errors: list[str] = []
    k = 0
    while (k < len(cases)) if deadline is None else (k == 0 or perf_counter() < deadline):
        kernel_s.append(kernel())
        elapsed, error = run_op(workload, cases[k % len(cases)], ctx)
        times.append(elapsed)
        if error is not None:
            errors.append(f"op {k}: {error}")
        k += 1
    kernel_s.append(kernel())
    return {
        "times": times,
        "kernel_s": kernel_s,
        "attempted": k,
        "failed": len(errors),
        "errors": errors[:5],
    }


def run_paired(workload, cases, ctx, tracer) -> dict:
    """Run each op untraced and traced, alternating which goes first.

    Pairing each op with itself keeps slow spells of a shared machine out of
    the tracing overhead.  The wraps are in place only while a traced op runs.
    """
    plain_api = ctx.api
    spent = {False: 0.0, True: 0.0}  # op time, by whether it was traced
    errors: list[str] = []
    for k, case in enumerate(cases):
        tracer.op_id = k
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            restore = None
            if traced:
                ctx.api, restore = tracer.install()
            try:
                elapsed, error = run_op(workload, case, ctx)
            finally:
                if restore is not None:
                    restore()
                ctx.api = plain_api
            spent[traced] += elapsed
            if error is not None:
                errors.append(f"op {k} (traced={traced}): {error}")
    return {
        "attempted": 2 * len(cases),
        "failed": len(errors),
        "errors": errors[:5],
        "untraced_s": spent[False],
        "traced_s": spent[True],
    }


def tail_percentile(n: int) -> int:
    for pct in TAIL_PCTS:
        if n * (100 - pct) / 100 >= 10:
            return pct
    return 100


def speed_scales(kernel_s: list[float]) -> list[float]:
    """Per op, the reference kernel time over the mean of the runs around it.

    The machine's speed can change within a second, so only the kernel runs
    just before and just after an op describe the speed it ran at.
    """
    return [2.0 * REFERENCE_KERNEL_S / (a + b) for a, b in zip(kernel_s, kernel_s[1:])]


def _timings(times: list[float], done: int, slots_per_op: int, suffix: str) -> dict:
    times = sorted(times)
    pct = tail_percentile(len(times))
    tail = times[-1] if pct == 100 else statistics.quantiles(times, n=100)[pct - 1]
    busy = sum(times)
    out = {
        f"ops_per_s{suffix}": (done / busy, "1/s"),
        f"op_p50_ms{suffix}": (1e3 * statistics.median(times), "ms"),
        f"op_tail_ms{suffix}": (1e3 * tail, "ms"),
    }
    if slots_per_op:
        out[f"slots_per_s{suffix}"] = (done * slots_per_op / busy, "1/s")
    return out


def end_to_end(workload, size, res: dict) -> dict:
    done = res["attempted"] - res["failed"]
    slots = workload.slots_per_op(size)
    scales = speed_scales(res["kernel_s"])
    corrected = [t * s for t, s in zip(res["times"], scales)]
    metrics = {
        **_timings(corrected, done, slots, ""),
        **_timings(res["times"], done, slots, "_wall"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_frac": (res["failed"] / res["attempted"], "ratio"),
    }
    return {
        "metrics": metrics,
        "tail_pct": tail_percentile(len(res["times"])),
        "ops_timed": len(res["times"]),
        "op_busy_s": sum(res["times"]),
        "speed_factor": statistics.median(res["kernel_s"]) / REFERENCE_KERNEL_S,
        "op_times_s": res["times"],
        "kernel_s": res["kernel_s"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = parser.parse_args(argv)

    mm1game = import_mm1game()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    size = workload.sizes[args.size]
    cases = make_cases(workload, args.seed, size)
    setup_s = perf_counter() - T_START
    setup_kernel_s = statistics.median(kernel() for _ in range(SETUP_KERNEL_RUNS))
    record = {
        "setup_s": setup_s * REFERENCE_KERNEL_S / setup_kernel_s,
        "setup_wall_s": setup_s,
        "mm1game_version": mm1game.__version__,
        "numpy_version": np.__version__,
    }
    if args.setup_only:
        print(json.dumps(record))
        return 0

    import tracing

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, "out"))
    try:
        ctx = SimpleNamespace(api=tracing.plain_api(), size=size, scratch=scratch)
        if args.trace == 0:
            res = run_ops(workload, cases, ctx, deadline=perf_counter() + args.seconds)
            record.update(end_to_end(workload, size, res))
        else:
            tracer = tracing.Tracer()
            res = run_paired(workload, cases[: size.trace_ops], ctx, tracer)
            record["metrics"] = tracing.layer_metrics(tracer, res["untraced_s"], res["traced_s"])
            if args.spans:
                tracer.save(args.spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record.update(
        attempted=res["attempted"],
        failed=res["failed"],
        errors=res["errors"],
        size={
            "slots_per_op": workload.slots_per_op(size),
            "slots_per_run": res["attempted"] * workload.slots_per_op(size),
            "replications": size.replications,
            "ops": res["attempted"],
            "trace_ops": size.trace_ops,
        },
    )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
