"""Run one benchmark workload against this checkout's mm1game and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workload runs in its own fresh
interpreter (``worker.py``), single-threaded, one op at a time.  With
``--trace 0`` the run measures the end-to-end metrics for ``--seconds``
seconds; with ``--trace 1`` it runs a fixed list of ops untraced and then
traced, and reports the per-layer metrics and the tracing overhead.  Set-up
time is the median over several fresh interpreters.  Timings are corrected
for the machine's speed as ``worker.py`` describes; the uncorrected wall
times are printed and recorded beside them.

Every metric is printed with its unit.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``, holding the metrics ``BENCHMARK.json`` names for the mode.  The
full record, with the machine facts, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

# The whole command must end within 180 s.
BUDGET_S = 170.0
# Keeps numpy and its libraries from starting threads of their own.
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def _worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        cwd=ROOT,
        env={**os.environ, **SINGLE_THREAD_ENV},
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies the code without git."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "mm1game")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def main(argv=None) -> int:
    t_begin = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every op, for the smoke test",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mm1game", "__init__.py")):
        print(f"no mm1game sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        run_args += ["--spans", os.path.join(OUT, f"spans_{tag}.npz")]
    try:
        # set-up samples before and after the measured run, so that a slow
        # spell of a shared machine does not hit all of them
        setups = [_worker([*common, "--setup-only"], timeout=60) for _ in range(2)]
        record = _worker(run_args, timeout=BUDGET_S - 30 - (time.monotonic() - t_begin))
        setups.append(record)
        setups += [_worker([*common, "--setup-only"], timeout=15) for _ in range(2)]
    except (subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"workload {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1

    metrics = dict(record["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(s["setup_s"] for s in setups), "s")
        metrics["setup_wall_s"] = (statistics.median(s["setup_wall_s"] for s in setups), "s")
    for err in record["errors"]:
        print(err, file=sys.stderr)

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        size_name=args.size,
        setup_samples_s=[s["setup_s"] for s in setups],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        commit=_commit(),
        source_sha256=_source_sha256(),
        nproc=os.cpu_count(),
        python=platform.python_version(),
        platform=platform.platform(),
    )
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    if not args.trace:
        print(
            f"{args.workload}  op_tail_ms is p{record['tail_pct']} of "
            f"{record['ops_timed']} ops; speed factor {record['speed_factor']:.4f} "
            f"(kernel time over reference); nproc={os.cpu_count()}"
        )

    result = {}
    for m in wanted:
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            print(f"{m['name']}: measured in {unit}, declared {m['unit']}", file=sys.stderr)
            return 1
        result[m["name"]] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
