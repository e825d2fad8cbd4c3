"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads sweep_analytic,equilibria \\
        --seeds 1-10 --trace 0 --out perfbench/out/collect.json

Run it from the repository root.  For every workload and metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", help="comma-separated; default: all")
    parser.add_argument("--seeds", default="1-10", help="a range like 1-10, or a list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    declared = spec["per_layer" if args.trace else "end_to_end"]
    summary = {}
    for workload in names:
        runs = [run_once(workload, s, spec["run_seconds"], args.trace) for s in _seeds(args.seeds)]
        per_metric = {}
        for m in declared:
            stats = summarise([r["metrics"][m["name"]]["value"] for r in runs])
            stats.update(unit=m["unit"], bound=m.get("bound"))
            per_metric[m["name"]] = stats
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(f"{workload:20s} {m['name']:40s} median {stats['median']:.6g} "
                  f"{m['unit']:6s} spread {spread} bound {m.get('bound', '-')}")
        summary[workload] = {
            "seeds": _seeds(args.seeds),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": per_metric,
        }
        print(f"{workload:20s} attempted {summary[workload]['attempted']} "
              f"failed {summary[workload]['failed']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
