"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest -q perfbench/check_smoke.py

The file name keeps it out of the tier-1 suite's test discovery.  It checks
that every metric ``BENCHMARK.json`` names prints with its unit, that the
checks catch a planted wrong output and count it in ``failed_frac``, that
traced call counts repeat at a fixed seed, and that the command fails where
there is no mm1game to measure.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_every_named_metric_prints_with_its_unit(workload, trace):
    printed, result = result_of(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    extra = {} if trace else {"failed_frac": "ratio", "slots_per_s": "1/s"}
    if workload == "equilibria":
        extra.pop("slots_per_s", None)
    for name, unit in {**declared, **extra}.items():
        assert any(
            line.startswith(f"{workload}  {name} = ") and line.endswith(f" {unit}")
            for line in printed
        ), (name, unit)


def test_layers_stay_on_their_own_workloads():
    calls = {}
    for workload in WORKLOAD_NAMES:
        _, result = result_of(run_bench(workload, 1))
        calls[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert calls["sweep_analytic"]["dynamics.best_response.calls"] == 0
    assert calls["cli_simulate_event"]["dynamics.best_response.calls"] == 0
    assert calls["equilibria"]["simulator.run.calls"] == 0
    assert calls["equilibria"]["dynamics.best_response.calls"] > 0
    assert calls["sweep_analytic"]["simulator.run.calls"] > 0
    assert calls["cli_simulate_event"]["cli.bytes_written"] > 0


def test_traced_counts_repeat_at_a_fixed_seed():
    counted = []
    for _ in range(2):
        _, result = result_of(run_bench("equilibria", 1, seed=3))
        counted.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counted[0] == counted[1]
    assert counted[0]["dynamics.run_dynamics.rounds"] > 0


def _halve(fn):
    return lambda *args, **kwargs: 0.5 * fn(*args, **kwargs)


def _drop_last_slot(fn):
    return lambda sim: fn(dataclasses.replace(sim, slots=sim.slots - 1))


# A wrong output planted in the library, one per workload: (module, name, fault)
PLANTS = {
    "sweep_analytic": ("mm1game.simulator", "empirical_poa", _halve),
    "equilibria": ("mm1game.dynamics", "best_response", _halve),
    "cli_simulate_event": ("mm1game.cli", "run_simulation", _drop_last_slot),
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_a_planted_wrong_output_shows_in_failed_frac(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(HERE)
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    import importlib

    import tracing
    import worker
    from workloads import WORKLOADS

    spec = WORKLOADS[workload]
    size = spec.sizes["tiny"]
    cases = worker.make_cases(spec, 11, size)[:3]
    ctx = SimpleNamespace(api=tracing.plain_api(), size=size, scratch=str(tmp_path))

    def failed_frac():
        res = worker.run_ops(spec, cases, ctx)
        return worker.end_to_end(spec, size, res)["metrics"]["failed_frac"][0]

    assert failed_frac() == 0.0
    module_name, attr, fault = PLANTS[workload]
    module = importlib.import_module(module_name)
    monkeypatch.setattr(module, attr, fault(getattr(module, attr)))
    assert failed_frac() > 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("equilibria", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
