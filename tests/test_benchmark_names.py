"""The names the benchmark wraps in mm1game exist, and the library calls them late.

``perfbench/tracing.py`` replaces module attributes by name when it traces a
run; a renamed or deleted function would only fail there, under ``--trace 1``.
A wrap also counts only while the library looks each name up in its module's
namespace at call time: a name bound at import (a default argument, a local
alias, a closure) keeps calling the original, and the traced run would show
that layer as never called.  So every wrapped name is replaced here by a
counting pass-through, and the public calls the workloads make must reach it
with their outputs unchanged.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from mm1game import (
    DesignSpec,
    GameConfig,
    LinearPolicy,
    NoDrop,
    QueueMode,
    RateProfile,
    SimConfig,
    StepPolicy,
    UpdateMode,
    WelfareKind,
    cli,
)
from mm1game.analysis import welfare
from mm1game.dynamics import run_dynamics, verify_equilibrium
from mm1game.mechanism import designed_with_diagnostics
from mm1game.simulator import sweep

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _tracing_module()
_WRAPPED = [(module, attr) for module, attr, _, _ in _tracing.LIBRARY_WRAPS]
_NAMES = _WRAPPED + [(module, attr) for _, module, attr, _, _ in _tracing.BENCHMARK_CALLS]


@pytest.mark.parametrize("module,attr", _NAMES, ids=[f"{m}.{a}" for m, a in _NAMES])
def test_every_wrapped_name_is_a_callable_attribute(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


# ------------------------------------------------------- late binding
MIXED = (GameConfig(20.0, (0.7, 1.9)), LinearPolicy(10.0, 25.0), RateProfile((0.5, 0.5)))
STEP_GAME, STEP = GameConfig.uniform(6.0, 2.0, 2), StepPolicy(4.0)


def _mixed_play():
    config, policy, init = MIXED
    return run_dynamics(config, policy, init, mode=UpdateMode.ROUND_ROBIN, tol=1e-10)


def _one_cell_sweep():
    base = SimConfig(
        game=GameConfig.uniform(500.0, 2.0, 3),
        policy=NoDrop(),
        input_rates=RateProfile((0.0, 0.0, 0.0)),
        slots=200,
        window=10,
        seed=5,
        queue_mode=QueueMode.ANALYTIC_DELAY,
    )
    return sweep(base, [1.1], [500.0], [10], replications=2)


def _simulate(fmt, tmp_path):
    out = tmp_path / f"simulate.{fmt}"
    argv = [
        "simulate", "--mu", "20", "--alpha", "1", "--m", "2", "--rates", "6.5,7.5",
        "--slots", "200", "--window", "20", "--seed", "8", "--queue-mode", "event",
        "--policy", "linear", "--r1", "1.5", "--r2", "30", "--format", fmt, "--out", str(out),
    ]
    code = cli.main(argv)
    return code, sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())


# each public call, and the wrapped names it must reach
CALLS = {
    "run_dynamics": (lambda tmp: _mixed_play(), {("mm1game.dynamics", "best_response")}),
    "designed_with_diagnostics": (
        lambda tmp: designed_with_diagnostics(
            DesignSpec(GameConfig.uniform(20.0, 2.0, 2), 0.05, keep_prob=0.9)
        ),
        {
            ("mm1game.dynamics", "best_response"),
            ("mm1game.mechanism", "design_linear"),
            ("mm1game.mechanism", "validate_design"),
            ("mm1game.mechanism", "target_effective_rate"),
            ("mm1game.mechanism", "run_dynamics"),
            ("mm1game.mechanism", "poa_of_equilibrium"),
        },
    ),
    "sweep": (
        lambda tmp: _one_cell_sweep(),
        {
            ("mm1game.simulator", "run"),
            ("mm1game.simulator", "design_linear"),
            ("mm1game.simulator", "empirical_poa"),
            ("mm1game.simulator", "keep_probability"),
        },
    ),
    "cli_simulate_csv": (
        lambda tmp: _simulate("csv", tmp),
        {("mm1game.cli", "run_simulation"), ("mm1game.cli", "write_csv")},
    ),
    "cli_simulate_json": (
        lambda tmp: _simulate("json", tmp),
        {("mm1game.cli", "run_simulation"), ("mm1game.cli", "write_json")},
    ),
    # the names the workloads' ops reach nowhere else
    "welfare": (
        lambda tmp: welfare(RateProfile((2.0, 3.0)), STEP, STEP_GAME, WelfareKind.SUM_UTILITY),
        {("mm1game.analysis", "utility")},
    ),
    "potential_series": (
        lambda tmp: _mixed_play().potential_series,
        {("mm1game.dynamics", "keep_probability")},
    ),
    "verify_equilibrium_on_a_step": (
        lambda tmp: verify_equilibrium(RateProfile((1.0, 3.0)), STEP, STEP_GAME),
        {("mm1game.dynamics", "keep_probability")},
    ),
}


def _counting(calls, name, original):
    def passthrough(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return passthrough


def test_the_calls_cover_every_wrapped_name():
    assert set().union(*(names for _, names in CALLS.values())) == set(_WRAPPED)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_a_public_call_reaches_its_wrapped_names_late_with_its_output_unchanged(
    call, tmp_path
):
    run, names = CALLS[call]
    (tmp_path / "plain").mkdir()
    (tmp_path / "counted").mkdir()
    want = run(tmp_path / "plain")
    calls = Counter()
    with pytest.MonkeyPatch.context() as patch:
        for module_name, attr in _WRAPPED:
            module = importlib.import_module(module_name)
            patch.setattr(
                module, attr, _counting(calls, (module_name, attr), getattr(module, attr))
            )
        got = run(tmp_path / "counted")
    assert got == want
    assert {name for name in names if not calls[name]} == set(), dict(calls)
