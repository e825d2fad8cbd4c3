"""Command-line front end: analyze, design, dynamics, field, simulate, sweep.

Options come from a YAML config file, overridable by flags of the same
names.  Every command is deterministic given its effective configuration
(seeds included) and writes CSV or JSON with an embedded schema version.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence, infeasible design, overload), 4 output I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Any

import yaml

from .analysis import WelfareKind, ne_closed_form, no_drop_report, welfare
from .dynamics import UpdateMode, response_field, run_dynamics, triangular_grid
from .mechanism import (
    DesignInfeasibleError,
    DesignSpec,
    designed_with_diagnostics,
    step_policy,
)
from .model import (
    DropPolicy,
    GameConfig,
    LinearPolicy,
    NoDrop,
    RateProfile,
    StepPolicy,
    UnstableQueueError,
    UnsupportedGameError,
)
from .simulator import (
    OverloadError,
    QueueMode,
    SimConfig,
    run as run_simulation,
    sweep as run_sweep,
)

SCHEMA_VERSION = "2"
OUT_DIR_ENV = "MM1GAME_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_COMMANDS = ("analyze", "design", "dynamics", "field", "simulate", "sweep")

_SECTION_KEYS = {
    "game": {"mu", "alpha", "m"},
    "policy": {"kind", "r1", "r2", "threshold"},
    "design": {"epsilon", "keep_prob", "welfare", "target_effective_total"},
    "dynamics": {"init", "tol", "max_iter", "mode"},
    "field": {"points"},
    "simulate": {"rates", "slots", "window", "seed", "queue_mode", "queue_cap"},
    "sweep": {
        "desired_poas",
        "mus",
        "windows",
        "replications",
        "slots",
        "window",
        "seed",
        "queue_mode",
        "keep_prob",
        "welfare",
    },
}
_TOP_KEYS = {"command", "out", "format"} | set(_SECTION_KEYS)


class ConfigError(ValueError):
    """The effective configuration is invalid; the message names the field."""


@dataclass
class ExperimentConfig:
    """Validated, merged view of the config file and command-line flags."""

    command: str
    raw: dict[str, Any]
    out: str
    fmt: str

    def section(self, name: str) -> dict[str, Any]:
        return self.raw.get(name) or {}


def _fail(message: str) -> ConfigError:
    return ConfigError(message)


def _as_float(value: Any, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise _fail(f"{field}: expected a number, got {value!r}") from None


def _as_int(value: Any, field: str) -> int:
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise _fail(f"{field}: expected an integer, got {value!r}") from None


def _as_float_list(value: Any, field: str) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip() != ""]
    if not isinstance(value, (list, tuple)) or not value:
        raise _fail(f"{field}: expected a non-empty list of numbers, got {value!r}")
    return [_as_float(v, field) for v in value]


def _check_keys(mapping: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise _fail(
            f"{where}: unknown key(s) {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}"
        )


def load_config(path: str | None, command: str, overrides: dict[str, Any]) -> ExperimentConfig:
    """Read the YAML file (if any), apply flag overrides, and validate keys."""
    raw: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except OSError as exc:
            raise _fail(f"config: cannot read {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise _fail(f"config: {path} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise _fail(f"config: {path} must hold a mapping at the top level")
        raw = loaded
    _check_keys(raw, _TOP_KEYS, "config")
    for name, keys in _SECTION_KEYS.items():
        section = raw.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise _fail(f"config.{name}: expected a mapping")
        _check_keys(section, keys, f"config.{name}")
    file_command = raw.get("command")
    if file_command is not None and file_command != command:
        raise _fail(
            f"command: config file says {file_command!r} but {command!r} was requested"
        )

    for dotted, value in overrides.items():
        if value is None:
            continue
        section_name, _, key = dotted.partition(".")
        if key:
            raw.setdefault(section_name, {})
            raw[section_name][key] = value
        else:
            raw[section_name] = value

    out = raw.get("out")
    fmt = raw.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise _fail(f"format: must be 'csv' or 'json', got {fmt!r}")
    if out is None:
        out = os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{command}.{fmt}")
    return ExperimentConfig(command=command, raw=raw, out=str(out), fmt=fmt)


def _game_config(cfg: ExperimentConfig) -> GameConfig:
    section = cfg.section("game")
    if "mu" not in section:
        raise _fail("game.mu: required")
    mu = _as_float(section["mu"], "game.mu")
    alpha = section.get("alpha")
    if alpha is None:
        raise _fail("game.alpha: required")
    if isinstance(alpha, (list, tuple)) or (isinstance(alpha, str) and "," in alpha):
        alphas = _as_float_list(alpha, "game.alpha")
        if "m" in section and _as_int(section["m"], "game.m") != len(alphas):
            raise _fail("game.m: disagrees with the length of game.alpha")
    else:
        m = _as_int(section.get("m", 1), "game.m")
        alphas = [_as_float(alpha, "game.alpha")] * m
    try:
        return GameConfig(mu, tuple(alphas))
    except ValueError as exc:
        raise _fail(f"game: {exc}") from exc


def _welfare_kind(value: Any, field: str) -> WelfareKind:
    names = {
        "sum": WelfareKind.SUM_UTILITY,
        "sum_log": WelfareKind.SUM_LOG_UTILITY,
    }
    if value not in names:
        raise _fail(f"{field}: must be one of {sorted(names)}, got {value!r}")
    return names[value]


def _design_spec(cfg: ExperimentConfig, game: GameConfig) -> DesignSpec:
    section = cfg.section("design")
    if "epsilon" not in section:
        raise _fail("design.epsilon: required")
    target = section.get("target_effective_total")
    try:
        return DesignSpec(
            config=game,
            epsilon=_as_float(section["epsilon"], "design.epsilon"),
            keep_prob=_as_float(section.get("keep_prob", 0.9), "design.keep_prob"),
            welfare_kind=_welfare_kind(section.get("welfare", "sum_log"), "design.welfare"),
            target_effective_total=(
                None if target is None else _as_float(target, "design.target_effective_total")
            ),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _fail(f"design: {exc}") from exc


def _policy(cfg: ExperimentConfig, game: GameConfig) -> DropPolicy:
    section = cfg.section("policy")
    kind = section.get("kind", "none")
    try:
        if kind == "none":
            return NoDrop()
        if kind == "step":
            if "threshold" in section:
                return StepPolicy(_as_float(section["threshold"], "policy.threshold"))
            return step_policy(game)
        if kind == "linear":
            if "r1" not in section or "r2" not in section:
                raise _fail("policy.r1 and policy.r2: required for a linear policy")
            return LinearPolicy(
                _as_float(section["r1"], "policy.r1"),
                _as_float(section["r2"], "policy.r2"),
            )
        if kind == "designed":
            from .mechanism import design_linear

            return design_linear(_design_spec(cfg, game)).policy
    except ConfigError:
        raise
    except (ValueError, UnsupportedGameError) as exc:
        raise _fail(f"policy: {exc}") from exc
    raise _fail(
        f"policy.kind: must be one of none, step, linear, designed; got {kind!r}"
    )


def _fmt_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    if value is None:
        return ""
    return str(value)


def _fmt_rates(rates: tuple[float, ...]) -> str:
    return ";".join(format(r, ".12g") for r in rates)


def write_csv(path: str, header: list[str], rows: list[list[Any]]) -> None:
    lines = [",".join(["schema_version"] + header)]
    for row in rows:
        lines.append(",".join([SCHEMA_VERSION] + [_fmt_value(v) for v in row]))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _finite_or_null(value: Any) -> Any:
    """Copy of a JSON payload with every NaN or infinite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path: str, payload: dict[str, Any]) -> None:
    """Write strict JSON: non-finite floats (an unbounded ratio, the log of a
    zero utility, a failed sweep cell) are written as null."""
    body = {"schema_version": SCHEMA_VERSION, **payload}
    try:
        text = json.dumps(body, indent=2, allow_nan=False)
    except ValueError:  # a non-finite float somewhere; only then walk the payload
        text = json.dumps(_finite_or_null(body), indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _emit(cfg: ExperimentConfig, header: list[str], rows: list[list[Any]], name: str) -> None:
    if cfg.fmt == "csv":
        write_csv(cfg.out, header, rows)
    else:
        records = [
            {key: value for key, value in zip(header, row)} for row in rows
        ]
        write_json(cfg.out, {"command": cfg.command, name: records})


def _cmd_analyze(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    ne = ne_closed_form(game)
    header = [
        "welfare",
        "mu",
        "m",
        "alpha",
        "ne_rates",
        "ne_welfare",
        "opt_rates",
        "opt_welfare",
        "poa",
        "pos",
    ]
    rows: list[list[Any]] = []
    for kind in (WelfareKind.SUM_UTILITY, WelfareKind.SUM_LOG_UTILITY):
        alpha_text = (
            _fmt_value(game.alphas[0]) if game.homogeneous else _fmt_rates(game.alphas)
        )
        try:
            report = no_drop_report(game, kind)
            rows.append(
                [
                    kind.value,
                    game.mu,
                    game.m,
                    alpha_text,
                    _fmt_rates(report.ne_profile.rates),
                    report.ne_value,
                    _fmt_rates(report.optimum_profile.rates),
                    report.optimum_value,
                    report.poa,
                    report.pos,
                ]
            )
        except UnsupportedGameError:
            rows.append(
                [
                    kind.value,
                    game.mu,
                    game.m,
                    alpha_text,
                    _fmt_rates(ne.rates),
                    welfare(ne, NoDrop(), game, kind),
                    "unsupported",
                    "unsupported",
                    "unsupported",
                    "unsupported",
                ]
            )
    _emit(cfg, header, rows, "reports")
    return EXIT_OK


def _cmd_design(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    spec = _design_spec(cfg, game)
    design = designed_with_diagnostics(spec)
    diag = design.diagnostics
    assert diag is not None
    header = [
        "mu",
        "m",
        "alpha",
        "epsilon",
        "keep_prob",
        "welfare",
        "target_effective_total",
        "target_raw_total",
        "r1",
        "r2",
        "slope",
        "intercept",
        "predicted_ne",
        "predicted_poa",
        "realized_ne",
        "realized_poa",
        "check_slope_uniqueness",
        "check_r1_below_mu",
        "check_ne_matches",
        "check_poa_bound",
    ]
    rows = [
        [
            game.mu,
            game.m,
            game.alpha,
            spec.epsilon,
            spec.keep_prob,
            spec.welfare_kind.value,
            design.target_effective_total,
            design.target_raw_total,
            design.policy.r1,
            design.policy.r2,
            design.policy.slope,
            design.policy.intercept,
            _fmt_rates(design.predicted_ne.rates),
            design.predicted_poa,
            _fmt_rates(diag.realized_ne.rates),
            diag.realized_poa,
            diag.slope_exceeds_uniqueness_bound,
            diag.r1_below_service_rate,
            diag.ne_matches_prediction,
            diag.poa_within_bound,
        ]
    ]
    _emit(cfg, header, rows, "design")
    return EXIT_OK


def _dynamics_inputs(cfg: ExperimentConfig, game: GameConfig) -> tuple[RateProfile, float, int, UpdateMode]:
    section = cfg.section("dynamics")
    init_raw = section.get("init")
    if init_raw is None:
        init = RateProfile((0.05 * game.mu / game.m,) * game.m)
    else:
        values = _as_float_list(init_raw, "dynamics.init")
        if len(values) != game.m:
            raise _fail(f"dynamics.init: expected {game.m} rates, got {len(values)}")
        try:
            init = RateProfile(tuple(values))
        except ValueError as exc:
            raise _fail(f"dynamics.init: {exc}") from exc
    tol = _as_float(section.get("tol", 1e-8), "dynamics.tol")
    max_iter = _as_int(section.get("max_iter", 5000), "dynamics.max_iter")
    mode_raw = section.get("mode", "round_robin")
    modes = {m.value: m for m in UpdateMode}
    if mode_raw not in modes:
        raise _fail(f"dynamics.mode: must be one of {sorted(modes)}, got {mode_raw!r}")
    return init, tol, max_iter, modes[mode_raw]


def _cmd_dynamics(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    policy = _policy(cfg, game)
    init, tol, max_iter, mode = _dynamics_inputs(cfg, game)
    trajectory = run_dynamics(game, policy, init, mode=mode, tol=tol, max_iter=max_iter)
    header = ["iteration"] + [f"rate_{i}" for i in range(game.m)] + ["potential"]
    rows = [
        [k, *profile.rates, pot]
        for k, (profile, pot) in enumerate(
            zip(trajectory.iterates, trajectory.potential_series)
        )
    ]
    _emit(cfg, header, rows, "trajectory")
    if not trajectory.converged:
        print(
            f"dynamics did not converge within {max_iter} rounds; "
            f"trajectory written to {cfg.out}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_field(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    if game.m != 2:
        raise _fail("field: requires a two-user game")
    policy = _policy(cfg, game)
    points = _as_int(cfg.section("field").get("points", 20), "field.points")
    if points < 2:
        raise _fail(f"field.points: must be at least 2, got {points}")
    grid = triangular_grid(game, policy, points)
    # mark the equilibrium: follow the dynamics and add its endpoint to the grid
    init = RateProfile((0.05 * game.mu / game.m,) * game.m)
    trajectory = run_dynamics(game, policy, init, tol=1e-10, max_iter=5000)
    if trajectory.converged:
        grid.append(trajectory.final_profile)
    vectors = response_field(game, policy, grid)
    header = ["rate_0", "rate_1", "step_0", "step_1"]
    rows = [[p.rates[0], p.rates[1], v[0], v[1]] for p, v in vectors]
    _emit(cfg, header, rows, "field")
    return EXIT_OK


def _sim_config(cfg: ExperimentConfig, game: GameConfig, policy: DropPolicy) -> SimConfig:
    section = cfg.section("simulate")
    rates_raw = section.get("rates")
    if rates_raw is None:
        raise _fail("simulate.rates: required (a list of offered rates, or 'designed')")
    if rates_raw == "designed":
        from .mechanism import design_linear

        design = design_linear(_design_spec(cfg, game))
        rates = design.predicted_ne
    else:
        values = _as_float_list(rates_raw, "simulate.rates")
        if len(values) != game.m:
            raise _fail(f"simulate.rates: expected {game.m} rates, got {len(values)}")
        rates = RateProfile(tuple(values))
    modes = {q.value: q for q in QueueMode}
    mode_raw = section.get("queue_mode", QueueMode.EVENT_QUEUE.value)
    if mode_raw not in modes:
        raise _fail(
            f"simulate.queue_mode: must be one of {sorted(modes)}, got {mode_raw!r}"
        )
    try:
        return SimConfig(
            game=game,
            policy=policy,
            input_rates=rates,
            slots=_as_int(section.get("slots", 100_000), "simulate.slots"),
            window=_as_int(section.get("window", 1), "simulate.window"),
            seed=_as_int(section.get("seed", 0), "simulate.seed"),
            queue_mode=modes[mode_raw],
            queue_cap=_as_int(section.get("queue_cap", 100_000), "simulate.queue_cap"),
        )
    except ValueError as exc:
        raise _fail(f"simulate: {exc}") from exc


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    policy = _policy(cfg, game)
    sim = _sim_config(cfg, game, policy)
    report = run_simulation(sim)
    header = [
        "user",
        "input_rate",
        "arrivals",
        "accepted",
        "goodput",
        "mean_delay",
        "power",
        "sum_welfare",
        "log_welfare",
        "empirical_poa",
    ]
    rows = [
        [
            i,
            report.input_rates[i],
            report.arrivals[i],
            report.accepted[i],
            report.goodput[i],
            report.mean_delay[i],
            report.power[i],
            report.sum_welfare,
            report.log_welfare,
            report.empirical_poa,
        ]
        for i in range(game.m)
    ]
    if cfg.fmt == "csv":
        write_csv(cfg.out, header, rows)
        stem, ext = os.path.splitext(cfg.out)
        slots_path = f"{stem}.slots{ext}"
        slot_header = ["slot", "total_arrivals", "estimated_rate", "drop_prob"]
        slot_rows = [
            [t, report.slot_arrivals[t], report.estimated_rates[t], report.drop_probs[t]]
            for t in range(report.slots)
        ]
        write_csv(slots_path, slot_header, slot_rows)
    else:
        write_json(
            cfg.out,
            {
                "command": "simulate",
                "users": [dict(zip(header, row)) for row in rows],
                "slots": {
                    "total_arrivals": list(report.slot_arrivals),
                    "estimated_rate": list(report.estimated_rates),
                    "drop_prob": list(report.drop_probs),
                },
                "warmup_slots": report.warmup_slots,
            },
        )
    return EXIT_OK


def _cmd_sweep(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    section = cfg.section("sweep")
    if "desired_poas" not in section:
        raise _fail("sweep.desired_poas: required")
    desired = _as_float_list(section["desired_poas"], "sweep.desired_poas")
    mus = _as_float_list(section.get("mus", [game.mu]), "sweep.mus")
    windows = [
        _as_int(w, "sweep.windows")
        for w in _as_float_list(section.get("windows", [1]), "sweep.windows")
    ]
    replications = _as_int(section.get("replications", 10), "sweep.replications")
    modes = {q.value: q for q in QueueMode}
    mode_raw = section.get("queue_mode", QueueMode.ANALYTIC_DELAY.value)
    if mode_raw not in modes:
        raise _fail(f"sweep.queue_mode: must be one of {sorted(modes)}, got {mode_raw!r}")
    try:
        base = SimConfig(
            game=game,
            policy=NoDrop(),
            input_rates=RateProfile((0.0,) * game.m),
            slots=_as_int(section.get("slots", 10_000), "sweep.slots"),
            window=_as_int(section.get("window", 1), "sweep.window"),
            seed=_as_int(section.get("seed", 0), "sweep.seed"),
            queue_mode=modes[mode_raw],
        )
        cells = run_sweep(
            base,
            desired,
            mus,
            windows,
            replications,
            welfare_kind=_welfare_kind(section.get("welfare", "sum_log"), "sweep.welfare"),
            keep_prob=_as_float(section.get("keep_prob", 0.9), "sweep.keep_prob"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise _fail(f"sweep: {exc}") from exc
    header = [
        "desired_poa",
        "mu",
        "window",
        "replications",
        "mean_poa",
        "std_poa",
        "error",
    ]
    rows = [
        [c.desired_poa, c.mu, c.window, c.replications, c.mean_poa, c.std_poa, c.error]
        for c in cells
    ]
    _emit(cfg, header, rows, "cells")
    return EXIT_OK


_DISPATCH = {
    "analyze": _cmd_analyze,
    "design": _cmd_design,
    "dynamics": _cmd_dynamics,
    "field": _cmd_field,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mm1game",
        description="Selfish rate control over a shared queue: closed forms, "
        "policy design, dynamics, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="YAML configuration file")
        p.add_argument("--out", help="output path (default: $MM1GAME_OUT_DIR/<command>.<format>)")
        p.add_argument("--format", choices=["csv", "json"], help="output format")
        p.add_argument("--mu", type=float, help="service rate")
        p.add_argument("--alpha", help="shared exponent, or comma-separated per-user list")
        p.add_argument("--m", type=int, help="number of users")
        p.add_argument("--seed", type=int, help="simulation seed")
        if name in ("design", "simulate", "sweep", "dynamics", "field"):
            p.add_argument("--epsilon", type=float, help="allowed efficiency loss")
            p.add_argument("--keep-prob", type=float, dest="keep_prob")
            p.add_argument("--welfare", choices=["sum", "sum_log"])
            p.add_argument(
                "--target-effective-total", type=float, dest="target_effective_total"
            )
        if name in ("dynamics", "field", "simulate"):
            p.add_argument("--policy", choices=["none", "step", "linear", "designed"])
            p.add_argument("--r1", type=float)
            p.add_argument("--r2", type=float)
            p.add_argument("--threshold", type=float)
        if name == "dynamics":
            p.add_argument("--init", help="comma-separated starting rates")
            p.add_argument("--tol", type=float)
            p.add_argument("--max-iter", type=int, dest="max_iter")
            p.add_argument("--mode", choices=[m.value for m in UpdateMode])
        if name == "field":
            p.add_argument("--points", type=int)
        if name == "simulate":
            p.add_argument("--rates", help="comma-separated offered rates, or 'designed'")
            p.add_argument("--slots", type=int)
            p.add_argument("--window", type=int)
            p.add_argument("--queue-mode", choices=[q.value for q in QueueMode], dest="queue_mode")
            p.add_argument("--queue-cap", type=int, dest="queue_cap")
        if name == "sweep":
            p.add_argument("--desired-poas", dest="desired_poas")
            p.add_argument("--mus")
            p.add_argument("--windows")
            p.add_argument("--replications", type=int)
            p.add_argument("--slots", type=int)
            p.add_argument("--window", type=int)
            p.add_argument("--queue-mode", choices=[q.value for q in QueueMode], dest="queue_mode")
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, Any]:
    command = args.command
    mapping = {
        "mu": "game.mu",
        "alpha": "game.alpha",
        "m": "game.m",
        "epsilon": "design.epsilon",
        "keep_prob": "design.keep_prob" if command != "sweep" else "sweep.keep_prob",
        "welfare": "design.welfare" if command != "sweep" else "sweep.welfare",
        "target_effective_total": "design.target_effective_total",
        "policy": "policy.kind",
        "r1": "policy.r1",
        "r2": "policy.r2",
        "threshold": "policy.threshold",
        "init": "dynamics.init",
        "tol": "dynamics.tol",
        "max_iter": "dynamics.max_iter",
        "mode": "dynamics.mode",
        "points": "field.points",
        "rates": "simulate.rates",
        "slots": "simulate.slots" if command != "sweep" else "sweep.slots",
        "window": "simulate.window" if command != "sweep" else "sweep.window",
        "seed": "simulate.seed" if command != "sweep" else "sweep.seed",
        "queue_mode": "simulate.queue_mode" if command != "sweep" else "sweep.queue_mode",
        "queue_cap": "simulate.queue_cap",
        "desired_poas": "sweep.desired_poas",
        "mus": "sweep.mus",
        "windows": "sweep.windows",
        "replications": "sweep.replications",
        "out": "out",
        "format": "format",
    }
    out: dict[str, Any] = {}
    for attr, dotted in mapping.items():
        if hasattr(args, attr) and getattr(args, attr) is not None:
            out[dotted] = getattr(args, attr)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.command, _overrides(args))
        return _DISPATCH[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DesignInfeasibleError, UnstableQueueError, OverloadError, UnsupportedGameError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # domain guards deep in the numerics (infeasible profiles, kinks, ...)
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
