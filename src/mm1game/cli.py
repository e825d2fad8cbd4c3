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
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Any, NamedTuple

import yaml

from .analysis import WelfareKind, ne_closed_form, no_drop_report, welfare
from .dynamics import UpdateMode, response_field, run_dynamics, triangular_grid
from .mechanism import (
    DesignInfeasibleError,
    DesignSpec,
    PolicyDesign,
    design_linear,
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

_REQUIRED = object()  # the default of an option that has none


class _Option(NamedTuple):
    """One config key and its flag.

    ``type`` is float, int, list (a list of floats, or a comma-separated
    string), an Enum or a tuple of choices, or None for a value the command
    reads as written.  The flag is ``--<name-with-dashes>`` unless given.
    """

    key: str
    type: Any
    default: Any
    help: str
    flag: str | None = None


_OPTIONS = (
    _Option("out", None, None, "output path (default: $MM1GAME_OUT_DIR/<command>.<format>)"),
    _Option("format", ("csv", "json"), "csv", "output format"),
    _Option("game.mu", float, _REQUIRED, "service rate"),
    _Option("game.alpha", None, _REQUIRED, "shared exponent, or comma-separated per-user list"),
    _Option("game.m", int, 1, "number of users"),
    _Option(
        "policy.kind", ("none", "step", "linear", "designed"), "none", "drop policy", "--policy"
    ),
    _Option("policy.r1", float, None, "linear policy: total rate where dropping starts"),
    _Option("policy.r2", float, None, "linear policy: total rate where everything is dropped"),
    _Option("policy.threshold", float, None, "step policy threshold (default: the optimal total)"),
    _Option("design.epsilon", float, _REQUIRED, "allowed efficiency loss"),
    _Option("design.keep_prob", float, 0.9, "keep probability at the designed equilibrium"),
    _Option("design.welfare", WelfareKind, "sum_log", "welfare the loss is measured in"),
    _Option(
        "design.target_effective_total", float, None,
        "accepted total at the equilibrium (default: solved from epsilon)",
    ),
    _Option("dynamics.init", list, None, "comma-separated starting rates (default: mu/20m)"),
    _Option("dynamics.tol", float, 1e-8, "stop when a round moves no rate by more than this"),
    _Option("dynamics.max_iter", int, 5000, "round limit"),
    _Option("dynamics.mode", UpdateMode, "round_robin", "update order"),
    _Option("field.points", int, 20, "grid points per axis"),
    _Option("simulate.rates", None, _REQUIRED, "comma-separated offered rates, or 'designed'"),
    _Option("simulate.slots", int, 100_000, "horizon in slots"),
    _Option("simulate.window", int, 1, "rate-estimation window in slots"),
    _Option("simulate.seed", int, 0, "simulation seed"),
    _Option("simulate.queue_mode", QueueMode, "event", "queue model"),
    _Option("simulate.queue_cap", int, 100_000, "event queue: backlog that counts as overload"),
    _Option("sweep.desired_poas", list, _REQUIRED, "comma-separated efficiency-ratio targets"),
    _Option("sweep.mus", list, None, "comma-separated service rates (default: game.mu)"),
    _Option("sweep.windows", list, (1,), "comma-separated rate-estimation windows"),
    _Option("sweep.replications", int, 10, "seeds per cell"),
    _Option("sweep.slots", int, 10_000, "horizon in slots"),
    _Option("sweep.seed", int, 0, "seed of each cell's first replication"),
    _Option("sweep.queue_mode", QueueMode, "analytic", "queue model"),
    _Option("sweep.keep_prob", float, 0.9, "keep probability at each designed equilibrium"),
    _Option("sweep.welfare", WelfareKind, "sum_log", "welfare the ratio is measured in"),
)
_OPTION_BY_KEY = {option.key: option for option in _OPTIONS}


class ConfigError(ValueError):
    """The effective configuration is invalid; the message names the field."""


@dataclass
class ExperimentConfig:
    """Validated, merged view of the config file and command-line flags."""

    command: str
    raw: dict[str, Any]
    out: str = field(init=False)
    fmt: str = field(init=False)

    def __post_init__(self) -> None:
        self.fmt = _get(self, "format")
        out = _get(self, "out")
        if out is None:
            out = os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{self.command}.{self.fmt}")
        self.out = str(out)

    def section(self, name: str) -> dict[str, Any]:
        return self.raw.get(name) or {}


def _as_float(value: Any, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None


def _as_int(value: Any, field: str) -> int:
    try:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected an integer, got {value!r}") from None


def _as_float_list(value: Any, field: str) -> list[float]:
    if isinstance(value, str):
        value = [v for v in value.split(",") if v.strip() != ""]
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{field}: expected a non-empty list of numbers, got {value!r}")
    return [_as_float(v, field) for v in value]


_READERS = {float: _as_float, int: _as_int, list: _as_float_list}


def _choices(kind: Any) -> dict[str, Any] | None:
    """The spellings a choice option accepts and what each reads as; None if not a choice."""
    if isinstance(kind, tuple):
        return {name: name for name in kind}
    if isinstance(kind, type) and issubclass(kind, Enum):
        return {member.value: member for member in kind}
    return None


def _get(cfg: ExperimentConfig, key: str) -> Any:
    """One option of the merged config: defaulted, then typed or choice-checked."""
    option = _OPTION_BY_KEY[key]
    section, _, name = key.rpartition(".")
    value = (cfg.section(section) if section else cfg.raw).get(name)
    if value is None:
        if option.default is _REQUIRED:
            raise ConfigError(f"{key}: required")
        value = option.default
    if value is None or option.type is None:
        return value
    choices = _choices(option.type)
    if choices is None:
        return _READERS[option.type](value, key)
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{key}: must be one of {sorted(choices)}, got {value!r}")
    return choices[value]


def _keys_by_section() -> dict[str, set[str]]:
    """Config key names by section, top-level keys under ''."""
    sections: dict[str, set[str]] = {}
    for option in _OPTIONS:
        section, _, name = option.key.rpartition(".")
        sections.setdefault(section, set()).add(name)
    return sections


def _check_keys(mapping: dict[str, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(
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
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: {path} is not valid YAML: {exc}") from exc
        if loaded is None:
            loaded = {}
        if not isinstance(loaded, dict):
            raise ConfigError(f"config: {path} must hold a mapping at the top level")
        raw = loaded
    sections = _keys_by_section()
    top_level = sections.pop("")
    _check_keys(raw, {"command", *top_level, *sections}, "config")
    for name, keys in sections.items():
        section = raw.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"config.{name}: expected a mapping")
        _check_keys(section, keys, f"config.{name}")
    file_command = raw.get("command")
    if file_command is not None and file_command != command:
        raise ConfigError(
            f"command: config file says {file_command!r} but {command!r} was requested"
        )

    for dotted, value in overrides.items():
        if value is None:
            continue
        section_name, _, key = dotted.rpartition(".")
        if section_name:
            raw[section_name] = {**(raw.get(section_name) or {}), key: value}
        else:
            raw[key] = value
    return ExperimentConfig(command=command, raw=raw)


def _game_config(cfg: ExperimentConfig) -> GameConfig:
    mu = _get(cfg, "game.mu")
    alpha = _get(cfg, "game.alpha")
    if isinstance(alpha, (list, tuple)) or (isinstance(alpha, str) and "," in alpha):
        alphas = _as_float_list(alpha, "game.alpha")
        if "m" in cfg.section("game") and _get(cfg, "game.m") != len(alphas):
            raise ConfigError("game.m: disagrees with the length of game.alpha")
    else:
        alphas = [_as_float(alpha, "game.alpha")] * _get(cfg, "game.m")
    try:
        return GameConfig(mu, tuple(alphas))
    except ValueError as exc:
        raise ConfigError(f"game: {exc}") from exc


def _design_spec(cfg: ExperimentConfig, game: GameConfig) -> DesignSpec:
    epsilon = _get(cfg, "design.epsilon")
    keep_prob = _get(cfg, "design.keep_prob")
    welfare_kind = _get(cfg, "design.welfare")
    target = _get(cfg, "design.target_effective_total")
    try:
        return DesignSpec(game, epsilon, keep_prob, welfare_kind, target)
    except ValueError as exc:
        raise ConfigError(f"design: {exc}") from exc


def _policy(cfg: ExperimentConfig, game: GameConfig) -> tuple[DropPolicy, PolicyDesign | None]:
    """The configured drop policy, and the design it came from if it is designed."""
    kind = _get(cfg, "policy.kind")
    try:
        if kind == "step":
            threshold = _get(cfg, "policy.threshold")
            return (step_policy(game) if threshold is None else StepPolicy(threshold)), None
        if kind == "linear":
            r1, r2 = _get(cfg, "policy.r1"), _get(cfg, "policy.r2")
            if r1 is None or r2 is None:
                raise ConfigError("policy.r1 and policy.r2: required for a linear policy")
            return LinearPolicy(r1, r2), None
        if kind == "designed":
            design = design_linear(_design_spec(cfg, game))
            return design.policy, design
    except ConfigError:
        raise
    except (ValueError, UnsupportedGameError) as exc:
        raise ConfigError(f"policy: {exc}") from exc
    return NoDrop(), None


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".12g") if math.isfinite(value) else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _fmt_rates(rates: tuple[float, ...]) -> str:
    return ";".join(format(r, ".12g") for r in rates)


def write_csv(path: str, records: list[dict[str, Any]]) -> None:
    """Write records as CSV rows, the first record's keys as the columns.

    A missing value (None, NaN or infinite) is an empty cell.
    """
    lines = [",".join(["schema_version", *records[0]])]
    for record in records:
        lines.append(",".join([SCHEMA_VERSION, *map(_fmt_value, record.values())]))
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


def _emit(cfg: ExperimentConfig, name: str, records: list[dict[str, Any]]) -> None:
    if cfg.fmt == "csv":
        write_csv(cfg.out, records)
    else:
        write_json(cfg.out, {"command": cfg.command, name: records})


def _cmd_analyze(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    ne = ne_closed_form(game)
    alpha = _fmt_value(game.alphas[0]) if game.homogeneous else _fmt_rates(game.alphas)
    records = []
    for kind in (WelfareKind.SUM_UTILITY, WelfareKind.SUM_LOG_UTILITY):
        record = {
            "welfare": kind.value,
            "mu": game.mu,
            "m": game.m,
            "alpha": alpha,
            "ne_rates": _fmt_rates(ne.rates),
            "ne_welfare": welfare(ne, NoDrop(), game, kind),
        }
        try:
            report = no_drop_report(game, kind)
        except UnsupportedGameError:
            record.update(dict.fromkeys(("opt_rates", "opt_welfare", "poa", "pos"), "unsupported"))
        else:
            record.update(
                opt_rates=_fmt_rates(report.optimum_profile.rates),
                opt_welfare=report.optimum_value,
                poa=report.poa,
                pos=report.pos,
            )
        records.append(record)
    _emit(cfg, "reports", records)
    return EXIT_OK


def _cmd_design(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    spec = _design_spec(cfg, game)
    design = designed_with_diagnostics(spec)
    diag = design.diagnostics
    assert diag is not None
    record = {
        "mu": game.mu,
        "m": game.m,
        "alpha": game.alpha,
        "epsilon": spec.epsilon,
        "keep_prob": spec.keep_prob,
        "welfare": spec.welfare_kind.value,
        "target_effective_total": design.target_effective_total,
        "target_raw_total": design.target_raw_total,
        "r1": design.policy.r1,
        "r2": design.policy.r2,
        "slope": design.policy.slope,
        "intercept": design.policy.intercept,
        "predicted_ne": _fmt_rates(design.predicted_ne.rates),
        "predicted_poa": design.predicted_poa,
        "realized_ne": _fmt_rates(diag.realized_ne.rates),
        "realized_poa": diag.realized_poa,
        "check_slope_uniqueness": diag.slope_exceeds_uniqueness_bound,
        "check_r1_below_mu": diag.r1_below_service_rate,
        "check_ne_matches": diag.ne_matches_prediction,
        "check_poa_bound": diag.poa_within_bound,
        "check_unique": diag.certified_unique,
    }
    _emit(cfg, "design", [record])
    return EXIT_OK


def _dynamics_init(cfg: ExperimentConfig, game: GameConfig) -> RateProfile:
    init = _get(cfg, "dynamics.init")
    if init is None:
        return RateProfile((0.05 * game.mu / game.m,) * game.m)
    if len(init) != game.m:
        raise ConfigError(f"dynamics.init: expected {game.m} rates, got {len(init)}")
    try:
        return RateProfile(tuple(init))
    except ValueError as exc:
        raise ConfigError(f"dynamics.init: {exc}") from exc


def _cmd_dynamics(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    policy, _ = _policy(cfg, game)
    init = _dynamics_init(cfg, game)
    tol = _get(cfg, "dynamics.tol")
    max_iter = _get(cfg, "dynamics.max_iter")
    mode = _get(cfg, "dynamics.mode")
    trajectory = run_dynamics(game, policy, init, mode=mode, tol=tol, max_iter=max_iter)
    records = [
        {"iteration": k, **{f"rate_{i}": r for i, r in enumerate(profile.rates)}, "potential": pot}
        for k, (profile, pot) in enumerate(
            zip(trajectory.iterates, trajectory.potential_series)
        )
    ]
    _emit(cfg, "trajectory", records)
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
        raise ConfigError("field: requires a two-user game")
    policy, _ = _policy(cfg, game)
    points = _get(cfg, "field.points")
    if points < 2:
        raise ConfigError(f"field.points: must be at least 2, got {points}")
    grid = triangular_grid(game, policy, points)
    # mark the equilibrium: follow the dynamics and add its endpoint to the grid
    init = RateProfile((0.05 * game.mu / game.m,) * game.m)
    trajectory = run_dynamics(game, policy, init, tol=1e-10, max_iter=5000)
    if trajectory.converged:
        grid.append(trajectory.final_profile)
    records = [
        {"rate_0": p.rates[0], "rate_1": p.rates[1], "step_0": v[0], "step_1": v[1]}
        for p, v in response_field(game, policy, grid)
    ]
    _emit(cfg, "field", records)
    return EXIT_OK


def _sim_config(cfg: ExperimentConfig, game: GameConfig) -> SimConfig:
    policy, design = _policy(cfg, game)
    rates_raw = _get(cfg, "simulate.rates")
    if rates_raw == "designed":
        if design is None:
            raise ConfigError(
                "simulate.rates: 'designed' offers the designed equilibrium, which needs "
                f"policy.kind: designed, got {_get(cfg, 'policy.kind')!r}"
            )
        rates = design.predicted_ne
    else:
        values = _as_float_list(rates_raw, "simulate.rates")
        if len(values) != game.m:
            raise ConfigError(f"simulate.rates: expected {game.m} rates, got {len(values)}")
        try:
            rates = RateProfile(tuple(values))
        except ValueError as exc:
            raise ConfigError(f"simulate.rates: {exc}") from exc
    run_keys = ("queue_mode", "slots", "window", "seed", "queue_cap")
    try:
        return SimConfig(
            game=game,
            policy=policy,
            input_rates=rates,
            **{key: _get(cfg, f"simulate.{key}") for key in run_keys},
        )
    except ValueError as exc:
        raise ConfigError(f"simulate: {exc}") from exc


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    game = _game_config(cfg)
    sim = _sim_config(cfg, game)
    report = run_simulation(sim)
    users = [
        {
            "user": i,
            "input_rate": report.input_rates[i],
            "arrivals": report.arrivals[i],
            "accepted": report.accepted[i],
            "goodput": report.goodput[i],
            "mean_delay": report.mean_delay[i],
            "power": report.power[i],
            "sum_welfare": report.sum_welfare,
            "log_welfare": report.log_welfare,
            "empirical_poa": report.empirical_poa,
        }
        for i in range(game.m)
    ]
    if cfg.fmt == "csv":
        write_csv(cfg.out, users)
        stem, ext = os.path.splitext(cfg.out)
        slots = [
            {"slot": t, "total_arrivals": n, "estimated_rate": est, "drop_prob": drop}
            for t, n, est, drop in zip(
                range(report.slots), report.slot_arrivals, report.estimated_rates, report.drop_probs
            )
        ]
        write_csv(f"{stem}.slots{ext}", slots)
    else:
        write_json(
            cfg.out,
            {
                "command": "simulate",
                "users": users,
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
    desired = _get(cfg, "sweep.desired_poas")
    mus = _get(cfg, "sweep.mus") or [game.mu]
    windows = [_as_int(w, "sweep.windows") for w in _get(cfg, "sweep.windows")]
    replications = _get(cfg, "sweep.replications")
    base_keys = ("queue_mode", "slots", "seed")
    base_options = {key: _get(cfg, f"sweep.{key}") for key in base_keys}
    welfare_kind = _get(cfg, "sweep.welfare")
    keep_prob = _get(cfg, "sweep.keep_prob")
    try:
        base = SimConfig(
            game=game,
            policy=NoDrop(),
            input_rates=RateProfile((0.0,) * game.m),
            **base_options,
        )
        cells = run_sweep(base, desired, mus, windows, replications, welfare_kind, keep_prob)
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    _emit(cfg, "cells", [asdict(cell) for cell in cells])
    return EXIT_OK


# command -> (handler, config sections it reads); top-level options go to every command
_COMMANDS = {
    "analyze": (_cmd_analyze, ("game",)),
    "design": (_cmd_design, ("game", "design")),
    "dynamics": (_cmd_dynamics, ("game", "policy", "design", "dynamics")),
    "field": (_cmd_field, ("game", "policy", "design", "field")),
    "simulate": (_cmd_simulate, ("game", "policy", "design", "simulate")),
    "sweep": (_cmd_sweep, ("game", "sweep")),
}


def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command: ``--config`` plus a flag for every key it reads."""
    parser = argparse.ArgumentParser(
        prog="mm1game",
        description="Selfish rate control over a shared queue: closed forms, "
        "policy design, dynamics, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, sections) in _COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)  # `--window` is not `--windows`
        p.add_argument("--config", help="YAML configuration file")
        names: set[str] = set()
        for option in _OPTIONS:
            section, _, name = option.key.rpartition(".")
            if section and section not in sections:
                continue
            assert name not in names, f"{command} reads two keys named {name!r}"
            names.add(name)
            choices = _choices(option.type)
            p.add_argument(
                option.flag or "--" + name.replace("_", "-"),
                dest=option.key,
                type=option.type if option.type in (float, int) else None,
                choices=None if choices is None else list(choices),
                help=option.help,
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    overrides = vars(_build_parser().parse_args(argv))
    command = overrides.pop("command")
    try:
        cfg = load_config(overrides.pop("config"), command, overrides)
        return _COMMANDS[command][0](cfg)
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
