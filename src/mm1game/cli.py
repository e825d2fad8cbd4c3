"""Command-line front end: analyze, design, dynamics, field, simulate, sweep.

Options come from a YAML config file, overridable by flags of the same
names.  Every command is deterministic given its effective configuration
(seeds included) and writes CSV or JSON with an embedded schema version.

Exit codes: 0 success, 2 configuration error, 3 numerical failure
(non-convergence, infeasible design, overload), 4 output I/O error.  Exit 2
comes only from reading the config (each key's type, choices and lower bound
are in the option table, ``_OPTIONS``) or from a library constructor rejecting
a value of it (``_build``); anything the computation raises exits 3.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import stat
import sys
from dataclasses import asdict
from enum import Enum
from typing import Any, Callable, NamedTuple, TypeVar

import numpy as np

from .analysis import WelfareKind, ne_closed_form, no_drop_report, welfare
from .dynamics import UpdateMode, response_field, run_dynamics, triangular_grid
from .mechanism import (
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
_T = TypeVar("_T")


class _Option(NamedTuple):
    """One config key and its flag.

    ``type`` is float, int, list (a list of floats, or a comma-separated
    string), an Enum or a tuple of choices, or None for a value the command
    reads as written.  The flag is ``--<name-with-dashes>`` unless given.
    A number below ``low``, or NaN, is refused when it is read.
    """

    key: str
    type: Any
    default: Any
    help: str
    flag: str | None = None
    low: float | None = None


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
    _Option(
        "dynamics.tol", float, 1e-8, "stop when a round moves no rate by more than this",
        low=math.ulp(0.0),
    ),
    _Option("dynamics.max_iter", int, 5000, "round limit", low=1),
    _Option("dynamics.mode", UpdateMode, "round_robin", "update order"),
    _Option("field.points", int, 20, "grid points per axis", low=2),
    _Option("simulate.rates", None, _REQUIRED, "comma-separated offered rates, or 'designed'"),
    _Option("simulate.slots", int, 100_000, "horizon in slots"),
    _Option("simulate.window", int, 1, "rate-estimation window in slots"),
    _Option("simulate.seed", int, 0, "simulation seed"),
    _Option("simulate.queue_mode", QueueMode, "event", "queue model"),
    _Option("simulate.queue_cap", int, 100_000, "event queue: backlog that counts as overload"),
    _Option("sweep.desired_poas", list, _REQUIRED, "comma-separated efficiency-ratio targets"),
    _Option("sweep.mus", list, None, "comma-separated service rates (default: game.mu)"),
    _Option("sweep.windows", list, (1,), "comma-separated rate-estimation windows"),
    _Option("sweep.replications", int, 10, "seeds per cell", low=1),
    _Option("sweep.slots", int, 10_000, "horizon in slots"),
    _Option("sweep.seed", int, 0, "seed of each cell's first replication"),
    _Option("sweep.queue_mode", QueueMode, "analytic", "queue model"),
    _Option("sweep.keep_prob", float, 0.9, "keep probability at each designed equilibrium"),
    _Option("sweep.welfare", WelfareKind, "sum_log", "welfare the ratio is measured in"),
)
_OPTION_BY_KEY = {option.key: option for option in _OPTIONS}


class ConfigError(ValueError):
    """The effective configuration is invalid; the message names the field."""


def _build(where: str, make: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
    """One library constructor on config values; its ValueError is a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _as_float(value: Any, field: str) -> float:
    try:
        if isinstance(value, bool):  # YAML's true and false, which float() reads as 1 and 0
            raise ValueError
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{field}: expected a number, got {value!r}") from None


def _as_int(value: Any, field: str) -> int:
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
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


def _get(cfg: dict[str, Any], key: str) -> Any:
    """One option of the merged config: defaulted, then typed and bounded, or choice-checked."""
    option = _OPTION_BY_KEY[key]
    value = cfg.get(key)
    if value is None:
        if option.default is _REQUIRED:
            raise ConfigError(f"{key}: required")
        value = option.default
    if value is None or option.type is None:
        return value
    choices = _choices(option.type)
    if choices is None:
        value = _READERS[option.type](value, key)
        if option.low is not None and not value >= option.low:  # NaN fails this too
            raise ConfigError(f"{key}: must be at least {option.low}, got {value!r}")
        return value
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


def _check_keys(mapping: dict[Any, Any], allowed: set[str], where: str) -> None:
    unknown = sorted(str(key) for key in mapping if key not in allowed)  # YAML keys may be ints
    if unknown:
        raise ConfigError(
            f"{where}: unknown key(s) {', '.join(unknown)}; allowed: {', '.join(sorted(allowed))}"
        )


def load_config(path: str | None, command: str, overrides: dict[str, Any]) -> dict[str, Any]:
    """Read the YAML file (if any), validate its keys, and apply flag overrides.

    The result is flat, keyed like the option table (``format``, ``game.mu``);
    a key set to null is kept and reads as its default.  It also holds the
    ``command``, the choice-checked ``format`` and the resolved ``out`` path.
    """
    raw: dict[str, Any] = {}
    if path is not None:
        import yaml  # only a config file needs it; it slows every import of the CLI
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = yaml.safe_load(fh)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config: {path} is not valid YAML: {exc}") from exc
        raw = {} if loaded is None else loaded
        if not isinstance(raw, dict):
            raise ConfigError(f"config: {path} must hold a mapping at the top level")
    sections = _keys_by_section()
    top_level = sections.pop("")
    _check_keys(raw, {"command", *top_level, *sections}, "config")
    cfg = {key: raw[key] for key in top_level if key in raw}
    for name, keys in sections.items():
        section = raw.get(name)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"config.{name}: expected a mapping")
        _check_keys(section, keys, f"config.{name}")
        cfg.update((f"{name}.{key}", value) for key, value in section.items())
    file_command = raw.get("command")
    if file_command is not None and file_command != command:
        raise ConfigError(
            f"command: config file says {file_command!r} but {command!r} was requested"
        )

    cfg.update((key, value) for key, value in overrides.items() if value is not None)
    cfg["command"] = command
    cfg["format"] = _get(cfg, "format")
    out = _get(cfg, "out")
    if out is None:
        out = os.path.join(os.environ.get(OUT_DIR_ENV, "."), f"{command}.{cfg['format']}")
    cfg["out"] = str(out)
    return cfg


def _game_config(cfg: dict[str, Any]) -> GameConfig:
    mu = _get(cfg, "game.mu")
    alpha = _get(cfg, "game.alpha")
    if isinstance(alpha, (list, tuple)) or (isinstance(alpha, str) and "," in alpha):
        alphas = _as_float_list(alpha, "game.alpha")
        if cfg.get("game.m") is not None and _get(cfg, "game.m") != len(alphas):
            raise ConfigError("game.m: disagrees with the length of game.alpha")
    else:
        alphas = [_as_float(alpha, "game.alpha")] * _get(cfg, "game.m")
    return _build("game", GameConfig, mu, tuple(alphas))


def _design_spec(cfg: dict[str, Any], game: GameConfig) -> DesignSpec:
    epsilon = _get(cfg, "design.epsilon")
    keep_prob = _get(cfg, "design.keep_prob")
    welfare_kind = _get(cfg, "design.welfare")
    target = _get(cfg, "design.target_effective_total")
    return _build("design", DesignSpec, game, epsilon, keep_prob, welfare_kind, target)


def _policy(cfg: dict[str, Any], game: GameConfig) -> tuple[DropPolicy, PolicyDesign | None]:
    """The configured drop policy, and the design it came from if it is designed."""
    kind = _get(cfg, "policy.kind")
    if kind == "step":
        threshold = _get(cfg, "policy.threshold")
        if threshold is None:  # step_policy raises UnsupportedGameError on mixed exponents
            return _build("policy", step_policy, game), None
        return _build("policy", StepPolicy, threshold), None
    if kind == "linear":
        r1, r2 = _get(cfg, "policy.r1"), _get(cfg, "policy.r2")
        if r1 is None or r2 is None:
            raise ConfigError("policy.r1 and policy.r2: required for a linear policy")
        return _build("policy", LinearPolicy, r1, r2), None
    if kind == "designed":
        design = design_linear(_design_spec(cfg, game))
        return design.policy, design
    return NoDrop(), None


_QUOTED = re.compile(r'[,"\r\n]')  # a text cell holding one of these is quoted


def _fmt_value(value: Any) -> str:
    if isinstance(value, float):
        return format(value, ".12g") if math.isfinite(value) else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    text = str(value)
    if _QUOTED.search(text):  # as csv.writer quotes it
        return '"' + text.replace('"', '""') + '"'
    return text


def _fmt_rates(rates: tuple[float, ...]) -> str:
    return ";".join(format(r, ".12g") for r in rates)


def _numeric_texts(values: np.ndarray, fmt: Callable[[float], str], missing: str) -> list[str]:
    """Text of every entry of a 1-D int or float array of at most 8 bytes
    per entry: an int through ``str``, a finite float through ``fmt``, a NaN
    or infinite one as ``missing``.

    A per-slot trace holds few distinct values, so each is formatted once.
    The values are keyed by their bits, so ``-0.0`` and ``0.0`` (or two NaN
    payloads) stay apart and equal keys have equal text.
    """
    ints = values.dtype.kind in "iu"
    if ints and values.min(initial=0) >= 0 and values.max(initial=0) <= len(values):
        # counts and slot indices: every text up to the largest, picked by value
        table = np.array(list(map(str, range(int(values.max(initial=0)) + 1))), dtype=object)
        return table[values].tolist()
    distinct, inverse = np.unique(values.view(f"u{values.itemsize}"), return_inverse=True)
    distinct = distinct.view(values.dtype)
    texts = list(map(str if ints else fmt, distinct.tolist()))
    for i in np.flatnonzero(~np.isfinite(distinct)).tolist():
        texts[i] = missing
    return np.array(texts, dtype=object)[inverse].tolist()


def _is_numeric_vector(value: Any) -> bool:
    return isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype.kind in "fiu"


def _fmt_column(column: Any) -> list[str]:
    """One column's cells: an int or float array through ``_numeric_texts``
    (``%.12g``, non-finite entries blank), a list cell by cell."""
    if _is_numeric_vector(column):
        return _numeric_texts(column, "%.12g".__mod__, "")
    return list(map(_fmt_value, column))


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, over an existing file in place.

    ``open(path, "w")`` truncates an existing file to zero bytes.  On ext4
    that sets off ``auto_da_alloc``, a durability flush: on close the kernel
    starts writing the new blocks out, so a crash soon after a rewrite does
    not leave a zero-length file.  Rewriting a file whose last write is still
    unflushed then takes ~0.1 ms, five times as long as in place.  The speed
    here comes from skipping that flush, so a crash soon after a rewrite may
    leave old bytes inside the new length.  The file is opened without
    ``O_TRUNC``, cut to the new length and then written from its start, so a
    write that stops partway leaves no old bytes past the new end.  It keeps
    its inode and mode, and a symlink stays a symlink.  Only a regular file
    is cut: a pipe, a terminal or ``/dev/null`` cannot be, and has no old
    bytes to cut.
    """
    data = text.encode("utf-8")
    # os.open with "wb"'s flags less O_TRUNC; given as the opener, the
    # descriptor is open's to close, even when open itself fails
    untruncated = lambda name, flags: os.open(name, flags & ~os.O_TRUNC, 0o666)
    with open(path, "wb", opener=untruncated) as fh:
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))
        fh.write(data)


def write_csv(path: str, columns: dict[str, Any]) -> None:
    """Write equal-length columns as CSV, one row per entry, after a
    ``schema_version`` column.  A column is a list or a 1-D int or float
    array.

    A missing value (None, NaN or infinite) is an empty cell, and a text cell
    holding a comma, a quote or a line break is quoted.
    """
    cells = [_fmt_column(column) for column in columns.values()]
    schema = [SCHEMA_VERSION] * len(cells[0])
    lines = [",".join(["schema_version", *columns])]
    lines += map(",".join, zip(schema, *cells, strict=True))
    _write_text(path, "\n".join(lines) + "\n")


def _columns(records: list[dict[str, Any]]) -> dict[str, list[Any]]:
    """Records as columns, keyed by the first record's keys."""
    return {key: [record[key] for record in records] for key in records[0]}


def _finite_or_null(value: Any) -> Any:
    """Copy of a JSON payload with every NaN or infinite float replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _dumps_finite(value: Any) -> str:
    if _is_numeric_vector(value):  # the C encoder's text: float and int repr
        return "[" + ", ".join(_numeric_texts(value, float.__repr__, "null")) + "]"
    if isinstance(value, dict):  # string keys; each member encoded on its own
        members = (f"{json.dumps(key)}: {_dumps_finite(item)}" for key, item in value.items())
        return "{" + ", ".join(members) + "}"
    try:  # no indent: an indent makes json fall back from its C encoder
        return json.dumps(value, allow_nan=False)
    except ValueError:  # a non-finite float somewhere; only then walk the value
        return json.dumps(_finite_or_null(value), allow_nan=False)


def write_json(path: str, payload: dict[str, Any]) -> None:
    """Write strict JSON on one line: non-finite floats (an unbounded ratio,
    the log of a zero utility, a failed sweep cell) are written as null.

    The keys of ``payload``, and of any dict among its values, are strings.
    Every such dict is encoded member by member, so a non-finite summary
    field re-walks only the member holding it, never a per-slot trace beside
    it.  A 1-D int or float array is written as the list it holds.
    """
    text = _dumps_finite({"schema_version": SCHEMA_VERSION, **payload})
    _write_text(path, text + "\n")


def _emit(cfg: dict[str, Any], name: str, records: list[dict[str, Any]], **extra: Any) -> None:
    """The records as CSV, or as JSON under ``name`` followed by ``extra``'s members."""
    if cfg["format"] == "csv":
        write_csv(cfg["out"], _columns(records))
    else:
        write_json(cfg["out"], {"command": cfg["command"], name: records, **extra})


def _cmd_analyze(cfg: dict[str, Any], game: GameConfig) -> int:
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


def _cmd_design(cfg: dict[str, Any], game: GameConfig) -> int:
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


def _default_start(game: GameConfig) -> RateProfile:
    """Where best-response play starts unless told otherwise: mu/20m for every user."""
    return RateProfile((0.05 * game.mu / game.m,) * game.m)


def _rate_profile(rates: list[float], game: GameConfig, key: str) -> RateProfile:
    """One non-negative rate per user, read from config ``key``."""
    if len(rates) != game.m:
        raise ConfigError(f"{key}: expected {game.m} rates, got {len(rates)}")
    return _build(key, RateProfile, tuple(rates))


def _cmd_dynamics(cfg: dict[str, Any], game: GameConfig) -> int:
    policy, _ = _policy(cfg, game)
    rates = _get(cfg, "dynamics.init")
    init = _default_start(game) if rates is None else _rate_profile(rates, game, "dynamics.init")
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
            f"trajectory written to {cfg['out']}",
            file=sys.stderr,
        )
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_field(cfg: dict[str, Any], game: GameConfig) -> int:
    if game.m != 2:
        raise ConfigError("field: requires a two-user game")
    policy, _ = _policy(cfg, game)
    grid = triangular_grid(game, policy, _get(cfg, "field.points"))
    # mark the equilibrium: follow the dynamics and add its endpoint to the grid
    trajectory = run_dynamics(game, policy, _default_start(game), tol=1e-10, max_iter=5000)
    if trajectory.converged:
        grid.append(trajectory.final_profile)
    records = [
        {"rate_0": p.rates[0], "rate_1": p.rates[1], "step_0": v[0], "step_1": v[1]}
        for p, v in response_field(game, policy, grid)
    ]
    _emit(cfg, "field", records)
    return EXIT_OK


def _sim_config(cfg: dict[str, Any], game: GameConfig) -> SimConfig:
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
        rates = _rate_profile(values, game, "simulate.rates")
    run_keys = ("queue_mode", "slots", "window", "seed", "queue_cap")
    run_options = {key: _get(cfg, f"simulate.{key}") for key in run_keys}
    return _build("simulate", SimConfig, game=game, policy=policy, input_rates=rates, **run_options)


def _cmd_simulate(cfg: dict[str, Any], game: GameConfig) -> int:
    out = cfg["out"]
    if cfg["format"] == "csv" and os.path.exists(out) and not os.path.isfile(out):
        # the trace would go to <stem>.slots<ext>: /dev/stdout.slots for /dev/stdout
        raise ConfigError(
            f"out: {out} is not a regular file, and CSV writes the per-slot trace to a "
            "second file beside it; use --format json"
        )
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
    slots = {
        "total_arrivals": report.slot_arrivals,
        "estimated_rate": report.estimated_rates,
        "drop_prob": report.drop_probs,
    }
    _emit(cfg, "users", users, slots=slots, warmup_slots=report.warmup_slots)
    if cfg["format"] == "csv":
        stem, ext = os.path.splitext(out)
        write_csv(f"{stem}.slots{ext}", {"slot": np.arange(report.slots), **slots})
    return EXIT_OK


def _cmd_sweep(cfg: dict[str, Any], game: GameConfig) -> int:
    desired = _get(cfg, "sweep.desired_poas")
    mus = _get(cfg, "sweep.mus") or [game.mu]
    windows = [_as_int(w, "sweep.windows") for w in _get(cfg, "sweep.windows")]
    replications = _get(cfg, "sweep.replications")
    base_keys = ("queue_mode", "slots", "seed")
    base_options = {key: _get(cfg, f"sweep.{key}") for key in base_keys}
    welfare_kind = _get(cfg, "sweep.welfare")
    keep_prob = _get(cfg, "sweep.keep_prob")
    idle = RateProfile((0.0,) * game.m)
    base = _build("sweep", SimConfig, game=game, policy=NoDrop(), input_rates=idle, **base_options)
    cells = run_sweep(base, desired, mus, windows, replications, welfare_kind, keep_prob)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """One subcommand per command, each with ``--config`` and a flag for
    every key it reads; built once per process.  The stock ``HelpFormatter``
    measures the terminal each time it formats help, so help follows
    ``COLUMNS`` at the call, not at the build."""
    parser = argparse.ArgumentParser(
        prog="mm1game",
        description="Selfish rate control over a shared queue: closed forms, "
        "policy design, dynamics, and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, sections) in _COMMANDS.items():
        # allow_abbrev off: `--window` is not `--windows`
        p = sub.add_parser(command, allow_abbrev=False)
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
    overrides = vars(_build_parser().parse_args(argv))  # None: argparse reads sys.argv
    command = overrides.pop("command")
    try:
        cfg = load_config(overrides.pop("config"), command, overrides)
        return _COMMANDS[command][0](cfg, _game_config(cfg))
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # before ValueError: io.UnsupportedOperation is both
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (MemoryError, OverloadError, OverflowError, ValueError) as exc:
        # domain guards deep in the numerics (infeasible designs and profiles,
        # unstable queues, kinks, ...), float powers past the largest double
        # and an allocation that fails at once
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
