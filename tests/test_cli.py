"""CLI: config loading, overrides, output schema, exit codes."""

import argparse
import builtins
import contextlib
import copy
import csv
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
from datetime import timedelta

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import mm1game
from mm1game.cli import (
    _COMMANDS,
    _OPTIONS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    SCHEMA_VERSION,
    _REQUIRED,
    _build_parser,
    _choices,
    main,
)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_analyze_emits_both_welfare_rows(tmp_path):
    out = tmp_path / "a.csv"
    code = main(["analyze", "--mu", "6", "--alpha", "2", "--m", "2", "--out", str(out)])
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[0] == "schema_version"
    assert all(r["schema_version"] == SCHEMA_VERSION for r in rows)
    assert [r["welfare"] for r in rows] == ["sum", "sum_log"]
    log_row = rows[1]
    assert float(log_row["poa"]) == pytest.approx(1.3396, abs=1e-4)
    assert log_row["ne_rates"] == "2.4;2.4"
    assert log_row["opt_rates"] == "2;2"


def test_analyze_single_user_has_unit_ratio(tmp_path):
    out = tmp_path / "one.csv"
    assert main(["analyze", "--mu", "6", "--alpha", "2", "--m", "1", "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    assert all(float(r["poa"]) == pytest.approx(1.0) for r in rows)


def test_analyze_heterogeneous_marks_unsupported_columns(tmp_path):
    out = tmp_path / "het.csv"
    code = main(["analyze", "--mu", "6", "--alpha", "1,2", "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    for row in rows:
        assert row["ne_rates"] == "1.5;3"
        assert row["poa"] == "unsupported"
        assert row["opt_rates"] == "unsupported"
        assert float(row["ne_welfare"]) != 0.0


def test_design_reproduces_the_worked_example(tmp_path):
    out = tmp_path / "d.csv"
    code = main(
        [
            "design", "--mu", "6", "--alpha", "2", "--m", "2",
            "--epsilon", "0.05", "--keep-prob", "0.9",
            "--target-effective-total", "3.9",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    (row,) = rows
    assert float(row["r1"]) == pytest.approx(4.3012, abs=0.01)
    assert float(row["r2"]) == pytest.approx(4.622, abs=0.01)
    assert row["check_slope_uniqueness"] == "true"
    assert row["check_r1_below_mu"] == "true"
    assert row["check_ne_matches"] == "true"
    assert row["check_poa_bound"] == "true"
    assert float(row["realized_poa"]) <= 1.05


def test_design_epsilon_zero_exits_with_config_error(tmp_path, capsys):
    out = tmp_path / "d.csv"
    code = main(
        ["design", "--mu", "6", "--alpha", "2", "--m", "2", "--epsilon", "0", "--out", str(out)]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "approached" in err
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_a_non_finite_epsilon_exits_with_config_error(tmp_path, capsys, epsilon):
    out = tmp_path / "d.csv"
    argv = ["design", "--mu", "6", "--alpha", "2", "--m", "2", "--epsilon", epsilon]
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        f"configuration error: design: epsilon must be positive and finite, got {epsilon}:"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--mu", "1e300", "--alpha", "2", "--m", "2", "--epsilon", "0.05"],
        ["analyze", "--mu", "1e300", "--alpha", "3", "--m", "3"],
        ["dynamics", "--mu", "1e300", "--alpha", "0.5", "--m", "3", "--policy", "designed",
         "--epsilon", "0.05"],
    ],
    ids=["design", "analyze", "dynamics"],
)
def test_a_service_rate_above_the_bound_is_a_config_error(tmp_path, capsys, argv):
    # without the bound these overflow, or divide by zero, deep in the numerics
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: game: mu must be below 1e+21, got 1e+300\n"
    )
    assert not out.exists()


def test_design_json_payload(tmp_path):
    out = tmp_path / "d.json"
    # below about 6e-24 the target's root lies above the solver's clamp at 1 - 1e-12 of the
    # welfare-optimal total, 4
    for epsilon in ("0.1", "1e-30", "1e-300"):
        code = main(
            [
                "design", "--mu", "6", "--alpha", "2", "--m", "2", "--epsilon", epsilon,
                "--format", "json", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == SCHEMA_VERSION
        (row,) = payload["design"]
        assert row["predicted_poa"] <= 1.0 + float(epsilon)
        assert row["target_effective_total"] <= 4.0 * (1.0 - 1e-12)


def test_yaml_config_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "command: analyze\n"
        "game:\n  mu: 5.0\n  alpha: 2\n  m: 2\n"
        f"out: {tmp_path / 'cfg.csv'}\n"
    )
    code = main(["analyze", "--config", str(cfg), "--mu", "6"])
    assert code == EXIT_OK
    _, rows = read_csv(tmp_path / "cfg.csv")
    assert float(rows[0]["mu"]) == 6.0  # the flag wins


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("game:\n  mu: 6\n  alpha: 2\n  m: 2\n  users: 4\n")
    assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG
    assert "users" in capsys.readouterr().err


def test_command_mismatch_is_rejected(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("command: design\ngame:\n  mu: 6\n  alpha: 2\n  m: 2\n")
    assert main(["analyze", "--config", str(cfg)]) == EXIT_CONFIG


def test_missing_required_game_field(tmp_path, capsys):
    assert main(["analyze", "--alpha", "2", "--out", str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert "game.mu" in capsys.readouterr().err


def test_dynamics_trajectory_ends_at_the_equilibrium(tmp_path):
    out = tmp_path / "t.csv"
    code = main(
        [
            "dynamics", "--mu", "6", "--alpha", "2", "--m", "2",
            "--policy", "none", "--init", "0.1,0.1", "--tol", "1e-10",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert float(rows[0]["rate_0"]) == pytest.approx(0.1)
    last = rows[-1]
    assert float(last["rate_0"]) == pytest.approx(2.4, abs=1e-8)
    assert float(last["rate_1"]) == pytest.approx(2.4, abs=1e-8)
    pots = [float(r["potential"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(pots, pots[1:]))


def test_dynamics_non_convergence_exits_numeric_but_writes(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = main(
        [
            "dynamics", "--mu", "6", "--alpha", "2", "--m", "2",
            "--policy", "linear", "--r1", "4.3012", "--r2", "4.6222",
            "--init", "0.1,0.1", "--max-iter", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_NUMERIC
    assert "did not converge" in capsys.readouterr().err
    _, rows = read_csv(out)
    assert len(rows) == 4  # init plus three rounds


def test_dynamics_names_the_potential_that_overflows(tmp_path, capsys):
    # play converges, but the potential at its start, about (2.5e18) ** 40, is past a double
    out = tmp_path / "t.csv"
    argv = ["dynamics", "--mu", "1e20", "--alpha", "20", "--m", "2",
            "--policy", "linear", "--r1", "5e19", "--r2", "9e19", "--out", str(out)]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numerical failure: the potential overflows a float at mu=1e+20, alpha=20\n"
    )
    assert not out.exists()


def test_field_contains_a_fixed_point_row(tmp_path):
    out = tmp_path / "f.csv"
    code = main(
        [
            "field", "--mu", "10", "--alpha", "2", "--m", "2",
            "--policy", "linear", "--r1", "7.0321", "--r2", "7.8222",
            "--points", "8", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    header, rows = read_csv(out)
    assert header[1:] == ["rate_0", "rate_1", "step_0", "step_1"]
    residuals = [
        math.hypot(float(r["step_0"]), float(r["step_1"])) for r in rows
    ]
    assert min(residuals) < 1e-6  # the appended equilibrium row


def test_field_writes_where_the_potential_overflows(tmp_path):
    # the potential at the default start, about (2.5e18) ** 20, overflows a double;
    # the field marks the equilibrium from play's rates and never reads it
    out = tmp_path / "f.csv"
    code = main(["field", "--mu", "1e20", "--alpha", "20", "--m", "2", "--points", "4",
                 "--out", str(out)])
    assert code == EXIT_OK
    _, rows = read_csv(out)
    columns = ("rate_0", "rate_1", "step_0", "step_1")
    assert rows and all(math.isfinite(float(r[c])) for r in rows for c in columns)


def test_field_requires_two_users(tmp_path):
    code = main(
        ["field", "--mu", "10", "--alpha", "2", "--m", "3", "--out", str(tmp_path / "f.csv")]
    )
    assert code == EXIT_CONFIG


def test_simulate_writes_summary_and_slots_files(tmp_path):
    out = tmp_path / "s.csv"
    args = [
        "simulate", "--mu", "20", "--alpha", "2", "--m", "2",
        "--policy", "linear", "--r1", "9", "--r2", "14",
        "--rates", "5,5", "--slots", "400", "--window", "2", "--seed", "8",
        "--out", str(out),
    ]
    assert main(args) == EXIT_OK
    header, rows = read_csv(out)
    assert len(rows) == 2
    assert {r["user"] for r in rows} == {"0", "1"}
    slots_file = tmp_path / "s.slots.csv"
    sheader, srows = read_csv(slots_file)
    assert sheader[1:] == ["slot", "total_arrivals", "estimated_rate", "drop_prob"]
    assert len(srows) == 400

    # byte-identical on a repeat with the same seed
    first = out.read_bytes(), slots_file.read_bytes()
    assert main(args) == EXIT_OK
    assert (out.read_bytes(), slots_file.read_bytes()) == first


def test_simulate_rates_are_required(tmp_path, capsys):
    code = main(
        ["simulate", "--mu", "20", "--alpha", "2", "--m", "2", "--out", str(tmp_path / "s.csv")]
    )
    assert code == EXIT_CONFIG
    assert "simulate.rates" in capsys.readouterr().err


def test_simulate_negative_rate_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "neg.yaml"
    cfg.write_text(yaml.safe_dump({"game": {"mu": 20, "alpha": 2, "m": 2}, "simulate": {"rates": [-1, 2]}}))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s.csv")])
    assert code == EXIT_CONFIG
    assert "simulate.rates" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("policy", ["none", "step", "linear"])
def test_designed_rates_need_the_designed_policy(tmp_path, capsys, policy):
    code = main(
        [
            "simulate", "--mu", "20", "--alpha", "1", "--m", "3", "--epsilon", "0.05",
            "--rates", "designed", "--policy", policy, "--r1", "9", "--r2", "14",
            "--slots", "100", "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "simulate.rates" in err and "policy.kind" in err
    assert not (tmp_path / "s.csv").exists()


def test_designed_rates_run_with_the_designed_policy(tmp_path):
    out = tmp_path / "s.csv"
    code = main(
        [
            "simulate", "--mu", "20", "--alpha", "1", "--m", "3", "--epsilon", "0.05",
            "--rates", "designed", "--policy", "designed", "--slots", "300", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, slots = read_csv(tmp_path / "s.slots.csv")
    assert any(float(row["drop_prob"]) > 0.0 for row in slots)


def test_designed_simulate_solves_the_design_once(tmp_path, monkeypatch):
    from mm1game import cli

    calls = []
    solve = cli.design_linear

    def counting(spec):
        calls.append(spec)
        return solve(spec)

    monkeypatch.setattr(cli, "design_linear", counting)
    code = main(
        [
            "simulate", "--mu", "20", "--alpha", "1", "--m", "3", "--epsilon", "0.05",
            "--rates", "designed", "--policy", "designed", "--slots", "50",
            "--out", str(tmp_path / "s.csv"),
        ]
    )
    assert code == EXIT_OK
    assert len(calls) == 1


def test_simulate_json_single_file(tmp_path):
    out = tmp_path / "s.json"
    code = main(
        [
            "simulate", "--mu", "20", "--alpha", "2", "--m", "2",
            "--rates", "4,4", "--slots", "300", "--seed", "2",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    assert len(payload["users"]) == 2
    assert len(payload["slots"]["drop_prob"]) == 300


def test_sweep_grid_and_error_cells(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        [
            "sweep", "--mu", "600", "--alpha", "2", "--m", "3",
            "--desired-poas", "1.2,1.4", "--mus", "600", "--windows", "1",
            "--replications", "2", "--slots", "800", "--seed", "3",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert len(rows) == 2
    for row in rows:
        assert row["error"] == ""
        assert float(row["mean_poa"]) >= 1.0

    # an infeasible target is recorded in the table, not fatal
    code = main(
        [
            "sweep", "--mu", "600", "--alpha", "2", "--m", "2",
            "--desired-poas", "1.5", "--welfare", "sum",
            "--replications", "2", "--slots", "400",
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert rows[0]["error"] != ""


def test_sweep_window_longer_than_the_horizon_is_a_cell_error(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        [
            "sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2",
            "--windows", "500,1", "--replications", "1", "--slots", "400", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert [row["window"] for row in rows] == ["500", "1"]
    assert "window" in rows[0]["error"] and rows[1]["error"] == ""


def test_a_sweep_error_holding_a_comma_stays_in_one_quoted_cell(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        [
            "sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2",
            "--mus=-5,600", "--replications", "1", "--slots", "200", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    with open(out, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert all(None not in row and None not in row.values() for row in rows)
    assert len(rows) == 2 and len(reader.fieldnames) == 8
    assert rows[0]["error"] == "mu must be a positive finite rate, got -5.0"
    assert rows[1]["error"] == ""


def test_default_output_uses_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MM1GAME_OUT_DIR", str(tmp_path))
    code = main(["analyze", "--mu", "6", "--alpha", "2", "--m", "2"])
    assert code == EXIT_OK
    assert (tmp_path / "analyze.csv").exists()


_ANALYZE = ["analyze", "--mu", "6", "--alpha", "2", "--m", "2"]


def _analyze_output(tmp_path):
    """The bytes ``analyze`` writes to a new file."""
    want = tmp_path / "want.csv"
    assert main([*_ANALYZE, "--out", str(want)]) == EXIT_OK
    return want.read_bytes()


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["analyze", "--mu", "6", "--alpha", "2", "--m", "2", "--out", str(missing)])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    # an existing directory cannot be opened for writing either
    assert main([*_ANALYZE, "--out", str(tmp_path)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_shorter_run_over_a_longer_output_leaves_only_its_own_bytes(tmp_path, fmt):
    def simulate(slots, out):
        argv = ["simulate", "--mu", "20", "--alpha", "2", "--m", "2", "--rates", "5,5",
                "--seed", "3", "--slots", str(slots), "--format", fmt, "--out", str(out)]
        assert main(argv) == EXIT_OK
        names = [out.name, f"{out.stem}.slots.csv"] if fmt == "csv" else [out.name]
        return {name: hashlib.sha256((out.parent / name).read_bytes()).digest() for name in names}

    rewritten, fresh = tmp_path / "rewritten", tmp_path / "fresh"
    rewritten.mkdir()
    fresh.mkdir()
    long = simulate(2000, rewritten / f"s.{fmt}")
    short = simulate(300, rewritten / f"s.{fmt}")
    assert short == simulate(300, fresh / f"s.{fmt}")
    assert all(short[name] != long[name] for name in short)


def test_dev_null_takes_the_output():
    assert main([*_ANALYZE, "--out", os.devnull]) == EXIT_OK


def test_a_fifo_takes_the_output(tmp_path):
    want = _analyze_output(tmp_path)
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*_ANALYZE, "--out", str(fifo)]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [want]


def test_a_pipe_takes_the_output_through_dev_stdout(tmp_path):
    want = _analyze_output(tmp_path)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mm1game.__file__)))
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run(
        [sys.executable, "-m", "mm1game.cli", *_ANALYZE, "--out", "/dev/stdout"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=60,
    )
    assert (done.returncode, done.stderr, done.stdout) == (EXIT_OK, b"", want)


def test_a_csv_simulate_refuses_an_out_that_is_not_a_regular_file(tmp_path, capsys):
    # the per-slot trace goes to <stem>.slots<ext>, which a stream has no room for
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    argv = ["simulate", "--mu", "20", "--alpha", "1", "--m", "2", "--rates", "5,5",
            "--slots", "100", "--format", "csv", "--out", str(fifo)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: out: {fifo} is not a regular file, and CSV writes the "
        "per-slot trace to a second file beside it; use --format json\n"
    )
    with open(fifo, "wb"):  # the reader's only writer: it reads end of file
        pass
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [b""]
    assert [p.name for p in tmp_path.iterdir()] == ["fifo"]
    # one JSON file holds the trace too, so it may go to the stream
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main([*argv, "--format", "json"]) == EXIT_OK
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert len(json.loads(got[1])["slots"]["drop_prob"]) == 100


def test_a_rewrite_keeps_the_outputs_mode_and_its_symlink(tmp_path):
    want = _analyze_output(tmp_path)
    stale = b"stale bytes, longer than the output\n" * 100

    private = tmp_path / "private.csv"
    private.write_bytes(stale)
    private.chmod(0o640)
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(stale)
    link.symlink_to(target)
    inode = target.stat().st_ino

    for out in (private, link):
        assert main([*_ANALYZE, "--out", str(out)]) == EXIT_OK
    assert stat.S_IMODE(private.stat().st_mode) == 0o640
    assert private.read_bytes() == want
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want
    assert target.stat().st_ino == inode


class _FullDiskHalfway:
    """An output file whose write stores half its bytes and then fails."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_rewrite_that_fails_partway_leaves_no_old_bytes_past_the_new_end(
    tmp_path, monkeypatch, capsys
):
    want = _analyze_output(tmp_path)
    out = tmp_path / "out.csv"
    out.write_bytes(b"stale bytes, longer than the output\n" * 100)
    monkeypatch.setattr(
        mm1game.cli, "open", lambda *a, **k: _FullDiskHalfway(builtins.open(*a, **k)),
        raising=False,
    )
    assert main([*_ANALYZE, "--out", str(out)]) == EXIT_IO
    assert "i/o error" in capsys.readouterr().err
    assert out.read_bytes()[: len(want) // 2] == want[: len(want) // 2]
    assert out.stat().st_size == len(want)


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["analyze", "--mu", "6", "--alpha", "2", "--m", "2"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _reject_constant(name):
    raise AssertionError(f"bare {name} is not JSON")


_EVERY_COMMAND = [
    ["analyze", "--mu", "6", "--alpha", "1,2"],
    ["design", "--mu", "6", "--alpha", "2", "--m", "2", "--epsilon", "0.05"],
    ["dynamics", "--mu", "10", "--alpha", "2", "--m", "2", "--policy", "linear",
     "--r1", "7.0321", "--r2", "7.8222"],
    ["field", "--mu", "6", "--alpha", "2", "--m", "2", "--points", "4"],
    # a zero-rate user: log welfare -inf, empirical ratio +inf
    ["simulate", "--mu", "20", "--alpha", "1", "--m", "2", "--rates", "0,5",
     "--slots", "200", "--policy", "none"],
    # the second target is infeasible: an error cell with NaN ratios
    ["sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "2.5,1.5",
     "--welfare", "sum", "--replications", "2", "--slots", "300"],
]


@pytest.mark.parametrize(
    "argv,fmt",
    [
        pytest.param(argv, fmt, id=argv[0] if fmt == "json" else f"{argv[0]}-csv")
        for fmt in ("json", "csv")
        for argv in _EVERY_COMMAND
    ],
)
def test_every_command_writes_strict_json(tmp_path, argv, fmt):
    """JSON is strict; a missing value is null in JSON and an empty cell in CSV."""
    out = tmp_path / f"out.{fmt}"
    assert main([*argv, "--format", fmt, "--out", str(out)]) == EXIT_OK
    if fmt == "json":
        payload = json.loads(out.read_text(), parse_constant=_reject_constant)
        assert payload["schema_version"] == SCHEMA_VERSION
        rows, missing = payload.get("users", payload.get("cells")), None
    else:
        header, rows = read_csv(out)
        assert header[0] == "schema_version"
        missing = ""
    if argv[0] == "simulate":
        assert rows[0]["log_welfare"] == missing
        assert rows[0]["empirical_poa"] == missing
        assert float(rows[1]["power"]) > 0.0
    if argv[0] == "sweep":
        assert rows[0]["error"] == missing and float(rows[0]["mean_poa"]) >= 1.0
        assert rows[1]["error"] and rows[1]["mean_poa"] == rows[1]["std_poa"] == missing


# Every flag each command takes, a value for it other than the base config's,
# and the config key the flag must set.  Written out by hand, so the option
# table in the CLI is checked against an independent list.
_GAME_FLAGS = [("--mu", "12", "game.mu"), ("--alpha", "0.8", "game.alpha"), ("--m", "3", "game.m")]
_TOP_FLAGS = [("--format", "json", "format"), ("--out", "o.txt", "out")]
_POLICY_FLAGS = [
    ("--policy", "linear", "policy.kind"),
    ("--r1", "3.5", "policy.r1"),
    ("--r2", "8.5", "policy.r2"),
    ("--threshold", "4.5", "policy.threshold"),
]
_DESIGN_FLAGS = [
    ("--epsilon", "0.1", "design.epsilon"),
    ("--keep-prob", "0.85", "design.keep_prob"),
    ("--welfare", "sum", "design.welfare"),
    ("--target-effective-total", "4.5", "design.target_effective_total"),
]
_FLAGS = {
    "analyze": _TOP_FLAGS + _GAME_FLAGS,
    "design": _TOP_FLAGS + _GAME_FLAGS + _DESIGN_FLAGS,
    "dynamics": _TOP_FLAGS + _GAME_FLAGS + _POLICY_FLAGS + _DESIGN_FLAGS + [
        ("--init", "0.5,0.5", "dynamics.init"),
        ("--tol", "1e-6", "dynamics.tol"),
        ("--max-iter", "4", "dynamics.max_iter"),
        ("--mode", "simultaneous", "dynamics.mode"),
    ],
    "field": _TOP_FLAGS + _GAME_FLAGS + _POLICY_FLAGS + _DESIGN_FLAGS + [
        ("--points", "5", "field.points"),
    ],
    "simulate": _TOP_FLAGS + _GAME_FLAGS + _POLICY_FLAGS + _DESIGN_FLAGS + [
        ("--rates", "1.5,0.5", "simulate.rates"),
        ("--slots", "250", "simulate.slots"),
        ("--window", "3", "simulate.window"),
        ("--seed", "7", "simulate.seed"),
        ("--queue-mode", "analytic", "simulate.queue_mode"),
        ("--queue-cap", "50", "simulate.queue_cap"),
    ],
    "sweep": _TOP_FLAGS + _GAME_FLAGS + [
        ("--desired-poas", "1.3,1.1", "sweep.desired_poas"),
        ("--mus", "500,700", "sweep.mus"),
        ("--windows", "1,2", "sweep.windows"),
        ("--replications", "3", "sweep.replications"),
        ("--slots", "250", "sweep.slots"),
        ("--seed", "5", "sweep.seed"),
        ("--queue-mode", "analytic", "sweep.queue_mode"),
        ("--keep-prob", "0.85", "sweep.keep_prob"),
        ("--welfare", "sum", "sweep.welfare"),
    ],
}
_BASE = {
    "out": "o.txt",
    "game": {"mu": 10.0, "alpha": 1.0, "m": 2},
    "policy": {"kind": "designed", "r1": 4.0, "r2": 9.0, "threshold": 5.0},
    "design": {"epsilon": 0.05},
    "dynamics": {"tol": 1e-9},
    "field": {"points": 4},
    "simulate": {"rates": [1.0, 1.0], "slots": 200},
    "sweep": {"desired_poas": [1.2], "replications": 2, "slots": 200, "queue_mode": "event"},
}


def _run_in(directory, monkeypatch, command, config, argv):
    """Run ``command`` inside ``directory``; return its exit code and every file it wrote."""
    directory.mkdir()
    monkeypatch.chdir(directory)
    (directory / "cfg.yaml").write_text(yaml.safe_dump(config))
    code = main([command, "--config", "cfg.yaml", *argv])
    files = {p.name: p.read_bytes() for p in directory.iterdir() if p.name != "cfg.yaml"}
    return code, files


@pytest.mark.parametrize(
    "command,flag,text,key",
    [
        pytest.param(command, *case, id=f"{command} {case[0]}")
        for command, cases in _FLAGS.items()
        for case in cases
    ],
)
def test_a_flag_writes_what_its_config_key_writes(tmp_path, monkeypatch, command, flag, text, key):
    with_key = copy.deepcopy(_BASE)
    section, _, name = key.rpartition(".")
    (with_key[section] if section else with_key)[name] = yaml.safe_load(text)
    by_flag = _run_in(tmp_path / "flag", monkeypatch, command, _BASE, [flag, text])
    by_file = _run_in(tmp_path / "file", monkeypatch, command, with_key, [])
    assert by_flag == by_file
    assert by_flag[0] in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)


def test_the_flag_list_covers_every_flag(capsys):
    for command, cases in _FLAGS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        offered = set(re.findall(r"(--[a-z][a-z0-9-]*)", capsys.readouterr().out))
        assert offered == {"--help", "--config"} | {flag for flag, _, _ in cases}, command


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_each_command_parser_builds_with_its_flags(command):
    parsed = vars(_build_parser().parse_args([command]))
    assert parsed["command"] == command
    assert {"config", "out", "format", "game.mu"} <= set(parsed)


def _stock_help(argv):
    """The help ``main([*argv, "--help"])`` prints, rendered by a freshly built
    parser with argparse's own ``HelpFormatter``, which measures the terminal
    each time it is made."""
    parser = _build_parser.__wrapped__()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for p in (parser, *sub.choices.values()):
        p.formatter_class = argparse.HelpFormatter
    return (sub.choices[argv[0]] if argv else parser).format_help()


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_matches_the_stock_formatter_at_every_width(monkeypatch, capsys, command):
    argv = [] if command is None else [command]
    for columns in (40, 80, 200):  # in one process: a width kept from an earlier call fails
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == _stock_help(argv), columns


def test_the_cached_parser_carries_nothing_between_calls(tmp_path, monkeypatch):
    assert _build_parser() is _build_parser()
    argv = ["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--out", "d.csv"]
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mm1game.__file__)))
    env = {**os.environ, "PYTHONPATH": package_root}
    subprocess.run([sys.executable, "-m", "mm1game.cli", *argv], cwd=fresh, env=env, check=True)

    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--tol", "1e-3", "--out", "loose.csv"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--tol", "1e-2", "--no-such-flag"])
    assert exc.value.code == 2
    assert main(argv) == EXIT_OK
    assert (tmp_path / "d.csv").read_bytes() == (fresh / "d.csv").read_bytes()
    assert (tmp_path / "loose.csv").read_bytes() != (fresh / "d.csv").read_bytes()


def test_importing_the_cli_leaves_yaml_unloaded():
    # only a config file needs the YAML parser, so a run without one skips its import
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mm1game.__file__)))
    code = "import sys, mm1game.cli; print('yaml' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": package_root}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout == "False\n"


def test_the_top_level_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{analyze,design,dynamics,field,simulate,sweep}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv", [[], ["bogus"], ["--mu", "6"]], ids=["none", "unknown", "flag-only"]
)
def test_an_unknown_or_missing_command_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: mm1game [-h]")


def test_main_without_argv_reads_sys_argv(tmp_path, monkeypatch):
    out = tmp_path / "a.csv"
    argv = ["mm1game", "analyze", "--mu", "6", "--alpha", "2", "--m", "2", "--out", str(out)]
    monkeypatch.setattr("sys.argv", argv)
    assert main() == EXIT_OK
    _, rows = read_csv(out)
    assert rows[1]["ne_rates"] == "2.4;2.4"


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--seed", "3"],
        ["design", "--seed", "3"],
        ["dynamics", "--seed", "3"],
        ["field", "--seed", "3"],
        ["sweep", "--epsilon", "0.1"],
        ["sweep", "--target-effective-total", "4"],
        ["sweep", "--window", "2"],
    ],
    ids=lambda argv: f"{argv[0]} {argv[1]}",
)
def test_flags_for_keys_a_command_never_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_an_empty_section_takes_its_keys_from_flags(tmp_path, monkeypatch, capsys):
    argv = ["--mu", "6", "--alpha", "2", "--m", "2", "--out", "a.csv"]
    code, files = _run_in(tmp_path / "run", monkeypatch, "analyze", {"game": None}, argv)
    assert (code, capsys.readouterr().err) == (EXIT_OK, "")
    _, rows = read_csv(tmp_path / "run" / "a.csv")
    assert list(files) == ["a.csv"]
    assert rows[1]["ne_rates"] == "2.4;2.4"


def test_a_key_set_to_null_reads_as_its_default(tmp_path, monkeypatch):
    monkeypatch.delenv("MM1GAME_OUT_DIR", raising=False)
    base = {"game": {"mu": 6, "alpha": 2}, "dynamics": {"tol": 1e-9}}
    nulls = {
        "out": None,
        "format": None,
        "game": {**base["game"], "m": None},
        "policy": {"kind": None, "r1": None},
        "design": None,
        "dynamics": {**base["dynamics"], "init": None, "max_iter": None, "mode": None},
    }
    plain = _run_in(tmp_path / "plain", monkeypatch, "dynamics", base, [])
    assert plain[0] == EXIT_OK and list(plain[1]) == ["dynamics.csv"]
    assert _run_in(tmp_path / "nulls", monkeypatch, "dynamics", nulls, []) == plain


def test_a_null_m_beside_a_list_alpha_reads_as_unset(tmp_path, monkeypatch):
    monkeypatch.delenv("MM1GAME_OUT_DIR", raising=False)
    game = {"mu": 6, "alpha": [1, 2]}
    plain = _run_in(tmp_path / "plain", monkeypatch, "analyze", {"game": game}, [])
    assert plain[0] == EXIT_OK and list(plain[1]) == ["analyze.csv"]
    null_m = {"game": {**game, "m": None}}
    assert _run_in(tmp_path / "null", monkeypatch, "analyze", null_m, []) == plain


def test_out_and_format_from_the_config_file(tmp_path, monkeypatch):
    config = {"out": "result.json", "format": "json", "game": {"mu": 6, "alpha": 2, "m": 2}}
    code, files = _run_in(tmp_path / "run", monkeypatch, "analyze", config, [])
    assert code == EXIT_OK and list(files) == ["result.json"]
    assert json.loads(files["result.json"])["command"] == "analyze"


_INFEASIBLE_DESIGN = {
    "game": {"mu": 6, "alpha": 3, "m": 4},
    "design": {"epsilon": 0.001, "welfare": "sum"},
}


@pytest.mark.parametrize(
    "text,message",
    [
        ("game: 3\n", "config.game: expected a mapping"),
        ("- 1\n- 2\n", "config: cfg.yaml must hold a mapping at the top level"),
        (
            "bogus: 1\n",
            "config: unknown key(s) bogus; allowed: command, design, dynamics, field, format, "
            "game, out, policy, simulate, sweep",
        ),
        ("game:\n  users: 4\n", "config.game: unknown key(s) users; allowed: alpha, m, mu"),
        # YAML keys need not be strings
        ("game: {1: 2}\n", "config.game: unknown key(s) 1; allowed: alpha, m, mu"),
        (
            "1: 2\n",
            "config: unknown key(s) 1; allowed: command, design, dynamics, field, format, "
            "game, out, policy, simulate, sweep",
        ),
        (
            "game: {users: 4, 1: 2}\n",
            "config.game: unknown key(s) 1, users; allowed: alpha, m, mu",
        ),
        # the design is infeasible (exit 3), but the format is checked before anything runs
        (
            yaml.safe_dump({"format": "xml", **_INFEASIBLE_DESIGN}),
            "format: must be one of ['csv', 'json'], got 'xml'",
        ),
    ],
    ids=["section-not-a-mapping", "top-level-list", "unknown-top-key", "unknown-section-key",
         "int-section-key", "int-top-key", "int-and-str-keys", "bad-format-first"],
)
def test_a_bad_config_file_is_rejected_with_its_message(tmp_path, monkeypatch, capsys, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text(text)
    assert main(["design", "--config", "cfg.yaml"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


def test_invalid_yaml_and_an_unreadable_config_are_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_text("game: [1\n")
    assert main(["analyze", "--config", "cfg.yaml"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config: cfg.yaml is not valid YAML: ")
    assert main(["analyze", "--config", "missing.yaml"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: config: cannot read missing.yaml: "
        "[Errno 2] No such file or directory: 'missing.yaml'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--mu", "6", "--alpha", "3", "--m", "4", "--epsilon", "0.001", "--welfare", "sum"],
        ["simulate", "--mu", "5", "--alpha", "2", "--m", "2", "--rates", "5,5",
         "--queue-mode", "analytic"],
        ["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--init", "5,5"],
        # the closed forms' powers overflow a double: ratio**m, and **(alpha + 1)
        ["analyze", "--mu", "6", "--alpha", "3", "--m", "200"],
        ["analyze", "--mu", "6", "--alpha", "400", "--m", "2"],
        # one ulp under the optimum total the slope's numerator rounds to zero
        ["design", "--mu", "10", "--alpha", "2", "--m", "1", "--epsilon", "0.05",
         "--target-effective-total", "6.666666666666666"],
        # the plain sum's infimum m**(alpha-1) is 2**399, and 12**9999 past the float range
        ["design", "--welfare", "sum", "--alpha", "400", "--keep-prob", "0.999", "--mu", "1",
         "--m", "2", "--epsilon", "0.5"],
        ["design", "--welfare", "sum", "--alpha", "1e4", "--keep-prob", "0.99999", "--mu", "6",
         "--m", "12", "--epsilon", "0.5"],
    ],
    ids=[
        "infeasible-design", "overload", "unstable-start",
        "analyze-many-users", "analyze-large-exponent",
        "design-target-an-ulp-below-the-optimum", "design-large-exponent",
        "design-infimum-past-the-float-range",
    ],
)
def test_a_numerical_failure_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,where",
    [
        (["simulate", "--mu", "20", "--alpha", "1", "--m", "2", "--rates", "0,0"], "simulate"),
        (["sweep", "--mu", "500", "--alpha", "2", "--m", "3", "--desired-poas", "1.1",
          "--replications", "1"], "sweep"),
    ],
    ids=["simulate", "sweep"],
)
def test_a_horizon_too_large_is_a_config_error_naming_slots(
    tmp_path, monkeypatch, capsys, argv, where
):
    # 10**15 slots: refused before numpy is asked for the per-slot arrays
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--slots", "1000000000000000", "--out", "x.csv"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"configuration error: {where}: slots (1000000000000000) is more than 2**32, "
        "too many to hold in memory\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,message",
    [
        (["design", "--mu", "60", "--alpha", "1e-300", "--epsilon", "2"],
         "game: every alpha must be finite and at least 1e-30, got 1e-300"),
        (["design", "--mu", "60", "--alpha", "1e-60", "--m", "2", "--epsilon", "0.05"],
         "game: every alpha must be finite and at least 1e-30, got 1e-60"),
        (["dynamics", "--mu", "60", "--alpha", "1e-60", "--m", "2", "--policy", "designed",
          "--epsilon", "0.05"],
         "game: every alpha must be finite and at least 1e-30, got 1e-60"),
        (["design", "--mu", "9e-31", "--alpha", "2", "--m", "2", "--epsilon", "0.05"],
         "game: mu must be at least 1e-30, got 9e-31"),
        (["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--policy", "linear",
          "--r1", "9e-31", "--r2", "5"],
         "policy: need 1e-30 <= r1 <= r2 and a finite r2 on a ramp, got r1=9e-31, r2=5.0"),
    ],
    ids=["design-alpha-1e-300", "design-alpha-1e-60", "dynamics-alpha-1e-60", "mu", "linear-r1"],
)
def test_a_rate_below_the_floor_is_a_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["design", "--mu", "60", "--alpha", "1e-18", "--m", "2", "--epsilon", "0.05"],
        ["dynamics", "--mu", "60", "--alpha", "1e-18", "--m", "2", "--policy", "designed",
         "--epsilon", "0.05"],
    ],
    ids=["design", "dynamics"],
)
def test_a_design_with_rates_near_the_floor_succeeds(tmp_path, argv):
    # the designed rates are near 3e-29, a decade and a half above the floor
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    _, rows = read_csv(out)
    if argv[0] == "design":
        assert rows[0]["check_unique"] == rows[0]["check_ne_matches"] == "true"


def test_a_sweep_cell_records_a_design_below_the_floor_and_the_next_cell_still_runs(tmp_path):
    out = tmp_path / "w.json"
    # a service rate at the floor is accepted, but its design's ramp start lies below it
    argv = ["sweep", "--mu", "5000", "--alpha", "2", "--m", "2", "--mus", "1e-30,5000",
            "--desired-poas", "1.05", "--replications", "1", "--slots", "100",
            "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_OK
    below, ran = json.loads(out.read_text())["cells"]
    assert "the rate floor 1e-30" in below["error"] and below["mean_poa"] is None
    assert ran["error"] is None and math.isfinite(ran["mean_poa"])


def test_a_sweep_cell_records_an_overflowing_design_and_the_next_cell_still_runs(tmp_path):
    out = tmp_path / "w.json"
    argv = ["sweep", "--mu", "6", "--alpha", "20", "--m", "2", "--mus", "1e4,1e20",
            "--keep-prob", "0.999", "--desired-poas", "3", "--replications", "1",
            "--slots", "100", "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_OK
    ran, overflowed = json.loads(out.read_text())["cells"]
    assert ran["mu"] == 1e4 and ran["error"] is None and math.isfinite(ran["mean_poa"])
    # its design no longer overflows: its run would draw more packets than int64 counts
    assert overflowed["mu"] == 1e20 and overflowed["mean_poa"] is None
    assert overflowed["error"] == (
        "input_rates total 8.88567e+19 per slot over 100 slots is more than 2**62 packets, "
        "too many to count in int64"
    )


def test_a_simulation_whose_power_overflows_writes_it_as_missing_and_its_ratio(
    tmp_path, capsys
):
    # 4e17**20 is past a double; the ratio is formed from rates, which are not
    out = tmp_path / "big.json"
    argv = ["simulate", "--mu", "1e19", "--alpha", "20", "--m", "2", "--rates", "4e17,4e17",
            "--slots", "5", "--queue-mode", "analytic", "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().err == ""
    users = json.loads(out.read_text(), parse_constant=_reject_constant)["users"]
    for user in users:
        assert user["power"] is None and user["sum_welfare"] is None and user["log_welfare"] is None
        assert math.isfinite(user["empirical_poa"]) and user["goodput"] > 0


@pytest.mark.parametrize(
    "argv,cause",
    [
        (["analyze", "--mu", "6", "--alpha", "3", "--m", "200"],
         "the price of anarchy overflows a float at m=200, alpha=3"),
        (["analyze", "--mu", "6", "--alpha", "400", "--m", "2"],
         "the social optimum overflows a float at mu=6, alpha=400"),
        (["analyze", "--mu", "1e20", "--alpha", "20", "--m", "2"],
         "a user's utility overflows a float at mu=1e+20, alpha=20"),
    ],
    ids=["many-users", "large-exponent", "large-rate"],
)
def test_an_overflow_names_the_quantity_and_the_input(tmp_path, monkeypatch, capsys, argv, cause):
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == f"numerical failure: {cause}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name,argv",
    [
        ("run_simulation", ["simulate", "--mu", "20", "--alpha", "2", "--m", "2", "--rates", "4,4"]),
        ("run_sweep", ["sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2"]),
    ],
    ids=["run_simulation", "run_sweep"],
)
def test_a_value_error_from_the_computation_exits_3(tmp_path, monkeypatch, capsys, name, argv):
    # a bug deep in a run must not read as a configuration error
    from mm1game import cli

    def broken(*args, **kwargs):
        raise ValueError("deep in the run")

    monkeypatch.setattr(cli, name, broken)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "x.csv"]) == EXIT_NUMERIC
    assert capsys.readouterr().err == "numerical failure: deep in the run\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["dynamics", "simulate", "field"])
def test_an_infeasible_design_exits_3_under_every_command(tmp_path, monkeypatch, capsys, command):
    m = "2" if command == "field" else "4"  # field needs two users; both designs are infeasible
    spec = ["--mu", "6", "--alpha", "3", "--m", m, "--epsilon", "0.001", "--welfare", "sum"]
    monkeypatch.chdir(tmp_path)
    assert main(["design", *spec, "--out", "x.csv"]) == EXIT_NUMERIC
    expected = capsys.readouterr().err
    assert expected.startswith("numerical failure: no symmetric equilibrium")
    argv = [command, *spec, "--policy", "designed", "--out", "x.csv"]
    if command == "simulate":
        argv += ["--rates", "designed"]
    assert main(argv) == EXIT_NUMERIC
    assert capsys.readouterr().err == expected
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["--mu", "5", "--rates", "1e20,1"],  # beyond numpy's Poisson limit
        ["--mu", "1e18", "--rates", "1e17,1e17", "--slots", "100", "--queue-mode", "analytic"],
        ["--mu", "1e18", "--rates", "1e17,1e17", "--slots", "100", "--queue-mode", "analytic",
         "--window", "50"],
    ],
    ids=["poisson-limit", "int64-sums", "int64-window"],
)
def test_too_many_packets_is_a_config_error(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--alpha", "2", "--m", "2", *argv, "--out", "x.csv"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: simulate: input_rates total ")
    assert "2**62 packets" in err
    assert list(tmp_path.iterdir()) == []


def test_a_sweep_cell_with_too_many_packets_records_the_error(tmp_path):
    out = tmp_path / "w.csv"
    code = main(
        [
            "sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2",
            "--mus", "1e20,600", "--replications", "1", "--slots", "100", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    _, rows = read_csv(out)
    assert "2**62 packets" in rows[0]["error"]
    assert rows[1]["error"] == "" and float(rows[1]["mean_poa"]) >= 1.0


def test_zero_sweep_replications_names_the_key(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2"]
    assert main([*argv, "--replications", "0", "--out", "x.csv"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: sweep.replications: must be at least 1, got 0\n"
    )
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--max-iter", "3",
         "--tol", "5e-324"],
        ["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--max-iter", "1"],
        ["field", "--mu", "6", "--alpha", "2", "--m", "2", "--points", "2"],
        ["sweep", "--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2",
         "--slots", "100", "--replications", "1"],
    ],
    ids=["tol", "max-iter", "points", "replications"],
)
def test_a_bounded_key_reads_its_lower_bound(tmp_path, argv):
    # the value just below each bound exits 2: see the zero-tol, zero-max-iter and
    # one-field-point cases below and test_zero_sweep_replications_names_the_key
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) in (EXIT_OK, EXIT_NUMERIC)
    assert out.exists()


@pytest.mark.parametrize(
    "command,text,argv,message",
    [
        ("analyze", "game: {mu: fast, alpha: 2, m: 2}\n", [],
         "game.mu: expected a number, got 'fast'"),
        ("simulate", "simulate: {rates: [1, 1], slots: 2.5}\n",
         ["--mu", "6", "--alpha", "2", "--m", "2"], "simulate.slots: expected an integer, got 2.5"),
        ("sweep", "sweep: {desired_poas: []}\n", ["--mu", "600", "--alpha", "2", "--m", "2"],
         "sweep.desired_poas: expected a non-empty list of numbers, got []"),
        ("sweep", "sweep: {desired_poas: 1.2}\n", ["--mu", "600", "--alpha", "2", "--m", "2"],
         "sweep.desired_poas: expected a non-empty list of numbers, got 1.2"),
        ("analyze", "", [], "game.mu: required"),
        ("analyze", "game: {mu: 6, alpha: [1, 2], m: 3}\n", [],
         "game.m: disagrees with the length of game.alpha"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--policy", "linear",
         "--r1", "4"], "policy.r1 and policy.r2: required for a linear policy"),
        ("field", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--points", "1"],
         "field.points: must be at least 2, got 1"),
        ("simulate", None, ["--mu", "20", "--alpha", "1", "--m", "2", "--rates", "5,5",
         "--slots", "100", "--seed", "-1"], "simulate: seed must be non-negative, got -1"),
        ("sweep", None, ["--mu", "600", "--alpha", "2", "--m", "2", "--desired-poas", "1.2",
         "--replications", "1", "--slots", "100", "--seed", "-1"],
         "sweep: seed must be non-negative, got -1"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--max-iter", "-5"],
         "dynamics.max_iter: must be at least 1, got -5"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--max-iter", "0"],
         "dynamics.max_iter: must be at least 1, got 0"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--tol", "-1"],
         "dynamics.tol: must be at least 5e-324, got -1.0"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--tol", "0"],
         "dynamics.tol: must be at least 5e-324, got 0.0"),
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--tol", "nan"],
         "dynamics.tol: must be at least 5e-324, got nan"),
        # a list of rates holds one rate per user
        ("dynamics", None, ["--mu", "6", "--alpha", "2", "--m", "2", "--init", "0.1,0.1,0.1"],
         "dynamics.init: expected 2 rates, got 3"),
        ("simulate", None, ["--mu", "20", "--alpha", "1", "--m", "2", "--rates", "5"],
         "simulate.rates: expected 2 rates, got 1"),
        # YAML booleans are not the integers or numbers 1 and 0
        ("simulate", "simulate: {slots: true}\n",
         ["--mu", "20", "--alpha", "1", "--m", "2", "--rates", "5,5"],
         "simulate.slots: expected an integer, got True"),
        ("analyze", "game: {mu: 6, alpha: 2, m: true}\n", [],
         "game.m: expected an integer, got True"),
        ("analyze", "game: {mu: false, alpha: 2, m: 2}\n", [],
         "game.mu: expected a number, got False"),
        ("simulate", "simulate: {rates: [true, 1]}\n", ["--mu", "20", "--alpha", "1", "--m", "2"],
         "simulate.rates: expected a number, got True"),
    ],
    ids=["not-a-number", "non-integer-slots", "empty-desired-poas", "scalar-desired-poas",
         "empty-config-file", "m-disagrees-with-alpha-list", "linear-without-r2",
         "one-field-point", "simulate-negative-seed", "sweep-negative-seed",
         "negative-max-iter", "zero-max-iter", "negative-tol", "zero-tol", "nan-tol",
         "three-init-rates-for-two-users", "one-rate-for-two-users",
         "bool-slots", "bool-m", "bool-mu", "bool-rate"],
)
def test_an_invalid_config_value_exits_2_with_its_message(
    tmp_path, monkeypatch, capsys, command, text, argv, message
):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "cfg.yaml").write_text(text)
        argv = ["--config", "cfg.yaml", *argv]
    assert main([command, *argv, "--out", "x.csv"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ([] if text is None else ["cfg.yaml"])


def test_a_step_threshold_sets_the_step_that_dynamics_plays_against(tmp_path):
    out = tmp_path / "x.csv"
    argv = ["dynamics", "--mu", "6", "--alpha", "2", "--m", "2", "--policy", "step",
            "--threshold", "4.5", "--out", str(out)]
    assert main(argv) == EXIT_OK
    _, rows = read_csv(out)
    game = mm1game.GameConfig.uniform(6.0, 2.0, 2)
    start = mm1game.RateProfile((0.15, 0.15))
    want = mm1game.run_dynamics(game, mm1game.StepPolicy(4.5), start, tol=1e-8)
    assert [(row["rate_0"], row["rate_1"]) for row in rows] == [
        tuple(format(r, ".12g") for r in profile.rates) for profile in want.iterates
    ]
    # the drop-free equilibrium total is 4.8, so the step at 4.5 binds
    assert want.final_profile.total == pytest.approx(4.5, abs=1e-7)


def test_a_config_file_that_is_not_utf8_cannot_be_read(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.yaml").write_bytes(b"\xff\xfegame: 1\n")
    assert main(["analyze", "--config", "cfg.yaml"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: config: cannot read cfg.yaml: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n"
    )
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.yaml"]


# ------------------------------------------------- argv drawn from the option table

# Every drawn size is small: rates and service rates stay below 100, so a run
# draws at most a few hundred thousand packets, and no value asks for memory.
_JUNK = st.sampled_from(["nan", "inf", "1e300", "-1", "0", "", ",", "3", "2.5", "x"])


def _or_junk(texts, junk=_JUNK):
    """A drawn text, or one time in ten a junk one."""
    return st.sampled_from(range(10)).flatmap(lambda n: junk if n == 0 else texts)


def _number(low, high):
    return st.floats(low, high).map(repr)


def _numbers(low, high, most):
    return st.lists(_number(low, high), min_size=1, max_size=most).map(",".join)


def _count(low, high):
    return st.integers(low, high).map(str)


_DRAWN = {
    "game.mu": _number(0.5, 100.0),
    "game.alpha": _number(0.05, 5.0) | _numbers(0.05, 5.0, 3),
    "game.m": _count(1, 4),
    "policy.r1": _number(0.0, 100.0),
    "policy.r2": _number(0.0, 100.0),
    "policy.threshold": _number(0.0, 100.0),
    "design.epsilon": _number(0.01, 2.0),
    "design.keep_prob": _number(0.5, 1.0),
    "design.target_effective_total": _number(0.0, 100.0),
    "dynamics.init": _numbers(0.0, 10.0, 4),
    "simulate.rates": _numbers(0.0, 30.0, 4) | st.just("designed"),
    "simulate.slots": _count(1, 2000) | st.just("1000000000000000"),
    "simulate.window": _count(1, 50),
    "simulate.seed": _count(0, 5),
    "simulate.queue_cap": _count(1, 100_000),
    "sweep.desired_poas": _numbers(0.9, 2.0, 2),
    "sweep.mus": _numbers(0.5, 100.0, 2),
    "sweep.windows": st.lists(_count(1, 50), min_size=1, max_size=2).map(",".join),
    "sweep.slots": _count(1, 2000) | st.just("1000000000000000"),
    "sweep.seed": _count(0, 5),
    "sweep.keep_prob": _number(0.5, 1.0),
}


def _drawn(option):
    """Texts for one option's flag: in range, at and around its bound, and junk."""
    choices = _choices(option.type)
    if choices is not None:
        return st.sampled_from(range(10)).flatmap(
            lambda n: st.just("other") if n == 0 else st.sampled_from(list(choices))
        )
    if option.low is None:
        return _or_junk(_DRAWN[option.key])
    if option.type is int:  # at most low + 1: points, max_iter and replications stay small
        near = [str(option.low + step) for step in (-1, 0, 1)]
    else:
        near = [repr(v) for v in (0.0, option.low, math.nextafter(option.low, 1.0), 1e-8)]
    return _or_junk(st.sampled_from(near), st.sampled_from(["nan", "-1", "", "x"]))


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    sections = _COMMANDS[command][1]
    argv = [command]
    for option in _OPTIONS:
        section, _, name = option.key.rpartition(".")
        if option.key == "out" or (section and section not in sections):
            continue
        # a required key is given 19 times in 20, any other one time in two
        if draw(st.sampled_from(range(20))) < (1 if option.default is _REQUIRED else 10):
            continue
        flag = option.flag or "--" + name.replace("_", "-")
        argv.append(f"{flag}={draw(_drawn(option))}")
    return argv


def _assert_parses_strictly(path, fmt):
    """A JSON file with no bare NaN or Infinity, or a strict CSV table of equal-width rows."""
    with open(path, encoding="utf-8", newline="") as fh:
        if fmt == "json":
            json.load(fh, parse_constant=_reject_constant)
            return
        table = list(csv.reader(fh, strict=True))
    assert table and all(len(row) == len(table[0]) for row in table), path


@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(argv=_argv())
def test_any_argv_from_the_option_table_exits_0_2_or_3(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        try:
            code = main([*argv, f"--out={os.path.join(tmp, 'out')}"])
        except SystemExit as exc:  # argparse refuses a value its type cannot read
            code = exc.code
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
        written = sorted(os.listdir(tmp))
        fmt = next((a.partition("=")[2] for a in argv if a.startswith("--format=")), "csv")
        if code == EXIT_OK:
            assert written, argv
            for name in written:
                _assert_parses_strictly(os.path.join(tmp, name), fmt)
        elif code == EXIT_NUMERIC and "did not converge" in err.getvalue():
            assert argv[0] == "dynamics" and written == ["out"]  # the trajectory so far
            _assert_parses_strictly(os.path.join(tmp, "out"), fmt)
        else:
            assert written == []
