"""CLI: config loading, overrides, output schema, exit codes."""

import json
import math
import os

import pytest

from mm1game.cli import EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, SCHEMA_VERSION, main


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


def test_design_json_payload(tmp_path):
    out = tmp_path / "d.json"
    code = main(
        [
            "design", "--mu", "6", "--alpha", "2", "--m", "2", "--epsilon", "0.1",
            "--format", "json", "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == SCHEMA_VERSION
    (row,) = payload["design"]
    assert row["predicted_poa"] <= 1.1


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


def test_default_output_uses_env_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("MM1GAME_OUT_DIR", str(tmp_path))
    code = main(["analyze", "--mu", "6", "--alpha", "2", "--m", "2"])
    assert code == EXIT_OK
    assert (tmp_path / "analyze.csv").exists()


def test_unwritable_output_is_an_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "x.csv"
    code = main(["analyze", "--mu", "6", "--alpha", "2", "--m", "2", "--out", str(missing)])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


def test_outputs_are_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["analyze", "--mu", "6", "--alpha", "2", "--m", "2"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _reject_constant(name):
    raise AssertionError(f"bare {name} is not JSON")


@pytest.mark.parametrize(
    "argv",
    [
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
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_writes_strict_json(tmp_path, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert payload["schema_version"] == SCHEMA_VERSION
    if argv[0] == "simulate":
        assert payload["users"][0]["log_welfare"] is None
        assert payload["users"][0]["empirical_poa"] is None
        assert payload["users"][1]["power"] > 0.0
    if argv[0] == "sweep":
        cells = payload["cells"]
        assert cells[0]["error"] is None and cells[0]["mean_poa"] >= 1.0
        assert cells[1]["error"] and cells[1]["mean_poa"] is None
