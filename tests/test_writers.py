"""The column-wise CSV writer and the compact JSON writer against per-cell references.

The references are the record writers the CLI used before it wrote columns:
one ``format(value, ".12g")`` per float cell, a CSV row per record, and JSON
indented by the pure-Python encoder.  The CSV reference quotes text cells as
``csv.writer(lineterminator="\\n")`` does.
"""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mm1game.cli import SCHEMA_VERSION, write_csv, write_json

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 0.1, 1e-7, 123456789012.5]


def _reference_cell(value):
    if isinstance(value, float):
        return format(value, ".12g") if math.isfinite(value) else ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_csv(records):
    lines = [",".join(["schema_version", *records[0]])]
    for record in records:
        lines.append(",".join([SCHEMA_VERSION, *map(_reference_cell, record.values())]))
    return "\n".join(lines) + "\n"


def _finite_or_null(value):
    if isinstance(value, np.ndarray):  # a trace array is written as the list it holds
        value = value.tolist()
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def _reference_json(payload):
    body = {"schema_version": SCHEMA_VERSION, **payload}
    return json.dumps(_finite_or_null(body), indent=2, allow_nan=False) + "\n"


_floats = st.floats() | st.sampled_from(_SPECIAL)
_ints = st.integers(-(2**63), 2**63 - 1)
# no surrogates, which UTF-8 cannot encode
_chars = st.characters(exclude_categories=("Cs",))
_texts = st.text(_chars) | st.sampled_from(
    ["a,b", 'say "hi"', "line\nbreak", "cr\r", '"', ",", "nul\x00", ""]
)
_cells = st.one_of(_floats, _ints, st.booleans(), st.none(), _texts)


def _column(n):
    """A column of n cells: a typed array, a list of one kind, or a mixed list."""
    return st.one_of(
        st.lists(_floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.float64)),
        st.lists(_ints, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=np.int64)),
        st.lists(_floats, min_size=n, max_size=n),
        st.lists(_ints, min_size=n, max_size=n),
        st.lists(_texts, min_size=n, max_size=n),
        st.lists(_cells, min_size=n, max_size=n),
    )


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 12))
    width = draw(st.integers(1, 6))
    return {f"c{j}": draw(_column(n)) for j in range(width)}


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_write_csv_matches_the_record_writer(tmp_path_factory, columns):
    path = tmp_path_factory.getbasetemp() / "writers.csv"
    write_csv(str(path), columns)
    n = len(next(iter(columns.values())))
    as_lists = {
        key: col.tolist() if isinstance(col, np.ndarray) else col for key, col in columns.items()
    }
    records = [{key: col[i] for key, col in as_lists.items()} for i in range(n)]
    text = path.read_bytes().decode("utf-8")
    assert text == _reference_csv(records)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["schema_version", *columns]
    for row, record in zip(rows[1:], records, strict=True):
        assert len(row) == len(columns) + 1
        for cell, value in zip(row[1:], record.values()):
            if isinstance(value, str):
                assert cell == value  # text reads back intact


# Small pools, so that values repeat and each distinct one is formatted once.
# NaNs of different payloads have distinct bits but one text; -0.0 and 0.0 do not.
_NAN_PAYLOAD = float(np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0])
_FLOAT_POOL = [*_SPECIAL, -math.nan, _NAN_PAYLOAD, 1.5, -2.25, 1e300]
_INT_POOL = [0, 1, -1, 7, 10**12, 2**63 - 1, -(2**63)]
_NAN32_PAYLOAD = float(np.array([0x7FC00001], dtype=np.uint32).view(np.float32)[0])
_FLOAT32_POOL = [v for v in _FLOAT_POOL if v != 1e300] + [_NAN32_PAYLOAD]  # 1e300 overflows


@st.composite
def _trace_arrays(draw):
    """A float64, float32 or int64 array, sometimes as a strided
    (non-contiguous) view.  It holds either up to 300 entries drawn from a
    few pool values, or 257-600 mostly distinct ones, as a slot index (an
    ``arange``, from 0 or offset) or a column of random floats holds."""
    if draw(st.booleans()):
        pool, dtype = draw(st.sampled_from(
            [(_FLOAT_POOL, np.float64), (_FLOAT32_POOL, np.float32), (_INT_POOL, np.int64)]
        ))
        values = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        n = draw(st.integers(1, 300))
        array = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype)
    else:
        n = draw(st.integers(257, 600))
        dtype = draw(st.sampled_from([np.float64, np.float32, np.int64]))
        if dtype is np.int64:
            array = np.arange(n, dtype=dtype) + draw(st.just(0) | st.integers(-(10**12), 10**12))
        else:
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            array = (rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-8, 9, n)).astype(dtype)
    return np.repeat(array, 2)[::2] if draw(st.booleans()) else array


@settings(max_examples=200, deadline=None)
@given(_trace_arrays(), _trace_arrays())
def test_writers_format_repeated_values_as_each_cell_alone(tmp_path_factory, first, second):
    n = max(len(first), len(second))  # the shorter one repeats, so both keep their length
    first, second = (a if len(a) == n else np.resize(a, n) for a in (first, second))
    path = tmp_path_factory.getbasetemp() / "repeats.csv"
    write_csv(str(path), {"first": first, "second": second})
    records = [{"first": a, "second": b} for a, b in zip(first.tolist(), second.tolist())]
    assert path.read_bytes().decode("utf-8") == _reference_csv(records)

    path = tmp_path_factory.getbasetemp() / "repeats.json"
    write_json(str(path), {"trace": first, "slots": {"a": first, "b": second}})
    texts = [json.dumps(_finite_or_null(array.tolist())) for array in (first, second)]
    expected = '{"schema_version": "%s", "trace": %s, "slots": {"a": %s, "b": %s}}\n' % (
        SCHEMA_VERSION, texts[0], texts[0], texts[1],
    )
    assert path.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize(
    "values",
    [[3, 0, 3], [4, 0, 3], [0, -1, 2], [], [2**63 - 1, 0]],
    ids=["largest-is-the-length", "largest-past-the-length", "negative", "empty", "wide"],
)
def test_an_int_column_is_written_as_str_of_each_entry(tmp_path, values):
    column = np.array(values, dtype=np.int64)
    write_csv(str(tmp_path / "ints.csv"), {"v": column})
    lines = (tmp_path / "ints.csv").read_text(encoding="utf-8").splitlines()
    assert lines == ["schema_version,v", *(f"{SCHEMA_VERSION},{v}" for v in values)]
    write_json(str(tmp_path / "ints.json"), {"v": column})
    assert (tmp_path / "ints.json").read_text(encoding="utf-8") == (
        f'{{"schema_version": "{SCHEMA_VERSION}", "v": {json.dumps(values)}}}\n'
    )


_json_leaves = st.one_of(_floats, _ints, st.booleans(), st.none(), st.text())
_payloads = st.dictionaries(
    st.text(),
    st.recursive(
        _json_leaves,
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
        max_leaves=30,
    ),
    max_size=5,
)


def _reject_constant(name):
    raise AssertionError(f"bare {name} is not JSON")


@settings(max_examples=150, deadline=None)
@given(_payloads)
def test_write_json_parses_to_the_indented_reference(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "writers.json"
    write_json(str(path), payload)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n") and "\n" not in text[:-1]  # one line
    expected = json.loads(_reference_json(payload))
    assert json.loads(text, parse_constant=_reject_constant) == expected


def test_write_json_on_a_slot_trace_with_and_without_non_finite_values(tmp_path):
    rng = np.random.default_rng(1)
    trace = {
        "total_arrivals": tuple(rng.poisson(5.0, 300).tolist()),
        "estimated_rate": tuple(rng.uniform(0.0, 10.0, 300).tolist()),
    }
    for log_welfare in (-3.5, -math.inf):
        payload = {"users": [{"log_welfare": log_welfare}], "slots": trace}
        write_json(str(tmp_path / "s.json"), payload)
        text = (tmp_path / "s.json").read_text(encoding="utf-8")
        assert json.loads(text, parse_constant=_reject_constant) == json.loads(
            _reference_json(payload)
        )


def test_write_json_encodes_every_dict_member_by_member(tmp_path):
    payload = {
        "summary": {"ratios": [1.5, math.nan, 2.0], "label": "a,b"},  # no array, a NaN in a list
        "slots": {"arrivals": np.array([3, 0, 7]), "drop": np.array([0.0, math.inf, 0.25])},
        "cells": [{"poa": math.inf, "error": "x"}, {"poa": 1.25, "error": None}],
    }
    write_json(str(tmp_path / "d.json"), payload)
    expected = json.dumps(_finite_or_null({"schema_version": SCHEMA_VERSION, **payload}))
    assert (tmp_path / "d.json").read_text(encoding="utf-8") == expected + "\n"


def test_simulate_json_walks_only_the_summary_rows(tmp_path, monkeypatch):
    # a zero-rate user: log welfare -inf and ratio +inf in every summary row
    from mm1game import cli

    payloads, walked = [], []
    write_json_, finite_or_null = cli.write_json, cli._finite_or_null

    def recording_write_json(path, payload):
        payloads.append(payload)
        write_json_(path, payload)

    def recording_finite_or_null(value):
        walked.append(value)
        return finite_or_null(value)

    monkeypatch.setattr(cli, "write_json", recording_write_json)
    monkeypatch.setattr(cli, "_finite_or_null", recording_finite_or_null)
    out = tmp_path / "s.json"
    argv = [
        "simulate", "--mu", "20", "--alpha", "1", "--m", "2", "--rates", "0,5",
        "--slots", "500", "--format", "json", "--out", str(out),
    ]
    assert cli.main(argv) == cli.EXIT_OK
    (payload,) = payloads
    assert any(value is payload["users"] for value in walked)
    traces = [payload["slots"], *payload["slots"].values()]
    assert not any(value is trace for value in walked for trace in traces)
    text = out.read_text(encoding="utf-8")
    assert json.loads(text, parse_constant=_reject_constant) == json.loads(
        _reference_json(payload)
    )
