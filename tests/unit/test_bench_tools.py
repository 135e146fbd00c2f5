"""Unit tests for the shared report and argument plumbing."""

import argparse
import io
import json

import pytest

from repro.tools.bench import (emit, geomean, load_baseline, positive,
                               speedup_vs_seed)


def test_write_text_creates_parent_directories(tmp_path):
    path = tmp_path / "a" / "b" / "report.json"
    out = io.StringIO()
    emit(str(path), "hello\n", out)
    assert path.read_text() == "hello\n"  # a str is written verbatim
    assert out.getvalue() == ""


def test_emit_json_to_file_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "deep" / "out.json"
    emit(str(path), {"b": 1, "a": 2}, io.StringIO())
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


def test_emit_json_dash_writes_to_stream():
    out = io.StringIO()
    emit("-", {"k": "v"}, out)
    assert out.getvalue() == '{\n  "k": "v"\n}\n'
    out = io.StringIO()
    emit("-", "verbatim", out)
    assert out.getvalue() == "verbatim"


def test_positive_type_rejects_zero_negative_and_junk():
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=positive(int))
    parser.add_argument("--s", type=positive(float))
    args = parser.parse_args(["--n", "3", "--s", "0.5"])
    assert (args.n, args.s) == (3, 0.5)
    for argv in (["--n", "0"], ["--n", "-2"], ["--n", "x"],
                 ["--s", "0"], ["--s", "nan"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2


def test_load_baseline_missing_file_is_empty(tmp_path):
    assert load_baseline(str(tmp_path / "nope.json")) == {}


def test_load_baseline_corrupt_file_is_empty(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert load_baseline(str(path)) == {}
    path.write_text('["a list, not a dict"]')
    assert load_baseline(str(path)) == {}


def test_load_baseline_key_selects_section(tmp_path):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps({"models": {"OO": {"elapsed": 1.0}},
                                "note": "text"}))
    assert load_baseline(str(path), key="models") == {
        "OO": {"elapsed": 1.0}}
    assert load_baseline(str(path), key="missing") == {}
    assert load_baseline(str(path), key="note") == {}  # non-dict section


def test_geomean():
    assert geomean([]) is None
    assert geomean([4.0]) == 4.0
    assert geomean([1.0, 4.0]) == pytest.approx(2.0)


def test_speedup_vs_seed_guards_missing_and_zero():
    assert speedup_vs_seed(None, 1.0) is None
    assert speedup_vs_seed(1.0, None) is None
    assert speedup_vs_seed(0.0, 1.0) is None
    assert speedup_vs_seed(2.0, 0.0) is None
    assert speedup_vs_seed(2.0, 1.0) == 2.0
