"""Unit tests for the ``repro soak`` command-line interface."""

import io
import json

import pytest

from repro.load.soak_cli import build_parser, main as soak_main


_SMOKE = ["--epochs", "4", "--epoch-seconds", "0.5", "--no-gate"]


def test_help_names_the_profiles_and_gates():
    text = build_parser().format_help()
    assert "repro soak" in text
    assert "--profile" in text and "--bench-json" in text
    for name in ("steady", "overload", "churn"):
        assert name in text


def test_list_profiles():
    out = io.StringIO()
    assert soak_main(["--list-profiles"], out=out) == 0
    listing = out.getvalue()
    for name in ("steady", "overload", "churn"):
        assert name in listing
    assert "admission caps" in listing  # overload advertises its limits


def test_usage_errors_exit_2():
    for argv in (["--profile", "no-such-profile"],
                 ["--epochs", "0"],
                 ["--epoch-seconds", "-1"]):
        with pytest.raises(SystemExit) as exc:
            soak_main(argv, out=io.StringIO())
        assert exc.value.code == 2


def test_smoke_run_reports_one_line_per_profile():
    out = io.StringIO()
    assert soak_main(_SMOKE, out=out) == 0
    text = out.getvalue()
    assert text.startswith("steady")
    assert "gate=ok" in text and "safety=ok" in text


def test_bench_json_written_to_file(tmp_path):
    path = tmp_path / "BENCH_soak.json"
    out = io.StringIO()
    assert soak_main(_SMOKE + ["--bench-json", str(path)], out=out) == 0
    payload = json.loads(path.read_text())
    assert payload["config"]["profiles"] == ["steady"]
    assert payload["summary"]["all_ok"] is True
    assert payload["summary"]["safety_violations"] == 0
    run = payload["runs"]["steady"]
    assert run["sessions"]["started"] > 0
    assert len(run["epochs"]) == 4
    assert run["metrics"]["counters"]["soak.sessions.started"] \
        == run["sessions"]["started"]


def test_multiple_profiles_aggregate_in_the_summary():
    out = io.StringIO()
    code = soak_main(["--profile", "steady", "--profile", "churn",
                      "--bench-json", "-"] + _SMOKE[:4] + ["--no-gate"],
                     out=out)
    assert code == 0
    text = out.getvalue()
    payload = json.loads(text[text.index("{"):])
    assert set(payload["runs"]) == {"steady", "churn"}
    assert payload["summary"]["total_sessions"] == sum(
        r["sessions"]["started"] for r in payload["runs"].values())


def test_soak_is_wired_into_python_m_repro(capsys):
    from repro.__main__ import _DELEGATED, main as repro_main
    assert "soak" in _DELEGATED
    assert repro_main(["soak", "--list-profiles"]) == 0
    # The default stream is the current stdout, not the one bound when
    # the module was imported.
    assert "steady" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        repro_main(["soak", "--profile", "no-such-profile"])
