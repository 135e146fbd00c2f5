"""Tests for the unified ``python -m repro`` entry point and the
``trace`` / ``sweep`` subcommand CLIs."""

import io
import json

import pytest

from repro import __version__
from repro.__main__ import main as repro_main
from repro.obs.cli import main as trace_main
from repro.verification.cli import main as sweep_main


# ----------------------------------------------------------------------
# the top-level entry point
# ----------------------------------------------------------------------
def test_version_flag(capsys):
    assert repro_main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == "repro %s" % __version__


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("latency", "verify", "scenario", "lint",
                 "chaos", "sweep", "trace", "serve", "call",
                 "live-demo", "all"):
        assert name in out


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        repro_main(["frobnicate"])
    assert exc.value.code == 2
    # The runtime passes run under ``repro lint``; there is no
    # ``audit`` command.
    with pytest.raises(SystemExit) as exc:
        repro_main(["audit"])
    assert exc.value.code == 2


def test_verify_has_no_parallel_flags(capsys):
    # ``repro sweep`` is the one parallel front door.
    for flags in (["--parallel"], ["--jobs", "2"], ["--max-states", "9"]):
        with pytest.raises(SystemExit) as exc:
            repro_main(["verify"] + flags)
        assert exc.value.code == 2


def test_every_registry_target_resolves_to_a_callable():
    # The registry is the single source of dispatch: every entry's
    # ``module[:function]`` target must import and resolve.
    import importlib
    from repro.__main__ import _DELEGATED
    for name, (target, _desc) in _DELEGATED.items():
        module_path, _, function = target.partition(":")
        module = importlib.import_module(module_path)
        assert callable(getattr(module, function or "main")), name


def test_serve_and_call_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        repro_main(["call"])  # --gateway/--to are required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        repro_main(["serve", "--peer", "not-a-hostport"])
    assert exc.value.code == 2


def test_trace_subcommand_is_dispatched(capsys):
    assert repro_main(["trace", "--list-apps"]) == 0
    assert "click_to_dial" in capsys.readouterr().out


def test_delegated_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        repro_main(["trace", "no_such_app"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# python -m repro trace
# ----------------------------------------------------------------------
def test_trace_summary_text():
    out = io.StringIO()
    assert trace_main(["click_to_dial"], out=out) == 0
    text = out.getvalue()
    assert "== trace click_to_dial (seed 7) ==" in text
    assert "spans (3):" in text
    assert "signals.sent" in text
    assert "fingerprint:" in text


def test_trace_json_export_is_valid_and_deterministic(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert trace_main(["click_to_dial", "--json", str(path)],
                          out=io.StringIO()) == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    payload = json.loads(first)
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 3  # one per media channel of click_to_dial
    assert payload["otherData"]["app"] == "click_to_dial"
    assert payload["otherData"]["seed"] == 7


def test_trace_json_to_stdout_is_pure_json():
    out = io.StringIO()
    assert trace_main(["click_to_dial", "--json", "-"], out=out) == 0
    json.loads(out.getvalue())  # no summary mixed in


def test_trace_timeline_and_category_filter():
    out = io.StringIO()
    assert trace_main(["click_to_dial", "--timeline",
                       "--category", "program,goal"], out=out) == 0
    lines = out.getvalue().splitlines()
    assert lines
    assert all(" program." in l or " goal." in l for l in lines)


def test_trace_msc_lines_format():
    out = io.StringIO()
    assert trace_main(["click_to_dial", "--msc"], out=out) == 0
    for line in out.getvalue().splitlines():
        assert " -> " in line and " : " in line


def test_trace_with_fault_plan_records_faults(tmp_path):
    path = tmp_path / "faulted.json"
    out = io.StringIO()
    assert trace_main(["click_to_dial", "--plan", "drop10+dup10",
                       "--json", str(path)], out=out) == 0
    payload = json.loads(path.read_text())
    assert payload["otherData"]["plan"]["name"] == "drop10+dup10"
    assert payload["otherData"]["retransmit"] is True


def test_trace_rejects_unknown_plan_and_missing_app():
    with pytest.raises(SystemExit) as exc:
        trace_main(["click_to_dial", "--plan", "nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        trace_main([])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# python -m repro sweep
# ----------------------------------------------------------------------
def test_sweep_single_path_type(tmp_path):
    out = io.StringIO()
    trace_path = tmp_path / "sweep.json"
    results_path = tmp_path / "results.json"
    code = sweep_main(["--path-type", "CC", "--jobs", "1",
                       "--json", str(results_path),
                       "--trace-json", str(trace_path)], out=out)
    assert code == 0
    text = out.getvalue()
    assert "CC" in text and "CC+link" in text
    results = json.loads(results_path.read_text())
    assert [r["key"] for r in results] == ["CC", "CC+link"]
    assert all(r["safety_ok"] and r["property_ok"] for r in results)
    trace = json.loads(trace_path.read_text())
    slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert [s["name"] for s in slices] == ["CC", "CC+link"]
    # Serial layout: each slice starts where the previous ended.
    assert slices[1]["ts"] == pytest.approx(slices[0]["ts"]
                                            + slices[0]["dur"])
    assert trace["otherData"]["models"] == 2


def test_sweep_truncation_exits_one():
    out = io.StringIO()
    code = sweep_main(["--path-type", "CC", "--jobs", "1",
                       "--max-states", "10"], out=out)
    assert code == 1
    assert "truncated" in out.getvalue()


def test_sweep_rejects_unknown_path_type():
    with pytest.raises(SystemExit) as exc:
        sweep_main(["--path-type", "ZZ"])
    assert exc.value.code == 2


# ----------------------------------------------------------------------
# python -m repro chaos --trace-json
# ----------------------------------------------------------------------
def test_chaos_trace_json_single_and_multi_app(tmp_path):
    from repro.chaos.cli import main as chaos_main
    single = tmp_path / "one.json"
    code = chaos_main(["--app", "click_to_dial",
                       "--trace-json", str(single)], out=io.StringIO())
    assert code == 0
    payload = json.loads(single.read_text())
    assert payload["otherData"]["app"] == "click_to_dial"
    assert payload["otherData"]["converged"] is True

    multi = tmp_path / "many.json"
    code = chaos_main(["--app", "pbx", "--app", "prepaid",
                       "--trace-json", str(multi)], out=io.StringIO())
    assert code == 0
    for app in ("pbx", "prepaid"):
        per_app = tmp_path / ("many.%s.json" % app)
        assert json.loads(per_app.read_text())["otherData"]["app"] == app


def test_chaos_divergence_report_carries_flight_tail():
    from repro.chaos.cli import main as chaos_main
    out = io.StringIO()
    code = chaos_main(["--app", "click_to_dial", "--no-retransmit"],
                      out=out)
    assert code == 1
    assert "flight recorder tail" in out.getvalue()
