"""CLI tests for ``python -m repro load``."""

import io
import json

import pytest

from repro.__main__ import main as repro_main
from repro.load.cli import main as load_main


def _bench(out_text):
    """Parse the JSON report off the end of mixed text output."""
    return json.loads(out_text[out_text.index("{"):])


def test_load_smoke_with_bench_json_on_stdout():
    out = io.StringIO()
    assert load_main(["--calls", "20", "--shards", "2",
                      "--bench-json", "-"], out=out) == 0
    payload = _bench(out.getvalue())
    assert payload["config"]["apps"] == ["relay"]
    assert payload["config"]["calls_per_app"] == 20
    run = payload["runs"]["shards=2"]
    assert run["calls_done"] == 20
    assert run["calls_per_sec"] > 0
    assert run["setup_wall_seconds"]["p95"] > 0
    assert payload["summary"]["all_ok"] is True


def test_load_single_shard_reports_speedup_vs_seed():
    out = io.StringIO()
    assert load_main(["--calls", "60", "--bench-json", "-"], out=out) == 0
    payload = _bench(out.getvalue())
    summary = payload["summary"]
    assert summary["single_process_calls_per_sec"] > 0
    # 60 calls cover one full 50-call measurement window.
    assert summary["single_process_calls_per_sec_best_window"] > 0
    # The recorded baseline ships with the repo, so the speedup field
    # must be present (its value is machine-dependent).
    assert "speedup_vs_seed" in summary


def test_load_scaling_runs_each_shard_count():
    out = io.StringIO()
    assert load_main(["--calls", "8", "--scaling", "2,1",
                      "--bench-json", "-"], out=out) == 0
    payload = _bench(out.getvalue())
    assert sorted(payload["runs"]) == ["shards=1", "shards=2"]
    assert "scaling_vs_single" in payload["summary"]


def test_load_usage_errors_exit_2():
    for argv in (["--apps", "no-such-app"],
                 ["--fault-plan", "no-such-plan"],
                 ["--calls", "0"],
                 ["--shards", "0"],
                 ["--scaling", "0,2"],
                 ["--scaling", "fast"]):
        with pytest.raises(SystemExit) as exc:
            load_main(argv, out=io.StringIO())
        assert exc.value.code == 2


def test_load_fault_plan_run_exits_clean():
    out = io.StringIO()
    assert load_main(["--calls", "6", "--fault-plan", "drop10+dup10"],
                     out=out) == 0
    assert "6" in out.getvalue()


def test_load_repeat_keeps_best_run():
    out = io.StringIO()
    assert load_main(["--calls", "10", "--repeat", "3",
                      "--bench-json", "-"], out=out) == 0
    run = _bench(out.getvalue())["runs"]["shards=1"]
    assert run["repeats"] == 3
    assert len(run["calls_per_sec_runs"]) == 3
    assert run["calls_per_sec"] == max(run["calls_per_sec_runs"])


def test_load_is_wired_into_python_m_repro(capsys):
    from repro.__main__ import _DELEGATED
    assert _DELEGATED["load"][0] == "repro.load.cli"
    assert repro_main(["load", "--calls", "4"]) == 0
    assert "calls/sec" in capsys.readouterr().out
    # Usage errors surface through the delegation unchanged.
    with pytest.raises(SystemExit) as exc:
        repro_main(["load", "--apps", "no-such-app"])
    assert exc.value.code == 2


def test_load_bench_json_writes_file(tmp_path):
    path = tmp_path / "reports" / "BENCH_load.json"
    assert load_main(["--calls", "4", "--bench-json", str(path)],
                     out=io.StringIO()) == 0
    payload = json.loads(path.read_text())
    assert payload["runs"]["shards=1"]["calls_done"] == 4
