"""The runtime passes under ``python -m repro lint``: target selection,
output formats, the rule catalog, the leak gate, and normalized exit
codes (0 clean / 1 findings / 2 usage error)."""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.__main__ import main as repro_main
from repro.staticcheck import runtime_targets
from repro.staticcheck.cli import main as lint_main


def _runtime_args():
    return [arg for t in runtime_targets() for arg in ("--target", t.name)]


def test_clean_audit_exits_zero():
    out = io.StringIO()
    assert lint_main(_runtime_args(), stream=out) == 0
    assert "0 error(s), 0 warning(s)" in out.getvalue()


def test_fixtures_exit_one():
    out = io.StringIO()
    assert lint_main(["--fixtures"], stream=out) == 1
    assert "audit-RC810" in out.getvalue()


def test_unknown_target_exits_two():
    assert lint_main(["--target", "runtime/determinism/no-such"],
                     stream=io.StringIO()) == 2


def test_bad_flag_exits_two():
    # The leak gate takes no ``--app``: it always replays its default
    # app.
    with pytest.raises(SystemExit) as err:
        lint_main(["--leak-gate", "--app", "pbx"], stream=io.StringIO())
    assert err.value.code == 2


def test_list_names_targets():
    out = io.StringIO()
    assert lint_main(["--list"], stream=out) == 0
    names = out.getvalue().split()
    assert "apps/pbx" in names and "runtime/arenas" in names
    assert "runtime/determinism/network" in names


def test_single_target_selection():
    out = io.StringIO()
    assert lint_main(["--target", "runtime/arenas"], stream=out) == 0
    text = out.getvalue()
    assert "runtime/arenas" in text and "1 target(s)" in text


def test_json_output_shape():
    out = io.StringIO()
    assert lint_main(["--format", "json"] + _runtime_args(),
                     stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["summary"]["errors"] == 0
    names = {t["name"] for t in payload["targets"]}
    assert "runtime/arenas" in names
    assert all(t["clean"] for t in payload["targets"])


def test_determinism_waivers_carry_reasons():
    out = io.StringIO()
    assert lint_main(["--format", "json",
                      "--target", "runtime/determinism/load"],
                     stream=out) == 0
    (target,) = json.loads(out.getvalue())["targets"]
    assert target["suppressed"], "expected waived RC810 wall-clock reads"
    # The load waiver covers wall-clock reads (the harness measures
    # throughput); anything else must surface as a real finding.
    assert {s["code"] for s in target["suppressed"]} == {"RC810"}
    assert all(s["reason"] for s in target["suppressions"])


def test_audit_list_rules_merges_catalogs():
    # The RC8xx codes live in the one code table: importing it alone,
    # in a fresh interpreter, yields the whole catalog.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.staticcheck.diagnostics import CODES; "
         "print(' '.join(sorted(CODES)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    codes = out.split()
    assert "RC101" in codes
    assert {"RC810", "RC811", "RC812", "RC813", "RC814", "RC820",
            "RC821", "RC822", "RC823"} <= set(codes)


def test_lint_list_rules_includes_audit_codes():
    out = io.StringIO()
    assert lint_main(["--list-rules"], stream=out) == 0
    text = out.getvalue()
    assert "RC101" in text and "RC810" in text and "RC823" in text


def test_main_dispatches_audit(capsys):
    assert repro_main(["lint", "--target", "runtime/arenas"]) == 0
    assert "runtime/arenas" in capsys.readouterr().out


def test_main_audit_propagates_failure_exit(capsys):
    assert repro_main(["lint", "--fixtures", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    codes = {d["code"] for t in payload["targets"]
             for d in t["diagnostics"]}
    assert "RC810" in codes and "RC823" in codes


def test_leak_gate_cli_stable():
    out = io.StringIO()
    assert lint_main(["--leak-gate", "--runs", "3"], stream=out) == 0
    assert "STABLE" in out.getvalue()


def test_leak_gate_json():
    out = io.StringIO()
    assert lint_main(["--leak-gate", "--runs", "3",
                      "--format", "json"], stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["stable"] is True
    assert len(payload["counts"]) == 3 + payload["warmup"]
