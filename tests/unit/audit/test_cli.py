"""``python -m repro audit``: output formats, target selection, the
merged rule catalog, the leak gate, and normalized exit codes
(0 clean / 1 findings / 2 usage error)."""

import io
import json

import pytest

from repro.__main__ import main as repro_main
from repro.audit.cli import main as audit_main
from repro.staticcheck.cli import main as lint_main


def test_clean_audit_exits_zero():
    out = io.StringIO()
    assert audit_main([], stream=out) == 0
    assert "0 error(s), 0 warning(s)" in out.getvalue()


def test_fixtures_exit_one():
    out = io.StringIO()
    assert audit_main(["--fixtures"], stream=out) == 1
    assert "audit-RC810" in out.getvalue()


def test_unknown_target_exits_two():
    assert audit_main(["--target", "no/such"],
                      stream=io.StringIO()) == 2


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        audit_main(["--bogus"], stream=io.StringIO())
    assert err.value.code == 2


def test_list_names_targets():
    out = io.StringIO()
    assert audit_main(["--list"], stream=out) == 0
    names = out.getvalue().split()
    assert "runtime/arenas" in names
    assert "runtime/determinism/network" in names


def test_single_target_selection():
    out = io.StringIO()
    assert audit_main(["--target", "runtime/arenas"], stream=out) == 0
    text = out.getvalue()
    assert "runtime/arenas" in text and "1 target(s)" in text


def test_json_output_shape():
    out = io.StringIO()
    assert audit_main(["--format", "json"], stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["summary"]["errors"] == 0
    names = {t["name"] for t in payload["targets"]}
    assert "runtime/arenas" in names
    assert all(t["clean"] for t in payload["targets"])


def test_determinism_waivers_carry_reasons():
    out = io.StringIO()
    assert audit_main(["--format", "json",
                       "--target", "runtime/determinism/load"],
                      stream=out) == 0
    (target,) = json.loads(out.getvalue())["targets"]
    assert target["suppressed"], "expected waived RC810 wall-clock reads"
    # The load waiver covers wall-clock reads (the harness measures
    # throughput); anything else must surface as a real finding.
    assert {s["code"] for s in target["suppressed"]} == {"RC810"}
    assert all(s["reason"] for s in target["suppressions"])


def test_audit_list_rules_merges_catalogs():
    out = io.StringIO()
    assert audit_main(["--list-rules"], stream=out) == 0
    text = out.getvalue()
    assert "RC101" in text and "RC810" in text and "RC823" in text


def test_lint_list_rules_includes_audit_codes():
    out = io.StringIO()
    assert lint_main(["--list-rules"], stream=out) == 0
    text = out.getvalue()
    assert "RC101" in text and "RC810" in text


def test_main_dispatches_audit(capsys):
    assert repro_main(["audit", "--target", "runtime/arenas"]) == 0
    assert "runtime/arenas" in capsys.readouterr().out


def test_main_audit_propagates_failure_exit(capsys):
    assert repro_main(["audit", "--fixtures"]) == 1
    capsys.readouterr()


def test_leak_gate_cli_stable(capsys):
    out = io.StringIO()
    assert audit_main(["--leak-gate", "--runs", "3"], stream=out) == 0
    assert "STABLE" in out.getvalue()


def test_leak_gate_json(capsys):
    out = io.StringIO()
    assert audit_main(["--leak-gate", "--runs", "3",
                       "--format", "json"], stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["stable"] is True
    assert len(payload["counts"]) == 3 + payload["warmup"]


def test_leak_gate_unknown_app_exits_two():
    assert audit_main(["--leak-gate", "--app", "no_such_app"],
                      stream=io.StringIO()) == 2
