"""``python -m repro lint``: output formats and normalized exit codes
(0 clean / 1 findings / 2 usage error)."""

import io
import json

import pytest

from repro.__main__ import main as repro_main
from repro.staticcheck.cli import main as lint_main


def test_clean_catalog_exits_zero():
    out = io.StringIO()
    assert lint_main([], stream=out) == 0
    assert "0 error(s), 0 warning(s)" in out.getvalue()


def test_fixtures_exit_one():
    out = io.StringIO()
    assert lint_main(["--fixtures"], stream=out) == 1
    assert "broken-RC101" in out.getvalue()


def test_unknown_target_exits_two():
    assert lint_main(["--target", "no/such"], stream=io.StringIO()) == 2


def test_bad_flag_exits_two():
    # ``--runs`` only counts leak-gate replays: alone it is a usage
    # error, not a silent full-catalog lint, and a gate over zero
    # replays would pass without measuring anything.
    for argv in (["--bogus"], ["--runs", "3"],
                 ["--leak-gate", "--runs", "0"],
                 ["--leak-gate", "--runs", "-1"]):
        with pytest.raises(SystemExit) as err:
            lint_main(argv, stream=io.StringIO())
        assert err.value.code == 2


def test_list_names_targets():
    out = io.StringIO()
    assert lint_main(["--list"], stream=out) == 0
    names = out.getvalue().split()
    assert "apps/pbx" in names and "models/CO+link" in names


def test_single_target_selection():
    out = io.StringIO()
    assert lint_main(["--target", "apps/pbx"], stream=out) == 0
    text = out.getvalue()
    assert "apps/pbx" in text and "1 target(s)" in text


def test_json_output_shape():
    out = io.StringIO()
    assert lint_main(["--format", "json", "--target", "apps/prepaid"],
                     stream=out) == 0
    payload = json.loads(out.getvalue())
    assert payload["summary"]["targets"] == 1
    (target,) = payload["targets"]
    assert target["name"] == "apps/prepaid"
    assert target["clean"] is True
    assert target["suppressed"][0]["code"] == "RC102"
    assert target["suppressions"][0]["reason"]


def test_json_fixture_output_reports_findings():
    out = io.StringIO()
    assert lint_main(["--format", "json", "--fixtures"],
                     stream=out) == 1
    payload = json.loads(out.getvalue())
    assert payload["summary"]["errors"] > 0
    codes = {d["code"] for t in payload["targets"]
             for d in t["diagnostics"]}
    assert "RC201" in codes and "RC601" in codes


def test_main_dispatches_lint(capsys):
    assert repro_main(["lint", "--target", "apps/conference"]) == 0
    assert "apps/conference" in capsys.readouterr().out


def test_main_lint_propagates_failure_exit(capsys):
    assert repro_main(["lint", "--fixtures"]) == 1
    capsys.readouterr()


def test_main_usage_error_exits_two():
    with pytest.raises(SystemExit) as err:
        repro_main(["frobnicate"])
    assert err.value.code == 2
