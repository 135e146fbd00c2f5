"""Benchmark-suite helpers.

Two reporting channels:

* ``reproduce`` — collect paper-vs-measured rows and print a summary
  table at the end of the run (unchanged from the seed).
* ``perf_row`` + ``--bench-json`` — collect per-model verification
  performance rows (states, transitions, wall time, states/sec) and,
  when ``--bench-json[=PATH]`` is passed, write them to
  ``BENCH_verification.json`` together with the speedup against the
  recorded seed baseline (``benchmarks/baselines/verification_seed.json``),
  so the perf trajectory is machine-readable across PRs.
"""

import os
import sys

import pytest

from repro.tools.bench import emit, load_baseline
from repro.tools.bench import geomean as _geomean

_ROWS = []
_PERF = {}

_BASELINE_PATH = os.path.join(os.path.dirname(__file__), "baselines",
                              "verification_seed.json")


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", action="store", nargs="?",
        const="BENCH_verification.json", default=None,
        metavar="PATH",
        help="write per-model verification perf rows (states/sec, wall "
             "time, speedup vs the recorded seed baseline) to PATH "
             "(default: BENCH_verification.json)")


def record_row(experiment, quantity, paper, measured, unit="ms"):
    """Register one reproduction row for the end-of-run table."""
    _ROWS.append((experiment, quantity, paper, measured, unit))


@pytest.fixture
def reproduce():
    return record_row


def record_perf(key, states, transitions, elapsed, config="small"):
    """Register one verification perf row, keyed ``model@config``."""
    _PERF["%s@%s" % (key, config)] = {
        "states": states,
        "transitions": transitions,
        "elapsed": elapsed,
        "states_per_sec": states / elapsed if elapsed > 0 else None,
    }


@pytest.fixture
def perf_row():
    return record_perf


def _write_bench_json(path):
    baseline = load_baseline(_BASELINE_PATH, key="models")
    speedups = []
    models = {}
    for key, row in sorted(_PERF.items()):
        entry = dict(row)
        base = baseline.get(key)
        if base:
            entry["seed_elapsed"] = base["elapsed"]
            entry["counts_match_seed"] = (
                base.get("states") == row["states"]
                and base.get("transitions") == row["transitions"])
            if row["elapsed"] > 0 and base["elapsed"] > 0:
                entry["speedup_vs_seed"] = base["elapsed"] / row["elapsed"]
                speedups.append(entry["speedup_vs_seed"])
        models[key] = entry
    payload = {
        "baseline": os.path.relpath(_BASELINE_PATH),
        "models": models,
        "summary": {
            "models_measured": len(models),
            "geomean_speedup_vs_seed": _geomean(speedups),
            "all_counts_match_seed": all(
                e.get("counts_match_seed", True) for e in models.values()),
        },
    }
    emit(path, payload, sys.stdout)
    return payload


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    tr = terminalreporter
    json_path = config.getoption("--bench-json")
    if json_path and _PERF:
        payload = _write_bench_json(json_path)
        summary = payload["summary"]
        tr.write_sep("=", "verification perf -> %s" % json_path)
        tr.write_line("models measured: %d" % summary["models_measured"])
        if summary["geomean_speedup_vs_seed"] is not None:
            tr.write_line("geomean speedup vs seed baseline: %.2fx"
                          % summary["geomean_speedup_vs_seed"])
        tr.write_line("state/transition counts match seed: %s"
                      % summary["all_counts_match_seed"])
    if not _ROWS:
        return
    tr.write_sep("=", "paper reproduction summary")
    tr.write_line("%-34s %-30s %14s %14s" % (
        "experiment", "quantity", "paper", "measured"))
    for experiment, quantity, paper, measured, unit in _ROWS:
        paper_s = ("%.1f %s" % (paper, unit)) if isinstance(
            paper, (int, float)) else str(paper)
        measured_s = ("%.1f %s" % (measured, unit)) if isinstance(
            measured, (int, float)) else str(measured)
        tr.write_line("%-34s %-30s %14s %14s" % (
            experiment, quantity, paper_s, measured_s))
