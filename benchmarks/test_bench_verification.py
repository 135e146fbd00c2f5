"""E6 — Sec. VIII-A verification of the twelve path models.

Regenerates the paper's verification result: "six paths with no
flowlinks and every possible combination of closeslots, openslots, and
holdslots at their ends, and six paths similar ... but with one
flowlink each" — all passing the safety check and their Sec. V
temporal specification.
"""

import pytest

from repro.verification import (PATH_TYPES, build_model, format_results,
                                sweep, verify_all, verify_model)


@pytest.mark.parametrize("path_type", sorted(PATH_TYPES))
def test_verify_plain_path(benchmark, reproduce, perf_row, path_type):
    model = build_model(path_type, with_flowlink=False)
    result = benchmark.pedantic(verify_model, args=(model,),
                                rounds=1, iterations=1)
    reproduce("verify %s" % result.key, "safety+spec",
              "pass", "pass" if result.ok else "FAIL")
    assert result.ok
    benchmark.extra_info["states"] = result.states
    perf_row(result.key, result.states, result.transitions,
             result.elapsed, config="small")


@pytest.mark.parametrize("path_type", sorted(PATH_TYPES))
def test_verify_flowlink_path(benchmark, reproduce, perf_row, path_type):
    model = build_model(path_type, with_flowlink=True)
    result = benchmark.pedantic(verify_model, args=(model,),
                                rounds=1, iterations=1)
    reproduce("verify %s" % result.key, "safety+spec",
              "pass", "pass" if result.ok else "FAIL")
    assert result.ok
    benchmark.extra_info["states"] = result.states
    perf_row(result.key, result.states, result.transitions,
             result.elapsed, config="small")


def test_full_sweep_table(benchmark, reproduce, capsys):
    """The 12-model table, printed in the spirit of Sec. VIII-A."""
    results = benchmark.pedantic(verify_all, rounds=1, iterations=1)
    print()
    print(format_results(results))
    assert all(r.ok for r in results)
    reproduce("Sec. VIII-A sweep", "12/12 models pass", "12/12",
              "%d/12" % sum(r.ok for r in results))


def test_parallel_sweep_matches_serial(benchmark, reproduce):
    """The multiprocessing sweep driver returns the same verdicts and
    state counts as the serial sweep, in the same order."""
    serial = verify_all()
    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert [(r.key, r.states, r.transitions, r.ok) for r in results] \
        == [(r.key, r.states, r.transitions, r.ok) for r in serial]
    reproduce("parallel sweep", "matches serial", "yes", "yes")
