"""The parallel sweep driver: ordering, equivalence, timeouts, dead
workers."""

import importlib
import os
import signal
import threading
import time

from repro.verification import (PATH_TYPES, SweepJob, default_jobs,
                                run_jobs, sweep, verify_all)

# The package re-exports the ``sweep`` function under the submodule's
# name, so fetch the module itself to patch its globals.
sweep_module = importlib.import_module("repro.verification.sweep")


def test_default_jobs_cover_grid_in_report_order():
    jobs = default_jobs()
    assert len(jobs) == 12
    assert [j.path_type for j in jobs[:6]] == list(PATH_TYPES)
    assert [j.flowlinks for j in jobs] == [0] * 6 + [1] * 6


def test_serial_sweep_matches_verify_all():
    serial = verify_all()
    swept = sweep(processes=1)
    assert [(r.key, r.states, r.transitions, r.safety_ok, r.property_ok)
            for r in swept] \
        == [(r.key, r.states, r.transitions, r.safety_ok, r.property_ok)
            for r in serial]


def test_parallel_sweep_matches_verify_all():
    """Worker-pool results come back in job order with identical
    counts.  (On platforms without multiprocessing this degrades to a
    serial run, which must still match.)"""
    serial = verify_all()
    swept = sweep(processes=2)
    assert [(r.key, r.states, r.transitions, r.ok) for r in swept] \
        == [(r.key, r.states, r.transitions, r.ok) for r in serial]


def test_sweep_model_kwargs_reach_workers():
    swept = sweep(path_types=["CC"], flowlink_counts=(0,),
                  processes=1, phase1_budget=2, modify_budget=2,
                  queue_capacity=8, max_versions=4)
    assert len(swept) == 1
    # the rich CC config has 379 states (seed-recorded)
    assert swept[0].states == 379


def test_per_model_timeout_truncates_not_raises():
    jobs = [SweepJob("OO", flowlinks=2, max_states=3_000_000,
                     max_seconds=0.0)]
    [result] = run_jobs(jobs, processes=1)
    assert result.truncated
    assert not result.ok  # truncated graphs are never certified


def test_state_budget_truncates_in_sweep():
    [result] = run_jobs([SweepJob("OO", flowlinks=1, max_states=40)],
                        processes=1)
    assert result.truncated
    assert result.states <= 40


def test_two_flowlink_sweep():
    results = sweep(flowlink_counts=(2,), path_types=["CC", "CH"],
                    processes=2)
    assert [r.key for r in results] == ["CC+2links", "CH+2links"]
    assert all(r.ok for r in results)


def test_dead_worker_yields_truncated_result_not_a_hang(monkeypatch):
    """Regression: a sweep worker killed mid-run used to hang the whole
    sweep inside ``Pool.map``.  The dead model must come back as a
    truncated, not-ok result next to the survivor's real one."""
    parent = os.getpid()
    real_build = sweep_module.build_model

    def build_or_die(path_type, **kwargs):
        if path_type == "CH" and os.getpid() != parent:
            # Give the sibling job a head start, then vanish the way an
            # OOM kill does: no exception, no result.
            time.sleep(0.5)
            os.kill(os.getpid(), signal.SIGKILL)
        return real_build(path_type, **kwargs)

    monkeypatch.setattr(sweep_module, "build_model", build_or_die)
    jobs = [SweepJob("CC", flowlinks=0), SweepJob("CH", flowlinks=0)]
    box = []
    worker = threading.Thread(
        target=lambda: box.append(run_jobs(jobs, processes=2)),
        daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "sweep hung on a dead worker"
    [survivor, dead] = box[0]
    assert survivor.key == "CC" and survivor.ok
    assert dead.key == "CH" and dead.truncated and not dead.ok
    assert dead.property_kind == "stability-closed"
