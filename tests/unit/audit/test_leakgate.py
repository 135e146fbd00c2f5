"""The dynamic pass: replayed apps return the process to a steady
object population, and the gate's verdict arithmetic is sound."""

import pytest

from repro.staticcheck.leakgate import LeakReport, run_leak_gate


def test_click_to_dial_is_stable():
    report = run_leak_gate(runs=3)
    assert report.stable, report.format()
    assert len(report.counts) == report.warmup + 3


def test_every_bundled_app_is_stable():
    from repro.chaos.scenarios import SCENARIOS
    for app in sorted(SCENARIOS):
        report = run_leak_gate(app=app, runs=2)
        assert report.stable, report.format()


def test_unknown_app_raises():
    with pytest.raises(KeyError):
        run_leak_gate(app="no_such_app")


def test_report_flags_growth():
    report = LeakReport(app="x", runs=3, warmup=1, tolerance=8,
                        counts=[50, 100, 130, 160],
                        refcounts=[None] * 4)
    assert report.window == [100, 130, 160]
    assert report.spread == 60 and report.growth == 60
    assert not report.stable
    assert "LEAKING" in report.format()


def test_report_tolerates_jitter_within_bound():
    report = LeakReport(app="x", runs=3, warmup=1, tolerance=8,
                        counts=[50, 100, 104, 98],
                        refcounts=[None] * 4)
    assert report.spread == 6 and report.stable
    assert report.to_json()["stable"] is True
