"""The ledger's own tests: each workload at a tiny size passes its
output checks, and each check fires on a doctored result.

    python3 -m pytest ledger/test_ledger.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import run  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS, Apps, Churn, Live, Relay, Verify  # noqa: E402


def _ran(workload, seconds=0.05):
    workload.setup()
    phase = workload.measure(seconds)
    workload.close()
    assert phase.attempted >= 1
    assert workload.check() == []
    return phase


# ----------------------------------------------------------------------
# output checks: clean at a tiny size, firing on doctored results
# ----------------------------------------------------------------------
def test_relay_check_fires_on_a_wrong_event_count():
    relay = Relay(1)
    _ran(relay)
    relay.events += 1
    assert any("events" in p for p in relay.check())


def test_apps_check_fires_on_a_wrong_fingerprint():
    apps = Apps(1)
    _ran(apps)
    apps.fingerprints["pbx"].append(json.dumps({"ac_two_way": False}))
    assert any(p.startswith("pbx:") for p in apps.check())


def test_churn_check_fires_on_broken_accounting():
    churn = Churn(1)
    _ran(churn)
    assert churn.session["started"] > 0
    churn.session["completed"] += 1
    assert any("accounting" in p for p in churn.check())


def test_verify_check_fires_on_a_flipped_verdict_and_a_wrong_count():
    verify = Verify(1, big=False)
    phase = _ran(verify, seconds=0)
    assert phase.attempted == 1  # one sweep
    assert len(verify.results) == 1 + 12  # the warm-up, then the sweep
    key, result = verify.results[3]
    result.property_ok = False
    assert any(p.startswith(key + ": verdict") for p in verify.check())
    result.property_ok = True
    result.states += 1
    assert any(p.startswith(key + ":") and "baseline" in p
               for p in verify.check())


def test_live_checks_fire_on_lost_parity_and_a_429():
    live = Live(1)
    _ran(live, seconds=0.2)
    assert live.first["parity"] is True
    live.first["parity"] = False
    assert any("parity" in p for p in live.check())
    live.first["parity"] = True
    live.responses.append((429, {"error": {"reason": "rate-limited"}}))
    assert any(p.startswith("status 429") for p in live.check())


def test_live_check_fires_on_a_leaked_channel():
    live = Live(1)
    live.setup()
    gateway = live.stack[2]
    held = live.aio.run_until_complete(
        gateway.place_call(to="bob@b", hold=True))
    assert held["state"] == "flowing"
    live.close()
    assert any(p.startswith("live channels left") for p in live.check())


# ----------------------------------------------------------------------
# the traced run
# ----------------------------------------------------------------------
def test_seam_hit_check_and_uninstall():
    from repro.protocol.slot import Slot
    original = Slot.receive
    tracer = Tracer()
    tracer.install()
    try:
        assert Slot.receive is not original
        relay = Relay(1, tracer)
        _ran(relay)
    finally:
        tracer.uninstall()
    assert Slot.receive is original
    assert tracer.missed(Relay.expected_seams) == []
    # A seam the workload never reaches reads as missed, not as zero.
    assert tracer.missed(("core.program", "livenet.wire")) == \
        ["core.program", "livenet.wire"]


# ----------------------------------------------------------------------
# the command line, BENCHMARK.json and the comparison
# ----------------------------------------------------------------------
def test_benchmark_json_names_the_ledger():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(PER_LAYER)


def test_compare_refuses_different_backends(tmp_path):
    for side, backend in (("base", "python"), ("cand", "compiled")):
        os.makedirs(tmp_path / side)
        report = {"workload": "relay", "environment": {
            "backend": {"backend": backend}},
            "result": {"metrics": {}}}
        with open(tmp_path / side / "relay-seed0-trace0.json", "w") as fh:
            json.dump(report, fh)
    assert compare.main([str(tmp_path / "base"),
                         str(tmp_path / "cand")]) == 2


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "ledger/run.py", "--workload", "relay", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == ""


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 99) == 99.0
    assert run.percentile(values, 50) == 50.0
    assert run.percentile([3.0], 99) == 3.0


def test_typical_is_the_median_of_per_kind_medians():
    assert run.typical([1.0, 2.0, 9.0], []) == 2.0
    times = [1.0, 1.2, 2.0, 2.2, 5.0, 5.2]
    kinds = ["a", "a", "b", "b", "c", "c"]
    assert run.typical(times, kinds) == 2.1


def test_tail_is_the_median_of_block_p95s():
    block = [1.0] * 960 + [2.0] * 40
    slow = [1.0] * 900 + [9.0] * 100
    assert run.tail(block + block + slow) == 1.0
    # Fewer than two blocks: the p95 of all ops.
    assert run.tail([1.0] * 1500 + [7.0] * 70) == 1.0
    assert run.tail([1.0] * 10 + [7.0]) == 7.0
