"""Runtime-configuration tests: ``describe()``'s report and hash-seed
independence of the fingerprint matrix.

The configuration is read once at import time, so every test runs in a
child interpreter with a controlled environment.  The parity test
computes the full runtime-fingerprint matrix under several values of
``PYTHONHASHSEED`` and requires byte-identical results: string hashing
(and with it set and dict-of-set iteration order) must never leak into
what the simulation does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))

_DESCRIBE_CODE = """
import json
from repro.network import backend
print(json.dumps(backend.describe()))
"""


def _probe(code: str, **env_overrides: str) -> str:
    """Run ``code`` in a child interpreter; returns its stdout."""
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_ARENA_POISON"}
    env["PYTHONPATH"] = _SRC
    env.update(env_overrides)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_default_backend_is_python():
    info = json.loads(_probe(_DESCRIBE_CODE))
    assert info == {"backend": "python", "requested": "python",
                    "compiled_loaded": False, "arena_poison": False}


def test_arena_poison_env_is_surfaced():
    info = json.loads(_probe(_DESCRIBE_CODE, REPRO_ARENA_POISON="1"))
    assert info["arena_poison"] is True


# ---------------------------------------------------------------------------
# hash-seed parity: the whole fingerprint matrix, three hash seeds
# ---------------------------------------------------------------------------

_FINGERPRINT_CODE = """
import hashlib, json
from repro.chaos.scenarios import SCENARIOS
from repro.network.faults import plan_by_name
from repro.network.network import Network
from repro.obs.export import dumps_chrome
from repro.obs.tracer import Tracer
from repro.protocol.slot import RetransmitPolicy

out = {}
for app in sorted(SCENARIOS):
    for mode in ("faithful", "faulted"):
        tracer = Tracer()
        if mode == "faithful":
            net = Network(seed=7, trace=tracer)
        else:
            net = Network(seed=7, retransmit=RetransmitPolicy(),
                          faults=plan_by_name("drop10+dup10"),
                          trace=tracer)
        SCENARIOS[app](net)
        export = dumps_chrome(tracer, meta={"app": app, "seed": 7,
                                            "mode": mode})
        out["%s@%s" % (app, mode)] = {
            "executed": net.loop.executed,
            "emitted": len(tracer.events),
            "sim_time": net.loop.now,
            "trace_sha256":
                hashlib.sha256(export.encode()).hexdigest(),
        }
print(json.dumps(out, sort_keys=True))
"""


def test_fingerprints_identical_across_hash_seeds():
    """Every bundled app, faithful and faulted, must produce the same
    executed-event count, trace volume, final clock, and byte-identical
    trace export whatever ``PYTHONHASHSEED`` the interpreter runs
    under."""
    matrices = {seed: json.loads(_probe(_FINGERPRINT_CODE,
                                        PYTHONHASHSEED=seed))
                for seed in ("0", "1", "2")}
    reference = matrices["0"]
    assert len(reference) == 12
    for seed in ("1", "2"):
        for key in sorted(reference):
            assert matrices[seed][key] == reference[key], (
                "hash-seed divergence on %s:\nseed 0: %r\nseed %s: %r"
                % (key, reference[key], seed, matrices[seed][key]))
        assert set(matrices[seed]) == set(reference)
