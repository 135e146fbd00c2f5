"""Arena poisoning (``REPRO_ARENA_POISON=1``): use-after-release fails
loudly, and legal recycling paths are completely unaffected.

The flag is read once at import in :mod:`repro.network.backend`, so
the end-to-end checks run child interpreters; the guard-level checks
monkeypatch the per-module poison switches directly.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.protocol import channel
from repro.protocol.channel import ChannelEnd
from repro.protocol.signals import (POISONED_SIGNAL, Close,
                                    TunnelMessage, _PoisonedSignal)
from repro.network import transport
from repro.network.transport import _poisoned_event_fired

_SRC = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "src"))


# ----------------------------------------------------------------------
# the sentinel
# ----------------------------------------------------------------------
def test_sentinel_attribute_access_raises():
    with pytest.raises(RuntimeError, match="use-after-release"):
        POISONED_SIGNAL.kind


def test_sentinel_repr_is_safe():
    # Tracebacks and debuggers repr the envelope holding the sentinel;
    # that must not itself raise.
    assert "poisoned" in repr(POISONED_SIGNAL)
    assert "poisoned" in repr(TunnelMessage("t0", POISONED_SIGNAL))


def test_sentinel_is_a_singleton_sentinel():
    assert type(POISONED_SIGNAL) is _PoisonedSignal


# ----------------------------------------------------------------------
# delivery guard (channel) and freelist guard (transport)
# ----------------------------------------------------------------------
class _LiveEnd:
    alive = True


def test_poisoned_envelope_delivery_raises(monkeypatch):
    monkeypatch.setattr(channel, "_ARENA_POISON", True)
    message = TunnelMessage("t0", POISONED_SIGNAL)
    with pytest.raises(RuntimeError, match="use-after-release"):
        ChannelEnd._process(_LiveEnd(), message)


def test_poison_guard_off_by_default(monkeypatch):
    # With poisoning off the guard must not even evaluate: a real
    # (non-poisoned) signal proceeds into normal dispatch, which here
    # fails on the fake end's missing slots — *after* the guard.
    assert channel._ARENA_POISON is False
    message = TunnelMessage("t0", Close())
    with pytest.raises(AttributeError):
        ChannelEnd._process(_LiveEnd(), message)


def test_poisoned_event_callback_raises():
    with pytest.raises(RuntimeError, match="use-after-release"):
        _poisoned_event_fired()


def test_harvest_poisons_callback_under_flag(monkeypatch):
    from repro.network.eventloop import Event

    class _Link:
        _compact_pending = transport.Link._compact_pending

    link = _Link()
    fired = Event(1.0, 0, 1, lambda: None, (), None)
    fired._loop = None  # executed: harvestable
    link._pending = [fired]
    link._free = []
    link._compact_threshold = 8

    monkeypatch.setattr(transport, "_ARENA_POISON", True)
    link._compact_pending()
    assert link._free == [fired]
    assert fired.callback is _poisoned_event_fired


# ----------------------------------------------------------------------
# end-to-end: poisoning is transparent on legal paths
# ----------------------------------------------------------------------
def _run_poisoned(code: str) -> str:
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_ARENA_POISON"}
    env["REPRO_ARENA_POISON"] = "1"
    env["PYTHONPATH"] = _SRC
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_scenarios_run_identically_under_poison():
    # Every bundled app replays under poisoning with the same executed
    # count and final clock — recycling always re-arms before reuse.
    out = _run_poisoned("""
        import json
        from repro.chaos.scenarios import SCENARIOS
        from repro.network.backend import ARENA_POISON
        from repro.network.network import Network
        assert ARENA_POISON
        out = {}
        for app in sorted(SCENARIOS):
            net = Network(seed=7)
            SCENARIOS[app](net)
            out[app] = [net.loop.executed, net.loop.now]
        print(json.dumps(out, sort_keys=True))
        """)
    plain = subprocess.run(
        [sys.executable, "-c", textwrap.dedent("""
            import json
            from repro.chaos.scenarios import SCENARIOS
            from repro.network.network import Network
            out = {}
            for app in sorted(SCENARIOS):
                net = Network(seed=7)
                SCENARIOS[app](net)
                out[app] = [net.loop.executed, net.loop.now]
            print(json.dumps(out, sort_keys=True))
            """)],
        env={k: v for k, v in os.environ.items()
             if k != "REPRO_ARENA_POISON"}
        | {"PYTHONPATH": _SRC},
        capture_output=True, text=True)
    assert plain.returncode == 0, plain.stderr
    assert out == plain.stdout.strip()
