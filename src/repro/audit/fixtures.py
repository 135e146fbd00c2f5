"""Negative controls for the runtime auditor, one per RC8xx code.

The catalog proves the shipped runtime is clean; these fixtures prove
the rules would have said so if it were not.  Each is a minimal broken
source modelled on the real hot-path sites, pushed through the very
same checker the clean audit uses.

``python -m repro audit --fixtures`` runs them all and exits 1 by
design, mirroring ``repro lint --fixtures``.
"""

from __future__ import annotations

import textwrap
from typing import List

from ..staticcheck.diagnostics import Diagnostic
from ..staticcheck.fixtures import Fixture
from .arenas import check_module_source
from .determinism import check_source

__all__ = ["Fixture", "all_audit_fixtures"]


def _det_fixture(name: str, code: str, source: str,
                 state: str) -> Fixture:
    def run() -> List[Diagnostic]:
        return check_source("broken/%s.py" % code.lower(),
                            textwrap.dedent(source))
    return Fixture(name=name, code=code, run=run, state=state)


def _rc810() -> Fixture:
    # The acceptance scenario: a time.time() call injected into
    # scheduler-adjacent code.
    return _det_fixture(
        "audit-RC810", "RC810", """\
        import time

        def run_until(loop, deadline):
            start = time.time()
            while loop.pending():
                loop.step()
        """, state="broken/rc810.py:4")


def _rc811() -> Fixture:
    return _det_fixture(
        "audit-RC811", "RC811", """\
        import random

        def jitter(delay):
            return delay + random.random() * 0.01
        """, state="broken/rc811.py:4")


def _rc812() -> Fixture:
    return _det_fixture(
        "audit-RC812", "RC812", """\
        def heard_by(listeners):
            return [hear(x) for x in set(listeners)]
        """, state="broken/rc812.py:2")


def _rc813() -> Fixture:
    return _det_fixture(
        "audit-RC813", "RC813", """\
        import os

        def pick_mode():
            return os.environ.get("REPRO_MODE", "fast")
        """, state="broken/rc813.py:4")


def _rc814() -> Fixture:
    return _det_fixture(
        "audit-RC814", "RC814", """\
        def expired(loop):
            return loop.now == 1.5
        """, state="broken/rc814.py:2")


def _arena_fixture(name: str, code: str, source: str,
                   state: str) -> Fixture:
    def run() -> List[Diagnostic]:
        return check_module_source("broken/%s.py" % code.lower(),
                                   textwrap.dedent(source))
    return Fixture(name=name, code=code, run=run, state=state)


def _rc820() -> Fixture:
    # The acceptance scenario: a freelist acquire that forgets the
    # re-arm contract (no fresh seq, no callback, no _loop).
    return _arena_fixture(
        "audit-RC820", "RC820", """\
        def transmit(self, target, message, when):
            free = self._free
            if free:
                event = free.pop()
                event.time = when
                event.args = (message,)
            else:
                event = Event(when, 0, None, None, (message,), None)
            return event
        """, state="broken/rc820.py:4")


def _rc821() -> Fixture:
    # An envelope released into the pool still holding its signal.
    return _arena_fixture(
        "audit-RC821", "RC821", """\
        def process(self, message):
            deliver(message.signal)
            pool = self._loop._env_pool
            if len(pool) < _ENV_POOL_MAX:
                pool.append(message)
        """, state="broken/rc821.py:5")


def _rc822() -> Fixture:
    # A release with no cap guard: unbounded pool growth.
    return _arena_fixture(
        "audit-RC822", "RC822", """\
        def process(self, message):
            deliver(message.signal)
            message.signal = None
            pool = self._loop._env_pool
            pool.append(message)
        """, state="broken/rc822.py:5")


def _rc823() -> Fixture:
    # A re-arm that reuses the old seq: the recycled event would
    # replay its previous position in the execution order.
    return _arena_fixture(
        "audit-RC823", "RC823", """\
        def rearm(self, node, loop, when):
            event = node._stim_event
            event.time = when
            event._loop = loop
            return event
        """, state="broken/rc823.py:4")


def all_audit_fixtures() -> List[Fixture]:
    """Every negative control, in code order."""
    return [fn() for fn in (
        _rc810, _rc811, _rc812, _rc813, _rc814,
        _rc820, _rc821, _rc822, _rc823)]
