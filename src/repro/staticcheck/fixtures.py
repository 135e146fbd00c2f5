"""Deliberately-broken miniature programs and runtime sources, one per
diagnostic code.

Each fixture is the smallest program (or declaration) that triggers its
code, with the expected location recorded so the test suite can assert
code, state name, and slot name — and so ``python -m repro lint
--fixtures`` demonstrates every rule firing (expected exit status 1).

These are the analyzer's negative controls: the catalog proves the
bundled programs and the runtime are clean, the fixtures prove the
rules would have said so if they were not.  The RC8xx controls are
minimal broken sources modelled on the real hot-path sites, pushed
through the very same checkers the catalog's runtime targets use.
"""

from __future__ import annotations

import textwrap
from dataclasses import dataclass
from typing import Callable, List, Optional

from ..core.predicates import is_closed, is_flowing
from ..core.program import (END, State, Transition, close_slot, flow_link,
                            hold_slot, on_channel_down, on_meta, open_slot)
from ..protocol.codecs import AUDIO, G711, G726, NO_MEDIA, VIDEO
from .arenas import check_module_source
from .determinism import check_source
from .diagnostics import Diagnostic
from .graph import extract_states
from .hygiene import (CodecListDecl, SelectorCacheDecl, check_hygiene)
from .rules import check_graph

__all__ = ["Fixture", "all_fixtures"]


@dataclass(frozen=True)
class Fixture:
    """One broken program plus the diagnostic it must trigger."""

    name: str                    # e.g. "broken-RC201"
    code: str                    # the code the fixture must produce
    run: Callable[[], List[Diagnostic]]
    state: Optional[str] = None  # expected diagnostic location
    slot: Optional[str] = None

    def matches(self, diagnostic: Diagnostic) -> bool:
        """Does ``diagnostic`` report this fixture's planted defect?"""
        return (diagnostic.code == self.code
                and (self.state is None or diagnostic.state == self.state)
                and (self.slot is None or diagnostic.slot == self.slot))


def _graph_fixture(name, states, initial, slots=(), media=None):
    def run() -> List[Diagnostic]:
        return check_graph(extract_states(name, states, initial,
                                          slots=slots, media=media))
    return run


# ----------------------------------------------------------------------
# one broken program per code
# ----------------------------------------------------------------------
def _rc101() -> Fixture:
    # "orphan" has an outgoing edge but nothing ever enters it.
    states = {
        "start": State(goals=(hold_slot("s"),),
                       transitions=(Transition(on_channel_down(), END),)),
        "orphan": State(goals=(hold_slot("s"),),
                        transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC101", "RC101",
                   _graph_fixture("broken-RC101", states, "start",
                                  slots=("s",)),
                   state="orphan")


def _rc102() -> Fixture:
    # Two states ping-ponging on meta-signals; END is never a target.
    states = {
        "ping": State(goals=(hold_slot("s"),),
                      transitions=(Transition(on_meta("app", "go"),
                                              "pong"),)),
        "pong": State(goals=(hold_slot("s"),),
                      transitions=(Transition(on_meta("app", "back"),
                                              "ping"),)),
    }
    return Fixture("broken-RC102", "RC102",
                   _graph_fixture("broken-RC102", states, "ping",
                                  slots=("s",)),
                   state="ping")


def _rc103() -> Fixture:
    # "stuck" is entered and has no way out (and no timeout).
    states = {
        "start": State(goals=(hold_slot("s"),),
                       transitions=(
                           Transition(on_meta("app", "go"), "stuck"),
                           Transition(on_channel_down(), END),)),
        "stuck": State(goals=(hold_slot("s"),), transitions=()),
    }
    return Fixture("broken-RC103", "RC103",
                   _graph_fixture("broken-RC103", states, "start",
                                  slots=("s",)),
                   state="stuck")


def _rc201() -> Fixture:
    # One state claims slot "x" with two different annotations.
    states = {
        "start": State(goals=(hold_slot("x"), open_slot("x", AUDIO)),
                       transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC201", "RC201",
                   _graph_fixture("broken-RC201", states, "start",
                                  slots=("x",)),
                   state="start", slot="x")


def _rc202() -> Fixture:
    # A flowlink waits for media on a slot another annotation closes.
    states = {
        "start": State(goals=(flow_link("x", "y"), close_slot("x")),
                       transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC202", "RC202",
                   _graph_fixture("broken-RC202", states, "start",
                                  slots=("x", "y")),
                   state="start", slot="x")


def _rc203() -> Fixture:
    # A flowlink joining a declared-audio slot to a declared-video slot.
    states = {
        "start": State(goals=(flow_link("mic", "screen"),),
                       transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC203", "RC203",
                   _graph_fixture("broken-RC203", states, "start",
                                  slots=("mic", "screen"),
                                  media={"mic": AUDIO, "screen": VIDEO}),
                   state="start", slot="mic")


def _rc301() -> Fixture:
    # Waiting for is_flowing on a slot the same state's closeslot keeps
    # out of the flowing state: the guard can never fire.
    states = {
        "start": State(goals=(close_slot("x"),),
                       transitions=(
                           Transition(is_flowing("x"), "next"),
                           Transition(on_channel_down(), END),)),
        "next": State(goals=(hold_slot("x"),),
                      transitions=(Transition(is_closed("x"), END),)),
    }
    return Fixture("broken-RC301", "RC301",
                   _graph_fixture("broken-RC301", states, "start",
                                  slots=("x",)),
                   state="start", slot="x")


def _rc302() -> Fixture:
    # Two transitions racing on the identical guard: only the first
    # declared can ever fire.
    states = {
        "start": State(goals=(hold_slot("s"),),
                       transitions=(
                           Transition(on_meta("app", "go"), "left"),
                           Transition(on_meta("app", "go"), "right"),
                           Transition(on_channel_down(), END),)),
        "left": State(goals=(hold_slot("s"),),
                      transitions=(Transition(on_channel_down(), END),)),
        "right": State(goals=(hold_slot("s"),),
                       transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC302", "RC302",
                   _graph_fixture("broken-RC302", states, "start",
                                  slots=("s",)),
                   state="start")


def _rc401() -> Fixture:
    # The annotation names slot "ghost" that was never declared.
    states = {
        "start": State(goals=(hold_slot("ghost"),),
                       transitions=(Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC401", "RC401",
                   _graph_fixture("broken-RC401", states, "start",
                                  slots=("s",)),
                   state="start", slot="ghost")


def _rc501() -> Fixture:
    # G.726 listed before the higher-fidelity G.711: not best-first.
    def run() -> List[Diagnostic]:
        decl = CodecListDecl("broken-box", "audio preference",
                             (G726, G711))
        return check_hygiene("broken-RC501", codec_lists=(decl,))
    return Fixture("broken-RC501", "RC501", run)


def _rc502() -> Fixture:
    # noMedia mixed into a list of real codecs.
    def run() -> List[Diagnostic]:
        decl = CodecListDecl("broken-box", "audio preference",
                             (G711, NO_MEDIA))
        return check_hygiene("broken-RC502", codec_lists=(decl,))
    return Fixture("broken-RC502", "RC502", run)


def _rc503() -> Fixture:
    # The cache has seen version 1 but still answers version 0 — the
    # Fig. 2 stale-descriptor hijack, caught statically.
    def run() -> List[Diagnostic]:
        from ..protocol.descriptor import DescriptorFactory, Selector
        factory = DescriptorFactory(origin="broken-server")
        stale = factory.no_media()   # version 0
        fresh = factory.no_media()   # version 1 supersedes it
        cache = SelectorCacheDecl(
            owner="broken-server cache",
            descriptors=(stale, fresh),
            selectors=(Selector(answers=stale.id, address=None,
                                codec=NO_MEDIA),))
        return check_hygiene("broken-RC503", selector_caches=(cache,))
    return Fixture("broken-RC503", "RC503", run)


def _rc601() -> Fixture:
    # A close/open path checked against recurrence-flowing: the close
    # end rejects every open, so bothFlowing can never recur.
    def run() -> List[Diagnostic]:
        from ..verification.models import build_model
        from .pathlint import check_model
        model = build_model("CO")
        model.property_kind = "recurrence-flowing"
        return check_model(model)
    return Fixture("broken-RC601", "RC601", run)


def _rc701() -> Fixture:
    # "dialing" opens a slot and waits only for it to flow: if the
    # open's retry budget runs out (robust mode), the slot falls back to
    # closed and the program is stranded — no slotFailed/isClosed
    # transition, no timeout.
    states = {
        "dialing": State(goals=(open_slot("s", AUDIO),),
                         transitions=(
                             Transition(is_flowing("s"), "talking"),)),
        "talking": State(goals=(hold_slot("s"),),
                         transitions=(
                             Transition(on_channel_down(), END),)),
    }
    return Fixture("broken-RC701", "RC701",
                   _graph_fixture("broken-RC701", states, "dialing",
                                  slots=("s",)),
                   state="dialing", slot="s")


# ----------------------------------------------------------------------
# the runtime passes: one broken source per RC8xx code
# ----------------------------------------------------------------------
#: ``(code, checker, line the finding must point at, source)``.
_RUNTIME_SOURCES = (
    # A time.time() call injected into scheduler-adjacent code.
    ("RC810", check_source, 4, """\
        import time

        def run_until(loop, deadline):
            start = time.time()
            while loop.pending():
                loop.step()
        """),
    ("RC811", check_source, 4, """\
        import random

        def jitter(delay):
            return delay + random.random() * 0.01
        """),
    ("RC812", check_source, 2, """\
        def heard_by(listeners):
            return [hear(x) for x in set(listeners)]
        """),
    ("RC813", check_source, 4, """\
        import os

        def pick_mode():
            return os.environ.get("REPRO_MODE", "fast")
        """),
    ("RC814", check_source, 2, """\
        def expired(loop):
            return loop.now == 1.5
        """),
    # A freelist acquire that forgets the re-arm contract (no fresh
    # seq, no callback, no _loop).
    ("RC820", check_module_source, 4, """\
        def transmit(self, target, message, when):
            free = self._free
            if free:
                event = free.pop()
                event.time = when
                event.args = (message,)
            else:
                event = Event(when, 0, None, None, (message,), None)
            return event
        """),
    # An envelope released into the pool still holding its signal.
    ("RC821", check_module_source, 5, """\
        def process(self, message):
            deliver(message.signal)
            pool = self._loop._env_pool
            if len(pool) < _ENV_POOL_MAX:
                pool.append(message)
        """),
    # A release with no cap guard: unbounded pool growth.
    ("RC822", check_module_source, 5, """\
        def process(self, message):
            deliver(message.signal)
            message.signal = None
            pool = self._loop._env_pool
            pool.append(message)
        """),
    # A re-arm that reuses the old seq: the recycled event would replay
    # its previous position in the execution order.
    ("RC823", check_module_source, 4, """\
        def rearm(self, node, loop, when):
            event = node._stim_event
            event.time = when
            event._loop = loop
            return event
        """),
)


def _runtime_fixture(code, check, line, source) -> Fixture:
    relpath = "broken/%s.py" % code.lower()

    def run() -> List[Diagnostic]:
        return check(relpath, textwrap.dedent(source))
    return Fixture("audit-%s" % code, code, run,
                   state="%s:%d" % (relpath, line))


def all_fixtures() -> List[Fixture]:
    """Every broken fixture, one per diagnostic code, in code order."""
    return [_rc101(), _rc102(), _rc103(), _rc201(), _rc202(), _rc203(),
            _rc301(), _rc302(), _rc401(), _rc501(), _rc502(), _rc503(),
            _rc601(), _rc701()] + [_runtime_fixture(*entry)
                                   for entry in _RUNTIME_SOURCES]
