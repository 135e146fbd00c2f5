"""The trace-event taxonomy.

Every event is a small frozen dataclass of plain strings and numbers —
no live object references — so recording an event can never keep a
slot, channel, or box alive, and exports serialize without custom
encoders.  Timestamps are simulated-clock seconds; with one seed, the
whole event stream is reproduced bit-for-bit.

This module deliberately imports nothing from the runtime layers at
module scope: the protocol, core, and network packages all import it,
and the one helper that needs signal types (:func:`signal_label`) binds
them lazily on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "TraceEvent", "SignalSent", "SignalReceived", "SlotTransition",
    "SlotDrop", "Retransmit", "SlotFailed", "SlotFailureRecord",
    "GoalEvent", "ProgramStep", "FaultInjected", "ChannelEvent",
    "LiveWireEvent", "signal_label",
]

_SIGNAL_TYPES: Optional[Tuple[type, type]] = None


def signal_label(message: Any) -> str:
    """One-line label for a wire message, e.g. ``open(alice#0)`` or
    ``select(noMedia)``.

    This is the canonical label of every trace renderer, so a trace
    timeline and a message-sequence chart of the same run agree line
    for line.
    """
    global _SIGNAL_TYPES
    if _SIGNAL_TYPES is None:
        from ..protocol.signals import MetaMessage, TunnelMessage
        _SIGNAL_TYPES = (TunnelMessage, MetaMessage)
    tunnel_type, meta_type = _SIGNAL_TYPES
    if isinstance(message, tunnel_type):
        signal = message.signal
        descriptor = getattr(signal, "descriptor", None)
        selector = getattr(signal, "selector", None)
        if descriptor is not None:
            detail = "noMedia" if descriptor.is_no_media \
                else str(descriptor.id)
            return "%s(%s)" % (signal.kind, detail)
        if selector is not None:
            detail = "noMedia" if selector.is_no_media \
                else str(selector.answers)
            return "select(%s)" % detail
        return signal.kind
    if isinstance(message, meta_type):
        return str(message.signal)
    return str(message)


@dataclass(frozen=True)
class TraceEvent:
    """Base class: a timestamped, categorized observation."""

    ts: float

    #: Coarse grouping used by exporters and subscribers.
    category = "event"
    #: Default event name within the category.
    name = "event"

    def event_name(self) -> str:
        """Name within the category (subclasses may derive it from a
        field, e.g. a goal event is named after its action)."""
        return type(self).name

    def args(self) -> Dict[str, Any]:
        """All fields but the timestamp, as a JSON-friendly dict."""
        return {f.name: getattr(self, f.name)
                for f in fields(self) if f.name != "ts"}

    def describe(self) -> str:
        """One flight-recorder / timeline line (no timestamp)."""
        detail = " ".join("%s=%s" % (k, v)
                          for k, v in sorted(self.args().items()))
        return "%s.%s %s" % (self.category, self.event_name(), detail)


# ----------------------------------------------------------------------
# signaling plane
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SignalSent(TraceEvent):
    """A message was handed to a signaling channel's link (before any
    fault policy touches it).  ``tunnel`` is ``None`` for channel-scope
    meta-signals."""

    channel: str
    source: str
    target: str
    kind: str
    label: str
    tunnel: Optional[str] = None

    category = "signal"
    name = "send"

    def describe(self) -> str:
        where = "%s/%s" % (self.channel, self.tunnel) if self.tunnel \
            else self.channel
        return "signal.send %s %s -> %s : %s" % (
            where, self.source, self.target, self.label)


@dataclass(frozen=True)
class SignalReceived(TraceEvent):
    """A tunnel signal was processed by a slot (``accepted`` is the
    slot's verdict: passed up to the controlling goal, or consumed)."""

    channel: str
    agent: str
    tunnel: str
    kind: str
    label: str
    state_before: str
    state_after: str
    accepted: bool

    category = "signal"
    name = "recv"

    def describe(self) -> str:
        return "signal.recv %s/%s at %s : %s [%s -> %s]%s" % (
            self.channel, self.tunnel, self.agent, self.label,
            self.state_before, self.state_after,
            "" if self.accepted else " (consumed)")


# ----------------------------------------------------------------------
# slot FSM
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SlotTransition(TraceEvent):
    """A slot moved between Fig. 9 protocol states."""

    slot: str
    channel: str
    tunnel: str
    end: str
    side: int
    old: str
    new: str
    cause: str
    medium: str = ""

    category = "slot"
    name = "transition"

    def describe(self) -> str:
        return "slot.transition %s %s -> %s (%s)" % (
            self.slot, self.old, self.new, self.cause)


@dataclass(frozen=True)
class SlotDrop(TraceEvent):
    """A slot consumed a signal without a state change: a race-losing
    open (``race``), an absorbed robust-mode repeat (``duplicate``), a
    signal drained while closing (``stale``), or an out-of-place signal
    dropped in robust mode (``invalid``)."""

    slot: str
    channel: str
    tunnel: str
    kind: str
    signal: str = ""

    category = "slot"
    name = "drop"

    def describe(self) -> str:
        return "slot.drop %s %s%s" % (
            self.slot, self.kind,
            " (%s)" % self.signal if self.signal else "")


@dataclass(frozen=True)
class Retransmit(TraceEvent):
    """A robust-mode timer re-sent an unacknowledged signal."""

    slot: str
    channel: str
    tunnel: str
    kind: str
    attempt: int

    category = "slot"
    name = "retransmit"

    def describe(self) -> str:
        return "slot.retransmit %s %s attempt=%d" % (
            self.slot, self.kind, self.attempt)


@dataclass(frozen=True)
class SlotFailed(TraceEvent):
    """A slot exhausted its retransmission budget and degraded to
    ``closed`` without media (the ``noMedia`` fallback)."""

    slot: str
    channel: str
    tunnel: str
    reason: str

    category = "slot"
    name = "failed"

    def describe(self) -> str:
        return "slot.failed %s reason=%s" % (self.slot, self.reason)


@dataclass(frozen=True)
class SlotFailureRecord:
    """The payload a box keeps (and hands to ``on_slot_failed``
    observers) for one retransmission-budget failure: identity, cause,
    time, and the flight recorder's tail at the moment of failure."""

    slot: str
    reason: str
    time: float
    flight_tail: Tuple[str, ...] = ()

    def to_json(self) -> Dict[str, Any]:
        return {"slot": self.slot, "reason": self.reason,
                "time": self.time, "flight_tail": list(self.flight_tail)}


# ----------------------------------------------------------------------
# goals and programs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoalEvent(TraceEvent):
    """A goal object gained (``install``) or lost (``release``) control
    of its slots — the goal-rewrite seam of Sec. VII."""

    box: str
    goal: str
    slots: Tuple[str, ...]
    action: str

    category = "goal"

    def event_name(self) -> str:
        return self.action

    def describe(self) -> str:
        return "goal.%s %s %s(%s)" % (
            self.action, self.box, self.goal, ",".join(self.slots))


@dataclass(frozen=True)
class ProgramStep(TraceEvent):
    """A state-oriented box program took a transition."""

    box: str
    source: str
    target: str

    category = "program"
    name = "step"

    def describe(self) -> str:
        return "program.step %s %s -> %s" % (self.box, self.source,
                                             self.target)


# ----------------------------------------------------------------------
# adversary and channel lifecycle
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The fault layer acted on a link: ``drop``, ``duplicate``,
    ``reorder``, ``flap-down``, ``flap-up``, ``crash``, ``restart``."""

    link: str
    action: str
    detail: str = ""

    category = "fault"

    def event_name(self) -> str:
        return self.action

    def describe(self) -> str:
        return "fault.%s %s%s" % (
            self.action, self.link,
            " %s" % self.detail if self.detail else "")


@dataclass(frozen=True)
class ChannelEvent(TraceEvent):
    """Signaling-channel lifecycle: ``up`` at creation, ``teardown`` at
    the initiating side, ``gone`` when the peer learns of it."""

    channel: str
    action: str
    initiator: str = ""
    responder: str = ""

    category = "channel"

    def event_name(self) -> str:
        return self.action

    def describe(self) -> str:
        extra = " (%s -- %s)" % (self.initiator, self.responder) \
            if self.initiator or self.responder else ""
        return "channel.%s %s%s" % (self.action, self.channel, extra)


@dataclass(frozen=True)
class LiveWireEvent(TraceEvent):
    """Live-transport lifecycle (:mod:`repro.livenet`): connections
    dialed/accepted/lost/reconnected, frames shipped/received, live
    channels opened/closed.  ``ts`` is the node's *simulated* clock (the
    wall-anchored pump clock), like every other event; ``peer`` is the
    remote node or connection label and ``detail`` a short free-form
    qualifier (reason slug, frame kind, channel id)."""

    action: str
    peer: str = ""
    detail: str = ""

    category = "live"

    def event_name(self) -> str:
        return self.action

    def describe(self) -> str:
        return "live.%s %s%s" % (
            self.action, self.peer,
            " %s" % self.detail if self.detail else "")


#: All exported event classes, for subscribers that dispatch by type.
EVENT_TYPES: List[type] = [
    SignalSent, SignalReceived, SlotTransition, SlotDrop, Retransmit,
    SlotFailed, GoalEvent, ProgramStep, FaultInjected, ChannelEvent,
    LiveWireEvent,
]
__all__.append("EVENT_TYPES")
