"""The Box: a peer module involved in media control (Secs. III-A, VII).

"We use the word box as a short synonym for 'peer module involved in
media control'."  A box owns channel ends (and hence slots), a
:class:`~repro.core.maps.Maps` object associating slots with goal
objects, and optionally a state-oriented program
(:mod:`repro.core.program`).

Signal flow mirrors Fig. 11: the box receives a stimulus, the slot
updates its protocol state, ``Maps`` finds the goal object, and the goal
sees the signal through ``goalReceive``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..network.eventloop import EventLoop
from ..obs.events import SlotFailureRecord
from ..protocol.channel import ChannelEnd, SignalingAgent
from ..protocol.codecs import Medium, NO_MEDIA
from ..protocol.descriptor import Descriptor, DescriptorFactory, Selector
from ..protocol.errors import ConfigurationError
from ..protocol.signals import MetaSignal, Open, TunnelSignal
from ..protocol.slot import Slot
from .admission import AdmissionControl, AdmissionPolicy
from .flowlink import FlowLink
from .goals import CloseSlot, Goal, HoldSlot, OpenSlot
from .maps import Maps

__all__ = ["Box"]


class Box(SignalingAgent):
    """An application-server module programmed with the goal primitives."""

    def __init__(self, loop: EventLoop, name: str, cost: float = 0.0):
        super().__init__(loop, name, cost=cost)
        self.maps = Maps()
        self._descriptors = DescriptorFactory(origin=name)
        #: Named slots, for programs and tests (``box.slot("1a")``).
        self.slot_names: Dict[str, Slot] = {}
        #: Every slot name this box has declared, bound or not.  A name
        #: enters this set when a slot is named (:meth:`name_slot`) or
        #: declared ahead of binding (:meth:`declare_slot`); it survives
        #: :meth:`forget_slot` because the box may re-create the slot
        #: (click-to-dial tears down and redials channel 2).  Programs
        #: validate their goal annotations against it at construction.
        self.declared_slots: Set[str] = set()
        #: Signals that arrived for a slot with no controlling goal.
        self.unmanaged: List[Tuple[Slot, TunnelSignal]] = []
        #: Robust mode: slots whose retransmission budget ran out,
        #: newest last, as ``(slot, reason)``.
        self.failed_log: List[Tuple[Slot, str]] = []
        #: Structured counterparts of ``failed_log``: one
        #: :class:`~repro.obs.events.SlotFailureRecord` per failure,
        #: carrying the flight recorder's tail when the loop is traced —
        #: the signaling history that led to the budget running out.
        self.failure_records: List[SlotFailureRecord] = []
        #: Meta-signals seen (newest last), for programs polling them.
        self.meta_log: List[Tuple[ChannelEnd, MetaSignal]] = []
        #: Optional observer invoked after every stimulus (programs use
        #: this to re-evaluate transition guards).
        self.after_stimulus: Optional[Callable[[], None]] = None
        #: The state-oriented program driving this box, if any.
        self.program = None
        #: Admission control; ``None`` (the default) admits everything
        #: with zero overhead beyond this attribute test.
        self.admission: Optional[AdmissionControl] = None

    # ------------------------------------------------------------------
    # descriptor policy: a server slot masquerades as a media endpoint
    # but can neither send nor receive media (Sec. IV-A), so it mutes
    # both directions.
    # ------------------------------------------------------------------
    def make_local_descriptor(self, slot: Slot) -> Descriptor:
        """Descriptor offered when a goal opens/accepts on ``slot``."""
        return self._descriptors.no_media()

    def make_selector(self, slot: Slot, descriptor: Descriptor) -> Selector:
        """Selector answering ``descriptor`` on ``slot``."""
        return Selector(answers=descriptor.id, address=None, codec=NO_MEDIA)

    # ------------------------------------------------------------------
    # slot naming
    # ------------------------------------------------------------------
    def name_slot(self, name: str, slot: Slot) -> Slot:
        """Register ``slot`` under a program-local name."""
        self.slot_names[name] = slot
        self.declared_slots.add(name)
        return slot

    def declare_slot(self, *names: str) -> None:
        """Declare slot names before their channels exist, so programs
        annotating them can be validated at construction time."""
        self.declared_slots.update(names)

    def slot(self, name: str) -> Slot:
        """Look up a named slot."""
        try:
            return self.slot_names[name]
        except KeyError:
            raise ConfigurationError(
                "box %s has no slot named %r (known: %s)"
                % (self.name, name, ", ".join(sorted(self.slot_names))))

    def forget_slot(self, name: str) -> None:
        """Drop a program-local slot name (e.g. after channel teardown)."""
        self.slot_names.pop(name, None)

    # ------------------------------------------------------------------
    # goal management (the programming primitives)
    # ------------------------------------------------------------------
    def set_goal(self, goal: Goal, *slots: Slot) -> Goal:
        """Install ``goal`` over ``slots`` and let it take initiative."""
        self.maps.assign(goal, slots)
        goal.attach(self, slots)
        return goal

    def open_slot(self, slot: Slot, medium: Medium, **kwargs) -> OpenSlot:
        """Annotate ``openSlot(slot, medium)``."""
        return self.set_goal(OpenSlot(medium, **kwargs), slot)

    def close_slot(self, slot: Slot) -> CloseSlot:
        """Annotate ``closeSlot(slot)``."""
        return self.set_goal(CloseSlot(), slot)

    def hold_slot(self, slot: Slot) -> HoldSlot:
        """Annotate ``holdSlot(slot)``."""
        return self.set_goal(HoldSlot(), slot)

    def flow_link(self, s1: Slot, s2: Slot) -> FlowLink:
        """Annotate ``flowLink(s1, s2)``."""
        return self.set_goal(FlowLink(), s1, s2)

    def release_goal(self, goal: Goal) -> None:
        """Remove a goal, leaving its slots uncontrolled."""
        self.maps.release(goal)

    # ------------------------------------------------------------------
    # admission control
    # ------------------------------------------------------------------
    def set_admission(self, policy: Optional[AdmissionPolicy]
                      ) -> Optional[AdmissionControl]:
        """Install (or, with ``None``, remove) admission control.  Every
        subsequent incoming ``open`` is checked against the policy and
        refused with a ``busy`` when a limit fires.  Returns the live
        :class:`AdmissionControl` so callers can read its counters."""
        self.admission = (None if policy is None
                          else AdmissionControl(self.loop, policy))
        return self.admission

    # ------------------------------------------------------------------
    # stimulus dispatch
    # ------------------------------------------------------------------
    def on_tunnel_signal(self, slot: Slot, signal: TunnelSignal) -> None:
        admission = self.admission
        if admission is not None and type(signal) is Open \
                and slot.is_opened:
            # ``is_opened`` guards the race-loss replay: a losing-side
            # open that already moved the slot onward must not be
            # double-counted, and ``send_busy`` is only legal from
            # ``opened`` anyway.
            reason = admission.admit(slot)
            if reason is not None:
                slot.send_busy(reason, admission.policy.retry_after)
                self._poll()
                return
        goal = self.maps.goal_for(slot)
        if goal is not None:
            goal.goal_receive(slot, signal)
        else:
            self.unmanaged.append((slot, signal))
            self.on_unmanaged_signal(slot, signal)
        self._poll()

    def on_meta(self, end: ChannelEnd, signal: MetaSignal) -> None:
        self.meta_log.append((end, signal))
        if self.program is not None:
            self.program.note_meta(end, signal)
        self.on_meta_signal(end, signal)
        self._poll()

    def on_slot_failed(self, slot: Slot, reason: str) -> None:
        """Robust mode: route a retransmission-budget failure to the
        goal controlling the slot, then re-poll the program — the
        ``slot_failed`` guard predicate is now true for the slot."""
        self.failed_log.append((slot, reason))
        tr = self.loop.trace
        self.failure_records.append(SlotFailureRecord(
            slot=slot.name, reason=reason, time=self.loop.now,
            flight_tail=tuple(tr.flight_tail()) if tr is not None else ()))
        goal = self.maps.goal_for(slot)
        if goal is not None:
            goal.on_slot_failed(slot, reason)
        self._poll()

    def on_channel_gone(self, end: ChannelEnd) -> None:
        # Slots of the dead channel are force-closed; drop their goals
        # and names so programs see a clean world.
        for slot in end.slots.values():
            self.maps.release_slot(slot)
        dead_names = [n for n, s in self.slot_names.items()
                      if s.channel_end is end]
        for name in dead_names:
            del self.slot_names[name]
        if self.program is not None:
            self.program.note_channel_down(end)
        self.on_channel_down(end)
        self._poll()

    def _poll(self) -> None:
        cb = self.after_stimulus
        if cb is not None:
            cb()

    # ------------------------------------------------------------------
    # overridable application hooks
    # ------------------------------------------------------------------
    def on_unmanaged_signal(self, slot: Slot, signal: TunnelSignal) -> None:
        """A signal arrived on a slot no goal controls.  Default: keep it
        in ``unmanaged`` (already done) and continue."""

    def on_meta_signal(self, end: ChannelEnd, signal: MetaSignal) -> None:
        """A non-teardown meta-signal arrived.  Default: nothing (it is
        already recorded in ``meta_log``)."""

    def on_channel_down(self, end: ChannelEnd) -> None:
        """A channel this box did not tear down has disappeared."""
