"""The slot: a per-tunnel protocol endpoint (Figs. 5 and 9).

"Each signaling channel is partitioned statically into tunnels ...  The
endpoint of a tunnel at a box is called a slot ...  each slot is a
protocol endpoint" (Sec. III-A).

A :class:`Slot` implements the finite-state machine of Fig. 9 with states
``closed``, ``opening``, ``opened``, ``flowing``, and ``closing``.  It
validates every send against the protocol, updates state for every
receive, resolves open/open races (the channel-initiator side wins,
Sec. VI-B), automatically acknowledges ``close`` with ``closeack``, and
silently drains signals that are stale because a close is in progress.

Following Sec. VII, the slot "maintains the complete
implementation-level state of the slot, consisting of protocol state,
medium, and descriptor", where "the descriptor of a slot ... is the most
recent descriptor received in an open, oack, or describe signal."

Robust mode (lossy networks)
----------------------------
When constructed with a :class:`RetransmitPolicy`, the slot also
survives signal loss and duplication.  Unacknowledged ``open`` and
``close`` are retransmitted on a timer with exponential backoff and a
retry budget; a ``describe`` whose answering ``select`` never arrives is
re-sent on a staleness timer (which transitively recovers lost selects,
because the peer re-answers the duplicate describe).  Duplicates are
absorbed exactly as the paper's idempotence argument predicts: a
re-received ``open`` while flowing re-elicits the ``oack`` (recovering a
lost one), a ``close`` at a closed slot re-elicits the ``closeack``, and
everything else that is a pure repeat is counted and dropped.  When the
retry budget is exhausted the slot degrades instead of hanging: it
resets to ``closed`` (the paper's ``noMedia`` fallback), marks itself
``failed``, and reports the failure to the owning agent via
``on_slot_failed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..obs.events import Retransmit, SlotDrop, SlotFailed, SlotTransition
from .codecs import Medium
from .descriptor import Descriptor, Selector
from .errors import ProtocolError, ProtocolStateError
from .signals import (Busy, Close, CloseAck, Describe, Oack, Open, Select,
                      TunnelMessage, TunnelSignal)

if TYPE_CHECKING:  # pragma: no cover
    from ..obs.tracer import Tracer
    from .channel import ChannelEnd

__all__ = [
    "Slot", "RetransmitPolicy",
    "CLOSED", "OPENING", "OPENED", "FLOWING", "CLOSING",
    "LIVE_STATES", "DEAD_STATES",
]

CLOSED = "closed"
OPENING = "opening"
OPENED = "opened"
FLOWING = "flowing"
CLOSING = "closing"

#: Fig. 12: "The live states are opening, opened and flowing.  The dead
#: states are closed and closing."
LIVE_STATES = frozenset((OPENING, OPENED, FLOWING))
DEAD_STATES = frozenset((CLOSED, CLOSING))

#: ``close``/``closeack`` carry no payload and are frozen, so every slot
#: shares these two instances instead of allocating one per teardown.
_CLOSE = Close()
_CLOSEACK = CloseAck()


@dataclass(frozen=True)
class RetransmitPolicy:
    """Timing and budget for robust-mode slots.

    ``initial`` is the delay before the first retransmission of an
    unacknowledged ``open``/``close``; each further retransmission waits
    ``backoff`` times longer.  After ``max_retries`` retransmissions the
    slot gives up and reports failure.  ``stale_after`` is the delay
    before re-describing when a sent descriptor has no answering
    selector (0 disables staleness recovery).
    """

    initial: float = 0.25
    backoff: float = 2.0
    max_retries: int = 6
    stale_after: float = 0.5


class Slot:
    """One protocol endpoint of one tunnel."""

    # Load runs create a slot per tunnel per call; __slots__ removes the
    # per-instance dict and makes the state fields the FSM touches on
    # every receive direct offsets.
    __slots__ = (
        "_end", "tunnel_id", "strict", "retransmit",
        "state", "medium", "remote_descriptor", "local_descriptor",
        "selector_received", "selector_sent", "failed",
        "race_drops", "stale_drops", "invalid_drops", "duplicate_drops",
        "retransmits", "failures", "signals_sent", "signals_received",
        "_retx_timer", "_retx_signal", "_retx_kind", "_retx_attempts",
        "_retx_interval", "_stale_timer", "_stale_attempts", "_loop",
        "_tx",
        # Admission control: busy refusals received / retry machinery.
        # Deliberately separate from the ``_retx_*`` fields, whose
        # acknowledgement check only ever sees "open"/"close" in
        # ``_retx_kind``.
        "busy_refusals", "_busy_timer", "_busy_attempts",
        "_busy_medium", "_busy_descriptor",
    )

    def __init__(self, channel_end: "ChannelEnd", tunnel_id: str,
                 strict: bool = True,
                 retransmit: Optional[RetransmitPolicy] = None):
        self._end = channel_end
        self._loop = channel_end.owner.loop
        self.tunnel_id = tunnel_id
        #: Strict slots raise :class:`ProtocolError` on illegal receives;
        #: lenient slots count them and pass them up unprocessed (used by
        #: the deliberately erroneous Fig. 2 demonstration, whose servers
        #: forward signals they do not understand).
        self.strict = strict
        #: Robust mode: retransmission timers plus duplicate absorption.
        #: ``None`` (the default) keeps the exact reliable-link behavior.
        self.retransmit = retransmit

        self.state = CLOSED
        self.medium: Optional[Medium] = None
        #: Most recent descriptor *received* (open/oack/describe).
        self.remote_descriptor: Optional[Descriptor] = None
        #: Most recent descriptor *sent* (open/oack/describe).
        self.local_descriptor: Optional[Descriptor] = None
        #: Most recent selector received / sent while flowing.
        self.selector_received: Optional[Selector] = None
        self.selector_sent: Optional[Selector] = None

        #: Robust mode only: the retry budget ran out and the slot fell
        #: back to ``closed`` without media.  Cleared by the next open.
        self.failed = False

        # observability counters
        self.race_drops = 0      # opens lost to the initiator-wins rule
        self.stale_drops = 0     # signals drained during closing
        self.invalid_drops = 0   # illegal receives dropped in lenient mode
        self.duplicate_drops = 0  # repeats absorbed in robust mode
        self.retransmits = 0     # signals re-sent by the timers
        self.failures = 0        # retry budgets exhausted
        self.signals_sent = 0
        self.signals_received = 0

        # retransmission machinery (robust mode)
        self._retx_timer = None
        self._retx_signal: Optional[TunnelSignal] = None
        self._retx_kind: Optional[str] = None
        self._retx_attempts = 0
        self._retx_interval = 0.0
        self._stale_timer = None
        self._stale_attempts = 0

        # admission-refusal machinery (see ``_handle_busy``)
        self.busy_refusals = 0   # Busy signals received
        self._busy_timer = None
        self._busy_attempts = 0
        self._busy_medium: Optional[Medium] = None
        self._busy_descriptor: Optional[Descriptor] = None

        #: The per-signal send callable every send site calls (the
        #: bound ``_transmit``, created once rather than per signal).
        self._tx = self._transmit

    # ------------------------------------------------------------------
    # identity and predicates
    # ------------------------------------------------------------------
    @property
    def channel_end(self) -> "ChannelEnd":
        return self._end

    @property
    def name(self) -> str:
        return "%s/%s" % (self._end.name, self.tunnel_id)

    @property
    def is_initiator(self) -> bool:
        """True when this slot's channel end initiated channel setup;
        "the winner of the race is always the end of the tunnel that
        initiated setup of the signaling channel" (Sec. VI-B)."""
        return self._end.is_initiator

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    @property
    def _trace(self) -> Optional["Tracer"]:
        return self._loop.trace

    def _set_state(self, new: str, cause: str) -> None:
        """Every protocol-state change funnels through here so a tracer
        sees the full FSM history."""
        old = self.state
        self.state = new
        tr = self._loop.trace
        if tr is not None and new != old:
            tr.emit(SlotTransition(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                end=self._end.name, side=self._end.side,
                old=old, new=new, cause=cause,
                medium=str(self.medium) if self.medium is not None else ""))

    def _emit_drop(self, kind: str, signal: TunnelSignal) -> None:
        tr = self._loop.trace
        if tr is not None:
            tr.emit(SlotDrop(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                kind=kind, signal=signal.kind))

    @property
    def is_closed(self) -> bool:
        return self.state == CLOSED

    @property
    def is_opening(self) -> bool:
        return self.state == OPENING

    @property
    def is_opened(self) -> bool:
        return self.state == OPENED

    @property
    def is_flowing(self) -> bool:
        return self.state == FLOWING

    @property
    def is_closing(self) -> bool:
        return self.state == CLOSING

    @property
    def is_live(self) -> bool:
        return self.state in LIVE_STATES

    @property
    def is_dead(self) -> bool:
        return self.state in DEAD_STATES

    @property
    def is_described(self) -> bool:
        """Sec. VII: "A slot is described if the object has received a
        current descriptor for it.  Slots in the opened and flowing
        states are described"."""
        return self.remote_descriptor is not None

    # ------------------------------------------------------------------
    # sending (validated per Fig. 9)
    # ------------------------------------------------------------------
    def send_open(self, medium: Medium, descriptor: Descriptor) -> None:
        """Send ``open``; legal only from ``closed``."""
        if self.state != CLOSED:
            raise ProtocolStateError(self, "send open", self.state)
        self.medium = medium
        self.local_descriptor = descriptor
        self.failed = False
        # A fresh open starts a fresh busy-retry budget (``_busy_retry``
        # restores the running count after its own re-open).
        self._cancel_busy()
        self._busy_attempts = 0
        self._set_state(OPENING, "send_open")
        signal = Open(medium, descriptor)
        self._tx(signal)
        self._arm_retx("open", signal)

    def send_oack(self, descriptor: Descriptor) -> None:
        """Send ``oack``; legal only from ``opened``."""
        if self.state != OPENED:
            raise ProtocolStateError(self, "send oack", self.state)
        self.local_descriptor = descriptor
        self._set_state(FLOWING, "send_oack")
        self._tx(Oack(descriptor))
        # A lost oack is recovered by the peer retransmitting its open
        # (we re-oack the duplicate); the staleness timer covers the
        # descriptor-answering select.
        self._arm_stale()

    def send_close(self) -> None:
        """Send ``close`` (also the protocol's reject); legal from any
        live state."""
        if self.state not in LIVE_STATES:
            raise ProtocolStateError(self, "send close", self.state)
        self._set_state(CLOSING, "send_close")
        self._cancel_stale()
        signal = _CLOSE
        self._tx(signal)
        self._arm_retx("close", signal)

    def send_describe(self, descriptor: Descriptor) -> None:
        """Send a fresh self-description; legal only while ``flowing``."""
        if self.state != FLOWING:
            raise ProtocolStateError(self, "send describe", self.state)
        self.local_descriptor = descriptor
        self._tx(Describe(descriptor))
        self._arm_stale()

    def send_select(self, selector: Selector) -> None:
        """Send a selector; legal only while ``flowing``, and only in
        answer to the most recent received descriptor."""
        if self.state != FLOWING:
            raise ProtocolStateError(self, "send select", self.state)
        if self.remote_descriptor is None:
            raise ProtocolError(
                "%s: select with no received descriptor" % self.name)
        selector.validate_against(self.remote_descriptor)
        self.selector_sent = selector
        self._tx(Select(selector))

    def send_busy(self, reason: str = "admission",
                  retry_after: float = 0.0) -> None:
        """Refuse a just-received ``open`` with a structured ``busy``
        (admission control shedding load); legal only from ``opened``.

        Unlike a ``close`` rejection there is no acknowledgement round:
        the slot resets to ``closed`` immediately.  If the ``busy`` is
        lost, the opener's retransmitted ``open`` re-arrives at the
        closed slot and is refused again — convergence by idempotence,
        exactly as for the six base signals.
        """
        if self.state != OPENED:
            raise ProtocolStateError(self, "send busy", self.state)
        self._tx(Busy(reason, retry_after))
        self._reset_to_closed("shed_busy")

    def _transmit(self, signal: TunnelSignal) -> None:
        self.signals_sent += 1
        # Inlined ChannelEnd.send_tunnel: one envelope per signal makes
        # the extra call frame measurable at load.
        end = self._end
        if end.alive:
            wire = end._wire
            if wire._link._hooks:
                # A hooked link (fault layer, tracer tap) may duplicate
                # the envelope or deliver it late; such envelopes are
                # never pooled, so a duplicate can never observe a
                # recycled one.
                wire.send(TunnelMessage(self.tunnel_id, signal))
                return
            pool = self._loop._env_pool
            if pool:
                message = pool.pop()
                message.tunnel_id = self.tunnel_id
                message.signal = signal
            else:
                message = TunnelMessage(self.tunnel_id, signal, True)
            wire.send(message)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------
    def receive(self, signal: TunnelSignal) -> bool:
        """Apply one received signal to the FSM.

        Returns ``True`` when the signal should be passed up to the goal
        object controlling this slot, ``False`` when the slot consumed it
        (race-losing opens at the winner, stale signals while closing,
        pure-bookkeeping closeacks are still passed up so goals can react
        to reopening opportunities).
        """
        self.signals_received += 1
        try:
            handler = _DISPATCH[self.state]
        except KeyError:  # pragma: no cover - states are exhaustive
            raise AssertionError("slot in unknown state %r" % self.state)
        result = handler(self, signal)
        # Robust mode: an unacknowledged open is acknowledged by whatever
        # receive moved us out of ``opening`` (oack, rejection, race
        # loss); a close is acknowledged only by reaching ``closed``.
        retx_kind = self._retx_kind
        if retx_kind is not None:
            if retx_kind == "open" and self.state != OPENING:
                self._cancel_retx()
            elif retx_kind == "close" and self.state == CLOSED:
                self._cancel_retx()
        return result

    # -- per-state receive handlers --
    def _recv_closed(self, signal: TunnelSignal) -> bool:
        # The handlers dispatch on exact type: the six signal classes
        # are final (nothing subclasses them), so ``type() is`` replaces
        # isinstance on the busiest path in the protocol layer.
        cls = type(signal)
        if cls is Open:
            self.medium = signal.medium
            self.remote_descriptor = signal.descriptor
            self._set_state(OPENED, "recv_open")
            return True
        if self.retransmit is not None:
            if cls is Close:
                # A retransmitted close whose closeack was lost: our
                # earlier closeack did not arrive, so answer again.
                self.duplicate_drops += 1
                self._emit_drop("duplicate", signal)
                self._tx(_CLOSEACK)
                return False
            if cls is CloseAck or cls is Oack or cls is Describe \
                    or cls is Select or cls is Busy:
                # Stale repeats from the episode just closed.  (A
                # ``busy`` here is a duplicate refusal raced by our own
                # reset — the retry timer, if any, is already running.)
                self.duplicate_drops += 1
                self._emit_drop("duplicate", signal)
                return False
        return self._illegal(signal)

    def _recv_opening(self, signal: TunnelSignal) -> bool:
        cls = type(signal)
        if cls is Busy:
            # The peer's admission control refused our open.
            return self._handle_busy(signal)
        if cls is Open:
            # open/open race in this tunnel (Sec. VI-B).
            if self.is_initiator:
                # We win: "the losing open signal is simply ignored."
                self.race_drops += 1
                self._emit_drop("race", signal)
                return False
            # We lose: back off and become the acceptor; our own open
            # will be ignored at the winner.
            self.medium = signal.medium
            self.remote_descriptor = signal.descriptor
            self._set_state(OPENED, "recv_open_race_loss")
            return True
        if cls is Oack:
            self.remote_descriptor = signal.descriptor
            self._set_state(FLOWING, "recv_oack")
            return True
        if cls is Close:
            # The peer rejected (or closed before answering).
            self._acknowledge_close()
            return True
        if self.retransmit is not None and cls is CloseAck:
            # Stale acknowledgement of a close from a previous episode.
            self.duplicate_drops += 1
            self._emit_drop("duplicate", signal)
            return False
        return self._illegal(signal)

    def _recv_opened(self, signal: TunnelSignal) -> bool:
        cls = type(signal)
        if cls is Close:
            # The opener gave up before we answered.
            self._acknowledge_close()
            return True
        if self.retransmit is not None and cls is Open \
                and self.remote_descriptor is not None \
                and signal.descriptor.id == self.remote_descriptor.id:
            # Retransmitted open; we have it and will answer in our own
            # time.
            self.duplicate_drops += 1
            self._emit_drop("duplicate", signal)
            return False
        return self._illegal(signal)

    def _recv_flowing(self, signal: TunnelSignal) -> bool:
        cls = type(signal)
        if cls is Describe:
            self.remote_descriptor = signal.descriptor
            return True
        if cls is Select:
            self.selector_received = signal.selector
            if self._stale_timer is not None \
                    and self.local_descriptor is not None \
                    and (signal.selector.answers is self.local_descriptor.id
                         or signal.selector.answers
                         == self.local_descriptor.id):
                # Our descriptor is answered; staleness recovery done.
                self._cancel_stale()
            return True
        if cls is Close:
            self._acknowledge_close()
            return True
        if self.retransmit is not None:
            if cls is Open \
                    and self.remote_descriptor is not None \
                    and signal.descriptor.id == self.remote_descriptor.id:
                # The peer retransmitted its open: our oack was lost (or
                # is still in flight).  Re-acknowledge; idempotence makes
                # the repeat harmless at the peer.
                self.duplicate_drops += 1
                self._emit_drop("duplicate", signal)
                if self.local_descriptor is not None:
                    self._tx(Oack(self.local_descriptor))
                return False
            if cls is Oack \
                    and self.remote_descriptor is not None \
                    and signal.descriptor.id == self.remote_descriptor.id:
                # Duplicate of the oack that made us flowing.
                self.duplicate_drops += 1
                self._emit_drop("duplicate", signal)
                return False
            if cls is CloseAck or cls is Busy:
                # A ``busy`` while flowing is a residual duplicate of a
                # refusal from a previous episode (our retried open got
                # through; a dup of the earlier refusal straggled in).
                self.duplicate_drops += 1
                self._emit_drop("duplicate", signal)
                return False
        return self._illegal(signal)

    def _recv_closing(self, signal: TunnelSignal) -> bool:
        cls = type(signal)
        if cls is Close:
            # Crossing closes: acknowledge theirs, keep waiting for the
            # acknowledgement of ours.
            self._tx(_CLOSEACK)
            return True
        if cls is CloseAck:
            self._reset_to_closed("recv_closeack")
            return True
        if cls is Open or cls is Oack or cls is Describe or cls is Select \
                or cls is Busy:
            # The peer sent these before it saw our close; drain them.
            # (An ``open`` here is the crossing-open case: the peer's
            # open and our close passed each other, and our close
            # already acts as its rejection.)
            self.stale_drops += 1
            self._emit_drop("stale", signal)
            return False
        return self._illegal(signal)

    # -- shared pieces --
    def _acknowledge_close(self) -> None:
        self._tx(_CLOSEACK)
        self._reset_to_closed("recv_close")

    def _reset_to_closed(self, cause: str = "reset") -> None:
        self._set_state(CLOSED, cause)
        self.medium = None
        self.remote_descriptor = None
        self.local_descriptor = None
        self.selector_received = None
        self.selector_sent = None
        self._cancel_retx()
        self._cancel_stale()
        self._cancel_busy()

    def force_close(self) -> None:
        """Destroy the slot's state without signaling; used when the whole
        signaling channel is torn down (teardown "destroys all its
        tunnels and slots", Sec. IV-B)."""
        self._reset_to_closed("teardown")

    def _illegal(self, signal: TunnelSignal) -> bool:
        if self.retransmit is not None:
            # Robust mode: under loss, duplication, and reordering a
            # residual out-of-place signal is expected weather, not a
            # protocol bug.  Count it and drop it without involving the
            # owner (unlike lenient mode, which forwards blindly).
            self.invalid_drops += 1
            self._emit_drop("invalid", signal)
            return False
        if self.strict:
            raise ProtocolError(
                "%s: illegal %s in state %s"
                % (self.name, signal.kind, self.state))
        # Lenient mode (used to model uncoordinated legacy servers, the
        # Fig. 2 demonstration): count the violation but still show the
        # signal to the owner, which may forward it blindly.  The slot's
        # own state is left untouched.
        self.invalid_drops += 1
        self._emit_drop("invalid", signal)
        return True

    # ------------------------------------------------------------------
    # retransmission machinery (robust mode)
    # ------------------------------------------------------------------
    def _arm_retx(self, kind: str, signal: TunnelSignal) -> None:
        policy = self.retransmit
        if policy is None:
            return
        self._cancel_retx()
        self._retx_kind = kind
        self._retx_signal = signal
        self._retx_attempts = 0
        self._retx_interval = policy.initial
        self._retx_timer = self._end.owner.node.set_timer(
            self._retx_interval, self._retx_fire)

    def _cancel_retx(self) -> None:
        if self._retx_timer is not None:
            self._retx_timer.cancel()
            self._retx_timer = None
        self._retx_signal = None
        self._retx_kind = None

    def _retx_fire(self) -> None:
        self._retx_timer = None
        policy = self.retransmit
        if policy is None or self._retx_signal is None \
                or not self._end.alive:
            return
        # Still unacknowledged?  (Defensive: the receive path cancels the
        # timer on acknowledgement, but a stimulus already queued when
        # the ack arrived may still fire.)
        if self._retx_kind == "open" and self.state != OPENING:
            self._cancel_retx()
            return
        if self._retx_kind == "close" and self.state != CLOSING:
            self._cancel_retx()
            return
        if self._retx_attempts >= policy.max_retries:
            self._give_up()
            return
        self._retx_attempts += 1
        self.retransmits += 1
        tr = self._trace
        if tr is not None:
            tr.emit(Retransmit(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                kind=self._retx_kind or "retry",
                attempt=self._retx_attempts))
        self._tx(self._retx_signal)
        self._retx_interval *= policy.backoff
        self._retx_timer = self._end.owner.node.set_timer(
            self._retx_interval, self._retx_fire)

    def _give_up(self) -> None:
        """Retry budget exhausted: degrade to ``closed`` without media
        (the ``noMedia`` fallback) and report the failure upward."""
        kind = self._retx_kind or "retry"
        if kind == "open" and self.state == OPENING:
            # Best-effort abort so a peer that did hear us stops waiting;
            # we do not wait for the closeack.
            self._tx(_CLOSE)
        self._reset_to_closed("gave_up")
        self.failed = True
        self.failures += 1
        tr = self._trace
        if tr is not None:
            tr.emit(SlotFailed(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                reason=kind))
        self._end.owner.on_slot_failed(self, kind)

    # ------------------------------------------------------------------
    # admission-refusal handling (busy retry-with-backoff)
    # ------------------------------------------------------------------
    def _handle_busy(self, signal: Busy) -> bool:
        """React to an admission refusal of our ``open`` (state
        ``opening``).

        The refusal is operational, not semantic, so a robust slot
        retries the open on the same exponential-backoff schedule as a
        retransmission — bounded by the policy's ``max_retries`` budget,
        which spans the whole retry *sequence* (``send_open`` resets it
        only for user-initiated opens).  When the budget runs out, or in
        reliable mode (no policy), the slot degrades exactly like an
        exhausted retransmission: reset to ``closed``, ``failed`` set,
        and ``on_slot_failed`` reported upward — the paper's ``noMedia``
        fallback.
        """
        self.busy_refusals += 1
        medium = self.medium
        descriptor = self.local_descriptor
        policy = self.retransmit
        # Resetting cancels the open-retransmit timer too (the refusal
        # *is* the acknowledgement) and clears any previous busy state.
        self._reset_to_closed("busy")
        if policy is None or self._busy_attempts >= policy.max_retries:
            self._busy_attempts = 0
            self.failed = True
            self.failures += 1
            tr = self._trace
            if tr is not None:
                tr.emit(SlotFailed(
                    ts=self._end.owner.loop.now, slot=self.name,
                    channel=self._end.channel.name, tunnel=self.tunnel_id,
                    reason="busy"))
            self._end.owner.on_slot_failed(self, "busy")
            return False
        self._busy_attempts += 1
        self._busy_medium = medium
        self._busy_descriptor = descriptor
        delay = policy.initial * (policy.backoff
                                  ** (self._busy_attempts - 1))
        if signal.retry_after > delay:
            delay = signal.retry_after
        self._busy_timer = self._end.owner.node.set_timer(
            delay, self._busy_retry)
        return False

    def _busy_retry(self) -> None:
        self._busy_timer = None
        medium = self._busy_medium
        descriptor = self._busy_descriptor
        self._busy_medium = None
        self._busy_descriptor = None
        if not self._end.alive or self.state != CLOSED \
                or medium is None or descriptor is None:
            # The goal layer moved on (reopened, channel died) while we
            # were backing off; it owns the slot now.
            return
        attempts = self._busy_attempts
        self.retransmits += 1
        tr = self._trace
        if tr is not None:
            tr.emit(Retransmit(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                kind="busy", attempt=attempts))
        self.send_open(medium, descriptor)
        # ``send_open`` zeroed the count (right for a *user* open);
        # restore it so the overall busy budget stays bounded.
        self._busy_attempts = attempts

    def _cancel_busy(self) -> None:
        if self._busy_timer is not None:
            self._busy_timer.cancel()
            self._busy_timer = None
        self._busy_medium = None
        self._busy_descriptor = None

    def _arm_stale(self) -> None:
        policy = self.retransmit
        if policy is None or policy.stale_after <= 0:
            return
        self._cancel_stale()
        self._stale_attempts = 0
        self._stale_timer = self._end.owner.node.set_timer(
            policy.stale_after, self._stale_fire)

    def _cancel_stale(self) -> None:
        if self._stale_timer is not None:
            self._stale_timer.cancel()
            self._stale_timer = None

    def _stale_fire(self) -> None:
        self._stale_timer = None
        policy = self.retransmit
        if policy is None or not self._end.alive:
            return
        if self.state != FLOWING or self.local_descriptor is None:
            return
        answered = (self.selector_received is not None and
                    self.selector_received.answers
                    == self.local_descriptor.id)
        if answered:
            return
        if self._stale_attempts >= policy.max_retries:
            # Media may stay one-way mute; unlike a dead handshake this
            # is observable by the application, so no forced failure.
            return
        self._stale_attempts += 1
        self.retransmits += 1
        tr = self._trace
        if tr is not None:
            tr.emit(Retransmit(
                ts=self._end.owner.loop.now, slot=self.name,
                channel=self._end.channel.name, tunnel=self.tunnel_id,
                kind="describe", attempt=self._stale_attempts))
        self._tx(Describe(self.local_descriptor))
        self._stale_timer = self._end.owner.node.set_timer(
            policy.stale_after * (policy.backoff ** self._stale_attempts),
            self._stale_fire)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<Slot %s %s medium=%s>" % (self.name, self.state, self.medium)


#: Fig. 9 FSM dispatch: protocol state -> unbound receive handler.  One
#: dict probe per receive, replacing the string-formatting getattr
#: lookup that used to sit on the hottest signaling path.
_DISPATCH = {
    CLOSED: Slot._recv_closed,
    OPENING: Slot._recv_opening,
    OPENED: Slot._recv_opened,
    FLOWING: Slot._recv_flowing,
    CLOSING: Slot._recv_closing,
}
