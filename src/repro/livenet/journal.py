"""Direction-wise signal journals: the sim-vs-live parity instrument.

A live run and a simulated run of the same scenario cannot produce the
same *interleaved* signal order — wall-clock delivery means the local
side may emit its next signal before or after a remote one lands, and
both orders are correct.  What both worlds do guarantee is FIFO per
direction: the sequence of envelopes each side *sends* on a channel, and
the sequence it *receives*, are each fully determined by the protocol
machines.  So the journal records the two directions separately, and its
fingerprint hashes the sent-sequence and the received-sequence with a
direction tag — identical for a sim reference run and a live run
whenever the protocol exchange is identical.

Envelopes are journaled as their :mod:`repro.livenet.wire` encodings, so
the fingerprint also covers field-level byte equality (descriptors,
addresses, codecs), not just signal names.

For the bytes to match, both worlds must mint identical descriptors,
which requires identical media *hosts*.  :func:`host_for` derives a
host deterministically from the endpoint's name, so a live process and
the single-process reference run agree without coordination.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Callable, List

from ..protocol.channel import SignalingChannel
from .wire import encode_envelope

__all__ = ["SignalJournal", "host_for", "reference_fingerprint"]


def host_for(name: str) -> str:
    """Deterministic simulated media host for the endpoint ``name``.

    Hashes the name into the ``10.128/9`` half of the simulator's
    address space (the sequential allocator mints hosts far below
    ``10.128``), so journal-pinned descriptors are reproducible in any
    process without talking to a shared allocator.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return "10.%d.%d.%d" % (128 + (digest[0] & 0x7F), digest[1], digest[2])


class SignalJournal:
    """Records one channel's wire traffic, split by direction.

    Attach with :meth:`attach` from one side's perspective; envelopes
    that side emits land in ``sent``, envelopes it receives land in
    ``received``, both as canonical wire encodings.  Works identically
    on a pure sim channel and on a live half-channel, because both carry
    traffic through the same :class:`~repro.network.transport.Link` —
    the hook is the existing observability seam, so recording perturbs
    neither path.
    """

    def __init__(self) -> None:
        self.sent: List[bytes] = []
        self.received: List[bytes] = []
        self._detach: Callable[[], None] = lambda: None

    # -- recording --------------------------------------------------------
    def attach(self, channel: SignalingChannel, local_side: int) -> None:
        """Start journaling ``channel`` as seen from ``ends[local_side]``.

        The transmit hook is installed outermost, so it observes traffic
        before any fault policy.
        """
        link = channel.link
        local_end = link.ends[local_side]

        def record(origin: Any, message: Any,
                   forward: Callable[[Any, Any], None]) -> None:
            entry = encode_envelope(message)
            if origin is local_end:
                self.sent.append(entry)
            else:
                self.received.append(entry)
            forward(origin, message)

        link.add_transmit_hook(record)
        self._detach = lambda: link.remove_transmit_hook(record)

    def detach(self) -> None:
        """Stop recording (keeps what was captured)."""
        self._detach()
        self._detach = lambda: None

    # -- direct recording (live nodes feed these off the socket path) ----
    def record_sent(self, encoded: bytes) -> None:
        self.sent.append(encoded)

    def record_received(self, encoded: bytes) -> None:
        self.received.append(encoded)

    # -- the verdict ------------------------------------------------------
    def fingerprint(self) -> str:
        """Order-sensitive digest over each direction separately.

        Length-prefixes every entry so the encoding is injective, tags
        the two directions, and never mixes them — the quantity both a
        sim and a live run can agree on.
        """
        h = hashlib.sha256()
        for tag, entries in ((b"S", self.sent), (b"R", self.received)):
            h.update(tag)
            h.update(struct.pack(">I", len(entries)))
            for entry in entries:
                h.update(struct.pack(">I", len(entry)))
                h.update(entry)
        return h.hexdigest()

    def summary(self) -> dict:
        """Counts plus fingerprint, for gateway/demo JSON output."""
        return {
            "sent": len(self.sent),
            "received": len(self.received),
            "fingerprint": self.fingerprint(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "<SignalJournal S=%d R=%d>" % (
            len(self.sent), len(self.received))


def reference_fingerprint(caller: str, box: str, target: str,
                          medium: str = "audio") -> str:
    """The sim's verdict on a first live call: run the canonical gateway
    scenario — ``caller ── box ── target`` with a flow link at the box
    and an auto-accepting callee — entirely in one simulator process,
    journal the box→callee leg from the box side, and return its
    fingerprint.

    A live call through the gateway must produce the identical
    direction-wise fingerprint on its live leg, *provided* it is the
    first call each participating process has placed (descriptor
    versions and media ports advance monotonically per process, so
    later calls legitimately mint different bytes).
    """
    from ..network.network import Network

    net = Network(seed=0)
    caller_dev = net.device(caller, host=host_for(caller))
    box_agent = net.box(box)
    callee = net.device(target, auto_accept=True, host=host_for(target))
    ch1 = net.channel(caller_dev, box_agent)
    ch2 = net.channel(box_agent, callee, target=target, strict=False)
    journal = SignalJournal()
    journal.attach(ch2, 0)
    box_agent.flow_link(ch1.responder_end.slot(),
                        ch2.initiator_end.slot())
    caller_dev.open(ch1.initiator_end.slot(), medium)
    net.settle()
    return journal.fingerprint()
