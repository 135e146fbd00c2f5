"""Outside-in per-layer timing: wrappers around each layer's public seams.

The traced run installs these wrappers from the benchmark's side, before
the workload builds anything, and removes them afterwards; the program
under test gains no option, counter or span of its own.

Every wrapped call opens a span.  The current span lives in a
:class:`contextvars.ContextVar`, so spans nest correctly inside one
asyncio task and never across two concurrent tasks.  A span's *self
time* is its duration minus the durations of the spans nested in it;
per seam the tracer keeps exact sums of self time, inclusive time and
calls, and a bounded log of raw spans (name, start, end, span id,
parent id, op id) for the first :data:`LOG_OPS` ops, written out when
the run ends.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Tracer", "SEAM_NAMES", "LOG_OPS", "PER_LAYER", "layer_metrics"]

#: Raw spans are logged for ops ``0 .. LOG_OPS-1`` of the traced phase;
#: the per-seam sums cover every op.
LOG_OPS = 64

#: Every seam the tracer can report, in report order.
SEAM_NAMES = (
    "network.drain", "network.timers", "network.build",
    "protocol.slot_receive", "protocol.slot_send",
    "core.box_upcall", "core.goal", "core.program", "core.admission",
    "media.endpoint", "media.plane",
    "livenet.wait", "livenet.predicate", "livenet.pump", "livenet.wire",
    "livenet.reference_fp", "livenet.place_call", "livenet.http_client",
    "verification.explore", "verification.check",
)
_INDEX = {name: i for i, name in enumerate(SEAM_NAMES)}

# span layout: [seam index, child ns, closed, opaque, span id]
_SEAM, _CHILD, _CLOSED, _OPAQUE, _ID = range(5)

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def _rss_bytes() -> int:
    """Current resident set size (not the peak), from ``/proc``."""
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * _PAGE
    except (OSError, ValueError, IndexError):
        return 0


def _own_functions(cls: type, names: Optional[Tuple[str, ...]] = None
                   ) -> List[str]:
    """Plain functions ``cls`` defines itself (no properties, no
    inherited methods), optionally restricted to ``names``."""
    out = []
    for name, value in vars(cls).items():
        if names is not None and name not in names:
            continue
        if names is None and name.startswith("_"):
            continue
        if inspect.isfunction(value):
            out.append(name)
    return out


async def _awaited(coro: Any) -> Any:
    return await coro


def _subclasses(cls: type) -> List[type]:
    seen: List[type] = [cls]
    for sub in cls.__subclasses__():
        for c in _subclasses(sub):
            if c not in seen:
                seen.append(c)
    return seen


class Tracer:
    """Seam wrappers plus the per-seam accounting they feed."""

    def __init__(self) -> None:
        self._var: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_span", default=None)
        #: Calls per seam since install, warm-up included (hit-check).
        self.hits = [0] * len(SEAM_NAMES)
        self._next_id = 1
        self._undo: List[Tuple[Any, str, Any]] = []
        #: Event loops owned by live nodes: their ``advance`` is the
        #: live pump, reported under ``livenet.pump``.
        self.live_loops: List[Any] = []
        self.reset()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the per-op sums (not the hit counts) at the start of
        the measured phase."""
        n = len(SEAM_NAMES)
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self.calls = [0] * n
        self.op = 0
        self.spans: List[Tuple[int, int, int, int, int, int]] = []
        self.wire_bytes = self.frames = 0
        self.explore_states = self.explore_transitions = 0
        self.explore_rss_growth = 0

    def _open(self, seam: int, opaque: bool = False) -> list:
        span = [seam, 0, False, opaque, self._next_id]
        self._next_id += 1
        return span

    def _close(self, span: list, parent: Optional[list],
               t0: int, t1: int) -> None:
        seam = span[_SEAM]
        dur = t1 - t0
        span[_CLOSED] = True
        self.self_ns[seam] += dur - span[_CHILD]
        self.total_ns[seam] += dur
        self.calls[seam] += 1
        self.hits[seam] += 1
        parent_id = 0
        if parent is not None and not parent[_CLOSED]:
            parent[_CHILD] += dur
            parent_id = parent[_ID]
        if self.op < LOG_OPS:
            self.spans.append((seam, t0, t1, span[_ID], parent_id, self.op))

    def _parent(self) -> Tuple[Optional[list], bool]:
        """The live enclosing span, and whether it hides its children."""
        parent = self._var.get()
        if parent is not None and parent[_CLOSED]:
            # A callback scheduled from inside a span that has since
            # ended (an asyncio timer): it runs at top level.
            parent = None
        return parent, parent is not None and parent[_OPAQUE]

    # ------------------------------------------------------------------
    # wrapper factories
    # ------------------------------------------------------------------
    def _sync(self, seam: int, orig: Callable, opaque: bool = False,
              classify: Optional[Callable[[Any], int]] = None) -> Callable:
        var = self._var
        clock = time.perf_counter_ns

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent, hidden = self._parent()
            if hidden:
                return orig(*args, **kwargs)
            span = self._open(classify(args[0]) if classify else seam,
                              opaque)
            token = var.set(span)
            t0 = clock()
            try:
                return orig(*args, **kwargs)
            finally:
                t1 = clock()
                var.reset(token)
                self._close(span, parent, t0, t1)
        return wrapper

    def _async(self, seam: int, orig: Callable,
               wrap_predicate: bool = False) -> Callable:
        var = self._var
        clock = time.perf_counter_ns
        predicate_seam = _INDEX["livenet.predicate"]

        @functools.wraps(orig)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent, hidden = self._parent()
            if hidden:
                return await orig(*args, **kwargs)
            if wrap_predicate:
                # LiveNode.wait_for(self, predicate, ...): time the
                # predicate so the wait's self time is pure idle.
                args = (args[0], self._sync(predicate_seam, args[1])) \
                    + tuple(args[2:])
            span = self._open(seam)
            token = var.set(span)
            t0 = clock()
            try:
                return await orig(*args, **kwargs)
            finally:
                t1 = clock()
                var.reset(token)
                self._close(span, parent, t0, t1)
        return wrapper

    def _counted(self, seam: int, orig: Callable) -> Callable:
        """Count calls without timing them (timer arming is a count)."""
        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self.calls[seam] += 1
            self.hits[seam] += 1
            return orig(*args, **kwargs)
        return wrapper

    def _feed(self, orig: Callable) -> Callable:
        timed = self._sync(_INDEX["livenet.wire"], orig)

        @functools.wraps(orig)
        def wrapper(assembler: Any, data: bytes) -> Any:
            frames = timed(assembler, data)
            self.wire_bytes += len(data)
            self.frames += len(frames)
            return frames
        return wrapper

    def _explore(self, orig: Callable) -> Callable:
        timed = self._sync(_INDEX["verification.explore"], orig)

        @functools.wraps(orig)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = _rss_bytes()
            graph = timed(*args, **kwargs)
            self.explore_rss_growth += max(0, _rss_bytes() - before)
            self.explore_states += graph.state_count
            self.explore_transitions += graph.transition_count
            return graph
        return wrapper

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, wrapper)

    def _patch_function(self, module: str, name: str,
                        make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.name`` in every loaded ``repro`` module that
        bound it by name (``from .wire import encode_frame``)."""
        import sys
        orig = getattr(importlib.import_module(module), name)
        wrapper = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("repro") and mod is not None \
                    and vars(mod).get(name) is orig:
                self._patch(mod, name, wrapper)

    def install(self) -> None:
        """Wrap every seam.  Imports the layers it wraps, and the app
        modules, so that every subclass override is found."""
        import repro.apps  # noqa: F401 - registers Box/endpoint subclasses
        for app in ("click_to_dial", "collab_tv", "conference",
                    "features", "pbx", "prepaid"):
            importlib.import_module("repro.apps." + app)
        from repro.core.admission import AdmissionControl
        from repro.core.box import Box
        from repro.core.flowlink import FlowLink
        from repro.core.goals import CloseSlot, HoldSlot, OpenSlot
        from repro.core.program import Program
        from repro.livenet import gateway, wire
        from repro.livenet.tcp import LiveNode
        from repro.media.endpoint import MediaEndpoint
        from repro.media.plane import MediaPlane
        import repro.media.resources  # noqa: F401
        from repro.network.eventloop import EventLoop
        from repro.network.network import Network
        from repro.protocol.slot import Slot
        import repro.verification.report  # noqa: F401

        ix = _INDEX
        live = self.live_loops
        drain, pump = ix["network.drain"], ix["livenet.pump"]

        def classify_advance(loop: Any) -> int:
            return pump if loop in live else drain

        for name in ("run_until_quiescent", "run"):
            self._patch(EventLoop, name,
                        self._sync(drain, vars(EventLoop)[name]))
        self._patch(EventLoop, "advance",
                    self._sync(drain, vars(EventLoop)["advance"],
                               classify=classify_advance))
        for name in ("schedule", "schedule_at"):
            self._patch(EventLoop, name, self._counted(
                ix["network.timers"], vars(EventLoop)[name]))
        for name in ("__init__", "device", "box", "channel", "resource"):
            self._patch(Network, name, self._sync(
                ix["network.build"], vars(Network)[name]))
        self._patch(Slot, "receive", self._sync(
            ix["protocol.slot_receive"], vars(Slot)["receive"]))
        for name in ("send_open", "send_oack", "send_close",
                     "send_describe", "send_select", "send_busy"):
            self._patch(Slot, name, self._sync(
                ix["protocol.slot_send"], vars(Slot)[name]))
        for cls in _subclasses(Box):
            for name in _own_functions(cls, ("on_tunnel_signal",)):
                self._patch(cls, name, self._sync(
                    ix["core.box_upcall"], vars(cls)[name]))
        for cls in (FlowLink, OpenSlot, CloseSlot, HoldSlot):
            self._patch(cls, "goal_receive", self._sync(
                ix["core.goal"], vars(cls)["goal_receive"]))
        for name in ("poll", "start", "stop"):
            self._patch(Program, name, self._sync(
                ix["core.program"], vars(Program)[name]))
        self._patch(AdmissionControl, "admit", self._sync(
            ix["core.admission"], vars(AdmissionControl)["admit"]))
        endpoint_api = ("on_tunnel_signal", "open", "close", "accept",
                        "refresh_descriptor")
        for cls in _subclasses(MediaEndpoint):
            for name in _own_functions(cls, endpoint_api):
                self._patch(cls, name, self._sync(
                    ix["media.endpoint"], vars(cls)[name]))
        for name in _own_functions(MediaPlane):
            self._patch(MediaPlane, name, self._sync(
                ix["media.plane"], vars(MediaPlane)[name]))
        self._patch(LiveNode, "wait_for", self._async(
            ix["livenet.wait"], vars(LiveNode)["wait_for"],
            wrap_predicate=True))
        self._patch(gateway.Gateway, "place_call", self._async(
            ix["livenet.place_call"], vars(gateway.Gateway)["place_call"]))
        wire_seam = ix["livenet.wire"]
        for name in [n for n in vars(wire)
                     if n.startswith(("encode_", "decode_"))]:
            self._patch_function("repro.livenet.wire", name,
                                 lambda f: self._sync(wire_seam, f))
        self._patch(wire.FrameAssembler, "feed",
                    self._feed(vars(wire.FrameAssembler)["feed"]))
        # The gateway's sim replay is timed as one opaque unit: its
        # inner network work is the replay's cost, not the live call's.
        self._patch(gateway, "reference_fingerprint", self._sync(
            ix["livenet.reference_fp"], gateway.reference_fingerprint,
            opaque=True))
        self._patch_function("repro.verification.report", "explore",
                             self._explore)
        for name in ("check_safety", "check_stability",
                     "check_recurrence", "check_disjunction"):
            self._patch_function(
                "repro.verification.report", name,
                lambda f: self._sync(ix["verification.check"], f))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)

    async def client_span(self, coro: Any) -> Any:
        """Time one client request (``livenet.http_client``)."""
        return await self._async(_INDEX["livenet.http_client"],
                                 _awaited)(coro)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def seam_calls(self, name: str) -> int:
        return self.calls[_INDEX[name]]

    def seam_hits(self, name: str) -> int:
        return self.hits[_INDEX[name]]

    def self_us(self, name: str) -> float:
        return self.self_ns[_INDEX[name]] / 1e3

    def total_us(self, name: str) -> float:
        return self.total_ns[_INDEX[name]] / 1e3

    def missed(self, expected: Tuple[str, ...]) -> List[str]:
        """Expected seams that recorded no call since install."""
        return [name for name in expected if self.seam_hits(name) == 0]

    def write_spans(self, path: str) -> None:
        rows = [{"name": SEAM_NAMES[s], "start_ns": t0, "end_ns": t1,
                 "id": sid, "parent": pid, "op": op}
                for s, t0, t1, sid, pid, op in self.spans]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(rows, fh)


#: Every per-layer metric: (name, unit, better).  ``BENCHMARK.json``
#: lists the same entries.
PER_LAYER = (
    ("network.events_per_op", "count", "lower"),
    ("network.drain_self_us", "us", "lower"),
    ("network.timers_per_op", "count", "lower"),
    ("network.build_self_us", "us", "lower"),
    ("protocol.signals_per_op", "count", "lower"),
    ("protocol.slot_receive_self_us", "us", "lower"),
    ("protocol.slot_send_self_us", "us", "lower"),
    ("protocol.retries_per_op", "count", "lower"),
    ("core.box_upcall_self_us", "us", "lower"),
    ("core.goal_self_us", "us", "lower"),
    ("core.program_self_us", "us", "lower"),
    ("core.admission_self_us", "us", "lower"),
    ("core.admission_shed_per_op", "count", "lower"),
    ("media.endpoint_self_us", "us", "lower"),
    ("media.plane_self_us", "us", "lower"),
    ("livenet.wait_idle_ms", "ms", "lower"),
    ("livenet.pump_self_us", "us", "lower"),
    ("livenet.wire_self_us", "us", "lower"),
    ("livenet.wire_bytes_per_op", "bytes", "lower"),
    ("livenet.frames_per_op", "count", "lower"),
    ("livenet.reference_fp_self_us", "us", "lower"),
    ("livenet.http_self_us", "us", "lower"),
    ("verification.explore_s", "s", "lower"),
    ("verification.check_s", "s", "lower"),
    ("verification.states", "count", "lower"),
    ("verification.transitions", "count", "lower"),
    ("verification.states_per_s", "states/s", "higher"),
    ("verification.rss_per_state_bytes", "bytes", "lower"),
    ("trace_overhead", "1", "higher"),
)


def layer_metrics(tracer: Tracer, counts: Dict[str, int], ops: int,
                  overhead: float) -> Dict[str, float]:
    """Per-op values of every :data:`PER_LAYER` metric for one traced
    phase of ``ops`` ops.  ``counts`` holds the workload's exact count
    deltas (events, signals, retries, shed); ``overhead`` is traced
    over untraced ops per second."""
    per = 1.0 / ops
    us = tracer.self_us
    explore_s = us("verification.explore") / 1e6
    states = tracer.explore_states
    return {
        "network.events_per_op": counts["events"] * per,
        "network.drain_self_us": us("network.drain") * per,
        "network.timers_per_op": tracer.seam_calls("network.timers") * per,
        "network.build_self_us": us("network.build") * per,
        "protocol.signals_per_op": counts["signals"] * per,
        "protocol.slot_receive_self_us": us("protocol.slot_receive") * per,
        "protocol.slot_send_self_us": us("protocol.slot_send") * per,
        "protocol.retries_per_op": counts["retries"] * per,
        "core.box_upcall_self_us": us("core.box_upcall") * per,
        "core.goal_self_us": us("core.goal") * per,
        "core.program_self_us": us("core.program") * per,
        "core.admission_self_us": us("core.admission") * per,
        "core.admission_shed_per_op": counts["shed"] * per,
        "media.endpoint_self_us": us("media.endpoint") * per,
        "media.plane_self_us": us("media.plane") * per,
        "livenet.wait_idle_ms": us("livenet.wait") / 1e3 * per,
        "livenet.pump_self_us": us("livenet.pump") * per,
        "livenet.wire_self_us": us("livenet.wire") * per,
        "livenet.wire_bytes_per_op": tracer.wire_bytes * per,
        "livenet.frames_per_op": tracer.frames * per,
        "livenet.reference_fp_self_us": us("livenet.reference_fp") * per,
        # The client's round trip minus the gateway's call handling:
        # HTTP parsing, sockets and the asyncio hand-offs in between.
        "livenet.http_self_us": (tracer.total_us("livenet.http_client")
                                 - tracer.total_us("livenet.place_call"))
        * per,
        "verification.explore_s": explore_s * per,
        "verification.check_s": us("verification.check") / 1e6 * per,
        "verification.states": states * per,
        "verification.transitions": tracer.explore_transitions * per,
        "verification.states_per_s": states / explore_s if explore_s else 0.0,
        "verification.rss_per_state_bytes":
            tracer.explore_rss_growth / states if states else 0.0,
        "trace_overhead": overhead,
    }
