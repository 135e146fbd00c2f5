"""Trace exporters: Chrome ``trace_event`` JSON and text timelines.

The Chrome format is the ``trace_event`` JSON Object Format understood
by ``chrome://tracing`` and by Perfetto's legacy loader: media-channel
spans become ``"X"`` (complete) events on one track per signaling path,
and every other trace event becomes an ``"i"`` (instant) mark on its
channel's, box's, or link's track.  Process and thread names are
declared with ``"M"`` metadata records.

Exports are canonical: events are serialized in emission order, object
keys are sorted, and track ids are allocated in first-appearance order,
so one seed produces byte-identical output — the determinism tests
compare whole files.

:func:`msc_lines` renders the ``signal.send`` stream one signal per
line, and :func:`msc_chart` draws the same stream as a column chart in
the style of the paper's message-sequence charts (Figs. 10 and 13).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .events import (ChannelEvent, FaultInjected, GoalEvent, ProgramStep,
                     Retransmit, SignalReceived, SignalSent, SlotDrop,
                     SlotFailed, TraceEvent)
from .spans import MediaChannelSpan
from .tracer import Tracer

__all__ = ["chrome_trace", "dumps_chrome", "render_timeline", "msc_lines",
           "msc_chart"]

#: Fixed process ids: one per track family, declared up front so the
#: viewer groups related tracks together.
_PID_SIGNALING = 1
_PID_SPANS = 2
_PID_BOXES = 3
_PID_FAULTS = 4

_PROCESS_NAMES = {
    _PID_SIGNALING: "signaling",
    _PID_SPANS: "media channels",
    _PID_BOXES: "boxes",
    _PID_FAULTS: "faults",
}


def _us(ts: float) -> float:
    """Simulated seconds → trace microseconds, stably rounded."""
    return round(ts * 1e6, 3)


class _Tracks:
    """First-appearance allocator of thread ids within one process."""

    def __init__(self, pid: int):
        self.pid = pid
        self._tids: Dict[str, int] = {}
        self.metadata: List[Dict[str, Any]] = []

    def tid(self, name: str) -> int:
        tid = self._tids.get(name)
        if tid is None:
            tid = self._tids[name] = len(self._tids) + 1
            self.metadata.append({
                "ph": "M", "name": "thread_name", "pid": self.pid,
                "tid": tid, "args": {"name": name}})
        return tid


def _event_log(tracer: Tracer, exporter: str) -> List[TraceEvent]:
    """The tracer's full event log; exporters cannot run without it."""
    if tracer.events is None:
        raise ValueError(
            "%s needs the full event log; this Tracer was created with "
            "keep_events=False" % exporter)
    return tracer.events


def _instant_track(event: TraceEvent) -> Optional[tuple]:
    """(pid, track name) for an instant event, or ``None`` to skip."""
    if isinstance(event, (SignalSent, SignalReceived, SlotDrop,
                          Retransmit, SlotFailed, ChannelEvent)):
        return (_PID_SIGNALING, event.channel)
    if isinstance(event, (GoalEvent, ProgramStep)):
        return (_PID_BOXES, event.box)
    if isinstance(event, FaultInjected):
        return (_PID_FAULTS, event.link)
    return None  # SlotTransition: rendered as span tracks, not marks


def _span_event(span: MediaChannelSpan, tid: int, end_ts: float,
                ) -> Dict[str, Any]:
    closed_at = span.closed_at if span.closed_at is not None else end_ts
    args = span.to_json()
    args["still_open"] = span.closed_at is None
    return {
        "ph": "X", "cat": "span", "name": span.label,
        "pid": _PID_SPANS, "tid": tid,
        "ts": _us(span.opened_at),
        "dur": round(_us(closed_at) - _us(span.opened_at), 3),
        "args": args,
    }


def chrome_trace(tracer: Tracer,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Build the Chrome ``trace_event`` payload for a finished run.

    Requires the tracer's full event log (``keep_events=True``).
    ``meta`` lands in ``otherData`` (app name, seed, fault plan...).
    """
    events = _event_log(tracer, "chrome_trace")
    tracks = {pid: _Tracks(pid) for pid in _PROCESS_NAMES}
    process_meta = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": name}}
        for pid, name in sorted(_PROCESS_NAMES.items())]
    body: List[Dict[str, Any]] = []
    for span in tracer.spans.spans:
        tid = tracks[_PID_SPANS].tid("%s/%s" % (span.channel, span.tunnel))
        body.append(_span_event(span, tid, tracer.last_ts))
    for event in events:
        where = _instant_track(event)
        if where is None:
            continue
        pid, track = where
        body.append({
            "ph": "i", "s": "t", "cat": event.category,
            "name": "%s.%s" % (event.category, event.event_name()),
            "pid": pid, "tid": tracks[pid].tid(track),
            "ts": _us(event.ts), "args": event.args(),
        })
    trace_events: List[Dict[str, Any]] = []
    trace_events.extend(process_meta)
    for pid in sorted(tracks):
        trace_events.extend(tracks[pid].metadata)
    trace_events.extend(body)
    other = {"emitted": tracer.emitted,
             "metrics": tracer.metrics.snapshot()}
    if meta:
        other.update(meta)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": other}


def dumps_chrome(tracer: Tracer,
                 meta: Optional[Dict[str, Any]] = None) -> str:
    """Canonical serialization of :func:`chrome_trace`: sorted keys,
    two-space indent, trailing newline — fit for byte comparison."""
    payload = chrome_trace(tracer, meta)
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# text renderings
# ----------------------------------------------------------------------
def render_timeline(tracer: Tracer,
                    categories: Optional[List[str]] = None) -> str:
    """The full event stream, one line per event, optionally filtered to
    the given categories (``signal``, ``slot``, ``goal``, ``program``,
    ``fault``, ``channel``)."""
    events = _event_log(tracer, "render_timeline")
    wanted = set(categories) if categories is not None else None
    lines = []
    for event in events:
        if wanted is not None and event.category not in wanted:
            continue
        lines.append("%9.4f  %s" % (event.ts, event.describe()))
    return "\n".join(lines)


def msc_lines(tracer: Tracer) -> List[str]:
    """The ``signal.send`` stream, one ``"%8.3f  src -> dst : label"``
    line per signal offered to the wire."""
    return ["%8.3f  %s -> %s : %s" % (e.ts, e.source, e.target, e.label)
            for e in _event_log(tracer, "msc_lines")
            if isinstance(e, SignalSent)]


def msc_chart(tracer: Tracer, order: Optional[Sequence[str]] = None,
              width: int = 16, since: float = 0.0) -> str:
    """The ``signal.send`` stream as a text message-sequence chart: one
    column per party, one arrow per signal sent at or after ``since``,
    times in ms relative to ``since``.

    ``order`` fixes the columns (default: first appearance); a signal
    to or from a party outside it is left out, which is how a chart
    shows one signaling path of a larger network.
    """
    sends = [e for e in _event_log(tracer, "msc_chart")
             if isinstance(e, SignalSent) and e.ts >= since]
    if order is None:
        order = list(dict.fromkeys(name for e in sends
                                   for name in (e.source, e.target)))
    col = {name: i for i, name in enumerate(order)}
    lines = ["t(ms)".rjust(9) + " "
             + "".join(name.center(width) for name in order)]
    for e in sends:
        if e.source not in col or e.target not in col:
            continue
        a, b = col[e.source], col[e.target]
        lo = min(a, b)
        span = abs(a - b) * width
        body = e.label[:span - 3].center(span - 2, "-")
        arrow = (body + ">") if a < b else ("<" + body)
        lines.append("%8.1f " % ((e.ts - since) * 1000.0)
                     + " " * (lo * width + width // 2) + arrow)
    return "\n".join(lines)
