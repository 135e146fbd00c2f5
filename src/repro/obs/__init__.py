"""Observability for the media-control runtime.

The paper's unit of correctness is per-signaling-path temporal behavior
(Secs. V-VIII): ``bothClosed``/``bothFlowing`` stability, open/open
races, descriptor freshness.  This package makes that behavior a
first-class runtime artifact instead of something reconstructed from
end-state fingerprints:

* :mod:`~repro.obs.events` — the typed trace-event taxonomy emitted by
  the instrumented runtime (signal send/recv, slot FSM transitions,
  goal rewrites, retransmissions, fault injections, program steps);
* :mod:`~repro.obs.tracer` — the per-loop :class:`Tracer` hub fanning
  events out to the flight recorder, span model, metrics registry, and
  any extra subscribers;
* :mod:`~repro.obs.recorder` — the always-on ring-buffer flight
  recorder whose tail rides on :class:`~repro.network.eventloop.
  QuiescenceError` and slot-failure payloads;
* :mod:`~repro.obs.spans` — media-channel spans keyed by
  ``(channel, tunnel)``: open → flowing → closed lifecycles with race,
  re-describe, and retransmission annotations;
* :mod:`~repro.obs.metrics` — counters and simulated-clock histograms
  (signal counts, retries, time-to-``bothFlowing`` percentiles);
* :mod:`~repro.obs.export` — Chrome ``trace_event`` JSON, plain-text
  signaling timelines, and message-sequence charts (Figs. 10 and 13).

Everything is keyed to the simulated clock, so one seed produces one
byte-identical trace; and every emission site in the runtime is guarded
by a single ``loop.trace is None`` test, so a run without a tracer pays
nothing.
"""

from .events import (ChannelEvent, FaultInjected, GoalEvent, ProgramStep,
                     Retransmit, SignalReceived, SignalSent, SlotDrop,
                     SlotFailed, SlotFailureRecord, SlotTransition,
                     TraceEvent, signal_label)
from .export import (chrome_trace, dumps_chrome, msc_chart, msc_lines,
                     render_timeline)
from .metrics import Counter, Histogram, MetricsRegistry
from .recorder import FlightRecorder
from .spans import MediaChannelSpan, SpanTracker
from .tracer import Tracer

__all__ = [
    "TraceEvent", "SignalSent", "SignalReceived", "SlotTransition",
    "SlotDrop", "Retransmit", "SlotFailed", "SlotFailureRecord",
    "GoalEvent", "ProgramStep", "FaultInjected", "ChannelEvent",
    "signal_label",
    "Tracer", "FlightRecorder",
    "MediaChannelSpan", "SpanTracker",
    "Counter", "Histogram", "MetricsRegistry",
    "chrome_trace", "dumps_chrome", "msc_chart", "msc_lines",
    "render_timeline",
]
