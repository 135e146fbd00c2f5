"""Unit tests for the observability subsystem (repro.obs): flight
recorder, metrics, span tracking, the tracer hub, and the exporters."""

import json

import pytest

from repro import AUDIO, Network
from repro.obs.events import (ChannelEvent, FaultInjected, GoalEvent,
                              ProgramStep, Retransmit, SignalReceived,
                              SignalSent, SlotDrop, SlotFailed,
                              SlotTransition)
from repro.obs.export import (chrome_trace, dumps_chrome, msc_lines,
                              render_timeline)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import SpanTracker
from repro.obs.tracer import Tracer


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------
def test_recorder_ring_keeps_only_last_capacity():
    rec = FlightRecorder(capacity=3)
    for i in range(10):
        rec.record(SlotDrop(ts=float(i), slot="s", channel="c",
                            tunnel="t0", kind="duplicate"))
    assert len(rec) == 3
    assert rec.recorded == 10
    assert [e.ts for e in rec.events()] == [7.0, 8.0, 9.0]


def test_recorder_tail_formats_lines_and_bounds_n():
    rec = FlightRecorder(capacity=8)
    rec.record(Retransmit(ts=1.5, slot="a@ch/t0", channel="ch",
                          tunnel="t0", kind="open", attempt=2))
    rec.record(SlotFailed(ts=2.0, slot="a@ch/t0", channel="ch",
                          tunnel="t0", reason="open"))
    tail = rec.tail()
    assert tail == [
        "t=1.5000 slot.retransmit a@ch/t0 open attempt=2",
        "t=2.0000 slot.failed a@ch/t0 reason=open",
    ]
    assert rec.tail(1) == tail[-1:]


def test_recorder_rejects_nonpositive_capacity():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def test_histogram_nearest_rank_percentiles():
    h = Histogram("x")
    for v in [5.0, 1.0, 3.0, 2.0, 4.0]:
        h.observe(v)
    assert h.percentile(50) == 3.0
    assert h.percentile(0) == 1.0
    assert h.percentile(100) == 5.0
    assert h.percentile(90) == 5.0
    snap = h.snapshot()
    assert snap["count"] == 5 and snap["min"] == 1.0 and snap["max"] == 5.0


def test_histogram_empty_and_bad_percentile():
    h = Histogram("x")
    assert h.percentile(50) is None
    assert h.snapshot() == {"count": 0}
    h.observe(1.0)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_registry_standard_wiring_counts_by_kind():
    reg = MetricsRegistry()
    reg.feed(SignalSent(ts=0.0, channel="ch", source="a", target="b",
                        kind="open", label="open(x)", tunnel="t0"))
    reg.feed(SignalReceived(ts=0.1, channel="ch", agent="b", tunnel="t0",
                            kind="open", label="open(x)",
                            state_before="closed", state_after="opened",
                            accepted=True))
    reg.feed(Retransmit(ts=0.2, slot="s", channel="ch", tunnel="t0",
                        kind="open", attempt=1))
    reg.feed(SlotDrop(ts=0.3, slot="s", channel="ch", tunnel="t0",
                      kind="duplicate"))
    reg.feed(SlotFailed(ts=0.4, slot="s", channel="ch", tunnel="t0",
                        reason="open"))
    reg.feed(GoalEvent(ts=0.5, box="b", goal="OpenSlot", slots=("s",),
                       action="install"))
    reg.feed(ProgramStep(ts=0.6, box="b", source="a", target="b"))
    reg.feed(FaultInjected(ts=0.7, link="l", action="drop"))
    reg.feed(ChannelEvent(ts=0.8, channel="ch", action="up"))
    counters = reg.snapshot()["counters"]
    assert counters["signals.sent"] == 1
    assert counters["signals.sent.open"] == 1
    assert counters["signals.recv.open"] == 1
    assert counters["slot.retransmits.open"] == 1
    assert counters["slot.drops.duplicate"] == 1
    assert counters["slot.failures"] == 1
    assert counters["goals.install"] == 1
    assert counters["program.steps"] == 1
    assert counters["faults.drop"] == 1
    assert counters["channels.up"] == 1


# ----------------------------------------------------------------------
# span tracking (synthetic event feed)
# ----------------------------------------------------------------------
def _transition(ts, side, old, new, cause, medium=""):
    return SlotTransition(ts=ts, slot="s%d" % side, channel="ch",
                          tunnel="t0", end="end%d" % side, side=side,
                          old=old, new=new, cause=cause, medium=medium)


def test_span_lifecycle_open_flowing_closed():
    metrics = MetricsRegistry()
    tracker = SpanTracker(metrics)
    tracker.feed(_transition(1.0, 0, "closed", "opening", "send_open",
                             medium="audio"))
    tracker.feed(_transition(1.1, 1, "closed", "flowing", "send_oack"))
    assert len(tracker.spans) == 1
    span = tracker.spans[0]
    assert span.opened_at == 1.0 and span.medium == "audio"
    assert span.flowing_at is None
    tracker.feed(_transition(1.2, 0, "opening", "flowing", "recv_oack"))
    assert span.flowing_at == 1.2
    assert span.time_to_flowing() == pytest.approx(0.2)
    tracker.feed(_transition(2.0, 0, "flowing", "closing", "send_close"))
    tracker.feed(_transition(2.1, 1, "flowing", "closed", "recv_close"))
    tracker.feed(_transition(2.2, 0, "closing", "closed", "recv_closeack"))
    assert span.closed_at == 2.2
    assert span.duration() == pytest.approx(1.2)
    hist = metrics.snapshot()["histograms"]
    assert hist["span.time_to_flowing"]["count"] == 1
    assert hist["span.lifetime"]["count"] == 1


def test_span_episode_indices_on_tunnel_reuse():
    tracker = SpanTracker()
    for base in (0.0, 10.0):
        tracker.feed(_transition(base, 0, "closed", "opening", "send_open"))
        tracker.feed(_transition(base + 1, 0, "opening", "closed",
                                 "gave_up"))
    assert [s.index for s in tracker.spans] == [1, 2]
    assert tracker.spans[0].label == "ch/t0#1"
    assert tracker.spans[1].label == "ch/t0#2"
    assert not tracker.open_spans()


def test_span_annotations_race_retransmit_failure():
    tracker = SpanTracker()
    tracker.feed(_transition(0.0, 0, "closed", "opening", "send_open"))
    tracker.feed(SlotDrop(ts=0.1, slot="s0", channel="ch", tunnel="t0",
                          kind="race"))
    tracker.feed(Retransmit(ts=0.2, slot="s0", channel="ch", tunnel="t0",
                            kind="open", attempt=1))
    tracker.feed(SlotFailed(ts=0.3, slot="s0", channel="ch", tunnel="t0",
                            reason="open"))
    span = tracker.spans[0]
    assert span.races == 1 and span.retransmits == 1 and span.failed


def test_span_redescribe_counted_only_while_flowing():
    tracker = SpanTracker()
    tracker.feed(_transition(0.0, 0, "closed", "flowing", "send_oack"))
    tracker.feed(_transition(0.1, 1, "closed", "flowing", "recv_oack"))

    def describe(ts):
        return SignalReceived(ts=ts, channel="ch", agent="a",
                              tunnel="t0", kind="describe",
                              label="describe(x)", state_before="flowing",
                              state_after="flowing", accepted=True)

    tracker.feed(describe(0.2))
    assert tracker.spans[0].redescribes == 1


# ----------------------------------------------------------------------
# the tracer hub
# ----------------------------------------------------------------------
def test_tracer_fans_out_and_counts():
    tracer = Tracer(ring=4)
    seen = []
    tracer.subscribe(seen.append)
    event = ChannelEvent(ts=1.0, channel="ch", action="up")
    tracer.emit(event)
    assert tracer.emitted == 1
    assert tracer.last_ts == 1.0
    assert tracer.events == [event]
    assert tracer.flight.events() == [event]
    assert seen == [event]
    tracer.unsubscribe(seen.append)
    tracer.emit(event)
    assert len(seen) == 1


def test_tracer_keep_events_false_still_records_and_counts():
    tracer = Tracer(keep_events=False)
    tracer.emit(ChannelEvent(ts=1.0, channel="ch", action="up"))
    assert tracer.events is None
    assert tracer.emitted == 1
    assert tracer.flight_tail() == ["t=1.0000 channel.up ch"]
    assert tracer.metrics.snapshot()["counters"]["channels.up"] == 1


def test_exporters_require_full_event_log():
    tracer = Tracer(keep_events=False)
    with pytest.raises(ValueError):
        chrome_trace(tracer)
    with pytest.raises(ValueError):
        render_timeline(tracer)
    with pytest.raises(ValueError):
        msc_lines(tracer)


def test_attach_channel_is_idempotent():
    net = Network(seed=0, trace=True)
    a = net.device("a")
    b = net.device("b", auto_accept=True)
    ch = net.channel(a, b)
    hooks_before = len(ch.link._hooks)
    net.trace.attach_channel(ch)  # constructor already attached it
    assert len(ch.link._hooks) == hooks_before


# ----------------------------------------------------------------------
# exporters over a real run
# ----------------------------------------------------------------------
@pytest.fixture()
def traced_call():
    from repro import FixedLatency
    net = Network(seed=5, latency=FixedLatency(0.01), trace=True)
    a = net.device("alice")
    b = net.device("bob", auto_accept=True)
    ch = net.channel(a, b)
    a.open(ch.initiator_end.slot(), AUDIO)
    net.settle()
    a.close(ch.initiator_end.slot())
    net.settle()
    return net


def test_chrome_trace_structure(traced_call):
    payload = chrome_trace(traced_call.trace, meta={"app": "call"})
    events = payload["traceEvents"]
    phases = {e["ph"] for e in events}
    assert phases == {"M", "X", "i"}
    names = [e["args"]["name"] for e in events
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names == ["signaling", "media channels", "boxes", "faults"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 1
    span = spans[0]
    assert span["args"]["medium"] == "audio"
    assert span["args"]["still_open"] is False
    assert span["dur"] > 0
    assert payload["otherData"]["app"] == "call"
    assert payload["otherData"]["emitted"] == traced_call.trace.emitted
    # The payload is plain JSON.
    json.loads(dumps_chrome(traced_call.trace))


def test_render_timeline_filters_by_category(traced_call):
    full = render_timeline(traced_call.trace)
    signals = render_timeline(traced_call.trace, categories=["signal"])
    assert len(signals.splitlines()) < len(full.splitlines())
    assert all(" signal." in line for line in signals.splitlines())


def test_disabled_tracing_is_structurally_free():
    net = Network(seed=0)
    assert net.trace is None
    assert net.loop.trace is None
    a = net.device("a")
    b = net.device("b", auto_accept=True)
    ch = net.channel(a, b)
    assert ch.link._hooks == []
