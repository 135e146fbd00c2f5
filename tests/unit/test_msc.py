"""Unit tests for the message-sequence-chart renderer over a traced run."""

import pytest

from repro import AUDIO, FixedLatency, Network
from repro.obs import SignalSent, msc_chart


def _sends(net, since=0.0):
    return [e for e in net.trace.events
            if isinstance(e, SignalSent) and e.ts >= since]


@pytest.fixture
def traced_call():
    net = Network(seed=13, latency=FixedLatency(0.01), trace=True)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    ch = net.channel(a, b)
    a.open(ch.end_for(a).slot(), AUDIO)
    net.settle()
    return net, a, b, ch


def test_tracer_captures_the_handshake(traced_call):
    net, a, b, ch = traced_call
    kinds = [e.label.split("(")[0] for e in _sends(net)]
    assert kinds.count("open") == 1
    assert kinds.count("oack") == 1
    assert kinds.count("select") == 2   # one per direction


def test_tracer_records_direction(traced_call):
    net, a, b, ch = traced_call
    opens = [e for e in _sends(net) if e.label.startswith("open")]
    assert opens[0].source == "A" and opens[0].target == "B"
    oacks = [e for e in _sends(net) if e.label.startswith("oack")]
    assert oacks[0].source == "B" and oacks[0].target == "A"


def test_summary_counts(traced_call):
    net, a, b, ch = traced_call
    counters = net.trace.metrics.snapshot()["counters"]
    assert counters["signals.sent.open"] == 1
    assert counters["signals.sent.select"] == 2


def test_render_produces_columns(traced_call):
    net, a, b, ch = traced_call
    lines = msc_chart(net.trace).splitlines()
    assert "A" in lines[0] and "B" in lines[0]
    assert len(lines) == 1 + len(_sends(net))
    assert any("open" in line for line in lines)
    assert any(">" in line for line in lines[1:])
    assert any("<" in line for line in lines[1:])


def test_attach_is_idempotent(traced_call):
    net, a, b, ch = traced_call
    before = len(_sends(net))
    net.trace.attach_channel(ch)      # second tap: no double-count
    a.modify(ch.end_for(a).slot(), mute_out=True)
    net.settle()
    # mute_out change = exactly one fresh selector, counted once even
    # though the channel was attached twice.
    assert len(_sends(net)) - before == 1


def test_start_cut_drops_earlier_signals(traced_call):
    net, a, b, ch = traced_call
    start = net.now
    assert msc_chart(net.trace, since=start).splitlines()[1:] == []
    a.modify(ch.end_for(a).slot(), mute_out=True)
    net.settle()
    rows = msc_chart(net.trace, order=["A", "B"], since=start)
    (row,) = rows.splitlines()[1:]
    sent = _sends(net, since=start)[0]
    # Times are relative to the cut.
    assert row.startswith("%8.1f " % ((sent.ts - start) * 1000.0))
    assert "select" in row


def test_order_leaves_out_other_parties(traced_call):
    net, a, b, ch = traced_call
    lines = msc_chart(net.trace, order=["A"]).splitlines()
    assert lines == ["t(ms)".rjust(9) + " " + "A".center(16)]


def test_no_media_descriptor_labelled(traced_call):
    net, a, b, ch = traced_call
    start = net.now
    a.modify(ch.end_for(a).slot(), mute_in=True)
    net.settle()
    labels = [e.label for e in _sends(net, since=start)]
    assert "describe(noMedia)" in labels
