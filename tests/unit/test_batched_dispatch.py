"""Tests for the two-lane batched drain (PR 6).

These pin the invariants the batched dispatch rewrite must preserve:
same-timestamp bursts drain in strict ``(time, priority, seq)`` order
across both lanes, cancellation works mid-batch, tombstones never
consume event budget, and the deferred counter flush survives a
raising callback.
"""

from __future__ import annotations

import pytest

from repro.network.eventloop import EventLoop, QuiescenceError


def test_same_timestamp_burst_merges_lanes_by_seq():
    # Events scheduled *before* the clock reaches t sit in the heap;
    # events scheduled *at* t (by a callback running at t) sit in the
    # ready lane.  The drain must interleave them in seq order.
    loop = EventLoop()
    out = []

    def b():
        out.append("b")
        loop.call_soon(out.append, "lane")  # seq 3, after h1/h2

    loop.schedule(1.0, b)                   # seq 0
    loop.schedule(1.0, out.append, "h1")    # seq 1
    loop.schedule(1.0, out.append, "h2")    # seq 2
    loop.run()
    assert out == ["b", "h1", "h2", "lane"]


def test_priority_splits_a_same_instant_batch():
    # Negative priorities (heap) fire before the ready lane, positive
    # after it, seq breaks ties inside each class.
    loop = EventLoop()
    out = []

    def burst():
        loop.call_soon(out.append, "r1")
        loop.schedule(0.0, out.append, "r2")           # lane (prio 0)
        loop.schedule(0.0, out.append, "p-", priority=-1)
        loop.schedule(0.0, out.append, "p+", priority=1)
        loop.call_soon(out.append, "r3")

    loop.schedule(1.0, burst)
    loop.run()
    assert out == ["p-", "r1", "r2", "r3", "p+"]


def test_schedule_at_clamp_drift_joins_the_current_batch():
    # (now + dt) - dt is not always >= now in binary floating point;
    # an absolute timestamp a rounding error in the past is clamped to
    # the current instant and joins the in-progress batch in seq order.
    loop = EventLoop()
    out = []

    def first():
        out.append("first")
        loop.call_soon(out.append, "second")
        drifted = loop.now - 1e-12          # sub-tolerance drift
        ev = loop.schedule_at(drifted, out.append, "clamped")
        assert ev.time == loop.now          # clamped, not in the past

    loop.schedule(0.30000000000000004, first)
    loop.run()
    assert out == ["first", "second", "clamped"]


def test_schedule_at_genuinely_past_still_raises():
    loop = EventLoop()
    loop.schedule(1.0, lambda: None)
    loop.run()
    with pytest.raises(ValueError):
        loop.schedule_at(loop.now - 0.5, lambda: None)


def test_cancellation_inside_a_draining_batch():
    # An early event in a same-instant batch cancels a later one that
    # is already sitting in the ready lane: the tombstone must be
    # skipped, not fired, and the live counter must end at zero.
    loop = EventLoop()
    out = []
    holder = {}

    def a():
        out.append("a")
        holder["c"].cancel()

    def burst():
        loop.call_soon(a)
        holder["c"] = loop.call_soon(out.append, "c")
        loop.call_soon(out.append, "d")

    loop.schedule(1.0, burst)
    n = loop.run()
    assert out == ["a", "d"]
    assert loop.pending() == 0
    # burst, a, d executed; the cancelled c did not count
    assert n == 3


def test_lane_callback_can_cancel_same_instant_heap_event():
    # Positive-priority events at the same instant live in the heap
    # behind the lane; a lane callback may cancel one mid-batch.
    loop = EventLoop()
    out = []
    holder = {}

    def burst():
        holder["p"] = loop.schedule(0.0, out.append, "p", priority=1)
        loop.call_soon(lambda: holder["p"].cancel())
        loop.call_soon(out.append, "lane")

    loop.schedule(1.0, burst)
    loop.run()
    assert out == ["lane"]
    assert loop.pending() == 0


def test_tombstones_do_not_consume_the_event_budget():
    loop = EventLoop()
    out = []
    events = [loop.schedule(1.0 + i * 0.001, out.append, i)
              for i in range(10)]
    for ev in events[:5]:
        ev.cancel()
    executed = loop.run(max_events=5)
    assert executed == 5
    assert out == [5, 6, 7, 8, 9]


def test_run_until_quiescent_with_cancelled_dominated_heap_front():
    # Regression (satellite b): a heap whose front is mostly tombstones
    # (timer-heavy runs after mass cancellation) must quiesce without
    # the tombstones eating the budget or inflating the executed count.
    loop = EventLoop()
    out = []
    events = [loop.schedule(1.0 + i * 0.001, out.append, i)
              for i in range(60)]
    for ev in events[:40]:       # <= 64 total: below the compaction
        ev.cancel()              # trigger, so the tombstones stay put
    assert len(loop._heap) == 60
    executed = loop.run_until_quiescent(max_events=20)
    assert executed == 20
    assert out == list(range(40, 60))
    assert loop.pending() == 0


def test_quiescence_error_reports_the_live_front_past_tombstones():
    loop = EventLoop()

    def rearm():
        loop.schedule(1.0, rearm)

    loop.schedule(1.0, rearm)
    doomed = [loop.schedule(0.5, lambda: None) for _ in range(30)]
    for ev in doomed:
        ev.cancel()
    with pytest.raises(QuiescenceError) as excinfo:
        loop.run_until_quiescent(max_events=10)
    err = excinfo.value
    assert err.max_events == 10
    assert err.pending == 1
    assert "rearm" in err.next_event


def test_mass_cancellation_compacts_the_heap():
    # Once the heap is majority tombstones (and big enough to matter),
    # cancel() compacts it in place so push/pop log factors track the
    # live population.
    loop = EventLoop()
    out = []
    events = [loop.schedule(1.0 + i * 0.001, out.append, i)
              for i in range(100)]
    for ev in events[:60]:
        ev.cancel()
    assert loop.pending() == 40
    assert len(loop._heap) < 100     # compaction fired at some cancel
    loop.run()
    assert out == list(range(60, 100))


def test_counters_are_flushed_when_a_callback_raises():
    # The drain defers the executed/live flush to a finally block; a
    # raising callback mid-batch must leave both counters consistent
    # and the rest of the batch still runnable.
    loop = EventLoop()
    out = []

    def boom():
        raise RuntimeError("mid-batch failure")

    loop.call_soon(out.append, "a")
    loop.call_soon(boom)
    loop.call_soon(out.append, "c")
    with pytest.raises(RuntimeError):
        loop.run()
    assert out == ["a"]
    assert loop.executed == 2        # a + boom; c never ran
    assert loop.pending() == 1       # c still live
    loop.run()
    assert out == ["a", "c"]
    assert loop.executed == 3
    assert loop.pending() == 0


def test_step_and_run_agree_on_batch_order():
    loop_a, loop_b = EventLoop(), EventLoop()
    order_a, order_b = [], []
    for loop, order in ((loop_a, order_a), (loop_b, order_b)):
        def burst(loop=loop, order=order):
            loop.call_soon(order.append, "x")
            loop.schedule(0.0, order.append, "y", priority=-1)
            loop.call_soon(order.append, "z")
        loop.schedule(1.0, burst)
    loop_a.run()
    while loop_b.step():
        pass
    assert order_a == order_b == ["y", "x", "z"]


def test_timed_run_stops_at_the_boundary():
    # A timed run must not execute events past ``until`` and must leave
    # the clock exactly at the boundary.
    loop = EventLoop()
    out = []
    loop.schedule(1.0, out.append, "t1")
    loop.schedule(2.0, out.append, "t2")
    loop.run(until=1.5)
    assert out == ["t1"]
    assert loop.now == 1.5
    loop.run()
    assert out == ["t1", "t2"]
