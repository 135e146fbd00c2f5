"""Retransmit backoff arithmetic at the give-up boundary.

The slot FSM retransmits an unacknowledged ``open`` at
``initial * backoff**k`` after the k-th send, so with ``initial`` i,
``backoff`` 2, and ``max_retries`` n the retransmits land at relative
instants i, 3i, 7i, ... and the give-up fires at ``i * (2**(n+1) - 1)``.
These tests pin that arithmetic exactly — one event early and the slot
must still be trying, at the boundary it must have degraded.
"""

import pytest

from repro.network.address import Address
from repro.network.eventloop import EventLoop
from repro.protocol.channel import SignalingAgent, SignalingChannel
from repro.protocol.codecs import AUDIO, G711
from repro.protocol.descriptor import DescriptorFactory, Selector
from repro.protocol.slot import RetransmitPolicy


class _Quiet(SignalingAgent):
    def on_tunnel_signal(self, slot, signal):
        pass

    def on_meta(self, end, signal):
        pass


def _black_hole(policy):
    """A channel whose link is down for good: every send vanishes, so
    the opener walks its full retransmit schedule."""
    loop = EventLoop()
    a, b = _Quiet(loop, "a"), _Quiet(loop, "b")
    ch = SignalingChannel(loop, a, b, retransmit=policy)
    ch.link.down = True
    slot = ch.ends[0].slot()
    desc = DescriptorFactory("a").descriptor(
        Address("10.0.0.1", 10000), (G711,))
    slot.send_open(AUDIO, desc)
    return loop, slot


def give_up_instant(policy):
    """Closed form of the schedule: i * (b**(n+1) - 1) / (b - 1)."""
    i, b, n = policy.initial, policy.backoff, policy.max_retries
    return i * (b ** (n + 1) - 1) / (b - 1)


@pytest.mark.parametrize("policy", [
    RetransmitPolicy(initial=0.25, backoff=2.0, max_retries=3,
                     stale_after=0.0),
    RetransmitPolicy(initial=0.1, backoff=2.0, max_retries=6,
                     stale_after=0.0),
    RetransmitPolicy(initial=0.5, backoff=3.0, max_retries=2,
                     stale_after=0.0),
])
def test_retransmits_land_on_the_closed_form_schedule(policy):
    loop, slot = _black_hole(policy)
    expected = 0.0
    for k in range(policy.max_retries):
        expected += policy.initial * policy.backoff ** k
        loop.advance(expected - loop.now)
        assert slot.retransmits == k + 1, "retransmit %d late" % (k + 1)
        assert not slot.failed
    # The give-up timer is one more backoff step out.
    boundary = give_up_instant(policy)
    loop.advance((boundary - loop.now) * 0.999)
    assert not slot.failed and slot.state == "opening"
    loop.run()
    assert loop.now == pytest.approx(boundary)
    assert slot.failed and slot.state == "closed"
    assert slot.retransmits == policy.max_retries
    assert loop.pending() == 0


def test_quarter_second_doubling_gives_up_at_3_75s():
    """The soak harness's policy (0.25s initial, x2, 3 retries) pinned
    to its absolute instants: retransmits at 0.25, 0.75, 1.75 and the
    noMedia degradation at exactly 3.75 simulated seconds."""
    policy = RetransmitPolicy(initial=0.25, backoff=2.0, max_retries=3,
                              stale_after=0.0)
    loop, slot = _black_hole(policy)
    seen = []
    for t in (0.25, 0.75, 1.75, 3.75):
        loop.advance(t - loop.now)
        seen.append((loop.now, slot.retransmits, slot.failed))
    assert seen == [(0.25, 1, False), (0.75, 2, False),
                    (1.75, 3, False), (3.75, 3, True)]
    assert give_up_instant(policy) == 3.75


def test_zero_retries_means_one_shot():
    policy = RetransmitPolicy(initial=0.25, backoff=2.0, max_retries=0,
                              stale_after=0.0)
    loop, slot = _black_hole(policy)
    loop.run()
    assert slot.retransmits == 0 and slot.failed
    assert loop.now == pytest.approx(0.25)  # gave up at the first timer


def test_stale_redescribe_budget_exhausts_at_the_same_closed_form():
    """The staleness re-describe walks the same geometric schedule
    (``stale_after * backoff**k``), and its budget exhausts exactly at
    the boundary instant — but unlike a dead handshake, a mute
    selector is application-visible, so the slot must stay flowing
    with no forced failure and no timer left ticking."""
    policy = RetransmitPolicy(initial=0.25, backoff=2.0, max_retries=2,
                              stale_after=0.5)
    loop = EventLoop()
    a, b = _Quiet(loop, "a"), _Quiet(loop, "b")
    ch = SignalingChannel(loop, a, b, retransmit=policy)
    sa, sb = ch.ends[0].slot(), ch.ends[1].slot()
    fa, fb = DescriptorFactory("a"), DescriptorFactory("b")
    first = fa.descriptor(Address("10.0.0.1", 10000), (G711,))
    sa.send_open(AUDIO, first)
    loop.advance(0.1)
    sb.send_oack(fb.descriptor(Address("10.0.0.2", 20000), (G711,)))
    loop.advance(0.1)
    assert sa.is_flowing and sb.is_flowing
    # b answers, so the handshake's own staleness recovery stands down.
    sb.send_select(Selector(answers=first.id, address=None, codec=G711))
    loop.advance(0.1)
    assert sa.selector_received is not None
    # A fresh descriptor over a dead wire: the answer on file names the
    # old id, so every staleness timer finds it unanswered.
    ch.link.down = True
    fresh = fa.descriptor(Address("10.0.0.1", 10002), (G711,))
    t0 = loop.now
    sa.send_describe(fresh)
    base = sa.retransmits
    expected = 0.0
    for k in range(policy.max_retries):
        expected += policy.stale_after * policy.backoff ** k
        loop.advance(t0 + expected - loop.now)
        assert sa.retransmits == base + k + 1
    # The budget-exhausted check fires one backoff step later — the
    # boundary instant of the same closed form, scaled by stale_after.
    boundary = t0 + policy.stale_after \
        * (policy.backoff ** (policy.max_retries + 1) - 1) \
        / (policy.backoff - 1)
    loop.run()
    assert loop.now == pytest.approx(boundary)
    assert sa.retransmits == base + policy.max_retries
    assert sa.is_flowing and not sa.failed  # mute, not dead
    assert loop.pending() == 0

