#!/usr/bin/env python3
"""Regenerate Fig. 13 as a message-sequence chart.

The scenario: starting from Snapshot 3 of Fig. 3, the PBX and the
prepaid-card server change their flowlinks concurrently.  The run's
tracer records every signal; the chart keeps those sent on the path
A -- PBX -- PC -- C from the relink on, which can be compared line by
line with the paper's Fig. 13.

Run:  python examples/sequence_chart.py
"""

from collections import Counter

from repro import AUDIO, FixedLatency, Network
from repro.network.latency import PAPER_C, PAPER_N
from repro.obs import SignalSent, msc_chart

PATH = ["A", "PBX", "PC", "C"]


def main() -> None:
    net = Network(seed=0, latency=FixedLatency(PAPER_N), cost=PAPER_C,
                  trace=True)
    a = net.device("A")
    b = net.device("B", auto_accept=True)
    c = net.device("C")
    v = net.device("V", auto_accept=True)
    pbx = net.box("PBX")
    pc = net.box("PC")
    ch_a = net.channel(a, pbx)
    ch_b = net.channel(pbx, b)
    ch_mid = net.channel(pc, pbx)
    ch_c = net.channel(c, pc)
    ch_v = net.channel(pc, v)

    sa = ch_a.end_for(pbx).slot()
    sb = ch_b.end_for(pbx).slot()
    mid_pbx = ch_mid.end_for(pbx).slot()
    mid_pc = ch_mid.end_for(pc).slot()
    sc = ch_c.end_for(pc).slot()
    sv = ch_v.end_for(pc).slot()

    # Snapshot 3: A talks to B, C talks to V, middle tunnel held-muted.
    pbx.flow_link(sa, sb)
    pbx.hold_slot(mid_pbx)
    pc.flow_link(sc, sv)
    pc.open_slot(mid_pc, AUDIO)
    a.open(ch_a.end_for(a).slot(), AUDIO)
    c.open(ch_c.end_for(c).slot(), AUDIO)
    net.settle()
    pc.hold_slot(mid_pc)
    net.settle()

    def pbx_relink():
        pbx.hold_slot(sb)
        pbx.flow_link(sa, mid_pbx)

    def pc_relink():
        pc.hold_slot(sv)
        pc.flow_link(sc, mid_pc)

    start = net.now
    pbx.node.enqueue(pbx_relink)
    pc.node.enqueue(pc_relink)
    net.settle()

    print("Fig. 13 regenerated (times relative to the concurrent "
          "relink, n=34 ms, c=20 ms):\n")
    print(msc_chart(net.trace, order=PATH, width=20, since=start))
    counts = Counter(e.kind for e in net.trace.events
                     if isinstance(e, SignalSent) and e.ts >= start
                     and e.source in PATH and e.target in PATH)
    print("\nsignal counts:", dict(sorted(counts.items())))
    print("two-way media A<->C:", net.plane.two_way(a, c))


if __name__ == "__main__":
    main()
