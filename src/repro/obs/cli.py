"""``python -m repro trace`` — record one bundled application run and
export its trace.

Usage::

    python -m repro trace click_to_dial              # text summary
    python -m repro trace click_to_dial --json out.json
                                                     # Chrome trace_event
                                                     # JSON (load in
                                                     # chrome://tracing
                                                     # or Perfetto)
    python -m repro trace pbx --plan flaky --seed 3  # trace a faulted run
    python -m repro trace prepaid --timeline         # one line per event
    python -m repro trace prepaid --timeline --category signal,fault
    python -m repro trace click_to_dial --msc        # signal.send stream
                                                     # in MSC line format
    python -m repro trace --list-apps

Exports are canonical (sorted keys, emission-order events, per-loop
name counters), so one seed produces byte-identical output — the
determinism tests compare whole files.

Exit status: 0 on success, 1 when the scenario errored (the partial
trace is still exported — that is the point of a flight recorder),
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, TextIO, Tuple

from ..chaos.scenarios import SCENARIOS
from ..network.faults import PLANS, FaultPlan
from ..network.network import Network
from ..protocol.slot import RetransmitPolicy
from ..tools.bench import emit
from .export import dumps_chrome, msc_lines, render_timeline
from .tracer import Tracer

__all__ = ["build_parser", "run_traced", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Run one bundled application with tracing on and "
                    "export the result (Chrome trace_event JSON, text "
                    "timeline, or MSC lines)")
    parser.add_argument("app", nargs="?", choices=SCENARIOS, metavar="APP",
                        help="application to trace (one of %s)"
                             % ", ".join(SCENARIOS))
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (default 7)")
    parser.add_argument("--plan", default=None, choices=PLANS,
                        metavar="NAME",
                        help="run under this named fault plan "
                             "(robust mode is then on unless "
                             "--no-retransmit)")
    parser.add_argument("--no-retransmit", action="store_true",
                        help="with --plan: disable robust mode")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write Chrome trace_event JSON to PATH "
                             "('-' for stdout)")
    parser.add_argument("--timeline", action="store_true",
                        help="print the full event timeline")
    parser.add_argument("--category", default=None, metavar="CATS",
                        help="comma-separated category filter for "
                             "--timeline (signal, slot, goal, program, "
                             "fault, channel)")
    parser.add_argument("--msc", action="store_true",
                        help="print the signal.send stream, one line "
                             "per signal")
    parser.add_argument("--list-apps", action="store_true",
                        help="list the traceable applications and exit")
    return parser


def run_traced(app: str, seed: int = 7, plan: Optional[FaultPlan] = None,
               retransmit: Optional[RetransmitPolicy] = None
               ) -> Tuple[Network, Dict[str, object], Optional[str]]:
    """Run ``app``'s scenario on a traced network.

    Returns ``(net, fingerprint, error)``; on a scenario exception the
    fingerprint is empty and ``error`` names it, but ``net.trace`` still
    holds everything recorded up to the failure.
    """
    net = Network(seed=seed, retransmit=retransmit, faults=plan,
                  trace=True)
    error: Optional[str] = None
    fingerprint: Dict[str, object] = {}
    try:
        fingerprint = SCENARIOS[app](net)
    except Exception as e:  # exported partial traces are the point
        error = "%s: %s" % (type(e).__name__, e)
    return net, fingerprint, error


def _format_span_table(tracer: Tracer, out: TextIO) -> None:
    print("spans (%d):" % len(tracer.spans), file=out)
    for span in tracer.spans.spans:
        status = "closed" if span.closed else "open"
        if span.failed:
            status = "FAILED"
        flowing = ("%8.3f" % span.flowing_at
                   if span.flowing_at is not None else "   never")
        closed = ("%8.3f" % span.closed_at
                  if span.closed_at is not None else "    open")
        extras = []
        if span.races:
            extras.append("races=%d" % span.races)
        if span.redescribes:
            extras.append("redescribes=%d" % span.redescribes)
        if span.retransmits:
            extras.append("retx=%d" % span.retransmits)
        print("  %-16s %-8s opened %8.3f  flowing %s  closed %s  %-7s %s"
              % (span.label, span.medium or "-", span.opened_at,
                 flowing, closed, status, " ".join(extras)), file=out)


def _format_summary(app: str, seed: int, plan: Optional[FaultPlan],
                    net: Network, fingerprint: Dict[str, object],
                    error: Optional[str], out: TextIO) -> None:
    tracer = net.trace
    assert tracer is not None
    title = "== trace %s (seed %d%s) ==" % (
        app, seed, ", plan %s" % plan.name if plan is not None else "")
    print(title, file=out)
    print("events emitted: %d   sim time: %.3fs   channels: %d"
          % (tracer.emitted, net.now, len(net.channels)), file=out)
    if error:
        print("scenario error: %s" % error, file=out)
    _format_span_table(tracer, out)
    snapshot = tracer.metrics.snapshot()
    print("counters:", file=out)
    for name, value in snapshot["counters"].items():
        print("  %-28s %d" % (name, value), file=out)
    histograms = {name: h for name, h in snapshot["histograms"].items()
                  if h["count"]}
    if histograms:
        print("histograms:", file=out)
        for name, h in histograms.items():
            print("  %-28s n=%-4d p50=%.3f p99=%.3f max=%.3f"
                  % (name, h["count"], h["p50"], h["p99"], h["max"]),
                  file=out)
    if fingerprint:
        print("fingerprint:", file=out)
        for key in sorted(fingerprint):
            print("  %-28s %r" % (key, fingerprint[key]), file=out)


def _trace_meta(app: str, args, plan: Optional[FaultPlan]
                ) -> Dict[str, Any]:
    meta: Dict[str, Any] = {"app": app, "seed": args.seed}
    if plan is not None:
        meta["plan"] = plan.describe()
        meta["retransmit"] = not args.no_retransmit
    return meta


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_apps:
        for name in SCENARIOS:
            print(name, file=out)
        return 0
    if args.app is None:
        parser.error("missing APP (see --list-apps)")
    plan = PLANS[args.plan] if args.plan is not None else None
    retransmit = None
    if plan is not None and not args.no_retransmit:
        retransmit = RetransmitPolicy()

    net, fingerprint, error = run_traced(
        args.app, seed=args.seed, plan=plan, retransmit=retransmit)
    tracer = net.trace
    assert tracer is not None

    if args.json:
        emit(args.json, dumps_chrome(tracer, meta=_trace_meta(
            args.app, args, plan)), out)
    if args.msc:
        for line in msc_lines(tracer):
            print(line, file=out)
    if args.timeline:
        categories = (args.category.split(",")
                      if args.category is not None else None)
        print(render_timeline(tracer, categories), file=out)
    if not (args.json == "-" or args.msc or args.timeline):
        _format_summary(args.app, args.seed, plan, net, fingerprint,
                        error, out)
    elif error:
        print("scenario error: %s" % error, file=sys.stderr)
    return 1 if error else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
