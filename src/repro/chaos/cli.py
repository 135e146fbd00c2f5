"""``python -m repro chaos`` — run the bundled applications under a
fault plan and check media convergence.

Usage::

    python -m repro chaos                        # all six apps,
                                                 # drop10+dup10
    python -m repro chaos --plan flaky           # a named plan
    python -m repro chaos --drop 0.2 --jitter 0.05
    python -m repro chaos --app pbx --app prepaid --seed 3
    python -m repro chaos --json -               # JSON report on stdout
    python -m repro chaos --trace-json trace.json
                                                 # Chrome trace per app
    python -m repro chaos --bench-json BENCH_chaos.json
    python -m repro chaos --list-plans
    python -m repro chaos --no-retransmit        # negative control
                                                 # (exits 1 by design)

Exit status: 0 when every selected app converged, 1 when any diverged
or errored, 2 on usage errors (unknown plan or app).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, TextIO

from ..network.faults import PLANS, FaultPlan
from ..protocol.slot import RetransmitPolicy
from ..tools.bench import emit
from .runner import ChaosResult, run_suite
from .scenarios import SCENARIOS

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Drive the bundled applications over a lossy "
                    "network and verify that the media plane converges "
                    "to the fault-free fingerprint")
    parser.add_argument("--plan", default="drop10+dup10", choices=PLANS,
                        metavar="NAME",
                        help="named fault plan (see --list-plans)")
    parser.add_argument("--drop", type=float, default=None,
                        metavar="P", help="override drop probability")
    parser.add_argument("--duplicate", type=float, default=None,
                        metavar="P", help="override duplicate probability")
    parser.add_argument("--reorder", type=float, default=None,
                        metavar="P", help="override reorder probability")
    parser.add_argument("--jitter", type=float, default=None,
                        metavar="SECONDS", help="override delay jitter")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (default 7)")
    parser.add_argument("--app", action="append", default=None,
                        choices=SCENARIOS, metavar="NAME",
                        help="run only this app (repeatable; default: "
                             "all of %s)" % ", ".join(SCENARIOS))
    parser.add_argument("--no-retransmit", action="store_true",
                        help="disable robust mode (negative control: "
                             "apps are expected to break)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write the full JSON report to PATH "
                             "('-' for stdout)")
    parser.add_argument("--trace-json", default=None, metavar="PATH",
                        help="export each faulted run as Chrome "
                             "trace_event JSON; with several apps the "
                             "app name is inserted before the "
                             "extension (out.json -> out.pbx.json)")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write a benchmark summary to PATH "
                             "('-' for stdout)")
    parser.add_argument("--list-plans", action="store_true",
                        help="list the named fault plans and exit")
    return parser


def _resolve_plan(args) -> FaultPlan:
    plan = PLANS[args.plan]
    overrides = {name: getattr(args, name)
                 for name in ("drop", "duplicate", "reorder", "jitter")
                 if getattr(args, name) is not None}
    if overrides:
        plan = dataclasses.replace(
            plan, name="%s+custom" % plan.name, **overrides)
    return plan


def _format_text(results: List[ChaosResult], out: TextIO) -> None:
    print("%-14s %-18s %9s %8s %6s %6s  %s"
          % ("app", "plan", "verdict", "sim(s)", "drops", "dups",
             "detail"), file=out)
    for r in results:
        detail = r.error or "; ".join(r.mismatches) or ""
        print("%-14s %-18s %9s %8.2f %6d %6d  %s"
              % (r.app, r.plan["name"],
                 "converged" if r.converged else "DIVERGED",
                 r.sim_time, r.fault_stats.get("dropped", 0),
                 r.fault_stats.get("duplicated", 0), detail), file=out)
        if r.error and r.flight_tail:
            print("    flight recorder tail (last %d events):"
                  % len(r.flight_tail), file=out)
            for line in r.flight_tail:
                print("      %s" % line, file=out)


def _trace_path(path: str, app: str, many: bool) -> str:
    if not many:
        return path
    if path.endswith(".json"):
        return "%s.%s.json" % (path[:-len(".json")], app)
    return "%s.%s" % (path, app)


def _bench_payload(results: List[ChaosResult], seed: int) -> dict:
    return {
        "plan": results[0].plan if results else {},
        "seed": seed,
        "apps": {
            r.app: {
                "converged": r.converged,
                "elapsed": r.elapsed,
                "sim_time": r.sim_time,
                "fault_stats": r.fault_stats,
            } for r in results},
        "summary": {
            "apps_measured": len(results),
            "all_converged": all(r.converged for r in results),
        },
    }


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_plans:
        for name in sorted(PLANS):
            print("%-14s %s" % (name, PLANS[name].describe()), file=out)
        return 0
    plan = _resolve_plan(args)
    apps = args.app if args.app is not None else list(SCENARIOS)
    retransmit = None if args.no_retransmit else RetransmitPolicy()
    results = run_suite(apps=apps, plan=plan, seed=args.seed,
                        retransmit=retransmit,
                        keep_events=args.trace_json is not None)
    if args.trace_json:
        from ..obs.export import dumps_chrome
        for r in results:
            assert r.tracer is not None
            path = _trace_path(args.trace_json, r.app, len(results) > 1)
            emit(path, dumps_chrome(r.tracer, meta={
                "app": r.app, "seed": r.seed, "plan": r.plan,
                "converged": r.converged}), out)
    if args.json:
        emit(args.json, [r.to_json() for r in results], out)
    if args.json != "-":
        _format_text(results, out)
    if args.bench_json:
        emit(args.bench_json, _bench_payload(results, args.seed), out)
    return 0 if all(r.converged for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
