"""``python -m repro sweep`` — the parallel Sec. VIII-A model sweep
from the command line.

Usage::

    python -m repro sweep                        # the 12-model sweep
    python -m repro sweep --two                  # + two-flowlink models
    python -m repro sweep --jobs 4               # worker count
    python -m repro sweep --max-states 20000     # smoke bound
                                                 # (over-budget models
                                                 # come back truncated)
    python -m repro sweep --json results.json    # machine-readable
    python -m repro sweep --trace-json sweep.json
                                                 # Chrome trace of the
                                                 # sweep's execution

The ``--trace-json`` export lays the models out serially on one track
per path type, each an ``"X"`` slice as wide as its wall-clock
``elapsed`` — a profile of where the sweep spends its time.  Unlike the
app traces of ``python -m repro trace``, it is clocked on wall time and
therefore *not* byte-reproducible.

Exit status: 0 when every model passed (no safety/spec failure, no
truncation), 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import Any, Dict, List, Optional, TextIO

from ..tools.bench import emit
from .models import PATH_TYPES
from .report import VerificationResult, blowup_table, format_results
from .sweep import default_jobs, run_jobs

__all__ = ["build_parser", "sweep_trace", "print_results", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description="Fan the Sec. VIII-A verification models across a "
                    "worker pool and report the results table")
    parser.add_argument("--two", action="store_true",
                        help="include the two-flowlink extension models")
    parser.add_argument("--path-type", action="append", default=None,
                        choices=PATH_TYPES, metavar="NAME",
                        help="restrict to this path type (repeatable; "
                             "default: all of %s)" % ", ".join(PATH_TYPES))
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker count (default: one per core)")
    parser.add_argument("--max-states", type=int, default=2_000_000,
                        metavar="N",
                        help="per-model state bound (default 2000000)")
    parser.add_argument("--max-seconds", type=float, default=None,
                        metavar="S",
                        help="per-model wall-clock bound")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="write results as JSON to PATH "
                             "('-' for stdout)")
    parser.add_argument("--trace-json", default=None, metavar="PATH",
                        help="write a Chrome trace_event profile of the "
                             "sweep to PATH")
    return parser


def sweep_trace(results: List[VerificationResult]) -> Dict[str, Any]:
    """Chrome ``trace_event`` payload profiling one sweep: models laid
    out serially in report order, one track per path type, slice width =
    wall-clock ``elapsed``."""
    trace_events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": "verification sweep"}}]
    tids: Dict[str, int] = {}
    body: List[Dict[str, Any]] = []
    cursor = 0.0
    for r in results:
        track = r.key.split("+")[0]
        tid = tids.get(track)
        if tid is None:
            tid = tids[track] = len(tids) + 1
            trace_events.append({
                "ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                "args": {"name": track}})
        body.append({
            "ph": "X", "cat": "model", "name": r.key, "pid": 1,
            "tid": tid, "ts": round(cursor * 1e6, 3),
            "dur": round(r.elapsed * 1e6, 3),
            "args": {
                "property": r.property_kind,
                "states": r.states,
                "transitions": r.transitions,
                "safety_ok": r.safety_ok,
                "property_ok": r.property_ok,
                "truncated": r.truncated,
            }})
        cursor += r.elapsed
    trace_events.extend(body)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms",
            "otherData": {"models": len(results),
                          "total_elapsed": round(cursor, 6)}}


def print_results(results: List[VerificationResult], out: TextIO) -> None:
    """The results table, then the flowlink blow-up factors of every
    path type swept both with and without a flowlink."""
    print(format_results(results), file=out)
    table = blowup_table(results)
    if table:
        print("\nflowlink blow-up factors:", file=out)
        for key, f in sorted(table.items()):
            print("    %-4s memory x%-7.1f time x%.1f"
                  % (key, f["memory_factor"], f["time_factor"]), file=out)


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    counts = (0, 1, 2) if args.two else (0, 1)
    jobs = default_jobs(flowlink_counts=counts, path_types=args.path_type,
                        max_states=args.max_states,
                        max_seconds=args.max_seconds)
    results = run_jobs(jobs, processes=args.jobs)
    if args.json != "-":
        print_results(results, out)
    if args.json:
        emit(args.json, [dataclasses.asdict(r) for r in results], out)
    if args.trace_json:
        emit(args.trace_json, sweep_trace(results), out)
    return 0 if all(r.ok for r in results) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
