"""``python -m repro soak`` — sustained-churn soak with memory gates.

Usage::

    python -m repro soak                          # steady profile, 60s
                                                  # of simulated churn
    python -m repro soak --profile overload       # shedding engaged
    python -m repro soak --profile steady --profile overload \\
        --bench-json BENCH_soak.json
    python -m repro soak --epochs 6 --epoch-seconds 2   # CI smoke
    python -m repro soak --list-profiles

Each profile drives seeded Poisson session churn through a
multi-tenant relay around one core box (see :mod:`repro.load.soak`),
sampling RSS, per-type object counts, and scheduler lane depths every
epoch.  The memory-stability gate fails the run on growth beyond
tolerance; the safety check fails it on any unaccounted session or
undead slot.

Exit status: 0 when every profile passed its gates, 1 when any gate or
safety check failed, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from ..network.backend import describe as _backend_describe
from ..tools.bench import emit, positive
from .soak import SOAK_PROFILES, run_soak

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro soak",
        description="Drive sustained seeded call churn (Poisson "
                    "arrivals, heavy-hitter tenants, admission control) "
                    "and gate on memory stability and safe shedding")
    parser.add_argument("--profile", action="append", default=None,
                        choices=SOAK_PROFILES, metavar="NAME",
                        help="soak profile to run (repeatable; default "
                             "steady; known: %s)"
                             % ", ".join(SOAK_PROFILES))
    parser.add_argument("--list-profiles", action="store_true",
                        help="list the named profiles and exit")
    parser.add_argument("--seed", type=int, default=7,
                        help="simulation seed (default 7)")
    parser.add_argument("--epochs", type=positive(int), default=None,
                        metavar="N",
                        help="override the profile's sampling epochs")
    parser.add_argument("--epoch-seconds", type=positive(float),
                        default=None, metavar="S",
                        help="override the simulated seconds per epoch")
    parser.add_argument("--no-gate", action="store_true",
                        help="skip the memory-stability gate (report "
                             "only)")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write the soak report to PATH ('-' for "
                             "stdout)")
    return parser


def _list_profiles(out: TextIO) -> None:
    for name, profile in SOAK_PROFILES.items():
        sim = profile.epochs * profile.epoch_seconds
        print("%-9s %4.0fs sim, %d tenants x %d slots, %.0f/s arrivals"
              "%s — %s"
              % (name, sim, profile.tenants, profile.slots_per_tenant,
                 profile.arrival_rate,
                 ", admission caps" if profile.admission else "",
                 profile.description), file=out)


def _format_report(report: Dict[str, Any], out: TextIO) -> None:
    sessions = report["sessions"]
    gate = report["memory_gate"]
    print("%-9s %7.0fs sim  started=%d completed=%d shed=%d "
          "blocked=%d  gate=%s safety=%s"
          % (report["profile"]["name"], report["sim_time"],
             sessions["started"], sessions["completed"],
             sessions["shed_nomedia"],
             sessions["arrivals_blocked_no_slot"],
             "ok" if gate["ok"] else "FAIL",
             "ok" if not report["safety"]["violations"] else "FAIL"),
          file=out)
    for check in gate["checks"]:
        if not check["ok"]:
            print("    gate FAIL %s: baseline=%s final=%s limit=%s"
                  % (check["metric"], check["baseline"],
                     check["final"], check["limit"]), file=out)
    for violation in report["safety"]["violations"]:
        print("    safety FAIL: %s" % violation, file=out)


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_profiles:
        _list_profiles(out)
        return 0
    names = args.profile if args.profile else ["steady"]

    runs: Dict[str, Dict[str, Any]] = {}
    for name in names:
        profile = SOAK_PROFILES[name]
        if args.epochs is not None:
            profile = profile._replace(
                epochs=args.epochs,
                warmup_epochs=min(profile.warmup_epochs,
                                  max(0, args.epochs - 2)))
        if args.epoch_seconds is not None:
            profile = profile._replace(epoch_seconds=args.epoch_seconds)
        start = time.perf_counter()
        report = run_soak(profile, seed=args.seed,
                          gate=not args.no_gate)
        report["wall_elapsed"] = time.perf_counter() - start
        runs[name] = report
        _format_report(report, out)

    if args.bench_json:
        payload = {
            "config": {"seed": args.seed,
                       "backend": _backend_describe(),
                       "profiles": names},
            "runs": runs,
            "summary": {
                "all_ok": all(r["ok"] for r in runs.values()),
                "total_sessions": sum(
                    r["sessions"]["started"] for r in runs.values()),
                "total_shed_nomedia": sum(
                    r["sessions"]["shed_nomedia"]
                    for r in runs.values()),
                "safety_violations": sum(
                    r["safety"]["violation_count"]
                    for r in runs.values()),
            },
        }
        emit(args.bench_json, payload, out)
    return 0 if all(r["ok"] for r in runs.values()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
