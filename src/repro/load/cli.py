"""``python -m repro load`` — the sharded call-load harness.

Usage::

    python -m repro load                         # 1000 relay calls,
                                                 # one shard
    python -m repro load --calls 2000 --shards 4
    python -m repro load --apps relay --apps pbx --calls 200
    python -m repro load --fault-plan drop10+dup10
    python -m repro load --scaling 1,2,4 --bench-json BENCH_load.json
    python -m repro load --calls 200 --shards 2 --bench-json -

Shards are independent seeded batches (see
:mod:`repro.load.harness`); ``--scaling`` repeats the run once per
worker count so the benchmark report shows how throughput scales.  A
single-shard run executes serially in-process, so the stock profiler
sees all of it::

    python -m cProfile -s cumulative -m repro load --calls 1000
    python -m cProfile -o load.pstats -m repro load --calls 1000

Exit status: 0 when every shard completed, 1 when any shard errored,
2 on usage errors (unknown topology or fault plan, a count that is
not positive).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Dict, List, Optional, TextIO

from ..network.backend import describe as _backend_describe
from ..network.faults import PLANS
from ..tools.bench import emit, load_baseline, positive, speedup_vs_seed
from .harness import LoadJob, default_jobs, run_jobs, summarize
from .topologies import RELAY, TOPOLOGIES

__all__ = ["build_parser", "main"]

# The recorded seed baseline lives at the repo root (the package runs
# from a src/ layout), so anchor the lookup to this file, not the CWD.
_BASELINE_PATH = os.path.normpath(os.path.join(
    os.path.dirname(__file__), "..", "..", "..",
    "benchmarks", "baselines", "load_seed.json"))

_count = positive(int)


def shard_counts(text: str) -> List[int]:
    """``--scaling``: comma-separated positive shard counts, sorted and
    deduplicated."""
    counts = sorted({_count(s) for s in text.split(",") if s.strip()})
    if not counts:
        raise ValueError(text)
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro load",
        description="Drive seeded call batches through app topologies "
                    "across a worker pool and report calls/sec, "
                    "signals/sec, and setup-latency percentiles")
    parser.add_argument("--calls", type=_count, default=1000, metavar="N",
                        help="total calls per app (default 1000)")
    parser.add_argument("--shards", type=_count, default=1, metavar="N",
                        help="worker shards to split each app's calls "
                             "across (default 1)")
    parser.add_argument("--apps", action="append", default=None,
                        choices=TOPOLOGIES, metavar="NAME",
                        help="topology to drive (repeatable; default: "
                             "%s; known: %s)"
                             % (RELAY, ", ".join(TOPOLOGIES)))
    parser.add_argument("--fault-plan", default=None, choices=PLANS,
                        metavar="NAME",
                        help="drive the load over a lossy network "
                             "(named plan, see 'repro chaos "
                             "--list-plans'; implies robust mode)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base simulation seed (default 0)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run each configuration N times and keep "
                             "the best (benchmark discipline: the seed "
                             "baseline is a best-of too; default 1)")
    parser.add_argument("--scaling", type=shard_counts, default=None,
                        metavar="CSV",
                        help="comma-separated shard counts (e.g. 1,2,4) "
                             "to bench one after another; overrides "
                             "--shards")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="write the benchmark report to PATH "
                             "('-' for stdout)")
    return parser


def _run_once(jobs: List[LoadJob]) -> Dict[str, Any]:
    start = time.perf_counter()
    results = run_jobs(jobs)
    return summarize(results, time.perf_counter() - start)


def _bench_payload(runs: Dict[int, Dict[str, Any]], apps: List[str],
                   calls: int, seed: int, plan: Optional[str]
                   ) -> Dict[str, Any]:
    baseline = load_baseline(_BASELINE_PATH)
    payload: Dict[str, Any] = {
        "baseline": "benchmarks/baselines/load_seed.json",
        "config": {"apps": apps, "calls_per_app": calls, "seed": seed,
                   "fault_plan": plan, "cpus": os.cpu_count(),
                   "backend": _backend_describe()},
        "runs": {"shards=%d" % n: runs[n] for n in sorted(runs)},
    }
    summary: Dict[str, Any] = {
        "all_ok": all(r["ok"] for r in runs.values()),
        "calls_per_sec_best": max(
            (r["calls_per_sec"] for r in runs.values()
             if r["calls_per_sec"]), default=None),
    }
    single = runs.get(1)
    if single is not None:
        summary["single_process_calls_per_sec"] = single["calls_per_sec"]
        summary["single_process_calls_per_sec_best_window"] = \
            single.get("calls_per_sec_best_window")
        # Speedup vs the recorded seed is only meaningful on the
        # baseline's own scenario (the faithful relay topology) and
        # with the baseline's own statistic (best 50-call window).
        seed_rate = baseline.get("calls_per_sec_best")
        rate = (single.get("calls_per_sec_best_window")
                or single["calls_per_sec"])
        if apps == [RELAY] and plan is None and seed_rate and rate:
            summary["speedup_vs_seed"] = speedup_vs_seed(
                1.0 / seed_rate, 1.0 / rate)
        scaling = {}
        if single["calls_per_sec"]:
            for n, run in runs.items():
                if n != 1 and run["calls_per_sec"]:
                    scaling["%d" % n] = (run["calls_per_sec"]
                                         / single["calls_per_sec"])
        summary["scaling_vs_single"] = scaling
    payload["summary"] = summary
    return payload


def _format_run(shards: int, run: Dict[str, Any], out: TextIO) -> None:
    sim = run["setup_sim_seconds"]
    print("%7d %8d %9.3f %11s %12s %10s %10s"
          % (shards, run["calls_done"], run["wall_elapsed"],
             "%.1f" % run["calls_per_sec"]
             if run["calls_per_sec"] else "-",
             "%.1f" % run["signals_per_sec"]
             if run["signals_per_sec"] else "-",
             "%.4f" % sim["p50"] if sim["p50"] is not None else "-",
             "%.4f" % sim["p95"] if sim["p95"] is not None else "-"),
          file=out)
    for err in run["errors"]:
        print("    shard %s/%d FAILED: %s"
              % (err["app"], err["shard"], err["error"]), file=out)


def main(argv: Optional[List[str]] = None,
         out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    apps = args.apps if args.apps is not None else [RELAY]
    shard_list = args.scaling or [args.shards]

    runs: Dict[int, Dict[str, Any]] = {}
    print("%7s %8s %9s %11s %12s %10s %10s"
          % ("shards", "calls", "wall(s)", "calls/sec", "signals/sec",
             "p50 sim", "p95 sim"), file=out)
    for shards in shard_list:
        jobs = default_jobs(apps=apps, calls=args.calls, shards=shards,
                            seed=args.seed, plan=args.fault_plan)
        attempts = [_run_once(jobs) for _ in range(max(1, args.repeat))]
        best = max(attempts, key=lambda r: r["calls_per_sec"] or 0.0)
        if len(attempts) > 1:
            best["repeats"] = len(attempts)
            best["calls_per_sec_runs"] = sorted(
                (r["calls_per_sec"] for r in attempts
                 if r["calls_per_sec"]), reverse=True)
            # Best-of applies per statistic: the attempt with the best
            # sustained rate is not always the one with the best
            # 50-call window, and the window is the noise-robust
            # statistic the baselines record.
            windows = [r["calls_per_sec_best_window"] for r in attempts
                       if r.get("calls_per_sec_best_window")]
            if windows:
                best["calls_per_sec_best_window"] = max(windows)
        runs[shards] = best
        _format_run(shards, runs[shards], out)

    if args.bench_json:
        emit(args.bench_json,
             _bench_payload(runs, apps, args.calls, args.seed,
                            args.fault_plan), out)
    return 0 if all(r["ok"] for r in runs.values()) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
