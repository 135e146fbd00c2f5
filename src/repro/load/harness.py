"""The sharded load harness: seeded scenario batches across a worker
pool.

Shares its driver with :mod:`repro.verification.sweep` — picklable
job specs on the crash-safe pool of :func:`repro.tools.pool.map_jobs`
— but drives the *runtime* instead of the model checker: each shard
runs a batch of calls through one topology (see
:mod:`repro.load.topologies`) on its own seeded network, so shards are
independent and the whole run is deterministic in everything but
wall-clock fields.  A shard whose worker died comes back as an error
tombstone, so the run reports not-ok instead of hanging.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, NamedTuple, Optional, Sequence

from ..network.backend import describe as _backend_describe
from ..obs.metrics import MetricsRegistry
from ..tools.bench import exact_percentiles
from ..tools.pool import map_jobs
from .topologies import RELAY, TOPOLOGIES

__all__ = ["LoadJob", "LoadResult", "default_jobs", "run_jobs",
           "summarize"]

#: Shard seeds are spread by a large odd stride so no two shards (or
#: two per-call scenario seeds within a shard) collide.
_SHARD_SEED_STRIDE = 100_003


class LoadJob(NamedTuple):
    """One worker's picklable share of a load run."""

    app: str
    calls: int
    seed: int
    shard: int
    #: Named fault plan (``repro chaos --list-plans``), or ``None``.
    plan: Optional[str] = None


class LoadResult(NamedTuple):
    """One shard's outcome (picklable; wall-clock fields are the only
    non-deterministic ones)."""

    app: str
    shard: int
    seed: int
    plan: Optional[str]
    calls_done: int
    executed: int
    signals_sent: int
    sim_time: float
    elapsed: float
    #: ``MetricsRegistry.snapshot()`` of the shard's counters and
    #: setup-latency histograms.
    metrics: Dict[str, Any]
    #: Calls/sec of the shard's fastest measurement window (relay
    #: topology only) — the statistic the recorded seed baseline uses.
    best_window_rate: Optional[float] = None
    #: Raw per-call setup latencies (simulated / wall seconds), so the
    #: run-level percentiles are exact merges, not snapshot estimates.
    setup_sim: List[float] = []
    setup_wall: List[float] = []
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        payload = self._asdict()
        # The raw observations stay out of reports; the histogram
        # snapshot under ``metrics`` already summarizes them.
        del payload["setup_sim"], payload["setup_wall"]
        return payload


def default_jobs(apps: Optional[Sequence[str]] = None,
                 calls: int = 1000, shards: int = 1, seed: int = 0,
                 plan: Optional[str] = None) -> List[LoadJob]:
    """Split ``calls`` per app across ``shards`` jobs.

    Every shard gets its own seed (derived from ``seed`` and the shard
    index), the first ``calls % shards`` shards absorb the remainder,
    and empty shards are never emitted.
    """
    if calls < 1:
        raise ValueError("calls must be >= 1")
    if shards < 1:
        raise ValueError("shards must be >= 1")
    names = list(TOPOLOGIES) if apps is None else list(apps)
    unknown = [a for a in names if a not in TOPOLOGIES]
    if unknown:
        raise KeyError("unknown topology %s (known: %s)"
                       % (", ".join(unknown), ", ".join(TOPOLOGIES)))
    base, remainder = divmod(calls, shards)
    jobs: List[LoadJob] = []
    for app in names:
        for shard in range(shards):
            share = base + (1 if shard < remainder else 0)
            if share == 0:
                continue
            jobs.append(LoadJob(app=app, calls=share,
                                seed=seed + shard * _SHARD_SEED_STRIDE,
                                shard=shard, plan=plan))
    return jobs


def _run_job(job: LoadJob) -> LoadResult:
    """Worker entry point: drive one shard and snapshot its metrics."""
    metrics = MetricsRegistry()
    start = time.perf_counter()
    try:
        stats = TOPOLOGIES[job.app](job.calls, job.seed, job.plan, metrics)
    except Exception as e:  # noqa: BLE001 - shard verdicts must travel
        return LoadResult(app=job.app, shard=job.shard, seed=job.seed,
                          plan=job.plan, calls_done=0, executed=0,
                          signals_sent=0, sim_time=0.0,
                          elapsed=time.perf_counter() - start,
                          metrics=metrics.snapshot(),
                          error="%s: %s" % (type(e).__name__, e))
    return LoadResult(
        app=job.app, shard=job.shard, seed=job.seed, plan=job.plan,
        calls_done=stats.calls_done, executed=stats.executed,
        signals_sent=stats.signals_sent, sim_time=stats.sim_time,
        elapsed=time.perf_counter() - start, metrics=metrics.snapshot(),
        best_window_rate=stats.best_window_rate,
        setup_sim=metrics.histogram("call.setup.sim_seconds").values,
        setup_wall=metrics.histogram("call.setup.wall_seconds").values,
        error=None)


def _dead_shard_result(job: LoadJob) -> LoadResult:
    """Tombstone for a shard whose worker process died before
    returning (killed, segfaulted, OOM-reaped).  It carries an error,
    so :func:`summarize` reports the run not-ok and the CLI exits
    nonzero — with the surviving shards' partial results intact."""
    return LoadResult(
        app=job.app, shard=job.shard, seed=job.seed, plan=job.plan,
        calls_done=0, executed=0, signals_sent=0, sim_time=0.0,
        elapsed=0.0, metrics={},
        error="shard worker died before returning a result "
              "(process killed or crashed)")


def run_jobs(jobs: Sequence[LoadJob],
             processes: Optional[int] = None) -> List[LoadResult]:
    """Run ``jobs`` across ``processes`` workers (default: one per
    core, capped at the job count).  ``processes<=1`` runs serially.
    A shard whose worker died comes back as :func:`_dead_shard_result`
    next to the completed shards' real results."""
    return map_jobs(_run_job, jobs, processes, _dead_shard_result)


def _merged_percentiles(results: Sequence[LoadResult],
                        attr: str) -> Dict[str, Optional[float]]:
    """Exact whole-run percentiles: shards carry their raw per-call
    observations, so the merge is a plain concatenation.  Tail
    percentiles (p99/p999) are exact nearest-rank values over the raw
    merge — at 20k calls the p999 is the 20 worst calls, which a
    bucketed histogram would smear."""
    values = [v for r in results for v in getattr(r, attr)]
    out: Dict[str, Optional[float]] = {"count": len(values)}
    out.update(exact_percentiles(values, (50, 95, 99, 99.9)))
    return out


def summarize(results: Sequence[LoadResult],
              wall_elapsed: float) -> Dict[str, Any]:
    """Reduce shard results to the run-level report.

    ``calls_per_sec`` divides total completed calls by the harness's
    wall clock around the whole pool, so it reflects real shard
    concurrency; ``calls_per_sec_serial`` divides by summed shard time
    (the one-worker equivalent)."""
    calls = sum(r.calls_done for r in results)
    signals = sum(r.signals_sent for r in results)
    executed = sum(r.executed for r in results)
    busy = sum(r.elapsed for r in results)
    window_rates = [r.best_window_rate for r in results
                    if r.best_window_rate]
    errors = [{"app": r.app, "shard": r.shard, "error": r.error}
              for r in results if r.error]
    per_app: Dict[str, Dict[str, Any]] = {}
    for r in results:
        app = per_app.setdefault(r.app, {
            "calls_done": 0, "executed": 0, "signals_sent": 0,
            "sim_time": 0.0, "shard_elapsed": 0.0, "shards": 0})
        app["calls_done"] += r.calls_done
        app["executed"] += r.executed
        app["signals_sent"] += r.signals_sent
        app["sim_time"] += r.sim_time
        app["shard_elapsed"] += r.elapsed
        app["shards"] += 1
    return {
        "shards": len(results),
        "calls_done": calls,
        "executed": executed,
        "signals_sent": signals,
        "wall_elapsed": wall_elapsed,
        "shard_elapsed_total": busy,
        "calls_per_sec": calls / wall_elapsed if wall_elapsed > 0 else None,
        "calls_per_sec_serial": calls / busy if busy > 0 else None,
        "calls_per_sec_best_window": max(window_rates, default=None),
        "signals_per_sec": signals / wall_elapsed
        if wall_elapsed > 0 else None,
        "setup_sim_seconds": _merged_percentiles(results, "setup_sim"),
        "setup_wall_seconds": _merged_percentiles(results, "setup_wall"),
        "per_app": per_app,
        "errors": errors,
        "backend": _backend_describe(),
        "ok": not errors,
    }
