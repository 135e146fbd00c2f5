"""One crash-safe worker pool, shared by the verification sweep and the
load harness.

Each job gets its own future, so a worker that dies mid-run (killed,
segfaulted, OOM-reaped) cannot hang the caller: every job it took down
comes back as the caller's tombstone, next to the surviving jobs' real
results.  Where no process pool can be made (sandboxes without
semaphores, for instance) the jobs run serially in-process.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Sequence, TypeVar

__all__ = ["map_jobs"]

J = TypeVar("J")
R = TypeVar("R")


def map_jobs(run: Callable[[J], R], jobs: Sequence[J],
             processes: Optional[int],
             tombstone: Callable[[J], R]) -> List[R]:
    """``[run(job) for job in jobs]``, in job order, across
    ``processes`` workers (default: one per core, capped at the job
    count; ``processes<=1`` runs serially in-process).  A job whose
    worker died before returning yields ``tombstone(job)``."""
    jobs = list(jobs)
    if processes is None:
        processes = min(len(jobs), os.cpu_count() or 1)
    if processes <= 1 or len(jobs) <= 1:
        return [run(job) for job in jobs]
    try:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
        results: List[R] = []
        with ProcessPoolExecutor(max_workers=processes) as pool:
            futures = [pool.submit(run, job) for job in jobs]
            for job, future in zip(jobs, futures):
                try:
                    results.append(future.result())
                except BrokenProcessPool:
                    results.append(tombstone(job))
        return results
    except (ImportError, OSError, PermissionError, ValueError):
        # No usable worker pool on this platform: degrade gracefully.
        return [run(job) for job in jobs]
