"""Parallel model sweep: fan the Sec. VIII-A checks across cores.

The 12-model sweep (and the 6 two-flowlink extension models) are
embarrassingly parallel — each model's exploration is independent — so
this driver hands them to the shared crash-safe worker pool
(:func:`repro.tools.pool.map_jobs`).  Each job rebuilds its model
inside the worker from a small picklable spec (path type, flowlink
count, model kwargs) and runs
:func:`~repro.verification.report.verify_model` with a per-model state
bound and optional wall-clock timeout; a model that blows either budget
comes back as a *truncated* :class:`VerificationResult` rather than
stalling the whole sweep, and so does a model whose worker died.

Results always come back in job order, so
:func:`~repro.verification.report.format_results` and
:func:`~repro.verification.report.blowup_table` consume them exactly as
they consume the serial sweep's output.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from ..tools.pool import map_jobs
from .models import PATH_TYPES, build_model
from .report import VerificationResult, verify_model

__all__ = ["SweepJob", "sweep", "run_jobs", "default_jobs"]


class SweepJob(NamedTuple):
    """One picklable unit of sweep work."""

    path_type: str
    flowlinks: int
    max_states: int = 2_000_000
    max_seconds: Optional[float] = None
    #: sorted (key, value) pairs for :func:`build_model` kwargs
    model_kwargs: Tuple[Tuple[str, object], ...] = ()


def _build(job: SweepJob):
    return build_model(job.path_type, flowlinks=job.flowlinks,
                       **dict(job.model_kwargs))


def _run_job(job: SweepJob) -> VerificationResult:
    return verify_model(_build(job), max_states=job.max_states,
                        on_truncate="mark", max_seconds=job.max_seconds)


def default_jobs(flowlink_counts: Sequence[int] = (0, 1),
                 path_types: Optional[Sequence[str]] = None,
                 max_states: int = 2_000_000,
                 max_seconds: Optional[float] = None,
                 **model_kwargs) -> List[SweepJob]:
    """The standard sweep grid, in the order ``verify_all`` reports:
    all path types without flowlinks first, then with."""
    if path_types is None:
        path_types = list(PATH_TYPES)
    frozen = tuple(sorted(model_kwargs.items()))
    return [SweepJob(pt, k, max_states, max_seconds, frozen)
            for k in flowlink_counts for pt in path_types]


def _dead_worker_result(job: SweepJob) -> VerificationResult:
    """Tombstone for a model whose worker process died before
    returning: truncated and not ok, so ``repro sweep`` exits 1."""
    model = _build(job)
    return VerificationResult(
        key=model.key, property_kind=model.property_kind, states=0,
        transitions=0, elapsed=0.0, memory_proxy=0, safety_ok=False,
        property_ok=False, truncated=True)


def run_jobs(jobs: Sequence[SweepJob],
             processes: Optional[int] = None) -> List[VerificationResult]:
    """Run ``jobs`` across ``processes`` workers (default: one per
    core, capped at the job count).  ``processes<=1`` runs serially."""
    return map_jobs(_run_job, jobs, processes, _dead_worker_result)


def sweep(flowlink_counts: Sequence[int] = (0, 1),
          path_types: Optional[Sequence[str]] = None,
          max_states: int = 2_000_000,
          max_seconds: Optional[float] = None,
          processes: Optional[int] = None,
          **model_kwargs) -> List[VerificationResult]:
    """The parallel Sec. VIII-A sweep.

    ``sweep()`` with no arguments is the parallel equivalent of
    :func:`~repro.verification.report.verify_all`;
    ``sweep(flowlink_counts=(2,))`` is the two-flowlink extension.
    """
    return run_jobs(default_jobs(flowlink_counts, path_types,
                                 max_states, max_seconds,
                                 **model_kwargs),
                    processes=processes)
