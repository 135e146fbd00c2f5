"""Running and reporting the Sec. VIII-A verification experiments."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from .explorer import StateGraph, explore
from .kernel import SystemState
from .models import (PathModel, all_models, both_closed, both_flowing,
                     build_model, valid_endstate)
from .properties import (check_disjunction, check_recurrence,
                         check_safety, check_stability)

__all__ = ["VerificationResult", "verify_model", "verify_all",
           "blowup_table", "format_results"]


@dataclass
class VerificationResult:
    """Outcome of checking one path model."""

    key: str
    property_kind: str
    states: int
    transitions: int
    elapsed: float
    memory_proxy: int
    safety_ok: bool
    property_ok: bool
    truncated: bool = False
    violation_state: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.safety_ok and self.property_ok and not self.truncated


def verify_model(model: PathModel, max_states: int = 2_000_000,
                 on_truncate: str = "raise",
                 max_seconds: Optional[float] = None
                 ) -> VerificationResult:
    """Explore one model and run its safety + temporal checks.

    ``max_seconds`` bounds the exploration wall clock (see
    :func:`~repro.verification.explorer.explore`); with
    ``on_truncate="mark"`` a model that blows the budget reports
    ``truncated=True`` instead of raising.
    """
    graph = explore(model.system, max_states=max_states,
                    on_truncate=on_truncate, max_seconds=max_seconds)

    def left(state: SystemState):
        return state.procs[model.left_index]

    def right(state: SystemState):
        return state.procs[model.right_index]

    closed = lambda s: both_closed(left(s), right(s))
    flowing = lambda s: both_flowing(left(s), right(s))

    safety = check_safety(graph,
                          lambda s: valid_endstate(s, model))
    kind = model.property_kind
    if kind == "stability-closed":
        violation = check_stability(graph, closed)
    elif kind == "stability-no-flow":
        violation = check_stability(graph, lambda s: not flowing(s))
    elif kind == "stability-flowing":
        # lossy variants: after the last fault the path converges and
        # stays converged — ◇□ bothFlowing, stronger than the □◇ the
        # fault-free models check
        violation = check_stability(graph, flowing)
    elif kind == "recurrence-flowing":
        violation = check_recurrence(graph, flowing)
    elif kind == "closed-or-flowing":
        violation = check_disjunction(graph, closed, flowing)
    else:  # pragma: no cover - exhaustive over PATH_TYPES
        raise ValueError("unknown property %r" % kind)

    return VerificationResult(
        key=model.key, property_kind=kind,
        states=graph.state_count, transitions=graph.transition_count,
        elapsed=graph.elapsed, memory_proxy=graph.memory_proxy,
        safety_ok=not safety, property_ok=violation is None,
        truncated=graph.truncated, violation_state=violation)


def verify_all(max_states: int = 2_000_000,
               max_seconds: Optional[float] = None,
               **model_kwargs) -> List[VerificationResult]:
    """The full 12-model sweep (Sec. VIII-A), serially, in report
    order.  :func:`repro.verification.sweep.sweep` is the parallel
    one."""
    return [verify_model(m, max_states=max_states,
                         max_seconds=max_seconds)
            for m in all_models(**model_kwargs)]


def blowup_table(results: List[VerificationResult]
                 ) -> Dict[str, Dict[str, float]]:
    """The flowlink blow-up factors: for each path type, how much did
    one flowlink multiply the state count, memory proxy, and time?
    (The paper reports ×300 memory and ×1000 time on average.)"""
    by_key = {r.key: r for r in results}
    table: Dict[str, Dict[str, float]] = {}
    for key, result in by_key.items():
        if key.endswith("+link"):
            continue
        linked = by_key.get(key + "+link")
        if linked is None:
            continue
        table[key] = {
            "states_factor": linked.states / max(1, result.states),
            "memory_factor": (linked.memory_proxy
                              / max(1, result.memory_proxy)),
            "time_factor": linked.elapsed / max(1e-9, result.elapsed),
        }
    return table


def format_results(results: List[VerificationResult]) -> str:
    """A table in the spirit of Sec. VIII-A's reporting."""
    lines = ["%-10s %-22s %10s %12s %9s %7s %7s" % (
        "model", "property", "states", "transitions", "time(s)",
        "safety", "spec")]
    for r in results:
        lines.append("%-10s %-22s %10d %12d %9.3f %7s %7s%s" % (
            r.key, r.property_kind, r.states, r.transitions, r.elapsed,
            "pass" if r.safety_ok else "FAIL",
            "pass" if r.property_ok else "FAIL",
            "  (truncated)" if r.truncated else ""))
    return "\n".join(lines)
