"""Diagnostics, codes, and suppressions for ``repro lint``.

Every rule in :mod:`repro.staticcheck.rules`,
:mod:`repro.staticcheck.hygiene`, :mod:`repro.staticcheck.pathlint`,
:mod:`repro.staticcheck.determinism` and
:mod:`repro.staticcheck.arenas` emits :class:`Diagnostic` records with
a stable ``RCxxx`` code, so that tooling (CI, editors, the
cross-validation tests) can match on codes rather than message text.

Code families::

    RC1xx  reachability      (unreachable state, no termination, trap)
    RC2xx  goal conflicts    (slot claimed twice, link-over-close,
                              medium mismatch)
    RC3xx  guards            (dead guard, nondeterministic overlap)
    RC4xx  declarations      (undeclared slot reference)
    RC5xx  protocol hygiene  (codec priority, noMedia placement,
                              selector freshness)
    RC6xx  path models       (goal pair vs. temporal spec mismatch)
    RC7xx  robustness        (degradation paths under lossy networks)
    RC81x  determinism       (hazards that break byte-identical traces)
    RC82x  arena contracts   (freelist/pool acquire-reset-release)

:func:`format_rule_table` renders the whole table for
``repro lint --list-rules``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["Diagnostic", "Suppression", "CODES", "DESCRIPTIONS",
           "severity_of", "format_rule_table", "split_suppressed"]

#: Stable code → (title, severity).  Severity ``error`` marks a
#: composition bug the paper's semantics rules out; ``warning`` marks a
#: structural smell that can be deliberate (and suppressed).
CODES: Dict[str, Tuple[str, str]] = {
    "RC101": ("unreachable-state", "error"),
    "RC102": ("no-termination", "warning"),
    "RC103": ("trap-state", "warning"),
    "RC201": ("slot-conflict", "error"),
    "RC202": ("link-over-close", "error"),
    "RC203": ("medium-mismatch", "error"),
    "RC301": ("dead-guard", "error"),
    "RC302": ("guard-overlap", "warning"),
    "RC401": ("undeclared-slot", "error"),
    "RC501": ("codec-priority", "warning"),
    "RC502": ("nomedia-placement", "error"),
    "RC503": ("stale-selector", "error"),
    "RC601": ("spec-mismatch", "error"),
    "RC701": ("unhandled-slot-failure", "warning"),
    "RC810": ("wall-clock-read", "error"),
    "RC811": ("unseeded-random", "error"),
    "RC812": ("unordered-iteration", "warning"),
    "RC813": ("environ-read", "error"),
    "RC814": ("float-eq-sim-time", "warning"),
    "RC820": ("acquire-without-reset", "error"),
    "RC821": ("release-without-reset", "error"),
    "RC822": ("uncapped-release", "error"),
    "RC823": ("rearm-without-fresh-seq", "error"),
}

#: Stable code → one-line description, rendered by ``--list-rules``.
#: Every code must have one; ``test_fixtures.py`` keeps the two maps
#: in lockstep.
DESCRIPTIONS: Dict[str, str] = {
    "RC101": "a program state has no path from the initial state",
    "RC102": "no reachable state terminates the program (END)",
    "RC103": "a reachable state has no outgoing transition and is "
             "not END",
    "RC201": "two simultaneous goals claim the same slot",
    "RC202": "a flow goal links through a slot that is closed in "
             "its state",
    "RC203": "a flow goal joins slots declared for different media",
    "RC301": "a transition guard can never be satisfied in its state",
    "RC302": "two guards on one state overlap nondeterministically",
    "RC401": "a goal references a slot the program never declared",
    "RC501": "a codec preference list is not priority-ordered "
             "(best first)",
    "RC502": "noMedia appears anywhere but last in a codec list",
    "RC503": "a cached selector answers a stale descriptor version",
    "RC601": "a goal pair disagrees with its temporal specification",
    "RC701": "no transition handles a slot failure in a state that "
             "holds one open",
    "RC810": "a wall-clock read (time.time/perf_counter/...) at a "
             "site that can perturb deterministic simulation",
    "RC811": "a module-level random.* call draws from the unseeded "
             "global RNG instead of a seeded Random instance",
    "RC812": "iteration over a set/frozenset whose order is not "
             "pinned (wrap in sorted())",
    "RC813": "an os.environ/os.getenv read outside "
             "repro.network.backend, the one sanctioned config seam",
    "RC814": "a float literal compared with == / != against a "
             "sim-time expression",
    "RC820": "an arena acquire site does not re-arm every field the "
             "reset contract requires",
    "RC821": "an arena release site does not reset required fields or "
             "releases cancelled tombstones",
    "RC822": "an arena release site appends without the pool's cap "
             "guard (unbounded growth)",
    "RC823": "an event is re-armed (_loop set) without drawing a "
             "fresh seq, breaking execution order",
}


def format_rule_table() -> str:
    """Render ``--list-rules``: one line per code, in code order."""
    return "".join("%s  %-24s %-7s  %s\n"
                   % (code, title, severity, DESCRIPTIONS.get(code, ""))
                   for code, (title, severity) in sorted(CODES.items()))


def severity_of(code: str) -> str:
    """Severity for ``code`` (unknown codes count as errors)."""
    return CODES.get(code, ("?", "error"))[1]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer."""

    code: str                    # e.g. "RC201"
    message: str                 # human-readable, self-contained
    program: str                 # lint target (app, profile, model key)
    state: Optional[str] = None  # program state, when applicable
    slot: Optional[str] = None   # slot name, when applicable

    @property
    def title(self) -> str:
        return CODES.get(self.code, ("unknown", "error"))[0]

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    def format(self) -> str:
        where = self.program
        if self.state is not None:
            where += ":%s" % self.state
        tail = " [slot %s]" % self.slot if self.slot is not None else ""
        return "%s %s (%s): %s%s" % (
            self.code, where, self.title, self.message, tail)

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "title": self.title,
            "severity": self.severity,
            "program": self.program,
            "state": self.state,
            "slot": self.slot,
            "message": self.message,
        }


@dataclass(frozen=True)
class Suppression:
    """A deliberate waiver of one code for one lint target.

    The ``reason`` is mandatory and surfaces in reports: the catalog
    must say *why* a program is allowed to, e.g., never terminate
    (the prepaid-card program cycles by design, Sec. IV-B).
    """

    code: str
    reason: str

    def to_json(self) -> Dict[str, object]:
        return {"code": self.code, "reason": self.reason}


def split_suppressed(diagnostics: List[Diagnostic],
                     suppressions: Tuple[Suppression, ...]
                     ) -> Tuple[List[Diagnostic], List[Diagnostic]]:
    """Partition ``diagnostics`` into (active, suppressed)."""
    waived = {s.code for s in suppressions}
    active = [d for d in diagnostics if d.code not in waived]
    suppressed = [d for d in diagnostics if d.code in waived]
    return active, suppressed
