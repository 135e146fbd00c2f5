"""The RC8xx diagnostic family: codes for the runtime auditor.

Importing this module registers the family into the shared
staticcheck registry (:func:`repro.staticcheck.diagnostics
.register_codes`), so RC8xx diagnostics resolve titles and severities
through the same tables as the RCxxx box-program linter, and
``repro lint --list-rules`` / ``repro audit --list-rules`` print one
merged catalog.

Sub-families::

    RC81x  determinism      (hazards that break byte-identical traces)
    RC82x  arena contracts  (freelist/pool acquire-reset-release)
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..staticcheck.diagnostics import register_codes

__all__ = ["AUDIT_CODES", "AUDIT_DESCRIPTIONS"]

AUDIT_CODES: Dict[str, Tuple[str, str]] = {
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

AUDIT_DESCRIPTIONS: Dict[str, str] = {
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

register_codes(AUDIT_CODES, AUDIT_DESCRIPTIONS)
