"""The audit catalog: runtime passes as lint targets.

Reuses the staticcheck target plumbing (:class:`LintTarget`,
:class:`TargetReport`, suppressions with mandatory reasons), so
``repro audit`` reports render and exit exactly like ``repro lint``.

The determinism pass is split into one target per subpackage so
waivers stay narrow: the load harness is *allowed* wall-clock reads
(measuring throughput is its purpose) without that waiver covering a
new clock read in ``repro/network``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from ..staticcheck.catalog import LintTarget
from ..staticcheck.diagnostics import Diagnostic, Suppression
from . import codes as _codes  # noqa: F401  (registers RC8xx)
from .arenas import check_arenas
from .determinism import check_tree, iter_source_files, subpackage_of

__all__ = ["audit_targets", "select_audit_targets",
           "DETERMINISM_WAIVERS"]

#: Per-subpackage waivers for the determinism pass.  Measurement code
#: reads the wall clock on purpose; the waivers record why that is
#: sound instead of silently skipping the files.
DETERMINISM_WAIVERS: Dict[str, Tuple[Suppression, ...]] = {
    "load": (
        Suppression("RC810", "the load harness exists to measure "
                    "wall-clock throughput; elapsed time is reported, "
                    "never fed back into simulation state"),
    ),
    "chaos": (
        Suppression("RC810", "chaos reports record wall-clock elapsed "
                    "per run for operator visibility; convergence "
                    "verdicts compare seeded fingerprints only"),
    ),
    "verification": (
        Suppression("RC810", "the explorer's exploration budget is a "
                    "wall-clock deadline by design; it can truncate a "
                    "sweep but never alters a state's successors"),
    ),
    "livenet": (
        Suppression("RC810", "the live transport bridges the simulated "
                    "clock onto asyncio's wall clock by design (the "
                    "pump anchor, reconnect backoff, gateway rate "
                    "limiting); deterministic semantics stay pinned by "
                    "the direction-wise journal parity fingerprints, "
                    "not by timing"),
        Suppression("RC813", "the serve CLI forwards the parent "
                    "environment (plus PYTHONUNBUFFERED) when spawning "
                    "the demo's second OS process; no simulation input "
                    "is read from it"),
    ),
}


def _determinism_run(sub: str) -> Callable[[], List[Diagnostic]]:
    def run() -> List[Diagnostic]:
        return check_tree(subpackage=sub)
    return run


def audit_targets() -> List[LintTarget]:
    """Every target ``python -m repro audit`` checks by default."""
    targets = [LintTarget("runtime/arenas", check_arenas)]
    subs = sorted({subpackage_of(rel)
                   for rel, _ in iter_source_files()})
    for sub in subs:
        targets.append(LintTarget(
            "runtime/determinism/%s" % sub, _determinism_run(sub),
            suppressions=DETERMINISM_WAIVERS.get(sub, ())))
    return targets


def select_audit_targets(names: Sequence[str]) -> List[LintTarget]:
    """The named subset, in catalog order; raises :class:`KeyError`
    (naming the unknown target) for the CLI's usage-error path."""
    targets = audit_targets()
    known = {t.name for t in targets}
    for name in names:
        if name not in known:
            raise KeyError(name)
    wanted = set(names)
    return [t for t in targets if t.name in wanted]
