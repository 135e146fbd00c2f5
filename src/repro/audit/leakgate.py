"""The dynamic pass: the refcount/object-count leak gate.

Replays a bundled application scenario N times and asserts that the
process's live-object population is stable across the tail runs.  The
static arena checker proves release sites exist; this gate proves the
whole runtime actually returns to steady state, so a reference an
arena or pool pins by mistake shows up as monotone growth.

Warm-up runs are excluded from the verdict: first executions populate
caches (interned strings, compiled regexes, per-type method caches)
that are steady state, not leaks.  On debug builds of CPython,
``sys.gettotalrefcount`` is recorded as well.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["LeakReport", "run_leak_gate", "DEFAULT_APP"]

DEFAULT_APP = "click_to_dial"

#: Allowed object-count spread across the measured window.  With the
#: bounded memo caches cleared per measurement the bundled apps replay
#: to the exact same object count; a genuine arena/refcount leak grows
#: by hundreds of objects per replay.  The slack only absorbs GC
#: jitter such as a generation boundary landing differently.
DEFAULT_TOLERANCE = 16


@dataclass
class LeakReport:
    app: str
    runs: int
    warmup: int
    tolerance: int
    counts: List[int] = field(default_factory=list)
    refcounts: List[Optional[int]] = field(default_factory=list)

    @property
    def window(self) -> List[int]:
        return self.counts[self.warmup:]

    @property
    def spread(self) -> int:
        return max(self.window) - min(self.window) if self.window else 0

    @property
    def growth(self) -> int:
        """Last minus first measured count — the leak signature is
        monotone growth, which spread alone could hide."""
        return (self.window[-1] - self.window[0]) if self.window else 0

    @property
    def stable(self) -> bool:
        return self.spread <= self.tolerance

    def to_json(self) -> Dict[str, object]:
        return {
            "app": self.app,
            "runs": self.runs,
            "warmup": self.warmup,
            "tolerance": self.tolerance,
            "counts": list(self.counts),
            "refcounts": list(self.refcounts),
            "spread": self.spread,
            "growth": self.growth,
            "stable": self.stable,
        }

    def format(self) -> str:
        lines = ["leak gate: %s x%d (+%d warmup), tolerance %d"
                 % (self.app, self.runs, self.warmup, self.tolerance)]
        for i, count in enumerate(self.counts):
            tag = "warmup" if i < self.warmup else "run   "
            ref = ("  totalref=%d" % self.refcounts[i]
                   if self.refcounts[i] is not None else "")
            lines.append("  %s %2d: %d objects%s" % (tag, i, count, ref))
        lines.append("  spread=%d growth=%d -> %s"
                     % (self.spread, self.growth,
                        "STABLE" if self.stable else "LEAKING"))
        return "\n".join(lines)


def _reset_bounded_caches() -> None:
    """Clear the runtime's bounded memo caches before measuring.

    The codec-capability and descriptor-validation memos are id-keyed
    and capped (they clear themselves at their size limit), so they
    are steady-state infrastructure, not leaks — but until the cap
    trips they grow by a few entries per replay, which reads as a slow
    leak to an object-count gate.  Clearing them isolates the signal
    this gate exists for: growth with *no* cap at all.
    """
    from ..protocol.codecs import _SUPPORTED_MEMO
    from ..protocol.descriptor import _VALIDATED
    _SUPPORTED_MEMO.clear()
    _VALIDATED.clear()


def _measure() -> Tuple[int, Optional[int]]:
    _reset_bounded_caches()
    gc.collect()
    total = getattr(sys, "gettotalrefcount", None)
    return len(gc.get_objects()), (total() if total else None)


def run_leak_gate(app: str = DEFAULT_APP, runs: int = 5,
                  warmup: int = 2, seed: int = 7,
                  tolerance: int = DEFAULT_TOLERANCE) -> LeakReport:
    """Replay ``app`` and measure live objects after each run."""
    from ..chaos.scenarios import SCENARIOS
    from ..network.network import Network

    if app not in SCENARIOS:
        raise KeyError(app)
    scenario = SCENARIOS[app]
    report = LeakReport(app=app, runs=runs, warmup=warmup,
                        tolerance=tolerance)
    for _ in range(warmup + runs):
        net = Network(seed=seed)
        scenario(net)
        del net
        count, refs = _measure()
        report.counts.append(count)
        report.refcounts.append(refs)
    return report
