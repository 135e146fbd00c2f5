"""Shared report and argument plumbing for the CLIs.

Every subcommand that writes a report or a trace (``repro sweep``,
``chaos``, ``trace``, ``load``, ``soak`` and ``lint``) and the
benchmark suite's ``--bench-json`` hook write it through :func:`emit`;
every count or duration flag that must be above zero parses with
:func:`positive`.  The perf reports also share the baseline loader,
the exact percentiles, the geomean and the speedup guard.  They live
here once.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Optional, Sequence, TextIO

__all__ = ["emit", "positive", "load_baseline", "exact_percentiles",
           "geomean", "speedup_vs_seed"]


def emit(path: str, data: Any, out: TextIO) -> None:
    """Write a report to ``path``, or to ``out`` when ``path`` is
    ``"-"``.  A ``str`` is written verbatim; anything else as sorted,
    indented JSON with a trailing newline, so reports stay diffable.
    Parent directories are created, so report flags accept paths under
    directories that do not exist yet (CI scratch dirs, for instance)."""
    text = data if isinstance(data, str) \
        else json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path == "-":
        out.write(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


def positive(cast: Callable[[str], Any]) -> Callable[[str], Any]:
    """An argparse ``type=`` that parses with ``cast`` and rejects
    values that are not above zero (argparse then exits 2 with
    "invalid positive int value")."""
    def parse(text: str) -> Any:
        value = cast(text)
        if not value > 0:
            raise ValueError(text)
        return value
    parse.__name__ = "positive " + cast.__name__
    return parse


def load_baseline(path: str, key: Optional[str] = None) -> Dict[str, Any]:
    """Load a recorded seed baseline, or ``{}`` when it is missing or
    unreadable — a fresh checkout without baselines still benches, it
    just cannot report speedups.  ``key`` selects one top-level section
    of the baseline file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return {}
    if not isinstance(payload, dict):
        return {}
    if key is None:
        return payload
    section = payload.get(key, {})
    return section if isinstance(section, dict) else {}


def exact_percentiles(values: Sequence[float],
                      ps: Sequence[float]) -> "Dict[str, Optional[float]]":
    """Exact (nearest-rank) percentiles over raw observations.

    Returns ``{"p50": ..., "p99": ..., "p999": ...}``-style keys (the
    label drops the decimal point: 99.9 -> ``p999``).  ``None`` per key
    on an empty input.  Exact because the load harness ships every raw
    per-call latency to the merge — tail percentiles from histogram
    buckets would be bounded by bucket resolution exactly where tails
    matter most.
    """
    labels = {p: "p%s" % str(p).replace(".", "").rstrip("0")
              if p != int(p) else "p%d" % int(p) for p in ps}
    if not values:
        return {labels[p]: None for p in ps}
    ordered = sorted(values)
    n = len(ordered)
    out = {}
    for p in ps:
        rank = max(1, -(-int(p * 10) * n // 1000))  # ceil(p*n/100), int-safe
        out[labels[p]] = ordered[min(rank, n) - 1]
    return out


def geomean(values: Sequence[float]) -> Optional[float]:
    """Geometric mean, or ``None`` on an empty sequence."""
    if not values:
        return None
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))


def speedup_vs_seed(seed_elapsed: Optional[float],
                    elapsed: Optional[float]) -> Optional[float]:
    """``seed_elapsed / elapsed`` when both are positive, else ``None``
    (missing baselines and zero-length timings never divide)."""
    if not seed_elapsed or not elapsed:
        return None
    if seed_elapsed <= 0 or elapsed <= 0:
        return None
    return seed_elapsed / elapsed
