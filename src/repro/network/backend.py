"""The runtime's process configuration: the one sanctioned ``os.environ``
seam (RC813).

The simulator has a single, pure-Python runtime.  :func:`describe`
reports the facts a benchmark or diagnostic report records about it,
so numbers in ``BENCH_*.json`` and the cost ledger stay attributable
to the configuration they were measured under.
"""

from __future__ import annotations

import os
from typing import Any, Dict

__all__ = ["ARENA_POISON", "describe"]

#: Opt-in debug mode: poison arena objects on release so a
#: use-after-release fails loudly instead of silently delivering a
#: recycled envelope or replaying a stale event.  Read here because
#: this module is the one sanctioned ``os.environ`` seam (RC813); the
#: consumers are :mod:`repro.network.transport` (Event freelist) and
#: :mod:`repro.protocol.channel` (envelope pool).
ARENA_POISON: bool = (os.environ.get("REPRO_ARENA_POISON", "")
                      .strip().lower() in ("1", "true", "yes", "on"))


def describe() -> Dict[str, Any]:
    """Runtime facts for bench reports and diagnostics."""
    return {
        "backend": "python",
        "requested": "python",
        "compiled_loaded": False,
        "arena_poison": ARENA_POISON,
    }
