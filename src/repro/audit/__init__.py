"""Static analysis of the runtime itself (``python -m repro audit``).

PR 2's RCxxx linter checks the *programs* the system runs; this
package's RC8xx family checks the *runtime* they run on: the repo's
core correctness claim — byte-identical runtime fingerprints — rests
on the simulation being a pure function of its seed and on the hot
path's object arenas honouring their reset contracts.

:mod:`.determinism`
    Flags nondeterminism hazards across all of ``src/repro`` that
    silently break byte-identical traces: wall-clock reads, unseeded
    module-level ``random``, iteration over unordered sets,
    ``os.environ`` reads outside :mod:`repro.network.backend`, and
    float ``==`` against sim-time expressions.

:mod:`.arenas`
    Statically verifies the PR 6 object arenas' reset contracts: every
    freelist/pool acquire re-arms all required fields, every release
    is cap-guarded and resets what the contract demands, and every
    event re-arm draws a fresh ``seq``.  The runtime additionally
    grows an opt-in poison-on-release mode (``REPRO_ARENA_POISON=1``)
    so a use-after-release fails loudly under tests.

:mod:`.leakgate`
    Replays a bundled app N times and asserts object/refcount
    stability — the dynamic complement of the static arena pass.

Diagnostics reuse the staticcheck plumbing (:class:`Diagnostic`,
:class:`Suppression`, :class:`LintTarget`), so reports, suppressions
with mandatory reasons, JSON output, and the 0/1/2 exit-code contract
are identical to ``repro lint``.
"""

from __future__ import annotations

from . import codes as _codes  # registers RC8xx into the shared tables

from .catalog import audit_targets, select_audit_targets  # noqa: E402
from .codes import AUDIT_CODES  # noqa: E402

__all__ = ["AUDIT_CODES", "audit_targets", "select_audit_targets"]

del _codes
