"""Static analysis of box programs, declarations, path models, and
the runtime they run on.

The analyzer exploits what Sec. IV makes true by construction: box
programs are *data* — states with goal annotations and self-describing
transition guards — so goal conflicts, dead guards, unreachable states,
protocol-hygiene slips, and mis-specified verification models are all
visible without running anything.  The runtime passes check what the
byte-identical fingerprints rest on: determinism hazards across
``src/repro`` (:mod:`.determinism`) and the hot path's arena reset
contracts (:mod:`.arenas`), with a dynamic leak gate
(:mod:`.leakgate`) as their companion.  ``python -m repro lint`` runs
the self-hosted catalog (every bundled app and model, and the
runtime); see DESIGN.md §6 for the rule table.
"""

from .catalog import (LintTarget, TargetReport, all_targets, app_targets,
                      model_targets, runtime_targets, select_targets)
from .diagnostics import (CODES, Diagnostic, Suppression, severity_of,
                          split_suppressed)
from .fixtures import Fixture, all_fixtures
from .graph import (ProgramGraph, StateInfo, TransitionInfo,
                    conjunctive_slot_atoms, extract_program,
                    extract_states, slot_names_in_guard)
from .hygiene import (CodecListDecl, SelectorCacheDecl, check_codec_list,
                      check_hygiene, check_selector_cache)
from .pathlint import check_model, expected_property
from .rules import RULES, UNREACHABLE_UNDER, check_graph

__all__ = [
    "CODES", "Diagnostic", "Suppression", "severity_of",
    "split_suppressed",
    "ProgramGraph", "StateInfo", "TransitionInfo",
    "conjunctive_slot_atoms", "extract_program", "extract_states",
    "slot_names_in_guard",
    "RULES", "UNREACHABLE_UNDER", "check_graph",
    "CodecListDecl", "SelectorCacheDecl", "check_codec_list",
    "check_hygiene", "check_selector_cache",
    "check_model", "expected_property",
    "LintTarget", "TargetReport", "all_targets", "app_targets",
    "model_targets", "runtime_targets", "select_targets",
    "Fixture", "all_fixtures",
]
