"""The self-hosted lint catalog: every bundled program, annotation
profile, declared codec list, and verification model as a lint target,
plus the runtime itself (its arena sites and, per subpackage, its
determinism hazards).

The import direction is strictly ``staticcheck -> apps``: application
modules expose their programs (or profile functions mirroring their
imperative annotation patterns) as plain data, and this catalog wires
them to the rule engine.  ``python -m repro lint`` runs the whole
catalog; CI keeps it clean.

Suppressions are part of the catalog, not the rules: a target that
deliberately violates a warning-level rule (the prepaid-card program
cycles forever by design, Sec. IV-B) carries a
:class:`~repro.staticcheck.diagnostics.Suppression` with its reason,
and the reports keep showing what was waived.  The determinism pass is
split into one target per subpackage for the same reason: the load
harness is *allowed* wall-clock reads (measuring throughput is its
purpose) without that waiver covering a new clock read in
``repro/network``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .arenas import check_arenas
from .determinism import check_tree, iter_source_files, subpackage_of
from .diagnostics import Diagnostic, Suppression, split_suppressed
from .graph import extract_states
from .hygiene import CodecListDecl, SelectorCacheDecl, check_hygiene
from .pathlint import check_model
from .rules import check_graph

__all__ = ["LintTarget", "TargetReport", "app_targets", "model_targets",
           "runtime_targets", "all_targets", "select_targets",
           "DETERMINISM_WAIVERS"]


@dataclass(frozen=True)
class TargetReport:
    """The lint outcome for one target."""

    name: str
    active: Tuple[Diagnostic, ...]
    suppressed: Tuple[Diagnostic, ...]
    suppressions: Tuple[Suppression, ...]

    @property
    def clean(self) -> bool:
        return not self.active

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "clean": self.clean,
            "diagnostics": [d.to_json() for d in self.active],
            "suppressed": [d.to_json() for d in self.suppressed],
            "suppressions": [s.to_json() for s in self.suppressions],
        }


@dataclass(frozen=True)
class LintTarget:
    """One lintable unit: a name, a thunk producing diagnostics, and
    the target's deliberate waivers."""

    name: str
    run: Callable[[], List[Diagnostic]]
    suppressions: Tuple[Suppression, ...] = ()

    def report(self) -> TargetReport:
        active, suppressed = split_suppressed(self.run(),
                                              self.suppressions)
        return TargetReport(name=self.name, active=tuple(active),
                            suppressed=tuple(suppressed),
                            suppressions=self.suppressions)


# ----------------------------------------------------------------------
# application targets
# ----------------------------------------------------------------------
def _lint_click_to_dial() -> List[Diagnostic]:
    from ..apps.click_to_dial import ClickToDialBox
    from ..network.eventloop import EventLoop
    box = ClickToDialBox(EventLoop(), "ctd-lint")
    graph = extract_states("apps/click_to_dial", box.fig6_states(),
                           initial="oneCall", slots=box.PROGRAM_SLOTS)
    return check_graph(graph)


def _lint_prepaid() -> List[Diagnostic]:
    from ..apps.prepaid import PrepaidCardServer
    from ..network.eventloop import EventLoop
    server = PrepaidCardServer(EventLoop(), "pc-lint")
    graph = extract_states("apps/prepaid", server.program_states(),
                           initial="talking", slots=server.PROGRAM_SLOTS)
    return check_graph(graph)


def _lint_pbx() -> List[Diagnostic]:
    from ..apps.pbx import PROFILE_SLOTS, switching_profile
    graph = extract_states("apps/pbx", switching_profile(),
                           initial="allHeld", slots=PROFILE_SLOTS)
    return check_graph(graph)


def _lint_conference() -> List[Diagnostic]:
    from ..apps.conference import (PROFILE_MEDIA, PROFILE_SLOTS,
                                   leg_profile)
    graph = extract_states("apps/conference", leg_profile(),
                           initial="inviting", slots=PROFILE_SLOTS,
                           media=PROFILE_MEDIA)
    return check_graph(graph)


def _lint_collab_tv() -> List[Diagnostic]:
    from ..apps.collab_tv import (DEVICE_CODECS, PROFILE_MEDIA,
                                  PROFILE_SLOTS, sharing_profile)
    graph = extract_states("apps/collab_tv", sharing_profile(),
                           initial="shared", slots=PROFILE_SLOTS,
                           media=PROFILE_MEDIA)
    found = check_graph(graph)
    decls = [CodecListDecl("collab_tv.%s" % device,
                           "%s preference" % medium, codecs)
             for device, by_medium in sorted(DEVICE_CODECS.items())
             for medium, codecs in sorted(by_medium.items())]
    found.extend(check_hygiene("apps/collab_tv", codec_lists=decls))
    return found


def _lint_features_dnd() -> List[Diagnostic]:
    from ..apps.features import DND_SLOTS, dnd_profile
    graph = extract_states("apps/features-dnd", dnd_profile(),
                           initial="transparent", slots=DND_SLOTS)
    return check_graph(graph)


def _lint_features_voicemail() -> List[Diagnostic]:
    from ..apps.features import VOICEMAIL_SLOTS, voicemail_profile
    graph = extract_states("apps/features-voicemail",
                           voicemail_profile(), initial="ringing",
                           slots=VOICEMAIL_SLOTS)
    return check_graph(graph)


def _lint_codec_registry() -> List[Diagnostic]:
    """The protocol's own codec registry must satisfy the hygiene it
    demands of applications (Sec. VI-B: priority-ordered, best first)."""
    from ..protocol.codecs import AUDIO, VIDEO, codecs_for_medium
    decls = [CodecListDecl("protocol.codecs",
                           "%s registry" % medium,
                           codecs_for_medium(medium))
             for medium in (AUDIO, VIDEO)]
    return check_hygiene("protocol/codecs", codec_lists=decls)


def _lint_descriptor_discipline() -> List[Diagnostic]:
    """A server caching descriptors (Sec. VI-C) answering with the
    freshest version it holds — the discipline the Fig. 2 PBX breaks."""
    from ..protocol.codecs import NO_MEDIA
    from ..protocol.descriptor import DescriptorFactory, Selector
    factory = DescriptorFactory(origin="lint-server")
    stale = factory.no_media()
    fresh = factory.no_media()
    cache = SelectorCacheDecl(
        owner="protocol.descriptor cache",
        descriptors=(stale, fresh),
        selectors=(Selector(answers=fresh.id, address=None,
                            codec=NO_MEDIA),))
    return check_hygiene("protocol/descriptors",
                         selector_caches=(cache,))


def app_targets() -> List[LintTarget]:
    """The application and protocol targets of the catalog."""
    return [
        LintTarget("apps/click_to_dial", _lint_click_to_dial,
                   suppressions=(
            Suppression("RC701", "the Fig. 6 program predates robust "
                        "mode and runs on reliable links, where an "
                        "open cannot exhaust a retry budget; revisit "
                        "when click-to-dial is deployed under a fault "
                        "plan"),)),
        LintTarget("apps/prepaid", _lint_prepaid, suppressions=(
            Suppression("RC102", "the prepaid-card program cycles "
                        "forever by design: talk -> collect -> payment "
                        "-> talk (Sec. IV-B)"),)),
        LintTarget("apps/pbx", _lint_pbx),
        LintTarget("apps/conference", _lint_conference),
        LintTarget("apps/collab_tv", _lint_collab_tv),
        LintTarget("apps/features-dnd", _lint_features_dnd),
        LintTarget("apps/features-voicemail", _lint_features_voicemail),
        LintTarget("protocol/codecs", _lint_codec_registry),
        LintTarget("protocol/descriptors", _lint_descriptor_discipline),
    ]


# ----------------------------------------------------------------------
# verification-model targets
# ----------------------------------------------------------------------
def _lint_model(path_type: str, flowlinks: int
                ) -> Callable[[], List[Diagnostic]]:
    def run() -> List[Diagnostic]:
        from ..verification.models import build_model
        return check_model(build_model(path_type, flowlinks=flowlinks))
    return run


def model_targets() -> List[LintTarget]:
    """One target per bundled path model (the 12-model sweep grid)."""
    from ..verification.models import all_model_specs, build_model
    targets = []
    for path_type, flowlinks in all_model_specs():
        key = build_model(path_type, flowlinks=flowlinks).key
        targets.append(LintTarget("models/%s" % key,
                                  _lint_model(path_type, flowlinks)))
    return targets


# ----------------------------------------------------------------------
# runtime targets
# ----------------------------------------------------------------------
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


def runtime_targets() -> List[LintTarget]:
    """The arena pass, then one determinism target per subpackage."""
    subs = sorted({subpackage_of(rel) for rel, _ in iter_source_files()})
    return [LintTarget("runtime/arenas", check_arenas)] + [
        LintTarget("runtime/determinism/%s" % sub, _determinism_run(sub),
                   suppressions=DETERMINISM_WAIVERS.get(sub, ()))
        for sub in subs]


def all_targets() -> List[LintTarget]:
    """Every target ``python -m repro lint`` checks by default."""
    return app_targets() + model_targets() + runtime_targets()


def select_targets(names: Sequence[str]) -> List[LintTarget]:
    """The named subset of the catalog, in catalog order.

    Raises :class:`KeyError` (naming the unknown target) so the CLI can
    exit with a usage error.
    """
    targets = all_targets()
    known = {t.name for t in targets}
    for name in names:
        if name not in known:
            raise KeyError(name)
    wanted = set(names)
    return [t for t in targets if t.name in wanted]
