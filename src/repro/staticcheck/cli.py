"""``python -m repro lint`` — run the static analyzer.

Usage::

    python -m repro lint                      # the whole catalog: apps,
                                              # models and the runtime
    python -m repro lint --list               # show target names
    python -m repro lint --list-rules         # the rule catalog with
                                              # one-line descriptions
    python -m repro lint --target apps/pbx    # a subset (repeatable)
    python -m repro lint --format json        # machine-readable output
    python -m repro lint --fixtures           # the broken fixtures
                                              # (negative controls;
                                              # exits 1 by design)
    python -m repro lint --leak-gate --runs 7 # replay a bundled app and
                                              # gate on object-count
                                              # stability

Exit status: 0 when every selected target is clean (for
``--leak-gate``: object counts stable), 1 when any unsuppressed
diagnostic was found (or the gate saw growth), 2 on usage errors
(including an unknown ``--target`` name).
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Sequence, TextIO

from ..tools.bench import emit, positive
from .catalog import LintTarget, TargetReport, all_targets, select_targets
from .diagnostics import format_rule_table
from .fixtures import all_fixtures
from .leakgate import run_leak_gate

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Statically check the bundled box programs, codec "
                    "declarations, verification models, and the "
                    "runtime's determinism and arena contracts")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--target", action="append", default=None,
                        metavar="NAME",
                        help="lint only this catalog target "
                             "(repeatable; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list catalog target names and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print every RCxxx/RC8xx rule with its "
                             "one-line description and exit")
    parser.add_argument("--fixtures", action="store_true",
                        help="lint the deliberately-broken fixtures "
                             "instead of the catalog (exits 1)")
    parser.add_argument("--leak-gate", action="store_true",
                        help="replay a bundled app and gate on "
                             "object-count stability")
    parser.add_argument("--runs", type=positive(int), default=None,
                        metavar="N",
                        help="measured replays for --leak-gate "
                             "(default 5, after 2 warmups)")
    return parser


def _fixture_targets() -> List[LintTarget]:
    return [LintTarget(f.name, f.run) for f in all_fixtures()]


def _summary(reports: Sequence[TargetReport]) -> Dict[str, int]:
    def active(severity: str) -> int:
        return sum(1 for r in reports for d in r.active
                   if d.severity == severity)
    return {"targets": len(reports), "errors": active("error"),
            "warnings": active("warning"),
            "suppressed": sum(len(r.suppressed) for r in reports)}


def _render_text(reports: Sequence[TargetReport],
                 stream: TextIO) -> None:
    for report in reports:
        status = "ok" if report.clean else "FAIL"
        waived = (" (%d suppressed)" % len(report.suppressed)
                  if report.suppressed else "")
        stream.write("%-28s %s%s\n" % (report.name, status, waived))
        for diagnostic in report.active:
            stream.write("    %s\n" % diagnostic.format())
        for diagnostic in report.suppressed:
            reason = next((s.reason for s in report.suppressions
                           if s.code == diagnostic.code), "")
            stream.write("    suppressed %s: %s\n"
                         % (diagnostic.code, reason))
    stream.write("%(targets)d target(s): %(errors)d error(s), "
                 "%(warnings)d warning(s)\n" % _summary(reports))


def _render_json(reports: Sequence[TargetReport],
                 stream: TextIO) -> None:
    emit("-", {"targets": [r.to_json() for r in reports],
               "summary": _summary(reports)}, stream)


def main(argv: Optional[Sequence[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    if args.runs is not None and not args.leak_gate:
        parser.error("--runs needs --leak-gate")
    out = stream if stream is not None else sys.stdout

    if args.list_rules:
        out.write(format_rule_table())
        return 0

    if args.list:
        for target in all_targets():
            out.write("%s\n" % target.name)
        return 0

    if args.leak_gate:
        report = run_leak_gate(runs=args.runs or 5)
        if args.format == "json":
            emit("-", report.to_json(), out)
        else:
            out.write(report.format() + "\n")
        return 0 if report.stable else 1

    if args.fixtures:
        targets = _fixture_targets()
    elif args.target:
        try:
            targets = select_targets(args.target)
        except KeyError as exc:
            sys.stderr.write("repro lint: unknown target %s "
                             "(see --list)\n" % exc)
            return 2
    else:
        targets = all_targets()

    reports = [t.report() for t in targets]
    if args.format == "json":
        _render_json(reports, out)
    else:
        _render_text(reports, out)
    return 0 if all(r.clean for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover - python -m entry
    sys.exit(main())
