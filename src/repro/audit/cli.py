"""``python -m repro audit`` — run the runtime auditor.

Usage::

    python -m repro audit                      # every static pass
    python -m repro audit --list               # show target names
    python -m repro audit --target runtime/arenas
    python -m repro audit --format json        # machine-readable
    python -m repro audit --list-rules         # the RCxxx+RC8xx catalog
    python -m repro audit --fixtures           # negative controls
                                               # (exits 1 by design)
    python -m repro audit --leak-gate --runs 7 # replay a bundled app
                                               # and gate on stability

Exit status mirrors ``repro lint``: 0 when every selected target is
clean (for ``--leak-gate``: object counts stable), 1 when any
unsuppressed diagnostic was found (or the gate saw growth), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, TextIO

from ..staticcheck.catalog import LintTarget
from ..staticcheck.cli import _render_json, _render_text
from ..staticcheck.diagnostics import format_rule_table
from .catalog import audit_targets, select_audit_targets
from .fixtures import all_audit_fixtures
from .leakgate import DEFAULT_APP, run_leak_gate

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro audit",
        description="Statically audit the runtime: determinism "
                    "hazards and arena reset contracts (RC8xx)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="output format")
    parser.add_argument("--target", action="append", default=None,
                        metavar="NAME",
                        help="audit only this catalog target "
                             "(repeatable; see --list)")
    parser.add_argument("--list", action="store_true",
                        help="list catalog target names and exit")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the merged RCxxx/RC8xx rule "
                             "catalog and exit")
    parser.add_argument("--fixtures", action="store_true",
                        help="audit the deliberately-broken fixtures "
                             "instead of the catalog (exits 1)")
    parser.add_argument("--leak-gate", action="store_true",
                        help="replay a bundled app and gate on "
                             "object-count stability")
    parser.add_argument("--runs", type=int, default=5, metavar="N",
                        help="measured replays for --leak-gate "
                             "(default 5, after 2 warmups)")
    parser.add_argument("--app", default=DEFAULT_APP, metavar="NAME",
                        help="scenario for --leak-gate (default %s)"
                             % DEFAULT_APP)
    return parser


def _fixture_targets() -> List[LintTarget]:
    return [LintTarget(f.name, f.run) for f in all_audit_fixtures()]


def _run_leak_gate(args, out: TextIO) -> int:
    try:
        report = run_leak_gate(app=args.app, runs=args.runs)
    except KeyError as exc:
        sys.stderr.write("repro audit: unknown app %s\n" % exc)
        return 2
    if args.format == "json":
        json.dump(report.to_json(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(report.format() + "\n")
    return 0 if report.stable else 1


def main(argv: Optional[Sequence[str]] = None,
         stream: Optional[TextIO] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)  # exits 2 on usage errors
    out = stream if stream is not None else sys.stdout

    if args.list_rules:
        out.write(format_rule_table())
        return 0

    if args.list:
        for target in audit_targets():
            out.write("%s\n" % target.name)
        return 0

    if args.leak_gate:
        return _run_leak_gate(args, out)

    if args.fixtures:
        targets = _fixture_targets()
    elif args.target:
        try:
            targets = select_audit_targets(args.target)
        except KeyError as exc:
            sys.stderr.write("repro audit: unknown target %s "
                             "(see --list)\n" % exc)
            return 2
    else:
        targets = audit_targets()

    reports = [t.report() for t in targets]
    if args.format == "json":
        _render_json(reports, out)
    else:
        _render_text(reports, out)
    return 0 if all(r.clean for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover - python -m entry
    sys.exit(main())
