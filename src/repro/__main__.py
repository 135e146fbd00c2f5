"""``python -m repro`` — regenerate the paper's evaluation from the
command line.

The subcommands are the entries of ``_BUILTIN`` and ``_DELEGATED``
below; ``python -m repro --help`` lists them, and
``python -m repro <name> --help`` shows a delegated one's own flags.

Exit status is normalized across subcommands: 0 on success (for
``lint``: every target clean; for ``chaos``: every app converged), 1
when findings were reported, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys

#: The single subcommand registry: every delegating subcommand is one
#: entry ``name -> ("module.path[:function]", help)``.  Dispatch, the
#: ``COMMAND`` choices, and the ``--help`` epilog all derive from this
#: dict, so a new subcommand is exactly one line here.  Each target
#: owns its flags, help, and exit codes (0 success / 1 findings /
#: 2 usage) and receives the rest of the command line verbatim; the
#: function defaults to ``main``.
_DELEGATED = {
    "lint": ("repro.staticcheck.cli",
             "static analysis of the bundled box programs and models, "
             "and of the runtime's determinism and arena contracts"),
    "chaos": ("repro.chaos.cli",
              "run the bundled apps under fault injection and check "
              "media convergence"),
    "sweep": ("repro.verification.cli",
              "fan the verification models across cores; can profile "
              "itself as a Chrome trace"),
    "trace": ("repro.obs.cli",
              "record one app run and export it (Chrome trace_event "
              "JSON, timeline, MSC)"),
    "load": ("repro.load.cli",
             "drive seeded call batches through app topologies across "
             "a worker pool (calls/sec, latency percentiles)"),
    "soak": ("repro.load.soak_cli",
             "sustained seeded call churn with admission control, "
             "memory-stability gates, and shed accounting"),
    "serve": ("repro.livenet.cli:serve_main",
              "run a live node: asyncio TCP signaling listener plus an "
              "HTTP/WebSocket media gateway"),
    "call": ("repro.livenet.cli:call_main",
             "place a call through a running gateway and report the "
             "media verdict"),
    "live-demo": ("repro.livenet.cli:demo_main",
                  "two OS processes negotiate flowing media over "
                  "localhost sockets, self-checked"),
}


def _dispatch(name: str, argv) -> int:
    """Resolve a registry target and hand it the remaining argv."""
    target = _DELEGATED[name][0]
    module_path, _, function = target.partition(":")
    module = importlib.import_module(module_path)
    return getattr(module, function or "main")(argv)

#: The classic evaluation subcommands handled in this module.
_BUILTIN = {
    "latency": "the Secs. VIII-C / IX-B latency numbers",
    "verify": "the serial 12-model verification sweep (+ --rich, --two)",
    "scenario": "the Fig. 2 vs Fig. 3 prepaid-card snapshots",
    "all": "latency + verify + scenario in sequence (default)",
}


def run_latency() -> None:
    from .analysis import (measure_fig13, measure_path_sweep,
                           measure_sip_common, measure_sip_glare,
                           measure_unbundled_changes,
                           measure_sip_bundled_changes)
    print("== latency (c = 20 ms, n = 34 ms) ==")
    print(measure_fig13())
    for m in measure_path_sweep([1, 2, 3, 4, 6, 8]):
        print(m)
    print(measure_sip_common())
    glare = statistics.mean(
        measure_sip_glare(seed=s).measured for s in range(5)) * 1000.0
    print("%-28s measured %8.1f ms   formula   3560.0 ms (mean of 5)"
          % ("fig14 (SIP, glare)", glare))
    print(measure_unbundled_changes())
    bundled = statistics.mean(
        measure_sip_bundled_changes(seed=s).measured
        for s in range(5)) * 1000.0
    print("%-28s measured %8.1f ms   (glare-dominated, mean of 5)"
          % ("SIP: bundled changes", bundled))


def run_verify(rich: bool, two: bool) -> None:
    from .verification import sweep, verify_all
    from .verification.cli import print_results
    print("== verification (Sec. VIII-A) ==")
    kwargs = dict(phase1_budget=2, modify_budget=2, queue_capacity=8,
                  max_versions=4, max_states=5_000_000) if rich else {}
    print_results(verify_all(**kwargs), sys.stdout)
    if two:
        print("\ntwo-flowlink extension (infeasible for the paper):")
        for r in sweep(flowlink_counts=(2,), max_states=3_000_000,
                       processes=1):
            print("    %-12s states=%7d  safety=%s spec=%s%s"
                  % (r.key, r.states,
                     "pass" if r.safety_ok else "FAIL",
                     "pass" if r.property_ok else "FAIL",
                     "  (truncated)" if r.truncated else ""))


def run_scenario() -> None:
    from .network.network import Network
    from .apps.prepaid import ErroneousPrepaidScenario, PrepaidScenario
    print("== Fig. 2 vs Fig. 3 (see examples/prepaid_card.py for the "
          "full narration) ==")
    net = Network(seed=2)
    bad = ErroneousPrepaidScenario(net)
    bad.establish_ab_call()
    bad.snapshot1(); bad.snapshot2(); bad.snapshot3(); bad.snapshot4()
    print("Fig. 2 anomalies: A hears %s (hijacked+mixed); B->A one-way: %s"
          % (sorted(net.plane.heard_by(bad.a)),
             net.plane.flow_exists(bad.b, bad.a)
             and not net.plane.flow_exists(bad.a, bad.b)))
    net2 = Network(seed=3)
    good = PrepaidScenario(net2)
    good.establish_ab_call()
    good.card_call_starts()
    good.run_until_funds_exhausted()
    good.switch_back_to_b()
    print("Fig. 3 snapshot 3: C--V two-way: %s; A--B two-way: %s"
          % (net2.plane.two_way(good.c, good.v),
             net2.plane.two_way(good.a, good.b)))


def _epilog() -> str:
    lines = ["subcommands:"]
    for name, desc in _BUILTIN.items():
        lines.append("  %-10s %s" % (name, desc))
    for name, (_, desc) in sorted(_DELEGATED.items()):
        lines.append("  %-10s %s  (own flags: %s --help)"
                     % (name, desc, name))
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] and argv[0] in _DELEGATED:
        return _dispatch(argv[0], argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Compositional Control of IP Media' "
                    "(Zave & Cheung, CoNEXT 2006)",
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", nargs="?", default="all",
                        choices=sorted(set(_BUILTIN) | set(_DELEGATED)),
                        metavar="COMMAND",
                        help="one of the subcommands below (default: all)")
    parser.add_argument("--version", action="store_true",
                        help="print the package version and exit")
    parser.add_argument("--rich", action="store_true",
                        help="bigger verification budgets")
    parser.add_argument("--two", action="store_true",
                        help="include the two-flowlink extension")
    args = parser.parse_args(argv)
    if args.version:
        from . import __version__
        print("repro %s" % __version__)
        return 0
    if args.command in ("latency", "all"):
        run_latency()
        print()
    if args.command in ("verify", "all"):
        run_verify(args.rich, args.two)
        print()
    if args.command in ("scenario", "all"):
        run_scenario()
    return 0


if __name__ == "__main__":
    sys.exit(main())
