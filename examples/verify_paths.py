#!/usr/bin/env python3
"""Run the Sec. VIII-A verification: twelve signaling-path models,
safety plus temporal specification, and the flowlink blow-up factors.
The models are checked in parallel, one worker per core.

Run:  python examples/verify_paths.py [--rich]
"""

import sys

from repro.verification import blowup_table, format_results, sweep


def main() -> None:
    rich = "--rich" in sys.argv
    if rich:
        print("rich configuration (bigger nondeterminism budgets)...")
        results = sweep(phase1_budget=2, modify_budget=2,
                        queue_capacity=8, max_versions=4,
                        max_states=5_000_000)
    else:
        results = sweep()
    print(format_results(results))
    print()
    print("flowlink blow-up (paper: x300 memory, x1000 time on average):")
    for key, factors in sorted(blowup_table(results).items()):
        print("    %-4s states x%-6.1f memory x%-6.1f time x%.1f" % (
            key, factors["states_factor"], factors["memory_factor"],
            factors["time_factor"]))
    ok = sum(r.ok for r in results)
    print()
    print("%d/12 models pass safety + specification" % ok)


if __name__ == "__main__":
    main()
