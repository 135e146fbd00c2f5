"""Compare two sets of ledger reports, metric by metric.

    python3 ledger/compare.py BASE_DIR CAND_DIR

Each directory holds the report files ``run.py`` writes to
``ledger/out/`` (``<workload>-seed<n>-trace<t>.json``); copy them aside
after running the parent and the candidate.  For every workload and
end-to-end metric it prints both medians, their ratio and the base's own
quartile spread, and judges the candidate against the metric's bound in
``BENCHMARK.json``: ``worse`` past the bound, ``unresolved`` when the
base's spread is wider than the bound, ``ok`` otherwise.

Results measured on different backends are not comparable: the command
refuses them with exit status 2.  Exit status 1 means some metric got
worse by more than its bound.
"""

import glob
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> List[Dict[str, Any]]:
    reports = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            reports.append(json.load(fh))
    return reports


def spread(values: List[float]) -> float:
    """Quartile distance as a share of the median (0 for < 2 values)."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, cand = load(args[0]), load(args[1])
    if not base or not cand:
        print("compare: no reports in %s" % (args[0] if not base
                                              else args[1]), file=sys.stderr)
        return 2
    backends = {json.dumps(r["environment"]["backend"], sort_keys=True)
                for r in base + cand}
    if len(backends) != 1:
        print("compare: refusing results from different backends: %s"
              % "; ".join(sorted(backends)), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    worse = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["result"]["metrics"][name]["value"] for r in base
                 if r["workload"] == workload]
            c = [r["result"]["metrics"][name]["value"] for r in cand
                 if r["workload"] == workload]
            if not b or not c:
                continue
            mb, mc = statistics.median(b), statistics.median(c)
            change = (mc - mb) / mb if mb else 0.0
            if metric["better"] == "higher":
                change = -change
            if spread(b) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print("%-7s %-14s base %-12.6g cand %-12.6g ratio %.4f "
                  "base-spread %.4f bound %.2f %s"
                  % (workload, name, mb, mc, mc / mb if mb else 0.0,
                     spread(b), bound, verdict))
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
