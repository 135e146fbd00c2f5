"""Run one ledger workload and print its metrics.

    python3 ledger/run.py --workload relay --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run
(see ``README.md``).  The line before it is the full report, which is
also written to ``ledger/out/``.  Exit status: 0 when every output
check passed, 1 when one failed, 2 when the program cannot be imported.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts set-up time
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: The string-hash seed every run executes under.  Relay throughput
#: differs by about 20% between hash seeds (measured interleaved on one
#: host), which would swamp the changes the ledger should resolve.
HASH_SEED = "0"

#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUPS = 5

#: What a child interpreter runs to time the imports once more.
_IMPORT_PROBE = """
import time
t0 = time.perf_counter()
import sys
sys.path[:0] = [%r, %r]
import workloads
print(time.perf_counter() - t0)
"""

#: Ops per block for ``op_p95_ms``: fifty samples lie beyond each
#: block's 95th percentile.
TAIL_BLOCK = 1000

#: End-to-end metrics: (name, unit).
END_TO_END = (("setup_s", "s"), ("ops_per_s", "ops/s"),
              ("op_p50_ms", "ms"), ("op_p95_ms", "ms"),
              ("cpu_ms_per_op", "ms"), ("success_ratio", "1"),
              ("rss_peak_mb", "MB"))


def git_commit(root: str) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git work tree."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> Dict[str, Any]:
    from repro.network.backend import describe
    return {"backend": describe(), "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "seed": seed, "commit": git_commit(ROOT)}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def typical(times: List[float], kinds: List[str]) -> float:
    """The median op time; over a mix of op kinds, the median of the
    per-kind medians.  The plain median of a balanced mix falls in the
    gap between two kinds and jumps between them from run to run."""
    if not kinds:
        return statistics.median(times)
    groups: Dict[str, List[float]] = {}
    for t, kind in zip(times, kinds):
        groups.setdefault(kind, []).append(t)
    return statistics.median([statistics.median(g)
                              for g in groups.values()])


def tail(times: List[float]) -> float:
    """The 95th percentile per block of ``TAIL_BLOCK`` consecutive ops,
    median over the blocks.  A burst of host contention then moves a
    few blocks, not the whole tail.  A run with fewer than two blocks
    reports the p95 of all its ops."""
    n = max(1, len(times) // TAIL_BLOCK)
    bounds = [i * TAIL_BLOCK for i in range(n)] + [len(times)]
    return statistics.median([percentile(times[a:b], 95)
                              for a, b in zip(bounds, bounds[1:])])


def end_to_end(setup_s: float, phase: Any) -> Dict[str, float]:
    completed = max(phase.completed, 1)
    return {
        "setup_s": setup_s,
        "ops_per_s": phase.completed / phase.elapsed,
        "op_p50_ms": typical(phase.times, phase.kinds) * 1e3,
        "op_p95_ms": tail(phase.times) * 1e3,
        "cpu_ms_per_op": phase.cpu * 1e3 / completed,
        "success_ratio": phase.completed / phase.attempted,
        "rss_peak_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def import_times(first: float) -> List[float]:
    """This process's import time plus ``SETUPS - 1`` more, each from a
    fresh child interpreter (imports cannot be repeated in-process)."""
    probe = _IMPORT_PROBE % (os.path.join(ROOT, "src"), HERE)
    times = [first]
    for _ in range(SETUPS - 1):
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=60)
        times.append(float(done.stdout.split()[-1]))
    return times


def run_plain(cls: Any, seed: int, seconds: float, import_s: float,
              report: Dict[str, Any]) -> Dict[str, Any]:
    """Untraced run: ``SETUPS`` independent set-ups, then one measured
    phase on the last.  ``setup_s`` is the median import time plus the
    median set-up time."""
    imports = import_times(import_s)
    problems: List[str] = []
    setups: List[float] = []
    for i in range(SETUPS):
        workload = cls(seed)
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        if i < SETUPS - 1:
            workload.close()
            problems += workload.check()
    phase = workload.measure(seconds)
    digest = workload.digest()
    workload.close()
    problems += workload.check()
    report.update(setups_s=setups, imports_s=imports, digest=digest,
                  ops=len(phase.times))
    problems += check_digest(workload, digest, seed)
    metrics = end_to_end(statistics.median(imports)
                         + statistics.median(setups), phase)
    return {"problems": problems, "phase": phase,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in END_TO_END}}


def check_digest(workload: Any, digest: str, seed: int) -> List[str]:
    from workloads import DEFAULT_SEED, PINNED
    if seed != DEFAULT_SEED:
        return []
    pinned = PINNED["digests"].get(workload.name)
    if pinned != digest:
        return ["%s: default-seed digest %s, pinned %s"
                % (workload.name, digest, pinned)]
    return []


def run_traced(cls: Any, seed: int, seconds: float,
               report: Dict[str, Any]) -> Dict[str, Any]:
    """Traced run: half the time untraced, half traced on a fresh
    set-up, so that ``trace_overhead`` compares like with like."""
    from spans import PER_LAYER, SEAM_NAMES, Tracer, layer_metrics
    half = seconds / 2.0
    workload = cls(seed)
    workload.setup()
    plain = workload.measure(half)
    workload.close()
    problems = workload.check()

    tracer = Tracer()
    tracer.install()
    try:
        workload = cls(seed, tracer)
        workload.setup()
        tracer.reset()
        before = workload.counters()
        traced = workload.measure(half)
        after = workload.counters()
        workload.close()
    finally:
        tracer.uninstall()
    problems += workload.check()
    missed = tracer.missed(cls.expected_seams)
    if missed:
        problems.append("expected seams recorded no call (bypassed?): %s"
                        % ", ".join(missed))
    counts = {k: after[k] - before[k] for k in before}
    overhead = (traced.completed / traced.elapsed) \
        / (plain.completed / plain.elapsed)
    values = layer_metrics(tracer, counts, traced.attempted, overhead)
    spans_path = os.path.join(OUT, "%s-seed%d-spans.json"
                              % (cls.name, seed))
    tracer.write_spans(spans_path)
    report.update(ops=len(traced.times), counts=counts,
                  spans_file=os.path.relpath(spans_path, ROOT),
                  seams={name: {"calls": tracer.seam_calls(name),
                                "hits": tracer.seam_hits(name),
                                "self_us": tracer.self_us(name),
                                "total_us": tracer.total_us(name)}
                         for name in SEAM_NAMES})
    return {"problems": problems, "phase": traced,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit, _ in PER_LAYER}}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Hash randomization is fixed at interpreter start: start over.
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + (sys.argv[1:] if argv is None else argv),
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        from workloads import WORKLOADS
    except ImportError as exc:
        print("ledger: cannot import the program from %s/src: %s"
              % (ROOT, exc), file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T0
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print("ledger: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    report: Dict[str, Any] = {"workload": args.workload,
                              "seed": args.seed, "trace": args.trace,
                              "seconds": args.seconds,
                              "environment": environment(args.seed)}
    if args.trace:
        outcome = run_traced(cls, args.seed, args.seconds, report)
    else:
        outcome = run_plain(cls, args.seed, args.seconds, import_s, report)
    phase = outcome["phase"]
    result = {"correct": not outcome["problems"],
              "attempted": phase.attempted, "failed": phase.failed,
              "metrics": outcome["metrics"]}
    report.update(problems=outcome["problems"], result=result)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for problem in outcome["problems"]:
        print("ledger: CHECK FAILED: %s" % problem, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
