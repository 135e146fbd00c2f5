"""The determinism pass: hazards across all of ``src/repro``.

The repo's verification and fingerprint claims rest on the simulation
being a pure function of its seed.  These rules flag the hazards that
silently break that purity: wall-clock reads (RC810), unseeded
module-level ``random`` calls (RC811), iteration over unordered sets
(RC812), ``os.environ`` reads outside the one sanctioned config seam
(RC813), and float ``==`` against sim-time expressions (RC814).

Measurement code (the load harness, the chaos runner's elapsed-time
field, the explorer's wall-clock budget) legitimately reads the clock;
those subpackages carry catalog suppressions *with reasons* rather
than being skipped, so a new wall-clock read in, say,
``repro/network`` can never hide behind them.
"""

from __future__ import annotations

import ast
import os
from typing import Iterable, List, Optional, Tuple

from .diagnostics import Diagnostic

__all__ = ["SOURCE_DIR", "check_source", "check_tree",
           "iter_source_files", "subpackage_of"]

#: The ``repro`` package directory the passes audit.
SOURCE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``time.<attr>`` reads that consult the wall clock.
_WALL_CLOCK = frozenset((
    "time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
    "monotonic_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime"))

#: ``random.<attr>`` module-level draws (the unseeded global RNG).
#: ``random.Random`` / ``random.SystemRandom`` construction is fine —
#: instances are seeded explicitly by their owners.
_GLOBAL_RANDOM = frozenset((
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "getrandbits", "randbytes", "seed"))

#: Attribute/variable names that denote simulated time.
_SIM_TIME_NAMES = frozenset((
    "now", "_now", "sim_time", "deliver_at", "when", "_horizon"))

#: The one module allowed to read process configuration.
_ENV_SEAM = os.path.join("network", "backend.py")


def _is_module_attr(node: ast.AST, module: str) -> Optional[str]:
    """``module.<attr>`` → attr name, else None."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module):
        return node.attr
    return None


def _mentions_sim_time(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in _SIM_TIME_NAMES:
            return True
        if isinstance(sub, ast.Name) and sub.id in _SIM_TIME_NAMES:
            return True
    return False


def check_source(relpath: str, text: str,
                 program: str = "runtime/determinism"
                 ) -> List[Diagnostic]:
    """Run every determinism rule over one file's source text.

    A file that does not parse raises :class:`SyntaxError`: no waiver
    may turn an unreadable module into a clean report.
    """
    found: List[Diagnostic] = []

    def diag(code: str, lineno: int, message: str) -> None:
        found.append(Diagnostic(code=code, message=message,
                                program=program,
                                state="%s:%d" % (relpath, lineno)))

    for node in ast.walk(ast.parse(text, filename=relpath)):
        # RC810 / RC811 / RC813 — hazardous module attribute reads.
        attr = _is_module_attr(node, "time")
        if attr in _WALL_CLOCK:
            diag("RC810", node.lineno,
                 "wall-clock read time.%s(); simulation results must "
                 "be a pure function of the seed" % attr)
        attr = _is_module_attr(node, "random")
        if attr in _GLOBAL_RANDOM:
            diag("RC811", node.lineno,
                 "random.%s draws from the unseeded global RNG; use "
                 "the loop's seeded Random instance" % attr)
        attr = _is_module_attr(node, "os")
        if attr in ("environ", "getenv") and relpath != _ENV_SEAM:
            diag("RC813", node.lineno,
                 "os.%s read outside repro.network.backend; all "
                 "process configuration flows through the backend "
                 "seam so a run's inputs stay enumerable" % attr)

        # RC810/RC811 via from-imports of the same names.
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK:
                        diag("RC810", node.lineno,
                             "from time import %s makes wall-clock "
                             "reads ungreppable" % alias.name)
            elif node.module == "random":
                for alias in node.names:
                    if alias.name in _GLOBAL_RANDOM:
                        diag("RC811", node.lineno,
                             "from random import %s binds the "
                             "unseeded global RNG" % alias.name)

        # RC812 — iterating a set literal/constructor directly.
        iters: List[ast.AST] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            is_set = isinstance(it, ast.Set) or (
                isinstance(it, ast.Call)
                and isinstance(it.func, ast.Name)
                and it.func.id in ("set", "frozenset"))
            if is_set:
                diag("RC812", it.lineno,
                     "iteration over a set has no pinned order; wrap "
                     "in sorted() at trace-visible sites")

        # RC814 — float literal == sim-time expression.
        if isinstance(node, ast.Compare):
            sides = [node.left] + list(node.comparators)
            has_eq = any(isinstance(op, (ast.Eq, ast.NotEq))
                         for op in node.ops)
            float_lit = any(isinstance(s, ast.Constant)
                            and isinstance(s.value, float)
                            for s in sides)
            if has_eq and float_lit and _mentions_sim_time(node):
                diag("RC814", node.lineno,
                     "float literal compared with ==/!= against a "
                     "sim-time expression; sim-time equality is only "
                     "exact between values derived from the same "
                     "arithmetic")
    return found


def iter_source_files() -> Iterable[Tuple[str, str]]:
    """Yield ``(relpath, abspath)`` for every .py under src/repro,
    sorted for stable reports."""
    for dirpath, dirnames, filenames in sorted(os.walk(SOURCE_DIR)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                abspath = os.path.join(dirpath, name)
                yield os.path.relpath(abspath, SOURCE_DIR), abspath


def subpackage_of(relpath: str) -> str:
    """Catalog grouping key: first path component, or ``repro`` for
    top-level modules."""
    head, _, tail = relpath.partition(os.sep)
    return head if tail else "repro"


def check_tree(subpackage: Optional[str] = None) -> List[Diagnostic]:
    """Run the determinism rules over ``src/repro`` (optionally one
    subpackage), with per-file locations in the diagnostics."""
    found: List[Diagnostic] = []
    for relpath, abspath in iter_source_files():
        sub = subpackage_of(relpath)
        if subpackage is not None and sub != subpackage:
            continue
        with open(abspath, "r", encoding="utf-8") as fh:
            text = fh.read()
        found.extend(check_source(
            relpath, text, program="runtime/determinism/%s" % sub))
    return sorted(found, key=lambda d: (d.state or "", d.code))
