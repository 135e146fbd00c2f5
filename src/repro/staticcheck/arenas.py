"""Arena reset-contract checker.

PR 6 introduced three object arenas on the hot path (DESIGN.md §10):
the per-link Event freelist, the per-node recycled stimulus event, and
the per-loop TunnelMessage envelope pool.  Each has a reset contract —
which fields an acquire must re-arm, what a release must clear, and
the cap that bounds the pool.  A site that violates the contract is
not a crash today; it is a stale ``seq`` or a leaked signal reference
that corrupts execution order or pins memory three PRs from now.

The checker is deliberately flow-insensitive and function-scoped: an
acquire and its re-arm stores must live in the same function (they do,
on the hot path, by design — the arenas exist to avoid call frames),
which makes the static check simple and exhaustive rather than clever
and partial.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .determinism import SOURCE_DIR
from .diagnostics import Diagnostic

__all__ = ["ArenaSpec", "SPECS", "check_module_source", "check_arenas"]

_PROGRAM = "runtime/arenas"


@dataclass(frozen=True)
class ArenaSpec:
    """One arena's reset contract."""

    name: str
    #: The attribute holding the pool (``_free`` / ``_env_pool``).
    pool_attr: str
    #: Fields an acquire site must store on the recycled object.
    reset_attrs: Tuple[str, ...]
    #: The cap constant a release site must guard with.
    cap_name: str
    #: Fields a release site must reset (cleared references).
    release_reset: Tuple[str, ...] = ()
    #: Releases must exclude cancelled tombstones (Event freelist:
    #: a cancelled event may still sit in a scheduler lane).
    guard_not_cancelled: bool = False


SPECS: Tuple[ArenaSpec, ...] = (
    ArenaSpec(name="event-freelist", pool_attr="_free",
              reset_attrs=("time", "seq", "args", "callback", "_loop"),
              cap_name="_FREELIST_MAX",
              guard_not_cancelled=True),
    ArenaSpec(name="envelope-pool", pool_attr="_env_pool",
              reset_attrs=("tunnel_id", "signal"),
              cap_name="_ENV_POOL_MAX",
              release_reset=("signal",)),
)

#: The modules that contain arena sites.  The checker runs over all of
#: them so a *new* acquire/release site added anywhere in the runtime
#: is audited automatically.
ARENA_MODULES: Tuple[str, ...] = (
    "network/eventloop.py",
    "network/transport.py",
    "network/node.py",
    "protocol/channel.py",
    "protocol/slot.py",
)


def _attr_chain_tail(node: ast.AST) -> Optional[str]:
    """Final attribute name of a dotted chain (``self._loop._env_pool``
    → ``_env_pool``), else None."""
    return node.attr if isinstance(node, ast.Attribute) else None


def _functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _pool_aliases(fn: ast.AST, pool_attr: str) -> Set[str]:
    """Local names bound to a pool (``free = self._free``)."""
    aliases: Set[str] = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _attr_chain_tail(node.value) == pool_attr):
            aliases.add(node.targets[0].id)
    return aliases


def _names_pool(node: ast.AST, pool_attr: str,
                aliases: Set[str]) -> bool:
    if isinstance(node, ast.Name):
        return node.id in aliases
    return _attr_chain_tail(node) == pool_attr


def _stores_on(fn: ast.AST, var: str) -> Set[str]:
    """Attribute names assigned on local ``var`` inside ``fn``."""
    stores: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == var):
                    stores.add(target.attr)
    return stores


def _mentions_name(fn: ast.AST, wanted: str) -> bool:
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and node.id == wanted:
            return True
        if isinstance(node, ast.Attribute) and node.attr == wanted:
            return True
    return False


def _mentions_attr_access(fn: ast.AST, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(fn))


def check_module_source(relpath: str, text: str) -> List[Diagnostic]:
    """Check one Python module's arena sites (a module that does not
    parse raises :class:`SyntaxError`)."""
    found: List[Diagnostic] = []

    def diag(code: str, lineno: int, message: str) -> None:
        found.append(Diagnostic(code=code, message=message,
                                program=_PROGRAM,
                                state="%s:%d" % (relpath, lineno)))

    for fn in _functions(ast.parse(text, filename=relpath)):
        for spec in SPECS:
            aliases = _pool_aliases(fn, spec.pool_attr)

            for node in ast.walk(fn):
                # Acquire: ``obj = <pool>.pop()``.
                if (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Call)
                        and isinstance(node.value.func, ast.Attribute)
                        and node.value.func.attr == "pop"
                        and _names_pool(node.value.func.value,
                                        spec.pool_attr, aliases)):
                    var = node.targets[0].id
                    missing = [a for a in spec.reset_attrs
                               if a not in _stores_on(fn, var)]
                    if missing:
                        diag("RC820", node.lineno,
                             "%s acquire %r in %s() does not re-arm "
                             "%s; the recycled object would carry "
                             "stale state into its next use"
                             % (spec.name, var, fn.name,
                                ", ".join(sorted(missing))))

                # Release: ``<pool>.append(obj)``.
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and _names_pool(node.func.value,
                                        spec.pool_attr, aliases)
                        and node.args
                        and isinstance(node.args[0], ast.Name)):
                    var = node.args[0].id
                    if not _mentions_name(fn, spec.cap_name):
                        diag("RC822", node.lineno,
                             "%s release of %r in %s() has no %s cap "
                             "guard; an adversarial workload would "
                             "grow the pool without bound"
                             % (spec.name, var, fn.name,
                                spec.cap_name))
                    stores = _stores_on(fn, var)
                    for attr in spec.release_reset:
                        if attr not in stores:
                            diag("RC821", node.lineno,
                                 "%s release of %r in %s() does not "
                                 "reset .%s; the pooled object would "
                                 "pin a %s reference across episodes"
                                 % (spec.name, var, fn.name, attr,
                                    attr))
                    if (spec.guard_not_cancelled
                            and not _mentions_attr_access(fn,
                                                          "cancelled")):
                        diag("RC821", node.lineno,
                             "%s release of %r in %s() does not "
                             "exclude cancelled tombstones, which may "
                             "still sit in a scheduler lane"
                             % (spec.name, var, fn.name))

        # RC823 — any re-arm of a local event (``ev._loop = loop``)
        # must draw a fresh seq in the same function.
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and node.targets[0].attr == "_loop"
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id != "self"
                    and not (isinstance(node.value, ast.Constant)
                             and node.value.value is None)):
                var = node.targets[0].value.id
                has_fresh_seq = any(
                    isinstance(n, ast.Assign)
                    and len(n.targets) == 1
                    and isinstance(n.targets[0], ast.Attribute)
                    and n.targets[0].attr == "seq"
                    and isinstance(n.targets[0].value, ast.Name)
                    and n.targets[0].value.id == var
                    and any(isinstance(c, ast.Call)
                            and isinstance(c.func, ast.Name)
                            and c.func.id == "next"
                            for c in ast.walk(n.value))
                    for n in ast.walk(fn))
                if not has_fresh_seq:
                    diag("RC823", node.lineno,
                         "event %r is re-armed (._loop set) in %s() "
                         "without a fresh seq = next(...); reuse "
                         "would replay the old scheduling order"
                         % (var, fn.name))
    return found


def check_arenas() -> List[Diagnostic]:
    """Run the arena pass over the real repo."""
    found: List[Diagnostic] = []
    for rel in ARENA_MODULES:
        path = os.path.join(SOURCE_DIR, rel.replace("/", os.sep))
        with open(path, "r", encoding="utf-8") as fh:
            found.extend(check_module_source(rel, fh.read()))
    return sorted(found, key=lambda d: (d.state or "", d.code))
