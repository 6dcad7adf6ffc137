"""Source analysis: AST passes over the repro codebase itself.

Two disciplines are enforced:

* **Virtual-clock discipline** (SRC201): the simulator's determinism
  rests on every duration coming from :class:`VirtualClock`.  A stray
  ``time.time()`` or ``time.sleep()`` inside ``gpusim``/``core`` makes
  results machine-dependent, so those modules must never touch the wall
  clock.
* **NVML lifecycle** (SRC202): the real ``pynvml`` raises
  ``NVML_ERROR_UNINITIALIZED`` for any query before ``nvmlInit()``.  The
  pass flags handles constructed in a scope whose first device/system
  query precedes the ``nvmlInit()`` call lexically.

Both passes are lexical approximations, not data-flow analyses: they
order events by source position within one scope (a function body or the
module top level).  That is exactly the level of rigor the codebase's
call sites need, and it keeps the analyzer dependency-free.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis import rules as R
from repro.analysis.findings import Finding

#: ``time`` module attributes that read or block on the wall clock.
WALL_CLOCK_TIME_ATTRS = frozenset(
    {"time", "time_ns", "sleep", "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"}
)
#: ``datetime``/``date`` constructors that read the wall clock.
WALL_CLOCK_DATETIME_ATTRS = frozenset({"now", "utcnow", "today"})
#: NVML lifecycle calls that are legal before initialisation.
NVML_LIFECYCLE = frozenset({"nvmlInit", "nvmlShutdown"})


def is_virtual_clock_scope(path: str) -> bool:
    """Whether SRC201 applies to this file (gpusim/ and core/ only)."""
    normalized = path.replace("\\", "/")
    return "/gpusim/" in normalized or "/core/" in normalized


def analyze_source_tree(tree: ast.Module | Exception, path: str) -> list[Finding]:
    """Run every source rule applicable to one Python file, given its
    tree — or, for SRC200, the exception ``ast.parse`` raised."""
    if isinstance(tree, Exception):
        return [
            R.SRC200.finding(
                f"Python file does not parse: {getattr(tree, 'msg', tree)}",
                path,
                line=getattr(tree, "lineno", None),
            )
        ]
    findings: list[Finding] = []
    if is_virtual_clock_scope(path):
        findings.extend(_wall_clock_findings(tree, path))
    findings.extend(_nvml_lifecycle_findings(tree, path))
    findings.sort(key=lambda f: (f.line or 0, f.rule_id))
    return findings


# --------------------------------------------------------------------- #
# SRC201 — wall clock in virtual-clock code
# --------------------------------------------------------------------- #
def _wall_clock_findings(tree: ast.Module, path: str) -> list[Finding]:
    # Resolve what the file imported so `from time import sleep` and
    # `import time as _t` are both caught.
    time_aliases: set[str] = set()
    datetime_aliases: set[str] = set()
    from_imports: dict[str, str] = {}  # local name -> "module.attr"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or "time")
                elif alias.name == "datetime":
                    datetime_aliases.add(alias.asname or "datetime")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time":
                for alias in node.names:
                    if alias.name in WALL_CLOCK_TIME_ATTRS:
                        from_imports[alias.asname or alias.name] = f"time.{alias.name}"
            elif node.module == "datetime":
                for alias in node.names:
                    if alias.name in ("datetime", "date"):
                        datetime_aliases.add(alias.asname or alias.name)

    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        offender: str | None = None
        if isinstance(callee, ast.Name) and callee.id in from_imports:
            offender = from_imports[callee.id]
        elif isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            base, attr = callee.value.id, callee.attr
            if base in time_aliases and attr in WALL_CLOCK_TIME_ATTRS:
                offender = f"time.{attr}"
            elif base in datetime_aliases and attr in WALL_CLOCK_DATETIME_ATTRS:
                offender = f"{base}.{attr}"
        elif (
            isinstance(callee, ast.Attribute)
            and isinstance(callee.value, ast.Attribute)
            and isinstance(callee.value.value, ast.Name)
            and callee.value.value.id in datetime_aliases
            and callee.attr in WALL_CLOCK_DATETIME_ATTRS
        ):
            # datetime.datetime.now() through the module alias.
            offender = f"datetime.{callee.value.attr}.{callee.attr}"
        if offender is not None:
            findings.append(
                R.SRC201.finding(
                    f"{offender}() called in virtual-clock code",
                    path,
                    line=node.lineno,
                    suggestion="use the VirtualClock (clock.now / clock.advance)",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# SRC202 — NVML query before nvmlInit
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _NvmlEvent:
    line: int
    col: int
    kind: str  # 'construct' | 'init' | 'query'
    receiver: str


def _nvml_lifecycle_findings(tree: ast.Module, path: str) -> list[Finding]:
    findings: list[Finding] = []
    for scope in scopes(tree):
        findings.extend(_check_nvml_scope(scope, path))
    return findings


def scopes(tree: ast.Module) -> list[ast.AST]:
    """The scopes every AST family orders events within: the module top
    level and each function body."""
    return [tree] + [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Nodes belonging to this scope, excluding nested scopes' bodies, in
    source order — off an explicit stack: an expression may nest deeper
    than the interpreter lets a generator recurse."""
    stack = [ast.iter_child_nodes(scope)]
    while stack:
        for child in stack[-1]:
            if not isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                yield child
                stack.append(ast.iter_child_nodes(child))
                break
        else:
            stack.pop()


def _check_nvml_scope(scope: ast.AST, path: str) -> list[Finding]:
    events: list[_NvmlEvent] = []
    for node in scope_nodes(scope):
        if isinstance(node, ast.Assign):
            value = node.value
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "NvmlLibrary"
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        events.append(
                            _NvmlEvent(node.lineno, node.col_offset, "construct", target.id)
                        )
        elif isinstance(node, ast.Call):
            callee = node.func
            if (
                isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.attr.startswith("nvml")
            ):
                kind = "init" if callee.attr in NVML_LIFECYCLE else "query"
                events.append(
                    _NvmlEvent(node.lineno, node.col_offset, kind, callee.value.id)
                )

    events.sort(key=lambda e: (e.line, e.col))
    initialized: dict[str, bool] = {}
    findings: list[Finding] = []
    for event in events:
        if event.kind == "construct":
            initialized[event.receiver] = False
        elif event.kind == "init":
            if event.receiver in initialized:
                initialized[event.receiver] = True
        elif event.receiver in initialized and not initialized[event.receiver]:
            findings.append(
                R.SRC202.finding(
                    f"NVML query on {event.receiver!r} before nvmlInit()",
                    path,
                    line=event.line,
                    suggestion=f"call {event.receiver}.nvmlInit() first",
                )
            )
    return findings
