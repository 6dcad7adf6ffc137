"""PERF6xx static checks: per-function AST passes.

Each check yields *raw hits* — (rule, message, line, suggestion) tuples
anchored to a source position.  The driver attributes every hit to its
enclosing function via the call graph, decides hot/cold severity, and
prefixes hot findings with their seed→function call chain.

Like every other AST family here, these are lexical approximations
tuned to this codebase's idioms — good enough to catch the real smells
(the shipped ``to_csv`` per-row f-string, the exporter's per-job span
rescans) without a dataflow engine.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.analysis import rules as R
from repro.analysis.rules import LintRule
from repro.analysis.source_rules import scope_nodes, scopes

#: Loop iterables treated as per-row/per-sample sequences for PERF601:
#: either ``range(len(...))``-style index loops or identifiers whose
#: final component names bulk telemetry.
ROWISH_NAMES = frozenset({
    "times", "samples", "rows", "records", "ticks", "events", "spans",
    "entries", "lines", "jobs_list",
})

#: Attributes whose comparison inside a filtering comprehension marks a
#: PERF602 linear scan (the Timeline/span index keys).
INDEXED_ATTRS = frozenset({"time", "label", "job_id", "seq", "when"})

#: Call names that probe the simulated device surface (PERF603).
PROBE_NAMES = frozenset({
    "get_gpu_usage_snapshot", "build_snapshot", "probe_devices",
})
PROBE_ATTR_NAMES = frozenset({"_probe_snapshot"})

#: Timer-registration attribute names (PERF604).
TIMER_ATTRS = frozenset({"call_at", "call_later"})


@dataclass(frozen=True)
class PerfHit:
    """One raw rule hit, not yet severity-adjusted."""

    rule: LintRule
    message: str
    line: int
    suggestion: str


def perf_hits(tree: ast.Module) -> list[PerfHit]:
    """All PERF6xx hits in one parsed module, in source order."""
    hits: list[PerfHit] = []
    for scope in scopes(tree):
        hits.extend(_perf601_per_row_rendering(scope))
        hits.extend(_perf602_linear_scan(scope))
        hits.extend(_perf603_probe_in_loop(scope))
        hits.extend(_perf604_timer_chain(scope))
        hits.extend(_perf605_alloc_in_advance_loop(scope))
    hits.extend(_perf606_deepcopy(tree))
    hits.sort(key=lambda h: (h.line, h.rule.rule_id, h.message))
    return hits


# ------------------------------------------------------------------ #
# scaffolding (on source_rules' family-standard scope walk)
# ------------------------------------------------------------------ #
def _loop_bodies(scope: ast.AST) -> Iterator[tuple[ast.AST, ast.AST]]:
    """(loop, body-node) pairs for every for/while loop in this scope."""
    for node in scope_nodes(scope):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            for sub in ast.walk(node):
                if sub is not node:
                    yield node, sub


def _iterable_name(expr: ast.expr) -> str | None:
    """The final identifier of a loop iterable, when it has one."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Call):
        return _iterable_name(expr.func)
    return None


def _is_rowish_iter(expr: ast.expr) -> bool:
    """Whether a loop iterable looks like a per-sample/row sequence."""
    # range(len(...)) / range(n): the index-loop rendering shape.
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "range"
    ):
        return True
    if isinstance(expr, (ast.Call, ast.Name, ast.Attribute)):
        name = _iterable_name(expr)
        return name is not None and name.lower() in ROWISH_NAMES
    return False


def _fstring_fields(expr: ast.expr) -> int:
    """Formatted fields in an f-string expression (0 for non-f-strings)."""
    if not isinstance(expr, ast.JoinedStr):
        return 0
    return sum(1 for v in expr.values if isinstance(v, ast.FormattedValue))


def _is_stringish(expr: ast.expr) -> bool:
    if isinstance(expr, ast.JoinedStr):
        return True
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return True
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Mod)):
        return _is_stringish(expr.left) or _is_stringish(expr.right)
    if (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Attribute)
        and expr.func.attr in ("format", "join")
    ):
        return True
    return False


# ------------------------------------------------------------------ #
# PERF601 — per-row rendering in an exporter loop
# ------------------------------------------------------------------ #
def _perf601_per_row_rendering(scope: ast.AST) -> list[PerfHit]:
    hits: list[PerfHit] = []
    seen_lines: set[int] = set()

    def hit(message: str, line: int, suggestion: str) -> None:
        if line not in seen_lines:
            seen_lines.add(line)
            hits.append(PerfHit(R.PERF601, message, line, suggestion))

    for loop, node in _loop_bodies(scope):
        # (a) string accumulated with += per iteration.
        if (
            isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and _is_stringish(node.value)
        ):
            hit(
                "string built up with += inside a loop — quadratic "
                "reallocation, one copy per row",
                node.lineno,
                "collect parts in a list and ''.join() once (or stream "
                "buffered chunks)",
            )
        # (b) per-row write() call.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write", "writelines")
            and node.args
            and _fstring_fields(node.args[0]) >= 1
        ):
            hit(
                f"per-row {node.func.attr}() of a formatted string inside "
                "a loop — one unbuffered emission per row",
                node.lineno,
                "batch rows into chunks and write once per chunk",
            )
        # (c) multi-field f-string appended per row of a sample sequence.
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and node.args
            and _fstring_fields(node.args[0]) >= 3
            and isinstance(loop, (ast.For, ast.AsyncFor))
            and _is_rowish_iter(loop.iter)
        ):
            hit(
                "a multi-field f-string is formatted and appended per row "
                "of a sample sequence",
                node.lineno,
                "render runs of identical values once (quiescent spans "
                "repeat values) and reuse the formatted tail",
            )
    # (c') the comprehension spelling of the same smell.
    for node in scope_nodes(scope):
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            if (
                _fstring_fields(node.elt) >= 3
                and node.generators
                and _is_rowish_iter(node.generators[0].iter)
            ):
                hit(
                    "a multi-field f-string is formatted per row of a "
                    "sample sequence inside a comprehension",
                    node.lineno,
                    "render runs of identical values once (quiescent spans "
                    "repeat values) and reuse the formatted tail",
                )
    return hits


# ------------------------------------------------------------------ #
# PERF602 — linear scan where an index API exists
# ------------------------------------------------------------------ #
def _comparison_attrs(test: ast.expr, target_names: set[str]) -> set[str]:
    """Indexed attrs of the comprehension target compared in ``test``.

    Only ``==`` comparisons count — they are the keyed-lookup shape an
    index replaces.  ``is not None`` presence filters are a single
    inherent pass, not a per-key scan.
    """
    found: set[str] = set()
    for node in ast.walk(test):
        if not isinstance(node, ast.Compare):
            continue
        if not all(isinstance(op, ast.Eq) for op in node.ops):
            continue
        for side in [node.left, *node.comparators]:
            if (
                isinstance(side, ast.Attribute)
                and isinstance(side.value, ast.Name)
                and side.value.id in target_names
                and side.attr in INDEXED_ATTRS
            ):
                found.add(side.attr)
    return found


def _perf602_linear_scan(scope: ast.AST) -> list[PerfHit]:
    hits: list[PerfHit] = []
    for node in scope_nodes(scope):
        if not isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            continue
        for gen in node.generators:
            if not gen.ifs:
                continue
            targets = {
                t.id for t in ast.walk(gen.target) if isinstance(t, ast.Name)
            }
            attrs: set[str] = set()
            for test in gen.ifs:
                attrs |= _comparison_attrs(test, targets)
            if not attrs:
                continue
            what = ", ".join(f".{a}" for a in sorted(attrs))
            hits.append(
                PerfHit(
                    R.PERF602,
                    f"comprehension filters a sequence by comparing {what} "
                    "per element — an O(n) scan per query",
                    node.lineno,
                    "use the indexed API (Timeline.between()/labelled()) "
                    "or group the records into a dict once, outside the "
                    "query path",
                )
            )
            break  # one hit per comprehension
    return hits


# ------------------------------------------------------------------ #
# PERF603 — device probe inside a loop
# ------------------------------------------------------------------ #
def _perf603_probe_in_loop(scope: ast.AST) -> list[PerfHit]:
    hits: list[PerfHit] = []
    seen_lines: set[int] = set()
    for _loop, node in _loop_bodies(scope):
        if not isinstance(node, ast.Call):
            continue
        offender: str | None = None
        func = node.func
        if isinstance(func, ast.Name) and func.id in PROBE_NAMES:
            offender = func.id
        elif isinstance(func, ast.Attribute):
            if func.attr.startswith("nvmlDeviceGet") or func.attr.startswith(
                "nvmlSystemGet"
            ):
                offender = func.attr
            elif func.attr in PROBE_NAMES | PROBE_ATTR_NAMES:
                offender = func.attr
        if offender is not None and node.lineno not in seen_lines:
            seen_lines.add(node.lineno)
            hits.append(
                PerfHit(
                    R.PERF603,
                    f"{offender}() probes the device surface on every loop "
                    "iteration, bypassing the same-instant snapshot cache",
                    node.lineno,
                    "hoist the probe out of the loop, or route it through "
                    "the mapper's cached snapshot",
                )
            )
    return hits


# ------------------------------------------------------------------ #
# PERF604 — self-rearming timer chain / per-tick registration loop
# ------------------------------------------------------------------ #
def _perf604_timer_chain(scope: ast.AST) -> list[PerfHit]:
    hits: list[PerfHit] = []
    scope_name = getattr(scope, "name", None)
    for node in scope_nodes(scope):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TIMER_ATTRS
        ):
            continue
        # Self-rearming: the callback argument names the enclosing
        # function (free function or bound method of the same name).
        callback = node.args[1] if len(node.args) >= 2 else None
        rearms = False
        if scope_name is not None and callback is not None:
            if isinstance(callback, ast.Name) and callback.id == scope_name:
                rearms = True
            elif (
                isinstance(callback, ast.Attribute)
                and callback.attr == scope_name
            ):
                rearms = True
        if rearms:
            hits.append(
                PerfHit(
                    R.PERF604,
                    f"{node.func.attr}() re-arms its own callback — a "
                    "per-tick timer chain costing O(samples) heap "
                    "operations",
                    node.lineno,
                    "register one span listener "
                    "(clock.add_span_listener) and aggregate whole "
                    "quiescent spans in bulk",
                )
            )
    # One registration per iteration of a range() tick loop.
    for loop, node in _loop_bodies(scope):
        if not (
            isinstance(loop, (ast.For, ast.AsyncFor))
            and isinstance(loop.iter, ast.Call)
            and isinstance(loop.iter.func, ast.Name)
            and loop.iter.func.id == "range"
        ):
            continue
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in TIMER_ATTRS
        ):
            hits.append(
                PerfHit(
                    R.PERF604,
                    f"{node.func.attr}() registers one timer per tick of a "
                    "range() loop — O(ticks) heap entries up front",
                    node.lineno,
                    "a span listener observes every quiescent interval "
                    "without per-tick timers",
                )
            )
    return hits


# ------------------------------------------------------------------ #
# PERF605 — fresh allocation inside a while-driven inner loop
# ------------------------------------------------------------------ #
def _perf605_alloc_in_advance_loop(scope: ast.AST) -> list[PerfHit]:
    hits: list[PerfHit] = []
    seen_lines: set[int] = set()
    for node in scope_nodes(scope):
        if not isinstance(node, ast.While):
            continue
        for sub in ast.walk(node):
            if sub is node:
                continue
            alloc: str | None = None
            if isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp)):
                alloc = "a comprehension"
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id in ("list", "dict", "set")
                and (sub.args or sub.keywords)
            ):
                alloc = f"{sub.func.id}(...)"
            if alloc is not None and sub.lineno not in seen_lines:
                seen_lines.add(sub.lineno)
                hits.append(
                    PerfHit(
                        R.PERF605,
                        f"{alloc} allocates a fresh container on every "
                        "pass of a while-driven inner loop",
                        sub.lineno,
                        "hoist the container out of the loop and reuse it "
                        "(clear() between passes)",
                    )
                )
    return hits


# ------------------------------------------------------------------ #
# PERF606 — deepcopy / json round-trip cloning
# ------------------------------------------------------------------ #
def _perf606_deepcopy(tree: ast.Module) -> list[PerfHit]:
    hits: list[PerfHit] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        offender: str | None = None
        if isinstance(func, ast.Name) and func.id == "deepcopy":
            offender = "deepcopy"
        elif isinstance(func, ast.Attribute) and func.attr == "deepcopy":
            offender = "copy.deepcopy"
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "loads"
            and node.args
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Attribute)
            and node.args[0].func.attr == "dumps"
        ):
            offender = "json.loads(json.dumps(...))"
        if offender is not None:
            hits.append(
                PerfHit(
                    R.PERF606,
                    f"{offender} clones an object graph per call",
                    node.lineno,
                    "copy only the mutated fields explicitly, or share an "
                    "immutable snapshot by reference",
                )
            )
    return hits
