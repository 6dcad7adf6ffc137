"""Static determinism rules (DET4xx): AST passes over Python source.

Four rules, in the same lexical-approximation style as
:mod:`repro.analysis.source_rules` — events are ordered by source
position within one scope (a function body or the module top level),
no cross-function dataflow:

* **DET401** — iteration over an unordered collection (a ``set``
  construct, or ``dict.keys/values/items`` of a dict built in the same
  scope from unordered input) whose body reaches an output sink
  (``print``, ``.write``, ``.record``, ``.emit``, ``.observe``,
  ``json.dump(s)`` without ``sort_keys=True``).  Sets are flagged
  unconditionally; plain dict-method iteration is only flagged when
  the *sink* is order-sensitive, because CPython dicts iterate in
  insertion order — the hazard is the unordered source, not the dict.
* **DET402** — unseeded entropy: module-level ``random.*`` draws,
  ``uuid.uuid1/uuid4``, ``os.urandom``, ``secrets.*``, ``time.time``.
  Calls through a ``random.Random(seed)`` instance are the sanctioned
  pattern and never flagged.
* **DET403** — timer-tie hazards: two or more distinct unkeyed
  ``call_at``/``call_later`` registrations in one scope with textually
  identical time expressions, or a single unkeyed registration inside
  a ``for`` loop that iterates an unordered collection.
* **DET404** — ``sum()`` (or ``+=`` accumulation) of floats folded
  over a set construct: float addition is not associative, so the
  total depends on Python's per-process set ordering.

Suppressions work exactly like the other source rules:
``# gyan-lint: disable=DET401`` on the offending line.
"""

from __future__ import annotations

import ast

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.analysis.source_rules import is_virtual_clock_scope, scope_nodes, scopes

#: Attribute calls treated as order-sensitive output sinks.
SINK_ATTRS = frozenset({"write", "record", "emit", "observe", "writelines"})
#: Bare-name calls treated as sinks.
SINK_NAMES = frozenset({"print"})
#: ``random`` module functions that draw from the unseeded global RNG.
RANDOM_DRAWS = frozenset({
    "random", "randint", "randrange", "uniform", "choice", "choices",
    "shuffle", "sample", "gauss", "normalvariate", "expovariate",
    "betavariate", "gammavariate", "lognormvariate", "paretovariate",
    "vonmisesvariate", "weibullvariate", "triangular", "getrandbits",
    "randbytes",
})
#: ``uuid`` constructors that embed clock/MAC/entropy state.
UUID_ENTROPY = frozenset({"uuid1", "uuid4"})


def analyze_det_tree(tree: ast.Module | Exception, path: str) -> list[Finding]:
    """Run every DET4xx rule on one Python file's tree."""
    if isinstance(tree, Exception):
        return []  # SRC200 owns the parse error.
    aliases, from_names = _import_aliases(tree)
    if is_virtual_clock_scope(path):
        # SRC201 owns every wall-clock call inside gpusim/ and core/;
        # DET402 only adds time.time() coverage elsewhere.
        aliases["time"] = set()
        from_names = {
            k: v for k, v in from_names.items() if v != "time.time"
        }
    findings: list[Finding] = []
    findings.extend(_det402_entropy(tree, path, aliases, from_names))
    for scope in scopes(tree):
        findings.extend(_det401_unordered_flow(scope, path))
        findings.extend(_det403_timer_ties(scope, path))
        findings.extend(_det404_float_accumulation(scope, path))
    findings.sort(key=lambda f: (f.line or 0, f.rule_id))
    return findings


# --------------------------------------------------------------------- #
# shared scaffolding (the scope walk is source_rules')
# --------------------------------------------------------------------- #
def _import_aliases(
    tree: ast.Module,
) -> tuple[dict[str, set[str]], dict[str, str]]:
    """(module aliases, from-import names) the entropy rule cares about."""
    out: dict[str, set[str]] = {
        "random": set(), "uuid": set(), "os": set(), "secrets": set(),
        "time": set(),
    }
    #: local name -> "module.attr" for from-imports of flagged members.
    from_names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in out:
                    out[alias.name].add(alias.asname or alias.name)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            for alias in node.names:
                local = alias.asname or alias.name
                if module == "random" and alias.name in RANDOM_DRAWS:
                    from_names[local] = f"random.{alias.name}"
                elif module == "uuid" and alias.name in UUID_ENTROPY:
                    from_names[local] = f"uuid.{alias.name}"
                elif module == "os" and alias.name == "urandom":
                    from_names[local] = "os.urandom"
                elif module == "time" and alias.name == "time":
                    from_names[local] = "time.time"
                elif module == "secrets":
                    from_names[local] = f"secrets.{alias.name}"
    return out, from_names


def _is_set_expr(node: ast.AST) -> bool:
    """Lexically set-typed: a set literal/comprehension or set() call."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        # Set algebra: a union/intersection/difference of set exprs.
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _dict_method_iter(node: ast.AST) -> str | None:
    """``d.keys()/.values()/.items()`` -> the method name, else None."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("keys", "values", "items")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _is_sorted_wrapped(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("sorted", "list", "tuple", "min", "max", "len")
        # list()/tuple() freeze current order but don't *sort*; still,
        # flagging them adds noise without changing the verdict, so the
        # rule only fires on the raw unordered expression.
    )


def _sink_call(node: ast.Call) -> str | None:
    """The sink name when ``node`` is an order-sensitive output call."""
    func = node.func
    if isinstance(func, ast.Name) and func.id in SINK_NAMES:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in SINK_ATTRS:
            return func.attr
        if func.attr in ("dump", "dumps"):
            for kw in node.keywords:
                if kw.arg == "sort_keys" and (
                    isinstance(kw.value, ast.Constant) and kw.value.value is True
                ):
                    return None
            return f"json.{func.attr}"
    return None


# --------------------------------------------------------------------- #
# DET401 — unordered iteration into an output sink
# --------------------------------------------------------------------- #
def _det401_unordered_flow(scope: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in scope_nodes(scope):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        iterable = node.iter
        if _is_sorted_wrapped(iterable):
            continue
        unordered = _is_set_expr(iterable)
        dict_iter = _dict_method_iter(iterable)
        if not unordered and dict_iter is None:
            continue
        sinks = [
            sink
            for body_node in ast.walk(node)
            if isinstance(body_node, ast.Call)
            and (sink := _sink_call(body_node)) is not None
        ]
        if dict_iter is not None and not unordered:
            # Plain dict iteration is insertion-ordered on CPython, so
            # the console-output case (print) is deterministic and often
            # *deliberately* non-alphabetical (phase order).  Only flag
            # when a machine artifact is serialised per-iteration.
            sinks = [s for s in sinks if s not in SINK_NAMES]
            what = f".{dict_iter}()"
        else:
            what = "a set"
        if not sinks:
            continue
        findings.append(
            R.DET401.finding(
                f"iteration over {what} flows into {sinks[0]}() — "
                "output byte order depends on collection order",
                path,
                line=node.lineno,
                suggestion="iterate sorted(...) so the emission order is pinned",
            )
        )
    return findings


# --------------------------------------------------------------------- #
# DET402 — unseeded entropy
# --------------------------------------------------------------------- #
def _det402_entropy(
    tree: ast.Module,
    path: str,
    aliases: dict[str, set[str]],
    from_names: dict[str, str],
) -> list[Finding]:
    findings: list[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        offender: str | None = None
        if isinstance(callee, ast.Name) and callee.id in from_names:
            offender = from_names[callee.id]
        elif isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name):
            base, attr = callee.value.id, callee.attr
            if base in aliases["random"] and attr in RANDOM_DRAWS:
                offender = f"random.{attr}"
            elif base in aliases["uuid"] and attr in UUID_ENTROPY:
                offender = f"uuid.{attr}"
            elif base in aliases["os"] and attr == "urandom":
                offender = "os.urandom"
            elif base in aliases["secrets"]:
                offender = f"secrets.{attr}"
            elif base in aliases["time"] and attr == "time":
                offender = "time.time"
        if offender is not None:
            findings.append(
                R.DET402.finding(
                    f"{offender}() draws unseeded entropy — replays of the "
                    "same scenario diverge",
                    path,
                    line=node.lineno,
                    suggestion="thread a random.Random(seed) through, or "
                    "derive the value from the virtual clock",
                )
            )
    return findings


# --------------------------------------------------------------------- #
# DET403 — same-timestamp timers without a tie-break key
# --------------------------------------------------------------------- #
def _timer_call(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Attribute) and node.func.attr in (
        "call_at", "call_later",
    ):
        return node.func.attr
    return None


def _has_key_kw(node: ast.Call) -> bool:
    return any(kw.arg == "key" for kw in node.keywords)


def _det403_timer_ties(scope: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    #: time-expression text -> first unkeyed registration per call site.
    by_time_expr: dict[str, list[ast.Call]] = {}
    for node in scope_nodes(scope):
        if isinstance(node, ast.Call) and _timer_call(node) and not _has_key_kw(node):
            if node.args:
                by_time_expr.setdefault(ast.dump(node.args[0]), []).append(node)
    for expr_text, calls in sorted(by_time_expr.items()):
        # Distinct call *sites* sharing one textual time expression: the
        # same site looping is one statement and is pinned by loop order.
        sites = sorted({(c.lineno, c.col_offset) for c in calls})
        if len(sites) >= 2:
            first = min(calls, key=lambda c: (c.lineno, c.col_offset))
            findings.append(
                R.DET403.finding(
                    f"{len(sites)} unkeyed timer registrations share the "
                    "same time expression — same-instant firing order is "
                    "pinned only by registration order",
                    path,
                    line=first.lineno,
                    suggestion="pass call_at(..., key=...) to make the tie "
                    "order explicit",
                )
            )
    # A single unkeyed registration inside a loop over an unordered
    # iterable: registration order itself is unordered.
    for node in scope_nodes(scope):
        if not isinstance(node, (ast.For, ast.AsyncFor)):
            continue
        if not (_is_set_expr(node.iter) or _dict_method_iter(node.iter)):
            continue
        for body_node in ast.walk(node):
            if (
                isinstance(body_node, ast.Call)
                and _timer_call(body_node)
                and not _has_key_kw(body_node)
            ):
                findings.append(
                    R.DET403.finding(
                        "unkeyed timer registered while iterating an "
                        "unordered collection — registration order (the "
                        "only tie-break) is itself unordered",
                        path,
                        line=body_node.lineno,
                        suggestion="iterate sorted(...) or pass "
                        "call_at(..., key=...)",
                    )
                )
    return findings


# --------------------------------------------------------------------- #
# DET404 — float accumulation over an unordered iterable
# --------------------------------------------------------------------- #
def _det404_float_accumulation(scope: ast.AST, path: str) -> list[Finding]:
    findings: list[Finding] = []
    for node in scope_nodes(scope):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sum"
            and node.args
        ):
            arg = node.args[0]
            inner = arg.generators[0].iter if isinstance(arg, ast.GeneratorExp) else arg
            if _is_set_expr(inner):
                findings.append(
                    R.DET404.finding(
                        "sum() folds over a set — float addition is not "
                        "associative, so the total depends on set order",
                        path,
                        line=node.lineno,
                        suggestion="sum(sorted(...)) or math.fsum(...) "
                        "pins the result",
                    )
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)) and _is_set_expr(node.iter):
            for body_node in ast.walk(node):
                if isinstance(body_node, ast.AugAssign) and isinstance(
                    body_node.op, ast.Add
                ):
                    findings.append(
                        R.DET404.finding(
                            "+= accumulation while iterating a set — "
                            "float addition order follows set order",
                            path,
                            line=body_node.lineno,
                            suggestion="iterate sorted(...) before "
                            "accumulating",
                        )
                    )
    return findings
