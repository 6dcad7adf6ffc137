"""AST-based module-level call graph over a set of Python sources.

gyan-perf needs to answer one question: *is this function reachable
from a known-hot entry point?*  That takes a call graph good enough to
follow the codebase's actual idioms, not a sound points-to analysis.
The builder resolves, per calling scope:

* bare-name calls to module-level functions (local or imported via
  ``from repro.x import y``), and to classes (edges go to
  ``Class.__init__``);
* ``self.method(...)`` to the enclosing class (and its resolvable
  bases);
* ``ClassName.method(...)`` and ``obj.method(...)`` where ``obj`` is a
  local variable assigned from a constructor call or from a call to a
  same-module function annotated to return a class
  (``timing = _timing_for(ctx)``), an annotated
  parameter, or a ``self.attr`` whose class was recorded from an
  ``__init__`` assignment / class-level annotation (the
  *class-attribute heuristic*);
* ``functools.partial(f, ...)`` and callback *registration sites* —
  any known function passed bare as a call argument (``call_at(t, cb)``,
  ``add_span_listener(self._on_span)``) gets an edge, because the
  callee will invoke it later; the reference resolves exactly as a
  callee does, and a ``@property`` read is a value, not a callback;
* a last-resort *unique-method* heuristic: an unresolved
  ``x.method(...)`` links to ``Class.method`` when exactly one class in
  the analyzed set defines ``method``.

Over-approximation is the right failure mode here: a spurious edge can
only mark extra code hot (stricter severity), never hide a hot path.

Nodes are keyed by dotted qualified name
(``repro.core.monitor.GPUUsageMonitor.to_csv``); nested functions get
``outer.<locals>.inner``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

#: Decorator names that mark a function as a hot-path seed.
HOT_DECORATOR = "hot_path"

#: Decorators that make a method an attribute read rather than a callable.
PROPERTY_DECORATORS = frozenset({
    "property", "cached_property", "getter", "setter", "deleter",
})


@dataclass
class FunctionNode:
    """One function/method in the graph."""

    qname: str  #: dotted qualified name, e.g. ``pkg.mod.Class.meth``
    module: str
    path: str
    lineno: int
    end_lineno: int
    #: Simple name (last dotted component).
    name: str
    #: Enclosing class qname, or None for module-level functions.
    cls: str | None
    hot_annotated: bool = False
    #: A ``@property`` (or cached property) accessor.
    is_property: bool = False
    calls: set[str] = field(default_factory=set)  #: resolved callee qnames


@dataclass
class ModuleInfo:
    """Per-module resolution context built on the first pass."""

    module: str
    path: str
    tree: ast.Module
    #: local name -> qname of an imported function/class from the set.
    imports: dict[str, str] = field(default_factory=dict)
    #: class simple name -> class qname (classes defined here).
    classes: dict[str, str] = field(default_factory=dict)
    #: module-level function simple name -> qname.
    functions: dict[str, str] = field(default_factory=dict)
    #: function simple name -> its return annotation, where it has one.
    returns: dict[str, ast.expr] = field(default_factory=dict)


class CallGraph:
    """The resolved graph: nodes by qname, edges via ``node.calls``."""

    def __init__(self) -> None:
        self.nodes: dict[str, FunctionNode] = {}
        #: class qname -> {method simple name -> method qname}
        self.methods: dict[str, dict[str, str]] = {}
        #: class qname -> {attr name -> attr's class qname}
        self.attr_types: dict[str, dict[str, str]] = {}
        #: class qname -> base class qnames (resolvable ones only)
        self.bases: dict[str, list[str]] = {}
        #: method simple name -> class qnames defining it (for the
        #: unique-method fallback).
        self.method_owners: dict[str, set[str]] = {}
        #: path -> per-module info (parsed tree + name tables).
        self.modules_by_path: dict[str, "ModuleInfo"] = {}

    # -------------------------------------------------------------- #
    # queries
    # -------------------------------------------------------------- #

    def edge_count(self) -> int:
        return sum(len(node.calls) for node in self.nodes.values())

    def callees(self, qname: str) -> list[str]:
        node = self.nodes.get(qname)
        if node is None:
            return []
        return sorted(node.calls)

    def enclosing(self, path: str, lineno: int) -> FunctionNode | None:
        """The innermost function containing ``path:lineno``, if any."""
        best: FunctionNode | None = None
        for node in self.nodes.values():
            if node.path != path or not node.lineno <= lineno <= node.end_lineno:
                continue
            if best is None or node.lineno > best.lineno:
                best = node
        return best

    def module_for_path(self, path: str) -> "ModuleInfo | None":
        return self.modules_by_path.get(path)

    def resolve_method(self, cls: str, method: str) -> str | None:
        """``Class.method`` following resolvable bases, depth-first."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            hit = self.methods.get(current, {}).get(method)
            if hit is not None:
                return hit
            stack.extend(self.bases.get(current, []))
        return None


def module_name_for(path: str) -> str:
    """Dotted module name from a file path (``src/<pkg>/...`` aware)."""
    normalized = path.replace("\\", "/")
    parts = normalized.split("/")
    if parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    # Anchor at the package root when the file lives under src/.
    for anchor in ("src",):
        if anchor in parts:
            parts = parts[parts.index(anchor) + 1:]
            break
    else:
        # Fall back to the longest suffix starting at a `repro` segment,
        # else just the stem (fixture files).
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        else:
            parts = parts[-1:]
    return ".".join(part for part in parts if part) or "module"


def _is_property_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id in PROPERTY_DECORATORS
    return isinstance(node, ast.Attribute) and node.attr in PROPERTY_DECORATORS


def _is_hot_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id == HOT_DECORATOR
    if isinstance(node, ast.Attribute):
        return node.attr == HOT_DECORATOR
    if isinstance(node, ast.Call):
        return _is_hot_decorator(node.func)
    return False


def build_call_graph(
    sources: list[tuple[str, ast.Module | Exception]]
) -> tuple[CallGraph, list[str]]:
    """Build the graph from ``[(path, tree), ...]``.

    Returns ``(graph, errors)``; a file whose tree is the exception
    ``ast.parse`` raised is reported and skipped (SRC200 owns the lint
    finding for it).
    """
    graph = CallGraph()
    modules: list[ModuleInfo] = []
    errors: list[str] = []

    # ---------------- pass 1: declarations ------------------------- #
    for path, tree in sources:
        if isinstance(tree, Exception):
            errors.append(f"{path}: does not parse: {getattr(tree, 'msg', tree)}")
            continue
        module = module_name_for(path)
        info = ModuleInfo(module=module, path=path, tree=tree)
        modules.append(info)
        graph.modules_by_path[path] = info
        _declare_module(graph, info)

    by_module = {info.module: info for info in modules}

    # ---------------- pass 2: imports ------------------------------ #
    for info in modules:
        _resolve_imports(graph, info, by_module)

    # ---------------- pass 3: attribute types ---------------------- #
    for info in modules:
        _collect_attr_types(graph, info)

    # ---------------- pass 4: call edges --------------------------- #
    for info in modules:
        _resolve_calls(graph, info)

    return graph, errors


# ------------------------------------------------------------------ #
# pass 1 — declarations
# ------------------------------------------------------------------ #
def _declare_module(graph: CallGraph, info: ModuleInfo) -> None:
    def declare_function(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        prefix: str,
        cls: str | None,
    ) -> None:
        qname = f"{prefix}.{node.name}"
        fnode = FunctionNode(
            qname=qname,
            module=info.module,
            path=info.path,
            lineno=node.lineno,
            end_lineno=node.end_lineno or node.lineno,
            name=node.name,
            cls=cls,
            hot_annotated=any(_is_hot_decorator(d) for d in node.decorator_list),
            is_property=any(
                _is_property_decorator(d) for d in node.decorator_list
            ),
        )
        graph.nodes[qname] = fnode
        if cls is not None:
            graph.methods.setdefault(cls, {})[node.name] = qname
            graph.method_owners.setdefault(node.name, set()).add(cls)
        else:
            info.functions.setdefault(node.name, qname)
            if node.returns is not None:
                info.returns.setdefault(node.name, node.returns)
        for child in node.body:
            walk(child, f"{qname}.<locals>", None)

    def declare_class(node: ast.ClassDef, prefix: str) -> None:
        qname = f"{prefix}.{node.name}"
        info.classes[node.name] = qname
        graph.methods.setdefault(qname, {})
        graph.bases.setdefault(qname, [])
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declare_function(child, qname, qname)
            elif isinstance(child, ast.ClassDef):
                declare_class(child, qname)

    def walk(node: ast.stmt, prefix: str, cls: str | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declare_function(node, prefix, cls)
        elif isinstance(node, ast.ClassDef):
            declare_class(node, prefix)

    for stmt in info.tree.body:
        walk(stmt, info.module, None)


# ------------------------------------------------------------------ #
# pass 2 — imports (and base-class resolution)
# ------------------------------------------------------------------ #
def _resolve_imports(
    graph: CallGraph, info: ModuleInfo, by_module: dict[str, ModuleInfo]
) -> None:
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        source = by_module.get(node.module)
        if source is None:
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if alias.name in source.functions:
                info.imports[local] = source.functions[alias.name]
            elif alias.name in source.classes:
                info.imports[local] = source.classes[alias.name]

    # Base classes: resolvable names only (local classes or imports).
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls_qname = info.classes.get(node.name)
        if cls_qname is None:
            continue
        bases: list[str] = []
        for base in node.bases:
            if isinstance(base, ast.Name):
                resolved = info.classes.get(base.id) or info.imports.get(base.id)
                if resolved is not None and resolved in graph.methods:
                    bases.append(resolved)
        graph.bases[cls_qname] = bases


# ------------------------------------------------------------------ #
# pass 3 — class-attribute types
# ------------------------------------------------------------------ #
def _class_of_expr(info: ModuleInfo, expr: ast.expr) -> str | None:
    """The class qname an expression constructs/names, if resolvable."""
    if isinstance(expr, ast.Call):
        return _class_of_expr(info, expr.func)
    if isinstance(expr, ast.Name):
        resolved = info.classes.get(expr.id) or info.imports.get(expr.id)
        return resolved
    if isinstance(expr, ast.Attribute):
        # mod.ClassName — match by attribute simple name.
        return info.classes.get(expr.attr)
    if isinstance(expr, ast.Subscript):
        # Optional[X] / list[X] annotations: use the element class.
        return _class_of_expr(info, expr.value)
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        # String annotation: "ClassName".
        return info.classes.get(expr.value)
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        # X | None unions: first resolvable arm.
        return _class_of_expr(info, expr.left) or _class_of_expr(info, expr.right)
    return None


def _collect_attr_types(graph: CallGraph, info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        cls_qname = info.classes.get(node.name)
        if cls_qname is None:
            continue
        attrs = graph.attr_types.setdefault(cls_qname, {})
        for sub in ast.walk(node):
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
            elif isinstance(sub, ast.AnnAssign):
                target, value = sub.target, sub.annotation
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and value is not None
            ):
                cls = _class_of_expr(info, value)
                if cls is not None:
                    attrs.setdefault(target.attr, cls)


# ------------------------------------------------------------------ #
# pass 4 — call edges
# ------------------------------------------------------------------ #
def _resolve_calls(graph: CallGraph, info: ModuleInfo) -> None:
    for qname, node in _functions_with_defs(graph, info):
        _resolve_scope_calls(graph, info, qname, node)


def _functions_with_defs(graph: CallGraph, info: ModuleInfo):
    """(qname, def-node) pairs for every function declared in this module."""
    index: dict[tuple[int, str], ast.AST] = {}
    for sub in ast.walk(info.tree):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            index[(sub.lineno, sub.name)] = sub
    for qname, fnode in graph.nodes.items():
        if fnode.module != info.module:
            continue
        def_node = index.get((fnode.lineno, fnode.name))
        if def_node is not None:
            yield qname, def_node


def _own_nodes(scope: ast.AST):
    """Nodes of this function, excluding nested function/class bodies
    (lambdas stay: what they call, the function calls), in source order
    off an explicit stack."""
    stack = [ast.iter_child_nodes(scope)]
    while stack:
        for child in stack[-1]:
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield child
                stack.append(ast.iter_child_nodes(child))
                break
        else:
            stack.pop()


def _resolve_scope_calls(
    graph: CallGraph, info: ModuleInfo, qname: str, scope: ast.AST
) -> None:
    fnode = graph.nodes[qname]
    cls = fnode.cls

    # Local variable types: params with class annotations, constructor
    # assignments, and assignments from a call to a function of this
    # module whose return annotation names a class.
    local_types: dict[str, str] = {}
    args = getattr(scope, "args", None)
    if args is not None:
        for arg in list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                resolved = _class_of_expr(info, arg.annotation)
                if resolved is not None:
                    local_types[arg.arg] = resolved
    for node in _own_nodes(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            if isinstance(target, ast.Name) and isinstance(value, ast.Call):
                resolved = _class_of_expr(info, value)
                if resolved is None and isinstance(value.func, ast.Name):
                    returns = info.returns.get(value.func.id)
                    if returns is not None:
                        resolved = _class_of_expr(info, returns)
                if resolved is not None:
                    local_types[target.id] = resolved

    def resolve_ref(expr: ast.expr) -> str | None:
        """A *function-valued* reference (not a call), if resolvable."""
        if isinstance(expr, ast.Name):
            target = info.functions.get(expr.id) or info.imports.get(expr.id)
            if target is not None and target in graph.nodes:
                return target
            # A nested function of this scope.
            nested = f"{qname}.<locals>.{expr.id}"
            if nested in graph.nodes:
                return nested
            return None
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            base = expr.value.id
            owner: str | None = None
            if base == "self" and cls is not None:
                owner = cls
            elif base in local_types:
                owner = local_types[base]
            elif base in info.classes:
                owner = info.classes[base]
            elif base in info.imports and info.imports[base] in graph.methods:
                owner = info.imports[base]
            elif cls is not None and base in graph.attr_types.get(cls, {}):
                owner = graph.attr_types[cls][base]
            if owner is not None:
                return graph.resolve_method(owner, expr.attr)
        return None

    def resolve_attr(expr: ast.Attribute) -> str | None:
        """``x.name`` via the receiver, then its chain, then a unique owner."""
        resolved = resolve_ref(expr) or _resolve_chained(
            graph, info, cls, expr, local_types
        )
        if resolved is None and isinstance(expr.value, (ast.Name, ast.Attribute)):
            owners = graph.method_owners.get(expr.attr, set())
            if len(owners) == 1:
                resolved = graph.resolve_method(next(iter(owners)), expr.attr)
        return resolved

    def add(callee: str | None) -> None:
        if callee is not None and callee != qname:
            fnode.calls.add(callee)

    for node in _own_nodes(scope):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        # Direct calls.
        if isinstance(callee, ast.Name):
            target = (
                info.functions.get(callee.id)
                or info.imports.get(callee.id)
                or info.classes.get(callee.id)
            )
            if target is None:
                nested = f"{qname}.<locals>.{callee.id}"
                target = nested if nested in graph.nodes else None
            if target is not None:
                if target in graph.methods:  # constructor
                    add(graph.resolve_method(target, "__init__"))
                    # Constructing is reaching: treat all of the class's
                    # dunder-free public surface as NOT implied; only
                    # __init__ runs at construction time.
                else:
                    add(target)
        elif isinstance(callee, ast.Attribute):
            add(resolve_attr(callee))
        # Callback registration: bare function references in arguments.
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(arg, ast.Name):
                add(resolve_ref(arg))
            elif isinstance(arg, ast.Attribute):
                ref = resolve_attr(arg)
                if ref is not None and not graph.nodes[ref].is_property:
                    add(ref)


def _resolve_chained(
    graph: CallGraph,
    info: ModuleInfo,
    cls: str | None,
    callee: ast.Attribute,
    local_types: dict[str, str],
) -> str | None:
    """Resolve ``self.attr.method()`` / ``var.attr.method()`` receivers."""
    receiver = callee.value
    if not (
        isinstance(receiver, ast.Attribute) and isinstance(receiver.value, ast.Name)
    ):
        return None
    base, attr = receiver.value.id, receiver.attr
    owner: str | None = None
    if base == "self" and cls is not None:
        owner = graph.attr_types.get(cls, {}).get(attr)
    elif base in local_types:
        owner = graph.attr_types.get(local_types[base], {}).get(attr)
    if owner is None:
        return None
    return graph.resolve_method(owner, callee.attr)
