"""Every defaulted parameter in ``src/repro`` has a caller that sets it.

A parameter is a defaulted function or method parameter, or a dataclass
field with a default (``default_factory`` and ``init=False`` fields are
skipped).  It is *set* when some call in ``src/``, ``bench/``,
``benchmarks/`` or ``examples/`` passes it, by keyword or by position;
calls in ``tests/`` do not count.  Callees are matched by name: a
function or method by its own name, a class's ``__init__`` and its
dataclass fields by the class name (or ``cls``, or ``super().__init__``
in a subclass), and a dataclass field also by a keyword of
``dataclasses.replace``.  A call with ``*`` or ``**`` sets everything
its callee takes.  A field of a mutable dataclass that code assigns on
an instance (``obj.name = ...``, ``obj.name += ...``, ``setattr``) is
state the object accumulates, not a parameter, and is skipped too.

A parameter no entry point sets is a constant waiting to happen: inline
it at its point of use, with whatever served only its other values.  One
that stays on purpose has a row in ``tests/parameter_allowlist.txt``
(``kind path label reason``, kinds as in ``tests/entry_sweep.py``).  A
row whose parameter is now set, or that names nothing, fails too.  Only
the standard library is used.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple

from tests.entry_sweep import KINDS, read_allowlist

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
SETTERS = ("src", "bench", "benchmarks", "examples")
ALLOWLIST = Path(__file__).with_name("parameter_allowlist.txt")
#: Marks a call that sets every parameter of its callee (``*``/``**``).
EVERYTHING = -1


class Parameter(NamedTuple):
    path: str
    line: int
    label: str       # ``Qual.func(name)`` or ``Class.field``
    callee: str      # the name a call uses: the function's, or the class's
    position: int | None   # index among the call's positional arguments
    name: str
    field: bool
    mutable: bool    # a field of a dataclass that is not frozen


class Call(NamedTuple):
    callee: str
    positional: int  # count, or EVERYTHING
    keywords: frozenset[str]


def _dataclass(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` decorator of ``node``, if it has one."""
    for deco in node.decorator_list:
        if _name(deco.func if isinstance(deco, ast.Call) else deco) == "dataclass":
            return deco
    return None


def _frozen(deco: ast.expr) -> bool:
    return isinstance(deco, ast.Call) and any(
        k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value
        for k in deco.keywords)


def _name(func: ast.expr) -> str:
    """The name a call's callee goes by: ``f`` for ``f(...)`` and ``x.f(...)``."""
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", "")


def _field_keywords(value: ast.expr | None) -> dict[str, ast.expr] | None:
    """The keywords of a ``field(...)`` default, or ``None`` for a plain one."""
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return {k.arg: k.value for k in value.keywords}
    return None


def _init_false(value: ast.expr | None) -> bool:
    init = (_field_keywords(value) or {}).get("init")
    return isinstance(init, ast.Constant) and init.value is False


def _field_skipped(value: ast.expr | None) -> bool:
    """No default, or a ``field(...)`` with ``default_factory``."""
    keywords = _field_keywords(value)
    return value is None or (keywords is not None and "default" not in keywords)


def _fields(node: ast.ClassDef) -> list[tuple[str, int, ast.expr | None]]:
    """``(name, line, default)`` of the init fields a dataclass body declares."""
    return [(stmt.target.id, stmt.lineno, stmt.value) for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and "ClassVar" not in ast.unparse(stmt.annotation)
            and not _init_false(stmt.value)]


def parameters(tree: ast.Module, path: str) -> list[Parameter]:
    """Every defaulted parameter and defaulted dataclass field in ``tree``."""
    found: list[Parameter] = []
    classes: dict[str, ast.ClassDef] = {
        n.name: n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def all_fields(node: ast.ClassDef) -> list[tuple[str, int, ast.expr | None, str]]:
        out: dict[str, tuple[str, int, ast.expr | None, str]] = {}
        for base in node.bases:
            parent = classes.get(getattr(base, "id", ""))
            if parent is not None and _dataclass(parent) is not None:
                out.update({f[0]: f for f in all_fields(parent)})
        for name, line, value in _fields(node):
            out[name] = (name, line, value, node.name)
        return list(out.values())

    def visit(node: ast.AST, prefix: str, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                deco = _dataclass(child)
                if deco is not None and not any(
                        isinstance(s, ast.FunctionDef) and s.name == "__init__"
                        for s in child.body):
                    for position, (name, line, value, origin) in enumerate(all_fields(child)):
                        if origin == child.name and not _field_skipped(value):
                            found.append(Parameter(
                                path, line, f"{prefix}{child.name}.{name}",
                                child.name, position, name, True,
                                not _frozen(deco)))
                visit(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                _function(child, prefix, owner, path, found)
                visit(child, f"{prefix}{child.name}.<locals>.", None)
            else:
                visit(child, prefix, owner)

    visit(tree, "", None)
    return found


def _function(node: ast.FunctionDef | ast.AsyncFunctionDef, prefix: str,
              owner: ast.ClassDef | None, path: str, found: list[Parameter]) -> None:
    args = node.args
    static = any(getattr(d, "id", "") == "staticmethod" for d in node.decorator_list)
    bound = 1 if owner is not None and not static else 0
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    callee = owner.name if node.name == "__init__" and owner is not None else node.name
    label = f"{prefix}{node.name}"
    for index, arg in enumerate(positional):
        if index >= first_default:
            found.append(Parameter(path, arg.lineno, f"{label}({arg.arg})",
                                   callee, index - bound, arg.arg, False, False))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            found.append(Parameter(path, arg.lineno, f"{label}({arg.arg})",
                                   callee, None, arg.arg, False, False))


def calls(tree: ast.Module) -> list[Call]:
    """Every call in ``tree`` as ``(callee name, positional count, keywords)``."""
    found: list[Call] = []

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                found.extend(_call(child, owner))
            visit(child, child if isinstance(child, ast.ClassDef) else owner)

    visit(tree, None)
    return found


def _call(node: ast.Call, owner: ast.ClassDef | None) -> list[Call]:
    func = node.func
    star = (any(isinstance(a, ast.Starred) for a in node.args)
            or any(k.arg is None for k in node.keywords))
    positional = EVERYTHING if star else len(node.args)
    keywords = frozenset(k.arg for k in node.keywords if k.arg is not None)
    if owner is not None and (
            (isinstance(func, ast.Name) and func.id == "cls")
            or (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call) and _name(func.value.func) == "super")):
        names = [owner.name] if isinstance(func, ast.Name) else [_name(b) for b in owner.bases]
    else:
        names = [_name(func)]
    return [Call(name, positional, keywords) for name in names if name]


def assigned(tree: ast.Module) -> set[str]:
    """Attribute names ``tree`` assigns on some object."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and _name(node.func) in ("setattr", "__setattr__")):
            names.add(node.args[1].value)
    return names


def _sets(parameter: Parameter, call: Call) -> bool:
    if call.positional == EVERYTHING or parameter.name in call.keywords:
        return True
    return parameter.position is not None and 0 <= parameter.position < call.positional


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def scan(root: Path = REPO, package: Path = PACKAGE,
         setters: tuple[str, ...] = SETTERS) -> tuple[list[Parameter], list[str]]:
    """``(every parameter, labels of those set)`` for a checkout at ``root``."""
    found: list[Parameter] = []
    by_callee: dict[str, list[Call]] = {}
    state: set[str] = set()
    for top in setters:
        for path in sorted((root / top).rglob("*.py")):
            tree = _parse(path)
            if path.is_relative_to(package):
                found.extend(parameters(tree, path.relative_to(root).as_posix()))
            for call in calls(tree):
                by_callee.setdefault(call.callee, []).append(call)
            state |= assigned(tree)
    found = [p for p in found if not (p.mutable and p.name in state)]
    replaced = frozenset().union(*(c.keywords for c in by_callee.get("replace", ())))
    set_labels = [p.label for p in found
                  if (p.field and p.name in replaced)
                  or any(_sets(p, c) for c in by_callee.get(p.callee, ()))]
    return found, set_labels


def problems(found: list[Parameter], set_labels: list[str],
             rows: list[tuple[str, str, str, str]]) -> list[str]:
    """``path:line label`` lines: unset parameters no row names, then
    rows that name nothing unset."""
    is_set = set(set_labels)
    unset = [p for p in found if p.label not in is_set]
    allowed = {(path, label) for kind, path, label, _ in rows if kind in KINDS}
    lines = [f"{p.path}:{p.line} {p.label}" for p in unset
             if (p.path, p.label) not in allowed]
    unset_names = {(p.path, p.label) for p in unset}
    known = {(p.path, p.label) for p in found}
    for kind, path, label, _ in rows:
        if kind not in KINDS:
            lines.append(f"{path}:0 {label} (allowlist: unknown kind {kind!r})")
        elif (path, label) not in unset_names:
            why = "now set" if (path, label) in known else "no such parameter"
            lines.append(f"{path}:0 {label} (allowlist: {why})")
    return lines


def test_every_parameter_has_a_caller_or_a_row():
    found, set_labels = scan()
    lines = problems(found, set_labels, read_allowlist(ALLOWLIST))
    assert not lines, (
        "a parameter no call in src/, bench/, benchmarks/ or examples/ sets is a "
        "constant: inline it, or give it a row (kind path label reason) in "
        f"{ALLOWLIST.relative_to(REPO)}\n" + "\n".join(lines))


SYNTHETIC = '''\
from dataclasses import dataclass, field, replace


def plain(a, b=1, *, c=2):
    return a + b + c


class Holder:
    def __init__(self, x, y=0, z=0):
        self.total = x + y + z

    def method(self, p=1, q=2):
        return p + q

    @classmethod
    def make(cls, w=3):
        return cls(w, w)


class Child(Holder):
    def __init__(self, spread=None):
        super().__init__(1, 2, 3)


@dataclass
class Config:
    size: int = 1
    name: str = "a"
    tags: list = field(default_factory=list)
    cache: dict = field(init=False, default=None)
    mode: str = field(default="m")


@dataclass
class Tally:
    count: int = 0


@dataclass(frozen=True)
class Limits:
    count: int = 0


def caller(h, cfg, args, tally):
    tally.count += 1
    plain(1, 2)
    h.method(q=5)
    Holder.make(*args)
    Config(4)
    replace(cfg, mode="n")
'''


def _synthetic(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(SYNTHETIC)
    found, set_labels = scan(tmp_path, package, ("src",))
    return {p.label for p in found}, set(set_labels)


def test_the_scan_matches_callees_by_name_and_position(tmp_path):
    found, is_set = _synthetic(tmp_path)
    assert found == {
        "plain(b)", "plain(c)", "Holder.__init__(y)", "Holder.__init__(z)",
        "Holder.method(p)", "Holder.method(q)", "Holder.make(w)",
        "Child.__init__(spread)", "Config.size", "Config.name", "Config.mode",
        "Limits.count",
    }
    assert found - is_set == {"plain(c)", "Holder.method(p)",
                              "Child.__init__(spread)", "Config.name",
                              "Limits.count"}


def test_rows_must_name_an_unset_parameter(tmp_path):
    found = [Parameter("m.py", 1, "f(a)", "f", 0, "a", False, False),
             Parameter("m.py", 2, "f(b)", "f", 1, "b", False, False)]
    rows = [("seam", "m.py", "f(a)", "kept"), ("seam", "m.py", "g(x)", "gone"),
            ("nope", "m.py", "f(b)", "bad kind")]
    assert problems(found, ["f(a)"], rows) == [
        "m.py:2 f(b)",
        "m.py:0 f(a) (allowlist: now set)",
        "m.py:0 g(x) (allowlist: no such parameter)",
        "m.py:0 f(b) (allowlist: unknown kind 'nope')",
    ]
