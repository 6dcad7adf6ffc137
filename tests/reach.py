"""One reachability guard: what no entry point uses goes.

One walker (:func:`walk`, one ``ast`` parse per module), one allowlist
(``reach_allowlist.txt``) and one trace hold four levels.  ``python
tests/reach.py`` runs :data:`COMMANDS` in subprocesses under
:func:`_tracer` (a temporary ``sitecustomize.py`` installs it with
``sys.settrace`` in every Python process they start) and exits 1 naming
``path:line label`` for each ``src/repro`` module whose ``<module>``
code never ran, each function never called, and each arm never taken
inside code (and arms) that ran: an ``if`` / ``else`` / ``except`` /
``try``-``else`` block when a line of its first statement ran, an ``if``
with no ``else`` when an arc left its test for a line outside the
``if``.  The parameter level is static (:func:`parameter_problems`,
tier-1 in ``tests/test_reach.py``): some call in :data:`SETTERS` sets
each defaulted parameter.  Never flagged: declarations (a body of only a
docstring, ``...``, ``pass`` or ``raise NotImplementedError``), arms
ending in ``raise`` / ``return 1`` / ``return 2`` (safety code) and ``if
TYPE_CHECKING:``.  A row is ``kind path label reason``, ``label`` one of
``<module>``, a qualname, ``qualname:line`` for an arm (its first
statement's line, or the ``if``'s with no ``else``), ``Qual.func(param)``
or ``Class.field``; a row whose item is used, or gone, fails too.
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
SETTERS = ("src", "bench", "benchmarks", "examples")
ALLOWLIST = REPO / "tests" / "reach_allowlist.txt"
#: Commands run at once: two, or one on a single core.
WORKERS = min(2, os.cpu_count() or 1)
#: Marks a call that sets every parameter of its callee (``*``/``**``).
EVERYTHING = -1

#: Why something no entry point uses may stay.
KINDS = {
    "paper": "a surface the paper or DESIGN.md promises",
    "defensive": "handles bad outside input or a fault no shipped "
                 "scenario reaches",
    "oracle": "reference code kept independent of the implementation",
    "seam": "a test isolation hook or a name kept on purpose",
}

#: ``(expected exit code, shell command)``.  The commands run from the
#: repository root; ``repro`` and ``python`` are the sweep's own
#: interpreter, ``{tmp}`` is the sweep's scratch directory.
COMMANDS = (
    # the top-level parser
    (0, "repro --help"),
    (2, "repro"),
    (2, "repro nosuch"),
    (2, "repro racon --bogus"),
    # the paper's commands
    (0, "repro info"),
    (0, "repro smi"),
    (0, "repro smi --demo"),
    (0, "repro topo"),
    (2, "repro topo --boards 0"),
    (0, "repro racon"),
    (0, "GYAN_SIMSAN=1 repro racon --workload dataset"),
    (0, "GYAN_SIMSAN=1 repro smi --demo"),
    (0, "repro racon --workload dataset --container"),
    (0, "repro racon --threads 8 --batches 2 --banded --allocation memory"),
    (2, "repro racon --threads 49"),
    (0, "repro racon --workload dataset --allocation utilization"),
    (0, "repro bonito"),
    (0, "repro bonito --workload unit --allocation memory"),
    (0, "repro racon --workload dataset --dataset Acinetobacter_pittii"),
    (0, "repro bonito --dataset Klebsiella_pneumoniae_KSB2"),
    (0, "repro bonito --dataset ''"),
    (1, "repro bonito --dataset nosuch"),
    (0, "repro cases"),
    (0, "repro cases --case 1 && repro cases --case 2"
        " && repro cases --case 3 && repro cases --case 4"),
    (0, "repro experiment all"),
    (0, "repro experiment fig3 && repro experiment fig5"
        " && repro experiment e11 && repro experiment stalls"),
    # trace
    (0, "repro trace"),
    (0, "repro trace --jobs 8 --seed 5 --emit {tmp}/trace"),
    (0, "repro trace --jobs 4 --interarrival 2.0 --seed 3 --emit {tmp}/golden"),
    (0, "repro trace --plan examples/configs/chaos_k80_die.json --emit {tmp}/chaos"),
    (0, "repro trace --plan examples/configs/chaos_k80_die.json"),
    (0, "repro trace --jobs 12 --policy wait --allocation memory --format json"),
    (0, "GYAN_SIMSAN=1 repro trace --jobs 6 --seed 11"),
    (2, "repro trace --jobs 0"),
    (2, "repro trace --interarrival nan"),
    (2, "repro trace --jobs 2 --interarrival 1e17"),
    (1, "repro trace --jobs 200"),
    # lint
    (0, "repro lint examples/ src/"),
    (0, "repro lint --list-rules"),
    (2, "repro lint"),
    (2, "repro lint --devices -1 examples/"),
    (1, "repro lint tests/analysis/fixtures/bad"),
    (1, "repro lint --format json tests/analysis/fixtures/bad"),
    (1, "repro lint tests/analysis/fixtures/unterminated_if.xml"),
    (2, "repro lint no/such/path"),
    (2, "repro lint tests/analysis/fixtures/not_utf8"),
    (0, "repro lint --fail-on info --write-baseline {tmp}/lint-baseline.json"
        " tests/analysis/fixtures/bad || true;"
        " repro lint --fail-on info --baseline {tmp}/lint-baseline.json"
        " tests/analysis/fixtures/bad"),
    # verify
    (0, "repro verify examples/"),
    (1, "repro verify tests/analysis/fixtures/deployments/bad"),
    (1, "repro verify tests/analysis/fixtures/deployments/deadlock"),
    (1, "repro verify tests/analysis/fixtures/deployments/overload_bad"),
    (1, "repro verify --fail-on warning"
        " tests/analysis/fixtures/deployments/starvation"),
    (1, "repro verify --format json tests/analysis/fixtures/unterminated_if.xml"),
    (2, "repro verify no/such/path"),
    (2, "repro verify"),
    (2, "repro verify --scope 9 examples/"),
    (2, "repro verify --devices -1 examples/"),
    (2, "repro verify tests/analysis/fixtures/not_utf8"),
    (1, "repro verify tests/analysis/fixtures/two_confs"),
    (0, "repro verify --emit-plans {tmp}/plans"
        " tests/analysis/fixtures/deployments/deadlock;"
        " for plan in {tmp}/plans/*.json; do"
        " repro faults --plan $plan && exit 1; done; true"),
    # faults: every scenario, stock and resilient
    (0, "GYAN_SIMSAN=1 repro faults --scenario k80-die-midrun --seed 3"),
    (0, "repro faults --scenario nvml-flaky"),
    (1, "repro faults --scenario nvml-flaky --no-resilience"),
    (0, "repro faults --scenario container-flaky"),
    (1, "repro faults --scenario container-flaky --no-resilience"),
    (0, "repro faults --scenario ecc-storm"),
    (0, "repro faults --scenario burst-storm"),
    (0, "repro faults --plan examples/configs/chaos_k80_die.json"),
    (0, "repro faults --plan examples/configs/chaos_container_flaky.json"),
    (2, "repro faults --jobs -1"),
    (2, "echo '{{\"name\": \"no-tools\", \"seed\": 1, \"events\": [],"
        " \"workload\": {{\"jobs\": 3, \"tools\": []}}}}' > {tmp}/no-tools.json"
        " && repro faults --plan {tmp}/no-tools.json"),
    (0, "python -c 'import json; from repro.workloads.chaos import resolve_plan;"
        " json.dump(resolve_plan(scenario=\"burst-storm\", seed=1).to_dict(),"
        " open(\"{tmp}/burst-storm.json\", \"w\"))'"
        " && repro faults --plan {tmp}/burst-storm.json"
        " && repro trace --plan {tmp}/burst-storm.json --format json"),
    # storm
    (0, "GYAN_SIMSAN=1 repro storm --jobs 48 --seed 0"),
    (1, "repro storm --jobs 48 --seed 0 --no-hardening"),
    (0, "for seed in 0 1 2 3; do"
        " repro storm --jobs 48 --seed $seed --format json || exit;"
        " repro storm --jobs 48 --seed $seed --no-hardening --format json;"
        " done; true"),
    (0, "repro storm --jobs 24 --no-faults --burst-factor 4"),
    (2, "repro storm --max-shed-fraction nan"),
    (2, "repro storm --burst-factor inf"),
    # perf
    (0, "repro perf src/ examples/"),
    (0, "repro perf --format json src/"),
    (1, "repro perf tests/analysis/fixtures/perf_bad"),
    (1, "repro perf --format json tests/analysis/fixtures/perf_bad"),
    (2, "repro perf no/such/path"),
    (0, "repro perf --list-rules"),
    (2, "repro perf tests/analysis/fixtures/not_utf8"),
    (0, "repro perf --fail-on info --write-baseline {tmp}/perf-baseline.json"
        " tests/analysis/fixtures/perf_bad || true;"
        " repro perf --fail-on info --baseline {tmp}/perf-baseline.json"
        " tests/analysis/fixtures/perf_bad"),
    # fleet
    (0, "repro fleet"),
    (0, "repro fleet --storm --format json"),
    (0, "repro fleet --nodes 200 --gpus-per-node 8 --jobs 60000"
        " --check-parity --policy spread"),
    (0, "repro fleet --nodes 200 --gpus-per-node 8 --jobs 60000"
        " --check-parity --policy pack"),
    (0, "repro fleet --nodes 200 --gpus-per-node 8 --jobs 60000"
        " --check-parity --policy benefit-aware"),
    (0, "repro fleet --ab --check-parity --jobs 8000 --nodes 12"
        " --gpus-per-node 4 --queue-limit 8 --format json"),
    (0, "repro fleet --autoscale --min-nodes 2 --nodes 12 --jobs 20000"
        " --check-parity"),
    (2, "repro fleet --autoscale --min-nodes 2 --nodes 4 --eval-interval nan"),
    (2, "repro fleet --jobs 100000000000000000000 --nodes 3"),
    # race: every scenario
    (0, "repro race src/ examples/"),
    (0, "repro race --list-scenarios"),
    (0, "repro race --dynamic-only --scenario chaos --scenario trace-workload"),
    (1, "repro race --static-only tests/analysis/fixtures/race_bad"),
    (2, "repro race --static-only no/such/path"),
    (2, "repro race --static-only tests/analysis/fixtures/not_utf8"),
    (2, "repro race --permutations 0"),
    (2, "repro race --static-only --dynamic-only"),
    (0, "repro race --dynamic-only --scenario tie-benign"),
    (1, "repro race --dynamic-only --scenario tie-demo --format json"
        " > {tmp}/tie-demo.json;"
        " python -c 'import json; json.dump(json.load(open(\"{tmp}/tie-demo.json\"))"
        "[\"schedules\"][0], open(\"{tmp}/schedule.json\", \"w\"))'"
        " && repro race --schedule {tmp}/schedule.json"),
    # the examples, the paper's figures and the benchmark
    (0, "for example in examples/*.py; do python $example || exit; done"),
    (0, "cp -r benchmarks {tmp}/benchmarks && cd {tmp}"
        " && python -m pytest benchmarks/ -q --benchmark-disable"
        " -p no:cacheprovider"),
    (0, "python bench/run.py --quick --output {tmp}/bench-quick.json"),
    (0, "python bench/run.py --quick --traced --output {tmp}/bench-traced.json"),
)


class Def(NamedTuple):
    """A module, function or class body: one code object."""

    path: str       # relative to the repository root
    line: int       # co_firstlineno: the first decorator's line, if any
    name: str       # co_name
    qualname: str   # CPython's; ``<module>`` for the module itself
    declaration: bool


class Arm(NamedTuple):
    """One way through an ``if`` or a ``try``."""

    path: str
    line: int       # its first statement's, or the ``if``'s with no ``else``
    label: str      # ``qualname:line`` of the code object that holds it
    code: tuple[int, str]    # that code object's ``(line, name)``
    parent: int     # the line of the arm around it in that code, or 0
    lines: tuple[int, int]   # first statement's lines, or the ``if``'s test
    span: tuple[int, int] | None  # the whole ``if`` when it has no ``else``
    exempt: bool    # ends in a refusal, or ``if TYPE_CHECKING:``


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


class Module(NamedTuple):
    path: str
    defs: list[Def]
    arms: list[Arm]
    parameters: list[Parameter]
    calls: list[Call]
    assigned: set[str]   # attribute names it assigns on some object


def _name(func: ast.expr) -> str:
    """The name a call's callee goes by: ``f`` for ``f(...)`` and ``x.f(...)``."""
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _first(node: ast.stmt) -> int:
    return min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])


def _is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise
    NotImplementedError``."""
    def stub(s: ast.stmt) -> bool:
        if isinstance(s, ast.Raise) and s.exc is not None:
            return _name(getattr(s.exc, "func", s.exc)) == "NotImplementedError"
        return isinstance(s, ast.Pass) or isinstance(s, ast.Expr) and isinstance(
            s.value, ast.Constant) and (s.value.value is ... or isinstance(s.value.value, str))
    return all(stub(s) for s in node.body)


def _refuses(body: list[ast.stmt]) -> bool:
    """The block ends in ``raise``, ``return 1`` or ``return 2``."""
    last = body[-1]
    return isinstance(last, ast.Raise) or (
        isinstance(last, ast.Return) and isinstance(last.value, ast.Constant)
        and type(last.value.value) is int and last.value.value in (1, 2))


def _dataclass(node: ast.ClassDef) -> ast.expr | None:
    """The ``@dataclass`` decorator of ``node``, if it has one."""
    return next((deco for deco in node.decorator_list if _name(
        deco.func if isinstance(deco, ast.Call) else deco) == "dataclass"), None)


def _field_keywords(value: ast.expr | None) -> dict[str | None, ast.expr] | None:
    """The keywords of a ``field(...)`` default, or ``None`` for a plain one."""
    return ({k.arg: k.value for k in value.keywords}
            if isinstance(value, ast.Call) and _name(value.func) == "field" else None)


def _fields(node: ast.ClassDef) -> list[tuple[str, int, ast.expr | None]]:
    """``(name, line, default)`` of the init fields a dataclass body declares."""
    return [(s.target.id, s.lineno, s.value) for s in node.body
            if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
            and "ClassVar" not in ast.unparse(s.annotation)
            and getattr((_field_keywords(s.value) or {}).get("init"), "value", None) is not False]


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


def walk(path: Path, root: Path = REPO) -> Module:
    """Parse ``path`` once: its code objects with CPython's qualnames, the
    arms of every ``if`` and ``try``, its defaulted parameters and
    dataclass fields, the calls it makes and the attributes it assigns."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    rel = path.resolve().relative_to(root.resolve()).as_posix()
    module = Module(rel, [Def(rel, 1, "<module>", "<module>", False)], [], [], [], set())
    classes = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}

    def all_fields(node: ast.ClassDef) -> dict[str, tuple[int, ast.expr | None, str]]:
        out: dict[str, tuple[int, ast.expr | None, str]] = {}
        for base in node.bases:
            parent = classes.get(getattr(base, "id", ""))
            if parent is not None and _dataclass(parent) is not None:
                out.update(all_fields(parent))
        out.update({name: (line, value, node.name) for name, line, value in _fields(node)})
        return out

    def arm(block: list[ast.stmt], scope: Def, outer: Arm | None,
            exempt: bool) -> Arm | None:
        """The arm ``block`` opens inside ``outer``; none of its own when it
        starts with an ``if``, taken iff one of that ``if``'s arms is."""
        if isinstance(block[0], ast.If):
            return outer
        first = _first(block[0])
        opened = Arm(rel, first, f"{scope.qualname}:{first}", scope[1:3],
                     outer.line if outer else 0, (first, block[0].end_lineno or first),
                     None, exempt or bool(outer and outer.exempt) or _refuses(block))
        module.arms.append(opened)
        return opened

    def function(node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str,
                 owner: ast.ClassDef | None) -> None:
        args = node.args
        bound = int(owner is not None and not any(
            _name(d) == "staticmethod" for d in node.decorator_list))
        callee = owner.name if node.name == "__init__" and owner is not None else node.name
        positional = args.posonlyargs + args.args
        first_default = len(positional) - len(args.defaults)
        defaulted = [(arg, index - bound) for index, arg in enumerate(positional)
                     if index >= first_default]
        defaulted += [(arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        module.parameters.extend(
            Parameter(rel, arg.lineno, f"{qualname}({arg.arg})", callee, position,
                      arg.arg, False, False) for arg, position in defaulted)

    def visit(node: ast.AST, prefix: str, scope: Def, owner: ast.ClassDef | None,
              in_class: bool, outer: Arm | None) -> None:
        """``scope`` is the code object that runs ``node``, ``owner`` the
        nearest class around it, ``in_class`` whether that class's body is
        ``scope``, and ``outer`` the arm ``node`` sits in."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            is_class = isinstance(node, ast.ClassDef)
            inner = Def(rel, _first(node), node.name, qualname,
                        not is_class and _is_declaration(node))
            module.defs.append(inner)
            if isinstance(node, ast.ClassDef):
                deco = _dataclass(node)
                if deco is not None and not any(
                        isinstance(s, ast.FunctionDef) and s.name == "__init__"
                        for s in node.body):
                    for position, (name, (line, value, origin)) in enumerate(
                            all_fields(node).items()):
                        keywords = _field_keywords(value)
                        if origin == node.name and value is not None and (
                                keywords is None or "default" in keywords):
                            module.parameters.append(Parameter(
                                rel, line, f"{qualname}.{name}", node.name,
                                position, name, True, not (
                                    isinstance(deco, ast.Call) and any(
                                        k.arg == "frozen" and isinstance(k.value, ast.Constant)
                                        and k.value.value for k in deco.keywords))))
                for child in ast.iter_child_nodes(node):
                    visit(child, qualname + ".", inner, node, True, None)
            else:
                function(node, qualname, owner if in_class else None)
                for child in ast.iter_child_nodes(node):
                    visit(child, qualname + ".<locals>.", inner, owner, False, None)
            return
        if isinstance(node, ast.Call):
            module.calls.extend(_call(node, owner))
            if (len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                    and _name(node.func) in ("setattr", "__setattr__")):
                module.assigned.add(node.args[1].value)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            module.assigned.add(node.attr)
        blocks: list[tuple[list[ast.AST], Arm | None]] = []
        if isinstance(node, ast.If):
            exempt = _name(node.test) == "TYPE_CHECKING"
            blocks = [([node.test], outer), (node.body, arm(node.body, scope, outer, exempt))]
            if node.orelse:
                blocks.append((node.orelse, arm(node.orelse, scope, outer, exempt)))
            else:
                test_end = node.test.end_lineno or node.lineno
                module.arms.append(Arm(
                    rel, node.lineno, f"{scope.qualname}:{node.lineno}", scope[1:3],
                    outer.line if outer else 0, (node.lineno, test_end),
                    (node.lineno, node.end_lineno or test_end),
                    exempt or bool(outer and outer.exempt)))
        elif isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            blocks = [(node.body + node.finalbody, outer)]
            blocks += [(handler.body, arm(handler.body, scope, outer, False))
                       for handler in node.handlers]
            if node.orelse:
                blocks.append((node.orelse, arm(node.orelse, scope, outer, False)))
        else:
            blocks = [(list(ast.iter_child_nodes(node)), outer)]
        for children, inside in blocks:
            for child in children:
                visit(child, prefix, scope, owner, in_class, inside)

    for child in tree.body:
        visit(child, "", module.defs[0], None, False, None)
    module.arms.sort(key=lambda a: a.line)
    return module


def walk_tree(top: Path = PACKAGE, root: Path = REPO) -> list[Module]:
    return [walk(path, root) for path in sorted(top.rglob("*.py"))]


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str, str, str]]:
    """``(kind, path, label, reason)`` per row; ``#`` starts a comment."""
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.strip().split(None, 3)
        if fields and not fields[0].startswith("#"):
            if len(fields) < 4:
                raise ValueError(f"{path.name}:{number}: want 'kind path label reason'")
            rows.append((fields[0], fields[1], fields[2], fields[3]))
    return rows


def problems(items: list[tuple[str, int, str]], used: set[tuple[str, str]],
             rows: list[tuple[str, str, str, str]]) -> list[str]:
    """``path:line label`` for each of one level's ``items`` that is neither
    used nor rowed with a known kind, and for each row naming a used one."""
    rowed = {(path, label): kind for kind, path, label, _ in rows}
    lines = []
    for path, line, label in items:
        kind = rowed.get((path, label))
        if (path, label) in used:
            if kind is not None:
                lines.append(f"{path}:{line} {label} (allowlist: now used)")
        elif kind not in KINDS:
            why = "" if kind is None else f" (allowlist: unknown kind {kind!r})"
            lines.append(f"{path}:{line} {label}{why}")
    return lines


def unknown_rows(modules: list[Module], rows: list[tuple[str, str, str, str]]) -> list[str]:
    """A line for each row naming no item of any level."""
    known = {(m.path, label) for m in modules for label in [
        *(d.qualname for d in m.defs if not d.declaration),
        *(a.label for a in m.arms if not a.exempt), *(p.label for p in m.parameters)]}
    return [f"{path}:0 {label} (allowlist: no such item)"
            for _, path, label, _ in rows if (path, label) not in known]


def trace_problems(modules: list[Module], entered: set[tuple[str, int, str]],
                   taken: set[tuple[str, int]],
                   rows: list[tuple[str, str, str, str]]) -> tuple[list[str], str]:
    """The module, function and branch levels: problem lines and a tally."""
    defs = [d for m in modules for d in m.defs if not d.declaration]
    ran = [d for d in defs if (d.path, d.line, d.name) in entered]
    arms = [a for m in modules for a in m.arms
            if not a.exempt and (a.path, *a.code) in entered
            and (not a.parent or (a.path, a.parent) in taken)]
    hit = {(a.path, a.label) for a in arms if (a.path, a.line) in taken}
    lines = problems([(d.path, d.line, d.qualname) for d in defs],
                     {(d.path, d.qualname) for d in ran}, rows)
    lines += problems([(a.path, a.line, a.label) for a in arms], hit, rows)
    modules_ran = sum(d.name == "<module>" for d in ran)
    return lines, (f"{modules_ran} of {len(modules)} modules, "
                   f"{len(ran) - modules_ran} of {len(defs) - len(modules)} functions, "
                   f"{len(hit)} of {len(arms)} arms taken")


def parameter_problems(modules: list[Module],
                       rows: list[tuple[str, str, str, str]]) -> list[str]:
    """The parameter level: a defaulted parameter or dataclass field in
    ``src/repro`` is set when a call in ``modules`` passes it, by keyword
    or position, to a callee of its name (a class's ``__init__`` and
    fields by the class name, ``cls`` or ``super().__init__``; a field
    also by a keyword of ``dataclasses.replace``).  A call with ``*`` or
    ``**`` sets everything.  A mutable dataclass's field that code
    assigns on an instance is state, not a parameter, and is skipped."""
    by_callee: dict[str, list[Call]] = {}
    for call in (c for m in modules for c in m.calls):
        by_callee.setdefault(call.callee, []).append(call)
    state = set().union(*(m.assigned for m in modules))
    found = [p for m in modules if m.path.startswith("src/repro/") for p in m.parameters
             if not (p.mutable and p.name in state)]
    replaced = frozenset().union(*(c.keywords for c in by_callee.get("replace", ())))
    is_set = {(p.path, p.label) for p in found
              if (p.field and p.name in replaced) or any(
                  c.positional == EVERYTHING or p.name in c.keywords
                  or p.position is not None and 0 <= p.position < c.positional
                  for c in by_callee.get(p.callee, ()))}
    return problems([(p.path, p.line, p.label) for p in found], is_set, rows)


def arm_table(modules: list[Module], root: Path = REPO) -> dict:
    """What :func:`_tracer` watches: ``{file: {"line name": [[arm, lo, hi,
    start, end], ...]}}`` for every code object, with its arms that count."""
    table: dict[str, dict[str, list[list[int]]]] = {}
    for m in modules:
        codes = table[str((root / m.path).resolve())] = {
            f"{d.line} {d.name}": [] for d in m.defs}
        for a in m.arms:
            if not a.exempt:
                codes[f"{a.code[0]} {a.code[1]}"].append(
                    [a.line, *a.lines, *(a.span or (0, 0))])
    return table


def _tracer(table):
    """``(trace, dump)``: ``trace`` records each code object of ``table``
    (:func:`arm_table`) called and each arm it takes: a line in ``lo..hi``
    ran, or, with a span, an arc left ``lo..hi`` for a line outside
    ``start..end`` or returned (an arc after an exception starts nowhere).
    It looks only at lines of arms not yet taken, and a code object that
    took them all is traced no more.  ``dump(path)`` writes a row per code
    object: file, first line, name, arms taken."""
    import os

    codes = {}

    def watch(code):
        file = os.path.realpath(code.co_filename)
        arms = table.get(file, {}).get(f"{code.co_firstlineno} {code.co_name}")
        if arms is None:
            return (code,)
        entries, falls = {}, {}
        for arm, lo, hi, start, end in arms:
            for line in range(lo, hi + 1):
                if start:
                    falls.setdefault(line, []).append((arm, start, end))
                else:
                    entries.setdefault(line, []).append(arm)
        return code, file, arms, {arm[0] for arm in arms}, entries, falls, set(
            entries) | set(falls)

    def step(state, last, line, event):
        pending, entries, falls, lines = state[3:]
        before = len(pending)
        if event == "line":
            pending.difference_update(entries.get(line, ()))
        for arm, start, end in falls.get(last, ()):
            if event == "return" or event == "line" and not start <= line <= end:
                pending.discard(arm)
        if len(pending) < before:
            lines.clear()
            lines.update(line for line, arms in entries.items() if pending.intersection(arms))
            lines.update(line for line, arms in falls.items()
                         if pending.intersection(arm for arm, _, _ in arms))

    def trace(frame, event, arg):
        code = frame.f_code
        state = codes.get(id(code))
        if state is None:
            state = codes[id(code)] = watch(code)
        if len(state) == 1 or not state[3]:
            return None
        lines = state[6]
        last = 0

        def local(frame, event, arg):
            nonlocal last
            line = frame.f_lineno
            if last in lines or line in lines or event != "line":
                step(state, last, line, event)
                if not state[3]:
                    return None
                if event == "exception":
                    line = 0
            last = line
            return local
        return local

    def dump(path):
        rows = [f"{state[1]}\t{state[0].co_firstlineno}\t{state[0].co_name}\t"
                + " ".join(str(arm[0]) for arm in state[2] if arm[0] not in state[3])
                + "\n" for state in list(codes.values()) if len(state) > 1]
        with open(path, "a") as fh:
            fh.write("".join(rows))

    return trace, dump


_INSTALL = """
import atexit, json, os, sys, threading
with open({table!r}) as fh:
    trace, dump = _tracer(json.load(fh))
atexit.register(lambda: (sys.settrace(None), dump(os.path.join(
    os.environ["REACH_TRACES"], f"{{os.getpid()}}.tsv"))))
sys.settrace(trace)
threading.settrace(trace)
"""


def read_trace(directory: Path, root: Path = REPO) -> tuple[
        set[tuple[str, int, str]], set[tuple[str, int]]]:
    """``(path, line, name)`` of every code object called, and ``(path,
    line)`` of every arm taken."""
    entered, taken = set(), set()
    for dump in directory.rglob("*.tsv"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            filename, line, name, arms = row.split("\t")
            relative = Path(filename).relative_to(root.resolve()).as_posix()
            entered.add((relative, int(line), name))
            taken.update((relative, int(arm)) for arm in arms.split())
    return entered, taken


def run() -> int:
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        tmp = Path(scratch)
        traces, hook, bin_dir = tmp / "traces", tmp / "hook", tmp / "bin"
        for directory in (traces, hook, bin_dir):
            directory.mkdir()
        for name, tail in (("python", '"$@"'), ("repro", '-m repro "$@"')):
            # ``python`` and ``repro`` on ``PATH``, both this interpreter
            (bin_dir / name).write_text(f'#!/bin/sh\nexec "{sys.executable}" {tail}\n')
            (bin_dir / name).chmod(0o755)
        modules = walk_tree()
        (hook / "table.json").write_text(json.dumps(arm_table(modules)))
        (hook / "sitecustomize.py").write_text(
            inspect.getsource(_tracer) + _INSTALL.format(table=str(hook / "table.json")))
        env = dict(os.environ)
        env.pop("GYAN_SIMSAN", None)
        env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")

        def one(index: int) -> tuple[str, str | None]:
            expected, command = COMMANDS[index]
            (traces / str(index)).mkdir()
            started = time.perf_counter()
            done = subprocess.run(
                command.format(tmp=tmp), shell=True, cwd=REPO,
                env=dict(env, REACH_TRACES=str(traces / str(index))),
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            error = (f"exit {done.returncode}, expected {expected}"
                     if done.returncode != expected else "printed a traceback"
                     if "Traceback (most recent call last)" in done.stderr else None)
            return (f"{time.perf_counter() - started:6.1f} s  {command}",
                    error and f"{command}: {error}\n{done.stderr[-2000:]}")

        started = time.perf_counter()
        failed = 0
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for line, error in pool.map(one, range(len(COMMANDS))):
                print(line, flush=True)
                if error is not None:
                    failed += 1
                    print(f"  FAILED: {error}", file=sys.stderr, flush=True)
        entered, taken = read_trace(traces)
    rows = read_allowlist()
    lines, tally = trace_problems(modules, entered, taken, rows)
    lines += unknown_rows(modules, rows)
    print(f"{len(COMMANDS)} commands in {time.perf_counter() - started:.0f} s; {tally}")
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} item(s) to delete, or allowlist with a kind "
              f"({', '.join(KINDS)}) in {ALLOWLIST.relative_to(REPO)}",
              file=sys.stderr)
    if failed:
        print(f"{failed} command(s) failed", file=sys.stderr)
    return 1 if lines or failed else 0


if __name__ == "__main__":
    raise SystemExit(run())
