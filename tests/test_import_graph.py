"""What importing the package and running each command loads.

A package ``__init__`` imports nothing and every command imports only
the tier it runs (``docs/performance.md``, "Start-up").  Each row below
runs one statement in a fresh interpreter — ``GYAN_SIMSAN`` removed from
its environment, as ``bench/child.py`` runs the program — and reads back
``sorted(sys.modules)``; the last tests pin the one lazy surface, the
three quick-start names ``repro`` resolves through its ``__getattr__``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

CHILD = """\
import contextlib, io, json, sys
with contextlib.redirect_stdout(io.StringIO()):
    {statement}
print(json.dumps(sorted(sys.modules)))
"""


def _main(*argv: str) -> str:
    return f"import repro.cli; assert repro.cli.main({list(argv)!r}) == 0"


_OBJECT_VERB_STRANGERS = (
    "repro.cluster.fleet", "repro.cluster.fleet_reference", "repro.analysis",
    "urllib.request",
)

#: (id, statement, the exact ``repro*`` modules it may load or None for
#: any, module trees it must not load).
ROWS = [
    ("import-repro", "import repro; repro.__version__", ["repro"], ("numpy",)),
    ("import-cli", "import repro.cli", ["repro", "repro.cli"], ("numpy",)),
    ("fleet",
     _main("fleet", "--nodes", "10", "--jobs", "1000", "--format", "json"),
     None,
     ("repro.galaxy", "repro.gpusim", "repro.tools", "repro.core",
      "repro.containers", "repro.analysis", "urllib.request", "http.client",
      "email")),
    ("lint", _main("lint", "examples/configs"), None,
     ("numpy", "repro.tools", "repro.cluster.fleet")),
    ("perf", _main("perf", "src/repro/hotpath.py"), None,
     ("numpy", "repro.cluster")),
    ("racon", _main("racon"), None, _OBJECT_VERB_STRANGERS),
    ("info", _main("info"), None, _OBJECT_VERB_STRANGERS),
]


def _modules_after(statement: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "GYAN_SIMSAN"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c", CHILD.format(statement=statement)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "statement, repro_modules, forbidden",
    [pytest.param(*row[1:], id=row[0]) for row in ROWS],
)
def test_loads_only_its_tier(statement, repro_modules, forbidden):
    modules = _modules_after(statement)
    if repro_modules is not None:
        assert [m for m in modules if m.split(".")[0] == "repro"] == repro_modules
    strangers = [
        m for m in modules
        if any(m == tree or m.startswith(tree + ".") for tree in forbidden)
    ]
    assert strangers == []


def test_no_package_init_imports_repro():
    offenders = []
    inits = sorted((SRC / "repro").rglob("__init__.py"))
    assert inits
    for path in inits:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["repro" if node.level else node.module]
            else:
                continue
            if any(name.split(".")[0] == "repro" for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def _module_names() -> dict[str, Path]:
    """Every module under ``src/repro``, by dotted name."""
    modules = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _imported_by(path: Path, name: str | None, known) -> set[str]:
    """The known modules ``path`` imports anywhere in its body.

    ``name`` is the file's dotted module name (None for a script), which
    resolves its relative imports; importing ``a.b.c`` also loads the
    packages ``a`` and ``a.b``.
    """
    package = None
    if name is not None:
        package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if package is None:
                    continue
                base = package.rsplit(".", node.level - 1)[0]
                module = f"{base}.{node.module}" if node.module else base
            else:
                module = node.module
            targets = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            found.update(
                prefix for i in range(1, len(parts) + 1)
                if (prefix := ".".join(parts[:i])) in known
            )
    return found


def test_every_module_has_an_entry_point():
    """Each module is reached from the CLI, the quick-start names, a
    paper figure or ablation (``benchmarks/``), a bench workload
    (``bench/``) or an example — never by its own tests alone."""
    import repro

    known = _module_names()
    scripts = [
        path for tree in ("benchmarks", "bench", "examples")
        for path in (REPO_ROOT / tree).rglob("*.py")
    ]
    reached = {"repro"}
    todo = ["repro.cli", "repro.__main__", *repro._DEFINED_IN.values()]
    for path in scripts:
        todo.extend(_imported_by(path, None, known))
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        todo.extend(_imported_by(known[name], name, known))
    assert sorted(set(known) - reached) == []


class TestQuickStartNames:
    """``repro`` re-exports three names, lazily, and nothing else does."""

    def test_resolve_to_the_defining_modules(self):
        import repro
        import repro.core.orchestrator as orchestrator
        import repro.tools.executors as executors

        assert repro.build_deployment is orchestrator.build_deployment
        assert repro.GyanDeployment is orchestrator.GyanDeployment
        assert repro.register_paper_tools is executors.register_paper_tools

    def test_all_dir_and_star_import(self):
        import repro

        names = ["GyanDeployment", "__version__", "build_deployment",
                 "register_paper_tools"]
        assert sorted(repro.__all__) == names
        assert set(names) <= set(dir(repro))
        bound: dict = {}
        exec("from repro import *", bound)
        assert all(bound[name] is getattr(repro, name) for name in names)

    def test_unknown_name_is_the_standard_attribute_error(self):
        import repro

        with pytest.raises(AttributeError) as raised:
            repro.nosuch
        assert str(raised.value) == "module 'repro' has no attribute 'nosuch'"
