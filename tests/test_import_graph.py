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

#: What only the executors' ``payload`` mode runs: the real algorithms.
#: No paper verb runs that mode, and none of them calls NumPy
#: (``docs/performance.md``, "Start-up").
_RACON_PAYLOAD = (
    "repro.tools.racon.poa", "repro.tools.racon.alignment",
    "repro.tools.racon.consensus", "repro.tools.racon.cuda",
    "repro.tools.seqio.records",
)
_PAYLOAD_ONLY = (
    *_RACON_PAYLOAD, "repro.tools.bonito.basecaller",
    "repro.tools.bonito.model", "repro.tools.bonito.signal",
)
_PAPER_VERB_STRANGERS = (*_OBJECT_VERB_STRANGERS, "numpy", *_PAYLOAD_ONLY)

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
    ("racon", _main("racon"), None, _PAPER_VERB_STRANGERS),
    ("info", _main("info"), None, _PAPER_VERB_STRANGERS),
    ("racon-dataset-container",
     _main("racon", "--workload", "dataset", "--container"), None,
     _PAPER_VERB_STRANGERS),
    ("bonito", _main("bonito"), None, _PAPER_VERB_STRANGERS),
    ("cases", _main("cases"), None, _PAPER_VERB_STRANGERS),
    ("smi-demo", _main("smi", "--demo"), None, _PAPER_VERB_STRANGERS),
    ("experiment-all", _main("experiment", "all"), None, _PAPER_VERB_STRANGERS),
    ("verify-examples", _main("verify", "examples", "--no-model-check"), None,
     ("numpy", *_PAYLOAD_ONLY)),
    ("faults-nvml-flaky",
     _main("faults", "--scenario", "nvml-flaky", "--jobs", "3"), None,
     _PAPER_VERB_STRANGERS),
]

#: A Racon job in ``payload`` mode on a miniature read set: the one path
#: that runs the real polishing algorithms, so it loads them.
PAYLOAD_RACON = """\
from repro import build_deployment, register_paper_tools
from repro.tools.mapping import MinimizerMapper
from repro.workloads.generator import corrupted_backbone, simulate_read_set
read_set = simulate_read_set(genome_length=600, coverage=6, mean_read_length=200, seed=1)
draft = corrupted_backbone(read_set, seed=2)
mappings = MinimizerMapper(draft, k=13, w=5).map_reads(read_set.records)
deployment = build_deployment()
register_paper_tools(deployment.app)
payload = {"backbone": draft, "reads": read_set.records, "mappings": mappings}
job = deployment.run_tool("racon", {"workload": "payload", "payload": payload})
assert job.metrics.gpu_ids == ["0"], job.metrics.gpu_ids
"""


def _modules_after(statement: str) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k != "GYAN_SIMSAN"}
    env["PYTHONPATH"] = str(SRC)
    done = subprocess.run(
        [sys.executable, "-c",
         CHILD.format(statement=statement.strip().replace("\n", "\n    "))],
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


def test_payload_racon_loads_the_algorithms():
    modules = set(_modules_after(PAYLOAD_RACON))
    assert [m for m in ("numpy", *_RACON_PAYLOAD) if m not in modules] == []


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


class TestQuickStartNames:
    """``repro`` re-exports three names, lazily, and nothing else does."""

    def test_resolve_to_the_defining_modules(self):
        import repro
        import repro.core.orchestrator as orchestrator
        import repro.tools.executors as executors

        assert repro.build_deployment is orchestrator.build_deployment
        assert repro.GyanDeployment is orchestrator.GyanDeployment
        assert repro.register_paper_tools is executors.register_paper_tools

    def test_all_and_star_import(self):
        import repro

        names = ["GyanDeployment", "__version__", "build_deployment",
                 "register_paper_tools"]
        assert sorted(repro.__all__) == names
        bound: dict = {}
        exec("from repro import *", bound)
        assert all(bound[name] is getattr(repro, name) for name in names)

    def test_unknown_name_is_the_standard_attribute_error(self):
        import repro

        with pytest.raises(AttributeError) as raised:
            repro.nosuch
        assert str(raised.value) == "module 'repro' has no attribute 'nosuch'"
