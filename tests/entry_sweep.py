"""Function-level entry sweep: every function in ``src/repro`` must run
under some entry point, or be named in ``tests/entry_allowlist.txt``.

Usage::

    python tests/entry_sweep.py

The sweep runs :data:`COMMANDS` (the CLI verbs in their CI shapes, every
chaos and race scenario, the examples, ``pytest benchmarks/`` and
``bench/run.py --quick``, plain and traced) in subprocesses.  A
temporary ``sitecustomize.py`` on ``PYTHONPATH`` installs a call-only
``sys.settrace`` / ``threading.settrace`` tracer in every Python process
they start, the bench children included, and writes the code objects
each one entered.  The sweep then compiles every ``src/repro`` module,
walks its function and class-body code objects, and exits 1 printing
``path:line qualname`` for

- a function that ran in no command and has no allowlist row, and
- an allowlist row whose function now runs or no longer exists.

A declaration is never flagged: a body holding only a docstring,
``...``, ``pass`` or ``raise NotImplementedError`` (protocol and
abstract stubs).  Lambdas and comprehensions are part of the function
that holds them.  Each allowlist row is ``kind path qualname reason``,
with ``kind`` one of :data:`KINDS`.

Everything the commands write goes to a temporary directory; nothing in
the checkout changes.  Only the standard library is used.  The module
is a script, not a test file, so pytest does not collect it;
``tests/test_entry_sweep.py`` checks its logic without running it.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import CodeType
from typing import NamedTuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).with_name("entry_allowlist.txt")
#: Commands run at once: two, or one on a single core.
WORKERS = min(2, os.cpu_count() or 1)

#: Why a function no entry point runs may stay.
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
    (0, "repro racon --workload dataset --allocation utilization"),
    (0, "repro bonito"),
    (0, "repro bonito --workload unit --allocation memory"),
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
    (0, "repro trace --jobs 12 --policy wait --allocation memory --format json"),
    (0, "GYAN_SIMSAN=1 repro trace --jobs 6 --seed 11"),
    (2, "repro trace --jobs 0"),
    (2, "repro trace --interarrival nan"),
    (2, "repro trace --jobs 2 --interarrival 1e17"),
    (1, "repro trace --jobs 200"),
    # lint
    (0, "repro lint examples/ src/"),
    (0, "repro lint --list-rules"),
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
    # race: every scenario
    (0, "repro race src/ examples/"),
    (0, "repro race --list-scenarios"),
    (0, "repro race --dynamic-only --scenario chaos --scenario trace-workload"),
    (1, "repro race --static-only tests/analysis/fixtures/race_bad"),
    (2, "repro race --static-only no/such/path"),
    (2, "repro race --static-only tests/analysis/fixtures/not_utf8"),
    (2, "repro race --permutations 0"),
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

_SITECUSTOMIZE = '''\
import atexit, os, sys, threading

_codes = {}


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) not in _codes:
        _codes[id(code)] = code
    return None


def _dump():
    sys.settrace(None)
    rows = {f"{os.path.realpath(code.co_filename)}\\t{code.co_firstlineno}"
            f"\\t{code.co_name}" for code in list(_codes.values())}
    prefix = %(prefix)r
    rows = sorted(row for row in rows if row.startswith(prefix))
    with open(os.path.join(%(out)r, f"{os.getpid()}.tsv"), "a") as fh:
        fh.write("".join(row + "\\n" for row in rows))


atexit.register(_dump)
sys.settrace(_trace)
threading.settrace(_trace)
'''


class Function(NamedTuple):
    """A function or class-body code object of a source file."""

    path: str       # relative to the repository root
    line: int       # co_firstlineno: the first decorator's line, if any
    name: str       # co_name
    qualname: str
    declaration: bool


def _is_declaration(node: ast.AST) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise
    NotImplementedError``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(
            statement.value, ast.Constant
        ) and (statement.value.value is ... or isinstance(statement.value.value, str)):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc.func if isinstance(statement.exc, ast.Call) \
                else statement.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def functions(path: Path, root: Path = REPO) -> list[Function]:
    """Every function and class body of ``path``, in source order.

    Qualified names are derived from the code-object tree as CPython
    derives them, so the walk needs no ``co_qualname`` (Python 3.11+).
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, str(path))
    declarations = {
        (min([node.lineno, *(d.lineno for d in node.decorator_list)]), node.name)
        for node in ast.walk(tree) if _is_declaration(node)
    }
    relative = path.resolve().relative_to(root.resolve()).as_posix()
    found: list[Function] = []

    def walk(code: CodeType, prefix: str) -> None:
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            key = (const.co_firstlineno, const.co_name)
            found.append(Function(relative, key[0], key[1], qualname,
                                  key in declarations))
            is_function = const.co_flags & 0x1  # CO_OPTIMIZED: not a class body
            walk(const, qualname + (".<locals>." if is_function else "."))

    walk(compile(tree, str(path), "exec"), "")
    return sorted(found, key=lambda f: (f.line, f.qualname))


def read_allowlist(path: Path = ALLOWLIST) -> list[tuple[str, str, str, str]]:
    """``(kind, path, qualname, reason)`` per row; ``#`` starts a comment."""
    rows = []
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(None, 3)
        if len(fields) < 4:
            raise ValueError(f"{path.name}:{number}: want 'kind path qualname reason'")
        rows.append((fields[0], fields[1], fields[2], fields[3]))
    return rows


def problems(found: list[Function], entered: set[tuple[str, int, str]],
             allowlist: list[tuple[str, str, str, str]]) -> list[str]:
    """``path:line qualname`` lines: un-entered functions no row names,
    then rows that name nothing un-entered."""
    idle = [f for f in found
            if not f.declaration and (f.path, f.line, f.name) not in entered]
    allowed = {(path, qualname) for kind, path, qualname, _ in allowlist
               if kind in KINDS}
    lines = [f"{f.path}:{f.line} {f.qualname}" for f in idle
             if (f.path, f.qualname) not in allowed]
    idle_names = {(f.path, f.qualname) for f in idle}
    for kind, path, qualname, _ in allowlist:
        if kind not in KINDS:
            lines.append(f"{path}:0 {qualname} (allowlist: unknown kind {kind!r})")
        elif (path, qualname) not in idle_names:
            exists = any((f.path, f.qualname) == (path, qualname) for f in found)
            why = "now runs" if exists else "no such function"
            lines.append(f"{path}:0 {qualname} (allowlist: {why})")
    return lines


def read_entered(directory: Path, root: Path = REPO) -> set[tuple[str, int, str]]:
    """``(path, line, name)`` of every code object the tracer saw."""
    entered = set()
    for dump in directory.glob("*.tsv"):
        for row in dump.read_text(encoding="utf-8").splitlines():
            filename, line, name = row.split("\t")
            relative = Path(filename).relative_to(root.resolve()).as_posix()
            entered.add((relative, int(line), name))
    return entered


def _shims(bin_dir: Path) -> None:
    """``python`` and ``repro`` on ``PATH``, both this interpreter."""
    bin_dir.mkdir()
    for name, tail in (("python", '"$@"'), ("repro", '-m repro "$@"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {tail}\n')
        shim.chmod(0o755)


def run() -> int:
    with tempfile.TemporaryDirectory(prefix="entry-sweep-") as scratch:
        tmp = Path(scratch)
        traces = tmp / "traces"
        hook = tmp / "hook"
        traces.mkdir()
        hook.mkdir()
        (hook / "sitecustomize.py").write_text(_SITECUSTOMIZE % {
            "prefix": str(PACKAGE.resolve()) + os.sep, "out": str(traces)})
        _shims(tmp / "bin")
        env = dict(os.environ)
        env.pop("GYAN_SIMSAN", None)
        env["PATH"] = f"{tmp / 'bin'}{os.pathsep}{env.get('PATH', '')}"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook), str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        env["PYTHONPYCACHEPREFIX"] = str(tmp / "pycache")

        def one(entry: tuple[int, str]) -> tuple[str, str | None]:
            expected, command = entry
            started = time.perf_counter()
            done = subprocess.run(
                command.format(tmp=tmp), shell=True, cwd=REPO, env=env,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            )
            took = time.perf_counter() - started
            error = None
            if done.returncode != expected:
                error = f"exit {done.returncode}, expected {expected}"
            elif "Traceback (most recent call last)" in done.stderr:
                error = "printed a traceback"
            if error is not None:
                error = f"{command}: {error}\n{done.stderr[-2000:]}"
            return f"{took:6.1f} s  {command}", error

        started = time.perf_counter()
        failed = 0
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            for line, error in pool.map(one, COMMANDS):
                print(line, flush=True)
                if error is not None:
                    failed += 1
                    print(f"  FAILED: {error}", file=sys.stderr, flush=True)
        entered = read_entered(traces)
    found = [f for path in sorted(PACKAGE.rglob("*.py")) for f in functions(path)]
    lines = problems(found, entered, read_allowlist())
    counted = [f for f in found if not f.declaration]
    ran = sum((f.path, f.line, f.name) in entered for f in counted)
    print(f"{len(COMMANDS)} commands in {time.perf_counter() - started:.0f} s; "
          f"entered {ran} of {len(counted)} functions "
          f"({len(found) - len(counted)} declarations skipped)")
    for line in lines:
        print(line)
    if lines:
        print(f"{len(lines)} function(s) to delete, or allowlist with a kind "
              f"({', '.join(KINDS)}) in {ALLOWLIST.relative_to(REPO)}",
              file=sys.stderr)
    if failed:
        print(f"{failed} command(s) failed", file=sys.stderr)
    return 1 if lines or failed else 0


if __name__ == "__main__":
    raise SystemExit(run())
