"""The function-level entry sweep's logic, checked without running it.

``tests/entry_sweep.py`` runs every entry command under a tracer (about
90 s on two cores, CI's ``entry-sweep`` job); these tests pin what it
counts, what it skips and what its command list and allowlist hold.
"""

from __future__ import annotations

from repro.cli import _COMMANDS
from repro.gpusim.faults import SCENARIOS
from tests import entry_sweep

SYNTHETIC = '''\
"""A module with one entered function, one idle one and stubs."""
from typing import Protocol


class Probe(Protocol):
    def read(self) -> int:
        ...


def used():
    return 1


def idle():
    return 2


def abstract():
    """Subclasses say."""
    raise NotImplementedError


class Holder:
    @property
    def value(self):
        def inner():
            return 3
        return inner()
'''


def _synthetic(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SYNTHETIC)
    return entry_sweep.functions(path, root=tmp_path)


def _by_name(found):
    return {f.qualname: f for f in found}


def test_the_enumerator_walks_functions_and_class_bodies(tmp_path):
    found = _by_name(_synthetic(tmp_path))
    assert sorted(found) == [
        "Holder", "Holder.value", "Holder.value.<locals>.inner", "Probe",
        "Probe.read", "abstract", "idle", "used",
    ]
    assert found["Holder.value"].line == 24  # the decorator's line
    assert {q for q, f in found.items() if f.declaration} == {
        "Probe.read", "abstract",
    }


def test_only_the_idle_function_is_flagged(tmp_path):
    found = _synthetic(tmp_path)
    entered = {
        (f.path, f.line, f.name) for f in found
        if f.qualname not in ("idle", "Probe.read", "abstract")
    }
    assert entry_sweep.problems(found, entered, []) == ["mod.py:14 idle"]


def test_allowlist_rows_cover_and_go_stale(tmp_path):
    found = _synthetic(tmp_path)
    entered = {(f.path, f.line, f.name) for f in found if f.qualname != "idle"}
    assert entry_sweep.problems(
        found, entered, [("seam", "mod.py", "idle", "kept")]
    ) == []
    assert entry_sweep.problems(
        found, entered | {("mod.py", 14, "idle")},
        [("seam", "mod.py", "idle", "kept"),
         ("paper", "mod.py", "gone", "deleted")],
    ) == [
        "mod.py:0 idle (allowlist: now runs)",
        "mod.py:0 gone (allowlist: no such function)",
    ]
    assert entry_sweep.problems(
        found, entered, [("other", "mod.py", "idle", "kept")]
    ) == ["mod.py:14 idle", "mod.py:0 idle (allowlist: unknown kind 'other')"]


def test_every_allowlist_row_names_a_function_with_a_kind():
    rows = entry_sweep.read_allowlist()
    assert rows
    known = {
        (f.path, f.qualname)
        for path in sorted(entry_sweep.PACKAGE.rglob("*.py"))
        for f in entry_sweep.functions(path)
        if not f.declaration
    }
    for kind, path, qualname, reason in rows:
        assert kind in entry_sweep.KINDS, (path, qualname)
        assert (path, qualname) in known, (path, qualname)
        assert reason.strip()
    pairs = [(path, qualname) for _, path, qualname, _ in rows]
    assert len(pairs) == len(set(pairs))


def test_every_verb_and_chaos_scenario_has_a_command():
    commands = [command for _, command in entry_sweep.COMMANDS]
    for verb in _COMMANDS:
        assert any(f"repro {verb}" in command for command in commands), verb
    for scenario in SCENARIOS:
        assert any(
            f"faults --scenario {scenario}" in command for command in commands
        ), scenario
