"""The reachability guard (``tests/reach.py``, CI's ``entry-sweep`` job):
its walker and tracer on synthetic modules, and the parameter level and
the allowlist's rows on this checkout."""

from __future__ import annotations

import importlib.util
import sys

from repro.cli import _COMMANDS
from repro.gpusim.faults import SCENARIOS
from tests import reach

SYNTHETIC = '''\
"""A module holding every case the walker tells apart."""
from typing import TYPE_CHECKING, Protocol

if TYPE_CHECKING:
    from typing import Any

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

def loop(items):
    total = 0
    for item in items:
        total += item
        if item > 1:
            total += 1
    return total

def tail(flag):
    if flag:
        print(flag)

def chain(x):
    if x == 1:
        return "one"
    elif x == 2:
        return "two"
    else:
        return "many"

def spanning(a, b):
    if (a
            and b):
        return "both"
    return "not both"

def guarded(x):
    try:
        y = int(x)
    except ValueError:
        return None
    except TypeError:
        return -1
    else:
        y += 1
    return y

def refuse(x):
    if x < 0:
        raise ValueError(x)
    if x > 9:
        return 2
    return x
'''


def _walk(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(SYNTHETIC)
    return reach.walk(path, root=tmp_path)


def test_the_walker_finds_code_objects_with_their_qualnames(tmp_path):
    found = {d.qualname: d for d in _walk(tmp_path).defs}
    assert sorted(found) == [
        "<module>", "Holder", "Holder.value", "Holder.value.<locals>.inner",
        "Probe", "Probe.read", "abstract", "chain", "guarded", "idle", "loop",
        "refuse", "spanning", "tail", "used",
    ]
    assert found["Holder.value"].line == 22  # the decorator's line
    assert {q for q, d in found.items() if d.declaration} == {"Probe.read", "abstract"}


def test_the_walker_finds_every_arm(tmp_path):
    arms = {a.label: a for a in _walk(tmp_path).arms}
    assert sorted(arms, key=lambda label: arms[label].line) == [
        "<module>:4", "<module>:5",           # if TYPE_CHECKING: fall-through, body
        "loop:32", "loop:33",                 # last in a loop
        "tail:37", "tail:38",                 # last in a function
        "chain:42", "chain:44", "chain:46",   # an elif holds the else's arms
        "spanning:49", "spanning:51",         # a test on two lines
        "guarded:58", "guarded:60", "guarded:62",   # except, except, try-else
        "refuse:66", "refuse:67", "refuse:68", "refuse:69",
    ]
    assert {label for label, a in arms.items() if a.exempt} == {
        "<module>:4", "<module>:5", "refuse:67", "refuse:69"}
    assert arms["spanning:49"].lines == (49, 50)
    assert arms["spanning:49"].span == (49, 51)


def _trace(tmp_path):
    """The walked synthetic module and what one traced run of it entered and took."""
    module = _walk(tmp_path)
    trace, dump = reach._tracer(reach.arm_table([module], root=tmp_path))
    spec = importlib.util.spec_from_file_location("reach_synthetic", tmp_path / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        spec.loader.exec_module(mod)
        mod.used()
        assert mod.Holder().value == 3
        mod.loop([2, 3])
        mod.tail(True)
        mod.chain(1), mod.chain(2)
        mod.spanning(1, 1)
        mod.guarded("x"), mod.guarded("1")
        mod.refuse(5)
    finally:
        sys.settrace(previous)
    (tmp_path / "trace").mkdir()
    dump(tmp_path / "trace" / "1.tsv")
    return (module, *reach.read_trace(tmp_path / "trace", root=tmp_path))


def test_one_trace_feeds_the_module_function_and_branch_levels(tmp_path):
    module, entered, taken = _trace(tmp_path)
    lines, tally = reach.trace_problems([module], entered, taken, [])
    assert lines == [
        "mod.py:14 idle",
        "mod.py:32 loop:32",        # the loop's last if never fell through
        "mod.py:37 tail:37",        # nor did the function's last one
        "mod.py:46 chain:46",
        "mod.py:49 spanning:49",    # an arc inside the test is no fall-through
        "mod.py:60 guarded:60",
    ]
    assert tally == "1 of 1 modules, 11 of 12 functions, 9 of 14 arms taken"


PARAMETERS = '''\
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


def _parameters(tmp_path):
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(PARAMETERS)
    return reach.walk_tree(package, root=tmp_path)


def test_the_parameter_level_matches_callees_by_name_and_position(tmp_path):
    modules = _parameters(tmp_path)
    assert {p.label for p in modules[0].parameters} == {
        "plain(b)", "plain(c)", "Holder.__init__(y)", "Holder.__init__(z)",
        "Holder.method(p)", "Holder.method(q)", "Holder.make(w)",
        "Child.__init__(spread)", "Config.size", "Config.name", "Config.mode",
        "Tally.count", "Limits.count",
    }
    assert [line.split()[1] for line in reach.parameter_problems(modules, [])] == [
        "plain(c)", "Holder.method(p)", "Child.__init__(spread)", "Config.name",
        "Limits.count",
    ]


def test_every_parameter_has_a_caller_or_a_row():
    modules = [m for top in reach.SETTERS for m in reach.walk_tree(reach.REPO / top)]
    lines = reach.parameter_problems(modules, reach.read_allowlist())
    assert not lines, (
        "a parameter no call in src/, bench/, benchmarks/ or examples/ sets is a "
        "constant: inline it, or give it a row (kind path label reason) in "
        f"{reach.ALLOWLIST.relative_to(reach.REPO)}\n" + "\n".join(lines))


def test_every_allowlist_row_names_an_item_with_a_kind():
    rows = reach.read_allowlist()
    assert reach.unknown_rows(reach.walk_tree(), rows) == []
    assert all(kind in reach.KINDS and reason.strip() for kind, _, _, reason in rows)
    pairs = [(path, label) for _, path, label, _ in rows]
    assert len(pairs) == len(set(pairs))


def test_every_verb_and_chaos_scenario_has_a_command():
    commands = " ".join(command for _, command in reach.COMMANDS)
    assert [verb for verb in _COMMANDS if f"repro {verb}" not in commands] == []
    assert [name for name in SCENARIOS if f"faults --scenario {name}" not in commands] == []
