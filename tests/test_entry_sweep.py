"""The function level of the reachability guard (``tests/reach.py``, CI's
``entry-sweep`` job) and its allowlist rows, on ``tests/test_reach.py``'s
synthetic module."""

from __future__ import annotations

from tests import reach
from tests.test_reach import _trace, _walk


def test_only_the_idle_function_is_flagged(tmp_path):
    module = _walk(tmp_path)
    entered = {(d.path, d.line, d.name) for d in module.defs if d.qualname != "idle"}
    taken = {(a.path, a.line) for a in module.arms}
    assert reach.trace_problems([module], entered, taken, []) == (
        ["mod.py:14 idle"], "1 of 1 modules, 11 of 12 functions, 14 of 14 arms taken")


def test_allowlist_rows_cover_and_go_stale(tmp_path):
    module, entered, taken = _trace(tmp_path)
    rows = [("seam", "mod.py", "idle", "kept"), ("defensive", "mod.py", "chain:46", "x"),
            ("seam", "mod.py", "used", "stale"), ("nope", "mod.py", "tail:37", "bad kind")]
    assert reach.trace_problems([module], entered, taken, rows)[0] == [
        "mod.py:11 used (allowlist: now used)",
        "mod.py:32 loop:32",
        "mod.py:37 tail:37 (allowlist: unknown kind 'nope')",
        "mod.py:49 spanning:49",
        "mod.py:60 guarded:60",
    ]
    assert reach.unknown_rows([module], rows + [("seam", "mod.py", "abstract", "x")]) == [
        "mod.py:0 abstract (allowlist: no such item)"]
