"""The parameter level's allowlist rows (``tests/reach.py``) on
``tests/test_reach.py``'s synthetic module."""

from __future__ import annotations

from tests import reach
from tests.test_reach import _parameters


def test_rows_must_name_an_unset_parameter(tmp_path):
    modules = _parameters(tmp_path)
    rows = [("seam", "src/repro/mod.py", "plain(b)", "kept"),
            ("nope", "src/repro/mod.py", "plain(c)", "bad kind"),
            ("seam", "src/repro/mod.py", "plain(d)", "gone")]
    assert reach.parameter_problems(modules, rows)[:2] == [
        "src/repro/mod.py:3 plain(b) (allowlist: now used)",
        "src/repro/mod.py:3 plain(c) (allowlist: unknown kind 'nope')",
    ]
    assert reach.unknown_rows(modules, rows) == [
        "src/repro/mod.py:0 plain(d) (allowlist: no such item)"]
