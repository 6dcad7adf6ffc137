"""AST source rules: wall-clock discipline and NVML lifecycle."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.source_rules import analyze_source_tree, is_virtual_clock_scope
from repro.analysis.sources import parse_python

GPUSIM_PATH = "src/repro/gpusim/example.py"
TOOLS_PATH = "src/repro/tools/example.py"


def analyze_source_text(text: str, path: str):
    """The source rules over one text, parsed where the loader parses."""
    return analyze_source_tree(parse_python(text, path), path)


def _analyze(source: str, path: str = GPUSIM_PATH):
    return analyze_source_text(textwrap.dedent(source), path)


def _ids(findings):
    return [f.rule_id for f in findings]


def test_syntax_error_is_src200():
    findings = _analyze("def broken(:\n")
    assert _ids(findings) == ["SRC200"]
    assert findings[0].line == 1


class TestWallClock:
    BAD_SNIPPETS = [
        "import time\ntime.time()\n",
        "import time\ntime.sleep(1)\n",
        "import time as _t\n_t.perf_counter()\n",
        "from time import monotonic\nmonotonic()\n",
        "from time import sleep as snooze\nsnooze(2)\n",
        "import datetime\ndatetime.datetime.now()\n",
        "from datetime import datetime\ndatetime.utcnow()\n",
        "from datetime import date\ndate.today()\n",
    ]

    @pytest.mark.parametrize("source", BAD_SNIPPETS)
    def test_wall_clock_flagged_in_gpusim(self, source):
        findings = _analyze(source)
        assert _ids(findings) == ["SRC201"]
        assert findings[0].line == 2

    @pytest.mark.parametrize("source", BAD_SNIPPETS)
    def test_same_code_is_fine_outside_virtual_clock_scope(self, source):
        assert _analyze(source, path=TOOLS_PATH) == []

    def test_virtual_clock_usage_is_clean(self):
        source = """\
            from repro.gpusim.clock import VirtualClock

            def run(clock: VirtualClock):
                clock.advance(1.0)
                return clock.now
        """
        assert _analyze(source) == []

    def test_non_clock_time_attrs_are_fine(self):
        # time.strftime formats; it does not read a progressing clock the
        # simulator depends on.
        assert _analyze("import time\ntime.strftime('%Y')\n") == []

    def test_unrelated_module_named_time_attr(self):
        assert _analyze("import numpy\nnumpy.time()\n") == []

    def test_scope_predicate(self):
        assert is_virtual_clock_scope("src/repro/gpusim/clock.py")
        assert is_virtual_clock_scope("src/repro/core/mapper.py")
        assert not is_virtual_clock_scope("src/repro/tools/executors.py")
        assert not is_virtual_clock_scope("tests/test_clock.py")


class TestNvmlLifecycle:
    def test_query_before_init_is_flagged(self):
        source = """\
            lib = NvmlLibrary(host)
            count = lib.nvmlDeviceGetCount()
            lib.nvmlInit()
        """
        findings = _analyze(source, path=TOOLS_PATH)
        assert _ids(findings) == ["SRC202"]
        assert findings[0].line == 2

    def test_init_then_query_is_clean(self):
        source = """\
            lib = NvmlLibrary(host)
            lib.nvmlInit()
            count = lib.nvmlDeviceGetCount()
            lib.nvmlShutdown()
        """
        assert _analyze(source, path=TOOLS_PATH) == []

    def test_function_scope_is_independent(self):
        # The handle is constructed in one function and queried in
        # another: a lexical pass cannot order those, so stay silent.
        source = """\
            def make():
                return NvmlLibrary(host)

            def use(lib):
                return lib.nvmlDeviceGetCount()
        """
        assert _analyze(source, path=TOOLS_PATH) == []

    def test_flagged_inside_a_function(self):
        source = """\
            def probe(host):
                lib = NvmlLibrary(host)
                handle = lib.nvmlDeviceGetHandleByIndex(0)
                lib.nvmlInit()
                return handle
        """
        findings = _analyze(source, path=TOOLS_PATH)
        assert _ids(findings) == ["SRC202"]
        assert findings[0].line == 3

    def test_nested_function_does_not_leak_into_outer_scope(self):
        # The query happens inside a nested closure that runs after
        # nvmlInit(); the outer pass must not see it as "before init".
        source = """\
            def outer(host):
                lib = NvmlLibrary(host)

                def later():
                    return lib.nvmlDeviceGetCount()

                lib.nvmlInit()
                return later()
        """
        assert _analyze(source, path=TOOLS_PATH) == []

    def test_untracked_receiver_is_ignored(self):
        # `self._nvml` style receivers are attribute chains the lexical
        # pass does not track; no false positives.
        source = """\
            class Mapper:
                def count(self):
                    return self._nvml.nvmlDeviceGetCount()
        """
        assert _analyze(source, path=TOOLS_PATH) == []

    def test_module_and_function_events_do_not_mix(self):
        source = """\
            lib = NvmlLibrary(host)
            lib.nvmlInit()

            def use():
                return lib.nvmlDeviceGetCount()
        """
        assert _analyze(source, path=TOOLS_PATH) == []


def test_repo_sources_are_clean():
    """The shipped codebase passes its own source rules."""
    from pathlib import Path

    for path in sorted(Path("src").rglob("*.py")):
        findings = analyze_source_text(path.read_text(), str(path))
        assert findings == [], f"{path}: {[f.format_text() for f in findings]}"
