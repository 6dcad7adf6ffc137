"""Rule-by-rule coverage of the static DET4xx determinism pass.

Each seeded-bad fixture under ``fixtures/race_bad/`` must trigger
exactly its own rule family, and the shipped simulator sources must
stay clean — the acceptance contract of gyan-race's static layer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.race.det_rules import analyze_det_tree
from repro.analysis.sources import parse_python
from repro.analysis.suppressions import SuppressionSet

FIXTURES = Path(__file__).parent / "fixtures" / "race_bad"
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def analyze_det_text(text: str, path: str):
    """The DET rules over one source text, parsed where the loader parses."""
    return analyze_det_tree(parse_python(text, path), path)


def _suppressed(findings, text: str):
    return SuppressionSet.parse(text, parse_python(text, "x.py")).filter(findings)


def _findings_for(fixture: str):
    path = FIXTURES / fixture
    return analyze_det_text(path.read_text(), str(path))


class TestDet401:
    def test_fixture_fires_rule(self):
        findings = _findings_for("det401_unordered_flow.py")
        assert {f.rule_id for f in findings} == {"DET401"}
        assert len(findings) == 2  # set arm + dict arm

    def test_set_iteration_carries_line_evidence(self):
        findings = _findings_for("det401_unordered_flow.py")
        assert all(f.line is not None for f in findings)
        assert all(str(FIXTURES) in (f.path or "") for f in findings)

    def test_sorted_iteration_is_clean(self):
        text = (
            "def export(fh, names):\n"
            "    for name in sorted({'b', 'a'}):\n"
            "        fh.write(name)\n"
        )
        assert analyze_det_text(text, "x.py") == []

    def test_dict_items_into_print_is_not_flagged(self):
        # CPython dicts iterate in insertion order; console output in
        # deliberate non-alphabetical order (phase order) is legitimate.
        text = (
            "def show(breakdown):\n"
            "    for key, value in breakdown.items():\n"
            "        print(key, value)\n"
        )
        assert analyze_det_text(text, "x.py") == []

    def test_set_into_print_is_flagged(self):
        text = (
            "def show(names):\n"
            "    for name in {'a', 'b'}:\n"
            "        print(name)\n"
        )
        assert [f.rule_id for f in analyze_det_text(text, "x.py")] == ["DET401"]


class TestDet402:
    def test_fixture_fires_rule(self):
        findings = _findings_for("det402_entropy.py")
        assert {f.rule_id for f in findings} == {"DET402"}
        messages = " ".join(f.message for f in findings)
        assert "random.choice" in messages
        assert "uuid.uuid4" in messages
        assert "os.urandom" in messages
        assert len(findings) == 4  # incl. the from-import choice()

    def test_seeded_generator_is_clean(self):
        text = (
            "import random\n"
            "def draw(seed):\n"
            "    rng = random.Random(seed)\n"
            "    return rng.random()\n"
        )
        assert analyze_det_text(text, "x.py") == []

    def test_time_time_flagged_outside_sim_code(self):
        text = "import time\nstamp = time.time()\n"
        assert [f.rule_id for f in analyze_det_text(text, "workloads/x.py")] == [
            "DET402"
        ]

    def test_time_time_left_to_src201_in_sim_code(self):
        text = "import time\nstamp = time.time()\n"
        assert analyze_det_text(text, "src/repro/gpusim/x.py") == []


class TestDet403:
    def test_fixture_fires_rule(self):
        findings = _findings_for("det403_timer_ties.py")
        assert {f.rule_id for f in findings} == {"DET403"}
        assert len(findings) == 2  # same-expression pair + set-loop arm

    def test_keyed_registrations_are_clean(self):
        text = (
            "def arm(clock, a, b):\n"
            "    clock.call_at(10.0, a, key='a')\n"
            "    clock.call_at(10.0, b, key='b')\n"
        )
        assert analyze_det_text(text, "x.py") == []

    def test_single_site_loop_is_clean(self):
        # One registration statement looping over an ordered iterable is
        # pinned by loop order — the FaultInjector.arm shape.
        text = (
            "def arm(clock, events):\n"
            "    for event in events:\n"
            "        clock.call_at(event.time, event.fire)\n"
        )
        assert analyze_det_text(text, "x.py") == []


class TestDet404:
    def test_fixture_fires_rule(self):
        findings = _findings_for("det404_float_accumulation.py")
        assert {f.rule_id for f in findings} == {"DET404"}
        assert len(findings) == 2  # sum() arm + += arm

    def test_sum_over_list_is_clean(self):
        text = "total = sum([0.1, 0.2, 0.3])\n"
        assert analyze_det_text(text, "x.py") == []

    def test_sum_over_dict_values_is_clean(self):
        # Insertion-ordered on CPython; flagging every .values() sum
        # would bury the genuinely unordered (set) cases in noise.
        text = "def f(d):\n    return sum(d.values())\n"
        assert analyze_det_text(text, "x.py") == []


class TestSuppressionAndCleanliness:
    def test_line_suppression_works(self):
        text = (
            "import random\n"
            "x = random.random()  # gyan-lint: disable=DET402\n"
        )
        findings = analyze_det_text(text, "x.py")
        assert [f.rule_id for f in findings] == ["DET402"]
        assert _suppressed(findings, text) == []

    @pytest.mark.parametrize("package", ["gpusim", "core", "observability",
                                         "analysis", "workloads"])
    def test_shipped_sources_are_clean(self, package):
        for path in sorted((SRC / package).rglob("*.py")):
            text = path.read_text()
            findings = _suppressed(analyze_det_text(text, str(path)), text)
            assert findings == [], f"{path} has DET findings: {findings}"

    def test_findings_sorted_by_line_then_rule(self):
        findings = _findings_for("det402_entropy.py")
        keys = [(f.line or 0, f.rule_id) for f in findings]
        assert keys == sorted(keys)
