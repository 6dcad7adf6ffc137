"""Table-driven tests: one good and one bad fixture per config rule.

Every case runs through ``lint_paths``, the path ``repro lint`` takes:
the files are written to a directory, loaded and parsed as the runtime
loads them, and judged together.
"""

from __future__ import annotations

import pytest

from repro.analysis.linter import LintOptions, lint_paths


def lint(folder, files: dict[str, str], device_count: int = 2):
    """The findings of ``repro lint`` over ``files`` (name -> text)."""
    for name, text in files.items():
        (folder / name).write_text(text)
    options = LintOptions(device_count=device_count)
    return lint_paths([str(folder)], options).findings


GOOD_JOB_CONF = """\
<job_conf>
    <destinations default="dynamic">
        <destination id="dynamic" runner="dynamic">
            <param id="function">gpu_destination</param>
        </destination>
        <destination id="local_gpu" runner="local">
            <param id="resubmit_destination">local_cpu</param>
            <param id="gpu_memory_mib">4096</param>
        </destination>
        <destination id="local_cpu" runner="local"/>
        <destination id="docker_gpu" runner="docker">
            <param id="docker_enabled">true</param>
        </destination>
    </destinations>
</job_conf>
"""


def _tool_xml(version: str = "0", container: bool = False) -> str:
    container_xml = (
        '<container type="docker">example/image:latest</container>' if container else ""
    )
    return f"""\
<tool id="t1" name="T" version="1.0">
    <requirements>
        <requirement type="compute" version="{version}">gpu</requirement>
        {container_xml}
    </requirements>
    <command>t1 input.fa</command>
</tool>
"""


def _ids(findings) -> set[str]:
    return {f.rule_id for f in findings}


class TestJobConfRules:
    """Each (rule, bad snippet) pair, plus the clean baseline."""

    JOB_CONF_CASES = [
        (
            "GYAN100",
            "<job_conf><destinations/></job_conf>".replace(
                "<destinations/>", ""
            ),  # no destinations section
        ),
        (
            "GYAN104",
            GOOD_JOB_CONF.replace("gpu_destination", "no_such_rule"),
        ),
        (
            "GYAN105",
            GOOD_JOB_CONF.replace(
                '<param id="function">gpu_destination</param>', ""
            ),
        ),
        (
            "GYAN106",
            GOOD_JOB_CONF.replace(
                "<param id=\"resubmit_destination\">local_cpu</param>",
                "<param id=\"resubmit_destination\">missing</param>",
            ),
        ),
        (
            "GYAN107",
            GOOD_JOB_CONF.replace(
                '<destination id="local_cpu" runner="local"/>',
                '<destination id="local_cpu" runner="local">'
                '<param id="resubmit_destination">local_gpu</param>'
                "</destination>",
            ),
        ),
        (
            "GYAN108",
            GOOD_JOB_CONF.replace(
                "<param id=\"gpu_memory_mib\">4096</param>",
                "<param id=\"gpu_memory_mib\">99999</param>",
            ),
        ),
        (
            "GYAN109",
            GOOD_JOB_CONF.replace(' default="dynamic"', ""),
        ),
        (
            "GYAN110",
            GOOD_JOB_CONF.replace(
                '<destination id="local_cpu" runner="local"/>',
                '<destination id="local_cpu" runner="local">'
                '<param id="gpu_enabled_override">true</param>'
                "</destination>",
            ),
        ),
    ]

    def test_good_job_conf_is_clean(self, tmp_path):
        assert lint(tmp_path, {"job_conf.xml": GOOD_JOB_CONF}) == []

    @pytest.mark.parametrize(
        "rule_id,xml", JOB_CONF_CASES, ids=[c[0] for c in JOB_CONF_CASES]
    )
    def test_bad_job_conf_fires_rule(self, tmp_path, rule_id, xml):
        findings = lint(tmp_path, {"job_conf.xml": xml})
        assert rule_id in _ids(findings)

    def test_cycle_reported_once_per_cycle(self, tmp_path):
        xml = GOOD_JOB_CONF.replace(
            '<destination id="local_cpu" runner="local"/>',
            '<destination id="local_cpu" runner="local">'
            '<param id="resubmit_destination">local_gpu</param>'
            "</destination>",
        )
        findings = lint(tmp_path, {"job_conf.xml": xml})
        assert len([f for f in findings if f.rule_id == "GYAN107"]) == 1

    def test_resubmit_to_override_false_is_clean(self, tmp_path):
        # Pinning the override OFF is exactly what a recovery arm should
        # do; only a truthy pin defeats the CPU arm (GYAN110).
        xml = GOOD_JOB_CONF.replace(
            '<destination id="local_cpu" runner="local"/>',
            '<destination id="local_cpu" runner="local">'
            '<param id="gpu_enabled_override">false</param>'
            "</destination>",
        )
        findings = lint(tmp_path, {"job_conf.xml": xml})
        assert "GYAN110" not in _ids(findings)

    def test_self_resubmit_is_a_cycle(self, tmp_path):
        xml = GOOD_JOB_CONF.replace(
            "<param id=\"resubmit_destination\">local_cpu</param>",
            "<param id=\"resubmit_destination\">local_gpu</param>",
        )
        findings = lint(tmp_path, {"job_conf.xml": xml})
        assert "GYAN107" in _ids(findings)

    def test_aggregate_oversubscription_without_single_offender(self, tmp_path):
        # Two destinations under the per-die limit but over the host total.
        xml = GOOD_JOB_CONF.replace(
            "<param id=\"gpu_memory_mib\">4096</param>",
            "<param id=\"gpu_memory_mib\">11441</param>",
        ).replace(
            '<destination id="local_cpu" runner="local"/>',
            '<destination id="local_cpu" runner="local">'
            '<param id="gpu_memory_mib">11441</param>'
            "</destination>",
        ).replace(
            '<param id="docker_enabled">true</param>',
            '<param id="docker_enabled">true</param>'
            '<param id="gpu_memory_mib">1000</param>',
        )
        findings = lint(tmp_path, {"job_conf.xml": xml})
        aggregate = [f for f in findings if f.rule_id == "GYAN108"]
        assert len(aggregate) == 1
        assert "aggregate" in aggregate[0].message


class TestToolRules:
    TOOL_CASES = [
        ("GYAN100", "<tool id='t1'><requirements>"),  # not well-formed
        ("GYAN101", _tool_xml(version="0,x")),
        ("GYAN101", _tool_xml(version="-1")),
        ("GYAN102", _tool_xml(version="5")),
        # The command block does not parse / parses but is not Python.
        ("GYAN100", _tool_xml().replace("t1 input.fa", "#if $gpu\nt1 input.fa")),
        ("GYAN100", _tool_xml().replace("t1 input.fa", "t1 ${threads +} input.fa")),
    ]

    def test_good_tool_is_clean(self, tmp_path):
        assert lint(tmp_path, {"t.xml": _tool_xml("0,1")}) == []

    @pytest.mark.parametrize(
        "rule_id,xml",
        TOOL_CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(TOOL_CASES)],
    )
    def test_bad_tool_fires_rule(self, tmp_path, rule_id, xml):
        findings = lint(tmp_path, {"t.xml": xml})
        assert rule_id in _ids(findings)

    def test_uncompilable_command_names_the_expression(self, tmp_path):
        """Loading a wrapper compiles every expression; the source-string
        engine found this one on the first job that took the #else arm."""
        xml = _tool_xml().replace(
            "t1 input.fa", "#if $gpu\nt1 -g\n#else\nt1 -t ${threads +}\n#end if"
        )
        (finding,) = lint(tmp_path, {"t.xml": xml})
        assert finding.rule_id == "GYAN100"
        assert finding.path == str(tmp_path / "t.xml")
        assert finding.message.startswith(
            "command template: failed to evaluate 'threads +': "
        )

    def test_device_count_override(self, tmp_path):
        assert lint(tmp_path, {"t.xml": _tool_xml("5")}, device_count=8) == []


class TestContainerDestinationCrossCheck:
    """A tool linted beside a job_conf is checked against its mapping."""

    @staticmethod
    def _job_conf(mapping: str) -> str:
        return GOOD_JOB_CONF.replace(
            "</destinations>", f"</destinations><tools>{mapping}</tools>"
        )

    def test_container_tool_on_plain_destination_warns(self, tmp_path):
        findings = lint(tmp_path, {
            "job_conf.xml": self._job_conf('<tool id="t1" destination="local_cpu"/>'),
            "t.xml": _tool_xml(container=True),
        })
        assert _ids(findings) == {"GYAN103"}

    def test_container_tool_on_docker_destination_is_clean(self, tmp_path):
        assert lint(tmp_path, {
            "job_conf.xml": self._job_conf('<tool id="t1" destination="docker_gpu"/>'),
            "t.xml": _tool_xml(container=True),
        }) == []

    def test_dynamic_default_is_skipped(self, tmp_path):
        assert lint(tmp_path, {
            "job_conf.xml": GOOD_JOB_CONF, "t.xml": _tool_xml(container=True),
        }) == []

    def test_tool_without_container_is_skipped(self, tmp_path):
        assert lint(tmp_path, {
            "job_conf.xml": self._job_conf('<tool id="t1" destination="local_cpu"/>'),
            "t.xml": _tool_xml(container=False),
        }) == []
