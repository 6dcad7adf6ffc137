"""Table-driven tests: one good and one bad fixture per config rule."""

from __future__ import annotations

import pytest

from repro.analysis.config_rules import (
    ConfigContext,
    analyze_job_conf_text,
    analyze_tool_against_job_conf,
    analyze_tool_text,
)

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


@pytest.fixture
def ctx():
    return ConfigContext()


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

    def test_good_job_conf_is_clean(self, ctx):
        config, findings = analyze_job_conf_text(GOOD_JOB_CONF, "job_conf.xml", ctx)
        assert config is not None
        assert findings == []

    @pytest.mark.parametrize(
        "rule_id,xml", JOB_CONF_CASES, ids=[c[0] for c in JOB_CONF_CASES]
    )
    def test_bad_job_conf_fires_rule(self, ctx, rule_id, xml):
        _, findings = analyze_job_conf_text(xml, "job_conf.xml", ctx)
        assert rule_id in _ids(findings)

    def test_cycle_reported_once_per_cycle(self, ctx):
        xml = GOOD_JOB_CONF.replace(
            '<destination id="local_cpu" runner="local"/>',
            '<destination id="local_cpu" runner="local">'
            '<param id="resubmit_destination">local_gpu</param>'
            "</destination>",
        )
        _, findings = analyze_job_conf_text(xml, None, ctx)
        assert len([f for f in findings if f.rule_id == "GYAN107"]) == 1

    def test_resubmit_to_override_false_is_clean(self, ctx):
        # Pinning the override OFF is exactly what a recovery arm should
        # do; only a truthy pin defeats the CPU arm (GYAN110).
        xml = GOOD_JOB_CONF.replace(
            '<destination id="local_cpu" runner="local"/>',
            '<destination id="local_cpu" runner="local">'
            '<param id="gpu_enabled_override">false</param>'
            "</destination>",
        )
        _, findings = analyze_job_conf_text(xml, None, ctx)
        assert "GYAN110" not in _ids(findings)

    def test_self_resubmit_is_a_cycle(self, ctx):
        xml = GOOD_JOB_CONF.replace(
            "<param id=\"resubmit_destination\">local_cpu</param>",
            "<param id=\"resubmit_destination\">local_gpu</param>",
        )
        _, findings = analyze_job_conf_text(xml, None, ctx)
        assert "GYAN107" in _ids(findings)

    def test_aggregate_oversubscription_without_single_offender(self, ctx):
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
        _, findings = analyze_job_conf_text(xml, None, ctx)
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

    def test_good_tool_is_clean(self, ctx):
        tool, findings = analyze_tool_text(_tool_xml("0,1"), "t.xml", ctx)
        assert tool is not None
        assert findings == []

    @pytest.mark.parametrize(
        "rule_id,xml",
        TOOL_CASES,
        ids=[f"{c[0]}-{i}" for i, c in enumerate(TOOL_CASES)],
    )
    def test_bad_tool_fires_rule(self, ctx, rule_id, xml):
        _, findings = analyze_tool_text(xml, "t.xml", ctx)
        assert rule_id in _ids(findings)

    def test_uncompilable_command_names_the_expression(self, ctx):
        """Loading a wrapper compiles every expression; the source-string
        engine found this one on the first job that took the #else arm."""
        xml = _tool_xml().replace(
            "t1 input.fa", "#if $gpu\nt1 -g\n#else\nt1 -t ${threads +}\n#end if"
        )
        tool, findings = analyze_tool_text(xml, "t.xml", ctx)
        assert tool is None
        (finding,) = findings
        assert finding.rule_id == "GYAN100" and finding.path == "t.xml"
        assert finding.message.startswith(
            "command template: failed to evaluate 'threads +': "
        )

    def test_device_count_override(self):
        wide = ConfigContext(device_count=8)
        tool, findings = analyze_tool_text(_tool_xml("5"), "t.xml", wide)
        assert findings == []


class TestContainerDestinationCrossCheck:
    def _config(self, ctx, mapping: str):
        xml = GOOD_JOB_CONF.replace(
            "</destinations>", f"</destinations><tools>{mapping}</tools>"
        )
        config, findings = analyze_job_conf_text(xml, None, ctx)
        assert findings == []
        return config

    def test_container_tool_on_plain_destination_warns(self, ctx):
        config = self._config(ctx, '<tool id="t1" destination="local_cpu"/>')
        tool, _ = analyze_tool_text(_tool_xml(container=True), "t.xml", ctx)
        findings = analyze_tool_against_job_conf(tool, "t.xml", config)
        assert _ids(findings) == {"GYAN103"}

    def test_container_tool_on_docker_destination_is_clean(self, ctx):
        config = self._config(ctx, '<tool id="t1" destination="docker_gpu"/>')
        tool, _ = analyze_tool_text(_tool_xml(container=True), "t.xml", ctx)
        assert analyze_tool_against_job_conf(tool, "t.xml", config) == []

    def test_dynamic_default_is_skipped(self, ctx):
        config, _ = analyze_job_conf_text(GOOD_JOB_CONF, None, ctx)
        tool, _ = analyze_tool_text(_tool_xml(container=True), "t.xml", ctx)
        assert analyze_tool_against_job_conf(tool, "t.xml", config) == []

    def test_tool_without_container_is_skipped(self, ctx):
        config = self._config(ctx, '<tool id="t1" destination="local_cpu"/>')
        tool, _ = analyze_tool_text(_tool_xml(container=False), "t.xml", ctx)
        assert analyze_tool_against_job_conf(tool, "t.xml", config) == []
