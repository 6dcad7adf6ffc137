"""job_conf.xml parsing and dynamic destination resolution."""

import pytest

from repro.galaxy.errors import JobConfError
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import DynamicRuleRegistry, parse_job_conf_xml
from repro.galaxy.tool_xml import parse_tool_xml

PAPER_CODE_2 = """\
<job_conf>
    <plugins>
        <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner"/>
    </plugins>
    <destinations default="dynamic">
        <destination id="dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">gpu_destination</param>
        </destination>
        <destination id="local_gpu" runner="local"/>
        <destination id="local_cpu" runner="local"/>
        <destination id="docker_dest" runner="docker">
            <param id="docker_enabled">true</param>
        </destination>
    </destinations>
    <tools>
        <tool id="special" destination="docker_dest"/>
    </tools>
</job_conf>
"""


def make_job(tool_id="t"):
    return GalaxyJob(tool=parse_tool_xml(f'<tool id="{tool_id}"><command>x</command></tool>'))


class TestParsing:
    def test_paper_code_2_parses(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        assert config.default_destination == "dynamic"
        assert set(config.destinations) == {
            "dynamic",
            "local_gpu",
            "local_cpu",
            "docker_dest",
        }
        dynamic = config.destination("dynamic")
        assert dynamic.is_dynamic
        assert dynamic.rule_function == "gpu_destination"

    def test_docker_enabled_param(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        assert config.destination("docker_dest").docker_enabled
        assert not config.destination("local_gpu").docker_enabled

    def test_tool_mapping(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        assert config.tool_destinations["special"] == "docker_dest"

    def test_unknown_default_rejected(self):
        xml = '<job_conf><destinations default="ghost"><destination id="a" runner="local"/></destinations></job_conf>'
        with pytest.raises(JobConfError):
            parse_job_conf_xml(xml)

    def test_tool_mapping_to_unknown_destination_rejected(self):
        xml = PAPER_CODE_2.replace('destination="docker_dest"', 'destination="ghost"')
        with pytest.raises(JobConfError):
            parse_job_conf_xml(xml)

    def test_destination_requires_id_and_runner(self):
        xml = "<job_conf><destinations><destination id='x'/></destinations></job_conf>"
        with pytest.raises(JobConfError):
            parse_job_conf_xml(xml)

    def test_missing_destinations_rejected(self):
        with pytest.raises(JobConfError):
            parse_job_conf_xml("<job_conf/>")

    def test_malformed_xml_rejected(self):
        with pytest.raises(JobConfError):
            parse_job_conf_xml("not xml at all <")


class TestResolution:
    def test_dynamic_rule_invoked(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        calls = []

        def rule(job, app):
            calls.append(job)
            return "local_gpu"

        config.rules.register("gpu_destination", rule)
        destination = config.resolve(make_job(), app=None)
        assert destination.destination_id == "local_gpu"
        assert len(calls) == 1

    def test_default_used_when_no_tool_mapping(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        config.rules.register("gpu_destination", lambda j, a: "local_cpu")
        assert config.resolve(make_job("anything"), None).destination_id == "local_cpu"

    def test_tool_mapping_overrides_default(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        destination = config.resolve(make_job("special"), None)
        assert destination.destination_id == "docker_dest"

    def test_unregistered_rule_raises(self):
        config = parse_job_conf_xml(PAPER_CODE_2)
        with pytest.raises(JobConfError):
            config.resolve(make_job(), None)

    def test_dynamic_chain_follows(self):
        xml = """\
<job_conf>
  <destinations default="d1">
    <destination id="d1" runner="dynamic"><param id="function">r1</param></destination>
    <destination id="d2" runner="dynamic"><param id="function">r2</param></destination>
    <destination id="final" runner="local"/>
  </destinations>
</job_conf>"""
        config = parse_job_conf_xml(xml)
        config.rules.register("r1", lambda j, a: "d2")
        config.rules.register("r2", lambda j, a: "final")
        assert config.resolve(make_job(), None).destination_id == "final"

    def test_dynamic_cycle_detected(self):
        xml = """\
<job_conf>
  <destinations default="d1">
    <destination id="d1" runner="dynamic"><param id="function">r1</param></destination>
  </destinations>
</job_conf>"""
        config = parse_job_conf_xml(xml)
        config.rules.register("r1", lambda j, a: "d1")
        with pytest.raises(JobConfError):
            config.resolve(make_job(), None)


class TestRegistry:
    def test_missing_rule_error(self):
        with pytest.raises(JobConfError):
            DynamicRuleRegistry().get("nope")


class TestParseBoolParam:
    """Table-driven contract for the shared truthy helper.

    Every consumer — destination flags, the runners' override handling,
    tool boolean params, the linter — must agree on exactly this table,
    so a config that lints clean cannot behave differently at runtime.
    """

    TRUTHY = ["true", "True", "TRUE", "yes", "Yes", "on", "ON", "1",
              " true ", "\tyes\n", " 1 "]
    FALSY = ["false", "False", "FALSE", "no", "No", "off", "0", "",
             " false ", "  ", "2", "enabled", "y", "t"]

    @pytest.mark.parametrize("raw", TRUTHY)
    def test_truthy_spellings(self, raw):
        from repro.galaxy.job_conf import parse_bool_param

        assert parse_bool_param(raw) is True

    @pytest.mark.parametrize("raw", FALSY)
    def test_falsy_spellings(self, raw):
        from repro.galaxy.job_conf import parse_bool_param

        assert parse_bool_param(raw) is False

    def test_none_uses_default(self):
        from repro.galaxy.job_conf import parse_bool_param

        assert parse_bool_param(None) is False

    @pytest.mark.parametrize("raw", ["True", "YES", " on "])
    def test_destination_flags_accept_all_spellings(self, raw):
        xml = f"""\
<job_conf>
  <plugins><plugin id="docker" type="runner" load="x:Y"/></plugins>
  <destinations default="d">
    <destination id="d" runner="docker">
      <param id="docker_enabled">{raw}</param>
    </destination>
  </destinations>
</job_conf>"""
        config = parse_job_conf_xml(xml)
        assert config.destination("d").docker_enabled is True
