"""Tool wrapper XML parsing: requirements, macros, GYAN's compute tag."""

import pytest

from repro.galaxy.errors import ToolParseError
from repro.galaxy.tool_xml import parse_macros_xml, parse_tool_xml
from repro.tools.wrappers import racon_macros_xml, racon_tool_xml


MINIMAL = """\
<tool id="t1" name="Tool" version="1.0">
  <command>echo hi</command>
</tool>
"""

GPU_TOOL = """\
<tool id="gpu_tool" name="G" version="2.0">
  <requirements>
    <requirement type="package" version="1.4">racon</requirement>
    <requirement type="compute" version="0,1">gpu</requirement>
    <container type="docker">org/image:tag</container>
    <container type="singularity">org/image.sif</container>
  </requirements>
  <command>run $x</command>
  <inputs>
    <param name="x" type="integer" value="3"/>
    <param name="flag" type="boolean" value="false"/>
    <param name="rate" type="float" value="0.5"/>
  </inputs>
  <outputs>
    <data name="out" format="fasta" label="Out"/>
  </outputs>
</tool>
"""


class TestBasicParsing:
    def test_minimal_tool(self):
        tool = parse_tool_xml(MINIMAL)
        assert tool.tool_id == "t1"
        assert not tool.requires_gpu
        assert tool.requested_gpu_ids == []

    def test_missing_id_rejected(self):
        with pytest.raises(ToolParseError):
            parse_tool_xml('<tool name="x"><command>y</command></tool>')

    def test_not_xml_rejected(self):
        with pytest.raises(ToolParseError):
            parse_tool_xml("this is not xml")

    def test_wrong_root_rejected(self):
        with pytest.raises(ToolParseError):
            parse_tool_xml("<nottool id='x'/>")


class TestComputeRequirement:
    def test_gpu_requirement_recognised(self):
        tool = parse_tool_xml(GPU_TOOL)
        assert tool.requires_gpu
        assert tool.compute_requirement.is_gpu_compute

    def test_version_tag_carries_gpu_ids(self):
        """§IV-C: the version XML tag corresponds to the GPU minor IDs."""
        assert parse_tool_xml(GPU_TOOL).requested_gpu_ids == ["0", "1"]

    def test_cpu_value_means_no_gpu(self):
        xml = GPU_TOOL.replace(
            '<requirement type="compute" version="0,1">gpu</requirement>',
            '<requirement type="compute">cpu</requirement>',
        )
        tool = parse_tool_xml(xml)
        assert not tool.requires_gpu
        assert tool.compute_requirement is not None

    def test_invalid_compute_value_rejected(self):
        xml = GPU_TOOL.replace(">gpu<", ">tpu<")
        with pytest.raises(ToolParseError):
            parse_tool_xml(xml)

    def test_duplicate_compute_requirement_rejected(self):
        xml = GPU_TOOL.replace(
            '<requirement type="compute" version="0,1">gpu</requirement>',
            '<requirement type="compute">gpu</requirement>'
            '<requirement type="compute">cpu</requirement>',
        )
        with pytest.raises(ToolParseError):
            parse_tool_xml(xml)

    def test_no_gpu_preference_when_version_absent(self):
        xml = GPU_TOOL.replace(' version="0,1">gpu<', ">gpu<")
        tool = parse_tool_xml(xml)
        assert tool.requires_gpu and tool.requested_gpu_ids == []


class TestContainersAndParams:
    def test_container_lookup_by_type(self):
        tool = parse_tool_xml(GPU_TOOL)
        assert tool.container_for("docker").identifier == "org/image:tag"
        assert tool.container_for("singularity").identifier == "org/image.sif"
        assert tool.container_for("podman") is None

    def test_parameter_coercion(self):
        tool = parse_tool_xml(GPU_TOOL)
        assert tool.parameter("x").coerce("7") == 7
        assert tool.parameter("x").coerce(None) == 3  # default
        assert tool.parameter("flag").coerce("true") is True
        assert tool.parameter("flag").coerce(None) is False
        assert tool.parameter("rate").coerce("0.9") == pytest.approx(0.9)

    def test_outputs_parsed(self):
        tool = parse_tool_xml(GPU_TOOL)
        assert tool.outputs[0].name == "out"
        assert tool.outputs[0].format == "fasta"


class TestMacros:
    def test_macro_expansion_in_paper_wrapper(self):
        """Paper Codes 1+3: requirements arrive through the macro."""
        tool = parse_tool_xml(
            racon_tool_xml(), macros={"macros.xml": racon_macros_xml("0")}
        )
        assert tool.tool_id == "racon"
        assert tool.requires_gpu
        assert tool.requested_gpu_ids == ["0"]
        assert tool.container_for("docker").identifier.startswith("gulsumgudukbay/")
        assert tool.version == "1.4.20"  # @TOOL_VERSION@ token expanded

    def test_racon_macros_file_carries_the_gpu_ids(self):
        """The Racon wrapper itself carries no ids: the macros file does."""
        assert "@GPU_IDS@" not in racon_tool_xml()
        tool = parse_tool_xml(
            racon_tool_xml(), macros={"macros.xml": racon_macros_xml("1")}
        )
        assert tool.requested_gpu_ids == ["1"]

    def test_missing_macro_import_rejected(self):
        with pytest.raises(ToolParseError):
            parse_tool_xml(racon_tool_xml(), macros={})

    def test_unknown_macro_name_rejected(self):
        xml = '<tool id="x"><macros><import>m</import></macros><expand macro="nope"/></tool>'
        with pytest.raises(ToolParseError):
            parse_tool_xml(xml, macros={"m": "<macros><xml name='other'/></macros>"})

    def test_unparseable_command_block_is_a_tool_parse_error(self):
        with pytest.raises(ToolParseError, match=r"^command template: expected one of"):
            parse_tool_xml('<tool id="x"><command>#if $a\nrun</command></tool>')

    def test_uncompilable_expression_is_a_tool_parse_error(self):
        """Expressions compile at tool load, unreached arms included, so a
        wrapper that installs cannot fail to compile on a later job."""
        with pytest.raises(
            ToolParseError, match=r"^command template: failed to evaluate 'b \+': "
        ):
            parse_tool_xml(
                '<tool id="x"><command>#if $a\nrun\n#else\n${b +}\n#end if</command></tool>'
            )

    def test_parse_macros_xml(self):
        library = parse_macros_xml(racon_macros_xml("1"))
        assert "requirements" in library.xml_macros
        assert library.tokens["@TOOL_VERSION@"] == "1.4.20"

    def test_macros_validation(self):
        with pytest.raises(ToolParseError):
            parse_macros_xml("<notmacros/>")
        with pytest.raises(ToolParseError):
            parse_macros_xml("<macros><xml/></macros>")  # missing name


class TestBooleanCoercionDelegation:
    """ToolParameter.coerce must share job_conf's truthy table (it used
    to keep its own, which rejected "on" and unstripped input)."""

    @pytest.mark.parametrize("raw,expected", [
        ("true", True), ("yes", True), ("on", True), ("1", True),
        (" True ", True), ("false", False), ("off", False), ("no", False),
        ("0", False), ("anything-else", False),
    ])
    def test_matches_parse_bool_param(self, raw, expected):
        tool = parse_tool_xml(GPU_TOOL)
        assert tool.parameter("flag").coerce(raw) is expected

    def test_tables_cannot_drift(self):
        from repro.galaxy.job_conf import parse_bool_param

        tool = parse_tool_xml(GPU_TOOL)
        for raw in ("true", "True", "yes", "on", "1", " on ", "false",
                    "off", "", "2", "enabled"):
            assert tool.parameter("flag").coerce(raw) is parse_bool_param(raw)


GPU_MEMORY_TOOL = """\
<tool id="heavy" name="H" version="1.0">
  <requirements>
    <requirement type="compute" version="0">gpu</requirement>
    <requirement type="resource" version="{version}">gpu_memory_mib</requirement>
  </requirements>
  <command>run</command>
</tool>
"""


class TestGpuMemoryResource:
    def test_declared_demand_parsed(self):
        tool = parse_tool_xml(GPU_MEMORY_TOOL.format(version="8192"))
        assert tool.declared_gpu_memory_mib == 8192

    def test_absent_means_none(self):
        assert parse_tool_xml(MINIMAL).declared_gpu_memory_mib is None
        assert parse_tool_xml(GPU_TOOL).declared_gpu_memory_mib is None

    @pytest.mark.parametrize("bad", ["lots", "8 GiB", "", "0", "-5"])
    def test_invalid_demand_rejected(self, bad):
        with pytest.raises(ToolParseError):
            parse_tool_xml(GPU_MEMORY_TOOL.format(version=bad))
