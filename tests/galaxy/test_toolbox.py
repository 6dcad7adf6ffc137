"""Versioned toolbox: lineages and search."""

import pytest

from repro.galaxy.errors import ToolNotFoundError
from repro.galaxy.tool_xml import parse_tool_xml
from repro.galaxy.toolbox import ToolBox, ToolLineage, ToolVersionError


def make_tool(tool_id: str, version: str, name: str | None = None, gpu: bool = False):
    requirement = (
        '<requirements><requirement type="compute">gpu</requirement></requirements>'
        if gpu
        else ""
    )
    return parse_tool_xml(
        f'<tool id="{tool_id}" name="{name or tool_id}" version="{version}">'
        f"{requirement}<command>{tool_id}</command></tool>"
    )


@pytest.fixture
def toolbox():
    box = ToolBox()
    box.install(make_tool("racon", "1.4.20", "Racon consensus", gpu=True))
    box.install(make_tool("racon", "1.5.0", "Racon consensus", gpu=True))
    box.install(make_tool("bonito", "0.3.2", "Bonito basecaller", gpu=True))
    box.install(make_tool("seqstats", "1.0", "Sequence statistics"))
    return box


class TestLineages:
    def test_latest_resolves_highest_version(self, toolbox):
        assert toolbox.get("racon").version == "1.5.0"

    def test_version_pinning(self, toolbox):
        assert toolbox.get("racon", "1.4.20").version == "1.4.20"

    def test_unknown_version_lists_installed(self, toolbox):
        with pytest.raises(ToolVersionError, match="1.4.20"):
            toolbox.get("racon", "9.9")

    def test_unknown_tool(self, toolbox):
        with pytest.raises(ToolNotFoundError):
            toolbox.get("ghost")

    def test_numeric_version_ordering(self):
        lineage = ToolLineage(tool_id="t")
        for version in ("1.10.0", "1.2.0", "1.9.9"):
            lineage.install(make_tool("t", version))
        assert lineage.sorted_versions() == ["1.2.0", "1.9.9", "1.10.0"]
        assert lineage.latest.version == "1.10.0"

    def test_reinstall_replaces(self, toolbox):
        replacement = make_tool("bonito", "0.3.2", "Bonito v2")
        toolbox.install(replacement)
        assert toolbox.get("bonito").name == "Bonito v2"

    def test_wrong_lineage_rejected(self):
        lineage = ToolLineage(tool_id="a")
        with pytest.raises(ToolVersionError):
            lineage.install(make_tool("b", "1.0"))

    def test_empty_lineage_latest_rejected(self):
        with pytest.raises(ToolVersionError):
            _ = ToolLineage(tool_id="x").latest


class TestPanel:
    def test_search_by_id_and_name(self, toolbox):
        assert [t.tool_id for t in toolbox.search("racon")] == ["racon"]
        assert [t.tool_id for t in toolbox.search("basecaller")] == ["bonito"]
        assert [t.tool_id for t in toolbox.search("s")] == ["bonito", "racon", "seqstats"]
        assert toolbox.search("") == []

    def test_gpu_capable_listing(self, toolbox):
        assert [t.tool_id for t in toolbox.gpu_capable_tools()] == ["bonito", "racon"]

    def test_len_counts_lineages(self, toolbox):
        assert len(toolbox) == 3


class TestAppIntegration:
    def test_attach_migrates_and_upgrades(self, deployment):
        box = ToolBox()
        deployment.app.use_toolbox(box)
        assert deployment.app.toolbox is box
        assert len(box) == 3  # racon, bonito, seqstats migrated
        # Installing an upgrade flips the app's resolved version.
        deployment.app.install_tool(make_tool("racon", "9.0", "Racon consensus", gpu=True))
        assert deployment.app.tool("racon").version == "9.0"
        assert box.lineage("racon").sorted_versions()[-1] == "9.0"

    def test_jobs_run_latest_after_upgrade(self, deployment):
        from repro.galaxy.app import ToolExecutionResult

        deployment.app.use_toolbox(ToolBox())
        upgraded = parse_tool_xml(
            '<tool id="racon" version="9.0"><requirements>'
            '<requirement type="compute">gpu</requirement></requirements>'
            "<command>racon_v9</command></tool>"
        )
        deployment.app.install_tool(upgraded)
        deployment.app.register_executor(
            "racon_v9", lambda argv, ctx: ToolExecutionResult(stdout="v9")
        )
        job = deployment.run_tool("racon", {"workload": "unit"})
        assert job.command_line == "racon_v9"
        assert job.stdout == "v9"
