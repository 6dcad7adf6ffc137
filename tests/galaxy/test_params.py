"""build_param_dict — the GYAN bridge into the wrapper namespace."""


from repro.galaxy.job import GalaxyJob
from repro.galaxy.params import (
    GPU_ENABLED_ENV_VAR,
    GPU_ENABLED_PARAM_KEY,
    build_param_dict,
)
from repro.galaxy.tool_xml import parse_tool_xml

TOOL = parse_tool_xml(
    """\
<tool id="t" version="3.1">
  <command>run</command>
  <inputs>
    <param name="threads" type="integer" value="4"/>
    <param name="label" type="text" value="hello"/>
  </inputs>
</tool>"""
)


class TestBuildParamDict:
    def test_gpu_enabled_key_injected_from_environment(self):
        """§IV-A: GALAXY_GPU_ENABLED exposed as __galaxy_gpu_enabled__."""
        job = GalaxyJob(tool=TOOL)
        params = build_param_dict(job, environment={GPU_ENABLED_ENV_VAR: "true"})
        assert params[GPU_ENABLED_PARAM_KEY] == "true"

    def test_defaults_to_false_like_stock_galaxy(self):
        job = GalaxyJob(tool=TOOL)
        assert build_param_dict(job)[GPU_ENABLED_PARAM_KEY] == "false"

    def test_declared_params_coerced(self):
        job = GalaxyJob(tool=TOOL, params={"threads": "8"})
        params = build_param_dict(job)
        assert params["threads"] == 8

    def test_defaults_fill_missing_params(self):
        job = GalaxyJob(tool=TOOL)
        params = build_param_dict(job)
        assert params["threads"] == 4 and params["label"] == "hello"

    def test_undeclared_params_pass_through(self):
        job = GalaxyJob(tool=TOOL, params={"workload": "unit"})
        assert build_param_dict(job)["workload"] == "unit"

    def test_standard_double_underscore_entries(self):
        job = GalaxyJob(tool=TOOL)
        params = build_param_dict(job)
        assert params["__tool_id__"] == "t"
        assert params["__tool_version__"] == "3.1"
        assert params["__job_id__"] == job.job_id
