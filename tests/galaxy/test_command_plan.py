"""The command plan of every shipped wrapper, pinned as literals.

What a runner hands an executor — ``job.command_line``, argv and the
GYAN environment entries — for each shipped wrapper × the
``GALAXY_GPU_ENABLED`` flag × two parameter sets.  The values were
recorded before command assembly was touched; a change to the template
engine or to ``JobRunner.build_command_line`` must leave every row
byte-equal.
"""

from pathlib import Path

import pytest

from repro.core.orchestrator import build_deployment
from repro.galaxy.job_conf import Destination
from repro.galaxy.tool_xml import parse_tool_xml
from repro.tools import wrappers

CONFIGS = Path(__file__).resolve().parents[2] / "examples" / "configs"

#: wrapper name -> (tool XML, macros)
WRAPPERS = {
    "wrappers.racon": (
        wrappers.racon_tool_xml(),
        {"macros.xml": wrappers.racon_macros_xml("0")},
    ),
    "wrappers.bonito": (wrappers.bonito_tool_xml("1"), None),
    "wrappers.seqstats": (wrappers.CPU_ONLY_TOOL_XML, None),
    "examples/racon.xml": (
        (CONFIGS / "racon.xml").read_text(),
        {"macros.xml": (CONFIGS / "macros.xml").read_text()},
    ),
    "examples/bonito.xml": ((CONFIGS / "bonito.xml").read_text(), None),
}

RACON_TUNED = {"threads": 12, "batches": 8, "banding": "true"}
BONITO_TUNED = {"model": "dna_r10.3"}
SEQSTATS_TUNED = {"threads": 6}

GPU0 = {"GALAXY_GPU_ENABLED": "true", "CUDA_VISIBLE_DEVICES": "0"}
GPU1 = {"GALAXY_GPU_ENABLED": "true", "CUDA_VISIBLE_DEVICES": "1"}
ON = {"GALAXY_GPU_ENABLED": "true"}
OFF = {"GALAXY_GPU_ENABLED": "false"}

RACON_ROWS = [
    (
        "true", {},
        "racon_gpu -t 4 --cudapoa-batches 1 reads.fa mappings.paf backbone.fa",
        ["racon_gpu", "-t", "4", "--cudapoa-batches", "1",
         "reads.fa", "mappings.paf", "backbone.fa"],
        GPU0,
    ),
    (
        "true", RACON_TUNED,
        "racon_gpu -t 12 --cudapoa-batches 8 -b reads.fa mappings.paf backbone.fa",
        ["racon_gpu", "-t", "12", "--cudapoa-batches", "8", "-b",
         "reads.fa", "mappings.paf", "backbone.fa"],
        GPU0,
    ),
    (
        "false", {},
        "racon -t 4 reads.fa mappings.paf backbone.fa",
        ["racon", "-t", "4", "reads.fa", "mappings.paf", "backbone.fa"],
        OFF,
    ),
    (
        "false", RACON_TUNED,
        "racon -t 12 reads.fa mappings.paf backbone.fa",
        ["racon", "-t", "12", "reads.fa", "mappings.paf", "backbone.fa"],
        OFF,
    ),
]

BONITO_ROWS = [
    (
        "true", {},
        "bonito basecaller dna_r9.4.1 reads/ --device cuda",
        ["bonito", "basecaller", "dna_r9.4.1", "reads/", "--device", "cuda"],
        GPU1,
    ),
    (
        "true", BONITO_TUNED,
        "bonito basecaller dna_r9.4.1 reads/ --device cuda",
        ["bonito", "basecaller", "dna_r9.4.1", "reads/", "--device", "cuda"],
        GPU1,
    ),
    (
        "false", {},
        "bonito basecaller dna_r9.4.1 reads/ --device cpu",
        ["bonito", "basecaller", "dna_r9.4.1", "reads/", "--device", "cpu"],
        OFF,
    ),
    (
        "false", BONITO_TUNED,
        "bonito basecaller dna_r9.4.1 reads/ --device cpu",
        ["bonito", "basecaller", "dna_r9.4.1", "reads/", "--device", "cpu"],
        OFF,
    ),
]

SEQSTATS_ROWS = [
    ("true", {}, "seqstats -t 1 input.fa", ["seqstats", "-t", "1", "input.fa"], ON),
    (
        "true", SEQSTATS_TUNED,
        "seqstats -t 6 input.fa", ["seqstats", "-t", "6", "input.fa"], ON,
    ),
    ("false", {}, "seqstats -t 1 input.fa", ["seqstats", "-t", "1", "input.fa"], OFF),
    (
        "false", SEQSTATS_TUNED,
        "seqstats -t 6 input.fa", ["seqstats", "-t", "6", "input.fa"], OFF,
    ),
]

PLAN = [
    (wrapper, *row)
    for wrapper, rows in (
        ("wrappers.racon", RACON_ROWS),
        ("wrappers.bonito", BONITO_ROWS),
        ("wrappers.seqstats", SEQSTATS_ROWS),
        ("examples/racon.xml", RACON_ROWS),
        ("examples/bonito.xml", BONITO_ROWS),
    )
    for row in rows
]


@pytest.mark.parametrize(
    "wrapper, flag, params, command_line, argv, gyan_env",
    PLAN,
    ids=[
        f"{w}-gpu_{flag}-{'tuned' if params else 'defaults'}"
        for w, flag, params, *_ in PLAN
    ],
)
def test_command_plan(wrapper, flag, params, command_line, argv, gyan_env):
    xml, macros = WRAPPERS[wrapper]
    tool = parse_tool_xml(xml, macros=macros)
    deployment = build_deployment()
    deployment.app.install_tool(tool)
    job = deployment.app.submit(tool.tool_id, dict(params))
    # An admin pin is the one switch that reaches every wrapper, GPU
    # requirement or not; unpinned, seqstats never sees "true".
    destination = Destination("pinned", "local", {"gpu_enabled_override": flag})
    runner = deployment.local_runner

    env = runner.build_environment(job, destination)
    got_argv = runner.build_command_line(job, env)

    assert job.command_line == command_line
    assert got_argv == argv
    assert {
        key: env[key]
        for key in ("GALAXY_GPU_ENABLED", "CUDA_VISIBLE_DEVICES")
        if key in env
    } == gyan_env


def test_plan_covers_the_matrix():
    """5 wrappers × flag on/off × 2 parameter sets."""
    assert len(PLAN) == 20
    assert {w for w, *_ in PLAN} == set(WRAPPERS)
