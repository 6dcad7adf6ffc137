"""Config analysis: lint tool wrapper XML and ``job_conf.xml`` statically.

Every rule here targets a misdeclaration that, in the paper's deployment,
only surfaces at job-launch time — as a silent CPU fallback, a failed
container, or an endlessly resubmitted job.  Nothing is executed: the
analyzers parse with the same parsers the runtime uses and then inspect
the resulting objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.galaxy.errors import JobConfError, ToolParseError
from repro.galaxy.job_conf import (
    DynamicRuleRegistry,
    JobConfig,
    parse_bool_param,
)
from repro.galaxy.tool_xml import ToolDefinition
from repro.gpusim.device import TESLA_GK210


def default_rule_functions() -> set[str]:
    """The dynamic rule names a stock GYAN deployment registers."""
    from repro.core.destination_rules import register_gyan_rules

    registry = DynamicRuleRegistry()
    register_gyan_rules(registry)
    return set(registry.names())


@dataclass
class ConfigContext:
    """The simulated host the configs are checked against.

    Defaults model the paper's testbed: one K80 board = two GK210 dies
    of 11,441 MiB each, with GYAN's stock dynamic rules registered.
    """

    device_count: int = 2
    fb_memory_mib_per_device: int = TESLA_GK210.fb_memory_mib
    known_rule_functions: set[str] = field(default_factory=default_rule_functions)

    @property
    def total_framebuffer_mib(self) -> int:
        return self.device_count * self.fb_memory_mib_per_device


# --------------------------------------------------------------------- #
# job_conf.xml
# --------------------------------------------------------------------- #
def analyze_job_conf(
    config: JobConfig | JobConfError, path: str | None, ctx: ConfigContext
) -> list[Finding]:
    """The job_conf rules over what the runtime parser made of the
    document: its ``JobConfig``, or the error it raised (GYAN100)."""
    if isinstance(config, JobConfError):
        return [R.GYAN100.finding(str(config), path)]

    findings: list[Finding] = []

    if config.default_destination is None:
        findings.append(
            R.GYAN109.finding(
                "job_conf declares no default destination",
                path,
                suggestion='add default="..." to <destinations>',
            )
        )

    for dest in config.destinations.values():
        if dest.is_dynamic:
            function = dest.rule_function
            if function is None:
                findings.append(
                    R.GYAN105.finding(
                        f"dynamic destination {dest.destination_id!r} has no "
                        '<param id="function">',
                        path,
                    )
                )
            elif function not in ctx.known_rule_functions:
                findings.append(
                    R.GYAN104.finding(
                        f"dynamic destination {dest.destination_id!r} names "
                        f"unregistered rule function {function!r}",
                        path,
                        suggestion="known rules: "
                        + ", ".join(sorted(ctx.known_rule_functions)),
                    )
                )
        resubmit = dest.resubmit_destination
        if resubmit is not None and resubmit not in config.destinations:
            findings.append(
                R.GYAN106.finding(
                    f"destination {dest.destination_id!r} resubmits to "
                    f"unknown destination {resubmit!r}",
                    path,
                )
            )
        elif resubmit is not None:
            target = config.destinations[resubmit]
            override = target.params.get("gpu_enabled_override")
            if override is not None and parse_bool_param(override):
                findings.append(
                    R.GYAN110.finding(
                        f"destination {dest.destination_id!r} resubmits to "
                        f"{resubmit!r}, which pins gpu_enabled_override="
                        f"{override!r}: a job recovering from a GPU failure "
                        "would be forced straight back onto a GPU",
                        path,
                        suggestion=f"set gpu_enabled_override=false on {resubmit!r} "
                        "(or drop the param so the mapper decides)",
                    )
                )

    findings.extend(_resubmit_cycles(config, path))
    findings.extend(_memory_oversubscription(config, path, ctx))
    return findings


def _resubmit_cycles(config: JobConfig, path: str | None) -> list[Finding]:
    """GYAN107: cycles in the functional resubmit graph."""
    successor = {
        dest_id: dest.resubmit_destination
        for dest_id, dest in config.destinations.items()
        if dest.resubmit_destination in config.destinations
    }
    findings: list[Finding] = []
    state: dict[str, int] = {}  # 0 in-progress, 1 done
    reported: set[frozenset[str]] = set()
    for start in config.destinations:
        chain: list[str] = []
        node: str | None = start
        while node is not None and node not in state:
            state[node] = 0
            chain.append(node)
            node = successor.get(node)
        if node is not None and state.get(node) == 0 and node in chain:
            cycle = chain[chain.index(node):]
            key = frozenset(cycle)
            if key not in reported:
                reported.add(key)
                findings.append(
                    R.GYAN107.finding(
                        "resubmit chain cycles: "
                        + " -> ".join(cycle + [cycle[0]]),
                        path,
                    )
                )
        for visited in chain:
            state[visited] = 1
    return findings


def _memory_oversubscription(
    config: JobConfig, path: str | None, ctx: ConfigContext
) -> list[Finding]:
    """GYAN108: per-destination and aggregate ``gpu_memory_mib`` checks."""
    findings: list[Finding] = []
    total = 0
    for dest in config.destinations.values():
        raw = dest.params.get("gpu_memory_mib")
        if raw is None:
            continue
        try:
            declared = int(raw)
        except ValueError:
            findings.append(
                R.GYAN108.finding(
                    f"destination {dest.destination_id!r} declares "
                    f"non-integer gpu_memory_mib {raw!r}",
                    path,
                )
            )
            continue
        total += declared
        if declared > ctx.fb_memory_mib_per_device:
            findings.append(
                R.GYAN108.finding(
                    f"destination {dest.destination_id!r} declares "
                    f"{declared} MiB, more than one simulated device's "
                    f"{ctx.fb_memory_mib_per_device} MiB framebuffer",
                    path,
                )
            )
    if total > ctx.total_framebuffer_mib:
        findings.append(
            R.GYAN108.finding(
                f"destinations declare {total} MiB of GPU memory in "
                f"aggregate, oversubscribing the host's "
                f"{ctx.total_framebuffer_mib} MiB "
                f"({ctx.device_count} x {ctx.fb_memory_mib_per_device} MiB)",
                path,
            )
        )
    return findings


# --------------------------------------------------------------------- #
# tool wrapper XML
# --------------------------------------------------------------------- #
def analyze_tool(
    tool: ToolDefinition | ToolParseError, path: str | None, ctx: ConfigContext
) -> list[Finding]:
    """The wrapper rules over what the runtime parser made of the
    document: its ``ToolDefinition``, or the error it raised."""
    if isinstance(tool, ToolParseError):
        message = str(tool)
        rule = R.GYAN101 if "minor ID" in message else R.GYAN100
        return [rule.finding(message, path)]

    findings: list[Finding] = []
    devices = (
        f"devices 0...{ctx.device_count - 1}"
        if ctx.device_count else "no GPU devices"
    )
    for raw_id in tool.requested_gpu_ids:
        minor = int(raw_id)  # parse_tool_xml already validated the format
        if minor >= ctx.device_count:
            findings.append(
                R.GYAN102.finding(
                    f"tool {tool.tool_id!r} requests GPU minor ID {minor}, "
                    f"but the configured host has {devices}",
                    path,
                    suggestion="pass --devices N if the target host differs",
                )
            )
    return findings


def analyze_tool_against_job_conf(
    tool: ToolDefinition,
    path: str | None,
    config: JobConfig,
) -> list[Finding]:
    """GYAN103: a container tool statically mapped to a bare destination.

    Dynamic destinations are skipped — a rule function may legitimately
    route the job to a container-enabled destination at run time.
    """
    if not tool.containers:
        return []
    dest_id = config.tool_destinations.get(tool.tool_id, config.default_destination)
    if dest_id is None:
        return []
    dest = config.destinations.get(dest_id)
    if dest is None or dest.is_dynamic:
        return []
    if dest.docker_enabled or dest.singularity_enabled:
        return []
    kinds = ", ".join(sorted({c.container_type for c in tool.containers}))
    return [
        R.GYAN103.finding(
            f"tool {tool.tool_id!r} declares a container ({kinds}) but maps "
            f"to destination {dest_id!r}, which has neither docker_enabled "
            "nor singularity_enabled",
            path,
            suggestion=f"enable a container runtime on {dest_id!r} or remap the tool",
        )
    ]
