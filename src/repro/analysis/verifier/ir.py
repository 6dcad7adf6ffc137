"""The Deployment IR: one typed graph per job_conf and its satellites.

A *deployment* is everything an admin ships together: a ``job_conf.xml``,
the tool wrappers routed through it, and any chaos plans exercising it.
The IR loads all of them with the runtime's own parsers and links them
into a graph of tools, destinations and routes, each carrying a
provenance :class:`Span` so findings point back at the line that caused
them.

The grouping rule lives here, in :func:`deployments_of`, and gyan-lint's
cross-file check consumes the same function: every job_conf that loads
roots one deployment; every tool, macros file and plan of its directory
belongs to *each* deployment rooted there, and when the whole run
contains exactly one job_conf, stray files belong to that one.  The
files themselves come from the analyzers' one loader
(:mod:`repro.analysis.sources`), already parsed by the runtime parsers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.analysis.sources import Source, load_sources
from repro.core.destination_rules import GYAN_RULES
from repro.galaxy.errors import GalaxyError
from repro.galaxy.job_conf import Destination, JobConfig, parse_bool_param
from repro.cluster.autoscale import AUTOSCALE_SCHEMA, AutoscalePlan
from repro.galaxy.tool_xml import ToolDefinition
from repro.gpusim.faults import InjectionPlan

#: What the stock GYAN dynamic rules can resolve to, for static route
#: expansion.  Unknown rule functions expand conservatively to every
#: concrete destination (the rule could return any of them).
DYNAMIC_RULE_TARGETS: dict[str, tuple[str, ...]] = GYAN_RULES

#: Safety cap when following resubmit chains (cycles are reported, not
#: followed forever).
_MAX_CHAIN = 16


@dataclass(frozen=True)
class Span:
    """Provenance: where in which file a node or edge was declared."""

    path: str
    line: int | None = None


def find_line(text: str, needle: str, after_line: int = 0) -> int | None:
    """1-indexed line of the first ``needle`` occurrence past ``after_line``."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno > after_line and needle in line:
            return lineno
    return None


@dataclass
class ToolNode:
    """One parsed tool wrapper in the deployment."""

    tool_id: str
    tool: ToolDefinition
    span: Span


@dataclass
class DestinationNode:
    """One job_conf destination, with the flags the passes read."""

    destination_id: str
    destination: Destination
    span: Span

    @property
    def runner(self) -> str:
        return self.destination.runner

    @property
    def gpu_override(self) -> bool | None:
        """The ``gpu_enabled_override`` pin: True/False, or None if unset."""
        raw = self.destination.params.get("gpu_enabled_override")
        if raw is None:
            return None
        return parse_bool_param(raw)

    @property
    def gpu_memory_mib(self) -> int | None:
        """The destination's declared GPU memory budget, if parseable."""
        raw = self.destination.params.get("gpu_memory_mib")
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            return None

    def grants_gpu(self, tool: ToolDefinition | None = None) -> bool:
        """Can a job here ever see a GPU (``CUDA_VISIBLE_DEVICES`` set)?

        A ``False`` override pins the GPU env off and pops the device
        mask, so nothing downstream can re-grant it.  Otherwise the
        runner decides: the local runner passes the mapper's mask
        through; container runners need their runtime enabled (and,
        when a concrete ``tool`` is given, a matching container).
        Unknown runners are treated as GPU-capable — conservative for
        VER201, which only fires when *no* route can grant.
        """
        if self.gpu_override is False:
            return False
        if self.runner == "dynamic":
            return False  # expanded to concrete targets elsewhere
        if self.runner == "docker":
            if not self.destination.docker_enabled:
                return False
            return tool is None or tool.container_for("docker") is not None
        if self.runner == "singularity":
            if not self.destination.singularity_enabled:
                return False
            return tool is None or tool.container_for("singularity") is not None
        return True


@dataclass
class ChaosPlanNode:
    """One chaos-plan JSON file shipped with the deployment."""

    name: str
    plan: InjectionPlan
    span: Span


@dataclass
class AutoscalePlanNode:
    """One ``gyan.autoscale/v1`` plan shipped with the deployment."""

    name: str
    plan: AutoscalePlan
    span: Span


@dataclass(frozen=True)
class RouteEdge:
    """One routing step: tool->destination or destination->destination."""

    source: str
    target: str
    kind: str  # 'static' | 'default' | 'dynamic' | 'resubmit'
    span: Span


@dataclass
class DeploymentIR:
    """The typed whole-deployment graph one job_conf roots."""

    job_conf_path: str
    job_conf_text: str
    config: JobConfig
    destinations: dict[str, DestinationNode] = field(default_factory=dict)
    tools: list[ToolNode] = field(default_factory=list)
    plans: list[ChaosPlanNode] = field(default_factory=list)
    autoscalers: list[AutoscalePlanNode] = field(default_factory=list)
    edges: list[RouteEdge] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # routing queries the passes share
    # ------------------------------------------------------------------ #
    def initial_destinations(self, tool_id: str) -> list[str]:
        """Concrete destinations a fresh job of ``tool_id`` can start on.

        The static mapping (or default) is expanded through dynamic
        rules; resubmit arms are *not* included — they are only
        reachable after a failure.
        """
        start = self.config.tool_destinations.get(
            tool_id, self.config.default_destination
        )
        if start is None:
            return []
        out: list[str] = []
        seen: set[str] = set()
        stack = [start]
        while stack:
            dest_id = stack.pop()
            if dest_id in seen or dest_id not in self.config.destinations:
                continue
            seen.add(dest_id)
            dest = self.config.destinations[dest_id]
            if dest.is_dynamic:
                stack.extend(self._dynamic_targets(dest))
            else:
                out.append(dest_id)
        return sorted(out)

    def _dynamic_targets(self, dest: Destination) -> list[str]:
        function = dest.rule_function
        targets = DYNAMIC_RULE_TARGETS.get(function or "")
        if targets is None:
            # Unknown rule: it could return any concrete destination.
            return [
                d.destination_id
                for d in self.config.destinations.values()
                if not d.is_dynamic
            ]
        return [t for t in targets if t in self.config.destinations]

    def resubmit_chain(self, dest_id: str) -> list[str]:
        """The destination chain a failing job walks, starting at
        ``dest_id`` (inclusive), cut at the first repeat or dead end."""
        chain: list[str] = []
        seen: set[str] = set()
        node: str | None = dest_id
        while (
            node is not None
            and node in self.config.destinations
            and len(chain) < _MAX_CHAIN
        ):
            chain.append(node)
            if node in seen:
                break
            seen.add(node)
            node = self.config.destinations[node].resubmit_destination
        return chain

    def gpu_tools(self) -> list[ToolNode]:
        return [t for t in self.tools if t.tool.requires_gpu]


# --------------------------------------------------------------------- #
# loading
# --------------------------------------------------------------------- #
def deployments_of(sources: list[Source]) -> list[tuple[Source, list[Source]]]:
    """The grouping rule ``lint`` and ``verify`` share: ``(job_conf,
    members)`` for every job_conf of the run that loads.

    A file belongs to every deployment rooted in its own directory; when
    the run holds exactly one deployment, every other file belongs to it
    wherever it lives.
    """
    roots = [
        s for s in sources
        if s.kind == "job_conf" and isinstance(s.parsed, JobConfig)
    ]
    return [
        (
            root,
            [
                s for s in sources
                if s.kind != "job_conf"
                and (len(roots) == 1 or s.path.parent == root.path.parent)
            ],
        )
        for root in roots
    ]


def _build_edges(ir: DeploymentIR) -> None:
    text, path = ir.job_conf_text, ir.job_conf_path
    for tool in ir.tools:
        start = ir.config.tool_destinations.get(tool.tool_id)
        if start is not None:
            ir.edges.append(
                RouteEdge(
                    tool.tool_id, start, "static",
                    Span(path, find_line(text, f'id="{tool.tool_id}"')),
                )
            )
        elif ir.config.default_destination is not None:
            ir.edges.append(
                RouteEdge(
                    tool.tool_id, ir.config.default_destination, "default",
                    Span(path, find_line(text, "<destinations")),
                )
            )
    for dest_id, node in ir.destinations.items():
        dest = node.destination
        if dest.is_dynamic:
            for target in ir._dynamic_targets(dest):
                ir.edges.append(
                    RouteEdge(dest_id, target, "dynamic", node.span)
                )
        resubmit = dest.resubmit_destination
        if resubmit is not None:
            line = find_line(
                text, "resubmit_destination", after_line=(node.span.line or 1) - 1
            )
            ir.edges.append(
                RouteEdge(dest_id, resubmit, "resubmit", Span(path, line))
            )


def _ir_node(
    source: Source,
) -> ToolNode | ChaosPlanNode | AutoscalePlanNode | Finding | None:
    """What one input is to a deployment: its IR node, the VER200
    finding when it is a deployment file that does not load, or ``None``
    (a job_conf that loads, macros, arbitrary JSON next to the configs)."""
    path = str(source.path)
    if source.kind == "invalid":
        return R.VER200.finding("XML is not well-formed", path)
    if source.kind in ("tool", "job_conf"):
        loaded = source.parsed
        if isinstance(loaded, GalaxyError):
            what = "tool wrapper" if source.kind == "tool" else "job_conf"
            return R.VER200.finding(f"{what} does not load: {loaded}", path)
        if source.kind == "job_conf":
            return None
        line = find_line(source.text, f'id="{loaded.tool_id}"')
        return ToolNode(loaded.tool_id, loaded, Span(path, line))
    if source.kind != "json":
        return None
    try:
        data = json.loads(source.text)
    except (json.JSONDecodeError, RecursionError):
        return None  # arbitrary JSON next to configs is not ours
    if not isinstance(data, dict):
        return None
    scale = data.get("schema") == AUTOSCALE_SCHEMA
    if not scale and "events" not in data:
        return None
    try:
        if scale:
            fleet = AutoscalePlan.from_dict(data)
            return AutoscalePlanNode(fleet.name, fleet, Span(path, 1))
        plan = InjectionPlan.from_dict(data)
        return ChaosPlanNode(plan.name, plan, Span(path, 1))
    except (KeyError, TypeError, ValueError) as exc:
        what = "autoscale plan" if scale else "chaos plan"
        return R.VER200.finding(f"{what} does not load: {exc}", path)


def load_deployments(
    paths: list[str],
) -> tuple[list[DeploymentIR], list[Finding], list[str]]:
    """Load every deployment reachable from ``paths``.

    Returns ``(deployments, load_findings, usage_errors)``: VER200
    findings cover files that exist but do not parse; usage errors cover
    paths that do not exist or cannot be read.
    """
    sources, errors = load_sources(paths, (".xml", ".json"))
    loaded = {s.path: _ir_node(s) for s in sources}
    findings = [node for node in loaded.values() if isinstance(node, Finding)]

    out: list[DeploymentIR] = []
    for root, members in deployments_of(sources):
        path, config = str(root.path), root.parsed
        ir = DeploymentIR(
            job_conf_path=path, job_conf_text=root.text, config=config
        )
        for dest_id, dest in config.destinations.items():
            ir.destinations[dest_id] = DestinationNode(
                destination_id=dest_id,
                destination=dest,
                span=Span(path, find_line(root.text, f'id="{dest_id}"')),
            )
        for member in members:
            node = loaded[member.path]
            if isinstance(node, ToolNode):
                ir.tools.append(node)
            elif isinstance(node, ChaosPlanNode):
                ir.plans.append(node)
            elif isinstance(node, AutoscalePlanNode):
                ir.autoscalers.append(node)
        ir.tools.sort(key=lambda t: t.tool_id)
        ir.plans.sort(key=lambda p: p.span.path)
        ir.autoscalers.sort(key=lambda a: a.span.path)
        _build_edges(ir)
        out.append(ir)
    out.sort(key=lambda ir: ir.job_conf_path)
    return out, findings, errors
