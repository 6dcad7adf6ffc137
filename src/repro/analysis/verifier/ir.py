"""The Deployment IR: one typed graph per job_conf and its satellites.

A *deployment* is everything an admin ships together: a ``job_conf.xml``,
the tool wrappers routed through it, and any chaos plans exercising it.
The IR loads all of them with the runtime's own parsers and links them
into a graph of tools, destinations and routes, each carrying a
provenance :class:`Span` so findings point back at the line that caused
them.

Grouping follows gyan-lint's convention: every job_conf roots one
deployment; tools, macros and plans in the same directory attach to it,
and when the whole run contains exactly one job_conf, stray files attach
to that one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis import rules as R
from repro.analysis.findings import Finding
from repro.analysis.linter import classify_xml
from repro.galaxy.errors import JobConfError, ToolParseError
from repro.galaxy.job_conf import (
    Destination,
    JobConfig,
    parse_bool_param,
    parse_job_conf_xml,
)
from repro.cluster.autoscale import AUTOSCALE_SCHEMA, AutoscalePlan
from repro.galaxy.tool_xml import ToolDefinition, parse_tool_xml
from repro.gpusim.faults import InjectionPlan

#: What the stock GYAN dynamic rules can resolve to, for static route
#: expansion.  Unknown rule functions expand conservatively to every
#: concrete destination (the rule could return any of them).
DYNAMIC_RULE_TARGETS: dict[str, tuple[str, ...]] = {
    "gpu_destination": ("local_gpu", "local_cpu"),
    "docker_destination": ("docker_gpu", "docker_cpu"),
}

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
def _discover(paths: list[str]) -> tuple[list[Path], list[str]]:
    files: list[Path] = []
    errors: list[str] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.xml")))
            files.extend(sorted(path.rglob("*.json")))
        elif path.is_file():
            files.append(path)
        else:
            errors.append(f"no such file or directory: {raw}")
    seen: set[Path] = set()
    unique: list[Path] = []
    for path in files:
        resolved = path.resolve()
        if resolved not in seen:
            seen.add(resolved)
            unique.append(path)
    return unique, errors


def _looks_like_plan(data: object) -> bool:
    return isinstance(data, dict) and "events" in data


def _looks_like_autoscale(data: object) -> bool:
    return (
        isinstance(data, dict) and data.get("schema") == AUTOSCALE_SCHEMA
    )


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


def load_deployments(
    paths: list[str],
) -> tuple[list[DeploymentIR], list[Finding], list[str]]:
    """Load every deployment reachable from ``paths``.

    Returns ``(deployments, load_findings, usage_errors)``: VER200
    findings cover files that exist but do not parse; usage errors cover
    paths that do not exist at all.
    """
    files, errors = _discover(paths)
    findings: list[Finding] = []

    texts: dict[Path, str] = {}
    kinds: dict[Path, str] = {}
    for path in files:
        try:
            texts[path] = path.read_text()
        except OSError as exc:
            errors.append(f"cannot read {path}: {exc}")
            continue
        kinds[path] = (
            (classify_xml(texts[path]) or "invalid") if path.suffix == ".xml" else "json"
        )

    # Deployments root at job_confs.
    deployments: dict[Path, DeploymentIR] = {}
    for path, kind in kinds.items():
        if kind != "job_conf":
            continue
        try:
            config = parse_job_conf_xml(texts[path])
        except JobConfError as exc:
            findings.append(
                R.VER200.finding(f"job_conf does not load: {exc}", str(path))
            )
            continue
        ir = DeploymentIR(
            job_conf_path=str(path), job_conf_text=texts[path], config=config
        )
        for dest_id, dest in config.destinations.items():
            ir.destinations[dest_id] = DestinationNode(
                destination_id=dest_id,
                destination=dest,
                span=Span(str(path), find_line(texts[path], f'id="{dest_id}"')),
            )
        deployments[path] = ir

    def owner_for(path: Path) -> DeploymentIR | None:
        same_dir = [
            ir for p, ir in deployments.items() if p.parent == path.parent
        ]
        if len(same_dir) >= 1:
            return same_dir[0]
        if len(deployments) == 1:
            return next(iter(deployments.values()))
        return None

    macros_by_dir: dict[Path, dict[str, str]] = {}
    for path, kind in kinds.items():
        if kind == "macros":
            macros_by_dir.setdefault(path.parent, {})[path.name] = texts[path]

    for path, kind in kinds.items():
        owner = owner_for(path)
        if kind == "tool":
            macros = dict(macros_by_dir.get(path.parent, {}))
            if not macros and len(macros_by_dir) == 1:
                macros = dict(next(iter(macros_by_dir.values())))
            try:
                tool = parse_tool_xml(texts[path], macros=macros)
            except ToolParseError as exc:
                findings.append(
                    R.VER200.finding(
                        f"tool wrapper does not load: {exc}", str(path)
                    )
                )
                continue
            if owner is not None:
                owner.tools.append(
                    ToolNode(
                        tool_id=tool.tool_id,
                        tool=tool,
                        span=Span(
                            str(path),
                            find_line(texts[path], f'id="{tool.tool_id}"'),
                        ),
                    )
                )
        elif kind == "json":
            try:
                data = json.loads(texts[path])
            except json.JSONDecodeError:
                continue  # arbitrary JSON next to configs is not ours
            if _looks_like_autoscale(data):
                try:
                    scale_plan = AutoscalePlan.from_dict(data)
                except (KeyError, TypeError, ValueError) as exc:
                    findings.append(
                        R.VER200.finding(
                            f"autoscale plan does not load: {exc}",
                            str(path),
                        )
                    )
                    continue
                if owner is not None:
                    owner.autoscalers.append(
                        AutoscalePlanNode(
                            name=scale_plan.name,
                            plan=scale_plan,
                            span=Span(str(path), 1),
                        )
                    )
                continue
            if not _looks_like_plan(data):
                continue
            try:
                plan = InjectionPlan.from_dict(data)
            except (KeyError, TypeError, ValueError) as exc:
                findings.append(
                    R.VER200.finding(
                        f"chaos plan does not load: {exc}", str(path)
                    )
                )
                continue
            if owner is not None:
                owner.plans.append(
                    ChaosPlanNode(
                        name=plan.name, plan=plan, span=Span(str(path), 1)
                    )
                )
        elif kind == "invalid":
            findings.append(
                R.VER200.finding("XML is not well-formed", str(path))
            )

    out = list(deployments.values())
    for ir in out:
        ir.tools.sort(key=lambda t: t.tool_id)
        ir.plans.sort(key=lambda p: p.span.path)
        ir.autoscalers.sort(key=lambda a: a.span.path)
        _build_edges(ir)
    out.sort(key=lambda ir: ir.job_conf_path)
    return out, findings, errors
