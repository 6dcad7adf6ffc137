"""Multi-node GPU-aware dispatch.

The paper's abstract promises "identifying GPU-supported tools and
scheduling them on single or multiple GPU nodes based on the
availability in the cluster"; its evaluation exercises one node, but the
destination machinery is cluster-shaped.  This module supplies the
cluster level: a set of nodes sharing one virtual clock, node-selection
policies, and a dispatcher that routes each submitted tool to a chosen
node's GYAN deployment.

Policies
--------
``first-available-gpu``
    The paper's availability semantics lifted to nodes: the first node
    (by name) with at least one idle GPU wins; if every GPU is busy, the
    GPU node with the fewest running GPU processes; CPU-only tools and
    GPU tools on a GPU-less cluster go to the least CPU-loaded node.
``round-robin``
    Rotate over eligible nodes regardless of occupancy.
``least-loaded``
    The node with the smallest (gpu_processes, cpu_in_use) load vector.

Which tier answers which question
---------------------------------
Every ``select()`` scans its ``nodes`` argument, O(nodes × devices) per
dispatch: the right size for what this object tier carries — the
paper's node and the 3-node ablation
(``benchmarks/test_ablation_cluster.py``), every job a real
:class:`~repro.galaxy.job.GalaxyJob`.  Anything fleet-sized belongs to
the columnar tier, :mod:`repro.cluster.fleet`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.cluster.node import ComputeNode
from repro.gpusim.clock import VirtualClock


@dataclass
class NodeLoad:
    """A point-in-time load summary used by the policies."""

    hostname: str
    gpu_total: int
    gpu_idle: int
    gpu_processes: int
    cpu_free: int


def node_load(node: ComputeNode) -> NodeLoad:
    """Compute the load summary of one node."""
    if node.gpu_host is not None:
        gpu_total = node.gpu_host.device_count
        gpu_idle = len(node.gpu_host.available_devices())
        gpu_processes = sum(
            len(d.compute_processes()) for d in node.gpu_host.devices
        )
    else:
        gpu_total = gpu_idle = gpu_processes = 0
    return NodeLoad(
        hostname=node.hostname,
        gpu_total=gpu_total,
        gpu_idle=gpu_idle,
        gpu_processes=gpu_processes,
        cpu_free=node.cpu_slots_free,
    )


def _by_hostname(nodes: list[ComputeNode]) -> list[ComputeNode]:
    """``nodes`` in hostname order; an empty set is a typed error."""
    if not nodes:
        raise LookupError("no nodes available for selection")
    return sorted(nodes, key=lambda n: n.hostname)


class NodeSelectionPolicy:
    """Base class: pick a node for a job needing (or not) a GPU.

    ``nodes`` is each call's whole membership (a departed node is simply
    not passed); an empty ``nodes`` raises :class:`LookupError`.
    """

    name = "abstract"

    def select(self, nodes: list[ComputeNode], wants_gpu: bool) -> ComputeNode:
        raise NotImplementedError


class FirstAvailableGpuPolicy(NodeSelectionPolicy):
    """The paper's availability rule at node granularity."""

    name = "first-available-gpu"

    def select(self, nodes: list[ComputeNode], wants_gpu: bool) -> ComputeNode:
        ordered = _by_hostname(nodes)
        if wants_gpu:
            gpu_nodes = [n for n in ordered if n.has_gpus]
            if gpu_nodes:
                for node in gpu_nodes:
                    if node.gpu_host.available_devices():
                        return node
                # every GPU busy: fewest GPU processes wins (scatter-like)
                return min(gpu_nodes, key=lambda n: node_load(n).gpu_processes)
        candidates = [n for n in ordered if not wants_gpu or not n.has_gpus] or ordered
        return max(candidates, key=lambda n: n.cpu_slots_free)


class RoundRobinPolicy(NodeSelectionPolicy):
    """Rotate over eligible nodes."""

    name = "round-robin"

    def __init__(self) -> None:
        self._counter = itertools.count()

    def select(self, nodes: list[ComputeNode], wants_gpu: bool) -> ComputeNode:
        ordered = _by_hostname(nodes)
        eligible = [n for n in ordered if n.has_gpus] if wants_gpu else ordered
        eligible = eligible or ordered
        return eligible[next(self._counter) % len(eligible)]


class LeastLoadedPolicy(NodeSelectionPolicy):
    """Minimise the (gpu processes, cpu slots used) load vector."""

    name = "least-loaded"

    def select(self, nodes: list[ComputeNode], wants_gpu: bool) -> ComputeNode:
        ordered = _by_hostname(nodes)
        eligible = [n for n in ordered if n.has_gpus] if wants_gpu else ordered
        return min(  # ties: first in hostname order
            eligible or ordered,
            key=lambda n: (
                node_load(n).gpu_processes,
                n.resources.cpu_slots - n.cpu_slots_free,
            ),
        )


POLICIES: dict[str, Callable[[], NodeSelectionPolicy]] = {
    FirstAvailableGpuPolicy.name: FirstAvailableGpuPolicy,
    RoundRobinPolicy.name: RoundRobinPolicy,
    LeastLoadedPolicy.name: LeastLoadedPolicy,
}


@dataclass
class DispatchRecord:
    """Audit trail entry: which node got which job."""

    tool_id: str
    hostname: str
    wants_gpu: bool
    job_id: int | None = None


class ClusterDispatcher:
    """Routes tool submissions across several GYAN deployments.

    Parameters
    ----------
    deployments:
        One :class:`~repro.core.orchestrator.GyanDeployment` per node;
        all must share a single virtual clock (the cluster's timebase).
    policy:
        Node-selection policy name or instance.
    """

    def __init__(
        self,
        deployments: list[Any],
        policy: str | NodeSelectionPolicy = "first-available-gpu",
    ) -> None:
        if not deployments:
            raise ValueError("a cluster needs at least one node deployment")
        clocks = {id(d.clock) for d in deployments}
        if len(clocks) != 1:
            raise ValueError("all node deployments must share one clock")
        names = [d.node.hostname for d in deployments]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate hostnames in cluster: {names}")
        self.deployments = {d.node.hostname: d for d in deployments}
        if isinstance(policy, str):
            try:
                policy = POLICIES[policy]()
            except KeyError:
                raise ValueError(
                    f"unknown policy {policy!r}; expected one of {sorted(POLICIES)}"
                ) from None
        self.policy = policy
        self.history: list[DispatchRecord] = []

    # ------------------------------------------------------------------ #
    @property
    def nodes(self) -> list[ComputeNode]:
        """All cluster nodes."""
        return [d.node for d in self.deployments.values()]

    @property
    def clock(self) -> VirtualClock:
        """The shared cluster clock."""
        return next(iter(self.deployments.values())).clock

    def loads(self) -> list[NodeLoad]:
        """Current load of every node (by hostname order)."""
        return [node_load(n) for n in _by_hostname(self.nodes)]

    def _wants_gpu(self, deployment: Any, tool_id: str) -> bool:
        return deployment.app.tool(tool_id).requires_gpu

    def select_node(self, tool_id: str) -> Any:
        """Pick the deployment a tool should run on."""
        any_deployment = next(iter(self.deployments.values()))
        wants_gpu = self._wants_gpu(any_deployment, tool_id)
        node = self.policy.select(self.nodes, wants_gpu)
        return self.deployments[node.hostname]

    # ------------------------------------------------------------------ #
    def submit_and_run(self, tool_id: str, params: Mapping[str, Any] | None = None):
        """Route and run a tool; returns the finished job."""
        deployment = self.select_node(tool_id)
        wants_gpu = self._wants_gpu(deployment, tool_id)
        job = deployment.run_tool(tool_id, dict(params or {}))
        self.history.append(
            DispatchRecord(
                tool_id=tool_id,
                hostname=deployment.node.hostname,
                wants_gpu=wants_gpu,
                job_id=job.job_id,
            )
        )
        return job

    def launch_overlapped(self, tool_id: str, params: Mapping[str, Any] | None = None):
        """Route and *launch* a tool, leaving it running (for tests that
        need cluster-wide contention); returns (deployment, runner, handle)."""
        deployment = self.select_node(tool_id)
        job_params = dict(params or {})
        job_params.setdefault("workload", "unit")
        job = deployment.app.submit(tool_id, job_params)
        destination = deployment.app.map_destination(job)
        runner = deployment.app.runner_for(destination)
        handle = runner.launch(job, destination)
        self.history.append(
            DispatchRecord(
                tool_id=tool_id,
                hostname=deployment.node.hostname,
                wants_gpu=self._wants_gpu(deployment, tool_id),
                job_id=job.job_id,
            )
        )
        return deployment, runner, handle

    def finish_overlapped(self, deployment: Any, runner: Any, handle: Any):
        """Finish an overlapped launch; returns the finished job."""
        return runner.finish(handle)


def build_cluster(
    gpu_nodes: int = 2,
    cpu_nodes: int = 1,
    policy: str = "first-available-gpu",
    allocation_strategy: str = "pid",
) -> ClusterDispatcher:
    """Convenience: an N-node cluster with the paper's tools installed."""
    from repro.core.orchestrator import build_deployment
    from repro.tools.executors import register_paper_tools

    clock = VirtualClock()
    deployments = []
    for i in range(gpu_nodes):
        node = ComputeNode.paper_testbed(clock=clock)
        node.hostname = f"gpu-node-{i}"
        node.gpu_host.hostname = node.hostname
        deployments.append(
            build_deployment(node=node, allocation_strategy=allocation_strategy)
        )
    for i in range(cpu_nodes):
        node = ComputeNode.cpu_only(hostname=f"cpu-node-{i}", clock=clock)
        deployments.append(build_deployment(node=node))
    for deployment in deployments:
        register_paper_tools(deployment.app)
    return ClusterDispatcher(deployments, policy=policy)
