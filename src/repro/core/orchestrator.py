"""One-call construction of a complete GYAN-enabled Galaxy deployment.

Examples, tests and benchmarks all need the same wiring: a testbed node,
a job configuration with GYAN's dynamic rules, the GPU computation
mapper, container runtimes with the GPU flag providers, and the hardware
usage monitor.  :func:`build_deployment` assembles it; the returned
:class:`GyanDeployment` exposes every layer for inspection.

This is the *single-deployment* tier: every job is a real
:class:`~repro.galaxy.job.GalaxyJob` flowing through real wrappers and
runners.  For fleet-sized aggregate questions (a million jobs over a
thousand nodes) use the columnar simulation tier in
:mod:`repro.cluster.fleet` instead — see ``docs/fleet-scale.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.node import ComputeNode
from repro.containers.docker import DockerRuntime
from repro.containers.image import ImageRegistry
from repro.containers.singularity import SingularityRuntime
from repro.core.allocation import AllocationStrategy, strategy_by_name
from repro.core.container_gpu import docker_gpu_flag_provider, singularity_nv_provider
from repro.core.destination_rules import register_gyan_rules
from repro.core.health import DeviceHealthTracker, HealthEvent
from repro.core.mapper import GpuComputationMapper
from repro.core.monitor import GPUUsageMonitor
from repro.galaxy.app import GalaxyApp
from repro.galaxy.job import GalaxyJob
from repro.galaxy.job_conf import JobConfig, parse_job_conf_xml
from repro.galaxy.runners.base import LaunchedTool
from repro.galaxy.runners.docker import DockerJobRunner
from repro.galaxy.runners.local import LocalRunner
from repro.galaxy.runners.singularity import SingularityJobRunner
from repro.gpusim.clock import VirtualClock
from repro.gpusim.faults import FaultInjector, InjectionPlan
from repro.observability.tracing import Tracer
from repro.resilience.breaker import BreakerState, CircuitBreaker
from repro.resilience.brownout import BrownoutController
from repro.resilience.overload import OverloadController

#: The GYAN job configuration — paper Code 2, extended with the concrete
#: destinations the rules resolve to and the container variants.
GYAN_JOB_CONF_XML = """\
<job_conf>
    <plugins>
        <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner"/>
        <plugin id="docker" type="runner" load="galaxy.jobs.runners.docker:DockerJobRunner"/>
        <plugin id="singularity" type="runner" load="galaxy.jobs.runners.singularity:SingularityJobRunner"/>
    </plugins>
    <destinations default="dynamic">
        <destination id="dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">gpu_destination</param>
        </destination>
        <destination id="docker_dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">docker_destination</param>
        </destination>
        <destination id="local_gpu" runner="local"/>
        <destination id="local_cpu" runner="local"/>
        <destination id="docker_gpu" runner="docker">
            <param id="docker_enabled">true</param>
        </destination>
        <destination id="docker_cpu" runner="docker">
            <param id="docker_enabled">true</param>
        </destination>
        <destination id="singularity_gpu" runner="singularity">
            <param id="singularity_enabled">true</param>
        </destination>
    </destinations>
</job_conf>
"""

#: The chaos-hardened job configuration: every GPU destination carries a
#: resubmit arm pointing at a CPU destination that pins the GPU env off
#: — Galaxy's Total-Perspective-Vortex-style recovery path.  Used by the
#: resilient deployment and the ``python -m repro faults`` CLI.
#: The dynamic rule's degrade arm (``local_cpu``) pins the override too:
#: the GPU mapper prepares ``CUDA_VISIBLE_DEVICES`` before the
#: destination is consulted, so an unpinned CPU arm would still attach
#: jobs to a GPU — and, having no resubmit arm, lose them when that
#: device dies (gyan-verify VER402 finds the counterexample).
GYAN_RESILIENT_JOB_CONF_XML = """\
<job_conf>
    <plugins>
        <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner"/>
        <plugin id="docker" type="runner" load="galaxy.jobs.runners.docker:DockerJobRunner"/>
        <plugin id="singularity" type="runner" load="galaxy.jobs.runners.singularity:SingularityJobRunner"/>
    </plugins>
    <destinations default="dynamic">
        <destination id="dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">gpu_destination</param>
        </destination>
        <destination id="docker_dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">docker_destination</param>
        </destination>
        <destination id="local_gpu" runner="local">
            <param id="resubmit_destination">local_cpu_fallback</param>
        </destination>
        <destination id="local_cpu" runner="local">
            <param id="gpu_enabled_override">false</param>
        </destination>
        <destination id="local_cpu_fallback" runner="local">
            <param id="gpu_enabled_override">false</param>
        </destination>
        <destination id="docker_gpu" runner="docker">
            <param id="docker_enabled">true</param>
            <param id="resubmit_destination">docker_cpu_fallback</param>
        </destination>
        <destination id="docker_cpu" runner="docker">
            <param id="docker_enabled">true</param>
        </destination>
        <destination id="docker_cpu_fallback" runner="docker">
            <param id="docker_enabled">true</param>
            <param id="gpu_enabled_override">false</param>
        </destination>
        <destination id="singularity_gpu" runner="singularity">
            <param id="singularity_enabled">true</param>
            <param id="resubmit_destination">singularity_cpu_fallback</param>
        </destination>
        <destination id="singularity_cpu_fallback" runner="singularity">
            <param id="singularity_enabled">true</param>
            <param id="gpu_enabled_override">false</param>
        </destination>
    </destinations>
</job_conf>
"""

#: The overload-hardened job configuration: every concrete destination is
#: *bounded* (``max_queue_depth``) and carries a queue-to-start
#: ``deadline_s``; GPU destinations additionally carry a
#: ``runtime_budget_s`` kill threshold and degrade along their resubmit
#: arm when full (REJECTED_BUSY), so burst storms shed typed work at the
#: edges instead of growing queues without bound.  The CPU fallbacks are
#: the wide end of the funnel — an order of magnitude more headroom —
#: and are the only place jobs shed with ``queue_full``.  Deadlines stay
#: comfortably above the dynamic rule's NVML retry budget, the only
#: backoff between submission and launch (gyan-verify VER503).
GYAN_OVERLOAD_JOB_CONF_XML = """\
<job_conf>
    <plugins>
        <plugin id="local" type="runner" load="galaxy.jobs.runners.local:LocalJobRunner"/>
        <plugin id="docker" type="runner" load="galaxy.jobs.runners.docker:DockerJobRunner"/>
        <plugin id="singularity" type="runner" load="galaxy.jobs.runners.singularity:SingularityJobRunner"/>
    </plugins>
    <destinations default="dynamic">
        <destination id="dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">gpu_destination</param>
        </destination>
        <destination id="docker_dynamic" runner="dynamic">
            <param id="type">python</param>
            <param id="function">docker_destination</param>
        </destination>
        <destination id="local_gpu" runner="local">
            <param id="resubmit_destination">local_cpu_fallback</param>
            <param id="max_queue_depth">4</param>
            <param id="deadline_s">120</param>
            <param id="runtime_budget_s">600</param>
        </destination>
        <destination id="local_cpu" runner="local">
            <param id="gpu_enabled_override">false</param>
            <param id="resubmit_destination">local_cpu_fallback</param>
            <param id="max_queue_depth">32</param>
            <param id="deadline_s">240</param>
        </destination>
        <destination id="local_cpu_fallback" runner="local">
            <param id="gpu_enabled_override">false</param>
            <param id="max_queue_depth">64</param>
            <param id="deadline_s">240</param>
        </destination>
        <destination id="docker_gpu" runner="docker">
            <param id="docker_enabled">true</param>
            <param id="resubmit_destination">docker_cpu_fallback</param>
            <param id="max_queue_depth">4</param>
            <param id="deadline_s">120</param>
            <param id="runtime_budget_s">600</param>
        </destination>
        <destination id="docker_cpu" runner="docker">
            <param id="docker_enabled">true</param>
            <param id="resubmit_destination">docker_cpu_fallback</param>
            <param id="max_queue_depth">32</param>
            <param id="deadline_s">240</param>
        </destination>
        <destination id="docker_cpu_fallback" runner="docker">
            <param id="docker_enabled">true</param>
            <param id="gpu_enabled_override">false</param>
            <param id="max_queue_depth">64</param>
            <param id="deadline_s">240</param>
        </destination>
        <destination id="singularity_gpu" runner="singularity">
            <param id="singularity_enabled">true</param>
            <param id="resubmit_destination">singularity_cpu_fallback</param>
            <param id="max_queue_depth">4</param>
            <param id="deadline_s">120</param>
            <param id="runtime_budget_s">600</param>
        </destination>
        <destination id="singularity_cpu_fallback" runner="singularity">
            <param id="singularity_enabled">true</param>
            <param id="gpu_enabled_override">false</param>
            <param id="max_queue_depth">64</param>
            <param id="deadline_s">240</param>
        </destination>
    </destinations>
</job_conf>
"""


@dataclass
class GyanDeployment:
    """A fully wired GYAN-enabled Galaxy instance."""

    node: ComputeNode
    app: GalaxyApp
    job_config: JobConfig
    mapper: GpuComputationMapper
    monitor: GPUUsageMonitor | None
    registry: ImageRegistry
    docker_runtime: DockerRuntime
    singularity_runtime: SingularityRuntime
    local_runner: LocalRunner
    docker_runner: DockerJobRunner
    singularity_runner: SingularityJobRunner
    #: The health tracker quarantining flaky devices (None when the
    #: deployment was built without resilience).
    health_tracker: DeviceHealthTracker | None = None
    #: The tracer every layer reports spans into (None when the
    #: deployment was built without tracing — layers hold NULL_TRACER).
    tracer: Tracer | None = None
    #: The overload controller (admission, deadlines, shedding, brownout);
    #: None when the deployment was built without ``overload``.
    overload: OverloadController | None = None
    #: The brownout ladder feeding :attr:`overload` (None without it).
    brownout: BrownoutController | None = None
    #: Circuit breaker in front of the mapper's NVML probes.
    nvml_breaker: CircuitBreaker | None = None

    @property
    def gpu_host(self):
        """The node's GPU host (None on CPU-only deployments)."""
        return self.node.gpu_host

    @property
    def clock(self) -> VirtualClock:
        """The deployment-wide virtual clock."""
        return self.node.clock

    # ------------------------------------------------------------------ #
    # convenience entry points
    # ------------------------------------------------------------------ #
    def run_tool(self, tool_id: str, params: dict | None = None) -> GalaxyJob:
        """Submit + run a tool through the full dynamic-mapping path."""
        return self.app.run_job(self.app.submit(tool_id, params))

    def launch_tool(self, tool_id: str, params: dict | None = None) -> LaunchedTool:
        """Submit, map and start a tool, but leave it running.

        The process holds its GPUs (``nvidia-smi`` lists it) until
        ``launched.runner.finish(launched)`` runs the body — how the
        paper's multi-GPU cases overlap jobs.
        """
        job = self.app.submit(tool_id, params)
        destination = self.app.map_destination(job)
        return self.app.runner_for(destination).launch(job, destination)

    def route_tool_to(self, tool_id: str, destination_id: str) -> None:
        """Pin a tool to a destination (Galaxy's ``<tools>`` section)."""
        self.job_config.destination(destination_id)  # validate
        self.job_config.tool_destinations[tool_id] = destination_id

    def set_allocation_strategy(self, strategy: AllocationStrategy | str) -> None:
        """Swap the device-allocation strategy (``"pid"`` / ``"memory"``)."""
        if isinstance(strategy, str):
            strategy = strategy_by_name(strategy)
        self.mapper.strategy = strategy

    def inject(self, plan: InjectionPlan) -> FaultInjector:
        """Arm an injection plan against this deployment's host.

        Returns the armed injector; its events fire as workload activity
        advances the virtual clock.
        """
        if self.gpu_host is None:
            raise ValueError("cannot inject faults into a CPU-only deployment")
        injector = FaultInjector(self.gpu_host, plan)
        injector.arm()
        return injector


def build_deployment(
    node: ComputeNode | None = None,
    allocation_strategy: str = "pid",
    nvidia_docker_installed: bool = True,
    job_conf_xml: str | None = None,
    resilient: bool = False,
    max_resubmit_hops: int | None = None,
    tracer: Tracer | None = None,
    overload: bool = False,
) -> GyanDeployment:
    """Build the paper's deployment on the given (or default testbed) node.

    Fixed rather than options: the Singularity runtime is 3.1 (the
    release whose ``--nv`` bind-mode rejection GYAN works around), a GPU
    node always carries the §V-C hardware usage monitor, and the
    resilient layer's retry policies, health tracker, breakers and
    brownout ladder run on their modules' constants.

    Parameters
    ----------
    node:
        Compute node; defaults to the paper testbed (48 CPUs, 2 K80 dies).
    allocation_strategy:
        ``"pid"`` (paper §IV-C1) or ``"memory"`` (§IV-C2).
    nvidia_docker_installed:
        Model a host with/without the NVIDIA container runtime.
    job_conf_xml:
        Job configuration XML; defaults to :data:`GYAN_JOB_CONF_XML`, or
        :data:`GYAN_RESILIENT_JOB_CONF_XML` when ``resilient`` is set.
    resilient:
        Wire the degradation layer: a :class:`DeviceHealthTracker` that
        quarantines flaky devices and the resubmit-enabled job
        configuration.  The tracker is the one switch: the mapper
        retries NVML queries (the dynamic rules ask the mapper), and the
        Docker and Singularity runners retry container launches, exactly
        when the app has one.  Off by default so the stock (fragile) behaviour
        stays reproducible for chaos comparisons.
    max_resubmit_hops:
        Bound on a job's resubmit chain; defaults to
        :attr:`GalaxyApp.DEFAULT_MAX_RESUBMIT_HOPS`.
    tracer:
        A :class:`~repro.observability.tracing.Tracer` (built against
        this node's clock) threaded through app, mapper and runners.
        ``None`` (the default) leaves every layer on the zero-overhead
        :data:`~repro.observability.tracing.NULL_TRACER`.
    overload:
        Wire the overload-protection layer on top of ``resilient``
        (which it implies): an :class:`OverloadController` enforcing
        per-destination ``max_queue_depth`` bounds (REJECTED_BUSY
        degrades along resubmit arms), virtual-clock deadlines and
        runtime budgets, a :class:`BrownoutController` that sheds GPU
        mapping for low-benefit tools under sustained saturation, and a
        circuit breaker in front of the NVML probe.  Defaults the job
        configuration to :data:`GYAN_OVERLOAD_JOB_CONF_XML`.
    """
    node = node or ComputeNode.paper_testbed()
    if overload:
        resilient = True
        if job_conf_xml is None:
            job_conf_xml = GYAN_OVERLOAD_JOB_CONF_XML
    health_tracker = DeviceHealthTracker() if resilient else None
    if job_conf_xml is None:
        job_conf_xml = (
            GYAN_RESILIENT_JOB_CONF_XML if resilient else GYAN_JOB_CONF_XML
        )
    job_config = parse_job_conf_xml(job_conf_xml)

    if max_resubmit_hops is None:
        max_resubmit_hops = GalaxyApp.DEFAULT_MAX_RESUBMIT_HOPS
    app = GalaxyApp(
        node=node,
        job_config=job_config,
        max_resubmit_hops=max_resubmit_hops,
        tracer=tracer,
    )
    app.health_tracker = health_tracker

    overload_controller: OverloadController | None = None
    brownout_controller: BrownoutController | None = None
    nvml_breaker: CircuitBreaker | None = None
    if overload:
        brownout_controller = BrownoutController()
        overload_controller = OverloadController(
            clock=node.clock,
            metrics=app.metrics_registry,
            tracer=tracer,
            brownout=brownout_controller,
        )
        app.overload = overload_controller

        def on_breaker(now: float, old: BreakerState, new: BreakerState) -> None:
            # A trip lands in the overload metrics (counter + tracer
            # instant) and the device-health event log, so an open
            # breaker reads like a quarantined pseudo-device in
            # post-mortems.
            assert overload_controller is not None and health_tracker is not None
            overload_controller.record_breaker_transition("nvml", now, new)
            health_tracker.events.append(
                HealthEvent(
                    now,
                    "breaker:nvml",
                    f"breaker_{new.value}",
                    f"circuit breaker nvml -> {new.value}",
                )
            )

        nvml_breaker = CircuitBreaker(node.clock, "nvml", on_transition=on_breaker)

    mapper = GpuComputationMapper(
        host=node.gpu_host,
        strategy=strategy_by_name(allocation_strategy),
        health=health_tracker,
        metrics=app.metrics_registry,
        tracer=tracer,
        breaker=nvml_breaker,
        brownout=brownout_controller,
    )
    register_gyan_rules(job_config.rules, mapper)
    monitor = (
        GPUUsageMonitor(node.gpu_host) if node.gpu_host is not None else None
    )

    registry = ImageRegistry()
    docker_runtime = DockerRuntime(
        registry=registry,
        clock=node.clock,
        nvidia_docker_installed=nvidia_docker_installed,
    )
    singularity_runtime = SingularityRuntime(registry=registry, clock=node.clock)
    if node.gpu_host is not None:
        # Container launches consume injected failures from the same
        # fault plane as NVML / nvidia-smi, so one plan drives all three.
        docker_runtime.fault_plane = node.gpu_host.faults
        singularity_runtime.fault_plane = node.gpu_host.faults

    local_runner = LocalRunner(app, gpu_mapper=mapper, usage_monitor=monitor)
    docker_runner = DockerJobRunner(
        app,
        docker=docker_runtime,
        gpu_mapper=mapper,
        gpu_flag_provider=docker_gpu_flag_provider,
        usage_monitor=monitor,
    )
    singularity_runner = SingularityJobRunner(
        app,
        singularity=singularity_runtime,
        gpu_mapper=mapper,
        nv_flag_provider=singularity_nv_provider,
        usage_monitor=monitor,
    )
    app.register_runner("local", local_runner)
    app.register_runner("docker", docker_runner)
    app.register_runner("singularity", singularity_runner)

    from repro.core.energy import EnergyMeter
    from repro.galaxy.metrics_plugins import (
        CoreMetricsPlugin,
        GpuMetricsPlugin,
        MetricsCollector,
    )

    app.metrics_collector = MetricsCollector(
        [
            CoreMetricsPlugin(),
            GpuMetricsPlugin(
                monitor, energy_meter=EnergyMeter(monitor) if monitor else None
            ),
        ]
    )

    return GyanDeployment(
        node=node,
        app=app,
        job_config=job_config,
        mapper=mapper,
        monitor=monitor,
        registry=registry,
        docker_runtime=docker_runtime,
        singularity_runtime=singularity_runtime,
        local_runner=local_runner,
        docker_runner=docker_runner,
        singularity_runner=singularity_runner,
        health_tracker=health_tracker,
        tracer=tracer,
        overload=overload_controller,
        brownout=brownout_controller,
        nvml_breaker=nvml_breaker,
    )
