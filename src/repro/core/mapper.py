"""The ``__command_line`` GPU mapping logic (paper Pseudocode 2).

:class:`GpuComputationMapper` is what GYAN adds to Galaxy's local runner:
just before a tool process is spawned it

1. walks the tool's requirements for ``type="compute"`` name ``gpu`` and
   reads the requested minor ID(s) from the ``version`` tag;
2. sets ``GALAXY_GPU_ENABLED`` to ``"true"`` only when the tool wants a
   GPU *and* the host actually has GPUs (checked via the NVML shim);
3. calls ``get_gpu_usage`` and the configured allocation strategy;
4. exports ``CUDA_VISIBLE_DEVICES`` with the selected device IDs.

The mapper is deliberately side-effect-free with respect to the job: it
returns the environment entries; the runner merges and spawns.

It is also the deployment's one NVML availability probe: the dynamic
destination rule (:mod:`repro.core.destination_rules`) asks
:meth:`GpuComputationMapper.available_gpu_count` when it maps the same
job, so retry, circuit breaker, degradation and quarantine apply to
both steps alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.allocation import (
    AllocationDecision,
    AllocationStrategy,
    PidAllocationStrategy,
)
from repro.core.gpu_usage import get_gpu_usage_snapshot
from repro.core.health import DeviceHealthTracker
from repro.core.retry import DEFAULT_NVML_RETRY, is_transient_nvml_error, retry_call
from repro.galaxy.job import GalaxyJob
from repro.galaxy.params import GPU_ENABLED_ENV_VAR
from repro.gpusim.host import GPUHost
from repro.gpusim.nvml import NvmlLibrary
from repro.hotpath import hot_path
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import NULL_TRACER
from repro.resilience.breaker import BreakerOpenError, CircuitBreaker
from repro.resilience.brownout import BrownoutController


@dataclass
class MappingRecord:
    """Audit trail of one mapping decision (kept for tests/benchmarks)."""

    job_id: int
    tool_id: str
    requested_ids: list[str]
    decision: AllocationDecision | None
    gpu_enabled: bool


class GpuComputationMapper:
    """Computes the GPU environment for each job (Pseudocode 2).

    Successful probes are reused across jobs mapped at the same clock
    instant with an unchanged host state, so a burst of N simultaneous
    submissions costs one ``nvidia-smi`` parse instead of N, and the
    launch-time count re-check after the dynamic rule's is a cache hit.
    Correctness rests on the host's
    :attr:`~repro.gpusim.host.GPUHost.state_version`: any allocation,
    free, process transition, health change or pending injected fault
    bumps it and invalidates the cache.  Failed probes are never cached,
    so retry/degradation accounting under NVML flakes is identical to
    an uncached mapper's.

    Parameters
    ----------
    host:
        The node's GPU host (may be ``None`` for CPU-only nodes: every
        job then maps to CPU with ``GALAXY_GPU_ENABLED=false``).
    strategy:
        Device allocation strategy; the paper's default is the Process-ID
        approach, with Process-Allocated-Memory as the refinement.
    health:
        Optional :class:`~repro.core.health.DeviceHealthTracker`.  When
        set, quarantined devices are filtered from every snapshot before
        the strategy sees it, and NVML-attributed failures feed back in.
        Its presence makes the mapper *resilient*: NVML / ``nvidia-smi``
        queries retry under :data:`~repro.core.retry.DEFAULT_NVML_RETRY`
        and a failure that outlasts it degrades the job to the CPU arm;
        without it the error propagates (the pre-resilience behaviour).
    metrics:
        The :class:`~repro.observability.metrics.MetricsRegistry` the
        mapper's diagnostics report into (a private registry is created
        when omitted, so the int-view attributes always work).
    tracer:
        Optional :class:`~repro.observability.tracing.Tracer`; when
        enabled, every ``prepare_environment`` call records a
        ``map.env`` span carrying the chosen strategy, the allocation
        outcome, and whether the snapshot came from cache.
    """

    def __init__(
        self,
        host: GPUHost | None,
        strategy: AllocationStrategy | None = None,
        health: DeviceHealthTracker | None = None,
        metrics: MetricsRegistry | None = None,
        tracer=None,
        breaker: CircuitBreaker | None = None,
        brownout: BrownoutController | None = None,
    ) -> None:
        self.host = host
        self.strategy = strategy or PidAllocationStrategy()
        #: Optional :class:`~repro.core.admission.GpuMemoryAdmissionController`,
        #: attached after construction (the admission ablation does).
        self.admission = None
        self.health = health
        #: Optional circuit breaker around the NVML/nvidia-smi surface.
        #: While open, probes fail fast with :class:`BreakerOpenError`
        #: (degrading the job to CPU) instead of burning retry budget
        #: against a dependency that is clearly down.
        self.breaker = breaker
        #: Optional brownout ladder; at rung >= 1 low-benefit tools lose
        #: GPU mapping before any job is shed (graceful degradation).
        self.brownout = brownout
        self.history: list[MappingRecord] = []
        #: The deployment-wide metrics registry all mapper diagnostics
        #: report into; the legacy int attributes (``degraded_queries``,
        #: ``snapshot_probes``, ``snapshot_cache_hits``) are read-only
        #: views over these counters.
        self.metrics_registry = metrics if metrics is not None else MetricsRegistry()
        self._c_degraded = self.metrics_registry.counter(
            "gyan_mapper_degraded_queries_total",
            "NVML failures the resilient mapper absorbed by degrading to CPU",
        )
        self._c_probes = self.metrics_registry.counter(
            "gyan_mapper_snapshot_probes_total",
            "GPU usage probes that actually hit the nvidia-smi surface",
        )
        self._c_cache_hits = self.metrics_registry.counter(
            "gyan_mapper_snapshot_cache_hits_total",
            "GPU usage probes served from the same-instant snapshot cache",
        )
        self._c_decisions = self.metrics_registry.counter(
            "gyan_mapper_decisions_total",
            "Mapping decisions by strategy and outcome",
            labels=("strategy", "outcome"),
        )
        #: The job lifecycle tracer (NULL_TRACER = disabled, zero cost).
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Whether the most recent usage probe was served from cache
        #: (trace attribute; meaningless before the first probe).
        self._last_probe_cached = False
        self._count_cache: tuple[tuple[float, int], int] | None = None
        self._snapshot_cache: tuple[tuple[float, int], object] | None = None
        self._nvml = NvmlLibrary(host) if host is not None else None
        if self._nvml is not None:
            self._nvml.nvmlInit()

    @property
    def resilient(self) -> bool:
        """Whether observability failures degrade to CPU instead of raising."""
        return self.health is not None

    @staticmethod
    def _degradable(exc: BaseException) -> bool:
        """Failures the resilient mapper absorbs by degrading to CPU."""
        return is_transient_nvml_error(exc) or isinstance(exc, BreakerOpenError)

    # -- registry-backed diagnostic views ------------------------------- #
    @property
    def degraded_queries(self) -> int:
        """NVML failures the resilient mapper absorbed (diagnostics)."""
        return int(self._c_degraded.value)

    @property
    def snapshot_probes(self) -> int:
        """Usage probes that actually ran (vs. served from cache)."""
        return int(self._c_probes.value)

    @property
    def snapshot_cache_hits(self) -> int:
        """Usage probes served from the same-instant snapshot cache."""
        return int(self._c_cache_hits.value)

    # ------------------------------------------------------------------ #
    def _query(self, fn):
        """Run one observability query under retry + circuit breaker.

        An open breaker fails fast (no retry budget burned against a
        dependency that is clearly down); a half-open breaker lets the
        query through as its trial call.  Transient failures feed the
        breaker, successes reset it.
        """
        breaker = self.breaker
        if breaker is not None and not breaker.allows():
            raise BreakerOpenError(breaker.name, breaker.retry_at)
        try:
            if self.resilient:
                result = retry_call(self.host.clock, DEFAULT_NVML_RETRY, fn)
            else:
                result = fn()
        except Exception as exc:
            if breaker is not None and is_transient_nvml_error(exc):
                breaker.record_failure()
            raise
        if breaker is not None:
            breaker.record_success()
        return result

    def _cache_key(self) -> tuple[float, int] | None:
        """Current ``(clock instant, host state version)`` pair.

        Two probes made at equal keys are guaranteed to observe the same
        host, so the second can be served from cache.  ``None`` (no host)
        disables caching.
        """
        if self.host is None:
            return None
        return (self.host.clock.now, self.host.state_version)

    def gpu_count(self) -> int:
        """Device count via NVML — the paper's availability probe."""
        if self._nvml is None:
            return 0
        key = self._cache_key()
        if key is not None and self._count_cache is not None:
            cached_key, cached_count = self._count_cache
            if cached_key == key:
                return cached_count
        try:
            count = self._query(lambda: self._nvml.nvmlDeviceGetCount())
        except Exception as exc:
            if self.resilient and self._degradable(exc):
                self._c_degraded.inc()
                return 0  # treat an unobservable host as GPU-less: CPU arm
            raise
        if key is not None:
            # Re-key after the probe: retry backoff may have advanced the
            # clock and consumed pending flakes (both change the key).
            self._count_cache = (self._cache_key(), count)
        return count

    def available_gpu_count(self) -> int:
        """Devices NVML enumerates minus the quarantined ones.

        The dynamic destination rule's availability question.  The count
        is :meth:`gpu_count` (same retry, breaker, degrade and cache); a
        quarantined device is matched by minor number, the tracker's
        device identity, among the devices the driver still enumerates.
        """
        count = self.gpu_count()
        if count == 0 or self.health is None:
            return count
        quarantined = self.health.quarantined_ids(self.host.clock.now)
        return count - sum(
            1 for device in self.host.healthy_devices()
            if str(device.minor_number) in quarantined
        )

    def _probe_snapshot(self):
        """``get_gpu_usage`` with same-instant memoisation.

        Only successful probes are cached, and downstream consumers
        (health filter, strategies, admission) never mutate a snapshot,
        so sharing one object across a burst is safe.  Failures propagate
        exactly as without the cache.
        """
        key = self._cache_key()
        if key is not None and self._snapshot_cache is not None:
            cached_key, cached_snapshot = self._snapshot_cache
            if cached_key == key:
                self._c_cache_hits.inc()
                self._last_probe_cached = True
                return cached_snapshot
        self._c_probes.inc()
        self._last_probe_cached = False
        snapshot = self._query(lambda: get_gpu_usage_snapshot(self.host))
        if key is not None:
            self._snapshot_cache = (self._cache_key(), snapshot)
        return snapshot

    @hot_path
    def prepare_environment(self, job: GalaxyJob) -> dict[str, str]:
        """Pseudocode 2: env entries for a job about to be spawned.

        Returns ``GALAXY_GPU_ENABLED`` always, and
        ``CUDA_VISIBLE_DEVICES`` when GPU execution was enabled.
        """
        tool = job.tool
        tracer = self.tracer
        span = (
            tracer.begin(
                "map.env", "mapper", job_id=job.job_id, tool=tool.tool_id
            )
            if tracer.enabled
            else None
        )
        # -- walk the requirements for the compute/gpu entry ------------- #
        gpu_flag = tool.requires_gpu
        gpu_id_to_query = tool.requested_gpu_ids

        # Brownout rung >= 1: low-benefit tools (rung >= 2: all tools)
        # lose their GPU mapping before anything is shed — graceful
        # degradation reclaims accelerator capacity cheapest-first.
        browned_out = bool(
            gpu_flag
            and self.brownout is not None
            and not self.brownout.allows_gpu(tool.tool_id)
        )
        if browned_out:
            env = {GPU_ENABLED_ENV_VAR: "false"}
            self._c_decisions.labels(
                strategy=self.strategy.name, outcome="brownout"
            ).inc()
            self.history.append(
                MappingRecord(
                    job_id=job.job_id,
                    tool_id=tool.tool_id,
                    requested_ids=gpu_id_to_query,
                    decision=None,
                    gpu_enabled=False,
                )
            )
            if span is not None:
                tracer.end(
                    span,
                    strategy=self.strategy.name,
                    outcome="brownout",
                    brownout_level=self.brownout.level,
                    gpu_enabled=False,
                )
            return env

        gpu_enabled = bool(gpu_flag and self.gpu_count() > 0)
        env: dict[str, str] = {GPU_ENABLED_ENV_VAR: "true" if gpu_enabled else "false"}

        decision: AllocationDecision | None = None
        if gpu_enabled:
            assert self.host is not None
            try:
                snapshot = self._probe_snapshot()
            except Exception as exc:
                if not (self.resilient and self._degradable(exc)):
                    if span is not None:
                        tracer.end(span, outcome="error", error=repr(exc))
                    raise
                # Observability is down but jobs must keep flowing:
                # degrade this job to the CPU arm.
                self._c_degraded.inc()
                self._c_decisions.labels(
                    strategy=self.strategy.name, outcome="degraded"
                ).inc()
                env[GPU_ENABLED_ENV_VAR] = "false"
                self.history.append(
                    MappingRecord(
                        job_id=job.job_id,
                        tool_id=tool.tool_id,
                        requested_ids=gpu_id_to_query,
                        decision=None,
                        gpu_enabled=False,
                    )
                )
                if span is not None:
                    tracer.end(
                        span,
                        strategy=self.strategy.name,
                        outcome="degraded",
                        degraded_query=True,
                        gpu_enabled=False,
                    )
                return env
            if self.health is not None:
                snapshot = self.health.filter_snapshot(
                    snapshot, now=self.host.clock.now
                )
            decision = self.strategy.select(gpu_id_to_query, snapshot)
            if not decision.is_empty and self.admission is not None:
                admission = self.admission.check(job, decision, snapshot)
                decision = admission.decision if admission.admitted else None
            if decision is None or decision.is_empty:
                # No usable device after all — fall back to CPU,
                # user-agnostically, as Challenge II requires.
                env[GPU_ENABLED_ENV_VAR] = "false"
                gpu_enabled = False
            else:
                env["CUDA_VISIBLE_DEVICES"] = decision.cuda_visible_devices

        self._c_decisions.labels(
            strategy=self.strategy.name,
            outcome="gpu" if gpu_enabled else "cpu",
        ).inc()
        self.history.append(
            MappingRecord(
                job_id=job.job_id,
                tool_id=tool.tool_id,
                requested_ids=gpu_id_to_query,
                decision=decision,
                gpu_enabled=gpu_enabled,
            )
        )
        if span is not None:
            tracer.end(
                span,
                strategy=self.strategy.name,
                outcome="gpu" if gpu_enabled else "cpu",
                gpu_enabled=gpu_enabled,
                gpu_ids=decision.gpu_ids if decision is not None else (),
                reason=decision.reason if decision is not None else "",
                snapshot_cache_hit=(
                    self._last_probe_cached if gpu_flag else False
                ),
            )
        return env

    def last_decision(self) -> AllocationDecision | None:
        """The most recent allocation decision (None before any mapping)."""
        for record in reversed(self.history):
            if record.decision is not None:
                return record.decision
        return None
