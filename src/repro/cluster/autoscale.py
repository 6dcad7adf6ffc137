"""Autoscaling primitives for the fleet tier: pools, signals, cost.

The fleet simulator (:mod:`repro.cluster.fleet`) runs a *static* fleet;
real Galaxy capacity is elastic.  This module adds the pieces an
elastic fleet needs, shared between the columnar simulator and the
per-job reference oracle so the *decision* logic cannot drift between
them while the *state* each decides over stays independently computed:

* :class:`AutoscalerConfig` — the knobs: pool bounds, evaluation
  cadence, provisioning lag, scale signals, hysteresis, cooldown.
* :class:`AutoscaleController` — the pure decision state machine.  Fed
  windowed signals (queue depth, shed rate, slot utilisation) at each
  evaluation instant it returns a signed node delta.  Both fleet
  implementations instantiate their own controller and compute its
  inputs from their own bookkeeping (columnar aggregate counters vs
  naive per-node scans), so digest parity still exercises two
  independent state pipelines.
* :class:`NodeSecondsMeter` — node-second cost accounting on the
  virtual clock.  Charges accumulate only at commission/decommission
  instants, so both implementations perform the identical float-add
  sequence and the reported cost is bit-identical.
* Small shared helpers (:func:`pool_of`, :func:`reserve_slots`) whose
  arithmetic must round identically on both sides.

Pools: node indices below the configured ``min_nodes`` form the *base*
pool (pool 0, always on); the rest form the *elastic* pool (pool 1),
commissioned and drained by the controller.  A static fleet is a
single base pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Placement policies understood by the fleet tier (see fleet.py).
PLACEMENT_SPREAD = "spread"
PLACEMENT_PACK = "pack"
PLACEMENT_BENEFIT = "benefit-aware"
PLACEMENT_POLICIES: tuple[str, ...] = (
    PLACEMENT_SPREAD, PLACEMENT_PACK, PLACEMENT_BENEFIT,
)

#: Pool identifiers in the job store's ``pool`` column.
POOL_BASE = 0
POOL_ELASTIC = 1


def pool_of(node, base_nodes: int):
    """Pool id of ``node`` given the base-pool size.

    Plain arithmetic, so ``node`` may be one int or a NumPy integer
    array (the job store derives a whole column with it)."""
    return POOL_BASE + (node >= base_nodes) * (POOL_ELASTIC - POOL_BASE)


def reserve_slots(
    fraction: float, usable_nodes: int, slots_per_node: int
) -> int:
    """GPU slots held back for high-benefit tools (benefit-aware policy).

    One shared expression so the columnar path and the reference oracle
    round the float product identically.
    """
    return int(fraction * (usable_nodes * slots_per_node))


@dataclass(frozen=True)
class AutoscalerConfig:
    """Knobs of the elastic node pool.

    Scale-up fires when queued jobs exceed ``scale_up_queue_per_node``
    per usable node *or* anything shed since the last evaluation;
    scale-down fires when nothing shed and GPU slot utilisation sits at
    or below ``scale_down_utilization`` (queues may still hold stragglers
    — queues are per-node, so a drained victim's leftovers resubmit
    through the failure hop path and re-place onto the surviving pool,
    which is exactly how a stale queue imbalance gets fixed).
    Either signal must persist for ``hysteresis_windows`` consecutive
    evaluations, and actions are rate-limited by ``cooldown_s``.
    Provisioned nodes arrive warm only ``provision_lag_s`` later on the
    virtual clock; drained nodes stop accepting work immediately but
    keep costing node-seconds until their last running job finishes.
    """

    min_nodes: int = 100
    max_nodes: int = 1000
    #: Nodes commissioned at t=0 (defaults to ``min_nodes``).
    initial_nodes: int | None = None
    eval_interval_s: float = 300.0
    provision_lag_s: float = 900.0
    scale_up_queue_per_node: float = 2.0
    scale_down_utilization: float = 0.30
    scale_up_step: int = 50
    scale_down_step: int = 25
    hysteresis_windows: int = 2
    cooldown_s: float = 600.0

    def __post_init__(self) -> None:
        if self.min_nodes < 1:
            raise ValueError("autoscaler needs min_nodes >= 1")
        if self.max_nodes < self.min_nodes:
            raise ValueError("autoscaler needs max_nodes >= min_nodes")
        initial = self.initial_nodes
        if initial is not None and not (
            self.min_nodes <= initial <= self.max_nodes
        ):
            raise ValueError(
                f"initial_nodes {initial} outside "
                f"[{self.min_nodes}, {self.max_nodes}]"
            )
        # Instants on the event heap must be finite: a NaN one compares
        # false against everything and its events are never drained.
        if not 0.0 < self.eval_interval_s < math.inf:
            raise ValueError(
                "eval_interval_s must be positive and finite, "
                f"got {self.eval_interval_s}"
            )
        if not 0.0 <= self.provision_lag_s < math.inf:
            raise ValueError(
                "provision_lag_s must be non-negative and finite, "
                f"got {self.provision_lag_s}"
            )
        if self.scale_up_step < 1 or self.scale_down_step < 1:
            raise ValueError("scale steps must be >= 1 node")
        if self.hysteresis_windows < 1:
            raise ValueError("hysteresis_windows must be >= 1")
        if not 0.0 <= self.cooldown_s < math.inf:
            raise ValueError(
                "cooldown_s must be non-negative and finite, "
                f"got {self.cooldown_s}"
            )
        if not 0.0 <= self.scale_down_utilization < 1.0:
            raise ValueError("scale_down_utilization must be in [0, 1)")
        if self.scale_up_queue_per_node < 0:
            raise ValueError("scale_up_queue_per_node cannot be negative")

    @property
    def start_nodes(self) -> int:
        return self.initial_nodes if self.initial_nodes is not None \
            else self.min_nodes


class AutoscaleController:
    """The pure scale decision: windowed signals in, node delta out.

    Streaks accumulate even during cooldown, so a persistent signal
    acts at the first evaluation after the cooldown expires rather
    than restarting its hysteresis count.
    """

    __slots__ = ("config", "_up_streak", "_down_streak", "_last_action")

    def __init__(self, config: AutoscalerConfig) -> None:
        self.config = config
        self._up_streak = 0
        self._down_streak = 0
        self._last_action = -float("inf")

    def evaluate(
        self,
        now: float,
        *,
        queued_jobs: int,
        shed_delta: int,
        busy_slots: int,
        usable_slots: int,
        usable_nodes: int,
        provisioned: int,
        removable: int,
    ) -> int:
        """Signed node delta for this evaluation window.

        ``provisioned`` counts nodes that will remain after in-flight
        changes settle (active minus draining plus pending), so a
        pending provision is never double-ordered; ``removable`` caps
        scale-in at the drainable elastic nodes.
        """
        cfg = self.config
        up = shed_delta > 0 or (
            queued_jobs > cfg.scale_up_queue_per_node * max(1, usable_nodes)
        )
        down = (
            not up
            and shed_delta == 0
            and usable_slots > 0
            and busy_slots <= cfg.scale_down_utilization * usable_slots
        )
        self._up_streak = self._up_streak + 1 if up else 0
        self._down_streak = self._down_streak + 1 if down else 0
        if now - self._last_action < cfg.cooldown_s:
            return 0
        if self._up_streak >= cfg.hysteresis_windows:
            delta = min(cfg.scale_up_step, cfg.max_nodes - provisioned)
            if delta > 0:
                self._last_action = now
                self._up_streak = 0
                self._down_streak = 0
                return delta
            return 0
        if self._down_streak >= cfg.hysteresis_windows:
            delta = min(
                cfg.scale_down_step, provisioned - cfg.min_nodes, removable
            )
            if delta > 0:
                self._last_action = now
                self._up_streak = 0
                self._down_streak = 0
                return -delta
        return 0


#: Schema tag of declarative autoscale plans (JSON files shipped next to
#: a job_conf and statically checked by ``python -m repro verify``).
AUTOSCALE_SCHEMA = "gyan.autoscale/v1"

#: Pool-section keys that map straight onto :class:`AutoscalerConfig`.
_POOL_KEYS = frozenset(AutoscalerConfig.__dataclass_fields__)


@dataclass(frozen=True)
class WorkloadEnvelope:
    """The demand the operator expects the pool to absorb.

    ``peak_gpu_jobs_per_hour`` and ``mean_gpu_seconds`` give the
    Little's-law slot demand at the worst hour of the day (storms
    included); ``deadline_s`` is the queue-wait deadline jobs shed at,
    when the deployment enforces one.
    """

    peak_gpu_jobs_per_hour: float
    mean_gpu_seconds: float
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.peak_gpu_jobs_per_hour <= 0:
            raise ValueError("peak_gpu_jobs_per_hour must be positive")
        if self.mean_gpu_seconds <= 0:
            raise ValueError("mean_gpu_seconds must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when declared")

    @property
    def peak_slot_demand(self) -> int:
        """Concurrent GPU slots the declared peak occupies (Little's
        law: arrival rate x mean service time)."""
        return math.ceil(
            self.peak_gpu_jobs_per_hour * self.mean_gpu_seconds / 3600.0
        )


@dataclass(frozen=True)
class AutoscalePlan:
    """One declarative ``gyan.autoscale/v1`` plan: pool + envelope.

    The pool section reuses :class:`AutoscalerConfig` verbatim, so a
    plan that loads is a config the fleet simulator accepts — the
    verifier and the runtime cannot drift on what the knobs mean.
    """

    name: str
    gpus_per_node: int
    config: AutoscalerConfig
    envelope: WorkloadEnvelope | None = None

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")

    @property
    def max_slots(self) -> int:
        """GPU slots available with the pool fully scaled out."""
        return self.config.max_nodes * self.gpus_per_node

    @property
    def reaction_s(self) -> float:
        """Worst-case seconds from signal onset to the first elastic
        node arriving warm: the hysteresis windows the signal must
        persist through, then the provisioning lag."""
        cfg = self.config
        return cfg.hysteresis_windows * cfg.eval_interval_s \
            + cfg.provision_lag_s

    @classmethod
    def from_dict(cls, data: dict) -> AutoscalePlan:
        if data.get("schema") != AUTOSCALE_SCHEMA:
            raise ValueError(
                f"not a {AUTOSCALE_SCHEMA} plan: "
                f"schema={data.get('schema')!r}"
            )
        name = data.get("name")
        if not isinstance(name, str) or not name:
            raise ValueError("autoscale plan needs a non-empty name")
        pool = data.get("pool")
        if not isinstance(pool, dict):
            raise ValueError("autoscale plan needs a pool section")
        pool = dict(pool)
        gpus_per_node = pool.pop("gpus_per_node", None)
        if not isinstance(gpus_per_node, int):
            raise ValueError("pool.gpus_per_node must be an integer")
        unknown = sorted(set(pool) - _POOL_KEYS)
        if unknown:
            raise ValueError(f"unknown pool keys: {', '.join(unknown)}")
        envelope = None
        if "workload" in data:
            workload = data["workload"]
            if not isinstance(workload, dict):
                raise ValueError("workload section must be an object")
            envelope = WorkloadEnvelope(**workload)
        return cls(
            name=name,
            gpus_per_node=gpus_per_node,
            config=AutoscalerConfig(**pool),
            envelope=envelope,
        )


class NodeSecondsMeter:
    """Node-second cost on the virtual clock.

    ``set_active`` charges the elapsed interval at the *old* node count
    and records the new one; both fleet implementations call it at the
    identical (instant, count) sequence, so ``total`` is bit-identical
    across them.
    """

    __slots__ = ("total", "_active", "_since")

    def __init__(self, active: int) -> None:
        self.total = 0.0
        self._active = active
        self._since = 0.0

    def advance(self, now: float) -> None:
        if now > self._since:
            self.total += self._active * (now - self._since)
            self._since = now

    def set_active(self, now: float, active: int) -> None:
        self.advance(now)
        self._active = active
