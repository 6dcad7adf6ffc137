"""VER5xx: overload-protection coverage of a deployment's routing graph.

The overload layer (``repro.resilience``) only protects what the
job_conf declares: ``max_queue_depth`` bounds a destination's inflight
depth, ``deadline_s`` sheds stale queued jobs, and ``resubmit``
arms give a bounced job somewhere to degrade to.  These knobs interact,
and a partially-declared deployment can be *worse* than an undeclared
one — a bound with no degrade arm converts bursts straight into sheds,
and an unbounded destination behind bounded ones silently absorbs the
very pile-up the bounds were meant to prevent.

Three checks, all static over the :class:`DeploymentIR`:

* VER501 — the deployment opts into bounding (some concrete destination
  declares ``max_queue_depth``) but another concrete destination is
  unbounded.  Silent on fully-unbounded (stock) configs: not opting in
  is fine, half-opting-in is the bug.
* VER502 — a bounded destination that can grant GPU execution has no
  ``resubmit`` arm: overflow there sheds immediately instead of
  degrading to a CPU arm.  CPU-pinned destinations
  (``gpu_enabled_override`` false) are exempt — they are the wide end
  of the degradation funnel, where shedding is the designed outcome.
* VER503 — a ``deadline_s`` that is not longer than the total backoff
  of the dynamic rule's NVML probe (:data:`DEFAULT_NVML_RETRY`), the one
  retry between submission and the runner's deadline check: any job
  whose mapping probe hits transient faults until the budget is spent
  has expired before it reaches the runner, so the declared deadline
  silently cancels the retry budget.
"""

from __future__ import annotations

from repro.analysis import rules as R
from repro.analysis.config_rules import ConfigContext
from repro.analysis.findings import Finding
from repro.analysis.verifier.ir import DeploymentIR, DestinationNode
from repro.core.retry import DEFAULT_NVML_RETRY


def _concrete(ir: DeploymentIR) -> list[DestinationNode]:
    """Concrete (non-dynamic) destinations, in declaration-stable order."""
    return [
        ir.destinations[dest_id]
        for dest_id in sorted(ir.destinations)
        if not ir.destinations[dest_id].destination.is_dynamic
    ]


def analyze_overload(ir: DeploymentIR, ctx: ConfigContext) -> list[Finding]:
    findings: list[Finding] = []
    concrete = _concrete(ir)
    bounded = [
        node for node in concrete
        if node.destination.max_queue_depth is not None
    ]

    # VER501: half-bounded deployments leak the burst to the unbounded
    # destination.  A deployment with no bounds anywhere never opted in.
    if bounded:
        for node in concrete:
            if node.destination.max_queue_depth is not None:
                continue
            findings.append(
                R.VER501.finding(
                    f"destination {node.destination_id!r} has no "
                    f"max_queue_depth while "
                    f"{bounded[0].destination_id!r} (and "
                    f"{len(bounded) - 1} other(s)) are bounded: a burst "
                    "that bounces off the bounded destinations piles up "
                    "here without limit",
                    node.span.path,
                    node.span.line,
                    suggestion="declare max_queue_depth on every concrete "
                    "destination of an overload-protected deployment",
                )
            )

    for node in bounded:
        dest = node.destination
        # VER502: a bounded GPU-granting destination with nowhere to
        # degrade turns every REJECTED_BUSY into an immediate shed.
        if node.grants_gpu() and dest.resubmit_destination is None:
            findings.append(
                R.VER502.finding(
                    f"GPU destination {node.destination_id!r} bounds its "
                    f"queue at {dest.max_queue_depth} but declares no "
                    "resubmit arm: overflow shed outright instead of "
                    "degrading to a CPU destination",
                    node.span.path,
                    node.span.line,
                    suggestion="add a resubmit_destination param pointing "
                    "at a CPU fallback destination",
                )
            )

    # VER503: deadlines shorter than the map-time NVML retry budget
    # guarantee a deadline shed for any job whose probe used it all.
    budget = sum(DEFAULT_NVML_RETRY.schedule())
    for node in concrete:
        deadline = node.destination.deadline_s
        if deadline is None or deadline > budget:
            continue
        findings.append(
            R.VER503.finding(
                f"destination {node.destination_id!r} declares "
                f"deadline_s={deadline:g}, not longer than the "
                f"{budget:g}s the dynamic rule's NVML retry policy can "
                "spend backing off before launch: a job whose mapping "
                "probe keeps hitting transient faults expires before it "
                "reaches the runner",
                node.span.path,
                node.span.line,
                suggestion=f"raise deadline_s above {budget:g} or shrink "
                "the retry policy's schedule",
            )
        )
    return findings
