"""Typed shed reasons and the overload-rejection exception.

Everything the overload layer refuses to run carries one of these
reasons, end to end: the Galaxy app writes it into
``job.metrics.shed_reason``, the storm driver buckets its
summary by it, and the ``gyan_overload_shed_total{reason=...}`` counter
is labelled with it.  A shed job is *not* a lost job — loss means the
system accepted work and then dropped it silently; shedding is an
explicit, typed, observable refusal.
"""

from __future__ import annotations

import enum


class ShedReason(str, enum.Enum):
    """Why the overload layer refused (or stopped) a piece of work."""

    #: A bounded queue/destination was at its depth limit and no degrade
    #: route had room.
    QUEUE_FULL = "queue_full"
    #: The job's virtual-clock deadline passed while it was still queued.
    DEADLINE_EXPIRED = "deadline_expired"
    #: The brownout ladder reached its shed rung for this tool class.
    BROWNOUT_SHED = "brownout_shed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class RejectedBusy(Exception):
    """A bounded queue refused new work (the REJECTED_BUSY signal).

    Raised by :meth:`OverloadController.admit` when a depth limit is
    hit.  Callers are expected to *handle* it — resubmit along a
    degrade route, hold the job under backpressure, or shed it with a
    typed reason — never to let it crash a deployment.
    """

    def __init__(
        self,
        where: str,
        reason: ShedReason = ShedReason.QUEUE_FULL,
        depth: int | None = None,
        limit: int | None = None,
    ) -> None:
        detail = f"{where}: {reason.value}"
        if depth is not None and limit is not None:
            detail += f" (depth {depth} >= limit {limit})"
        super().__init__(detail)
        self.where = where
        self.reason = reason
        self.depth = depth
        self.limit = limit
