"""Bounded retry with exponential backoff, clocked on the virtual clock.

Production GPU observability is fallible: NVML queries time out, return
``GPU_IS_LOST`` while a driver recovers, and ``nvidia-smi`` exits
non-zero under load (the gpu_tracker line of work treats every monitor
query as retryable for exactly this reason).  GYAN's mapping decisions
must therefore wrap their queries in a *bounded* retry — bounded because
a mapper that spins forever holds the job queue hostage, and backoff
because hammering a distressed driver makes the distress worse.

All delays advance the :class:`~repro.gpusim.clock.VirtualClock`, never
wall time, so chaos tests run in milliseconds and are byte-for-byte
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.gpusim.clock import VirtualClock
from repro.gpusim.errors import NVMLError

T = TypeVar("T")

#: Each retry waits twice as long as the one before it.
BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class BackoffPolicy:
    """An exponential backoff schedule: how often and how long to wait.

    ``max_attempts`` counts *calls*, not retries: the default of 4 means
    one initial attempt plus up to three retries.  The delay before
    retry *n* (1-based) is ``base_delay_s * BACKOFF_MULTIPLIER**(n-1)``.
    """

    max_attempts: int = 4
    base_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be non-negative")

    def delay_for(self, retry_index: int) -> float:
        """Seconds to wait before retry ``retry_index`` (1-based)."""
        if retry_index < 1:
            raise ValueError("retry_index is 1-based")
        return self.base_delay_s * BACKOFF_MULTIPLIER ** (retry_index - 1)

    def schedule(self) -> list[float]:
        """The full delay schedule (one entry per retry)."""
        return [self.delay_for(i) for i in range(1, self.max_attempts)]


#: A conservative default for NVML/nvidia-smi queries: 4 attempts over
#: 0.25 + 0.5 + 1.0 = 1.75 s of virtual time.
DEFAULT_NVML_RETRY = BackoffPolicy(max_attempts=4, base_delay_s=0.25)
#: Runner launches tolerate slightly more: container daemons take longer
#: to come back than the NVML driver does.
DEFAULT_LAUNCH_RETRY = BackoffPolicy(max_attempts=3, base_delay_s=1.0)


def is_transient_nvml_error(exc: BaseException) -> bool:
    """The retryable classification for GPU observability failures.

    Transient NVML codes (timeout / GPU lost / unknown) and the
    ``RuntimeError("nvidia-smi failed: ...")`` that
    :func:`~repro.core.gpu_usage.get_gpu_usage_snapshot` raises both
    qualify; programming errors (uninitialised library, bad handle) do
    not.
    """
    if isinstance(exc, NVMLError):
        return exc.transient
    if isinstance(exc, RuntimeError):
        return "nvidia-smi failed" in str(exc)
    return False


def retry_call(
    clock: VirtualClock,
    policy: BackoffPolicy,
    fn: Callable[[], T],
    retryable: Callable[[BaseException], bool] = is_transient_nvml_error,
    on_retry: Callable[[int, BaseException], None] | None = None,
) -> T:
    """Call ``fn`` under ``policy``, backing off on the virtual clock.

    Non-retryable exceptions propagate immediately; retryable ones are
    swallowed until the attempt budget is spent, then the last one
    propagates.  ``on_retry(retry_index, exc)`` fires before each wait —
    the container runners use it to count a requeue.
    """
    for attempt in range(1, policy.max_attempts):
        try:
            return fn()
        except Exception as exc:
            if not retryable(exc):
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            clock.advance(policy.delay_for(attempt))
    return fn()
