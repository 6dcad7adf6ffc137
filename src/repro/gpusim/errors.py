"""Exception hierarchy for the GPU simulator.

Every failure mode the real stack exposes to GYAN has a counterpart here,
so the orchestration code can be exercised against realistic errors
(device OOM, invalid ``CUDA_VISIBLE_DEVICES`` entries, NVML use before
initialisation, and allocator misuse).
"""

from __future__ import annotations


class GpuSimError(Exception):
    """Base class for all GPU-simulator errors."""


class DeviceOutOfMemoryError(GpuSimError):
    """Raised when a device allocation exceeds the remaining framebuffer.

    Mirrors CUDA's ``cudaErrorMemoryAllocation`` — the error a real tool
    would hit when a job is packed onto a GPU whose memory is exhausted,
    which is precisely the scenario the paper's *Process Allocated Memory*
    strategy is designed to avoid.
    """

    def __init__(self, requested: int, free: int, device_index: int) -> None:
        self.requested = requested
        self.free = free
        self.device_index = device_index
        super().__init__(
            f"out of memory on GPU {device_index}: "
            f"requested {requested} B, {free} B free"
        )


class InvalidDeviceError(GpuSimError):
    """Raised for a device index outside the host's (masked) device set."""

    def __init__(self, index: object, available: object) -> None:
        self.index = index
        self.available = available
        super().__init__(f"invalid device {index!r}; available: {available!r}")


class DoubleFreeError(GpuSimError):
    """Raised when an :class:`~repro.gpusim.memory.Allocation` is freed twice."""


class NVMLError(GpuSimError):
    """Raised by the :mod:`repro.gpusim.nvml` shim.

    ``pynvml`` raises ``NVMLError`` subclasses with numeric return codes;
    we keep the codes that matter for GYAN's control flow.  The last
    three — ``TIMEOUT``, ``GPU_IS_LOST`` and ``UNKNOWN`` — are the codes
    production NVML returns under driver distress, and the only ones the
    resilience layer treats as retryable.
    """

    NVML_ERROR_UNINITIALIZED = 1
    NVML_ERROR_INVALID_ARGUMENT = 2
    NVML_ERROR_NOT_FOUND = 6
    NVML_ERROR_TIMEOUT = 10
    NVML_ERROR_GPU_IS_LOST = 15
    NVML_ERROR_UNKNOWN = 999

    #: Codes a caller may reasonably retry: the query might succeed on the
    #: next attempt (driver hiccup) or after re-planning (device fell off
    #: the bus and the count shrinks).
    TRANSIENT_CODES = frozenset(
        {NVML_ERROR_TIMEOUT, NVML_ERROR_GPU_IS_LOST, NVML_ERROR_UNKNOWN}
    )

    def __init__(self, code: int, message: str) -> None:
        self.code = code
        super().__init__(f"NVML error {code}: {message}")

    @property
    def transient(self) -> bool:
        """Whether retrying the failed call could plausibly succeed."""
        return self.code in self.TRANSIENT_CODES


class DeviceLostError(GpuSimError):
    """A CUDA call touched a device that has fallen off the bus.

    Mirrors ``cudaErrorDevicesUnavailable`` / XID-style device loss: the
    context is gone, every subsequent call on it fails, and the hosting
    process can only exit with an error.
    """

    def __init__(self, device_index: int, operation: str = "cuda call") -> None:
        self.device_index = device_index
        self.operation = operation
        super().__init__(
            f"GPU {device_index} is lost (XID error): {operation} failed "
            "with cudaErrorDevicesUnavailable"
        )


class ProcessError(GpuSimError):
    """Raised for host process-table misuse (unknown PID, double kill)."""


class ClockError(GpuSimError):
    """Raised when the virtual clock would move backwards or past its horizon."""
