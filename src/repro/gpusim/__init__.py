"""Simulated NVIDIA GPU substrate.

The GYAN paper integrates GPU awareness into Galaxy by *observing* GPU
state through ``pynvml`` and ``nvidia-smi -q -x`` and by *steering*
processes with ``CUDA_VISIBLE_DEVICES`` and container launch flags.  This
package provides a software model of that observable surface:

``clock``
    A virtual monotone clock so that multi-hour workloads (the paper's
    Bonito CPU runs exceed 210 hours) can be simulated in milliseconds of
    wall time.
``device`` / ``memory`` / ``process``
    The device model — a Tesla K80 board is two GK210 dies, each with its
    own framebuffer, SMs, and process table.
``host``
    A machine with *N* visible GPU devices and a host process table; it is
    the object that ``nvml`` and ``smi`` render.
``nvml``
    A ``pynvml``-compatible call surface backed by a :class:`~repro.gpusim.host.GPUHost`.
``smi``
    An ``nvidia-smi`` emulator producing the real ``-q -x`` XML schema and
    the familiar console table (paper Figs. 10 and 11).
``kernels``
    A mechanistic timing model for device kernels and PCIe transfers.
``profiler``
    An NVProf-like API-call accounting and stall-attribution model used to
    regenerate the hotspot figures (paper Figs. 4 and 6).
"""
