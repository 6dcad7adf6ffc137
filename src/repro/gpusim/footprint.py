"""Read/write footprint hooks for the determinism checker (gyan-race).

The happens-before layer of ``python -m repro race`` permutes the firing
order of same-instant timer callbacks and byte-diffs the artifacts.  A
naive checker permutes *every* tie; a DPOR-style one prunes pairs that
provably commute — two callbacks whose read/write footprints on shared
simulator state are disjoint cannot influence each other, so their
permutations are equivalent and need not be replayed.

This module is the footprint channel.  It is deliberately tiny and
dependency-free so the instrumented hot paths (:class:`~repro.gpusim.
memory.MemoryAllocator`, :class:`~repro.gpusim.clock.Timeline`,
:class:`~repro.core.health.DeviceHealthTracker`) pay a single module
attribute ``is None`` check when no checker is attached — the shipped
simulator's fast path is untouched.

Usage (checker side)::

    recorder = FootprintRecorder()
    with recorder.installed():
        ... run the instrumented scenario ...
    recorder.footprint_for(label)   # -> Footprint(reads=..., writes=...)

Instrumented state keys are short strings: ``alloc:<device>``,
``timeline``, ``health`` — coarse on purpose.  False sharing only costs
an extra replay; a missed conflict would hide a race, so keys err
coarse.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: The installed recorder, or ``None`` (the default, zero-overhead case).
#: Module-global rather than thread/context-local: the simulator is
#: single-threaded by construction (one virtual clock drives everything).
_RECORDER: "FootprintRecorder | None" = None


@dataclass
class Footprint:
    """Read and write sets one attributed execution touched."""

    reads: set[str] = field(default_factory=set)
    writes: set[str] = field(default_factory=set)

    def conflicts_with(self, other: "Footprint") -> bool:
        """True unless the two footprints provably commute.

        Two executions commute when neither writes what the other reads
        or writes.  Disjoint footprints (including two pure readers of
        the same state) are the prunable, commuting case.
        """
        return bool(
            self.writes & (other.reads | other.writes)
            or other.writes & (self.reads | self.writes)
        )

    @property
    def empty(self) -> bool:
        return not self.reads and not self.writes


class FootprintRecorder:
    """Collects per-label footprints while installed.

    The clock shim attributes execution spans by setting
    :attr:`current_label` around each tie-member callback; reads/writes
    reported while no label is set fall into the ``""`` bucket and are
    ignored by the commutativity analysis (they belong to the
    synchronous main line, which permutation never reorders).
    """

    def __init__(self) -> None:
        self.current_label: str = ""
        self._footprints: dict[str, Footprint] = {}

    # -- hook side (called from instrumented simulator state) ---------- #
    def read(self, key: str) -> None:
        self._footprints.setdefault(
            self.current_label, Footprint()
        ).reads.add(key)

    def write(self, key: str) -> None:
        self._footprints.setdefault(
            self.current_label, Footprint()
        ).writes.add(key)

    # -- checker side --------------------------------------------------- #
    def footprint_for(self, label: str) -> Footprint:
        """The recorded footprint for one attribution label (may be empty)."""
        return self._footprints.get(label, Footprint())

    @contextmanager
    def attributed(self, label: str) -> Iterator[None]:
        """Attribute hook traffic inside the block to ``label``."""
        previous = self.current_label
        self.current_label = label
        try:
            yield
        finally:
            self.current_label = previous

    @contextmanager
    def installed(self) -> Iterator["FootprintRecorder"]:
        """Install this recorder as the module-global hook target."""
        global _RECORDER
        previous = _RECORDER
        _RECORDER = self
        try:
            yield self
        finally:
            _RECORDER = previous


def recorder() -> FootprintRecorder | None:
    """The installed recorder, or ``None`` — the instrumentation guard."""
    return _RECORDER
