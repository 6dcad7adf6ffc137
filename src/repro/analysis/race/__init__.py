"""gyan-race: the two-layer determinism checker.

Layer 1 (:mod:`~repro.analysis.race.det_rules`) is a static DET4xx AST
pass over Python source, run both by ``python -m repro race`` and as
part of ``python -m repro lint``.  Layer 2 (:mod:`~repro.analysis.race.
checker`) is a dynamic happens-before check: the
:class:`~repro.analysis.race.clock_shim.PermutingClock` records
same-instant timer ties, replays scenarios under seeded permutations of
each tie (pruning commutative pairs via read/write footprints), and
byte-diffs every emitted artifact; divergence is a DET5xx finding
carrying the minimal tie-flip schedule.

See ``docs/determinism.md`` for the full story.
"""
