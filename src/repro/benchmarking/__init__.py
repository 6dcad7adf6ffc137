"""repro.benchmarking — wall-clock perf harness for the simulation core.

``python -m repro bench`` writes ``BENCH_*.json`` reports with a
deterministic schema (on request; none is committed).
This package defines the harness (:mod:`repro.benchmarking.harness`) and
the named sim-core scenarios (:mod:`repro.benchmarking.scenarios`) that
exercise the hot paths optimised in the fast-path work: the streaming
telemetry monitor, burst dispatch through the snapshot-caching mapper,
chaos runs, and timeline queries.

Unlike everything else in the repo, these numbers are *wall-clock*
measurements — they are the one place the real clock is allowed, which
is why the harness lives outside :mod:`repro.core` and the simulator
never imports it.
"""
