"""gyan-perf: the profile-guided static performance analyzer.

``python -m repro perf`` builds a static call graph over the sources,
seeds a hot-path model from ``@hot_path`` annotations and the
``BENCH_sim_core.json`` scenario→entry-point profile, propagates
hotness transitively, and fires the PERF6xx rules — at **error**
severity on hot paths, **info** elsewhere.  See
``docs/performance-lint.md``.
"""
