"""gyan-perf: the static performance analyzer.

``python -m repro perf`` builds a static call graph over the sources,
seeds a hot-path model from ``@hot_path`` annotations, propagates
hotness transitively, and fires the PERF6xx rules — at **error**
severity on hot paths, **info** elsewhere.  See
``docs/performance-lint.md``.
"""
