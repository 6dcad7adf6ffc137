"""Spans recorded from outside the program, and the per-layer fold.

The benchmark wraps calls into each layer's public callables by
replacing class and module attributes at run time; nothing under
``src/`` is edited.  A span is ``(key, start, end, parent, op)``:
``key`` names the layer boundary (``galaxy.app.submit``), ``parent`` is
the index of the span that caused it (-1 for a root the benchmark opened
itself) and ``op`` is the benchmark operation it belongs to.  Spans stay
in memory; :func:`fold` turns them into the layer table.

A layer's self time is its spans' duration minus the part their direct
children cover, so the self times of one repeat sum to its root spans
exactly — that identity is what lets a reader treat a layer's share as
the ceiling of what speeding it up can save.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

ROOT_KEY = "bench.driver"

#: (key, module, function) — replaced in every ``repro`` module that
#: imported the function by name, so ``from x import f`` callers are
#: covered too.
FUNCTIONS = (
    ("cli", "repro.cli", "main"),
    ("core.orchestrator.build", "repro.core.orchestrator", "build_deployment"),
    ("galaxy.tool_xml.parse", "repro.galaxy.tool_xml", "parse_tool_xml"),
    ("galaxy.job_conf.parse", "repro.galaxy.job_conf", "parse_job_conf_xml"),
    ("core.gpu_usage.snapshot", "repro.core.gpu_usage", "get_gpu_usage_snapshot"),
    ("gpusim.smi.query", "repro.gpusim.smi", "run_query"),
    ("workloads.storm.run", "repro.workloads.storm", "run_storm"),
    ("workloads.diurnal.generate", "repro.workloads.diurnal", "diurnal_batches"),
    ("cluster.jobstore.wait_pct", "repro.cluster.jobstore", "gpu_wait_percentile"),
)

#: (key, module, class, method).  Runner ``launch`` is wrapped on the
#: concrete runners only: they call ``super().launch`` and wrapping the
#: base too would count every launch twice.  ``_on_span`` is the one
#: private name here — the monitor does its sampling in that clock
#: listener and has no public entry for it.
METHODS = (
    ("galaxy.app.submit", "repro.galaxy.app", "GalaxyApp", "submit"),
    ("galaxy.app.map", "repro.galaxy.app", "GalaxyApp", "map_destination"),
    ("core.mapper.prepare", "repro.core.mapper", "GpuComputationMapper", "prepare_environment"),
    ("galaxy.runners.launch", "repro.galaxy.runners.local", "LocalRunner", "launch"),
    ("galaxy.runners.launch", "repro.galaxy.runners.docker", "DockerJobRunner", "launch"),
    ("galaxy.runners.launch", "repro.galaxy.runners.singularity", "SingularityJobRunner", "launch"),
    ("galaxy.runners.finish", "repro.galaxy.runners.base", "BaseJobRunner", "finish"),
    ("gpusim.clock.advance", "repro.gpusim.clock", "VirtualClock", "advance_to"),
    ("core.monitor.busy", "repro.core.monitor", "GPUUsageMonitor", "start"),
    ("core.monitor.busy", "repro.core.monitor", "GPUUsageMonitor", "stop"),
    ("core.monitor.busy", "repro.core.monitor", "GPUUsageMonitor", "_on_span"),
    ("cluster.fleet.ctor", "repro.cluster.fleet", "FleetSimulator", "__init__"),
    ("cluster.fleet.run", "repro.cluster.fleet", "FleetSimulator", "run"),
    ("cluster.fleet.to_json", "repro.cluster.fleet", "FleetResult", "to_json"),
    ("cluster.jobstore.append", "repro.cluster.jobstore", "JobStore", "append_batch"),
    ("cluster.jobstore.start", "repro.cluster.jobstore", "JobStore", "start_range"),
    ("cluster.jobstore.queue", "repro.cluster.jobstore", "JobStore", "queue_range"),
    ("cluster.jobstore.complete", "repro.cluster.jobstore", "JobStore", "complete_range"),
    ("cluster.jobstore.shed", "repro.cluster.jobstore", "JobStore", "shed_range"),
    ("cluster.jobstore.fail", "repro.cluster.jobstore", "JobStore", "fail_range"),
    ("cluster.jobstore.resubmit", "repro.cluster.jobstore", "JobStore", "resubmit_range"),
    ("cluster.jobstore.digest", "repro.cluster.jobstore", "JobStore", "digest"),
    ("cluster.autoscale.evaluate", "repro.cluster.autoscale", "AutoscaleController", "evaluate"),
    ("cluster.autoscale.meter", "repro.cluster.autoscale", "NodeSecondsMeter", "set_active"),
)

EXECUTOR_KEY = "tools.executors.exec"


class Tracer:
    """Records spans while a root is open; roots are always recorded.

    The benchmark opens one root per timed region (:meth:`begin_root` /
    :meth:`end_root`) whether or not the wrappers are installed, so the
    traced and untraced runs time exactly the same regions.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        #: Objects the wrapped calls returned, by key, for the workload
        #: to read counters from after the repeat.
        self.kept: dict[str, list] = {
            "core.orchestrator.build": [],
            "workloads.diurnal.generate": [],
        }
        #: Instants of the progress marks (see :meth:`mark_calls`) inside
        #: the latest root, and that root's (start, end).
        self.marks: list[float] = []
        self.last_root = (0.0, 0.0)
        self._stack: list[int] = []
        self._op = 0

    # -- roots: the benchmark's own timed regions ----------------------- #
    def begin_root(self, op: int) -> None:
        self._op = op
        self.marks.clear()
        self._stack.append(len(self.spans))
        self.spans.append((ROOT_KEY, perf_counter(), 0.0, -1, op))

    def end_root(self) -> float:
        """Close the open root; returns its duration in host seconds."""
        end = perf_counter()
        index = self._stack.pop()
        key, start, _, parent, op = self.spans[index]
        self.spans[index] = (key, start, end, parent, op)
        self.last_root = (start, end)
        return end - start

    def stretches(self, pieces: int = 500) -> list[float]:
        """The latest root cut at every k-th progress mark.

        The simulation is deterministic, so stretch ``j`` does the same
        work in every repeat; ``run.py`` keeps the best time of each.
        Finer cuts ride out shorter slow-downs: on 40 passes of the
        static fleet day, 6 s each, the pass floors ranged over 12.7 %
        of their median at 100 pieces, 8.4 % at 450, 8.0 % at 7 200,
        while the floor itself rose 3 % at 450 and 10 % at 7 200.
        """
        start, end = self.last_root
        step = max(1, -(-len(self.marks) // pieces))
        cuts = [start, *self.marks[::step], end]
        return [later - earlier for earlier, later in zip(cuts, cuts[1:])]

    def mark_calls(self, cls, attr: str) -> None:
        """Note the instant of every call of ``cls.attr``: a progress mark.

        This is the only wrapper an untraced run carries, on the batch
        workloads, where one timed call is a whole repeat; it costs one
        clock read per call (under 0.5 % of those repeats).
        """
        fn, marks = cls.__dict__[attr], self.marks

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            marks.append(perf_counter())
            return fn(*args, **kwargs)

        setattr(cls, attr, marked)

    def reset(self) -> None:
        self.spans = []
        for kept in self.kept.values():
            kept.clear()

    # -- wrappers -------------------------------------------------------- #
    def wrap(self, key: str, fn):
        """``fn`` with a span around every call made under an open root."""
        stack = self._stack
        keep = self.kept.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            spans = self.spans
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (key, start, end, parent, self._op)
            if keep is not None:
                keep.append(result)
            return result

        return traced

    def install(self) -> None:
        """Replace the boundary callables with traced ones; call once."""
        originals = [
            (key, getattr(importlib.import_module(module_name), attr))
            for key, module_name, attr in FUNCTIONS
        ]
        repro_modules = [
            module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")
        ]
        for key, original in originals:
            traced = self.wrap(key, original)
            for module in repro_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, traced)
        for key, module_name, class_name, attr in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            setattr(cls, attr, self.wrap(key, cls.__dict__[attr]))
        # Executors are looked up per launch and called later from
        # ``finish``; wrapping the lookup's result puts a span around
        # each tool body without touching the registry.
        from repro.galaxy.app import GalaxyApp

        executor_for = GalaxyApp.executor_for

        @functools.wraps(executor_for)
        def traced_executor_for(app, executable):
            return self.wrap(EXECUTOR_KEY, executor_for(app, executable))

        GalaxyApp.executor_for = traced_executor_for


def fold(spans) -> dict[str, dict[str, float]]:
    """Per key: self seconds, total seconds and calls over ``spans``."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "n": 0}
    )
    for key, start, end, parent, _op in spans:
        duration = end - start
        row = table[key]
        row["self_s"] += duration
        row["total_s"] += duration
        row["n"] += 1
        if parent >= 0:
            table[spans[parent][0]]["self_s"] -= duration
    return dict(table)


def root_seconds(spans) -> float:
    """Host seconds covered by the root spans."""
    return sum(end - start for _k, start, end, parent, _o in spans if parent < 0)
