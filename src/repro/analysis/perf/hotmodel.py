"""The hot-path model: seeds + transitive propagation over the call graph.

Hotness is seeded two ways and propagated with a deterministic BFS:

* **Annotations** — every function carrying ``@hot_path`` (matched
  statically, see :mod:`repro.hotpath`) seeds itself, labelled
  ``anno:<qname>``.
* **Profile** — a ``gyan.bench/v1`` report (``BENCH_sim_core.json``)
  names the scenarios that actually ran; the scenario→entry-point
  manifest published by :func:`repro.benchmarking.scenarios.scenario_entry_points`
  maps each to the functions its timed ``run`` drives.  Each resolvable
  entry point seeds hotness labelled ``bench:<scenario>``.  This closes
  the loop the ISSUE calls profile-guided: what the bench observed as a
  hot spot becomes a static severity escalation.

Every hot node remembers the *shortest* seed→node call chain (BFS over
sorted seeds and sorted callees, so the chain — and therefore every
finding message — is byte-deterministic).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.perf.callgraph import CallGraph


@dataclass(frozen=True)
class HotPath:
    """Why one function is hot: the seed label and the call chain."""

    seed: str  #: ``anno:<qname>`` or ``bench:<scenario>``
    chain: tuple[str, ...]  #: qnames from the seed entry point to here

    def render(self) -> str:
        return " → ".join((self.seed,) + self.chain)


@dataclass
class HotModel:
    """The propagated hot set."""

    hot: dict[str, HotPath]
    seeds: list[str]
    #: Profile entry points that named no function in the graph (stale
    #: manifest entries surface instead of silently cooling a path).
    unresolved_seeds: list[str]

    def is_hot(self, qname: str) -> bool:
        return qname in self.hot

    def chain_for(self, qname: str) -> str | None:
        path = self.hot.get(qname)
        return path.render() if path is not None else None


def load_profile_scenarios(profile_path: str | Path) -> list[str]:
    """Scenario names recorded in a ``gyan.bench/v1`` report."""
    with open(profile_path, encoding="utf-8") as fh:
        data = json.load(fh)
    scenarios = data.get("scenarios") if isinstance(data, dict) else None
    if not isinstance(scenarios, list):
        raise ValueError(f"{profile_path}: not a gyan.bench report (no scenarios)")
    names = [
        entry["name"]
        for entry in scenarios
        if isinstance(entry, dict) and isinstance(entry.get("name"), str)
    ]
    return sorted(names)


def profile_seeds(profile_path: str | Path) -> list[tuple[str, str]]:
    """``(seed_label, entry_point_qname)`` pairs from a bench profile.

    The scenario→entry-point manifest lives next to the scenarios
    themselves
    (:func:`repro.benchmarking.scenarios.scenario_entry_points`) so it
    cannot drift from what ``python -m repro bench`` actually times.  A
    profile naming a scenario the manifest no longer has yields the
    placeholder entry ``<unknown scenario>``, which resolves to nothing
    and so lands in ``unresolved_seeds`` (``bench:<name>:<unknown
    scenario>``) instead of cooling its paths without a word.
    """
    from repro.benchmarking.scenarios import scenario_entry_points

    manifest = scenario_entry_points()
    pairs: list[tuple[str, str]] = []
    for name in load_profile_scenarios(profile_path):
        for entry in manifest.get(name, ("<unknown scenario>",)):
            pairs.append((f"bench:{name}", entry))
    return pairs


def build_hot_model(
    graph: CallGraph,
    profile: list[tuple[str, str]] | None = None,
) -> HotModel:
    """Seed and propagate hotness; ``profile`` is (label, qname) pairs."""
    seeds: list[tuple[str, str]] = []
    unresolved: list[str] = []

    for qname in sorted(graph.nodes):
        if graph.nodes[qname].hot_annotated:
            seeds.append((f"anno:{qname}", qname))

    for label, entry in sorted(profile or []):
        if entry in graph.nodes:
            seeds.append((label, entry))
        else:
            unresolved.append(f"{label}:{entry}")

    # Deterministic BFS: seeds in sorted order, callees in sorted order,
    # first assignment wins (shortest chain; ties broken lexically).
    hot: dict[str, HotPath] = {}
    frontier: list[str] = []
    for label, entry in sorted(seeds):
        if entry not in hot:
            hot[entry] = HotPath(seed=label, chain=(entry,))
            frontier.append(entry)
    while frontier:
        next_frontier: list[str] = []
        for qname in frontier:
            origin = hot[qname]
            for callee in graph.callees(qname):
                if callee in hot:
                    continue
                hot[callee] = HotPath(
                    seed=origin.seed, chain=origin.chain + (callee,)
                )
                next_frontier.append(callee)
        frontier = next_frontier

    return HotModel(
        hot=hot,
        seeds=sorted({label for label, _ in seeds}),
        unresolved_seeds=sorted(unresolved),
    )
