"""The hot-path model: seeds + transitive propagation over the call graph.

Hotness has one source: every function carrying ``@hot_path`` (matched
statically, see :mod:`repro.hotpath`) seeds itself, labelled
``anno:<qname>``, and a deterministic BFS propagates it to everything
the seed transitively calls.

Every hot node remembers the *shortest* seed→node call chain (BFS over
sorted seeds and sorted callees, so the chain — and therefore every
finding message — is byte-deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.perf.callgraph import CallGraph


@dataclass(frozen=True)
class HotPath:
    """Why one function is hot: the seed label and the call chain."""

    seed: str  #: ``anno:<qname>``
    chain: tuple[str, ...]  #: qnames from the seed entry point to here

    def render(self) -> str:
        return " → ".join((self.seed,) + self.chain)


@dataclass
class HotModel:
    """The propagated hot set."""

    hot: dict[str, HotPath]
    seeds: list[str]

    def is_hot(self, qname: str) -> bool:
        return qname in self.hot

    def chain_for(self, qname: str) -> str | None:
        path = self.hot.get(qname)
        return path.render() if path is not None else None


def build_hot_model(graph: CallGraph) -> HotModel:
    """Seed hotness from ``@hot_path`` annotations and propagate it."""
    seeds = sorted(
        qname for qname, node in graph.nodes.items() if node.hot_annotated
    )

    # Deterministic BFS: seeds in sorted order, callees in sorted order,
    # first assignment wins (shortest chain; ties broken lexically).
    hot = {q: HotPath(seed=f"anno:{q}", chain=(q,)) for q in seeds}
    frontier = seeds
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

    return HotModel(hot=hot, seeds=[f"anno:{q}" for q in seeds])
