"""Partial-order alignment (POA) graphs with consensus calling.

Racon's core data structure: a DAG whose paths spell the sequences it
has absorbed.  The first sequence seeds a linear chain; each further
sequence is aligned *to the graph* (dynamic programming over the
topological order) and fused in — matches bump node/edge weights,
mismatches and insertions add branch nodes.  The consensus is the
heaviest path (Racon §Methods: "heaviest bundle").

Complexity is O(|V| * L) per added sequence; window-sized inputs
(hundreds of bases, tens of fragments) stay comfortably fast with the
row-vectorised DP below.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.tools.racon.alignment import GAP, MATCH, MISMATCH

_NEG_INF = np.int64(np.iinfo(np.int32).min // 4)


@dataclass
class _Node:
    """One POA node: a base with support weight."""

    node_id: int
    base: str
    weight: int = 1


class POAGraph:
    """A partial-order alignment graph.

    Parameters
    ----------
    sequence:
        The seed sequence (Racon seeds each window's graph with the
        backbone fragment).

    Every fusion scores with Racon's default (match, mismatch, gap).
    """

    def __init__(self, sequence: str) -> None:
        if not sequence:
            raise ValueError("POA graph needs a non-empty seed sequence")
        self._nodes: list[_Node] = []
        self._out: dict[int, dict[int, int]] = {}  # u -> {v: weight}
        self._in: dict[int, set[int]] = {}
        #: mismatch alternatives: node -> {base: alt_node}
        self._alternatives: dict[int, dict[str, int]] = {}
        self.sequences_added = 0
        previous = None
        for base in sequence:
            node = self._new_node(base)
            if previous is not None:
                self._add_edge(previous, node.node_id, 1)
            previous = node.node_id
        self.sequences_added = 1

    # ------------------------------------------------------------------ #
    # structure
    # ------------------------------------------------------------------ #
    def _new_node(self, base: str, weight: int = 1) -> _Node:
        node = _Node(node_id=len(self._nodes), base=base, weight=weight)
        self._nodes.append(node)
        self._out[node.node_id] = {}
        self._in[node.node_id] = set()
        return node

    def _add_edge(self, u: int, v: int, weight: int) -> None:
        self._out[u][v] = self._out[u].get(v, 0) + weight
        self._in[v].add(u)

    def topological_order(self) -> list[int]:
        """Kahn topological order (the graph is a DAG by construction)."""
        indegree = {nid: len(self._in[nid]) for nid in range(len(self._nodes))}
        queue = deque(nid for nid, deg in indegree.items() if deg == 0)
        order: list[int] = []
        while queue:
            nid = queue.popleft()
            order.append(nid)
            for succ in self._out[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    queue.append(succ)
        if len(order) != len(self._nodes):  # pragma: no cover - invariant
            raise RuntimeError("POA graph contains a cycle")
        return order

    # ------------------------------------------------------------------ #
    # sequence-to-graph alignment
    # ------------------------------------------------------------------ #
    def align(self, sequence: str) -> list[tuple[int | None, int | None]]:
        """Locally align ``sequence`` to the graph (Smith-Waterman style).

        Returns alignment pairs ``(node_id | None, seq_index | None)`` —
        ``(n, j)`` match/mismatch, ``(n, None)`` node skipped (deletion),
        ``(None, j)`` base inserted.  The alignment is *local*: low-
        scoring fragment ends are soft-clipped (no pairs emitted), which
        is what keeps window-boundary slop from fusing into the graph as
        spurious insertions — mirroring Racon's per-window clipping.
        """
        if not sequence:
            return []
        order = self.topological_order()
        rank_of = {nid: r for r, nid in enumerate(order, start=1)}
        n_rows = len(order) + 1
        length = len(sequence)
        seq = np.frombuffer(sequence.encode(), dtype=np.uint8)

        score = np.zeros((n_rows, length + 1), dtype=np.int64)
        # moves: 0 diag, 1 del, 2 ins, 3 stop (local start)
        move = np.full((n_rows, length + 1), 3, dtype=np.uint8)
        pred = np.zeros((n_rows, length + 1), dtype=np.int32)

        gap = np.int64(GAP)
        steps = np.arange(1, length + 1, dtype=np.int64)
        zero = np.int64(0)
        for r, nid in enumerate(order, start=1):
            node = self._nodes[nid]
            preds = [rank_of[p] for p in self._in[nid]] or [0]
            sub = np.where(
                seq == ord(node.base), MATCH, MISMATCH
            ).astype(np.int64)
            # Best over predecessors for diagonal and deletion moves.
            if len(preds) == 1:
                p = preds[0]
                diag = score[p, :-1] + sub
                dele = score[p, 1:] + gap
                pred_diag = pred_del = np.full(length, p, dtype=np.int32)
            else:
                diag_stack = np.stack([score[p, :-1] for p in preds])
                del_stack = np.stack([score[p, 1:] for p in preds])
                diag_idx = np.argmax(diag_stack, axis=0)
                del_idx = np.argmax(del_stack, axis=0)
                cols = np.arange(length)
                diag = diag_stack[diag_idx, cols] + sub
                dele = del_stack[del_idx, cols] + gap
                preds_arr = np.array(preds, dtype=np.int32)
                pred_diag = preds_arr[diag_idx]
                pred_del = preds_arr[del_idx]
            row = score[r]
            row[0] = 0  # local: starting fresh is always available

            better_diag = diag >= dele
            best = np.where(better_diag, diag, dele)
            move_row = np.where(better_diag, 0, 1).astype(np.uint8)
            pred_row = np.where(better_diag, pred_diag, pred_del)
            # Insertion chains have a serial dependency; with a linear
            # gap penalty they reduce to a prefix max:
            #   row[j] = j*gap + max_{k<=j}(best[k-1] - k*gap)
            # (clamped-to-zero cells cannot seed a profitable insertion
            # chain since gap < 0, so clamping after the chain is exact.)
            adjusted = best - steps * gap
            prefix = np.maximum.accumulate(adjusted)
            chain = steps * gap + prefix
            clamped = np.maximum(chain, zero)
            row[1:] = clamped
            from_best = chain == best
            move[r, 1:] = np.where(
                clamped == 0, 3, np.where(from_best, move_row, 2)
            )
            pred[r, 1:] = np.where(from_best, pred_row, r)

        # Local end: the global maximum cell.
        flat_end = int(np.argmax(score))
        r, j = divmod(flat_end, length + 1)
        pairs: list[tuple[int | None, int | None]] = []
        while r > 0 and score[r, j] > 0:
            m = move[r, j]
            if m == 3:
                break
            if m == 0:
                pairs.append((order[r - 1], j - 1))
                r = int(pred[r, j])
                j -= 1
            elif m == 1:
                pairs.append((order[r - 1], None))
                r = int(pred[r, j])
            else:
                pairs.append((None, j - 1))
                j -= 1
        pairs.reverse()
        return pairs

    # ------------------------------------------------------------------ #
    # fusion
    # ------------------------------------------------------------------ #
    def add_sequence(self, sequence: str, weight: int = 1) -> None:
        """Align ``sequence`` to the graph and fuse it in.

        Acyclicity is preserved by a rank guard: every edge added by the
        fusion goes from a lower to a strictly higher rank, where ranks
        are a valid topological order of the pre-fusion graph extended
        with synthetic fractional ranks for nodes created (or reused as
        branches) during this walk.  Branch reuse is only permitted when
        the candidate's rank fits strictly between the previous node's
        rank and the rank of the next matched backbone node, which is
        exactly the condition under which both of its new edges point
        "forward"; otherwise a fresh node is created.
        """
        if not sequence:
            return
        pairs = self.align(sequence)
        rank: dict[int, float] = {
            nid: float(r) for r, nid in enumerate(self.topological_order())
        }
        # Upper bound per pair: rank of the next traceback pair anchored
        # to an existing node that also consumes a sequence base.
        bounds = [float("inf")] * len(pairs)
        next_bound = float("inf")
        for i in range(len(pairs) - 1, -1, -1):
            node_id, j = pairs[i]
            bounds[i] = next_bound
            if node_id is not None and j is not None:
                next_bound = rank[node_id]

        def synthetic_rank(prev: int | None, bound: float) -> float:
            low = rank[prev] if prev is not None else -1.0
            high = bound if bound != float("inf") else low + 1.0
            return (low + high) / 2.0

        previous: int | None = None
        for i, (node_id, j) in enumerate(pairs):
            if j is None:
                continue  # deletion: the node is skipped, no new support
            base = sequence[j]
            bound = bounds[i]
            prev_rank = rank[previous] if previous is not None else -1.0
            if node_id is not None and self._nodes[node_id].base == base:
                current = node_id
                self._nodes[current].weight += weight
            elif node_id is not None:
                # Mismatch: reuse the alternative node when its rank fits.
                alts = self._alternatives.setdefault(node_id, {})
                candidate = alts.get(base)
                if candidate is not None and prev_rank < rank.get(
                    candidate, -1.0
                ) < bound:
                    current = candidate
                    self._nodes[current].weight += weight
                else:
                    current = self._new_node(base, weight=weight).node_id
                    rank[current] = synthetic_rank(previous, bound)
                    alts.setdefault(base, current)
            else:
                # Insertion: reuse a same-base insertion node previously
                # created after the same predecessor, when its rank fits.
                current = -1
                if previous is not None:
                    for succ in self._out[previous]:
                        if (
                            self._nodes[succ].base == base
                            and succ != previous
                            and prev_rank < rank.get(succ, -1.0) < bound
                        ):
                            current = succ
                            self._nodes[succ].weight += weight
                            break
                if current < 0:
                    current = self._new_node(base, weight=weight).node_id
                    rank[current] = synthetic_rank(previous, bound)
            # A rank inversion would create a cycle; the support is
            # still counted on the node, only the edge is dropped.
            if (
                previous is not None
                and current != previous
                and rank[previous] < rank[current]
            ):
                self._add_edge(previous, current, weight)
            previous = current
        self.sequences_added += 1

    # ------------------------------------------------------------------ #
    # consensus
    # ------------------------------------------------------------------ #
    #: Per-edge penalty in the consensus DP.  A plain "heaviest path"
    #: that sums weights favours LONGER paths, so every weight-1
    #: insertion branch in a low-coverage region gets absorbed into the
    #: consensus — a systematic growth bias that compounds under
    #: iterative polishing.  Charging each edge its baseline support of
    #: 1 makes a detour profitable only when its edges carry MORE than
    #: baseline support (i.e. multiple reads agree on the insertion),
    #: which is the behaviour Racon's heaviest-bundle traversal has.
    CONSENSUS_EDGE_PENALTY = 1.0

    def consensus(self) -> str:
        """Edge-support consensus (penalised heaviest path).

        ``score[v] = max(0, max_u score[u] + w(u,v) - 1)`` with ties
        broken toward extending a path (so unanimous coverage-1 chains —
        a bare backbone — survive intact), toward the heavier edge, and
        toward the lower (earlier-created, backbone-first) node id.
        """
        order = self.topological_order()
        score: dict[int, float] = {}
        back: dict[int, int | None] = {}
        depth: dict[int, int] = {}
        for nid in order:
            best_score = 0.0
            best_parent: int | None = None
            best_key = (-1.0, 1)  # (edge weight, -parent priority)
            for parent in self._in[nid]:
                weight = self._out[parent][nid]
                cand = score[parent] + weight - self.CONSENSUS_EDGE_PENALTY
                key = (float(weight), -parent)
                if cand > best_score or (
                    cand == best_score
                    and (best_parent is None or key > best_key)
                ):
                    best_score = cand
                    best_parent = parent
                    best_key = key
            score[nid] = best_score
            back[nid] = best_parent
            depth[nid] = depth[best_parent] + 1 if best_parent is not None else 1
        end = max(score, key=lambda nid: (score[nid], depth[nid], -nid))
        path: list[int] = []
        node: int | None = end
        while node is not None:
            path.append(node)
            node = back[node]
        path.reverse()
        return "".join(self._nodes[nid].base for nid in path)
