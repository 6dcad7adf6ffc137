"""A minimizer-seed read-to-reference mapper (the minimap2 substitute).

Racon's pipeline needs read-to-backbone mappings; the authors use
minimap2.  This module provides a from-scratch replacement adequate for
the reproduction: (w, k)-minimizer indexing of the target, seed lookup
per read, diagonal binning, and a best-diagonal vote that yields a PAF
interval.  It is intentionally simple — no chaining DP, no SVs — but on
the simulator's read error rates it recovers >95 % of true origins,
which the tests assert against the generator's ground truth.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.tools.seqio.paf import PafRecord
from repro.tools.seqio.records import SeqRecord, reverse_complement

_ENCODE = {"A": 0, "C": 1, "G": 2, "T": 3}


def _encode(sequence: str) -> np.ndarray:
    """Sequence to uint8 codes; unknown bases become 'A'."""
    table = np.zeros(256, dtype=np.uint8)
    for base, code in _ENCODE.items():
        table[ord(base)] = code
        table[ord(base.lower())] = code
    return table[np.frombuffer(sequence.encode(), dtype=np.uint8)]


def kmer_codes(sequence: str, k: int) -> np.ndarray:
    """Rolling k-mer integer codes (length ``len(sequence) - k + 1``).

    Vectorised: codes are built by horner-scheme accumulation over k
    shifted views rather than a Python loop over positions.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    encoded = _encode(sequence).astype(np.int64)
    n = len(encoded) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    codes = np.zeros(n, dtype=np.int64)
    for offset in range(k):
        codes = codes * 4 + encoded[offset : offset + n]
    return codes


def minimizers(sequence: str, k: int = 15, w: int = 10) -> list[tuple[int, int]]:
    """(kmer_code, position) minimizers with window ``w``.

    The minimizer of each window of ``w`` consecutive k-mers is the one
    with the smallest hashed code; duplicates collapse.  Hashing avoids
    the poly-A pathology of raw lexicographic minima.
    """
    codes = kmer_codes(sequence, k)
    # Simple integer hash (xorshift-multiply), vectorised.  Arithmetic in
    # uint64 with explicit wraparound keeps NumPy happy.
    hashed = codes.astype(np.uint64)
    hashed ^= hashed >> np.uint64(13)
    hashed *= np.uint64(0x9E3779B97F4A7C15)
    hashed &= np.uint64((1 << 63) - 1)
    n = codes.size
    window = min(w, n)
    picks: set[tuple[int, int]] = set()
    # Sliding-window argmin via stride tricks would allocate n*w; use a
    # monotonic deque for O(n).
    from collections import deque

    dq: deque[int] = deque()
    for i in range(n):
        while dq and hashed[dq[-1]] >= hashed[i]:
            dq.pop()
        dq.append(i)
        if dq[0] <= i - window:
            dq.popleft()
        if i >= window - 1:
            j = dq[0]
            picks.add((int(codes[j]), j))
    return sorted(picks, key=lambda t: t[1])


@dataclass
class MinimizerIndex:
    """Minimizer index of one target sequence."""

    target: SeqRecord
    k: int
    w: int
    table: dict[int, list[int]]

    @classmethod
    def build(cls, target: SeqRecord, k: int = 15, w: int = 10) -> "MinimizerIndex":
        """Index ``target``'s forward strand."""
        table: dict[int, list[int]] = defaultdict(list)
        for code, pos in minimizers(target.sequence, k=k, w=w):
            table[code].append(pos)
        return cls(target=target, k=k, w=w, table=dict(table))

    def seeds(self, query: str) -> list[tuple[int, int]]:
        """(query_pos, target_pos) seed matches for a query string."""
        hits: list[tuple[int, int]] = []
        for code, qpos in minimizers(query, k=self.k, w=self.w):
            for tpos in self.table.get(code, ()):
                hits.append((qpos, tpos))
        return hits


class MinimizerMapper:
    """Maps reads to a single target via best-diagonal voting."""

    #: Seeds a read needs on its best diagonal, and the diagonal bin width.
    min_seeds = 3
    diagonal_slop = 100

    def __init__(self, target: SeqRecord, k: int = 15, w: int = 10) -> None:
        self.index = MinimizerIndex.build(target, k=k, w=w)

    def _vote(self, seeds: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]] | None:
        """Bin seeds by diagonal; return (votes, seeds) of the best bin."""
        if len(seeds) < self.min_seeds:
            return None
        bins: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for qpos, tpos in seeds:
            bins[(tpos - qpos) // self.diagonal_slop].append((qpos, tpos))
        best_key = max(bins, key=lambda key: len(bins[key]))
        # Merge the two adjacent bins — indel drift straddles boundaries.
        merged = list(bins[best_key])
        for neighbour in (best_key - 1, best_key + 1):
            merged.extend(bins.get(neighbour, ()))
        if len(merged) < self.min_seeds:
            return None
        return len(merged), merged

    def map_read(self, read: SeqRecord) -> PafRecord | None:
        """Map one read; returns a PAF record or None when unmapped."""
        target = self.index.target
        for strand, query in (
            ("+", read.sequence),
            ("-", reverse_complement(read.sequence)),
        ):
            vote = self._vote(self.index.seeds(query))
            if vote is None:
                continue
            votes, seeds = vote
            qpositions = [q for q, _ in seeds]
            tpositions = [t for _, t in seeds]
            qstart, qend = min(qpositions), max(qpositions) + self.index.k
            tstart, tend = min(tpositions), max(tpositions) + self.index.k
            # Extend the target interval to cover the full read span.
            tstart = max(0, tstart - qstart)
            tend = min(len(target), tend + (len(read) - qend))
            block = max(qend - qstart, tend - tstart)
            return PafRecord(
                query_name=read.name,
                query_length=len(read),
                query_start=0,
                query_end=len(read),
                strand=strand,
                target_name=target.name,
                target_length=len(target),
                target_start=tstart,
                target_end=tend,
                residue_matches=votes * self.index.k,
                alignment_block_length=block,
            )
        return None

    def map_reads(self, reads: list[SeqRecord]) -> list[PafRecord]:
        """Map many reads; unmapped reads are dropped (like minimap2)."""
        records = []
        for read in reads:
            record = self.map_read(read)
            if record is not None:
                records.append(record)
        return records
