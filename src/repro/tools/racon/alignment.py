"""Pairwise alignment: global Needleman-Wunsch and a banded variant.

Racon scores windows with SIMD-accelerated global alignment; its GPU
build exposes a *banding approximation* that restricts the dynamic
program to a diagonal band, trading a little accuracy for a large
constant-factor win.  Both appear in the paper's parameter sweeps
(Figs. 3 and 7, "with/without banding approximation"), so both are
implemented: the full DP (row-vectorised with NumPy) and the banded DP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Racon's default scoring (match, mismatch, gap), used by every
#: alignment and POA fusion here.
MATCH = 3
MISMATCH = -5
GAP = -4

_NEG_INF = np.iinfo(np.int32).min // 4


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of a pairwise alignment.

    ``cigar`` uses =, X, I, D ops (match / mismatch / insertion-to-query
    / deletion-from-query), query-relative.
    """

    score: int
    cigar: str
    query_aligned: str
    target_aligned: str


def _encode(sequence: str) -> np.ndarray:
    return np.frombuffer(sequence.encode(), dtype=np.uint8)


def _traceback(
    pointer: np.ndarray, query: str, target: str
) -> tuple[str, str, str]:
    """Walk the pointer matrix from the corner; returns (cigar, qa, ta).

    Pointer codes: 0 diagonal, 1 up (gap in target / insertion), 2 left
    (gap in query / deletion).
    """
    i, j = len(query), len(target)
    ops: list[str] = []
    qa: list[str] = []
    ta: list[str] = []
    while i > 0 or j > 0:
        move = pointer[i, j]
        if i > 0 and j > 0 and move == 0:
            qa.append(query[i - 1])
            ta.append(target[j - 1])
            ops.append("=" if query[i - 1] == target[j - 1] else "X")
            i -= 1
            j -= 1
        elif i > 0 and (move == 1 or j == 0):
            qa.append(query[i - 1])
            ta.append("-")
            ops.append("I")
            i -= 1
        else:
            qa.append("-")
            ta.append(target[j - 1])
            ops.append("D")
            j -= 1
    ops.reverse()
    qa.reverse()
    ta.reverse()
    # Run-length encode the op string into a CIGAR.
    cigar: list[str] = []
    run = 0
    prev = ""
    for op in ops + [""]:
        if op == prev:
            run += 1
        else:
            if prev:
                cigar.append(f"{run}{prev}")
            prev = op
            run = 1
    return "".join(cigar), "".join(qa), "".join(ta)


def global_alignment(
    query: str,
    target: str,
) -> AlignmentResult:
    """Needleman-Wunsch global alignment with linear gap penalty.

    The DP fills row by row with the inner loop vectorised across the
    target dimension for the substitution and deletion terms; the
    insertion term has a serial dependency handled with a prefix-max
    trick only when profitable, otherwise a thin Python loop — windows in
    Racon are short (hundreds of bases), so clarity wins.
    """
    n, m = len(query), len(target)
    q = _encode(query)
    t = _encode(target)
    score = np.empty((n + 1, m + 1), dtype=np.int32)
    pointer = np.zeros((n + 1, m + 1), dtype=np.uint8)
    score[0, :] = np.arange(m + 1, dtype=np.int32) * GAP
    score[:, 0] = np.arange(n + 1, dtype=np.int32) * GAP
    pointer[0, 1:] = 2
    pointer[1:, 0] = 1
    steps = np.arange(1, m + 1, dtype=np.int32)
    for i in range(1, n + 1):
        sub = np.where(t == q[i - 1], MATCH, MISMATCH).astype(np.int32)
        diag = score[i - 1, :-1] + sub
        up = score[i - 1, 1:] + GAP
        best = np.maximum(diag, up)
        ptr_row = np.where(diag >= up, 0, 1).astype(np.uint8)
        # Left (gap-in-query) chains have a serial dependency; with a
        # linear gap penalty they reduce to a prefix max:
        #   row[j] = j*GAP + max(row[0], max_{k<=j}(best[k-1] - k*GAP))
        row = score[i]
        adjusted = best - steps * GAP
        prefix = np.maximum.accumulate(np.maximum(adjusted, row[0]))
        row[1:] = steps * GAP + prefix
        from_best = row[1:] == best
        pointer[i, 1:] = np.where(from_best, ptr_row, 2)
    cigar, qa, ta = _traceback(pointer, query, target)
    return AlignmentResult(
        score=int(score[n, m]), cigar=cigar, query_aligned=qa, target_aligned=ta
    )


def banded_alignment(
    query: str,
    target: str,
    band: int = 64,
) -> AlignmentResult:
    """Global alignment restricted to a diagonal band of half-width ``band``.

    Cells outside the band are -inf; the result equals the full DP
    whenever the optimal path stays inside the band (always true for the
    small indel drift of same-window fragments), at a fraction of the
    work — this is the paper's *banding approximation*.
    """
    n, m = len(query), len(target)
    if band <= 0:
        raise ValueError("band must be positive")
    if abs(n - m) >= band:
        # The corner lies outside the band; widen to keep it feasible.
        band = abs(n - m) + band
    q = _encode(query)
    t = _encode(target)
    score = np.full((n + 1, m + 1), _NEG_INF, dtype=np.int32)
    pointer = np.zeros((n + 1, m + 1), dtype=np.uint8)
    score[0, 0] = 0
    upper = min(m, band)
    score[0, 1 : upper + 1] = np.arange(1, upper + 1, dtype=np.int32) * GAP
    pointer[0, 1 : upper + 1] = 2
    lower = min(n, band)
    score[1 : lower + 1, 0] = np.arange(1, lower + 1, dtype=np.int32) * GAP
    pointer[1 : lower + 1, 0] = 1
    for i in range(1, n + 1):
        j_low = max(1, i - band)
        j_high = min(m, i + band)
        if j_low > j_high:
            continue
        js = np.arange(j_low, j_high + 1)
        sub = np.where(t[js - 1] == q[i - 1], MATCH, MISMATCH).astype(np.int32)
        diag = score[i - 1, j_low - 1 : j_high] + sub
        up = score[i - 1, j_low : j_high + 1] + GAP
        best = np.maximum(diag, up)
        ptr_row = np.where(diag >= up, 0, 1).astype(np.uint8)
        row = score[i]
        # Same prefix-max reduction of the left-move chain as in
        # :func:`global_alignment`, restricted to the band.
        width = j_high - j_low + 1
        steps = np.arange(1, width + 1, dtype=np.int64)
        adjusted = best.astype(np.int64) - steps * GAP
        prefix = np.maximum.accumulate(
            np.maximum(adjusted, np.int64(row[j_low - 1]))
        )
        segment = steps * GAP + prefix
        row[j_low : j_high + 1] = segment
        from_best = segment == best
        pointer[i, j_low : j_high + 1] = np.where(from_best, ptr_row, 2)
    cigar, qa, ta = _traceback(pointer, query, target)
    return AlignmentResult(
        score=int(score[n, m]), cigar=cigar, query_aligned=qa, target_aligned=ta
    )


def edit_distance(a: str, b: str) -> int:
    """Levenshtein distance, vectorised row DP."""
    bv = _encode(b)
    previous = np.arange(len(b) + 1, dtype=np.int32)
    for i, ch in enumerate(_encode(a), start=1):
        current = np.empty_like(previous)
        current[0] = i
        sub = previous[:-1] + (bv != ch)
        dele = previous[1:] + 1
        best = np.minimum(sub, dele)
        prev = current[0]
        for j in range(1, len(b) + 1):
            prev = min(best[j - 1], prev + 1)
            current[j] = prev
        previous = current
    return int(previous[-1])


def identity(a: str, b: str) -> float:
    """Sequence identity derived from edit distance over max length."""
    if not a and not b:
        return 1.0
    longest = max(len(a), len(b))
    return 1.0 - edit_distance(a, b) / longest
