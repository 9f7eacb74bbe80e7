"""Scalar references for the batched kernels.

These are cell-by-cell loops of the Wagner-Fischer and DTW recurrences, a
per-pair MPBD, and a pair-by-pair agglomerative merge loop, written the
plain way.  ``movclust.distances`` and ``movclust.clustering`` must
reproduce every value they return bit for bit.
"""

import numpy as np

from movclust.clustering import Dendrogram


def levenshtein_ref(p, q):
    p = list(p)
    q = list(q)
    if len(p) < len(q):
        p, q = q, p
    prev = list(range(len(q) + 1))
    for i, a in enumerate(p, start=1):
        cur = [i] + [0] * len(q)
        for j, b in enumerate(q, start=1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (0 if a == b else 1),
            )
        prev = cur
    return prev[-1]


def dtw_ref(p, q, window=None):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n, m = len(p), len(q)
    inf = np.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        if window is None:
            j_lo, j_hi = 1, m
        else:
            j_lo = max(1, i - window)
            j_hi = min(m, i + window)
        cost = (p[i - 1] - q[j_lo - 1 : j_hi]) ** 2
        for j, c in zip(range(j_lo, j_hi + 1), cost):
            cur[j] = c + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))


def mpbd_ref(p, q, omega=2.0):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    dp = p[:-1] - p[1:]
    dq = q[:-1] - q[1:]
    gap = np.abs(dp - dq)
    weighted = np.sign(dp) != np.sign(dq)
    cost = np.where(dp == dq, 0.0, np.where(weighted, omega * gap, gap))
    return float(cost.sum())


def matrix_ref(seqs, pair):
    """Full symmetric matrix, one ``pair`` call per upper-triangle entry."""
    n = len(seqs)
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            entries[i, j] = pair(seqs[i], seqs[j])
    return entries + entries.T


def mpbi_ref(levels, labels, omega=2.0):
    """MPBI with the pair sums added one at a time in (a, b) order."""
    total = 0.0
    clusters = sorted(set(labels))
    for c in clusters:
        members = [s for s, label in zip(levels, labels) if label == c]
        pair_sum = 0.0
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pair_sum += mpbd_ref(members[a], members[b], omega=omega)
        total += pair_sum / len(members)
    return total / len(clusters)


def agglomerative_ref(matrix, linkage="ward"):
    """Lance-Williams merging with a full pair scan per merge.

    Merge ties go to the lexicographically smallest (left, right)
    representative id pair; each distance update is one scalar expression.
    """
    D = np.asarray(matrix.entries, dtype=float).copy()
    ids = list(matrix.ids)
    n = len(ids)

    active = list(range(n))
    members = {i: (ids[i],) for i in range(n)}
    sizes = {i: 1 for i in range(n)}
    reps = {i: ids[i] for i in range(n)}
    merges = []

    for _ in range(n - 1):
        best = None
        for ai in range(len(active)):
            i = active[ai]
            for aj in range(ai + 1, len(active)):
                j = active[aj]
                d = D[i, j]
                pair = tuple(sorted((reps[i], reps[j])))
                key = (d, pair)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (height, pair), i, j = best
        left, right = (i, j) if reps[i] <= reps[j] else (j, i)

        si, sj = sizes[i], sizes[j]
        dij = D[i, j]
        for m in active:
            if m in (i, j):
                continue
            dim, djm = D[i, m], D[j, m]
            if linkage == "single":
                new = min(dim, djm)
            elif linkage == "complete":
                new = max(dim, djm)
            elif linkage == "average":
                new = (si * dim + sj * djm) / (si + sj)
            else:  # ward
                sm = sizes[m]
                new = np.sqrt(
                    ((si + sm) * dim**2 + (sj + sm) * djm**2 - sm * dij**2)
                    / (si + sj + sm)
                )
            D[i, m] = D[m, i] = new

        merges.append((members[left], members[right], float(height), si + sj))
        members[i] = tuple(sorted(members[left] + members[right]))
        sizes[i] = si + sj
        reps[i] = min(reps[i], reps[j])
        active.remove(j)

    return Dendrogram(leaves=sorted(ids), merges=merges)
