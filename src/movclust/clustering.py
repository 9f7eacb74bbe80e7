"""Partitioning and hierarchical clustering.

All algorithms are deterministic given (data, k, seed): ties in nearest
centroid/medoid go to the smallest index, merge ties go to the
lexicographically smallest representative (smallest member) id pair,
which ``agglomerative`` turns into index order by sorting the matrix by id.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .tables import NUMBER, read_sidecar, read_table, write_rows

LINKAGES = ("ward", "average", "complete", "single")
#: Header of an assignment table.
ASSIGNMENT = ["series_id", "cluster"]
#: Lloyd iterations at most, and the WCSS improvement below which k-means stops early.
KMEANS_MAX_ITER, KMEANS_TOL = 300, 1e-6
#: Assignment / medoid-update rounds of k-medoids at most.
KMEDOIDS_MAX_ITER = 100


@dataclass
class ClusterAssignment:
    """Mapping series_id -> cluster label in 1..k plus provenance."""

    labels: dict
    k: int
    algorithm: str
    seed: int = 0
    objective: float | None = None
    metric: str | None = None
    normalization: str | None = None

    def __post_init__(self):
        used = set(self.labels.values())
        if used != set(range(1, self.k + 1)):
            raise DataError(f"labels must cover 1..{self.k}, got {sorted(used)}")

    def members(self, cluster: int) -> list[str]:
        return sorted(sid for sid, c in self.labels.items() if c == cluster)

    def label_array(self, ids) -> np.ndarray:
        """The label of each of ``ids``; an id without one is a data error naming it."""
        try:
            return np.asarray([self.labels[sid] for sid in ids], dtype=int)
        except KeyError as exc:
            raise DataError(f"assignment has no label for series {exc.args[0]!r}") from None


@dataclass
class Dendrogram:
    """Agglomerative merge history: exactly n-1 merges over n leaves."""

    leaves: list[str]
    #: (left id, right id, height, size) per merge; a cluster's id is its smallest member
    merges: list = field(default_factory=list)

    def heights(self) -> list[float]:
        return [m[2] for m in self.merges]


def _canonical_labels(ids, groups, k: int, algorithm: str, seed: int,
                      objective: float | None) -> ClusterAssignment:
    """The assignment putting ``ids[i]`` in group ``groups[i]``.

    Clusters are numbered by decreasing size, ties by smallest member id.
    """
    members: dict = {}
    for sid, group in zip(ids, groups):
        members.setdefault(group, []).append(sid)
    order = sorted(members.values(), key=lambda m: (-len(m), min(m)))
    labels = {sid: label for label, m in enumerate(order, start=1) for sid in m}
    return ClusterAssignment(labels=labels, k=k, algorithm=algorithm, seed=seed,
                             objective=objective)


# ---------------------------------------------------------------------------
# partitioning: k-means and k-medoids


def _start(n: int, k: int, seed: int, point_dist) -> list[int]:
    """k spread start indices: a seeded random first, then each point farthest from the chosen."""
    if not 2 <= k <= n:
        raise DataError(f"k={k} out of range [2, {n}]")
    chosen = [random.Random(seed).randrange(n)]
    nearest = point_dist(chosen[0])
    while len(chosen) < k:
        chosen.append(int(np.argmax(nearest)))  # argmax takes the smallest index on ties
        nearest = np.minimum(nearest, point_dist(chosen[-1]))
    return chosen


def _nearest(dists) -> tuple[np.ndarray, list]:
    """Each row's nearest centre in the (n, k) ``dists``, with no cluster left empty.

    An empty cluster takes the worst-fitting row of a non-singleton
    cluster.  That row is then alone in its cluster, so no later repair
    takes it.  Returns the labels and the repaired (cluster, row) pairs.
    """
    n, k = dists.shape
    labels = dists.argmin(axis=1)
    fit = dists[np.arange(n), labels]
    repaired = []
    for c in range(k):
        if not (labels == c).any():
            counts = np.bincount(labels, minlength=k)
            worst = int(np.argmax(np.where(counts[labels] > 1, fit, -np.inf)))
            labels[worst] = c
            repaired.append((c, worst))
    return labels, repaired


def _sq_dists(X, centers, out, which=None) -> np.ndarray:
    """``out[i, c]`` = squared distance from row i of ``X`` to centre c, for each c of ``which``.

    ``which`` defaults to every centre; the other columns of ``out`` are
    left as they are.  One (n, m) temporary per centre instead of an
    (n, k, m) cube: each entry is the same contiguous row sum either way.
    """
    for c in range(len(centers)) if which is None else which:
        out[:, c] = ((X - centers[c]) ** 2).sum(axis=1)
    return out


def kmeans(collection, k: int, seed: int = 0) -> ClusterAssignment:
    """Lloyd iterations over the rows of a SeriesCollection, from ``_start``.

    A centre whose mean comes out bit-identical to the centre it replaces
    keeps its column of distances; only the columns of moved centres are
    worked out again.  The objective is the final WCSS.
    """
    X = np.asarray(collection.values, dtype=float)
    n = len(X)
    centers = X[_start(n, k, seed, lambda i: ((X - X[i]) ** 2).sum(axis=1))].copy()

    prev_wcss = np.inf
    labels = None
    d2 = np.empty((n, k))
    moved = range(k)
    for _ in range(KMEANS_MAX_ITER):
        new_labels, repaired = _nearest(_sq_dists(X, centers, d2, moved))
        old = centers.view(np.uint64).copy()
        for c in range(k):
            members = new_labels == c
            centers[c] = X[members].mean(axis=0)
        moved = np.flatnonzero((centers.view(np.uint64) != old).any(axis=1)).tolist()
        wcss = float(((X - centers[new_labels]) ** 2).sum())
        if not repaired and wcss > prev_wcss + 1e-9 * max(1.0, abs(prev_wcss)):
            raise RuntimeError(f"k-means WCSS increased from {prev_wcss!r} to {wcss!r}")
        converged = labels is not None and np.array_equal(new_labels, labels)
        improvement = prev_wcss - wcss
        labels = new_labels
        prev_wcss = wcss
        if converged or improvement < KMEANS_TOL:
            break

    return _canonical_labels(collection.ids, labels.tolist(), k, f"kmeans(k={k})", seed,
                             prev_wcss)


def kmedoids(matrix, k: int, seed: int = 0) -> ClusterAssignment:
    """Alternating assignment / medoid update on a precomputed DistanceMatrix, from ``_start``."""
    D = matrix.entries
    n = len(matrix.ids)
    medoids = _start(n, k, seed, lambda i: D[i])

    labels = None
    for _ in range(KMEDOIDS_MAX_ITER):
        new_labels, repaired = _nearest(D[:, medoids])
        for c, row in repaired:
            medoids[c] = row
        new_medoids = []
        for c in range(k):
            members = np.flatnonzero(new_labels == c)
            costs = D[np.ix_(members, members)].sum(axis=1)
            new_medoids.append(int(members[int(np.argmin(costs))]))
        stable = new_medoids == medoids and labels is not None and np.array_equal(new_labels, labels)
        medoids = new_medoids
        labels = new_labels
        if stable:
            break

    objective = float(D[np.arange(n), [medoids[c] for c in labels]].sum())
    return _canonical_labels(matrix.ids, labels.tolist(), k, f"kmedoids(k={k})", seed, objective)


# ---------------------------------------------------------------------------
# agglomerative hierarchical


def agglomerative(matrix, linkage: str = "ward") -> Dendrogram:
    """Bottom-up merging with Lance-Williams distance updates.

    Merge ties are broken by the lexicographically smallest (left, right)
    representative id pair, so input order does not affect the partition.

    The matrix is permuted into sorted-id order and a merged cluster stays
    at the smaller of its two indices, so the id at index i is the smallest
    member of the cluster there and the tie rule becomes (i, j) index order.
    The matrix is kept symmetric with +inf on the diagonal and in the rows
    and columns of merged-away clusters, so the first minimum ``np.argmin``
    finds in row-major order is the winning pair, with i < j.
    """
    if linkage not in LINKAGES:
        raise DataError(f"unknown linkage {linkage!r}")
    n = len(matrix.ids)
    if n < 2:
        raise DataError("agglomerative clustering needs at least 2 series")
    if not np.isfinite(matrix.entries).all():
        raise DataError("agglomerative clustering needs finite distances")
    order = sorted(range(n), key=matrix.ids.__getitem__)
    ids = [matrix.ids[p] for p in order]
    D = matrix.entries[np.ix_(order, order)]
    np.fill_diagonal(D, np.inf)
    sizes = np.ones(n, dtype=int)
    active = np.ones(n, dtype=bool)
    merges = []

    for _ in range(n - 1):
        i, j = divmod(int(np.argmin(D)), n)
        dij, si, sj = D[i, j], sizes[i], sizes[j]
        active[j] = False
        m = np.flatnonzero(active)
        m = m[m != i]
        dim, djm = D[i, m], D[j, m]
        if linkage == "single":
            new = np.minimum(dim, djm)
        elif linkage == "complete":
            new = np.maximum(dim, djm)
        elif linkage == "average":
            new = (si * dim + sj * djm) / (si + sj)
        else:  # ward
            # float_power squares with libm pow, as scalar x**2 does; array
            # x**2 is x*x, which rounds differently now and then
            sm = sizes[m]
            new = np.sqrt(
                ((si + sm) * np.float_power(dim, 2) + (sj + sm) * np.float_power(djm, 2)
                 - sm * np.float_power(dij, 2))
                / (si + sj + sm)
            )
        D[i, m] = D[m, i] = new
        D[j, :] = D[:, j] = np.inf

        merges.append((ids[i], ids[j], float(dij), int(si + sj)))
        sizes[i] = si + sj

    return Dendrogram(leaves=ids, merges=merges)


def cut_dendrogram(dendrogram: Dendrogram, k: int, seed: int = 0,
                   algorithm: str | None = None) -> ClusterAssignment:
    """Undo the last k-1 merges, leaving exactly k clusters."""
    n = len(dendrogram.leaves)
    if not 1 <= k <= n:
        raise DataError(f"k={k} out of range [1, {n}]")
    parent = {sid: sid for sid in dendrogram.leaves}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for left, right, _, _ in dendrogram.merges[: n - k]:
        ra, rb = find(left), find(right)
        parent[max(ra, rb)] = min(ra, rb)

    leaves = dendrogram.leaves
    return _canonical_labels(leaves, [find(sid) for sid in leaves], k,
                             algorithm or f"hierarchical(k={k})", seed, None)


# ---------------------------------------------------------------------------
# File formats


def write_assignment_csv(assignment: ClusterAssignment, path):
    sidecar = {
        "algorithm": assignment.algorithm,
        "k": assignment.k,
        "seed": assignment.seed,
        "objective": assignment.objective,
        "metric": assignment.metric,
        "normalization": assignment.normalization,
    }
    labels = assignment.labels
    write_rows(path, ASSIGNMENT, ([sid, labels[sid]] for sid in sorted(labels)), sidecar)


def read_assignment_csv(path) -> ClusterAssignment:
    _, ids, clusters = read_table(path, int, header=ASSIGNMENT)
    labels = dict(zip(ids, clusters[:, 0].tolist()))
    sidecar = read_sidecar(path, "algorithm")
    return ClusterAssignment(
        labels=labels,
        k=max(labels.values(), default=0),
        algorithm=sidecar["algorithm"],
        seed=sidecar.get("seed", 0),
        objective=sidecar.get("objective"),
        metric=sidecar.get("metric"),
        normalization=sidecar.get("normalization"),
    )


def write_dendrogram_csv(dendrogram: Dendrogram, path):
    write_rows(path, ["step", "left", "right", "height", "size"],
               ([step, left, right, NUMBER % height, size]
                for step, (left, right, height, size) in enumerate(dendrogram.merges, start=1)))
