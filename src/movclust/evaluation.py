"""Cluster validity indices and k-sweeps.

ch_index and bcss each come in two variants: ``paper`` is the inverted,
lower-is-better form (unweighted BCSS, CH = WCSS/BCSS); ``standard`` /
``weighted`` is the conventional higher-is-better form used for sweeps by
default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import mpbd_upper
from .errors import DataError, DegenerateGeometryError
from .tables import NUMBER, write_rows


@dataclass
class ValidityReport:
    k: int
    ch: float | None
    ch_variant: str
    db: float | None
    mpbi: float
    notes: dict | None = None


@dataclass
class SweepRow:
    k: int
    ch: float | None
    db: float | None
    mpbi: float | None
    note: str = ""


def _groups(ids, assignment):
    labels = assignment.label_array(ids)
    groups = []
    for c in range(1, assignment.k + 1):
        members = np.flatnonzero(labels == c)
        if len(members) == 0:
            raise DataError(f"cluster {c} is empty")
        groups.append(members)
    return groups


def _cluster_means(X, ids, assignment):
    """Each cluster's member rows of ``X`` and its mean vector."""
    groups = _groups(ids, assignment)
    return groups, [X[members].mean(axis=0) for members in groups]


def _wcss(X, groups, mus) -> float:
    total = 0.0
    for members, mu in zip(groups, mus):
        total += float(((X[members] - mu) ** 2).sum())
    return total


def _bcss(X, groups, mus, variant) -> float:
    grand = X.mean(axis=0)
    total = 0.0
    for members, mu in zip(groups, mus):
        term = float(((mu - grand) ** 2).sum())
        if variant == "weighted":
            term *= len(members)
        total += term
    return total


def wcss(vectors, ids, assignment) -> float:
    """Within-cluster sum of squared deviations from cluster means."""
    X = np.asarray(vectors, dtype=float)
    return _wcss(X, *_cluster_means(X, ids, assignment))


def bcss(vectors, ids, assignment, variant: str = "paper") -> float:
    """Between-cluster sum of squares, unweighted (paper) or size-weighted."""
    if variant not in ("paper", "weighted"):
        raise DataError(f"unknown bcss variant {variant!r}")
    X = np.asarray(vectors, dtype=float)
    return _bcss(X, *_cluster_means(X, ids, assignment), variant)


def _check_ch_k(k, n):
    if not 2 <= k < n:
        raise DataError(f"ch_index requires 2 <= k < n, got k={k}, n={n}")


def _ch(X, groups, mus, variant) -> float:
    n, k = X.shape[0], len(groups)
    w = _wcss(X, groups, mus)
    if variant == "standard":
        b = _bcss(X, groups, mus, "weighted")
        if w == 0.0:
            raise DegenerateGeometryError("ch_index: zero within-cluster scatter")
        return (b / (k - 1)) / (w / (n - k))
    if variant == "paper":
        b = _bcss(X, groups, mus, "paper")
        if b == 0.0:
            raise DegenerateGeometryError("ch_index: zero between-cluster scatter")
        return w / b
    raise DataError(f"unknown ch variant {variant!r}")


def ch_index(vectors, ids, assignment, variant: str = "standard") -> float:
    """Calinski-Harabasz score.

    standard: (BCSS_w / (k-1)) / (WCSS / (n-k)), higher is better.
    paper:    WCSS / BCSS_unweighted, lower is better.
    """
    X = np.asarray(vectors, dtype=float)
    _check_ch_k(assignment.k, X.shape[0])
    return _ch(X, *_cluster_means(X, ids, assignment), variant)


def _db(X, groups, mus) -> float:
    k = len(groups)
    mus = np.stack(mus)
    S = np.asarray(
        [np.sqrt(((X[m] - mu) ** 2).sum() / len(m)) for m, mu in zip(groups, mus)]
    )
    # centroid distances; each row's sum runs over a contiguous row, as for one pair
    M = np.stack([np.sqrt(((mu - mus) ** 2).sum(axis=1)) for mu in mus])
    np.fill_diagonal(M, np.inf)  # a cluster's own ratio, 2 S / inf = 0, never wins a max
    coincident = np.argwhere(M == 0.0)
    if len(coincident):
        i, j = coincident[0]
        raise DegenerateGeometryError(
            f"db_index: coincident centroids for clusters {i + 1} and {j + 1}"
        )
    worst = ((S[:, None] + S[None]) / M).max(axis=1)
    return float(np.cumsum(worst)[-1]) / k


def db_index(vectors, ids, assignment) -> float:
    """Davies-Bouldin index: mean over clusters of the worst R_ij ratio."""
    X = np.asarray(vectors, dtype=float)
    k = assignment.k
    if not 2 <= k <= X.shape[0]:
        raise DataError(f"db_index requires 2 <= k <= n, got k={k}")
    return _db(X, *_cluster_means(X, ids, assignment))


def _pair_sum(pairs) -> float:
    """One cluster's pairwise distances, added one at a time in (a, b) order like a scalar loop."""
    return float(np.cumsum(pairs)[-1]) if len(pairs) else 0.0


def mpbi(levels, ids, assignment, omega: float = 2.0, raw_mpbd=None) -> float:
    """Movement-pattern index: per-cluster mean pairwise raw distance.

    Per cluster, the pairwise mpbd sum divided by the cluster size; the
    result averages those over clusters.  Singletons contribute 0; lower
    is better.  Each cluster's pairs are the upper triangle of its rows of
    ``raw_mpbd``, which is ``distances.mpbd_upper`` of ``levels`` at this
    ``omega``; without it, of ``mpbd_upper`` of the cluster's levels.
    """
    levels = np.asarray(levels, dtype=float)
    total = 0.0
    for members in _groups(ids, assignment):
        if raw_mpbd is None:
            within = mpbd_upper(levels[members], omega)
        else:
            within = raw_mpbd[np.ix_(members, members)]
        total += _pair_sum(within[np.triu_indices(len(members), 1)]) / len(members)
    return total / assignment.k


def evaluate(vectors, levels, ids, assignment, omega: float = 2.0,
             ch_variant: str = "standard", raw_mpbd=None) -> ValidityReport:
    """Compute all three indices; degenerate geometry is noted, not fatal.

    The clusters and their means are worked out once for CH and DB.
    ``raw_mpbd`` is passed on to ``mpbi``, which is called by its public
    name so that a wrapper around it sees every call.
    """
    X = np.asarray(vectors, dtype=float)
    _check_ch_k(assignment.k, X.shape[0])  # it implies db_index's 2 <= k <= n
    groups, mus = _cluster_means(X, ids, assignment)
    notes = {}
    try:
        ch = _ch(X, groups, mus, ch_variant)
    except DegenerateGeometryError as exc:
        ch, notes["ch"] = None, str(exc)
    try:
        db = _db(X, groups, mus)
    except DegenerateGeometryError as exc:
        db, notes["db"] = None, str(exc)
    index = mpbi(levels, ids, assignment, omega=omega, raw_mpbd=raw_mpbd)
    return ValidityReport(k=assignment.k, ch=ch, ch_variant=ch_variant, db=db,
                          mpbi=index, notes=notes or None)


def sweep_k(vectors, levels, ids, ks, cluster_fn, omega: float = 2.0,
            ch_variant: str = "standard") -> list[SweepRow]:
    """Run cluster_fn(k) for each k and score it; per-k failures become notes.

    Every k's MPBI reads one raw MPBD matrix over ``levels``, computed once.
    """
    ks = sorted(set(int(k) for k in ks))
    raw_mpbd = None
    if ks and len(levels) >= 2:
        try:
            raw_mpbd = mpbd_upper(np.asarray(levels, dtype=float), omega)
        except DataError:
            pass  # series too short to move: each k's mpbi meets and notes the same error
    rows = []
    for k in ks:
        try:
            assignment = cluster_fn(k)
            report = evaluate(vectors, levels, ids, assignment, omega=omega,
                              ch_variant=ch_variant, raw_mpbd=raw_mpbd)
        except (DataError, DegenerateGeometryError) as exc:
            rows.append(SweepRow(k=k, ch=None, db=None, mpbi=None, note=str(exc)))
            continue
        note = ";".join(f"{key}:{msg}" for key, msg in sorted((report.notes or {}).items()))
        rows.append(SweepRow(k=k, ch=report.ch, db=report.db, mpbi=report.mpbi, note=note))
    return rows


def write_sweep_csv(rows, path, sidecar: dict | None = None):
    write_rows(path, ["k", "ch", "db", "mpbi", "note"],
               ([row.k] + ["" if v is None else NUMBER % v for v in (row.ch, row.db, row.mpbi)]
                + [row.note] for row in rows), sidecar)
