"""Cluster validity indices and k-sweeps.

ch_index and bcss each come in two variants: ``paper`` is the inverted,
lower-is-better form (unweighted BCSS, CH = WCSS/BCSS); ``standard`` /
``weighted`` is the conventional higher-is-better form used for sweeps by
default.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .distances import delta_rows, mpbd_row, mpbd_upper
from .errors import DataError, DegenerateGeometryError


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


def wcss(vectors, ids, assignment) -> float:
    """Within-cluster sum of squared deviations from cluster means."""
    X = np.asarray(vectors, dtype=float)
    total = 0.0
    for members in _groups(ids, assignment):
        mu = X[members].mean(axis=0)
        total += float(((X[members] - mu) ** 2).sum())
    return total


def bcss(vectors, ids, assignment, variant: str = "paper") -> float:
    """Between-cluster sum of squares, unweighted (paper) or size-weighted."""
    if variant not in ("paper", "weighted"):
        raise DataError(f"unknown bcss variant {variant!r}")
    X = np.asarray(vectors, dtype=float)
    grand = X.mean(axis=0)
    total = 0.0
    for members in _groups(ids, assignment):
        mu = X[members].mean(axis=0)
        term = float(((mu - grand) ** 2).sum())
        if variant == "weighted":
            term *= len(members)
        total += term
    return total


def ch_index(vectors, ids, assignment, variant: str = "standard") -> float:
    """Calinski-Harabasz score.

    standard: (BCSS_w / (k-1)) / (WCSS / (n-k)), higher is better.
    paper:    WCSS / BCSS_unweighted, lower is better.
    """
    X = np.asarray(vectors, dtype=float)
    n, k = X.shape[0], assignment.k
    if not 2 <= k < n:
        raise DataError(f"ch_index requires 2 <= k < n, got k={k}, n={n}")
    w = wcss(X, ids, assignment)
    if variant == "standard":
        b = bcss(X, ids, assignment, "weighted")
        if w == 0.0:
            raise DegenerateGeometryError("ch_index: zero within-cluster scatter")
        return (b / (k - 1)) / (w / (n - k))
    if variant == "paper":
        b = bcss(X, ids, assignment, "paper")
        if b == 0.0:
            raise DegenerateGeometryError("ch_index: zero between-cluster scatter")
        return w / b
    raise DataError(f"unknown ch variant {variant!r}")


def db_index(vectors, ids, assignment) -> float:
    """Davies-Bouldin index: mean over clusters of the worst R_ij ratio."""
    X = np.asarray(vectors, dtype=float)
    k = assignment.k
    if not 2 <= k <= X.shape[0]:
        raise DataError(f"db_index requires 2 <= k <= n, got k={k}")
    groups = _groups(ids, assignment)
    mus = np.stack([X[m].mean(axis=0) for m in groups])
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


def _pair_sum(pairs) -> float:
    """One cluster's pairwise distances, added one at a time in (a, b) order like a scalar loop."""
    return float(np.cumsum(pairs)[-1]) if len(pairs) else 0.0


def mpbi(levels, ids, assignment, omega: float = 2.0, raw_mpbd=None) -> float:
    """Movement-pattern index: per-cluster mean pairwise raw distance.

    Per cluster, the pairwise mpbd sum divided by the cluster size; the
    result averages those over clusters.  Singletons contribute 0; lower
    is better.  ``raw_mpbd``, when given, is ``distances.mpbd_upper`` of
    ``levels`` at this ``omega``: each cluster's pairs are then read from
    it instead of computed.
    """
    groups = _groups(ids, assignment)
    if raw_mpbd is None:
        D, S = delta_rows(np.stack([np.asarray(s, dtype=float) for s in levels]))
    total = 0.0
    for members in groups:
        if raw_mpbd is not None:
            pairs = raw_mpbd[np.ix_(members, members)][np.triu_indices(len(members), 1)]
        else:
            Dm, Sm = D[members], S[members]
            rows = [mpbd_row(Dm[a], Sm[a], Dm[a + 1 :], Sm[a + 1 :], omega)
                    for a in range(len(members) - 1)]
            pairs = np.concatenate(rows) if rows else ()
        total += _pair_sum(pairs) / len(members)
    return total / assignment.k


def evaluate(vectors, levels, ids, assignment, omega: float = 2.0,
             ch_variant: str = "standard", raw_mpbd=None) -> ValidityReport:
    """Compute all three indices; degenerate geometry is noted, not fatal.

    ``raw_mpbd`` is passed on to ``mpbi``.
    """
    notes = {}
    try:
        ch = ch_index(vectors, ids, assignment, ch_variant)
    except DegenerateGeometryError as exc:
        ch, notes["ch"] = None, str(exc)
    try:
        db = db_index(vectors, ids, assignment)
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
            raw_mpbd = mpbd_upper(np.stack([np.asarray(s, dtype=float) for s in levels]), omega)
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
    path = str(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["k", "ch", "db", "mpbi", "note"])
        for row in rows:
            writer.writerow(
                [row.k]
                + ["" if v is None else format(v, ".9g") for v in (row.ch, row.db, row.mpbi)]
                + [row.note]
            )
    if sidecar is not None:
        with open(path.rsplit(".", 1)[0] + ".json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, sort_keys=True, indent=2)
            fh.write("\n")
