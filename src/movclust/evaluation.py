"""Cluster validity indices and k-sweeps.

``evaluate`` is the one scoring pass: it reports Calinski-Harabasz in two
forms, Davies-Bouldin and the movement-pattern index.  CH's ``standard``
form is the conventional higher-is-better one, (BCSS_w / (k-1)) / (WCSS /
(n-k)) with the size-weighted BCSS; its ``paper`` form is the inverted,
lower-is-better WCSS / BCSS with the unweighted BCSS.

A sweep's clusterings share most of their clusters (a hierarchical sweep
over k = 2..20 has at most 38 distinct ones among its 209), so ``sweep_k``
works out each distinct cluster's mean row, scatter and MPBI term once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distances import delta_rows, mpbd_upper
from .errors import DataError, DegenerateGeometryError
from .tables import NUMBER, write_rows


@dataclass
class ValidityReport:
    k: int
    ch: float | None
    ch_paper: float | None
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


def _per_cluster(cache, name, members, compute):
    """``compute(members)``, kept in ``cache`` under ``name`` and the member indices.

    ``cache`` holds the values of one sweep, over one set of vectors and
    levels at one omega; without it each value is worked out anew.  A kept
    value came from the same operations, so it has the same bits.
    """
    if cache is None:
        return compute(members)
    key = (name, members.tobytes())
    if key not in cache:
        cache[key] = compute(members)
    return cache[key]


def _running_sum(values) -> float:
    """``values`` added one at a time, left to right, like a scalar loop."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _db(mus, spreads) -> float:
    """Davies-Bouldin index of clusters with centroids ``mus`` and RMS ``spreads``."""
    k = len(mus)
    # centroid distances; each row's sum runs over a contiguous row, as for one pair
    M = np.stack([np.sqrt(((mu - mus) ** 2).sum(axis=1)) for mu in mus])
    np.fill_diagonal(M, np.inf)  # a cluster's own ratio, 2 S / inf = 0, never wins a max
    coincident = np.argwhere(M == 0.0)
    if len(coincident):
        i, j = coincident[0]
        raise DegenerateGeometryError(
            f"db_index: coincident centroids for clusters {i + 1} and {j + 1}"
        )
    worst = ((spreads[:, None] + spreads[None]) / M).max(axis=1)
    return _running_sum(worst) / k


def step_bins(levels, omega: float = 2.0):
    """Each series' step deltas as histogram bins, and the MPBD cost of each pair of bins.

    Returns (bins, costs) when ``distances.delta_rows`` gives int8 deltas,
    so that every step cost |a - b| x (omega where the signs of a and b
    differ, else 1) is an exact integer of at most 127, and when the pairs
    of all the series would sum below 2**53 at the largest cost; else None.
    ``bins[i, t]`` is series i's delta at step t less the smallest delta, a
    bin of 0..V-1, and ``costs`` is the (V, V) int64 table of the step cost
    between the deltas of two bins.
    """
    D, _, w = delta_rows(np.asarray(levels, dtype=float), omega)
    if D.dtype != np.int8:
        return None
    lo = int(D.min())
    deltas = np.arange(lo, int(D.max()) + 1)
    signs = np.sign(deltas)
    costs = np.abs(deltas[:, None] - deltas) * np.where(signs[:, None] != signs, int(w), 1)
    n, steps = D.shape
    # every sum below 2**53 is also what adding the pairs' float costs one at a time gives
    if n * (n - 1) // 2 * steps * int(costs.max()) >= 2**53:
        return None
    return D - np.int8(lo), costs


def _binned_pair_sum(bins, costs, members) -> int:
    """The exact sum of the pairwise MPBD of ``members``, from ``step_bins``.

    With N_t the count of members in each bin at step t, the pairs cost
    1/2 sum_t N_t' costs N_t: a bin's cost to itself is 0.
    """
    steps, width = bins.shape[1], len(costs)
    counts = np.bincount((bins[members] + np.arange(0, steps * width, width)).ravel(),
                         minlength=steps * width).reshape(steps, width)
    return int(((counts @ costs) * counts).sum()) // 2


def mpbi(levels, ids, assignment, omega: float = 2.0, raw_mpbd=None, bins=None, groups=None,
         cache=None) -> float:
    """Movement-pattern index: per-cluster mean pairwise raw distance.

    Per cluster, the pairwise mpbd sum divided by the cluster size; the
    result averages those over clusters.  Singletons contribute 0; lower
    is better.  A cluster's pair sum is counted from ``bins``, the
    ``step_bins`` of ``levels`` at this ``omega``, worked out here unless
    ``raw_mpbd`` is given, when those apply.  Otherwise its pairs are added
    in (a, b) order: the upper triangle of its rows of ``raw_mpbd``, which
    is ``distances.mpbd_upper`` of ``levels`` at this ``omega``, or without
    it of ``mpbd_upper`` of the cluster's levels.  Both give the same bits.
    ``groups``, the member indices of each cluster, are worked out from
    ``assignment`` when not given; ``cache`` is ``_per_cluster``'s.
    """
    levels = np.asarray(levels, dtype=float)
    if raw_mpbd is None and bins is None:
        bins = step_bins(levels, omega)

    def term(members):
        if bins is not None:
            pair_sum = float(_binned_pair_sum(*bins, members)) if len(members) > 1 else 0.0
        else:
            within = (mpbd_upper(levels[members], omega) if raw_mpbd is None
                      else raw_mpbd[np.ix_(members, members)])
            # one cluster's pairs, added in (a, b) order
            pair_sum = _running_sum(within[np.triu_indices(len(members), 1)])
        return pair_sum / len(members)

    total = 0.0
    for members in _groups(ids, assignment) if groups is None else groups:
        total += _per_cluster(cache, "mpbi", members, term)
    return total / assignment.k


def evaluate(vectors, levels, ids, assignment, omega: float = 2.0,
             raw_mpbd=None, bins=None, cache=None) -> ValidityReport:
    """Score ``assignment`` with every index; degenerate geometry is noted, not fatal.

    The clusters, their means and each one's sum of squared deviations are
    worked out once: the sums give WCSS for both CH forms and the spreads
    of DB.  ``raw_mpbd`` and ``bins`` are passed on to ``mpbi``, with the
    clusters and ``cache`` (see ``_per_cluster``); it is called by its
    public name, with ``assignment`` third, so that a wrapper around it
    sees every call and can count its pairs.
    """
    X = np.asarray(vectors, dtype=float)
    n, k = X.shape[0], assignment.k
    if not 2 <= k < n:
        raise DataError(f"ch_index requires 2 <= k < n, got k={k}, n={n}")
    groups = _groups(ids, assignment)
    sizes = np.array([len(members) for members in groups])

    def scatter(members):
        rows = X[members]
        mu = rows.mean(axis=0)
        return mu, ((rows - mu) ** 2).sum()

    mus, within = zip(*(_per_cluster(cache, "scatter", members, scatter) for members in groups))
    mus, within = np.stack(mus), np.array(within)
    grand = X.mean(axis=0)
    between = np.array([((mu - grand) ** 2).sum() for mu in mus])
    wcss, bcss = _running_sum(within), _running_sum(between)
    ch = ch_paper = db = None
    notes = {}
    if wcss == 0.0:
        notes["ch"] = "ch_index: zero within-cluster scatter"
    else:
        ch = (_running_sum(between * sizes) / (k - 1)) / (wcss / (n - k))
    if bcss == 0.0:
        notes["ch_paper"] = "ch_index: zero between-cluster scatter"
    else:
        ch_paper = wcss / bcss
    try:
        db = _db(mus, np.sqrt(within / sizes))
    except DegenerateGeometryError as exc:
        notes["db"] = str(exc)
    index = mpbi(levels, ids, assignment, omega=omega, raw_mpbd=raw_mpbd, bins=bins,
                 groups=groups, cache=cache)
    return ValidityReport(k, ch, ch_paper, db, index, notes or None)


def sweep_k(vectors, levels, ids, ks, cluster_fn, omega: float = 2.0) -> list[SweepRow]:
    """Run cluster_fn(k) for each k and score it; per-k failures become notes.

    Every k's MPBI counts from the ``step_bins`` of ``levels``, or where
    those do not apply reads one raw MPBD matrix over ``levels``; either is
    computed once, and so is each distinct cluster's share of every index.
    """
    ks = sorted(set(int(k) for k in ks))
    raw_mpbd = bins = None
    if ks and len(levels) >= 2:
        levels = np.asarray(levels, dtype=float)
        bins = step_bins(levels, omega)
        if bins is None:
            try:
                raw_mpbd = mpbd_upper(levels, omega)
            except DataError:
                pass  # series too short to move: each k's mpbi meets and notes the same error
    rows, cache = [], {}
    for k in ks:
        try:
            assignment = cluster_fn(k)
            report = evaluate(vectors, levels, ids, assignment, omega=omega, raw_mpbd=raw_mpbd,
                              bins=bins, cache=cache)
        except (DataError, DegenerateGeometryError) as exc:
            rows.append(SweepRow(k=k, ch=None, db=None, mpbi=None, note=str(exc)))
            continue
        # sweep.csv has no ch_paper column, so its note names only ch and db
        note = ";".join(f"{key}:{msg}" for key, msg in sorted((report.notes or {}).items())
                        if key != "ch_paper")
        rows.append(SweepRow(k=k, ch=report.ch, db=report.db, mpbi=report.mpbi, note=note))
    return rows


def write_sweep_csv(rows, path, sidecar: dict | None = None):
    write_rows(path, ["k", "ch", "db", "mpbi", "note"],
               ([row.k] + ["" if v is None else NUMBER % v for v in (row.ch, row.db, row.mpbi)]
                + [row.note] for row in rows), sidecar)
