import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import evaluation as ev
from movclust.clustering import ClusterAssignment, agglomerative, cut_dendrogram, kmeans, kmedoids
from movclust.core_data import SeriesCollection
from movclust.distances import distance_matrix, mpbd_upper
from movclust.errors import DataError, DegenerateGeometryError

from conftest import collection, ts
from scalar_reference import (
    ch_index_ref, db_index_ref, mpbd_ref, mpbi_ref, mpbi_rows_ref, sweep_k_ref,
)


def assign(labels, ids=None):
    ids = ids or [f"s{i}" for i in range(len(labels))]
    return ClusterAssignment(
        labels=dict(zip(ids, labels)), k=max(labels), algorithm="test"
    ), ids


def report(X, labels):
    """``evaluate`` of ``labels`` over the vectors ``X``, with flat levels for MPBI."""
    a, ids = assign(labels)
    X = np.asarray(X, dtype=float)
    return ev.evaluate(X, np.ones((len(X), 2)), ids, a)


def random_labels(rng, n, k):
    """n labels that use each of 1..k at least once."""
    return [int(c) for c in rng.permutation(
        np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)]))]


# naive reference implementations, double loops straight from the formulas


def wcss_oracle(X, labels):
    total = 0.0
    for c in set(labels):
        members = [x for x, l in zip(X, labels) if l == c]
        mu = np.mean(members, axis=0)
        for x in members:
            total += ((x - mu) ** 2).sum()
    return total


def bcss_oracle(X, labels, weighted):
    grand = np.mean(X, axis=0)
    total = 0.0
    for c in set(labels):
        members = [x for x, l in zip(X, labels) if l == c]
        gap = ((np.mean(members, axis=0) - grand) ** 2).sum()
        total += len(members) * gap if weighted else gap
    return total


def db_oracle(X, labels):
    clusters = sorted(set(labels))
    mus, spreads = [], []
    for c in clusters:
        members = np.array([x for x, l in zip(X, labels) if l == c])
        mu = members.mean(axis=0)
        mus.append(mu)
        spreads.append(np.sqrt(((members - mu) ** 2).sum() / len(members)))
    total = 0.0
    for i in range(len(clusters)):
        total += max(
            (spreads[i] + spreads[j]) / np.sqrt(((mus[i] - mus[j]) ** 2).sum())
            for j in range(len(clusters))
            if j != i
        )
    return total / len(clusters)


def mpbi_oracle(levels, labels, omega=2.0):
    clusters = sorted(set(labels))
    total = 0.0
    for c in clusters:
        members = [s for s, l in zip(levels, labels) if l == c]
        pair_sum = sum(
            mpbd_ref(a, b, omega=omega) for a, b in itertools.combinations(members, 2)
        )
        total += pair_sum / len(members)
    return total / len(clusters)


class TestWcss:
    """WCSS, read through the paper's CH form WCSS / BCSS."""

    def test_singletons_zero(self):
        # two singletons and a pair of equal points
        r = report([[0.0], [5.0], [9.0], [9.0]], [1, 2, 3, 3])
        assert r.ch_paper == 0.0
        assert r.ch is None and r.notes["ch"] == "ch_index: zero within-cluster scatter"

    def test_hand_value(self):
        # WCSS = 2, means 1 and 10 around the grand mean 4: BCSS = 9 + 36
        assert report([[0.0], [2.0], [10.0]], [1, 1, 2]).ch_paper == 2.0 / 45.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(9, 3))
        labels = [1, 2, 3, 1, 2, 3, 1, 2, 1]
        expected = wcss_oracle(X, labels) / bcss_oracle(X, labels, weighted=False)
        assert report(X, labels).ch_paper == pytest.approx(expected, rel=1e-12)


class TestBcss:
    """BCSS, unweighted in CH's paper form and size-weighted in its standard form."""

    def test_paper_variant(self):
        # WCSS = 2, means 0 and 3 around the grand mean 1: BCSS = 1 + 4
        assert report([[-1.0], [1.0], [3.0]], [1, 1, 2]).ch_paper == pytest.approx(2.0 / 5.0)

    def test_weighted_variant_equal_sizes(self):
        # WCSS = 4, means 0 and 4 around 2: BCSS_w = 2 x (4 + 4), CH = (16 / 1) / (4 / 2)
        r = report([[-1.0], [1.0], [3.0], [5.0]], [1, 1, 2, 2])
        assert r.ch == 8.0
        assert r.ch_paper == 0.5

    def test_weighted_differs_with_sizes(self):
        # BCSS_w = 2 x 1 + 1 x 4 = 6 and BCSS = 1 + 4 = 5, over WCSS = 2
        r = report([[-1.0], [1.0], [3.0]], [1, 1, 2])
        assert r.ch == pytest.approx((6.0 / 1) / (2.0 / 1))
        assert r.ch_paper == pytest.approx(2.0 / 5.0)


class TestChIndex:
    def six_points(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]])
        return X, [1, 1, 2, 2, 3, 3]

    def test_standard_hand_value(self):
        # WCSS = 1.5, BCSS_w = 400, CH = (400/2)/(1.5/3) = 400
        assert report(*self.six_points()).ch == pytest.approx(400.0)

    def test_paper_variant_is_small_for_good_clusters(self):
        paper = report(*self.six_points()).ch_paper
        assert paper == pytest.approx(1.5 / 200.0)
        assert paper < 1

    def test_reciprocal_ranking_at_fixed_k_equal_sizes(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(8, 2))
        r1, r2 = (report(X, labels) for labels in ([1, 1, 2, 2, 1, 1, 2, 2],
                                                   [1, 2, 1, 2, 1, 2, 1, 2]))
        assert (r1.ch > r2.ch) == (r1.ch_paper < r2.ch_paper)

    def test_degenerate_reported(self):
        r = report([[0.0], [0.0], [1.0], [1.0]], [1, 1, 2, 2])  # zero WCSS
        assert r.ch is None and r.notes == {"ch": "ch_index: zero within-cluster scatter"}
        r = report([[0.0], [2.0], [0.0], [2.0]], [1, 1, 2, 2])  # zero BCSS
        assert r.ch == 0.0 and r.ch_paper is None
        assert r.notes["ch_paper"] == "ch_index: zero between-cluster scatter"

    def test_k_bounds(self):
        with pytest.raises(DataError, match=r"^ch_index requires 2 <= k < n, got k=3, n=3$"):
            report(np.zeros((3, 1)), [1, 2, 3])  # k = n

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 300), st.integers(2, 8), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_recomputed_sums(self, n, dim, k, coarse, seed):
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, min(k, n))
        # coarse: few distinct values, so zero scatter occurs
        X = (rng.integers(0, 2, size=(n, dim)) * rng.normal(size=dim) if coarse
             else rng.normal(size=(n, dim)))
        a, ids = assign(labels)
        try:
            r = report(X, labels)
        except DataError as exc:  # k = n
            with pytest.raises(DataError, match=f"^{exc}$"):
                ch_index_ref(X, ids, a)
            return
        for got, key, variant in ((r.ch, "ch", "standard"), (r.ch_paper, "ch_paper", "paper")):
            try:
                expected = float.hex(ch_index_ref(X, ids, a, variant))
            except DegenerateGeometryError as exc:
                assert got is None and r.notes[key] == str(exc)
            else:
                assert float.hex(got) == expected


class TestDbIndex:
    def test_two_singletons(self):
        # and a pair of equal points: every spread is zero
        assert report([[0.0], [5.0], [9.0], [9.0]], [1, 2, 3, 3]).db == 0.0

    def test_hand_value(self):
        # S = 1 each, M = 10 -> DB = 0.2
        assert report([[0.0], [2.0], [10.0], [12.0]], [1, 1, 2, 2]).db == pytest.approx(0.2)

    def test_decreases_with_separation(self):
        near = report([[0.0], [2.0], [5.0], [7.0]], [1, 1, 2, 2]).db
        far = report([[0.0], [2.0], [50.0], [52.0]], [1, 1, 2, 2]).db
        assert far < near

    def test_coincident_centroids_degenerate(self):
        r = report([[0.0], [2.0], [0.0], [2.0]], [1, 1, 2, 2])
        assert r.db is None
        assert r.notes["db"] == "db_index: coincident centroids for clusters 1 and 2"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(3, 30), st.integers(1, 400), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_pair_loop(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, min(k, n - 1))
        # few distinct values, so centroids can coincide
        X = rng.integers(0, 2, size=(n, dim)) * rng.normal(size=dim)
        a, ids = assign(labels)
        r = report(X, labels)
        try:
            expected = float.hex(db_index_ref(X, ids, a))
        except DegenerateGeometryError as exc:
            assert r.db is None and r.notes["db"] == str(exc)
        else:
            assert float.hex(r.db) == expected

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(10, 2))
        labels = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
        assert report(X, labels).db == pytest.approx(db_oracle(X, labels), rel=1e-9)


class TestMpbi:
    def test_singletons_zero(self):
        levels = [[1, 2, 3], [3, 2, 1], [2, 2, 2]]
        a, ids = assign([1, 2, 3])
        assert ev.mpbi(levels, ids, a) == 0.0

    def test_formula_instantiation(self):
        levels = [[2, 2, 2, 1, 1, 1, 2, 2, 2, 2], [4, 4, 4, 2, 2, 2, 4, 4, 4, 4]]
        a, ids = assign([1, 1])
        # one cluster, pairwise raw distance 2, size 2 -> (1/1) * (2/2) = 1
        assert ev.mpbi(levels, ids, a) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(23)
        levels = [rng.integers(1, 6, size=8) for _ in range(9)]
        labels = [1, 2, 3, 1, 2, 3, 1, 2, 1]
        a, ids = assign(labels)
        assert ev.mpbi(levels, ids, a) == pytest.approx(
            mpbi_oracle(levels, labels), rel=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(2, 10), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_scalar_loop(self, n, length, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        labels = [int(c) for c in rng.permutation(
            np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)]))]
        # real-valued levels, so the order the pair values are added in shows
        levels = [rng.normal(size=length) for _ in range(n)]
        a, ids = assign(labels)
        for omega in (2.0, 3.0):
            got = ev.mpbi(levels, ids, a, omega=omega)
            assert type(got) is float
            assert got == mpbi_ref(levels, labels, omega=omega)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.sampled_from([2, 3, 9]), st.integers(1, 4),
           st.sampled_from([0.0, 1.0, 2.0, 3.0, 15.0, 16.0, 63.0, 64.0, 0.3, 2.5]),
           st.integers(0, 2**32 - 1))
    def test_integer_kernel_matches_float_kernel(self, n, length, k, omega, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        labels = [int(c) for c in rng.permutation(
            np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)]))]
        # symbolic levels: step bins up to omega 15, float64 above and off integers
        levels = [rng.integers(1, 6, size=length).astype(float)
                  for _ in range(n)]
        a, ids = assign(labels)
        expected = float.hex(mpbi_rows_ref(levels, ids, a, omega=omega))
        assert float.hex(ev.mpbi(levels, ids, a, omega=omega)) == expected
        assert float.hex(ev.mpbi(levels, ids, a, omega=omega, cache={})) == expected

    def test_series_without_a_label_names_the_first(self):
        levels = [[1, 2, 3], [3, 2, 1], [2, 2, 2], [1, 1, 1]]
        a, _ = assign([1, 2, 1])
        ids = ["s0", "x", "s1", "y"]
        for score in (ev.mpbi, lambda *args: ev.evaluate(np.ones((4, 2)), *args)):
            with pytest.raises(DataError, match=r"^assignment has no label for series 'x'$"):
                score(levels, ids, a)

    def test_relabel_and_reorder_invariance(self):
        rng = np.random.default_rng(24)
        levels = [rng.integers(1, 6, size=6) for _ in range(6)]
        ids = [f"s{i}" for i in range(6)]
        a1, _ = assign([1, 1, 2, 2, 3, 3], ids)
        a2, _ = assign([3, 3, 1, 1, 2, 2], ids)  # same partition, relabeled
        assert ev.mpbi(levels, ids, a1) == ev.mpbi(levels, ids, a2)
        perm = [5, 3, 1, 0, 2, 4]
        assert ev.mpbi(
            [levels[i] for i in perm], [ids[i] for i in perm], a1
        ) == pytest.approx(ev.mpbi(levels, ids, a1))


class TestInvariances:
    def test_translation_invariance(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(8, 2))
        labels = [1, 1, 2, 2, 1, 2, 1, 2]
        moved, fixed = report(X + np.array([100.0, -40.0]), labels), report(X, labels)
        for index in ("ch", "ch_paper", "db"):
            assert getattr(moved, index) == pytest.approx(getattr(fixed, index))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(6, 2))
        r1, r2 = report(X, [1, 2, 3, 1, 2, 3]), report(X, [2, 3, 1, 2, 3, 1])
        for index in ("ch", "ch_paper", "db"):
            assert getattr(r1, index) == pytest.approx(getattr(r2, index))


class TestMpbiFromStepBins:
    """MPBI counted from per-cluster step-delta histograms equals the pair sums bit for bit.

    No step cost of exactly 127 passes the step-bin gate, as 127 is odd: flat
    series at omega 127 meet its bound of 127, and steps of +-63 at omega 1
    make the largest cost it admits, 126.
    """

    #: (the values each level is drawn from, omega, whether ``step_bins`` applies)
    EDGES = [
        ((3.0,), 127.0, True),  # flat series: the bound max(2 * 0, 1) * 127 is 127
        ((0.0, 63.0), 1.0, True),  # a cost of 126 between the steps +63 and -63
        ((0.0, 21.0), 3.0, True),  # a cost of 126, a gap of 42 at weight 3
        ((0.0, 64.0), 1.0, False),  # a cost of 128
        ((0.0, 32.0), 2.0, False),  # a cost of 128, a gap of 64 at weight 2
        ((1.0, 5.0), 0.3, False),  # a non-integral omega
        ((0.5, 1.0, 2.25), 2.0, False),  # non-integral steps
    ]

    @staticmethod
    def check(levels, labels, omega, binned):
        a, ids = assign(labels)
        assert (ev.step_bins(levels, omega) is not None) == binned
        got = float.hex(ev.mpbi(levels, ids, a, omega=omega))
        assert got == float.hex(mpbi_rows_ref(levels, ids, a, omega=omega))
        assert got == float.hex(mpbi_ref(levels, labels, omega=omega))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 30), st.data(),
           st.sampled_from([0.0, 1.0, 2.0, 15.0]), st.integers(0, 2**32 - 1))
    def test_symbolic_levels_match_the_references(self, n, length, data, omega, seed):
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, data.draw(st.integers(2, n), label="k"))
        self.check(rng.integers(1, 6, size=(n, length)).astype(float), labels, omega, True)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 30), st.data(), st.sampled_from(EDGES),
           st.integers(0, 2**32 - 1))
    def test_the_gate_edges_match_the_references(self, n, length, data, edge, seed):
        values, omega, binned = edge
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, data.draw(st.integers(2, n), label="k"))
        levels = rng.choice(values, size=(n, length))
        # the drawn levels may lack the step that sets the bound
        levels[0, :2] = values[0], values[-1]
        levels[1, :2] = values[-1], values[0]
        self.check(levels, labels, omega, binned)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 40), st.integers(2, 30), st.data(), st.integers(0, 2**32 - 1))
    def test_float_levels_keep_the_pair_sums(self, n, length, data, seed):
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, data.draw(st.integers(2, n), label="k"))
        self.check(rng.normal(size=(n, length)), labels, 2.0, False)

    def test_one_day_series_cannot_move(self):
        a, ids = assign([1, 1, 2])
        with pytest.raises(DataError, match="length >= 2"):
            ev.mpbi([[3.0], [4.0], [5.0]], ids, a)

    def test_sweep_of_integer_levels_builds_no_raw_matrix(self, monkeypatch):
        rng = np.random.default_rng(29)
        X = rng.normal(size=(12, 2))
        levels = rng.integers(1, 6, size=(12, 9)).astype(float)
        ids = [f"s{i:02d}" for i in range(12)]
        fn = lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=0)
        expected = {omega: sweep_k_ref(X, levels, ids, range(2, 7), fn, omega=omega)
                    for omega in (2.0, 0.3)}
        with mock.patch.object(ev, "mpbd_upper", side_effect=AssertionError("raw matrix")):
            assert ev.sweep_k(X, levels, ids, range(2, 7), fn, omega=2.0) == expected[2.0]
        with mock.patch.object(ev, "mpbd_upper", wraps=mpbd_upper) as raw:
            assert ev.sweep_k(X, levels, ids, range(2, 7), fn, omega=0.3) == expected[0.3]
        raw.assert_called_once()

    def test_sweep_computes_its_step_bins_once(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(12, 2))
        levels = rng.integers(1, 6, size=(12, 9)).astype(float)
        ids = [f"s{i:02d}" for i in range(12)]
        fn = lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=0)
        # step bins at omega 2; at 0.3 none, which is also worked out once
        for omega in (2.0, 0.3):
            expected = sweep_k_ref(X, levels, ids, range(2, 9), fn, omega=omega)
            with mock.patch.object(ev, "_mpbi_bins", wraps=ev._mpbi_bins) as bins:
                assert ev.sweep_k(X, levels, ids, range(2, 9), fn, omega=omega) == expected
            bins.assert_called_once()


def _outcome(fn, *args, **kwargs):
    """fn's result as hex, None for a noted degenerate geometry, or the error."""
    try:
        return float.hex(fn(*args, **kwargs))
    except DegenerateGeometryError:
        return None
    except DataError as exc:
        return type(exc), str(exc)


class TestEvaluateComputesClustersOnce:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 40), st.integers(2, 5), st.integers(1, 8),
           st.booleans(), st.sampled_from([0.3, 2.0]), st.integers(0, 2**32 - 1))
    def test_matches_separate_public_calls(self, n, dim, length, k, coarse, omega, seed):
        """``evaluate`` equals, bit for bit, each index worked out on its own."""
        rng = np.random.default_rng(seed)
        labels = random_labels(rng, n, min(k, n))
        # coarse: few distinct values, so zero scatter and coincident centroids occur
        X = (rng.integers(0, 2, size=(n, dim)) * rng.normal(size=dim) if coarse
             else rng.normal(size=(n, dim)))
        levels = rng.integers(1, 6, size=(n, length))
        a, ids = assign(labels)
        separate = (_outcome(ch_index_ref, X, ids, a, "standard"),
                    _outcome(ch_index_ref, X, ids, a, "paper"),
                    _outcome(db_index_ref, X, ids, a),
                    _outcome(mpbi_ref, levels, labels, omega=omega))
        try:
            r = ev.evaluate(X, levels, ids, a, omega=omega)
        except DataError as exc:  # k = n: the range check of CH
            assert separate[0] == (type(exc), str(exc))
            return
        together = tuple(None if v is None else float.hex(v)
                         for v in (r.ch, r.ch_paper, r.db, r.mpbi))
        assert together == separate


class TestSweep:
    def blobs(self):
        rng = np.random.default_rng(27)
        X = np.concatenate(
            [rng.normal(c, 0.2, size=(6, 2)) for c in (0.0, 5.0, 10.0)]
        )
        ids = [f"s{i:02d}" for i in range(18)]
        levels = [np.clip(np.round(row * 0 + 3), 1, 5).astype(int) for row in X]
        return X, levels, ids

    def test_ch_max_at_true_k(self):
        X, levels, ids = self.blobs()
        rows = ev.sweep_k(
            X, levels, ids, [2, 3, 4], lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=0)
        )
        ch = {row.k: row.ch for row in rows}
        assert max(ch, key=ch.get) == 3

    def test_rows_strictly_increasing_and_reproducible(self):
        X, levels, ids = self.blobs()
        fn = lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=3)
        rows1 = ev.sweep_k(X, levels, ids, [4, 2, 3, 2], fn)
        rows2 = ev.sweep_k(X, levels, ids, [2, 3, 4], fn)
        assert [r.k for r in rows1] == [2, 3, 4]
        assert [(r.k, r.ch, r.db, r.mpbi) for r in rows1] == [
            (r.k, r.ch, r.db, r.mpbi) for r in rows2
        ]

    def test_per_k_errors_become_notes(self):
        X, levels, ids = self.blobs()

        def fn(k):
            if k == 3:
                raise DataError("boom")
            return kmeans(SeriesCollection(ids, X), k=k, seed=0)

        rows = ev.sweep_k(X, levels, ids, [2, 3], fn)
        assert rows[1].ch is None and "boom" in rows[1].note
        assert rows[0].ch is not None

    def test_write_csv(self, tmp_path):
        X, levels, ids = self.blobs()
        fn = lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=0)
        rows = ev.sweep_k(X, levels, ids, [2, 3], fn)
        path = tmp_path / "sweep.csv"
        ev.write_sweep_csv(rows, path, {"algorithm": "kmeans"})
        lines = path.read_text().splitlines()
        assert lines[0] == "k,ch,db,mpbi,note"
        assert len(lines) == 3


class TestSweepFromOneMatrix:
    """A sweep reads every k's MPBI pairs from one raw MPBD matrix.

    Its scores must equal, bit for bit, one-off ``mpbi`` calls, the scalar
    loop and the sweep that computed each k's pairs anew.
    """

    @staticmethod
    def clusterers(levels, ids, omega):
        matrix = distance_matrix(collection(ts(i, s) for i, s in zip(ids, levels)), "mpbd",
                                 omega=omega)
        dendrogram = agglomerative(matrix, linkage="ward")
        X = np.stack(levels)
        return {
            "hierarchical": lambda k: cut_dendrogram(dendrogram, k),
            "kmedoids": lambda k: kmedoids(matrix, k=k, seed=1),
            "kmeans": lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=1),
        }

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 9), st.sampled_from([0.3, 3.0]),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_k_mpbi(self, n, length, omega, seed):
        rng = np.random.default_rng(seed)
        # real-valued levels, so the order the pair values are added in shows
        self.check_sweep([rng.normal(size=length) for _ in range(n)], omega)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 9), st.sampled_from([0.3, 2.0, 16.0]),
           st.integers(0, 2**32 - 1))
    def test_integer_levels_bit_identical_to_per_k_mpbi(self, n, length, omega, seed):
        rng = np.random.default_rng(seed)
        # symbolic levels: the integer MPBD kernel at integral omega
        self.check_sweep([rng.integers(1, 6, size=length).astype(float) for _ in range(n)],
                         omega)

    def check_sweep(self, levels, omega):
        n = len(levels)
        ids = [f"s{i:02d}" for i in range(n)]
        X = np.stack(levels)
        for name, fn in self.clusterers(levels, ids, omega).items():
            ks = range(1, n + 1)
            rows = ev.sweep_k(X, levels, ids, ks, fn, omega=omega)
            assert rows == sweep_k_ref(X, levels, ids, ks, fn, omega=omega), name
            for row in rows:
                try:
                    a = fn(row.k)
                except DataError:
                    continue
                labels = [a.labels[i] for i in ids]
                # k = n is all singletons, which a sweep notes as a CH error
                one_off = ev.mpbi(levels, ids, a, omega=omega)
                expected = [float.hex(mpbi_ref(levels, labels, omega=omega)),
                            float.hex(mpbi_rows_ref(levels, ids, a, omega=omega))]
                assert [float.hex(one_off)] * 2 == expected, (name, row.k)
                assert float.hex(ev.mpbi(levels, ids, a, omega=omega, cache={})) \
                    == expected[0], (name, row.k)
                if row.mpbi is not None:
                    assert float.hex(row.mpbi) == expected[0], (name, row.k)
            assert any(row.mpbi is not None for row in rows) or n < 3

    def test_levels_too_short_note_every_k(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(8, 2))
        ids = [f"s{i}" for i in range(8)]
        levels = [[3] for _ in ids]
        fn = lambda k: kmeans(SeriesCollection(ids, X), k=k, seed=0)
        rows = ev.sweep_k(X, levels, ids, [2, 3, 4], fn)
        assert rows == sweep_k_ref(X, levels, ids, [2, 3, 4], fn)
        assert all(r.mpbi is None and "length >= 2" in r.note for r in rows)


def _bits(value):
    return None if value is None else float.hex(value)


class TestSweepScoresEachClusterOnce:
    """A sweep works out each distinct cluster's share of CH, DB and MPBI once.

    Its rows must equal, bit for bit, ``evaluate`` of each k on its own,
    which shares nothing between calls.
    """

    @settings(max_examples=25, deadline=None)
    @given(st.integers(3, 16), st.integers(2, 9), st.integers(1, 4),
           st.sampled_from(["levels", "floats"]), st.integers(0, 2**32 - 1))
    def test_rows_bit_equal_to_scoring_each_k_afresh(self, n, length, dim, kind, seed):
        rng = np.random.default_rng(seed)
        # symbolic levels count MPBI from step bins; float levels at omega 0.3 read a raw matrix
        if kind == "levels":
            levels, omega = rng.integers(1, 6, size=(n, length)).astype(float), 2.0
        else:
            levels, omega = rng.normal(size=(n, length)), 0.3
        assert (ev.step_bins(levels, omega) is None) == (kind == "floats")
        ids = [f"s{i:02d}" for i in range(n)]
        X = rng.integers(0, 3, size=(n, dim)) * rng.normal(size=dim)  # ties and coincident means
        ks = range(2, n + 1)
        for name, fn in TestSweepFromOneMatrix.clusterers(list(levels), ids, omega).items():
            rows = ev.sweep_k(X, levels, ids, ks, fn, omega=omega)
            for row in rows:
                try:
                    r = ev.evaluate(X, levels, ids, fn(row.k), omega=omega)
                except (DataError, DegenerateGeometryError) as exc:
                    expected = (None, None, None, str(exc))
                else:
                    note = ";".join(f"{key}:{msg}" for key, msg in sorted((r.notes or {}).items())
                                    if key != "ch_paper")
                    expected = (_bits(r.ch), _bits(r.db), _bits(r.mpbi), note)
                assert (_bits(row.ch), _bits(row.db), _bits(row.mpbi), row.note) == expected, (
                    name, row.k)

    def test_a_hierarchical_sweep_counts_each_distinct_cluster_once(self):
        rng = np.random.default_rng(30)
        levels = rng.integers(1, 6, size=(40, 12)).astype(float)
        ids = [f"s{i:02d}" for i in range(40)]
        fn = TestSweepFromOneMatrix.clusterers(list(levels), ids, 2.0)["hierarchical"]
        distinct = set()
        for k in range(2, 21):
            labels = fn(k).label_array(ids)
            distinct |= {tuple(np.flatnonzero(labels == c)) for c in range(1, k + 1)}
        with mock.patch.object(ev, "_binned_pair_sum", wraps=ev._binned_pair_sum) as pairs, \
                mock.patch.object(ev, "mpbi", wraps=ev.mpbi) as calls:
            ev.sweep_k(levels, levels, ids, range(2, 21), fn)
        assert pairs.call_count == sum(len(members) > 1 for members in distinct) < 209
        assert calls.call_count == 19
