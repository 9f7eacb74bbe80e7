import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import evaluation as ev
from movclust.clustering import ClusterAssignment, agglomerative, cut_dendrogram, kmeans, kmedoids
from movclust.distances import distance_matrix, mpbd, mpbd_upper
from movclust.errors import DataError, DegenerateGeometryError

from conftest import collection, ts
from scalar_reference import db_index_ref, mpbi_ref, mpbi_rows_ref, sweep_k_ref


def assign(labels, ids=None):
    ids = ids or [f"s{i}" for i in range(len(labels))]
    return ClusterAssignment(
        labels=dict(zip(ids, labels)), k=max(labels), algorithm="test"
    ), ids


# naive reference implementations, double loops straight from the formulas


def wcss_oracle(X, labels):
    total = 0.0
    for c in set(labels):
        members = [x for x, l in zip(X, labels) if l == c]
        mu = np.mean(members, axis=0)
        for x in members:
            total += ((x - mu) ** 2).sum()
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
            mpbd(a, b, omega=omega) for a, b in itertools.combinations(members, 2)
        )
        total += pair_sum / len(members)
    return total / len(clusters)


class TestWcss:
    def test_singletons_zero(self):
        a, ids = assign([1, 2, 3])
        assert ev.wcss(np.array([[0.0], [5.0], [9.0]]), ids, a) == 0.0

    def test_hand_value(self):
        a, ids = assign([1, 1])
        assert ev.wcss(np.array([[0.0], [2.0]]), ids, a) == 2.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(9, 3))
        labels = [1, 2, 3, 1, 2, 3, 1, 2, 1]
        a, ids = assign(labels)
        assert ev.wcss(X, ids, a) == pytest.approx(wcss_oracle(X, labels), rel=1e-12)


class TestBcss:
    def test_k1_zero(self):
        a, ids = assign([1, 1])
        assert ev.bcss(np.array([[0.0], [2.0]]), ids, a) == 0.0

    def test_paper_variant(self):
        a, ids = assign([1, 2])
        assert ev.bcss(np.array([[0.0], [2.0]]), ids, a, "paper") == 2.0

    def test_weighted_variant_equal_sizes(self):
        a, ids = assign([1, 2])
        assert ev.bcss(np.array([[0.0], [2.0]]), ids, a, "weighted") == 2.0

    def test_weighted_differs_with_sizes(self):
        X = np.array([[0.0], [0.0], [3.0]])
        a, ids = assign([1, 1, 2])
        paper = ev.bcss(X, ids, a, "paper")
        weighted = ev.bcss(X, ids, a, "weighted")
        assert weighted == pytest.approx(2 * 1.0 + 1 * 4.0)
        assert paper == pytest.approx(1.0 + 4.0)


class TestChIndex:
    def six_points(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0], [20.0], [21.0]])
        a, ids = assign([1, 1, 2, 2, 3, 3])
        return X, ids, a

    def test_standard_hand_value(self):
        X, ids, a = self.six_points()
        # WCSS = 1.5, BCSS_w = 400, CH = (400/2)/(1.5/3) = 400
        assert ev.ch_index(X, ids, a, "standard") == pytest.approx(400.0)

    def test_paper_variant_is_small_for_good_clusters(self):
        X, ids, a = self.six_points()
        paper = ev.ch_index(X, ids, a, "paper")
        assert paper == pytest.approx(1.5 / 200.0)
        assert paper < 1

    def test_reciprocal_ranking_at_fixed_k_equal_sizes(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(8, 2))
        ids = [f"s{i}" for i in range(8)]
        a1, _ = assign([1, 1, 2, 2, 1, 1, 2, 2], ids)
        a2, _ = assign([1, 2, 1, 2, 1, 2, 1, 2], ids)
        std = [ev.ch_index(X, ids, a, "standard") for a in (a1, a2)]
        pap = [ev.ch_index(X, ids, a, "paper") for a in (a1, a2)]
        assert (std[0] > std[1]) == (pap[0] < pap[1])

    def test_degenerate_reported(self):
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        a, ids = assign([1, 1, 2, 2])
        with pytest.raises(DegenerateGeometryError):
            ev.ch_index(X, ids, a, "standard")  # zero WCSS

    def test_k_bounds(self):
        X = np.zeros((3, 1))
        a, ids = assign([1, 2, 3])
        with pytest.raises(DataError):
            ev.ch_index(X, ids, a)  # k = n


class TestDbIndex:
    def test_two_singletons(self):
        a, ids = assign([1, 2])
        assert ev.db_index(np.array([[0.0], [5.0]]), ids, a) == 0.0

    def test_hand_value(self):
        X = np.array([[0.0], [2.0], [10.0], [12.0]])
        a, ids = assign([1, 1, 2, 2])
        # S = 1 each, M = 10 -> DB = 0.2
        assert ev.db_index(X, ids, a) == pytest.approx(0.2)

    def test_decreases_with_separation(self):
        a, ids = assign([1, 1, 2, 2])
        near = ev.db_index(np.array([[0.0], [2.0], [5.0], [7.0]]), ids, a)
        far = ev.db_index(np.array([[0.0], [2.0], [50.0], [52.0]]), ids, a)
        assert far < near

    def test_coincident_centroids_degenerate(self):
        X = np.array([[0.0], [2.0], [0.0], [2.0]])
        a, ids = assign([1, 1, 2, 2])
        with pytest.raises(DegenerateGeometryError):
            ev.db_index(X, ids, a)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 400), st.integers(2, 8), st.integers(0, 2**32 - 1))
    def test_bit_identical_to_pair_loop(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        k = min(k, n)
        labels = [int(c) for c in rng.permutation(
            np.concatenate([np.arange(1, k + 1), rng.integers(1, k + 1, size=n - k)]))]
        # few distinct values, so centroids can coincide
        X = rng.integers(0, 2, size=(n, dim)) * rng.normal(size=dim)
        a, ids = assign(labels)
        try:
            expected = float.hex(db_index_ref(X, ids, a))
        except DegenerateGeometryError as exc:
            with pytest.raises(DegenerateGeometryError, match=f"^{exc}$"):
                ev.db_index(X, ids, a)
        else:
            assert float.hex(ev.db_index(X, ids, a)) == expected

    def test_matches_oracle(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(10, 2))
        labels = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
        a, ids = assign(labels)
        assert ev.db_index(X, ids, a) == pytest.approx(db_oracle(X, labels), rel=1e-9)


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
        a, ids = assign([1, 1, 2, 2, 1, 2, 1, 2])
        shift = X + np.array([100.0, -40.0])
        assert ev.ch_index(shift, ids, a) == pytest.approx(ev.ch_index(X, ids, a))
        assert ev.db_index(shift, ids, a) == pytest.approx(ev.db_index(X, ids, a))

    def test_relabel_invariance(self):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(6, 2))
        ids = [f"s{i}" for i in range(6)]
        a1, _ = assign([1, 2, 3, 1, 2, 3], ids)
        a2, _ = assign([2, 3, 1, 2, 3, 1], ids)
        assert ev.ch_index(X, ids, a1) == pytest.approx(ev.ch_index(X, ids, a2))
        assert ev.db_index(X, ids, a1) == pytest.approx(ev.db_index(X, ids, a2))


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
            X, levels, ids, [2, 3, 4], lambda k: kmeans(X, ids, k=k, seed=0)
        )
        ch = {row.k: row.ch for row in rows}
        assert max(ch, key=ch.get) == 3

    def test_rows_strictly_increasing_and_reproducible(self):
        X, levels, ids = self.blobs()
        fn = lambda k: kmeans(X, ids, k=k, seed=3)
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
            return kmeans(X, ids, k=k, seed=0)

        rows = ev.sweep_k(X, levels, ids, [2, 3], fn)
        assert rows[1].ch is None and "boom" in rows[1].note
        assert rows[0].ch is not None

    def test_write_csv(self, tmp_path):
        X, levels, ids = self.blobs()
        rows = ev.sweep_k(X, levels, ids, [2, 3], lambda k: kmeans(X, ids, k=k, seed=0))
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
            "kmeans": lambda k: kmeans(X, ids, k=k, seed=1),
        }

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 14), st.integers(2, 9), st.sampled_from([0.3, 3.0]),
           st.integers(0, 2**32 - 1))
    def test_bit_identical_to_per_k_mpbi(self, n, length, omega, seed):
        rng = np.random.default_rng(seed)
        # real-valued levels, so the order the pair values are added in shows
        levels = [rng.normal(size=length) for _ in range(n)]
        ids = [f"s{i:02d}" for i in range(n)]
        X = np.stack(levels)
        raw = mpbd_upper(X, omega)
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
                assert float.hex(ev.mpbi(levels, ids, a, omega=omega, raw_mpbd=raw)) \
                    == expected[0], (name, row.k)
                if row.mpbi is not None:
                    assert float.hex(row.mpbi) == expected[0], (name, row.k)
            assert any(row.mpbi is not None for row in rows) or n < 3

    def test_levels_too_short_note_every_k(self):
        rng = np.random.default_rng(28)
        X = rng.normal(size=(8, 2))
        ids = [f"s{i}" for i in range(8)]
        levels = [[3] for _ in ids]
        fn = lambda k: kmeans(X, ids, k=k, seed=0)
        rows = ev.sweep_k(X, levels, ids, [2, 3, 4], fn)
        assert rows == sweep_k_ref(X, levels, ids, [2, 3, 4], fn)
        assert all(r.mpbi is None and "length >= 2" in r.note for r in rows)
