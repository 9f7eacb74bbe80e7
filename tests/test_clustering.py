import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from movclust import clustering as cl
from movclust.core_data import SeriesCollection
from movclust.distances import DistanceMatrix
from movclust.errors import DataError

from scalar_reference import (
    agglomerative_ref, cut_dendrogram_ref, kmeans_ref, kmedoids_ref, sq_dists_ref,
)


def partition_of(assignment):
    """Label-free view: frozenset of frozensets of member ids."""
    return frozenset(
        frozenset(assignment.members(c)) for c in range(1, assignment.k + 1)
    )


def wcss_of(X, groups):
    total = 0.0
    for g in groups:
        mu = X[list(g)].mean(axis=0)
        total += ((X[list(g)] - mu) ** 2).sum()
    return total


def best_two_partition(X):
    """Exhaustive minimum-WCSS split into two non-empty clusters."""
    n = len(X)
    best, best_groups = math.inf, None
    for bits in range(1, 2 ** (n - 1)):
        left = [i for i in range(n) if bits & (1 << i)]
        right = [i for i in range(n) if not bits & (1 << i)]
        if not left or not right:
            continue
        w = wcss_of(X, [left, right])
        if w < best:
            best, best_groups = w, (left, right)
    return best, best_groups


def matrix_from(D, ids=None):
    D = np.asarray(D, dtype=float)
    ids = ids or [f"S{i}" for i in range(len(D))]
    return DistanceMatrix(ids=ids, entries=D, metric="mpbd")


class TestKmeans:
    def test_two_separated_pairs(self):
        X = np.array([[0.0], [0.0], [10.0], [10.0]])
        out = cl.kmeans(SeriesCollection(list("abcd"), X), k=2, seed=0)
        assert partition_of(out) == {frozenset("ab"), frozenset("cd")}
        assert out.objective == 0.0

    def test_k_equals_n(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        out = cl.kmeans(SeriesCollection(list("abcd"), X), k=4, seed=0)
        assert out.objective == 0.0
        assert all(len(out.members(c)) == 1 for c in range(1, 5))

    def test_matches_exhaustive_two_blob(self):
        rng = np.random.default_rng(10)
        for trial in range(10):
            X = np.concatenate(
                [rng.normal(0, 0.3, size=(3, 2)), rng.normal(5, 0.3, size=(3, 2))]
            )
            ids = [f"p{i}" for i in range(6)]
            out = cl.kmeans(SeriesCollection(ids, X), k=2, seed=trial)
            best, (left, right) = best_two_partition(X)
            expect = {frozenset(ids[i] for i in left), frozenset(ids[i] for i in right)}
            assert partition_of(out) == expect
            assert out.objective == pytest.approx(best, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(12, 4))
        ids = [f"p{i}" for i in range(12)]
        a = cl.kmeans(SeriesCollection(ids, X), k=3, seed=99)
        b = cl.kmeans(SeriesCollection(ids, X), k=3, seed=99)
        assert a.labels == b.labels
        assert a.objective == b.objective

    def test_k_out_of_range(self):
        X = np.zeros((3, 1))
        with pytest.raises(DataError):
            cl.kmeans(SeriesCollection(list("abc"), X), k=4, seed=0)
        with pytest.raises(DataError):
            cl.kmeans(SeriesCollection(list("abc"), X), k=1, seed=0)

    def test_wcss_increase_raises_under_optimize(self):
        # Centroids that drift further from the means on every update make the
        # WCSS grow; the check must hold under python -O, where asserts vanish.
        script = textwrap.dedent("""
            import types
            import numpy as np
            from movclust import clustering
            from movclust.core_data import SeriesCollection

            class Drifting(np.ndarray):
                calls = 0

                def mean(self, *args, **kwargs):
                    Drifting.calls += 1
                    return np.asarray(super().mean(*args, **kwargs)) + 0.1 * Drifting.calls

            drifting = lambda a, dtype=None: np.asarray(a, dtype).view(Drifting)
            clustering.np = types.SimpleNamespace(**{**vars(np), "asarray": drifting})
            assert False, "not reached under -O"
            points = SeriesCollection(list("abcd"), [[0.0], [0.5], [100.0], [100.5]])
            clustering.kmeans(points, k=2)
            """)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 1
        assert "RuntimeError: k-means WCSS increased" in result.stderr

    def test_no_empty_clusters(self):
        # 11 coincident points and one far away force empty-cluster repair
        X = np.array([[0.0]] * 11 + [[100.0]])
        out = cl.kmeans(SeriesCollection([f"p{i}" for i in range(12)], X), k=3, seed=1)
        assert all(out.members(c) for c in range(1, 4))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 60), st.integers(1, 300), st.integers(2, 15), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_matches_cube_loop(self, n, dim, k, coarse, seed):
        # one centre at a time, each distance is the same contiguous row sum
        rng = np.random.default_rng(seed)
        k = min(k, n)
        # coarse: repeated points, so distance ties and empty-cluster repairs occur
        X = rng.integers(0, 3, size=(n, dim)).astype(float) if coarse else rng.normal(size=(n, dim))
        ids = [f"p{i:02d}" for i in range(n)]
        got = cl.kmeans(SeriesCollection(ids, X), k=k, seed=seed % 7)
        expected = kmeans_ref(X, ids, k=k, seed=seed % 7)
        assert got.labels == expected.labels
        assert float.hex(got.objective) == float.hex(expected.objective)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 300), st.integers(1, 15), st.integers(0, 2**32 - 1))
    def test_sq_dists_match_cube(self, n, dim, k, seed):
        rng = np.random.default_rng(seed)
        X, centers = rng.normal(size=(n, dim)), rng.normal(size=(k, dim))
        got = cl._sq_dists(X, centers, np.empty((n, k)))
        assert got.tobytes() == sq_dists_ref(X, centers).tobytes()

    @staticmethod
    def traced_kmeans(monkeypatch, X, k, seed):
        """kmeans of ``X``, and per iteration the centres it measured and the repairs it made."""
        measured, repairs = [], []
        sq_dists, nearest = cl._sq_dists, cl._nearest

        def counting_sq_dists(X, centers, out, which=None):
            measured.append(list(which))
            return sq_dists(X, centers, out, which)

        def counting_nearest(dists):
            labels, repaired = nearest(dists)
            repairs.append(list(repaired))
            return labels, repaired

        monkeypatch.setattr(cl, "_sq_dists", counting_sq_dists)
        monkeypatch.setattr(cl, "_nearest", counting_nearest)
        ids = [f"p{i:03d}" for i in range(len(X))]
        got = cl.kmeans(SeriesCollection(ids, X), k=k, seed=seed)
        expected = kmeans_ref(X, ids, k=k, seed=seed)
        assert got.labels == expected.labels
        assert float.hex(got.objective) == float.hex(expected.objective)
        return measured, repairs

    def test_settled_centres_keep_their_distances(self, monkeypatch):
        # blobs of different spreads: the centres stop moving at different iterations
        rng = np.random.default_rng(2)
        X = np.concatenate([rng.normal(c, 1.0, size=(30, 2)) for c in (0, 4, 8, 30)])
        measured, _ = self.traced_kmeans(monkeypatch, X, 6, seed=1)
        counts = [len(which) for which in measured]
        assert counts == [6, 6, 5, 5, 4, 2, 2, 2]

    def test_repair_after_a_centre_settled(self, monkeypatch):
        # Seed 23 starts at -1, then 100, 3.5 and -3.3.  The blob at 100 never
        # moves.  After one update the mean of {-1, 1, 1} lies farther from -1
        # than the mean of the -3.3 cluster, and from 1 than the mean of the
        # 3.5 cluster, so its cluster empties on the second assignment, which
        # reuses the blob's column.
        X = np.array([-3.3] + [-2.2] * 8 + [-1.0] + [1.0] * 2 + [1.3] * 6 + [3.5]
                     + [100.0] * 3)[:, None]
        measured, repairs = self.traced_kmeans(monkeypatch, X, 4, seed=23)
        assert measured[:2] == [[0, 1, 2, 3], [0, 2, 3]]
        assert repairs[:2] == [[], [(0, 18)]]


class TestKmedoids:
    def test_two_zero_blocks(self):
        D = np.zeros((4, 4))
        D[:2, 2:] = 9.0
        D[2:, :2] = 9.0
        out = cl.kmedoids(matrix_from(D, list("abcd")), k=2, seed=0)
        assert partition_of(out) == {frozenset("ab"), frozenset("cd")}

    def test_k_equals_n(self):
        D = np.abs(np.subtract.outer(np.arange(4.0), np.arange(4.0)))
        out = cl.kmedoids(matrix_from(D), k=4, seed=0)
        assert out.objective == 0.0

    def test_matches_exhaustive_medoid_search(self):
        rng = np.random.default_rng(12)
        for trial in range(10):
            points = np.concatenate(
                [rng.normal(0, 0.4, size=3), rng.normal(8, 0.4, size=3)]
            )
            D = np.abs(np.subtract.outer(points, points))
            out = cl.kmedoids(matrix_from(D), k=2, seed=trial)
            best = min(
                (
                    sum(min(D[i, a], D[i, b]) for i in range(6))
                    for a, b in itertools.combinations(range(6), 2)
                )
            )
            assert out.objective == pytest.approx(best, rel=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        points = rng.normal(size=10)
        D = np.abs(np.subtract.outer(points, points))
        a = cl.kmedoids(matrix_from(D), k=3, seed=5)
        b = cl.kmedoids(matrix_from(D), k=3, seed=5)
        assert a.labels == b.labels

    @settings(max_examples=300, deadline=None)
    @given(st.integers(3, 13), st.booleans(), st.integers(0, 2**32 - 1), st.data())
    def test_matches_reference_loop(self, n, diagonal, seed, data):
        # small integer distances: ties, coincident medoids and empty-cluster repairs occur
        k = data.draw(st.integers(2, n), label="k")
        rng = np.random.default_rng(seed)
        D = random_matrix(rng, n, integer=True)
        if diagonal:
            D[np.diag_indices(n)] = rng.integers(1, 4, size=n)
        matrix = matrix_from(D)
        got = cl.kmedoids(matrix, k=k, seed=seed % 7)
        expected = kmedoids_ref(matrix, k=k, seed=seed % 7)
        assert got.labels == expected.labels
        assert float.hex(got.objective) == float.hex(expected.objective)


class TestAgglomerative:
    def test_two_series(self):
        D = np.array([[0.0, 3.0], [3.0, 0.0]])
        dendrogram = cl.agglomerative(matrix_from(D, ["a", "b"]), "single")
        assert dendrogram.merges == [("a", "b", 3.0, 2)]

    def test_collinear_single_linkage(self):
        points = np.array([0.0, 1.0, 10.0])
        D = np.abs(np.subtract.outer(points, points))
        dendrogram = cl.agglomerative(matrix_from(D, ["a", "b", "c"]), "single")
        assert dendrogram.heights() == [1.0, 9.0]
        assert dendrogram.merges[0][:2] == ("a", "b")
        assert dendrogram.merges[1][:2] == ("a", "c")  # cluster {a, b} by its smallest id

    def test_ward_hand_trace(self):
        # 1-D points a=0, b=1, c=5, d=7; Lance-Williams Ward distances by hand:
        # merge (a,b) at 1; then (c,d) at 2; final at sqrt(60.5)
        points = np.array([0.0, 1.0, 5.0, 7.0])
        D = np.abs(np.subtract.outer(points, points))
        dendrogram = cl.agglomerative(matrix_from(D, list("abcd")), "ward")
        assert [m[:2] for m in dendrogram.merges] == [("a", "b"), ("c", "d"), ("a", "c")]
        assert dendrogram.heights() == pytest.approx([1.0, 2.0, math.sqrt(60.5)])

    def test_average_linkage_update(self):
        points = np.array([0.0, 2.0, 9.0])
        D = np.abs(np.subtract.outer(points, points))
        dendrogram = cl.agglomerative(matrix_from(D, list("abc")), "average")
        # after merging (a,b) at 2, average distance to c is (9 + 7) / 2 = 8
        assert dendrogram.heights() == [2.0, 8.0]

    @pytest.mark.parametrize("linkage", cl.LINKAGES)
    def test_heights_monotone(self, linkage):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(12, 3))
        D = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        heights = cl.agglomerative(matrix_from(D), linkage).heights()
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(15)
        points = rng.normal(size=(8, 2))
        D = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        ids = [f"s{i}" for i in range(8)]
        base = cl.cut_dendrogram(cl.agglomerative(matrix_from(D, ids), "ward"), 3)
        perm = rng.permutation(8)
        shuffled = matrix_from(D[np.ix_(perm, perm)], [ids[i] for i in perm])
        other = cl.cut_dendrogram(cl.agglomerative(shuffled, "ward"), 3)
        assert partition_of(base) == partition_of(other)


def random_matrix(rng, n, integer):
    """Symmetric zero-diagonal matrix; integer entries make merge ties common."""
    A = rng.integers(0, 4, size=(n, n)).astype(float) if integer else rng.random((n, n))
    D = np.triu(A, 1)
    return D + D.T


def exact(dendrogram):
    """Merges with heights as hex strings, so equality is bit-identity."""
    return dendrogram.leaves, [(l, r, h.hex(), s) for l, r, h, s in dendrogram.merges]


def exact_ref(dendrogram):
    """``exact`` of the reference's dendrogram, each member tuple by its smallest id."""
    return dendrogram.leaves, [(l[0], r[0], h.hex(), s) for l, r, h, s in dendrogram.merges]


class TestAgglomerativeMatchesScalarLoop:
    @pytest.mark.parametrize("linkage", cl.LINKAGES)
    def test_random_matrices(self, linkage):
        rng = np.random.default_rng(17)
        for trial in range(150):
            n = int(rng.integers(2, 25))
            ids = [f"s{v}" for v in rng.permutation(1000)[:n]]  # unsorted, uneven widths
            matrix = matrix_from(random_matrix(rng, n, integer=trial % 2 == 0), ids)
            assert exact(cl.agglomerative(matrix, linkage)) == exact_ref(
                agglomerative_ref(matrix, linkage)
            ), trial

    def test_ward_squares_like_scalar_pow(self):
        # the second merge height rounds differently when d**2 is computed as d*d
        a, b, c = (float.fromhex(h) for h in
                   ("0x1.f0759b9db0e38p-1", "0x1.a82c5750f00f6p-1", "0x1.7826ed5e48f64p-2"))
        matrix = matrix_from([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]], list("xyz"))
        assert exact(cl.agglomerative(matrix, "ward")) == exact_ref(agglomerative_ref(matrix, "ward"))

    def test_non_finite_entry_is_error(self):
        with pytest.raises(DataError):
            cl.agglomerative(matrix_from([[0.0, np.inf], [np.inf, 0.0]]), "single")


@pytest.mark.parametrize("linkage", cl.LINKAGES)
def test_agglomerative_matches_scipy_linkage(linkage):
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    from scipy.spatial.distance import squareform

    rng = np.random.default_rng(18)
    for trial in range(200):
        n = int(rng.integers(2, 16))
        D = random_matrix(rng, n, integer=False)
        dendrogram = cl.agglomerative(matrix_from(D), linkage)
        Z = hierarchy.linkage(squareform(D), method=linkage)
        assert np.allclose(sorted(dendrogram.heights()), np.sort(Z[:, 2]), rtol=1e-12), trial
        ids = [f"S{i}" for i in range(n)]
        for k in range(1, n + 1):
            flat = hierarchy.fcluster(Z, k, criterion="maxclust")
            expect = {
                frozenset(ids[i] for i in np.flatnonzero(flat == c)) for c in set(flat)
            }
            assert partition_of(cl.cut_dendrogram(dendrogram, k)) == expect, (trial, k)


class TestCutDendrogram:
    def small_dendrogram(self):
        points = np.array([0.0, 1.0, 10.0])
        D = np.abs(np.subtract.outer(points, points))
        return cl.agglomerative(matrix_from(D, list("abc")), "single")

    def test_k1_everything_together(self):
        out = cl.cut_dendrogram(self.small_dendrogram(), 1)
        assert partition_of(out) == {frozenset("abc")}

    def test_kn_singletons(self):
        out = cl.cut_dendrogram(self.small_dendrogram(), 3)
        assert partition_of(out) == {frozenset("a"), frozenset("b"), frozenset("c")}

    def test_k2_from_trace(self):
        out = cl.cut_dendrogram(self.small_dendrogram(), 2)
        assert partition_of(out) == {frozenset("ab"), frozenset("c")}

    def test_k_out_of_range(self):
        with pytest.raises(DataError):
            cl.cut_dendrogram(self.small_dendrogram(), 0)
        with pytest.raises(DataError):
            cl.cut_dendrogram(self.small_dendrogram(), 4)

    def test_nesting_refinement(self):
        rng = np.random.default_rng(16)
        points = rng.normal(size=(10, 2))
        D = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        dendrogram = cl.agglomerative(matrix_from(D), "ward")
        for k in range(2, 11):
            fine = partition_of(cl.cut_dendrogram(dendrogram, k))
            coarse = partition_of(cl.cut_dendrogram(dendrogram, k - 1))
            for fine_cluster in fine:
                assert any(fine_cluster <= c for c in coarse)

    def test_labels_by_decreasing_size(self):
        points = np.array([0.0, 0.1, 0.2, 9.0])
        D = np.abs(np.subtract.outer(points, points))
        out = cl.cut_dendrogram(cl.agglomerative(matrix_from(D, list("abcd")), "single"), 2)
        assert out.members(1) == ["a", "b", "c"]
        assert out.members(2) == ["d"]

    @pytest.mark.parametrize("linkage", cl.LINKAGES)
    @settings(max_examples=50, deadline=None)
    @given(st.integers(2, 14), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_set_union_replay(self, linkage, n, integer, seed):
        rng = np.random.default_rng(seed)
        ids = [f"s{v}" for v in rng.permutation(100)[:n]]  # unsorted, uneven widths
        dendrogram = cl.agglomerative(matrix_from(random_matrix(rng, n, integer), ids), linkage)
        for k in range(1, n + 1):
            assert cl.cut_dendrogram(dendrogram, k).labels == cut_dendrogram_ref(dendrogram, k)


class TestAssignmentContract:
    def test_nonempty_cluster_invariant(self):
        with pytest.raises(DataError):
            cl.ClusterAssignment(labels={"a": 1, "b": 1}, k=2, algorithm="x")

    def test_roundtrip_csv(self, tmp_path):
        X = np.array([[0.0], [0.0], [5.0], [5.0]])
        out = cl.kmeans(SeriesCollection(list("abcd"), X), k=2, seed=0)
        path = tmp_path / "assignment.csv"
        for made in (out, replace(out, metric="mpbd", normalization="none")):
            cl.write_assignment_csv(made, path)
            assert cl.read_assignment_csv(path) == made

    def test_missing_sidecar_is_data_error(self, tmp_path):
        X = np.array([[0.0], [0.0], [5.0], [5.0]])
        path = tmp_path / "assignment.csv"
        cl.write_assignment_csv(cl.kmeans(SeriesCollection(list("abcd"), X), k=2, seed=0), path)
        (tmp_path / "assignment.json").unlink()
        with pytest.raises(DataError, match="assignment.json"):
            cl.read_assignment_csv(path)

    def test_dendrogram_csv(self, tmp_path):
        D = np.array([[0.0, 2.0], [2.0, 0.0]])
        dendrogram = cl.agglomerative(matrix_from(D, ["a", "b"]), "single")
        path = tmp_path / "dendrogram.csv"
        cl.write_dendrogram_csv(dendrogram, path)
        assert path.read_text() == "step,left,right,height,size\n1,a,b,2,2\n"
