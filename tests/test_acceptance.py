"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.
"""

import functools
import itertools
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from movclust import cli, clustering as cl, distances as di, evaluation as ev
from movclust import image_features as imf
from movclust.core_data import SeriesCollection, discretize_collection

from conftest import collection, pair_distance, ts
from test_clustering import best_two_partition, matrix_from, partition_of
from test_evaluation import bcss_oracle, db_oracle, mpbi_oracle, wcss_oracle

GOLDEN = Path(__file__).parent / "golden"


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def pair_matrix(p, q, metric="mpbd"):
    col = SeriesCollection(ids=["p", "q"], values=np.array([p, q]))
    return di.distance_matrix(col, metric)


def test_criterion_1_table1_scenario1():
    start = time.perf_counter()
    p = [2, 2, 3, 2, 2, 2, 3, 3, 2, 2]  # B-level pattern
    q = [v + 2 for v in p]              # same deltas at D level
    raw = pair_matrix(p, q)
    table1 = di.normalize_matrix(raw, "table1")
    mpbd_norm = table1.entries[0, 1]
    lev_norm = di.normalize_matrix(pair_matrix(p, q, "levenshtein"), "table1").entries[0, 1]
    elapsed = time.perf_counter() - start
    report(
        1,
        mpbd_norm == 0.0 and lev_norm == 1.0 and elapsed < 1.0,
        f"table1 MPBD={mpbd_norm}, normalized Levenshtein={lev_norm}, {elapsed:.3f}s",
    )


def test_criterion_2_table1_scenario2():
    # one-unit vs two-unit drop on day 4, one-unit vs two-unit rise on day 7
    p = [2, 2, 2, 1, 1, 1, 2, 2, 2, 2]
    q = [4, 4, 4, 2, 2, 2, 4, 4, 4, 4]
    raw = pair_matrix(p, q)
    table1 = di.normalize_matrix(raw, "table1")
    lev_norm = di.normalize_matrix(pair_matrix(p, q, "levenshtein"), "table1").entries[0, 1]
    report(
        2,
        raw.entries[0, 1] == 2.0
        and table1.entries[0, 1] == 0.10
        and lev_norm == 1.0,
        f"raw MPBD={raw.entries[0, 1]}, table1={table1.entries[0, 1]}, "
        f"normalized Levenshtein={lev_norm}",
    )


def test_criterion_3_table1_scenario3_mpbd():
    # opposite unit moves into days 3, 6 and 8; identical deltas elsewhere
    p = [3, 3, 2, 2, 2, 3, 3, 2, 2, 2]
    q = [3, 3, 4, 4, 4, 3, 3, 4, 4, 4]
    raw = pair_matrix(p, q)
    table1 = di.normalize_matrix(raw, "table1")
    report(
        3,
        raw.entries[0, 1] == 12.0 and table1.entries[0, 1] == 0.60,
        f"raw MPBD={raw.entries[0, 1]}, table1={table1.entries[0, 1]}",
    )


def test_criterion_4_discretization_boundaries():
    inputs = [0.1, 0.2899, 0.29, 0.47, 0.65, 0.83, 1.0]
    levels = discretize_collection(ts("x", inputs)).values[0]
    got = "".join("ABCDE"[v - 1] for v in levels)
    report(4, got == "AABCDEE", f"{inputs} -> {got}")


def test_criterion_5_metric_axiom_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    cases = 1000
    for _ in range(cases):
        p = rng.integers(1, 6, size=10)
        q = rng.integers(1, 6, size=10)
        for metric in di.METRICS:
            d = pair_distance(metric, p, q)
            assert d >= 0
            assert d == pair_distance(metric, q, p)
            assert pair_distance(metric, p, p) == 0
        # mpbd shift invariance and zero law
        c = int(rng.integers(-3, 4))
        mpbd = pair_distance("mpbd", p, q)
        assert pair_distance("mpbd", p + c, q) == pytest.approx(mpbd, rel=1e-9)
        assert (mpbd == 0.0) == bool(np.all(p - q == (p - q)[0]))
    for _ in range(cases):
        a, b, m = rng.integers(1, 4, size=(3, rng.integers(1, 6)))
        lev = functools.partial(pair_distance, "levenshtein")
        assert lev(a, b) <= lev(a, m) + lev(m, b)
    # documented counterexample: mpbd violates the triangle inequality
    eps = 0.01
    p, q, m = [2.0, 1.0], [1.0, 2.0], [1.0 + eps, 1.0]
    direct = pair_distance("mpbd", p, q)
    via = pair_distance("mpbd", p, m) + pair_distance("mpbd", m, q)
    assert direct == 4.0 and via < direct
    elapsed = time.perf_counter() - start
    report(5, elapsed < 30.0, f"{cases} random cases per property, {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(1)
    # k-means vs exhaustive minimum-WCSS partition (n <= 8, k = 2)
    for trial in range(5):
        X = np.concatenate(
            [rng.normal(0, 0.3, size=(4, 2)), rng.normal(6, 0.3, size=(4, 2))]
        )
        ids = [f"p{i}" for i in range(8)]
        out = cl.kmeans(SeriesCollection(ids, X), k=2, seed=trial)
        best, (left, right) = best_two_partition(X)
        expect = {frozenset(ids[i] for i in left), frozenset(ids[i] for i in right)}
        assert partition_of(out) == expect
        assert out.objective == pytest.approx(best, rel=1e-9)
    # k-medoids vs exhaustive medoid search (n <= 6)
    for trial in range(5):
        points = np.concatenate([rng.normal(0, 0.4, size=3), rng.normal(7, 0.4, size=3)])
        D = np.abs(np.subtract.outer(points, points))
        out = cl.kmedoids(matrix_from(D), k=2, seed=trial)
        best = min(
            sum(min(D[i, a], D[i, b]) for i in range(6))
            for a, b in itertools.combinations(range(6), 2)
        )
        assert out.objective == pytest.approx(best, rel=1e-9)
    # Ward and single-linkage hand traces
    points = np.array([0.0, 1.0, 5.0, 7.0])
    D = np.abs(np.subtract.outer(points, points))
    ward = cl.agglomerative(matrix_from(D, list("abcd")), "ward")
    assert ward.heights() == pytest.approx([1.0, 2.0, math.sqrt(60.5)])
    single = cl.agglomerative(matrix_from(D, list("abcd")), "single")
    assert single.heights() == pytest.approx([1.0, 2.0, 4.0])
    # CH / DB / MPBI vs naive-loop oracles within 1e-9 relative error
    X = rng.normal(size=(10, 3))
    labels = [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
    ids = [f"s{i}" for i in range(10)]
    assignment = cl.ClusterAssignment(
        labels=dict(zip(ids, labels)), k=3, algorithm="fixed"
    )
    levels = [rng.integers(1, 6, size=8) for _ in range(10)]
    scores = ev.evaluate(X, levels, ids, assignment)
    w = wcss_oracle(X, labels)
    b = bcss_oracle(X, labels, weighted=True)
    assert scores.ch == pytest.approx((b / 2) / (w / 7), rel=1e-9)
    assert scores.ch_paper == pytest.approx(w / bcss_oracle(X, labels, weighted=False), rel=1e-9)
    assert scores.db == pytest.approx(db_oracle(X, labels), rel=1e-9)
    assert scores.mpbi == pytest.approx(mpbi_oracle(levels, labels), rel=1e-9)
    report(6, True, "kmeans/kmedoids exhaustive, linkage hand traces, index oracles")


def test_criterion_7_monotonicity_invariants():
    rng = np.random.default_rng(2)
    # kmeans asserts WCSS non-increase internally on every iteration
    for trial in range(50):
        X = rng.normal(size=(20, 4))
        cl.kmeans(SeriesCollection([f"p{i}" for i in range(20)], X), k=4, seed=trial)
    # dendrogram heights non-decreasing for all four linkages, cuts nest
    points = rng.normal(size=(15, 3))
    D = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
    for linkage in cl.LINKAGES:
        dendrogram = cl.agglomerative(matrix_from(D), linkage)
        heights = dendrogram.heights()
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:])), linkage
        for k in range(2, 15):
            fine = partition_of(cl.cut_dendrogram(dendrogram, k))
            coarse = partition_of(cl.cut_dendrogram(dendrogram, k - 1))
            assert all(any(f <= c for c in coarse) for f in fine)
    report(7, True, "WCSS monotone, heights monotone (4 linkages), cuts nest")


def _snapshot(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("."):
            continue
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_8_pipeline_determinism(sample_dir, tmp_path):
    start = time.perf_counter()
    base = ["pipeline", "--input", str(sample_dir / "price_long.csv"), "--seed", "42"]
    outs = [tmp_path / f"run{i}" for i in range(3)]
    assert cli.main(base + ["--out", str(outs[0]), "--threads", "1"]) == 0
    assert cli.main(base + ["--out", str(outs[1]), "--threads", "1"]) == 0
    assert cli.main(base + ["--out", str(outs[2]), "--threads", "8"]) == 0
    first = _snapshot(outs[0])
    identical = all(_snapshot(o) == first for o in outs[1:])
    elapsed = time.perf_counter() - start
    report(
        8,
        identical and elapsed < 60.0,
        f"3 pipeline runs byte-identical across reruns and threads 1 vs 8, {elapsed:.1f}s",
    )


def test_criterion_9_cluster_count_and_sweep(sample_dir, tmp_path):
    results = {}
    for name, mode, k in (("price", "price", 15), ("sales", "sales", 7)):
        out = tmp_path / name
        base = [
            "--input", str(sample_dir / f"{name}_long.csv"),
            "--out", str(out), "-O", f"mode={mode}", "-O", f"k={k}", "--seed", "1",
        ]
        for command in ("preprocess", "distmat", "cluster"):
            assert cli.main([command] + base) == 0
        assignment = cl.read_assignment_csv(out / "assignment.csv")
        counts = [len(assignment.members(c)) for c in range(1, k + 1)]
        results[name] = (assignment.k, min(counts))
        assert assignment.k == k and min(counts) >= 1
    # sweep over k in [2, 20] on the price artifacts
    out = tmp_path / "price"
    assert cli.main(
        ["sweep", "--out", str(out), "-O", "k_min=2", "-O", "k_max=20"]
    ) == 0
    import csv as csvmod

    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csvmod.DictReader(fh))
    ks = [int(r["k"]) for r in rows]
    populated = all(r["ch"] and r["db"] and r["mpbi"] for r in rows)
    report(
        9,
        ks == list(range(2, 21))
        and populated
        and results["price"][0] == 15
        and results["sales"][0] == 7,
        f"price k=15, sales k=7, sweep rows k={ks[0]}..{ks[-1]} all populated",
    )


def test_criterion_10_image_branch():
    # golden rasters, byte-exact
    def pixels(series):  # the 64x64 image: the feature vector with block 1
        return imf.extract_features(series, block=1).values[0].reshape(64, 64)

    def pgm_bytes(image):
        lines = ["P2", "64 64", "1"]
        for row in image.astype(int):
            lines.append(" ".join(str(v) for v in row))
        return ("\n".join(lines) + "\n").encode()

    golden_ok = (
        pgm_bytes(pixels(ts("const", [0.1] * 24)))
        == (GOLDEN / "constant_series.pgm").read_bytes()
        and pgm_bytes(pixels(ts("ramp", np.linspace(0.1, 1.0, 24))))
        == (GOLDEN / "ramp_series.pgm").read_bytes()
    )
    # pooled-feature mass preservation within 1e-12
    rng = np.random.default_rng(3)
    mass_ok = True
    for _ in range(20):
        series = ts("r", np.clip(rng.uniform(0.1, 1.0, size=40), 0.1, 1.0))
        features = imf.extract_features(series, block=4).values[0]
        mass_ok &= abs(features.mean() - pixels(series).mean()) < 1e-12
    # flat vs oscillating separation on a 20-series sample
    t = np.arange(60)
    series = [ts(f"flat{i:02d}", np.full(60, 0.1 + 0.02 * i)) for i in range(10)]
    series += [
        ts(
            f"wave{i:02d}",
            np.clip(0.55 + 0.45 * np.sign(np.sin(t * (0.8 + 0.1 * i))), 0.1, 1.0),
        )
        for i in range(10)
    ]
    out = imf.cluster_features(imf.extract_features(collection(series)), k=2, seed=0)
    groups = {frozenset(out.members(c)) for c in range(1, 3)}
    split_ok = groups == {
        frozenset(s.ids[0] for s in series[:10]),
        frozenset(s.ids[0] for s in series[10:]),
    }
    report(
        10,
        golden_ok and mass_ok and split_ok,
        f"golden={golden_ok}, mass={mass_ok}, flat/oscillating split={split_ok}",
    )
