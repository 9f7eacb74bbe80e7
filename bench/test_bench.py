"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python3 -m pytest -q bench/test_bench.py``
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

TINY = {
    "price_ward_sweep": {"sizes": {"n_series": 12, "n_days": 30}, "k": 3, "sweep": (2, 4)},
    "dp_dtw_lev": {"sizes": {"n_series": 8, "n_days": 20}, "k": 2},
    "sales_features": {"sizes": {"n_items": 4, "n_stores": 2, "n_days": 30}, "k": 2},
}
SEED = 3


def tiny(name):
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def declared(trace):
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("work")
    return {
        (name, trace): run.run(tiny(name), SEED, 0, trace, root)
        for name in TINY
        for trace in (False, True)
    }


@pytest.fixture(scope="module")
def traced_price_pass(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    _, passes, _ = run.measure(tiny("price_ward_sweep"), SEED, 0, True, work,
                            time.monotonic() + run.RUN_LIMIT_S)
    (traced,) = [p for p in passes if p.traced]
    untraced_wall = [p.wall_s for p in passes if not p.traced][0]
    return traced, untraced_wall


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_reported_with_its_unit(results, name, trace):
    result = results[(name, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared(trace)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_end_to_end_metrics_are_never_zero(results):
    for name in TINY:
        for metric in results[(name, False)]["metrics"].values():
            assert metric["value"] > 0


def test_sales_features_computes_no_matrix_and_no_agglomerative_step(results):
    metrics = results[("sales_features", True)]["metrics"]
    zero = [n for n in metrics if n.startswith(("distances.", "clustering.agglomerative"))]
    assert zero and all(metrics[n]["value"] == 0 for n in zero)
    assert metrics["image_features.series"]["value"] == 8


def test_price_ward_sweep_counts(results):
    metrics = {n: m["value"] for n, m in results[("price_ward_sweep", True)]["metrics"].items()}
    kept = metrics["core_data.series_out"]
    assert metrics["core_data.series_in"] == 13  # 12 series plus the generator's sparse one
    assert metrics["core_data.dropped_sparse"] == 1
    assert metrics["distances.matrix_calls"] == 2
    assert metrics["distances.pairs.mpbd"] == 12 * 11 // 2 + kept * (kept - 1) // 2
    assert metrics["distances.unique_pair_ratio"] == 66 / metrics["distances.pairs.mpbd"]
    assert metrics["clustering.agglomerative_calls"] == 2
    assert metrics["clustering.merges"] == 2 * (kept - 1)
    assert metrics["evaluation.mpbi_calls"] == 1 + 3  # pipeline k=3, sweep k=2..4


def _span_parents(spans):
    return {(s["name"], spans[s["parent"]]["name"] if s["parent"] is not None else None)
            for s in spans}


def test_spans_nest_under_their_callers(traced_price_pass):
    traced, _ = traced_price_pass
    pipeline_spans, sweep_spans = traced.spans
    edges = _span_parents(pipeline_spans)
    assert ("distances.distance_matrix", "core_data.filter_outliers") in edges
    assert ("distances.distance_matrix", "cli.cmd_distmat") in edges
    assert ("core_data.filter_outliers", "cli.cmd_preprocess") in edges
    assert ("cli.cmd_preprocess", "cli.cmd_pipeline") in edges
    assert ("evaluation.mpbi", "evaluation.evaluate") in edges
    assert ("evaluation.evaluate", "evaluation.sweep_k") in _span_parents(sweep_spans)
    assert len({s["run"] for s in pipeline_spans + sweep_spans}) == 1


def test_self_times_and_unspanned_add_up_to_traced_wall(traced_price_pass):
    traced, untraced_wall = traced_price_pass
    metrics = layers.layer_metrics(traced.spans, traced.wall_s, untraced_wall,
                                   traced.artifact_bytes)
    for spans in traced.spans:
        assert min(layers.self_times(spans)) >= -1e-9
    assert metrics["trace.unspanned_s"] >= 0
    total = sum(metrics[n] for n in layers.SELF_TIME_METRICS) + metrics["trace.unspanned_s"]
    assert total == pytest.approx(traced.wall_s, abs=1e-9)
    assert metrics["trace.overhead_s"] == pytest.approx(traced.wall_s - untraced_wall)


def test_checks_reject_broken_artifacts(tmp_path):
    (tmp_path / "scaled.csv").write_text("series_id,d1\na,0.1\nb,0.2\nc,0.3\n")
    (tmp_path / "assignment.csv").write_text("series_id,cluster\na,1\nb,3\nc,3\n")
    (tmp_path / "distmat.csv").write_text("id,a,b,c\na,0,1,2\nb,1,0,3\nc,2,4,0\n")
    (tmp_path / "evaluate.json").write_text(json.dumps(
        {"ch_standard": None, "ch_paper": 1.0, "db": float("nan"), "mpbi": 2.0, "notes": None}))
    (tmp_path / "sweep.csv").write_text("k,ch,db,mpbi,note\n2,1,1,1,\n4,1,1,1,\n")
    assert checks.check_assignment(tmp_path, 3) == ["assignment.csv labels [1, 3] are not 1..3"]
    assert checks.check_distmat(tmp_path) == ["distmat.csv is not symmetric"]
    assert len(checks.check_evaluate(tmp_path)) == 2
    assert checks.check_sweep(tmp_path, 2, 4)
    assert checks.guarded(checks.check_sweep, tmp_path / "missing", 2, 4)


def test_digest_mismatch_fails_every_invocation_of_the_pass(tmp_path):
    workload = tiny("dp_dtw_lev")
    (tmp_path / "digests.json").write_text(json.dumps({f"{workload.name}:{SEED}": "first"}))
    invocation = run.Invocation("pipeline", 0.0, 1.0, 0, 1)
    passes = [run.Pass(False, [invocation], "second", 1, [])]
    run.apply_digest(workload, SEED, passes, tmp_path)
    assert not invocation.ok


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dp_dtw_lev", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
