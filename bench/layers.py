"""Turn the spans of one traced pass into the per-layer metrics.

Every span's self time goes to exactly one ``*_s`` metric (``tracer.SPANS``),
so the self-time metrics plus ``trace.unspanned_s`` add up to the traced
pass's wall time.  Counts come from the span ``attrs`` that the wrappers
took from each call's arguments and result.
"""

from __future__ import annotations

import itertools

from tracer import SPANS, STARTUP

#: Distance metrics the workloads compute a matrix for.
MATRIX_METRICS = ("dtw", "levenshtein", "mpbd")


def _self_time_metrics():
    names = {"cli.startup_s"}
    for template, _ in SPANS.values():
        names.update(template.format(metric=m) for m in MATRIX_METRICS)
    return sorted(names)


SELF_TIME_METRICS = _self_time_metrics()

COUNT_METRICS = [
    "core_data.rows", "core_data.rows_per_s", "core_data.rejects",
    "core_data.series_in", "core_data.series_out",
    "core_data.dropped_sparse", "core_data.dropped_outlier",
    *(f"distances.pairs.{m}" for m in MATRIX_METRICS),
    *(f"distances.pairs_per_s.{m}" for m in MATRIX_METRICS),
    "distances.matrix_calls", "distances.unique_pair_ratio",
    "clustering.agglomerative_calls", "clustering.merges",
    "evaluation.mpbi_calls", "evaluation.mpbd_pairs",
    "image_features.series",
    "cli.artifact_bytes",
    "trace.overhead_s", "trace.unspanned_s",
]

METRIC_NAMES = sorted(SELF_TIME_METRICS + COUNT_METRICS)


def self_times(spans):
    """Self time of each span of one process: duration minus its children's."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(processes, wall_s, untraced_wall_s, artifact_bytes):
    """Per-layer metrics of one traced pass.

    ``processes`` holds one span list per CLI process of the pass, and
    ``wall_s`` is the pass's wall time as the parent measured it.
    """
    metrics = dict.fromkeys(METRIC_NAMES, 0.0)
    pairs = dict.fromkeys(MATRIX_METRICS, 0)
    distinct_pairs = set()

    def add(name, value):
        metrics[name] += value

    for spans in processes:
        for span, own in zip(spans, self_times(spans)):
            name, attrs = span["name"], span["attrs"]
            if name == STARTUP:
                add("cli.startup_s", own)
                continue
            add(SPANS[name][0].format(**attrs), own)
            if name == "core_data.load_long_csv":
                add("core_data.rows", attrs["rows"])
                add("core_data.rejects", attrs["rejects"])
            elif name == "core_data.assemble_series":
                add("core_data.series_in", attrs["series"])
            elif name == "core_data.drop_sparse":
                add("core_data.dropped_sparse", attrs["dropped"])
            elif name == "core_data.filter_outliers":
                add("core_data.dropped_outlier", attrs["dropped"])
            elif name == "distances.distance_matrix":
                add("distances.matrix_calls", 1)
                ids = sorted(attrs["ids"])
                pairs[attrs["metric"]] += len(ids) * (len(ids) - 1) // 2
                distinct_pairs.update(
                    (attrs["metric"], a, b) for a, b in itertools.combinations(ids, 2))
            elif name == "clustering.agglomerative":
                add("clustering.agglomerative_calls", 1)
                add("clustering.merges", attrs["merges"])
            elif name == "evaluation.mpbi":
                add("evaluation.mpbi_calls", 1)
                add("evaluation.mpbd_pairs", attrs["pairs"])
            elif name == "image_features.extract_features":
                add("image_features.series", attrs["series"])

    metrics["core_data.series_out"] = (
        metrics["core_data.series_in"]
        - metrics["core_data.dropped_sparse"]
        - metrics["core_data.dropped_outlier"]
    )
    if metrics["core_data.load_s"] > 0:
        metrics["core_data.rows_per_s"] = metrics["core_data.rows"] / metrics["core_data.load_s"]
    for m in MATRIX_METRICS:
        metrics[f"distances.pairs.{m}"] = pairs[m]
        seconds = metrics[f"distances.matrix_s.{m}"]
        if seconds > 0:
            metrics[f"distances.pairs_per_s.{m}"] = pairs[m] / seconds
    if sum(pairs.values()):
        metrics["distances.unique_pair_ratio"] = len(distinct_pairs) / sum(pairs.values())
    metrics["cli.artifact_bytes"] = artifact_bytes
    metrics["trace.unspanned_s"] = wall_s - sum(metrics[n] for n in SELF_TIME_METRICS)
    metrics["trace.overhead_s"] = wall_s - untraced_wall_s
    return metrics
