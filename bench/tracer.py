"""Run one movclust CLI command with timing spans around each layer's functions.

Usage: ``PYTHONPATH=src python3 bench/tracer.py SPANS_JSON COMMAND [CLI ARGS...]``

The tracer replaces the public functions listed in ``SPANS`` by module
attribute with timing wrappers, then calls ``movclust.cli.main``.  The CLI,
``core_data.filter_outliers`` and ``evaluation.evaluate`` look these names up
at call time, so a wrapped call made inside another wrapped call becomes its
child span.  Nothing under ``src/`` is edited.

Spans are kept in memory and written once, as a JSON list, when the command
returns.  Each record holds name, start, end, parent (index in the list or
null), run id and the counts ``attrs`` taken from the call's arguments and
result.  Times are ``time.monotonic()`` seconds, a clock shared by every
process on Linux, so the ``cli.startup`` span can start at the moment the
parent spawned this process (``BENCH_SPAWN_T``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _load_counts(args, kwargs, result):
    observations, rejects = result
    return {"rows": len(observations) + len(rejects), "rejects": len(rejects)}


def _dropped(args, kwargs, result):
    return {"dropped": len(_arg(args, kwargs, 0, "collection")) - len(result)}


def _mpbd_pairs(args, kwargs, result):
    sizes = {}
    for label in _arg(args, kwargs, 2, "assignment").labels.values():
        sizes[label] = sizes.get(label, 0) + 1
    return {"pairs": sum(n * (n - 1) // 2 for n in sizes.values())}


#: Wrapped function ("module.function") -> (metric that sums its self time,
#: function computing the span's counts from (args, kwargs, result) or None).
#: ``{metric}`` is filled from the span's ``metric`` count.  Functions not
#: listed here are timed as part of their caller's self time.
SPANS = {
    "cli.cmd_preprocess": ("cli.preprocess.self_s", None),
    "cli.cmd_distmat": ("cli.distmat.self_s", None),
    "cli.cmd_features": ("cli.features.self_s", None),
    "cli.cmd_cluster": ("cli.cluster.self_s", None),
    "cli.cmd_sweep": ("cli.sweep.self_s", None),
    "cli.cmd_evaluate": ("cli.evaluate.self_s", None),
    "cli.cmd_profile": ("cli.profile.self_s", None),
    "cli.cmd_pipeline": ("cli.pipeline.self_s", None),
    "core_data.load_long_csv": ("core_data.load_s", _load_counts),
    "core_data.assemble_series": (
        "core_data.assemble_s", lambda a, k, r: {"series": len(r)}),
    "core_data.drop_sparse": ("core_data.prep_s", _dropped),
    "core_data.fill_collection": ("core_data.prep_s", None),
    "core_data.scale_collection": ("core_data.prep_s", None),
    "core_data.discretize_collection": ("core_data.prep_s", None),
    "core_data.filter_outliers": ("core_data.filter_outliers.self_s", _dropped),
    "distances.distance_matrix": (
        "distances.matrix_s.{metric}", lambda a, k, r: {"metric": r.metric, "ids": r.ids}),
    "distances.read_matrix_csv": ("distances.io_s", None),
    "distances.write_matrix_csv": ("distances.io_s", None),
    "clustering.agglomerative": (
        "clustering.agglomerative_s", lambda a, k, r: {"merges": len(r.merges)}),
    "clustering.cut_dendrogram": ("clustering.cut_s", None),
    "clustering.kmedoids": ("clustering.kmedoids_s", None),
    "clustering.kmeans": ("clustering.kmeans_s", None),
    "evaluation.mpbi": ("evaluation.mpbi_s", _mpbd_pairs),
    "evaluation.evaluate": ("evaluation.evaluate.self_s", None),
    "evaluation.sweep_k": ("evaluation.sweep.self_s", None),
    "image_features.extract_features": (
        "image_features.extract_s", lambda a, k, r: {"series": len(r)}),
    "image_features.cluster_features": ("image_features.cluster.self_s", None),
    "image_features.write_features_csv": ("image_features.features_io_s", None),
    "image_features.load_external_features": ("image_features.features_io_s", None),
}

#: Span covering interpreter start, imports and patching, up to ``cli.main``.
STARTUP = "cli.startup"


class Recorder:
    """In-memory span list with a stack of the spans currently open.

    One stack serves the whole process: no wrapped function is called from
    the distance-matrix thread pool, only from the main thread.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self._open = []

    def add(self, name, start, end, parent=None):
        span = {"name": name, "start": start, "end": end, "parent": parent,
                "run": self.run_id, "attrs": {}}
        self.spans.append(span)
        return span

    def wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else None
            span = self.add(name, time.monotonic(), None, parent)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._open.pop()
            if counts is not None:
                span["attrs"] = counts(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder):
    """Replace every function in SPANS by a wrapper; return the cli module."""
    for qualified, (_, counts) in SPANS.items():
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"movclust.{module_name}")
        setattr(module, func_name, recorder.wrap(qualified, getattr(module, func_name), counts))
    cli = importlib.import_module("movclust.cli")
    # COMMANDS holds the command functions by value, not by name.
    for command in cli.COMMANDS:
        cli.COMMANDS[command] = getattr(cli, f"cmd_{command}")
    return cli


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder(os.environ.get("BENCH_RUN_ID", ""))
    cli = install(recorder)
    recorder.add(STARTUP, float(os.environ["BENCH_SPAWN_T"]), time.monotonic())
    try:
        return cli.main(cli_args)
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
