"""Command-line pipeline: raw CSV -> assignments, sweeps, reports, profiles.

Subcommands: preprocess, distmat, features, cluster, sweep, evaluate,
profile, pipeline.  Each stage command loads its input artifacts, runs the
stage and writes its own; ``pipeline`` runs the stages in memory and writes
the same artifacts, byte for byte, without reading any of them back.
Configuration is a flat ``key = value`` file with ``#`` comments; CLI flags
and ``-O key=value`` overrides win over the file.  All randomness flows
from the single configured seed.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 degenerate
computation escalated by --strict.
"""

from __future__ import annotations

import argparse
import datetime as dt
import math
import os
import sys
import tempfile
from collections import Counter
from dataclasses import replace

import numpy as np

from . import clustering, core_data, distances, evaluation, image_features, tables
from .errors import ConfigError, DataError, DegenerateGeometryError, MovclustError


def _boolean(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false"):
        raise ValueError("expected true or false")
    return value == "true"


def _window(raw: str) -> int | None:
    return int(raw) if raw else None


# key -> (parser, default)
CONFIG_SPEC = {
    "input": (str, ""),
    "input_format": (str, "long"),  # long | wide
    "mode": (str, "price"),  # price | sales
    "series_id_col": (str, "series_id"),
    "date_col": (str, "date"),
    "value_col": (str, "value"),
    "category_col": (str, "category"),
    "store_col": (str, "store"),
    "date_start": (str, ""),
    "date_end": (str, ""),
    "sparse_threshold": (float, 0.8),
    "fill": (str, "auto"),  # auto | forward | mean
    "scale_lo": (float, 0.1),
    "scale_hi": (float, 1.0),
    "thresholds": (str, "0.29,0.47,0.65,0.83"),
    "outlier_filter": (_boolean, True),
    "outlier_metric": (str, "mpbd"),
    "outlier_percentile": (float, 95.0),
    "metric": (str, "mpbd"),
    "omega": (float, 2.0),
    "dtw_window": (_window, None),  # empty = unconstrained
    "normalization": (str, "matrix_max"),
    "algorithm": (str, "hierarchical"),  # kmeans | kmeans_features | kmedoids | hierarchical
    "linkage": (str, "ward"),
    "k": (int, 15),
    "k_min": (int, 2),
    "k_max": (int, 20),
    "seed": (int, 0),
    "out": (str, "out"),
    "features_path": (str, ""),
    "image_width": (int, 64),
    "image_height": (int, 64),
    "pool_block": (int, 4),
    "threads": (int, 0),  # accepted for compatibility; has no effect
    "strict": (_boolean, False),
}


def parse_config_file(path) -> dict:
    values = {}
    try:
        fh = open(str(path), encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            if key not in CONFIG_SPEC:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = raw.strip()
    return values


def build_config(file_values: dict, overrides: dict) -> dict:
    cfg = {}
    merged = {**file_values, **overrides}
    for key, (parse, default) in CONFIG_SPEC.items():
        if key in merged:
            raw = merged[key]
            try:
                cfg[key] = parse(raw) if isinstance(raw, str) else raw
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        else:
            cfg[key] = default
    for key in merged:
        if key not in CONFIG_SPEC:
            raise ConfigError(f"unknown config key {key!r}")
    if bool(cfg["date_start"]) != bool(cfg["date_end"]):
        raise ConfigError("date_start and date_end must be given together")
    if not (math.isfinite(cfg["omega"]) and cfg["omega"] >= 0):
        raise ConfigError(f"bad value for 'omega': {cfg['omega']!r} (must be finite and >= 0)")
    return cfg


def _thresholds(cfg):
    try:
        parts = tuple(float(v) for v in cfg["thresholds"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad thresholds: {cfg['thresholds']!r}") from exc
    if len(parts) != 4:
        raise ConfigError("thresholds must be 4 comma-separated numbers")
    return parts


def _date(cfg, key):
    try:
        return dt.date.fromisoformat(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {cfg[key]!r} ({exc})") from exc


def _atomic_writes(out_dir, producer):
    """Run producer(tmp_dir), then move every produced file into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".tmp-") as tmp:
        producer(tmp)
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))


# ---------------------------------------------------------------------------
# wide CSV helpers for intermediate artifacts


def _write_wide(path, collection, dates):
    tables.write_table(
        path,
        ["series_id"] + [d.isoformat() for d in dates],
        collection.ids,
        collection.values,
        cell="%d" if collection.values.dtype.kind == "i" else tables.NUMBER,
    )


def _read_wide(cfg, name, dtype=float):
    """Read the wide artifact ``name`` of preprocess into one matrix of ``dtype`` cells."""
    path = _require(os.path.join(cfg["out"], name), "preprocess")
    _, ids, values = tables.read_table(path, dtype)
    return core_data.SeriesCollection(ids, values, mode=cfg["mode"])


def _as_written(cfg, name, collection):
    """``collection`` with its values as ``_read_wide`` reads them back from ``name``."""
    return replace(collection,
                   values=tables.as_written(collection.values, os.path.join(cfg["out"], name)))


METADATA = ["series_id", "product", "store", "category"]


def _read_metadata(path):
    """series id -> its (product, store, category), each "" when unknown."""
    _, ids, attrs = tables.read_table(path, object, header=METADATA)
    return dict(zip(ids, attrs.tolist()))


def _metadata_rows(collection):
    """Each series' metadata.csv row: its id, then its attributes, each "" when unknown."""
    return ([sid, *(a or "" for a in attrs)]
            for sid, attrs in zip(collection.ids, collection.attrs))


def _require(path, hint):
    if not os.path.exists(path):
        raise DataError(f"missing prerequisite artifact {path} (run `{hint}` first)")
    return path


def _read_assignment(cfg):
    return clustering.read_assignment_csv(
        _require(os.path.join(cfg["out"], "assignment.csv"), "cluster")
    )


# ---------------------------------------------------------------------------
# commands.  Each stage command takes its inputs from the caller when given
# and otherwise loads them from the artifacts in ``out``; it writes its own
# artifacts and returns what it computed.  ``pipeline`` hands each float
# matrix on as the next stage would read it back.

#: Metrics that ``distmat`` computes over the symbolic levels, not the scaled values.
SYMBOLIC_METRICS = ("mpbd", "levenshtein")


def cmd_preprocess(cfg):
    """Load, align and preprocess the input; return (original, scaled, symbolic)."""
    if not cfg["input"]:
        raise ConfigError("config key 'input' is required")
    schema = {
        "series_id": cfg["series_id_col"],
        "date": cfg["date_col"],
        "value": cfg["value_col"],
        "category": cfg["category_col"],
        "store": cfg["store_col"],
    }
    date_range = None
    if cfg["date_start"] and cfg["date_end"]:
        date_range = (_date(cfg, "date_start"), _date(cfg, "date_end"))
    if cfg["input_format"] == "long":
        observations, rejects = core_data.load_long_csv(cfg["input"], schema)
    elif cfg["input_format"] == "wide":
        observations, rejects = core_data.load_wide_csv(cfg["input"])
    else:
        raise ConfigError(f"unknown input_format {cfg['input_format']!r}")

    collection = core_data.assemble_series(observations, date_range, mode=cfg["mode"])
    assemble_params = collection.provenance[0]["params"]
    start = dt.date.fromisoformat(assemble_params["start"])
    dates = [start + dt.timedelta(days=t) for t in range(assemble_params["n"])]

    collection = core_data.drop_sparse(collection, cfg["sparse_threshold"])
    fill = cfg["fill"]
    if fill == "auto":
        fill = "forward" if cfg["mode"] == "price" else "mean"
    original = core_data.fill_collection(collection, fill)
    scaled = core_data.scale_collection(original, cfg["scale_lo"], cfg["scale_hi"])
    symbolic = core_data.discretize_collection(scaled, _thresholds(cfg))
    if cfg["outlier_filter"] and len(symbolic) >= 2:
        filtered = core_data.filter_outliers(
            symbolic,
            metric=cfg["outlier_metric"],
            percentile=cfg["outlier_percentile"],
            omega=cfg["omega"],
            window=cfg["dtw_window"],
        )
        keep = np.isin(symbolic.ids, filtered.ids)
        original, scaled = (c.select(keep, filtered.provenance) for c in (original, scaled))
        symbolic = filtered

    def produce(tmp):
        _write_wide(os.path.join(tmp, "original.csv"), original, dates)
        _write_wide(os.path.join(tmp, "scaled.csv"), scaled, dates)
        _write_wide(os.path.join(tmp, "symbolic.csv"), symbolic, dates)
        tables.write_rows(os.path.join(tmp, "metadata.csv"), METADATA, _metadata_rows(original))
        tables.write_rows(os.path.join(tmp, "rejects.csv"), ["line_number", "raw_row", "reason"],
                          ([r.line_number, r.raw_row, r.reason] for r in rejects))
        tables.write_json(os.path.join(tmp, "provenance.json"), symbolic.provenance)

    _atomic_writes(cfg["out"], produce)
    return original, scaled, symbolic


def cmd_distmat(cfg, collection=None):
    """Write distmat.csv, the normalized distance matrix of ``collection``; return it."""
    if collection is None:
        if cfg["metric"] in SYMBOLIC_METRICS:
            collection = _read_wide(cfg, "symbolic.csv", int)
        else:
            collection = _read_wide(cfg, "scaled.csv")
    matrix = distances.distance_matrix(
        collection, cfg["metric"], omega=cfg["omega"], window=cfg["dtw_window"]
    )
    matrix = distances.normalize_matrix(
        matrix, cfg["normalization"], value_range=cfg["scale_hi"] - cfg["scale_lo"]
    )

    def produce(tmp):
        distances.write_matrix_csv(matrix, os.path.join(tmp, "distmat.csv"))

    _atomic_writes(cfg["out"], produce)
    return matrix


def cmd_features(cfg, scaled=None):
    """Write features.csv, the feature vectors of ``scaled``; return them."""
    if scaled is None:
        scaled = _read_wide(cfg, "scaled.csv")
    if cfg["features_path"]:
        vectors = image_features.load_external_features(
            cfg["features_path"], known_ids=set(scaled.ids)
        )
    else:
        vectors = image_features.extract_features(
            scaled, cfg["image_width"], cfg["image_height"], cfg["pool_block"]
        )

    def produce(tmp):
        image_features.write_features_csv(vectors, os.path.join(tmp, "features.csv"))

    _atomic_writes(cfg["out"], produce)
    return vectors


ALGORITHMS = ("kmeans", "kmeans_features", "kmedoids", "hierarchical")


def _algorithm(cfg):
    if cfg["algorithm"] not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
    return cfg["algorithm"]


def _cluster_input(cfg):
    """Load the artifact that the configured algorithm clusters."""
    algorithm = _algorithm(cfg)
    if algorithm == "kmeans":
        return _read_wide(cfg, "scaled.csv")
    if algorithm == "kmeans_features":
        path = _require(os.path.join(cfg["out"], "features.csv"), "features")
        return image_features.load_external_features(path, extractor="features.csv")
    return distances.read_matrix_csv(_require(os.path.join(cfg["out"], "distmat.csv"), "distmat"))


def _clusterer(cfg, data):
    """(k -> assignment, dendrogram or None) over ``data``, the algorithm's input."""
    algorithm, seed = _algorithm(cfg), cfg["seed"]
    if algorithm == "kmeans":
        return lambda k: clustering.kmeans(data.values, data.ids, k=k, seed=seed), None
    if algorithm == "kmeans_features":
        return lambda k: image_features.cluster_features(data, k=k, seed=seed), None
    if algorithm == "kmedoids":
        return lambda k: clustering.kmedoids(data, k=k, seed=seed), None
    linkage = cfg["linkage"]
    dendrogram = clustering.agglomerative(data, linkage=linkage)
    return lambda k: clustering.cut_dendrogram(
        dendrogram, k, seed=seed, algorithm=f"hierarchical[{linkage}](k={k})"
    ), dendrogram


def cmd_cluster(cfg, data=None):
    """Cluster ``data``, the algorithm's input; write assignment.csv and return the assignment."""
    cluster_fn, dendrogram = _clusterer(cfg, _cluster_input(cfg) if data is None else data)
    assignment = cluster_fn(cfg["k"])
    extra = {"metric": cfg["metric"], "normalization": cfg["normalization"]}

    def produce(tmp):
        clustering.write_assignment_csv(assignment, os.path.join(tmp, "assignment.csv"), extra)
        if dendrogram is not None:
            clustering.write_dendrogram_csv(dendrogram, os.path.join(tmp, "dendrogram.csv"))

    _atomic_writes(cfg["out"], produce)
    return assignment


def _evaluation_inputs(cfg):
    scaled = _read_wide(cfg, "scaled.csv")
    symbolic = _read_wide(cfg, "symbolic.csv", int)
    if scaled.ids != symbolic.ids:
        raise DataError("scaled.csv and symbolic.csv disagree on series ids")
    return scaled, symbolic


def _check_assignment(assignment, ids):
    if sorted(assignment.labels) != sorted(ids):
        raise DataError("assignment ids do not match preprocessed collection")


def cmd_sweep(cfg):
    if cfg["k_min"] > cfg["k_max"]:
        raise ConfigError(f"empty sweep range: k_min={cfg['k_min']} > k_max={cfg['k_max']}")
    scaled, symbolic = _evaluation_inputs(cfg)
    cluster_fn, _ = _clusterer(cfg, _cluster_input(cfg))
    ks = range(cfg["k_min"], cfg["k_max"] + 1)
    rows = evaluation.sweep_k(scaled.values, symbolic.values, scaled.ids, ks, cluster_fn,
                              omega=cfg["omega"])
    sidecar = {
        "algorithm": cfg["algorithm"],
        "linkage": cfg["linkage"],
        "metric": cfg["metric"],
        "normalization": cfg["normalization"],
        "seed": cfg["seed"],
        "ch_variant": "standard",
    }

    def produce(tmp):
        evaluation.write_sweep_csv(rows, os.path.join(tmp, "sweep.csv"), sidecar)

    _atomic_writes(cfg["out"], produce)


def cmd_evaluate(cfg, scaled=None, symbolic=None, assignment=None):
    """Write evaluate.json, the scores of ``assignment`` over ``scaled`` and ``symbolic``."""
    if scaled is None:
        scaled, symbolic = _evaluation_inputs(cfg)
    if assignment is None:
        assignment = _read_assignment(cfg)
    _check_assignment(assignment, scaled.ids)
    ids, X = scaled.ids, scaled.values
    report = evaluation.evaluate(X, symbolic.values, ids, assignment, omega=cfg["omega"])
    try:
        ch_paper = evaluation.ch_index(X, ids, assignment, variant="paper")
    except DegenerateGeometryError as exc:
        ch_paper = None
        report.notes = {**(report.notes or {}), "ch_paper": str(exc)}
    if cfg["strict"] and report.notes:
        raise DegenerateGeometryError(
            "; ".join(f"{k}: {v}" for k, v in sorted(report.notes.items()))
        )
    payload = {
        "k": report.k,
        "ch_standard": report.ch,
        "ch_paper": ch_paper,
        "db": report.db,
        "mpbi": report.mpbi,
        "algorithm": assignment.algorithm,
        "seed": assignment.seed,
        "metric": cfg["metric"],
        "normalization": cfg["normalization"],
        "notes": report.notes,
    }

    def produce(tmp):
        tables.write_json(os.path.join(tmp, "evaluate.json"), payload)

    _atomic_writes(cfg["out"], produce)


def cmd_profile(cfg, original=None, assignment=None):
    """Write profile.csv: each cluster's size, attributes and ``original`` values.

    ``original`` carries each series' attributes when given; otherwise it
    is read from original.csv and the attributes from metadata.csv.
    """
    if original is None:
        original = _read_wide(cfg, "original.csv")
        meta = _read_metadata(_require(os.path.join(cfg["out"], "metadata.csv"), "preprocess"))
    else:
        meta = {sid: attrs for sid, *attrs in _metadata_rows(original)}
    if assignment is None:
        assignment = _read_assignment(cfg)
    _check_assignment(assignment, original.ids)
    sales_mode = cfg["mode"] == "sales"
    row_of = {sid: i for i, sid in enumerate(original.ids)}

    rows = []
    for c in range(1, assignment.k + 1):
        members = assignment.members(c)
        values = original.values[[row_of[sid] for sid in members]].ravel()
        products, stores, categories = zip(*(meta.get(sid, ("", "", "")) for sid in members))
        counts = Counter(name for name in categories if name)
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        sales = [len(set(products) - {""}), len(set(stores) - {""})] if sales_mode else []
        rows.append([c, len(members), *sales, len(counts),
                     "; ".join(f"{name}: {count}" for name, count in top),
                     *(tables.NUMBER % v for v in (values.mean(), values.min(), values.max()))])

    columns = ["cluster", "size"]
    if sales_mode:
        columns += ["n_products", "n_stores"]
    columns += ["n_categories", "top_categories", "avg_value", "min_value", "max_value"]

    def produce(tmp):
        tables.write_rows(os.path.join(tmp, "profile.csv"), columns, rows)

    _atomic_writes(cfg["out"], produce)


def _features_as_written(cfg, vectors):
    """``vectors`` as ``cluster`` reads them back from features.csv."""
    features = tables.as_written(np.stack([vec.features for vec in vectors]),
                                 os.path.join(cfg["out"], "features.csv"))
    return [image_features.FeatureVector(vec.series_id, row, "features.csv")
            for vec, row in zip(vectors, features)]


def _matrix_as_written(cfg, matrix):
    """``matrix`` as ``cluster`` reads it back from distmat.csv."""
    return replace(matrix, entries=tables.as_written(
        matrix.entries, os.path.join(cfg["out"], "distmat.csv")))


def cmd_pipeline(cfg):
    """Run every stage in memory, writing the artifacts the stepwise commands write.

    No artifact is read back: each float matrix goes on to the next stage
    through ``tables.as_written``, as that stage would read it.  original.csv
    is first read by ``profile``, so a non-finite cell in it fails there.
    """
    original, scaled, symbolic = cmd_preprocess(cfg)
    scaled = _as_written(cfg, "scaled.csv", scaled)
    if cfg["algorithm"] == "kmeans_features":
        data = _features_as_written(cfg, cmd_features(cfg, scaled))
    elif cfg["algorithm"] == "kmeans":
        data = scaled
    else:
        data = _matrix_as_written(
            cfg, cmd_distmat(cfg, symbolic if cfg["metric"] in SYMBOLIC_METRICS else scaled))
    assignment = cmd_cluster(cfg, data)
    cmd_evaluate(cfg, scaled, symbolic, assignment)
    cmd_profile(cfg, _as_written(cfg, "original.csv", original), assignment)


COMMANDS = {
    "preprocess": cmd_preprocess,
    "distmat": cmd_distmat,
    "features": cmd_features,
    "cluster": cmd_cluster,
    "sweep": cmd_sweep,
    "evaluate": cmd_evaluate,
    "profile": cmd_profile,
    "pipeline": cmd_pipeline,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def make_parser():
    parser = _Parser(
        prog="movclust",
        description="Cluster fixed-length time series by movement patterns.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--input", help="override the input CSV path")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--strict", action="store_true",
                        help="escalate degenerate-computation warnings to exit 3")
    parser.add_argument("-O", "--option", action="append", default=[],
                        metavar="KEY=VALUE", help="override any config key")
    return parser


def run(argv) -> int:
    args = make_parser().parse_args(argv)
    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for item in args.option:
        if "=" not in item:
            raise ConfigError(f"-O expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    if args.out is not None:
        overrides["out"] = args.out
    if args.input is not None:
        overrides["input"] = args.input
    if args.threads is not None:
        overrides["threads"] = str(args.threads)
    if args.strict:
        overrides["strict"] = "true"
    cfg = build_config(file_values, overrides)
    COMMANDS[args.command](cfg)
    return 0


def main(argv=None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DegenerateGeometryError as exc:
        print(f"degenerate computation: {exc}", file=sys.stderr)
        return 3
    except (DataError, MovclustError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
