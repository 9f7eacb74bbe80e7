"""Command-line pipeline: raw CSV -> assignments, sweeps, reports, profiles.

Subcommands: preprocess, distmat, features, cluster, sweep, evaluate,
profile, pipeline.  Configuration is a flat ``key = value`` file with
``#`` comments; CLI flags and ``-O key=value`` overrides win over the
file.  All randomness flows from the single configured seed.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 degenerate
computation escalated by --strict.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import clustering, core_data, distances, evaluation, image_features, tables
from .errors import ConfigError, DataError, DegenerateGeometryError, MovclustError


def _boolean(raw: str) -> bool:
    value = raw.lower()
    if value not in ("true", "false"):
        raise ValueError("expected true or false")
    return value == "true"


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
    "dtw_window": (str, ""),  # empty = unconstrained
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


def _dtw_window(cfg):
    return int(cfg["dtw_window"]) if cfg["dtw_window"] else None


def _fmt(value) -> str:
    return format(float(value), ".9g")


def _atomic_writes(out_dir, producer):
    """Run producer(tmp_dir), then move every produced file into out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".tmp-") as tmp:
        producer(tmp)
        for name in sorted(os.listdir(tmp)):
            os.replace(os.path.join(tmp, name), os.path.join(out_dir, name))


# ---------------------------------------------------------------------------
# wide CSV helpers for intermediate artifacts


def _write_wide(path, collection, dates, symbolic=False):
    tables.write_table(
        path,
        ["series_id"] + [d.isoformat() for d in dates],
        collection.ids,
        [s.levels if symbolic else s.values for s in collection.series],
        cell="%d" if symbolic else "%.9g",
    )


def _read_wide_numeric(path, mode):
    series = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n = len(header) - 1
        for row in reader:
            series.append(
                core_data.TimeSeries(
                    series_id=row[0],
                    values=np.asarray([float(v) for v in row[1:]]),
                    missing_mask=np.zeros(n, dtype=bool),
                )
            )
    return core_data.SeriesCollection(series=series, mode=mode)


def _read_wide_symbolic(path, mode):
    series = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            series.append(
                core_data.SymbolicSeries(
                    series_id=row[0], levels=np.asarray([int(v) for v in row[1:]])
                )
            )
    return core_data.SeriesCollection(series=series, mode=mode)


def _read_metadata(path):
    meta = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            meta[row["series_id"]] = {
                "product": row["product"] or None,
                "store": row["store"] or None,
                "category": row["category"] or None,
            }
    return meta


# ---------------------------------------------------------------------------
# commands


def cmd_preprocess(cfg):
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
        symbolic = core_data.filter_outliers(
            symbolic,
            metric=cfg["outlier_metric"],
            percentile=cfg["outlier_percentile"],
            omega=cfg["omega"],
            window=_dtw_window(cfg),
        )
        keep = set(symbolic.ids)
        original = core_data.SeriesCollection(
            series=[s for s in original.series if s.series_id in keep],
            mode=original.mode,
            provenance=symbolic.provenance,
        )
        scaled = core_data.SeriesCollection(
            series=[s for s in scaled.series if s.series_id in keep],
            mode=scaled.mode,
            provenance=symbolic.provenance,
        )

    def produce(tmp):
        _write_wide(os.path.join(tmp, "original.csv"), original, dates)
        _write_wide(os.path.join(tmp, "scaled.csv"), scaled, dates)
        _write_wide(os.path.join(tmp, "symbolic.csv"), symbolic, dates, symbolic=True)
        with open(os.path.join(tmp, "metadata.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["series_id", "product", "store", "category"])
            for s in original.series:
                writer.writerow([s.series_id, s.product or "", s.store or "", s.category or ""])
        with open(os.path.join(tmp, "rejects.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["line_number", "raw_row", "reason"])
            for r in rejects:
                writer.writerow([r.line_number, r.raw_row, r.reason])
        with open(os.path.join(tmp, "provenance.json"), "w", encoding="utf-8") as fh:
            json.dump(symbolic.provenance, fh, sort_keys=True, indent=2)
            fh.write("\n")

    _atomic_writes(cfg["out"], produce)
    return 0


def _load_matrix_inputs(cfg, metric):
    out = cfg["out"]
    if metric in ("mpbd", "levenshtein"):
        return _read_wide_symbolic(os.path.join(out, "symbolic.csv"), cfg["mode"])
    return _read_wide_numeric(os.path.join(out, "scaled.csv"), cfg["mode"])


def _require(path, hint):
    if not os.path.exists(path):
        raise DataError(f"missing prerequisite artifact {path} (run `{hint}` first)")
    return path


def cmd_distmat(cfg):
    out = cfg["out"]
    metric = cfg["metric"]
    if metric in ("mpbd", "levenshtein"):
        _require(os.path.join(out, "symbolic.csv"), "preprocess")
    else:
        _require(os.path.join(out, "scaled.csv"), "preprocess")
    collection = _load_matrix_inputs(cfg, metric)
    matrix = distances.distance_matrix(
        collection,
        metric,
        omega=cfg["omega"],
        window=_dtw_window(cfg),
    )
    matrix = distances.normalize_matrix(
        matrix, cfg["normalization"], value_range=cfg["scale_hi"] - cfg["scale_lo"]
    )

    def produce(tmp):
        distances.write_matrix_csv(matrix, os.path.join(tmp, "distmat.csv"))

    _atomic_writes(out, produce)
    return 0


def cmd_features(cfg):
    out = cfg["out"]
    scaled = _read_wide_numeric(
        _require(os.path.join(out, "scaled.csv"), "preprocess"), cfg["mode"]
    )
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

    _atomic_writes(out, produce)
    return 0


def _clusterer(cfg):
    """Load the algorithm's input artifact once; return (k -> assignment, dendrogram or None)."""
    out, algorithm, seed = cfg["out"], cfg["algorithm"], cfg["seed"]
    if algorithm == "kmeans":
        scaled = _read_wide_numeric(
            _require(os.path.join(out, "scaled.csv"), "preprocess"), cfg["mode"]
        )
        X = np.stack([s.values for s in scaled.series])
        return lambda k: clustering.kmeans(X, scaled.ids, k=k, seed=seed), None
    if algorithm == "kmeans_features":
        path = _require(os.path.join(out, "features.csv"), "features")
        vectors = image_features.load_external_features(path, extractor="features.csv")
        return lambda k: image_features.cluster_features(vectors, k=k, seed=seed), None
    if algorithm not in ("kmedoids", "hierarchical"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    matrix = distances.read_matrix_csv(_require(os.path.join(out, "distmat.csv"), "distmat"))
    if algorithm == "kmedoids":
        return lambda k: clustering.kmedoids(matrix, k=k, seed=seed), None
    linkage = cfg["linkage"]
    dendrogram = clustering.agglomerative(matrix, linkage=linkage)
    return lambda k: clustering.cut_dendrogram(
        dendrogram, k, seed=seed, algorithm=f"hierarchical[{linkage}](k={k})"
    ), dendrogram


def cmd_cluster(cfg):
    cluster_fn, dendrogram = _clusterer(cfg)
    assignment = cluster_fn(cfg["k"])
    extra = {"metric": cfg["metric"], "normalization": cfg["normalization"]}

    def produce(tmp):
        clustering.write_assignment_csv(assignment, os.path.join(tmp, "assignment.csv"), extra)
        if dendrogram is not None:
            clustering.write_dendrogram_csv(dendrogram, os.path.join(tmp, "dendrogram.csv"))

    _atomic_writes(cfg["out"], produce)
    return 0


def _evaluation_inputs(cfg):
    out = cfg["out"]
    scaled = _read_wide_numeric(
        _require(os.path.join(out, "scaled.csv"), "preprocess"), cfg["mode"]
    )
    symbolic = _read_wide_symbolic(
        _require(os.path.join(out, "symbolic.csv"), "preprocess"), cfg["mode"]
    )
    if scaled.ids != symbolic.ids:
        raise DataError("scaled.csv and symbolic.csv disagree on series ids")
    X = np.stack([s.values for s in scaled.series])
    levels = [s.levels for s in symbolic.series]
    return scaled.ids, X, levels


def cmd_sweep(cfg):
    if cfg["k_min"] > cfg["k_max"]:
        raise ConfigError(f"empty sweep range: k_min={cfg['k_min']} > k_max={cfg['k_max']}")
    ids, X, levels = _evaluation_inputs(cfg)
    cluster_fn, _ = _clusterer(cfg)
    ks = range(cfg["k_min"], cfg["k_max"] + 1)
    rows = evaluation.sweep_k(X, levels, ids, ks, cluster_fn, omega=cfg["omega"])
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
    return 0


def cmd_evaluate(cfg):
    out = cfg["out"]
    ids, X, levels = _evaluation_inputs(cfg)
    assignment = clustering.read_assignment_csv(
        _require(os.path.join(out, "assignment.csv"), "cluster")
    )
    if sorted(assignment.labels) != sorted(ids):
        raise DataError("assignment ids do not match preprocessed collection")
    report = evaluation.evaluate(X, levels, ids, assignment, omega=cfg["omega"])
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
        with open(os.path.join(tmp, "evaluate.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    _atomic_writes(out, produce)
    return 0


def cmd_profile(cfg):
    out = cfg["out"]
    original = _read_wide_numeric(
        _require(os.path.join(out, "original.csv"), "preprocess"), cfg["mode"]
    )
    meta = _read_metadata(_require(os.path.join(out, "metadata.csv"), "preprocess"))
    assignment = clustering.read_assignment_csv(
        _require(os.path.join(out, "assignment.csv"), "cluster")
    )
    if sorted(assignment.labels) != sorted(original.ids):
        raise DataError("assignment ids do not match preprocessed collection")
    sales_mode = cfg["mode"] == "sales"
    values_by_id = {s.series_id: s.values for s in original.series}

    rows = []
    for c in range(1, assignment.k + 1):
        members = assignment.members(c)
        values = np.concatenate([values_by_id[sid] for sid in members])
        categories = {}
        products, stores = set(), set()
        for sid in members:
            m = meta.get(sid, {})
            if m.get("category"):
                categories[m["category"]] = categories.get(m["category"], 0) + 1
            if m.get("product"):
                products.add(m["product"])
            if m.get("store"):
                stores.add(m["store"])
        top = sorted(categories.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        row = {
            "cluster": c,
            "size": len(members),
            "n_categories": len(categories),
            "top_categories": "; ".join(f"{name}: {count}" for name, count in top),
            "avg_value": _fmt(values.mean()),
            "min_value": _fmt(values.min()),
            "max_value": _fmt(values.max()),
        }
        if sales_mode:
            row["n_products"] = len(products)
            row["n_stores"] = len(stores)
        rows.append(row)

    columns = ["cluster", "size"]
    if sales_mode:
        columns += ["n_products", "n_stores"]
    columns += ["n_categories", "top_categories", "avg_value", "min_value", "max_value"]

    def produce(tmp):
        with open(os.path.join(tmp, "profile.csv"), "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([row[c] for c in columns])

    _atomic_writes(out, produce)
    return 0


def cmd_pipeline(cfg):
    cmd_preprocess(cfg)
    if cfg["algorithm"] == "kmeans_features":
        cmd_features(cfg)
    elif cfg["algorithm"] != "kmeans":
        cmd_distmat(cfg)
    cmd_cluster(cfg)
    cmd_evaluate(cfg)
    cmd_profile(cfg)
    return 0


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
    return COMMANDS[args.command](cfg)


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
