"""Command-line pipeline: raw CSV -> assignments, sweeps, reports, profiles.

Subcommands: preprocess, distmat, features, cluster, sweep, evaluate,
profile, pipeline.  Each stage command has one input path: ``Run.read``
returns an artifact of the run, and ``Run.write`` writes the stage's own
artifacts into a temporary directory and then moves them into ``out``.  A
run keeps every artifact it writes, so ``pipeline``, which runs the stages
over one run, reads none of its own files back and writes the same
artifacts, byte for byte, as the stage commands run one after another.
Configuration is a flat ``key = value`` file with ``#`` comments; CLI flags
and ``-O key=value`` overrides win over the file.  A value outside a key's
fixed set (``mode``, ``input_format``, ``fill``, ``metric``,
``outlier_metric``, ``normalization``, ``algorithm``, ``linkage``) and scale
bounds other than ``0 <= scale_lo < scale_hi <= 1`` are configuration errors,
raised before any input is read.  All randomness flows from the single
configured seed.

Exit codes: 0 success, 1 usage/config error, 2 data error (among them a CSV
line the csv module cannot read, such as a field over its size limit),
3 degenerate computation escalated by --strict.
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


def _one_of(*choices):
    """Parser of a key whose value must be one of ``choices``."""

    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw

    return parse


#: Each algorithm -> the artifact it clusters (see ``ARTIFACTS``).
CLUSTERS = {
    "kmeans": "scaled.csv",
    "kmeans_features": "features.csv",
    "kmedoids": "distmat.csv",
    "hierarchical": "distmat.csv",
}

# key -> (parser, default)
CONFIG_SPEC = {
    "input": (str, ""),
    "input_format": (_one_of("long", "wide"), "long"),
    "mode": (_one_of("price", "sales"), "price"),
    "series_id_col": (str, "series_id"),
    "date_col": (str, "date"),
    "value_col": (str, "value"),
    "category_col": (str, "category"),
    "store_col": (str, "store"),
    "date_start": (str, ""),
    "date_end": (str, ""),
    "sparse_threshold": (float, 0.8),
    "fill": (_one_of("auto", "forward", "mean"), "auto"),
    "scale_lo": (float, 0.1),
    "scale_hi": (float, 1.0),
    "thresholds": (str, "0.29,0.47,0.65,0.83"),
    "outlier_filter": (_boolean, True),
    "outlier_metric": (_one_of(*distances.METRICS), "mpbd"),
    "outlier_percentile": (float, 95.0),
    "metric": (_one_of(*distances.METRICS), "mpbd"),
    "omega": (float, 2.0),
    "dtw_window": (_window, None),  # empty = unconstrained
    "normalization": (_one_of("matrix_max", "table1", "none"), "matrix_max"),
    "algorithm": (_one_of(*CLUSTERS), "hierarchical"),
    "linkage": (_one_of(*clustering.LINKAGES), "ward"),
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
    if not 0 <= cfg["scale_lo"] < cfg["scale_hi"] <= 1:
        raise ConfigError(f"bad scale bounds: scale_lo={cfg['scale_lo']!r}, "
                          f"scale_hi={cfg['scale_hi']!r} (need 0 <= scale_lo < scale_hi <= 1)")
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


# ---------------------------------------------------------------------------
# the artifacts of a run


def _write_wide(path, collection, dates):
    tables.write_table(
        path,
        ["series_id"] + [d.isoformat() for d in dates],
        collection.ids,
        collection.values,
        cell="%d" if collection.values.dtype.kind == "i" else tables.NUMBER,
    )


def _read_wide(cfg, path, dtype):
    """Read the wide artifact of preprocess at ``path`` into one matrix of ``dtype`` cells."""
    _, ids, values = tables.read_table(path, dtype)
    return core_data.SeriesCollection(ids, values, mode=cfg["mode"])


METADATA = ["series_id", "product", "store", "category"]


def _read_metadata(path):
    """series id -> its (product, store, category), each "" when unknown."""
    _, ids, attrs = tables.read_table(path, object, header=METADATA)
    return dict(zip(ids, attrs.tolist()))


#: Each artifact that a later stage reads -> (the command that writes it, its
#: reader of (cfg, path)).  The readers look the library functions up when
#: called, so a wrapper put on a module attribute is the one that runs.
ARTIFACTS = {
    "original.csv": ("preprocess", lambda cfg, path: _read_wide(cfg, path, float)),
    "scaled.csv": ("preprocess", lambda cfg, path: _read_wide(cfg, path, float)),
    "symbolic.csv": ("preprocess", lambda cfg, path: _read_wide(cfg, path, int)),
    "metadata.csv": ("preprocess", lambda cfg, path: _read_metadata(path)),
    "distmat.csv": ("distmat", lambda cfg, path: distances.read_matrix_csv(path)),
    "features.csv": ("features", lambda cfg, path: image_features.load_external_features(
        path, extractor="features.csv")),
    "assignment.csv": ("cluster", lambda cfg, path: clustering.read_assignment_csv(path)),
}


def _as_read(value, path):
    """``value``, which a stage wrote to ``path``, as the artifact's reader returns it.

    Each float matrix comes back through ``tables.as_written``, so a
    non-finite cell is the error that reading the file raises.
    """
    if isinstance(value, distances.DistanceMatrix):
        return replace(value, entries=tables.as_written(value.entries, path))
    if isinstance(value, core_data.SeriesCollection) and value.values.dtype.kind == "f":
        return replace(value, values=tables.as_written(value.values, path))
    if isinstance(value, list):  # feature vectors
        rows = tables.as_written(np.stack([vec.features for vec in value]), path)
        return [image_features.FeatureVector(vec.series_id, row, "features.csv")
                for vec, row in zip(value, rows)]
    return value


class Run:
    """The artifacts of one run, in the directory ``cfg["out"]``.

    A run keeps each artifact of ``ARTIFACTS`` that it writes, so a later
    stage of the same run reads that value and not the file.  A kept value
    goes through ``_as_read`` when first read: a non-finite cell fails in
    the stage that reads it, as it would when reading the file.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self._written = {}  # name -> value as written, not yet read
        self._kept = {}  # name -> value as read

    def read(self, name):
        """The artifact ``name`` as its reader in ``ARTIFACTS`` returns it."""
        path = os.path.join(self.cfg["out"], name)
        if name in self._written:
            self._kept[name] = _as_read(self._written.pop(name), path)
        if name in self._kept:
            return self._kept[name]
        command, reader = ARTIFACTS[name]
        if not os.path.exists(path):
            raise DataError(f"missing prerequisite artifact {path} (run `{command}` first)")
        return reader(self.cfg, path)

    def write(self, *files):
        """Write each (name, value, write) by ``write(value, path)``, then move them into out."""
        out = self.cfg["out"]
        os.makedirs(out, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out, prefix=".tmp-") as tmp:
            for name, value, write in files:
                write(value, os.path.join(tmp, name))
            for name in sorted(os.listdir(tmp)):
                os.replace(os.path.join(tmp, name), os.path.join(out, name))
        for name, value, _ in files:
            if name in ARTIFACTS:
                self._written[name] = value


# ---------------------------------------------------------------------------
# commands.  Each stage command reads its inputs from ``run`` and writes its
# own artifacts to it.

#: Metrics that ``distmat`` computes over the symbolic levels, not the scaled values.
SYMBOLIC_METRICS = ("mpbd", "levenshtein")


def cmd_preprocess(run):
    """Load, align and preprocess the input; write the series, metadata, rejects and provenance."""
    cfg = run.cfg
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
    else:
        observations, rejects = core_data.load_wide_csv(cfg["input"])

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

    def wide(collection, path):
        _write_wide(path, collection, dates)

    run.write(
        ("original.csv", original, wide),
        ("scaled.csv", scaled, wide),
        ("symbolic.csv", symbolic, wide),
        ("metadata.csv",
         {sid: [a or "" for a in attrs] for sid, attrs in zip(original.ids, original.attrs)},
         lambda meta, path: tables.write_rows(path, METADATA,
                                              ([sid, *attrs] for sid, attrs in meta.items()))),
        ("rejects.csv", rejects,
         lambda rejects, path: tables.write_rows(path, ["line_number", "raw_row", "reason"], (
             [r.line_number, r.raw_row, r.reason] for r in rejects))),
        ("provenance.json", symbolic.provenance,
         lambda provenance, path: tables.write_json(path, provenance)),
    )


def cmd_distmat(run):
    """Write distmat.csv, the normalized distance matrix of the symbolic or scaled series."""
    cfg = run.cfg
    collection = run.read("symbolic.csv" if cfg["metric"] in SYMBOLIC_METRICS else "scaled.csv")
    matrix = distances.distance_matrix(
        collection, cfg["metric"], omega=cfg["omega"], window=cfg["dtw_window"]
    )
    matrix = distances.normalize_matrix(
        matrix, cfg["normalization"], value_range=cfg["scale_hi"] - cfg["scale_lo"]
    )
    run.write(("distmat.csv", matrix, distances.write_matrix_csv))


def cmd_features(run):
    """Write features.csv, the feature vectors of the scaled series or of ``features_path``."""
    cfg = run.cfg
    scaled = run.read("scaled.csv")
    if cfg["features_path"]:
        vectors = image_features.load_external_features(
            cfg["features_path"], known_ids=set(scaled.ids)
        )
    else:
        vectors = image_features.extract_features(
            scaled, cfg["image_width"], cfg["image_height"], cfg["pool_block"]
        )
    run.write(("features.csv", vectors, image_features.write_features_csv))


def _clusterer(cfg, data):
    """(k -> assignment, dendrogram or None) over ``data``, the algorithm's input."""
    algorithm, seed = cfg["algorithm"], cfg["seed"]
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


def cmd_cluster(run):
    """Cluster the algorithm's input; write assignment.csv, and dendrogram.csv when there is one."""
    cfg = run.cfg
    cluster_fn, dendrogram = _clusterer(cfg, run.read(CLUSTERS[cfg["algorithm"]]))
    assignment = cluster_fn(cfg["k"])
    extra = {"metric": cfg["metric"], "normalization": cfg["normalization"]}
    files = [("assignment.csv", assignment,
              lambda assignment, path: clustering.write_assignment_csv(assignment, path, extra))]
    if dendrogram is not None:
        files.append(("dendrogram.csv", dendrogram, clustering.write_dendrogram_csv))
    run.write(*files)


def _evaluation_inputs(run):
    scaled, symbolic = run.read("scaled.csv"), run.read("symbolic.csv")
    if scaled.ids != symbolic.ids:
        raise DataError("scaled.csv and symbolic.csv disagree on series ids")
    return scaled, symbolic


def _check_assignment(assignment, ids):
    if sorted(assignment.labels) != sorted(ids):
        raise DataError("assignment ids do not match preprocessed collection")


def cmd_sweep(run):
    cfg = run.cfg
    if cfg["k_min"] > cfg["k_max"]:
        raise ConfigError(f"empty sweep range: k_min={cfg['k_min']} > k_max={cfg['k_max']}")
    scaled, symbolic = _evaluation_inputs(run)
    cluster_fn, _ = _clusterer(cfg, run.read(CLUSTERS[cfg["algorithm"]]))
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
    run.write(("sweep.csv", rows,
               lambda rows, path: evaluation.write_sweep_csv(rows, path, sidecar)))


def cmd_evaluate(run):
    """Write evaluate.json, the scores of the assignment over the scaled and symbolic series."""
    cfg = run.cfg
    scaled, symbolic = _evaluation_inputs(run)
    assignment = run.read("assignment.csv")
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
    run.write(("evaluate.json", payload, lambda payload, path: tables.write_json(path, payload)))


def cmd_profile(run):
    """Write profile.csv: each cluster's size, attributes and original values."""
    original, meta = run.read("original.csv"), run.read("metadata.csv")
    assignment = run.read("assignment.csv")
    _check_assignment(assignment, original.ids)
    sales_mode = run.cfg["mode"] == "sales"
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
    run.write(("profile.csv", rows, lambda rows, path: tables.write_rows(path, columns, rows)))


def cmd_pipeline(run):
    """Run preprocess, the command that writes the algorithm's input, cluster, evaluate, profile.

    The stages share ``run``, so each reads what an earlier one wrote from
    memory.  Each is called through ``COMMANDS``, which a timing harness may
    rebind.  ``kmeans`` clusters scaled.csv, which preprocess writes.
    """
    producer = ARTIFACTS[CLUSTERS[run.cfg["algorithm"]]][0]
    for command in dict.fromkeys(("preprocess", producer, "cluster", "evaluate", "profile")):
        COMMANDS[command](run)


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
    COMMANDS[args.command](Run(cfg))
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
