import builtins
import csv
import hashlib
import json
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from movclust import cli, distances, image_features, tables
from movclust.core_data import SeriesCollection
from movclust.errors import ConfigError


def run(*argv):
    return cli.main(list(argv))


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def snapshot(directory):
    return {
        name: read(os.path.join(directory, name))
        for name in sorted(os.listdir(directory))
        if not name.startswith(".")
    }


@pytest.fixture()
def price_cfg(sample_dir, tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"""
# price-mode sample run
input = {sample_dir / 'price_long.csv'}
mode = price
metric = mpbd
algorithm = hierarchical
linkage = ward
k = 15
seed = 42
out = {out}
""",
        encoding="utf-8",
    )
    return cfg, out


class TestConfig:
    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("inptu = x\n")
        assert run("preprocess", "--config", str(cfg)) == 1
        assert "inptu" in capsys.readouterr().err

    def test_bad_value_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("k = fifteen\n")
        assert run("preprocess", "--config", str(cfg)) == 1

    def test_unknown_command_exits_1(self):
        assert run("frobnicate") == 1

    def test_flag_overrides_config(self, price_cfg, tmp_path):
        cfg, _ = price_cfg
        other = tmp_path / "elsewhere"
        assert run("preprocess", "--config", str(cfg), "--out", str(other)) == 0
        assert (other / "scaled.csv").exists()

    @pytest.mark.parametrize("omega", ["-1", "nan", "inf", "-inf"])
    def test_omega_must_be_finite_and_not_negative(self, price_cfg, omega, capsys):
        cfg, out = price_cfg
        with pytest.raises(ConfigError, match="omega"):
            cli.build_config({"omega": omega}, {})
        assert run("pipeline", "--config", str(cfg), "-O", f"omega={omega}") == 1
        assert "error: bad value for 'omega'" in capsys.readouterr().err
        assert not out.exists()

    def test_omega_zero_is_allowed(self):
        assert cli.build_config({}, {"omega": "0"})["omega"] == 0.0

    @pytest.mark.parametrize("key", ["outlier_filter", "strict"])
    def test_boolean_keys_are_strict(self, key):
        assert cli.build_config({key: "TRUE"}, {})[key] is True
        assert cli.build_config({}, {key: "False"})[key] is False
        for raw in ("ture", "yes", "1", ""):
            with pytest.raises(ConfigError, match=key):
                cli.build_config({key: raw}, {})
        assert run("preprocess", "-O", f"{key}=ture") == 1

    @pytest.mark.parametrize("key", ["date_start", "date_end"])
    def test_one_sided_date_range_exits_1(self, key, capsys):
        with pytest.raises(ConfigError, match="date_start and date_end"):
            cli.build_config({key: "2021-01-01"}, {})
        assert run("preprocess", "-O", f"{key}=2021-01-01") == 1
        assert "date_start and date_end" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["date_start", "date_end"])
    def test_malformed_date_bound_exits_1(self, key, capsys):
        bounds = {"date_start": "2021-01-01", "date_end": "2021-12-31", key: "2021-13-01"}
        argv = [item for k, v in bounds.items() for item in ("-O", f"{k}={v}")]
        assert run("preprocess", "--input", "unused.csv", *argv) == 1
        assert f"error: bad value for '{key}': '2021-13-01'" in capsys.readouterr().err

    @pytest.mark.parametrize("window", ["abc", "2.5"])
    def test_dtw_window_must_be_empty_or_an_integer(self, price_cfg, window, capsys):
        assert cli.build_config({}, {"dtw_window": ""})["dtw_window"] is None
        assert cli.build_config({"dtw_window": "7"}, {})["dtw_window"] == 7
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "-O", f"dtw_window={window}") == 1
        assert f"error: bad value for 'dtw_window': '{window}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["mode", "input_format", "fill", "metric", "outlier_metric",
                                     "normalization", "algorithm", "linkage"])
    def test_value_outside_a_keys_choices_exits_1_before_reading_input(self, price_cfg, key,
                                                                        capsys):
        with pytest.raises(ConfigError, match=rf"bad value for '{key}': 'foo' \(expected one of"):
            cli.build_config({key: "foo"}, {})
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "-O", f"{key}=foo") == 1
        assert f"error: bad value for '{key}': 'foo'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("lo, hi", [("-1", "1"), ("0", "1.5"), ("0.5", "0.5"), ("0.6", "0.2"),
                                        ("-1.7e308", "1.7e308"), ("nan", "1")])
    def test_scale_bounds_outside_the_unit_interval_exit_1(self, price_cfg, lo, hi, capsys):
        with pytest.raises(ConfigError, match="need 0 <= scale_lo < scale_hi <= 1"):
            cli.build_config({"scale_lo": lo}, {"scale_hi": hi})
        cfg, out = price_cfg
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("pipeline", "--config", str(cfg),
                       "-O", f"scale_lo={lo}", "-O", f"scale_hi={hi}") == 1
        assert "error: bad scale bounds" in capsys.readouterr().err
        assert not out.exists()

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nseed = 5  # trailing\n")
        values = cli.parse_config_file(cfg)
        assert values == {"seed": "5"}


class TestPreprocess:
    def test_outputs_and_provenance(self, price_cfg):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        for name in (
            "original.csv",
            "scaled.csv",
            "symbolic.csv",
            "metadata.csv",
            "provenance.json",
            "rejects.csv",
        ):
            assert (out / name).exists()
        steps = [p["step"] for p in json.loads((out / "provenance.json").read_text())]
        assert steps == [
            "assemble",
            "drop_sparse",
            "fill",
            "minmax_scale",
            "discretize",
            "filter_outliers",
        ]
        fill = json.loads((out / "provenance.json").read_text())[2]
        assert fill["params"]["strategy"] == "forward"  # price mode

    def test_sales_mode_mean_fill(self, sample_dir, tmp_path):
        out = tmp_path / "sales"
        assert (
            run(
                "preprocess",
                "--input", str(sample_dir / "sales_long.csv"),
                "--out", str(out),
                "-O", "mode=sales",
            )
            == 0
        )
        prov = json.loads((out / "provenance.json").read_text())
        assert prov[2]["params"]["strategy"] == "mean"

    def test_rerun_byte_identical(self, price_cfg):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        first = snapshot(out)
        assert run("preprocess", "--config", str(cfg)) == 0
        assert snapshot(out) == first

    def test_rejects_report(self, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text(
            "series_id,date,value\n"
            "A,2021-01-01,1\nA,2021-01-02,2\nA,2021-01-03,oops\n"
            "B,2021-01-01,5\nB,2021-01-02,6\nB,2021-01-03,7\n"
        )
        out = tmp_path / "out"
        assert (
            run(
                "preprocess", "--input", str(src), "--out", str(out),
                "-O", "outlier_filter=false",
            )
            == 0
        )
        rows = list(csv.DictReader((out / "rejects.csv").open()))
        assert len(rows) == 1
        assert rows[0]["line_number"] == "4"
        assert rows[0]["reason"] == "unparseable value"

    @pytest.mark.parametrize("row", ["B,2021-01-02,2,x", "B,2021-01-02"])
    def test_ragged_row_rejected(self, tmp_path, row):
        src = tmp_path / "in.csv"
        src.write_text(f"series_id,date,value\nA,2021-01-01,1\nA,2021-01-02,2\n{row}\n")
        out = tmp_path / "out"
        assert run("preprocess", "--input", str(src), "--out", str(out),
                   "-O", "outlier_filter=false") == 0
        rows = list(csv.DictReader((out / "rejects.csv").open()))
        assert [(r["line_number"], r["raw_row"], r["reason"]) for r in rows] == [
            ("4", row, "column count mismatch"),
        ]

    @pytest.mark.parametrize("input_format, text, lineno", [
        ("long", "series_id,date,value\n{big},2021-01-01,1\n", 2),
        ("long", "series_id,date,{big}\nA,2021-01-01,1\n", 1),
        ("wide", "series_id,2021-01-01\n{big},1\n", 2),
    ], ids=["long-row", "long-header", "wide-row"])
    def test_field_over_the_csv_limit_exits_2(self, tmp_path, input_format, text, lineno, capsys):
        src = tmp_path / "in.csv"
        src.write_text(text.format(big="A" * (csv.field_size_limit() + 1)), encoding="utf-8")
        assert run("preprocess", "--input", str(src), "--out", str(tmp_path / "out"),
                   "-O", f"input_format={input_format}") == 2
        assert (f"data error: {src}, line {lineno}: field larger than field limit"
                in capsys.readouterr().err)

    def test_missing_input_exits_2(self, tmp_path):
        assert run("preprocess", "--input", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "o")) == 2


class TestStageCommands:
    def test_distmat_requires_preprocess(self, tmp_path):
        assert run("distmat", "--out", str(tmp_path / "empty")) == 2

    def test_distmat_outputs(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        assert run("distmat", "--config", str(cfg)) == 0
        sidecar = json.loads((out / "distmat.json").read_text())
        assert sidecar["metric"] == "mpbd"
        assert sidecar["normalization"] == "matrix_max"

    def test_cluster_k_nonempty(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        run("distmat", "--config", str(cfg))
        assert run("cluster", "--config", str(cfg)) == 0
        rows = list(csv.DictReader((out / "assignment.csv").open()))
        clusters = {int(r["cluster"]) for r in rows}
        assert clusters == set(range(1, 16))

    def test_evaluate_and_profile(self, price_cfg):
        cfg, out = price_cfg
        for command in ("preprocess", "distmat", "cluster", "evaluate", "profile"):
            assert run(command, "--config", str(cfg)) == 0
        report = json.loads((out / "evaluate.json").read_text())
        assert report["k"] == 15
        assert report["mpbi"] >= 0
        rows = list(csv.DictReader((out / "profile.csv").open()))
        sizes = sum(int(r["size"]) for r in rows)
        n_series = len(list(csv.reader((out / "scaled.csv").open()))) - 1
        assert sizes == n_series
        for r in rows:
            assert float(r["min_value"]) <= float(r["avg_value"]) <= float(r["max_value"])

    def test_profile_sales_columns(self, sample_dir, tmp_path):
        out = tmp_path / "sales"
        base = [
            "--input", str(sample_dir / "sales_long.csv"),
            "--out", str(out), "-O", "mode=sales", "-O", "k=7", "--seed", "1",
        ]
        for command in ("preprocess", "distmat", "cluster", "profile"):
            assert run(command, *base) == 0
        rows = list(csv.DictReader((out / "profile.csv").open()))
        assert {"n_products", "n_stores"} <= set(rows[0])
        assert len(rows) == 7

    def test_features_and_feature_clustering(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        assert run("features", "--config", str(cfg)) == 0
        assert (out / "features.csv").exists()
        assert run("cluster", "--config", str(cfg), "-O", "algorithm=kmeans_features",
                   "-O", "k=5") == 0
        rows = list(csv.DictReader((out / "assignment.csv").open()))
        assert {int(r["cluster"]) for r in rows} == set(range(1, 6))

    @pytest.mark.parametrize("block", ["0", "-4"])
    def test_pool_block_below_one_exits_2(self, price_cfg, block, capsys):
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "-O", "algorithm=kmeans_features",
                   "-O", f"pool_block={block}") == 2
        assert f"data error: pool block must be at least 1, got {block}" in capsys.readouterr().err
        assert (out / "scaled.csv").exists() and not (out / "features.csv").exists()

    def test_kmeans_and_kmedoids_paths(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        assert run("cluster", "--config", str(cfg), "-O", "algorithm=kmeans",
                   "-O", "k=6") == 0
        run("distmat", "--config", str(cfg), "-O", "metric=dtw",
            "-O", "normalization=matrix_max")
        assert run("cluster", "--config", str(cfg), "-O", "algorithm=kmedoids",
                   "-O", "k=6") == 0
        sidecar = json.loads((out / "assignment.json").read_text())
        assert sidecar["algorithm"].startswith("kmedoids")

    @pytest.mark.parametrize("algorithm", ["kmedoids", "kmeans_features"])
    def test_sweep_missing_input_artifact_exits_2(self, price_cfg, algorithm, capsys):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        assert run("sweep", "--config", str(cfg), "-O", f"algorithm={algorithm}") == 2
        assert "missing prerequisite artifact" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

    def test_evaluate_without_assignment_sidecar_exits_2(self, price_cfg, capsys):
        cfg, out = price_cfg
        for command in ("preprocess", "distmat", "cluster"):
            assert run(command, "--config", str(cfg)) == 0
        (out / "assignment.json").unlink()
        assert run("evaluate", "--config", str(cfg)) == 2
        assert "assignment.json" in capsys.readouterr().err

    def test_profile_without_metadata_exits_2(self, price_cfg, capsys):
        cfg, out = price_cfg
        for command in ("preprocess", "distmat", "cluster"):
            assert run(command, "--config", str(cfg)) == 0
        (out / "metadata.csv").unlink()
        assert run("profile", "--config", str(cfg)) == 2
        assert "metadata.csv" in capsys.readouterr().err

    def test_repeated_mapped_column_exits_2(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("series_id,date,value,value\nA,2021-01-01,1,5\n", encoding="utf-8")
        assert run("preprocess", "--input", str(path), "--out", str(tmp_path / "out")) == 2
        assert "mapped column 'value' (for value) repeated in header" in capsys.readouterr().err

    def test_empty_sweep_range_exits_1_before_reading_artifacts(self, price_cfg, capsys):
        cfg, out = price_cfg
        assert run("sweep", "--config", str(cfg), "-O", "k_min=5", "-O", "k_max=3") == 1
        assert "error: empty sweep range" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_of_one_day_notes_every_k(self, price_cfg):
        cfg, out = price_cfg
        one_day = ["-O", "date_start=2021-01-10", "-O", "date_end=2021-01-10",
                   "-O", "outlier_filter=false", "-O", "algorithm=kmeans"]
        assert run("preprocess", "--config", str(cfg), *one_day) == 0
        assert run("sweep", "--config", str(cfg), *one_day, "-O", "k_max=4") == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert [int(r["k"]) for r in rows] == [2, 3, 4]
        assert all(not r["mpbi"] and "length >= 2" in r["note"] for r in rows)

    def test_sweep_table(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        run("distmat", "--config", str(cfg))
        assert run("sweep", "--config", str(cfg), "-O", "k_min=2", "-O", "k_max=6") == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert [int(r["k"]) for r in rows] == [2, 3, 4, 5, 6]
        assert all(r["ch"] and r["db"] and r["mpbi"] for r in rows)


#: (mode, algorithm, metric) of the pipeline-equals-stepwise grid: every metric
#: for the algorithms that cluster a distance matrix, and one for the others,
#: whose artifacts only record its name.
PIPELINE_GRID = [
    (mode, algorithm, metric)
    for mode in ("price", "sales")
    for algorithm in ("hierarchical", "kmedoids", "kmeans", "kmeans_features")
    for metric in (distances.METRICS if algorithm in ("hierarchical", "kmedoids") else ("mpbd",))
]


class TestPipeline:
    def test_pipeline_equals_stepwise(self, price_cfg, tmp_path):
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg)) == 0
        pipeline_files = snapshot(out)
        stepwise_out = tmp_path / "stepwise"
        base = ["--config", str(cfg), "--out", str(stepwise_out)]
        for command in ("preprocess", "distmat", "cluster", "evaluate", "profile"):
            assert run(command, *base) == 0
        stepwise_files = snapshot(stepwise_out)
        assert set(pipeline_files) == set(stepwise_files)
        for name in pipeline_files:
            assert pipeline_files[name] == stepwise_files[name], name

    @pytest.mark.parametrize("outlier_filter", ["true", "false"])
    @pytest.mark.parametrize("mode, algorithm, metric", PIPELINE_GRID)
    def test_pipeline_equals_stepwise_over_grid(self, sample_dir, tmp_path, mode, algorithm,
                                                metric, outlier_filter):
        options = ["--input", str(sample_dir / f"{mode}_long.csv")]
        for option in (f"mode={mode}", f"algorithm={algorithm}", f"metric={metric}",
                       f"outlier_filter={outlier_filter}", "normalization=table1",
                       f"outlier_metric={'levenshtein' if metric == 'levenshtein' else 'mpbd'}"):
            options += ["-O", option]
        assert run("pipeline", "--out", str(tmp_path / "pipeline"), *options) == 0
        stage = {"kmeans": [], "kmeans_features": ["features"]}.get(algorithm, ["distmat"])
        for command in ("preprocess", *stage, "cluster", "evaluate", "profile"):
            assert run(command, "--out", str(tmp_path / "stepwise"), *options) == 0
        pipeline_files = snapshot(tmp_path / "pipeline")
        stepwise_files = snapshot(tmp_path / "stepwise")
        assert set(pipeline_files) == set(stepwise_files)
        for name in pipeline_files:
            assert pipeline_files[name] == stepwise_files[name], name

    def test_features_rasterize_scaled_values_as_written(self, tmp_path):
        """A scaled value whose written text lands on another pixel row.

        With scale bounds 0 and 1, series A's values are its scaled values.
        0.49999999999 is written as 0.5, and on a 64-row grid rint(63 x 0.5)
        is 32 (half to even) while rint(63 x 0.49999999999) is 31.
        """
        days = [f"2021-01-0{d}" for d in range(1, 5)]
        series = {"A": [0, 1, 0.49999999999, 0.2], "B": [0, 1, 0.3, 0.7], "C": [1, 0, 0.6, 0.1]}
        src = tmp_path / "in.csv"
        src.write_text("series_id,date,value\n" + "".join(
            f"{sid},{day},{value!r}\n" for sid, values in series.items()
            for day, value in zip(days, values)), encoding="utf-8")
        rows = [image_features.extract_features(
            SeriesCollection(["A"], [[0, 1, value, 0.2]]))[0].features
            for value in (0.49999999999, 0.5)]
        assert not np.array_equal(*rows)
        options = ["--input", str(src), "-O", "scale_lo=0", "-O", "scale_hi=1", "-O", "k=2",
                   "-O", "outlier_filter=false", "-O", "algorithm=kmeans_features"]
        assert run("pipeline", "--out", str(tmp_path / "pipeline"), *options) == 0
        for command in ("preprocess", "features", "cluster", "evaluate", "profile"):
            assert run(command, "--out", str(tmp_path / "stepwise"), *options) == 0
        assert snapshot(tmp_path / "pipeline") == snapshot(tmp_path / "stepwise")
        features = (tmp_path / "pipeline" / "features.csv").read_text().splitlines()[1]
        assert features == ",".join(["A", *(tables.NUMBER % v for v in rows[1])])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_distmat_stops_the_pipeline_where_cluster_would(self, price_cfg, tmp_path,
                                                                       capsys):
        cfg, out = price_cfg
        zero = ["-O", "omega=0", "-O", "normalization=table1"]  # mpbd / (omega x n) is 0 / 0
        assert run("pipeline", "--config", str(cfg), *zero) == 2
        pipeline_err = capsys.readouterr().err.replace(str(out), "<out>")
        assert "distmat.csv, line 2: non-finite cell nan in column" in pipeline_err
        stepwise = tmp_path / "stepwise"
        for command, code in (("preprocess", 0), ("distmat", 0), ("cluster", 2)):
            assert run(command, "--config", str(cfg), "--out", str(stepwise), *zero) == code
        assert capsys.readouterr().err.replace(str(stepwise), "<out>") == pipeline_err
        assert snapshot(out) == snapshot(stepwise)

    def test_subset_feature_file_stops_the_pipeline_where_evaluate_would(self, price_cfg,
                                                                         tmp_path, capsys):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg), "--out", str(tmp_path / "ids")) == 0
        scaled = (tmp_path / "ids" / "scaled.csv").read_text().splitlines()[1:]
        ids = [line.split(",")[0] for line in scaled]
        features = tmp_path / "external.csv"
        features.write_text("series_id,f1,f2\n" + "".join(
            f"{sid},{i % 5 / 3!r},{i % 7}\n" for i, sid in enumerate(ids[:-1])), encoding="utf-8")
        options = ["--config", str(cfg), "-O", "algorithm=kmeans_features", "-O", "k=3",
                   "-O", f"features_path={features}"]
        assert run("pipeline", *options) == 2
        pipeline_err = capsys.readouterr().err
        assert pipeline_err == "data error: assignment ids do not match preprocessed collection\n"
        stepwise = tmp_path / "stepwise"
        for command, code in (("preprocess", 0), ("features", 0), ("cluster", 0), ("evaluate", 2)):
            assert run(command, *options, "--out", str(stepwise)) == code
        assert capsys.readouterr().err == pipeline_err
        assert snapshot(out) == snapshot(stepwise)

    @pytest.mark.parametrize("algorithm, external", [
        ("hierarchical", False), ("kmedoids", False), ("kmeans", False),
        ("kmeans_features", False), ("kmeans_features", True),
    ], ids=["hierarchical", "kmedoids", "kmeans", "kmeans_features", "features_path"])
    def test_pipeline_opens_no_file_it_wrote(self, price_cfg, tmp_path, monkeypatch, algorithm,
                                            external):
        cfg, out = price_cfg
        options = ["--config", str(cfg), "-O", f"algorithm={algorithm}", "-O", "k=3"]
        if external:
            assert run("preprocess", *options, "--out", str(tmp_path / "ids")) == 0
            scaled = (tmp_path / "ids" / "scaled.csv").read_text().splitlines()[1:]
            features = tmp_path / "external.csv"
            features.write_text("series_id,f1,f2\n" + "".join(
                f"{line.split(',')[0]},{i % 5 / 3!r},{i % 7}\n" for i, line in enumerate(scaled)),
                encoding="utf-8")
            options += ["-O", f"features_path={features}"]
        opened, real_open = [], builtins.open

        def recording_open(file, mode="r", *args, **kwargs):
            if not set(mode) & set("wax+"):
                opened.append(os.path.abspath(file))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        assert run("pipeline", *options) == 0
        monkeypatch.undo()
        assert str(cfg) in opened  # the config file, so reads are recorded
        assert [path for path in opened if path.startswith(str(out) + os.sep)] == []

    def test_threads_do_not_change_results(self, price_cfg, tmp_path):
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "--threads", "1") == 0
        single = snapshot(out)
        out8 = tmp_path / "out8"
        assert run("pipeline", "--config", str(cfg), "--out", str(out8),
                   "--threads", "8") == 0
        assert snapshot(out8) == single


#: sha256 of every artifact that the sales image pipeline writes on the bundled
#: sample_data/sales_long.csv, recorded from the row-by-row loaders and
#: rasterizer that the columnar ones replaced.
SALES_FEATURES_DIGESTS = {
    "assignment.csv": "30b627f79abc3266598372c6d41578dccd8d649fda6035ca230afacdaa363bf3",
    "assignment.json": "c3243d6ace50d4ff3a833d83a823bb1673b96208e8d4741a078bb5712c1a3093",
    "evaluate.json": "17312f64c38051fde9b0641487ef14f06a8d1682c542fef44c9714c19032e862",
    "features.csv": "cadf2abfd4b690f9ace98abb62593748507b04b2be5710c3dc6422af73f24194",
    "metadata.csv": "8d597d79b4532755a0ba4d39e6bc0273cea40bc887f1fcfd33654a75b8aad183",
    "original.csv": "f0d972ced9ba2e9582052c2dbafb22e73b2d0b9add4ead2956f3fb67ab3ddd91",
    "profile.csv": "ef04c2cf01cca85a00ec5ffebdc7c7fd24eced09c256d94afedccd67d435e8bc",
    "provenance.json": "0663ae1633715e7144b38db2c4cb19569183ef41fb7477a1ebdaad55af710152",
    "rejects.csv": "e0a76e04b068ae9ae44adaed361fda9fa6a8d55de6a0500c56789e3be00eb8af",
    "scaled.csv": "7504ee787566a4c974ce5d2dcab7c44aef80fce93bdbca069750648cba2e87db",
    "symbolic.csv": "86974495bc55086269fecbcd4b8b92a42bc1c7f9527a84bf6ab95f9c647dd41a",
}


def test_sales_image_pipeline_golden_digests(tmp_path):
    sales = Path(__file__).resolve().parents[1] / "sample_data" / "sales_long.csv"
    out = tmp_path / "out"
    assert run("pipeline", "--input", str(sales), "--out", str(out), "-O", "mode=sales",
               "-O", "algorithm=kmeans_features", "-O", "outlier_filter=false") == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in snapshot(out).items()}
    assert digests == SALES_FEATURES_DIGESTS


#: sha256 of the price pipeline's artifacts and of its k=2..20 sweeps on the
#: bundled sample_data/price_long.csv, recorded from the sweep that computed
#: every k's MPBD pairs anew and the writers that formatted one cell at a time.
PRICE_DIGESTS = {
    "assignment.csv": "6efdaadfb9eb20f37fe48182be501dfb821b89085d77872d9a03e08f4972834f",
    "assignment.json": "69543baf09552dce85c6b0876e43bcce391b78952b5b35b47344b0d02531273a",
    "dendrogram.csv": "5370a92f1fb4e0253e3463ecf5b6f5af465a294bcf2b4239e6a80419c2efddfa",
    "distmat.csv": "ff22356a526c53d53a3d88250fc197b8df30199629f7ece670cd616e40fd1e7d",
    "distmat.json": "e5ebed315cb7bb0ec4cb1a814c5dfa558062e1fcb0647cee79169375597d7fce",
    "evaluate.json": "ab8bc944ec1bc8d81a3c7de71b11c4b767a8a308454aba8910ba2a09ee3fe7c3",
    "metadata.csv": "ba20a0f5fa952104ea8a0f6761cc9c3c550fc4f547345eb46897a4f9b72269c2",
    "original.csv": "42f297e6dd8dab9b24a93530a2c578fc2b691e4cf17d8c51b4e77a6047562076",
    "profile.csv": "827ed915447146a31fc9c879d13b6454d597959cb915fa447ed3b29e3011ce67",
    "provenance.json": "e3c98651069077ab83af105b6ddbabdefc07256716f22722de65c123c7e666bb",
    "rejects.csv": "e0a76e04b068ae9ae44adaed361fda9fa6a8d55de6a0500c56789e3be00eb8af",
    "scaled.csv": "df0e0b2b3b2db165cd8305bdc53d82812056ddad2ca538dd970822b5b4b45240",
    "symbolic.csv": "db79f03f20e720287730cb9e3188eab10d7148aac1c1b8a10fd9713a7c1351a9",
}
PRICE_SWEEP_DIGESTS = {
    (): "76f71dc0904ff6fe3e9739d505c78431d60e46c26e004689901ac86a0d7faa9a",
    ("algorithm=kmedoids",): "95542ea41f13b16563e3791474a31992b16cc8051ded18c77be0b727f57bc93c",
    ("algorithm=kmeans",): "339dcebefb26289a6b6e20e21d00dc32e1e55216dd4fcd0f02ab0e2090649e09",
    ("omega=0.3",): "b60d97cdb2a5815abefe37dc434c1108b572ade4d40477af996b196164b6e7b1",
}


def test_price_pipeline_and_sweep_golden_digests(tmp_path):
    price = Path(__file__).resolve().parents[1] / "sample_data" / "price_long.csv"
    out = tmp_path / "out"
    assert run("pipeline", "--input", str(price), "--out", str(out)) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in snapshot(out).items()}
    assert digests == PRICE_DIGESTS
    for options, digest in PRICE_SWEEP_DIGESTS.items():
        overrides = [arg for option in options for arg in ("-O", option)]
        assert run("sweep", "--out", str(out), *overrides) == 0
        assert hashlib.sha256(read(out / "sweep.csv")).hexdigest() == digest, options


class TestBadArtifacts:
    """An intermediate artifact that does not parse is a data error naming its file and line."""

    @pytest.fixture()
    def preprocessed(self, price_cfg):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        return cfg, out

    @staticmethod
    def edit_cells(path, lineno, edit):
        """Rewrite the cells of one line (the sample's ids hold no comma)."""
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[lineno - 1] = ",".join(edit(lines[lineno - 1].split(",")))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_unparseable_scaled_cell_exits_2(self, preprocessed, capsys):
        cfg, out = preprocessed
        self.edit_cells(out / "scaled.csv", 3, lambda cells: [cells[0], "x", *cells[2:]])
        assert run("cluster", "--config", str(cfg), "-O", "algorithm=kmeans") == 2
        err = capsys.readouterr().err
        assert f"data error: {out / 'scaled.csv'}, line 3: could not convert string to float: 'x'" in err
        assert not (out / "assignment.csv").exists()

    @pytest.mark.parametrize("command", ["distmat", "evaluate"])
    def test_short_symbolic_row_exits_2(self, preprocessed, command, capsys):
        cfg, out = preprocessed
        run("distmat", "--config", str(cfg))
        run("cluster", "--config", str(cfg))
        self.edit_cells(out / "symbolic.csv", 4, lambda cells: cells[:-1])
        assert run(command, "--config", str(cfg)) == 2
        width = len((out / "symbolic.csv").read_text().splitlines()[0].split(","))
        assert (f"data error: {out / 'symbolic.csv'}, line 4: {width - 1} cells, "
                f"header has {width}") in capsys.readouterr().err

    @pytest.fixture()
    def clustered(self, preprocessed):
        cfg, out = preprocessed
        assert run("distmat", "--config", str(cfg)) == 0
        assert run("cluster", "--config", str(cfg)) == 0
        return cfg, out

    @pytest.mark.parametrize("name, lineno, edit, command, message", [
        ("distmat.csv", 3, lambda cells: [cells[0], "x", *cells[2:]], "cluster",
         "could not convert string to float: 'x'"),
        ("distmat.csv", 4, lambda cells: cells[:-1], "sweep", "{w1} cells, header has {w}"),
        ("assignment.csv", 2, lambda cells: cells + ["7"], "evaluate", "3 cells, header has 2"),
        ("assignment.csv", 3, lambda cells: [cells[0], "x"], "profile",
         "invalid literal for int() with base 10: 'x'"),
        ("metadata.csv", 1, lambda cells: cells[:3], "profile",
         "header ['series_id', 'product', 'store'] is not "
         "['series_id', 'product', 'store', 'category']"),
        ("metadata.csv", 2, lambda cells: [*cells[:3], "c" * (csv.field_size_limit() + 1)],
         "profile", f"field larger than field limit ({csv.field_size_limit()})"),
    ], ids=["distmat-cell", "distmat-ragged", "assignment-ragged", "assignment-label",
            "metadata-header", "metadata-oversized-cell"])
    def test_bad_artifact_exits_2(self, clustered, name, lineno, edit, command, message, capsys):
        cfg, out = clustered
        width = len((out / name).read_text().splitlines()[0].split(","))
        self.edit_cells(out / name, lineno, edit)
        assert run(command, "--config", str(cfg)) == 2
        message = message.format(w=width, w1=width - 1)
        assert f"data error: {out / name}, line {lineno}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar, command, key", [
        ("distmat.json", "cluster", "metric"),
        ("assignment.json", "evaluate", "algorithm"),
    ])
    def test_sidecar_without_key_exits_2(self, clustered, sidecar, command, key, capsys):
        cfg, out = clustered
        (out / sidecar).write_text("{}\n", encoding="utf-8")
        assert run(command, "--config", str(cfg)) == 2
        assert f"data error: {out / sidecar}: missing key {key!r}" in capsys.readouterr().err

    def test_header_only_assignment_exits_2(self, clustered, capsys):
        cfg, out = clustered
        (out / "assignment.csv").write_text("series_id,cluster\n", encoding="utf-8")
        assert run("evaluate", "--config", str(cfg)) == 2
        assert "data error: assignment ids do not match" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell_exits_2(self, preprocessed, tmp_path, cell, capsys):
        cfg, out = preprocessed
        ids = [line.split(",")[0] for line in (out / "scaled.csv").read_text().splitlines()[1:3]]
        features = tmp_path / "external.csv"
        features.write_text(f"series_id,f1,f2\n{ids[0]},0.5,1\n{ids[1]},{cell},1\n",
                            encoding="utf-8")
        assert run("features", "--config", str(cfg), "-O", f"features_path={features}") == 2
        assert (f"data error: {features}, line 3: non-finite cell {cell} in column 'f1'"
                in capsys.readouterr().err)
        assert not (out / "features.csv").exists()


@pytest.mark.parametrize("algorithm", ["hierarchical", "kmeans", "kmeans_features"])
def test_all_sparse_input_exits_2(tmp_path, algorithm, capsys):
    src = tmp_path / "in.csv"
    # one observed day in ten per series: every series is 90% missing
    src.write_text("series_id,date,value\nA,2021-01-01,1\nB,2021-01-10,2\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run("pipeline", "--input", str(src), "--out", str(out),
               "-O", f"algorithm={algorithm}") == 2
    assert "data error:" in capsys.readouterr().err
    days = ",".join(f"2021-01-{d:02d}" for d in range(1, 11))
    for name in ("original.csv", "scaled.csv", "symbolic.csv"):
        assert (out / name).read_text() == f"series_id,{days}\n"
    assert (out / "metadata.csv").read_text() == "series_id,product,store,category\n"
    provenance = json.loads((out / "provenance.json").read_text())
    assert provenance[1]["dropped_ids"] == ["A", "B"]


@pytest.mark.parametrize("mode, rows, message", [
    # series A's mean of 1.5e308, 1.6e308 and 1e308 fills 2021-01-03 with inf
    ("sales", {"A": ["1.5e308", "1.6e308", None, "1e308"]},
     "data error: A: mean fill value overflows to a non-finite number"),
    # 1.7e308 - -1.7e308 overflows, which scaled the 1 to scale_lo
    ("price", {"A": ["1.7e308", "-1.7e308", "1", "1"]},
     "data error: A: value range overflows to a non-finite number"),
], ids=["mean_fill", "scale_range"])
def test_overflowing_series_exits_2_before_writing(tmp_path, capsys, mode, rows, message):
    rows = {**rows, "B": ["1", "2", "3", "4"], "C": ["4", "3", "2", "1"]}
    src = tmp_path / "in.csv"
    src.write_text("series_id,date,value\n" + "".join(
        f"{sid},2021-01-0{d + 1},{v}\n" for sid, values in rows.items()
        for d, v in enumerate(values) if v is not None), encoding="utf-8")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("pipeline", "--input", str(src), "--out", str(out), "-O", f"mode={mode}",
                   "-O", "k=2", "-O", "outlier_filter=false") == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)
