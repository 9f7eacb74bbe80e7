import csv
import hashlib
import json
import os
from pathlib import Path

import pytest

from movclust import cli
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

    def test_sweep_table(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        run("distmat", "--config", str(cfg))
        assert run("sweep", "--config", str(cfg), "-O", "k_min=2", "-O", "k_max=6") == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert [int(r["k"]) for r in rows] == [2, 3, 4, 5, 6]
        assert all(r["ch"] and r["db"] and r["mpbi"] for r in rows)


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
