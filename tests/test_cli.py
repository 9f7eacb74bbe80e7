import ast
import builtins
import csv
import datetime as dt
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from movclust import cli, distances, image_features, tables
from movclust.core_data import SeriesCollection
from movclust.errors import ConfigError


#: The bundled samples, which ``python -m movclust.sample`` writes.
SAMPLE_DATA = Path(__file__).resolve().parents[1] / "sample_data"


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


def ids_of(path):
    """The ids in the first column of a table (the sample's ids hold no comma)."""
    return [line.split(",")[0] for line in path.read_text(encoding="utf-8").splitlines()[1:]]


def tree_digest(files):
    """One sha256 over a snapshot: each name, then the sha256 of its bytes, in name order."""
    digest = hashlib.sha256()
    for name, data in sorted(files.items()):
        digest.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return digest.hexdigest()


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

    def test_omega_zero_under_table1_mpbd_exits_1_before_reading_input(self, price_cfg, capsys):
        cfg, out = price_cfg
        assert run("distmat", "--config", str(cfg), "-O", "omega=0",
                   "-O", "normalization=table1") == 1
        assert capsys.readouterr().err == (
            "error: omega=0.0 with normalization=table1 divides mpbd by zero "
            "(need omega > 0, or another normalization)\n")
        assert not out.exists()
        for metric in ("euclidean", "levenshtein", "dtw"):
            assert cli.build_config({}, {"omega": "0", "normalization": "table1",
                                         "metric": metric})["omega"] == 0.0

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

    def test_reversed_date_range_exits_1_before_reading_input(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("preprocess", "--input", str(tmp_path / "absent.csv"), "--out", str(out),
                   "-O", "date_start=2021-03-01", "-O", "date_end=2021-02-01") == 1
        assert capsys.readouterr().err == (
            "error: empty date range: date_start=2021-03-01 > date_end=2021-02-01\n")
        assert not out.exists()

    def test_date_bounds_parse_to_dates(self):
        cfg = cli.build_config({}, {"date_start": "2021-01-05", "date_end": "2021-01-06"})
        assert (cfg["date_start"], cfg["date_end"]) == (dt.date(2021, 1, 5), dt.date(2021, 1, 6))
        cfg = cli.build_config({"date_start": "", "date_end": ""}, {})
        assert (cfg["date_start"], cfg["date_end"]) == (None, None)

    @pytest.mark.parametrize("command", ["cluster", "profile"])
    @pytest.mark.parametrize("options, message", [
        (["k_min=0"], "bad value for 'k_min': 0 (must be >= 2)"),
        (["k_min=5", "k_max=3"], "empty sweep range: k_min=5 > k_max=3"),
        (["date_start=2021-03-01", "date_end=2021-02-01"],
         "empty date range: date_start=2021-03-01 > date_end=2021-02-01"),
    ], ids=["k_min", "sweep_range", "date_range"])
    def test_sweep_and_date_rules_exit_1_from_any_command(self, price_cfg, command, options,
                                                          message, capsys):
        cfg, out = price_cfg
        argv = [item for option in options for item in ("-O", option)]
        assert run(command, "--config", str(cfg), *argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("key, value", [
        ("k", "0"), ("image_width", "1"), ("image_height", "1"),
        ("pool_block", "0"), ("pool_block", "-4"), ("pool_block", "3"), ("dtw_window", "-1"),
        ("outlier_percentile", "0"), ("outlier_percentile", "100.5"),
        ("sparse_threshold", "-0.1"), ("sparse_threshold", "1.5"),
        ("thresholds", "0.47,0.29,0.65,0.83"), ("thresholds", "0.29,0.47,nan,0.83"),
    ])
    def test_number_outside_its_bounds_exits_1_before_reading_input(self, price_cfg, key, value,
                                                                     capsys):
        with pytest.raises(ConfigError, match=f"bad value for '{key}'"):
            cli.build_config({key: value}, {})
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "-O", "algorithm=kmeans_features",
                   "-O", f"{key}={value}") == 1
        assert f"error: bad value for '{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("algorithm",
                             ["hierarchical", "kmeans", "kmedoids", "kmeans_features"])
    def test_k_below_two_exits_1_before_reading_input(self, price_cfg, algorithm, capsys):
        with pytest.raises(ConfigError, match=f"'k': 1 \\(must be >= 2 for algorithm {algorithm}"):
            cli.build_config({"algorithm": algorithm}, {"k": "1"})
        cfg, out = price_cfg
        assert run("pipeline", "--config", str(cfg), "-O", f"algorithm={algorithm}",
                   "-O", "k=1") == 1
        assert "error: bad value for 'k': 1" in capsys.readouterr().err
        assert not out.exists()

    def test_thresholds_parse_into_four_numbers(self):
        assert cli.build_config({}, {})["thresholds"] == (0.29, 0.47, 0.65, 0.83)
        assert cli.build_config({"thresholds": "0.2, 0.2,0.5,0.9"}, {})["thresholds"] == (
            0.2, 0.2, 0.5, 0.9)
        for raw in ("0.1,0.2,0.3", "0.1,0.2,0.3,0.4,0.5", "a,b,c,d"):
            with pytest.raises(ConfigError, match="thresholds"):
                cli.build_config({"thresholds": raw}, {})

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("# comment\n\nseed = 5  # trailing\n")
        values = cli.parse_config_file(cfg)
        assert values == {"seed": "5"}

    def test_hash_inside_a_value_is_part_of_it(self, sample_dir, tmp_path, capsys):
        # a comment starts only at a line's start or after whitespace
        out = tmp_path / "o3#1"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"input = {sample_dir / 'price_long.csv'}\nout = {out}\n"
                       "\t# indented comment\nseed = 5\t# tab before the comment\n")
        assert cli.parse_config_file(cfg) == {"input": str(sample_dir / "price_long.csv"),
                                              "out": str(out), "seed": "5"}
        assert run("preprocess", "--config", str(cfg)) == 0
        assert (out / "scaled.csv").exists()
        assert not (tmp_path / "o3").exists()
        cfg.write_text("k = 5#x\n")
        assert run("preprocess", "--config", str(cfg)) == 1
        assert "error: bad value for 'k': '5#x'" in capsys.readouterr().err

    def test_unreadable_config_file_exits_1(self, tmp_path, capsys):
        assert run("preprocess", "--config", str(tmp_path / "missing.cfg")) == 1
        assert "error: cannot read config file:" in capsys.readouterr().err

    def test_key_given_twice_exits_1(self, price_cfg, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\n# a comment\nseed = 6\n")
        assert run("preprocess", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {cfg}:3: config key 'seed' given twice\n"
        # an -O override still wins over the file
        file_values = cli.parse_config_file(price_cfg[0])
        assert cli.build_config(file_values, {"seed": "6"})["seed"] == 6

    @pytest.mark.parametrize("flag", ["--seed", "--threads"])
    def test_bad_flag_value_is_reported_like_a_bad_option(self, price_cfg, flag, capsys):
        cfg, out = price_cfg
        key = flag[2:]
        assert run("preprocess", "--config", str(cfg), flag, "x") == 1
        flag_error = capsys.readouterr().err
        assert run("preprocess", "--config", str(cfg), "-O", f"{key}=x") == 1
        assert flag_error == capsys.readouterr().err == (
            f"error: bad value for '{key}': 'x' (invalid literal for int() with base 10: 'x')\n")
        assert not out.exists()

    def test_flags_win_over_options_and_the_file(self, price_cfg, monkeypatch):
        cfg, _ = price_cfg
        seen = {}
        monkeypatch.setitem(cli.COMMANDS, "preprocess", lambda run: seen.update(run.cfg))
        assert run("preprocess", "--config", str(cfg), "-O", "seed=5", "--seed", "3",
                   "--threads", "2", "--input", "in.csv", "-O", "out=x", "--out", "o") == 0
        assert [seen[key] for key in cli.FLAGS] == ["in.csv", "o", 3, 2]

    def test_config_line_without_equals_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\nseed 6\n")
        assert run("preprocess", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: expected 'key = value', got 'seed 6'\n")

    def test_option_without_equals_exits_1(self, price_cfg, capsys):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg), "-O", "seed") == 1
        assert capsys.readouterr().err == "error: -O expects KEY=VALUE, got 'seed'\n"
        assert not out.exists()

    def test_missing_input_key_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("preprocess", "--out", str(out)) == 1
        assert capsys.readouterr().err == "error: config key 'input' is required\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("under", [True, False], ids=["under-a-file", "a-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, sample_dir, tmp_path, under, capsys):
        afile = tmp_path / "afile"
        afile.write_text("", encoding="utf-8")
        out = afile / "sub" if under else afile
        assert run("preprocess", "--input", str(sample_dir / "price_long.csv"),
                   "--out", str(out)) == 2
        reason = "Not a directory" if under else "File exists"
        assert capsys.readouterr().err == (
            f"data error: cannot make output directory {out}: {reason}\n")
        assert afile.read_text(encoding="utf-8") == ""

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

    def test_repeated_id_in_feature_file_exits_2(self, price_cfg, tmp_path, capsys):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        ids = [line.split(",")[0] for line in (out / "scaled.csv").read_text().splitlines()[1:]]
        features = tmp_path / "external.csv"
        features.write_text("series_id,f1\n" + "".join(
            f"{sid},{i}\n" for i, sid in enumerate([*ids, ids[1]])), encoding="utf-8")
        assert run("features", "--config", str(cfg), "-O", f"features_path={features}") == 2
        assert (f"data error: {features}, line {len(ids) + 2}: duplicate series_id {ids[1]!r}"
                in capsys.readouterr().err)
        assert not (out / "features.csv").exists()

    @pytest.mark.parametrize("edit, detail", [
        (lambda ids: [*ids, "Z"], "0 lacking, 1 extra (first 'Z')"),
        (lambda ids: ids[:1] + ids[3:], "2 lacking (first {1!r}), 0 extra"),
    ], ids=["unknown", "missing"])
    def test_feature_file_not_holding_the_runs_series_exits_2(self, price_cfg, tmp_path, edit,
                                                                detail, capsys):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        ids = ids_of(out / "metadata.csv")
        features = tmp_path / "external.csv"
        features.write_text("series_id,f1\n" + "".join(
            f"{sid},{i}\n" for i, sid in enumerate(edit(ids))), encoding="utf-8")
        before = snapshot(out)
        assert run("features", "--config", str(cfg), "-O", f"features_path={features}") == 2
        assert capsys.readouterr().err == (
            f"data error: {features} does not hold the series of metadata.csv: "
            f"{detail.format(*ids)}\n")
        assert snapshot(out) == before

    def test_feature_file_in_another_order_is_written_in_metadata_order(self, price_cfg,
                                                                        tmp_path):
        cfg, out = price_cfg
        assert run("preprocess", "--config", str(cfg)) == 0
        ids = ids_of(out / "metadata.csv")
        written = {}
        for order in ("forward", "reversed"):
            features = tmp_path / f"{order}.csv"
            rows = [f"{sid},{i % 5 / 3!r},{i % 7}\n" for i, sid in enumerate(ids)]
            features.write_text("series_id,f1,f2\n" + "".join(
                rows if order == "forward" else rows[::-1]), encoding="utf-8")
            assert run("features", "--config", str(cfg), "-O", f"features_path={features}") == 0
            written[order] = (out / "features.csv").read_text()
        assert written["reversed"] == written["forward"]
        assert [line.split(",")[0] for line in written["forward"].splitlines()[1:]] == ids

    def test_no_series_left_exits_2_before_writing_features(self, tmp_path, capsys):
        src = tmp_path / "in.csv"
        src.write_text("series_id,date,value\nA,2021-01-01,1\nB,2021-01-10,2\n", encoding="utf-8")
        options = ["--input", str(src), "-O", "algorithm=kmeans_features"]
        assert run("pipeline", "--out", str(tmp_path / "pipeline"), *options) == 2
        assert capsys.readouterr().err == "data error: no feature vectors to write\n"
        assert run("preprocess", "--out", str(tmp_path / "stepwise"), *options) == 0
        assert run("features", "--out", str(tmp_path / "stepwise"), *options) == 2
        assert capsys.readouterr().err == "data error: no feature vectors to write\n"
        for out in ("pipeline", "stepwise"):
            assert not (tmp_path / out / "features.csv").exists()

    def test_kmeans_and_kmedoids_paths(self, price_cfg):
        cfg, out = price_cfg
        run("preprocess", "--config", str(cfg))
        assert run("cluster", "--config", str(cfg), "-O", "algorithm=kmeans",
                   "-O", "k=6") == 0
        dtw = ["-O", "metric=dtw", "-O", "normalization=matrix_max"]
        run("distmat", "--config", str(cfg), *dtw)
        assert run("cluster", "--config", str(cfg), *dtw, "-O", "algorithm=kmedoids",
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

    @pytest.mark.parametrize("k_min, k_max", [("-5", "-1"), ("0", "3"), ("1", "3")])
    def test_sweep_k_min_below_two_exits_1_before_reading_artifacts(self, price_cfg, k_min,
                                                                    k_max, capsys):
        cfg, out = price_cfg
        assert run("sweep", "--config", str(cfg), "-O", f"k_min={k_min}", "-O",
                   f"k_max={k_max}") == 1
        assert capsys.readouterr().err == (
            f"error: bad value for 'k_min': {k_min} (must be >= 2)\n")
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


#: (mode, algorithm, metric, normalization) of the pipeline-equals-stepwise
#: grid: under table1 normalization every metric for the algorithms that
#: cluster a distance matrix, and one for the others, whose artifacts only
#: record its name; and two matrices left unnormalized.
PIPELINE_GRID = [
    (mode, algorithm, metric, "table1")
    for mode in ("price", "sales")
    for algorithm in ("hierarchical", "kmedoids", "kmeans", "kmeans_features")
    for metric in (distances.METRICS if algorithm in ("hierarchical", "kmedoids") else ("mpbd",))
] + [("price", "hierarchical", "mpbd", "none"), ("sales", "kmedoids", "euclidean", "none")]
#: ``tree_digest`` of the pipeline artifacts of each grid case, keyed by
#: (mode, algorithm, metric, outlier_filter, normalization), on the
#: regenerated samples.
GRID_DIGESTS = {
    ("price", "hierarchical", "euclidean", "true", "table1"): "fc4fd39a32512709f754c81ee474164a8322c0880abc3a2ec0d60ce92b5cfc8f",
    ("price", "hierarchical", "levenshtein", "true", "table1"): "014404a1bda9eed4ddc645f3f9bcc3dfac5d55d518860b258285ff03bf128eb8",
    ("price", "hierarchical", "dtw", "true", "table1"): "86afbbca972b0d8bad951839de534fb359c64467f6d84ff25c019750a6c1a4fc",
    ("price", "hierarchical", "mpbd", "true", "table1"): "9f5c252cd381f20c72ea0e30be6611d840a7aabd68b98d97332ebbb8140db69b",
    ("price", "kmedoids", "euclidean", "true", "table1"): "fd7f1fa33604ec487c8fdfbcc0b803301749b0065d62ff634fb772f6f42dec8d",
    ("price", "kmedoids", "levenshtein", "true", "table1"): "05b483114c883fbe6b59bb0fb501f890e71691de0cf402c224764f49cd25c93e",
    ("price", "kmedoids", "dtw", "true", "table1"): "a8ae03dda6f77f3ccf7a88e4d090068cb0f825088582cf9689396e22f7c71717",
    ("price", "kmedoids", "mpbd", "true", "table1"): "03b122cdb3efcf19a7b63a95114db2d316587d1314e1295fe430554aef36b415",
    ("price", "kmeans", "mpbd", "true", "table1"): "ea4fac0771a390878bd39dbd840148fe589000d1fe685fe1edd1524439527812",
    ("price", "kmeans_features", "mpbd", "true", "table1"): "ece63eecceed1d02acf84fa7be4f49ba149ffd86f9e12a44962b18c4a27e56e6",
    ("sales", "hierarchical", "euclidean", "true", "table1"): "f7852da1b1f2fddcc8b338cc318b479f657ad7df160ea49a97b9a24a52af771d",
    ("sales", "hierarchical", "levenshtein", "true", "table1"): "22ede482b7a8f15c5c2ee6282b1697fecdc1ede8fb457bdfb8e9eb2aca0f1947",
    ("sales", "hierarchical", "dtw", "true", "table1"): "8addb9cbecdb12f1cbe80faa5b121597967fee2e262ce87e68c1134b7205b5cc",
    ("sales", "hierarchical", "mpbd", "true", "table1"): "22e66517156392ee2a3a3011f7581556ba84339b15173572ee9d41bc78742af8",
    ("sales", "kmedoids", "euclidean", "true", "table1"): "663d8b910ca923a81e1de6d88b18aeab5b7f613dd061d1403e456a8d25d98258",
    ("sales", "kmedoids", "levenshtein", "true", "table1"): "b3435464623fc6f74347851a2bc7ebfeae6c06883bd7d5cd8202dec56aa279b7",
    ("sales", "kmedoids", "dtw", "true", "table1"): "7f43dbb1552f69c63fa04feec2f8ba709e4320e882ec696b54144aef85430cf8",
    ("sales", "kmedoids", "mpbd", "true", "table1"): "d11eca08ffd9568f69eae9f3a71177774ce2b581d64b33ee066cc9b0fd6a7c42",
    ("sales", "kmeans", "mpbd", "true", "table1"): "5caf839f231f240d5bb63f8239c69a37144e11f51f03dd217abae96ba1a06eee",
    ("sales", "kmeans_features", "mpbd", "true", "table1"): "07da1fe6f707702dc3cbcf5f9732d2eeddcb81364a02b9f8b0ba7caa6fd56bf2",
    ("price", "hierarchical", "euclidean", "false", "table1"): "bc2f5fff2d9b35ec31bb09be98f77ea31a29feee638ede8d5516b93c04271057",
    ("price", "hierarchical", "levenshtein", "false", "table1"): "3848170fd9ced9bf239a3b638050c3891d04cd7302b605bf49eb4e608141b7ff",
    ("price", "hierarchical", "dtw", "false", "table1"): "304684cf258b083e1bd6873aa82adb5fdc514ace9ab631e7299073583aabfea7",
    ("price", "hierarchical", "mpbd", "false", "table1"): "35c8c0369334c6a504ba21cb7b92f286a76b7d2c64a0cca5c4a947e3b1bd958b",
    ("price", "kmedoids", "euclidean", "false", "table1"): "017cce4f34e00b69e3817d1e667e242fa4dcba5a153ec23e3507c5469e9367d8",
    ("price", "kmedoids", "levenshtein", "false", "table1"): "a7e3670dcc2e1137830ed964dcdaa855fd4ea9a42cee684e95b3796184b6d818",
    ("price", "kmedoids", "dtw", "false", "table1"): "6a7974f95a69b90d4d636330aa46f53e7af749ea006cce4a9b9efcab571b5f6a",
    ("price", "kmedoids", "mpbd", "false", "table1"): "33a2d72bee54a0bdce7eed29585054a23139aae38e59206262b15ecbdcd749f4",
    ("price", "kmeans", "mpbd", "false", "table1"): "f6f937dffbfc668e11f4e70a211676dbc1a4fba51f278f806a54ea453a58acac",
    ("price", "kmeans_features", "mpbd", "false", "table1"): "8d228094a5603890064b89604659df0a71e9324e4700adc814c6f87bd83e33d0",
    ("sales", "hierarchical", "euclidean", "false", "table1"): "8d55f3cb43b5e46c5b2a90ad0bc5029705a4ea9e4e80c275b9fa21a098baac9d",
    ("sales", "hierarchical", "levenshtein", "false", "table1"): "0492fe3926491d35b9a0d60ec96d33a226628ba2343225efd67a48a997e2fe3f",
    ("sales", "hierarchical", "dtw", "false", "table1"): "ed4fb31c40a9713cae4005d8a656928aa59cc720385cf6729f836437f670ab1f",
    ("sales", "hierarchical", "mpbd", "false", "table1"): "9a3ea54738d681cb19ca2a2a7f5e8d841795adf8f876f1faea030c584ad414f6",
    ("sales", "kmedoids", "euclidean", "false", "table1"): "f85854af313a9d0dca4bd86b2e985bac736a3c86ee04a01cb929c412f1fcc7a1",
    ("sales", "kmedoids", "levenshtein", "false", "table1"): "7f7188350a4f0e37daf9ec67acce4ba99a161be5843aaa513b856dc4f0349642",
    ("sales", "kmedoids", "dtw", "false", "table1"): "cd1a569be357c04a9649b0011b7fec1d6a81f328af348f9ab05a545cbab3d4f1",
    ("sales", "kmedoids", "mpbd", "false", "table1"): "64667fa0de42f535a5fbe2587cd426bea813e761fa3e8e43b395b9d420c9baa2",
    ("sales", "kmeans", "mpbd", "false", "table1"): "055351bbf8fec2115c90a1b3b8021f04bc14d09de1589d232f5285b2c9a3f85a",
    ("sales", "kmeans_features", "mpbd", "false", "table1"): "c69b29f471d334271160431c469193deb7497245d42ffe8da36fe633bdec359d",
    ("price", "hierarchical", "mpbd", "true", "none"): "37fe5e308e14bd19c93d6dc015797f8f4f0b129ba107e0d8a442678c6b6f3dcd",
    ("price", "hierarchical", "mpbd", "false", "none"): "dc6d08b768c849728438967357163160057b3a71ebf7544040824db89342c7da",
    ("sales", "kmedoids", "euclidean", "true", "none"): "1d306e8f80e355946b547e38b445fa54e24c7f04fd62ec03ee17b66a0457da94",
    ("sales", "kmedoids", "euclidean", "false", "none"): "32610d089e84a93aed93cfc40f7fca7a16805b08773b48d5049fe419a9e61d69",
}


class TestPipeline:
    @pytest.mark.parametrize("options", [
        ["-O", "outlier_filter=true", "-O", "outlier_metric=mpbd"],
        ["-O", "outlier_filter=true", "-O", "outlier_metric=levenshtein",
         "-O", "algorithm=kmedoids"],
        ["-O", "mode=sales", "-O", "algorithm=kmeans_features"],
    ], ids=["mpbd_filter", "levenshtein_filter", "sales_features"])
    def test_pipeline_imports_no_masked_arrays(self, sample_dir, tmp_path, options):
        """numpy 2.4's np.unique, np.isin and np.percentile import numpy.ma, 11-14 ms a process.

        numpy 1 imports numpy.ma with numpy itself, so there the check passes as it stands.
        """
        name = "sales_long.csv" if "mode=sales" in options else "price_long.csv"
        code = ("import sys; from movclust import cli; before = 'numpy.ma' in sys.modules; "
                "assert cli.main(sys.argv[1:]) == 0; print(before, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", code, "pipeline", "--input",
                               str(sample_dir / name), "--out", str(tmp_path / "out"), "-O",
                               "k=3", *options], capture_output=True, text=True, env=env, check=True)
        before, after = done.stdout.split()
        assert after == before

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
    @pytest.mark.parametrize("mode, algorithm, metric, normalization", PIPELINE_GRID,
                             ids=["-".join(case[: 3 if case[3] == "table1" else 4])
                                  for case in PIPELINE_GRID])
    def test_pipeline_equals_stepwise_over_grid(self, sample_dir, tmp_path, mode, algorithm,
                                                metric, normalization, outlier_filter):
        options = ["--input", str(sample_dir / f"{mode}_long.csv")]
        for option in (f"mode={mode}", f"algorithm={algorithm}", f"metric={metric}",
                       f"outlier_filter={outlier_filter}", f"normalization={normalization}",
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
        assert tree_digest(pipeline_files) == GRID_DIGESTS[mode, algorithm, metric, outlier_filter,
                                                           normalization]

    def test_strict_escalates_a_degenerate_score_to_exit_3(self, tmp_path, capsys):
        # two exact twin pairs: k=2 puts each pair in one cluster, with zero scatter
        prices = {"A": [1, 2, 3, 2], "B": [1, 2, 3, 2], "C": [5, 4, 4, 6], "D": [5, 4, 4, 6]}
        src = tmp_path / "in.csv"
        src.write_text("series_id,date,value\n" + "".join(
            f"{sid},2021-01-0{day},{value}\n" for sid, values in prices.items()
            for day, value in enumerate(values, start=1)), encoding="utf-8")
        options = ["--input", str(src), "-O", "k=2", "-O", "outlier_filter=false"]
        assert run("pipeline", "--out", str(tmp_path / "plain"), *options) == 0
        report = json.loads((tmp_path / "plain" / "evaluate.json").read_text())
        assert "ch" in report["notes"]
        capsys.readouterr()
        strict = tmp_path / "strict"
        assert run("pipeline", "--out", str(strict), "--strict", *options) == 3
        assert capsys.readouterr().err == (
            "degenerate computation: ch: ch_index: zero within-cluster scatter\n")
        assert (strict / "assignment.csv").exists()
        assert not (strict / "evaluate.json").exists()

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
            SeriesCollection(["A"], [[0, 1, value, 0.2]])).values[0]
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

    def test_non_finite_distmat_stops_the_pipeline_where_cluster_would(self, price_cfg, tmp_path,
                                                                       capsys, monkeypatch):
        cfg, out = price_cfg
        normalize = distances.normalize_matrix

        def normalize_to_nan(*args, **kwargs):
            matrix = normalize(*args, **kwargs)
            matrix.entries[0, 1] = np.nan
            return matrix

        monkeypatch.setattr(distances, "normalize_matrix", normalize_to_nan)
        assert run("pipeline", "--config", str(cfg)) == 2
        pipeline_err = capsys.readouterr().err.replace(str(out), "<out>")
        assert "distmat.csv, line 2: non-finite cell nan in column" in pipeline_err
        stepwise = tmp_path / "stepwise"
        for command, code in (("preprocess", 0), ("distmat", 0), ("cluster", 2)):
            assert run(command, "--config", str(cfg), "--out", str(stepwise)) == code
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
        assert pipeline_err == (f"data error: {features} does not hold the series of "
                                f"metadata.csv: 1 lacking (first {ids[-1]!r}), 0 extra\n")
        assert not (out / "features.csv").exists()
        stepwise = tmp_path / "stepwise"
        for command, code in (("preprocess", 0), ("features", 2)):
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
    ("omega=0.3",): None,  # distmat.json records omega 2: exit 2, no sweep.csv written
}


def test_price_pipeline_and_sweep_golden_digests(tmp_path):
    price = Path(__file__).resolve().parents[1] / "sample_data" / "price_long.csv"
    out = tmp_path / "out"
    assert run("pipeline", "--input", str(price), "--out", str(out)) == 0
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in snapshot(out).items()}
    assert digests == PRICE_DIGESTS
    for options, digest in PRICE_SWEEP_DIGESTS.items():
        overrides = [arg for option in options for arg in ("-O", option)]
        if digest is None:
            (out / "sweep.csv").unlink()
            assert run("sweep", "--out", str(out), *overrides) == 2, options
            assert not (out / "sweep.csv").exists()
            continue
        assert run("sweep", "--out", str(out), *overrides) == 0
        assert hashlib.sha256(read(out / "sweep.csv")).hexdigest() == digest, options


#: sha256 of sweep.csv on the bundled sample_data/price_long.csv, keyed by
#: (pipeline options, further sweep options): the other linkages over the
#: default Ward run, and matrix_max distances of euclidean and of DTW over a
#: Levenshtein filter.
SWEEP_DIGESTS = {
    ((), ("linkage=single",)):
        "4362e311b689131e2def6b58a05ac2d4f1134a46a5cedfff9ea48ddb8eb6722e",
    ((), ("linkage=complete",)):
        "cd3ebf15651a84f630c3bb15ed5cbeada87f1258e9fac0e86074864d960212ad",
    ((), ("linkage=average",)):
        "1558277d9b002b70e21637193cd168f6b571fd59fd15b4e62dd4ca4aae022a85",
    (("metric=euclidean", "normalization=matrix_max"), ()):
        "905fa255f6bbf8d672683ae6c2ff8057c177008eba2a35803c7678d144da08ca",
    (("algorithm=kmedoids", "metric=dtw", "outlier_metric=levenshtein"), ()):
        "3f3b652bec735bc39370a25e87ec1905f21c13b4ed0e4f5c001567a7e47f55b4",
}


@pytest.mark.parametrize("pipeline, sweep", SWEEP_DIGESTS,
                         ids=lambda options: ",".join(options) or "default")
def test_price_sweep_golden_digests(tmp_path, pipeline, sweep):
    price = SAMPLE_DATA / "price_long.csv"
    out = tmp_path / "out"
    overrides = [arg for option in pipeline for arg in ("-O", option)]
    assert run("pipeline", "--input", str(price), "--out", str(out), *overrides) == 0
    assert run("sweep", "--out", str(out), *overrides,
               *[arg for option in sweep for arg in ("-O", option)]) == 0
    assert hashlib.sha256(read(out / "sweep.csv")).hexdigest() == SWEEP_DIGESTS[pipeline, sweep]


@pytest.mark.parametrize("name", ["price_long.csv", "sales_long.csv"])
def test_bundled_samples_are_what_the_generator_writes(sample_dir, name):
    """The golden digests read sample_data/, the grid reads the regenerated copies."""
    assert read(SAMPLE_DATA / name) == read(sample_dir / name)


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

    def test_metadata_byte_that_is_not_utf8_exits_2(self, clustered, capsys):
        cfg, out = clustered
        path = out / "metadata.csv"
        data = bytearray(path.read_bytes())
        data[10] = 0xA3
        path.write_bytes(bytes(data))
        before = snapshot(out)
        assert run("evaluate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}, byte 10: not UTF-8 (invalid start byte)\n")
        assert snapshot(out) == before

    def test_input_byte_that_is_not_utf8_exits_2(self, price_cfg, sample_dir, tmp_path, capsys):
        cfg, out = price_cfg
        path = tmp_path / "price_long.csv"
        data = bytearray((sample_dir / "price_long.csv").read_bytes())
        data[200] = 0xA3
        path.write_bytes(bytes(data))
        assert run("preprocess", "--config", str(cfg), "--input", str(path)) == 2
        assert capsys.readouterr().err == (
            f"data error: {path}, byte 200: not UTF-8 (invalid start byte)\n")
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("sidecar, command, key", [
        ("distmat.json", "cluster", "metric"),
        ("assignment.json", "evaluate", "algorithm"),
    ])
    def test_sidecar_without_key_exits_2(self, clustered, sidecar, command, key, capsys):
        cfg, out = clustered
        (out / sidecar).write_text("{}\n", encoding="utf-8")
        assert run(command, "--config", str(cfg)) == 2
        assert f"data error: {out / sidecar}: missing key {key!r}" in capsys.readouterr().err

    def test_swapped_distmat_row_ids_exit_2(self, clustered, capsys):
        cfg, out = clustered
        path = out / "distmat.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        first, second = (line.split(",", 1) for line in lines[2:4])
        lines[2], lines[3] = ",".join([second[0], first[1]]), ",".join([first[0], second[1]])
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("cluster", "--config", str(cfg)) == 2
        assert (f"data error: {path}, line 3: row id {second[0]!r} is not the header's "
                f"{first[0]!r}") in capsys.readouterr().err

    def test_distmat_without_its_last_row_exits_2(self, clustered, capsys):
        cfg, out = clustered
        path = out / "distmat.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert run("sweep", "--config", str(cfg)) == 2
        n = len(lines) - 1
        assert (f"data error: {path}: {n - 1} rows for the header's {n} ids"
                in capsys.readouterr().err)

    def test_header_only_assignment_exits_2(self, clustered, capsys):
        cfg, out = clustered
        ids = ids_of(out / "metadata.csv")
        (out / "assignment.csv").write_text("series_id,cluster\n", encoding="utf-8")
        assert run("evaluate", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"data error: {out / 'assignment.csv'} does not hold the series of metadata.csv: "
            f"{len(ids)} lacking (first {ids[0]!r}), 0 extra (run `cluster` first)\n")

    @pytest.mark.parametrize("name, command", [
        ("assignment.csv", ["evaluate"]),
        ("assignment.csv", ["profile"]),
        ("metadata.csv", ["profile"]),
        ("distmat.csv", ["cluster"]),
        ("distmat.csv", ["cluster", "-O", "algorithm=kmedoids"]),
        ("scaled.csv", ["cluster", "-O", "algorithm=kmeans"]),
    ], ids=["assignment-evaluate", "assignment-profile", "metadata", "distmat-hierarchical",
            "distmat-kmedoids", "scaled"])
    def test_repeated_id_exits_2(self, clustered, name, command, capsys):
        """A second row for the first id: appended, or in distmat.csv the last row and column."""
        cfg, out = clustered
        path = out / name
        lines = path.read_text(encoding="utf-8").splitlines()
        first = lines[1].split(",")[0]
        if name == "distmat.csv":
            lineno = len(lines)
            self.edit_cells(path, 1, lambda cells: [*cells[:-1], first])
            self.edit_cells(path, lineno, lambda cells: [first, *cells[1:]])
        else:
            lineno = len(lines) + 1
            path.write_text("\n".join([*lines, f"{first},{lines[-1].split(',', 1)[1]}"]) + "\n",
                            encoding="utf-8")
        before = snapshot(out)
        assert run(*command, "--config", str(cfg)) == 2
        column = "id" if name == "distmat.csv" else "series_id"
        assert capsys.readouterr().err == (
            f"data error: {path}, line {lineno}: duplicate {column} {first!r}\n")
        assert snapshot(out) == before

    def test_metadata_without_a_series_exits_2(self, clustered, capsys):
        cfg, out = clustered
        lines = (out / "metadata.csv").read_text(encoding="utf-8").splitlines()
        missing = lines[3].split(",")[0]
        (out / "metadata.csv").write_text("\n".join(lines[:3] + lines[4:]) + "\n",
                                          encoding="utf-8")
        assert run("profile", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"data error: {out / 'original.csv'} does not hold the series of metadata.csv: "
            f"0 lacking, 1 extra (first {missing!r}) (run `preprocess` first)\n")
        assert not (out / "profile.csv").exists()

    @pytest.mark.parametrize("command", ["cluster", "sweep"])
    @pytest.mark.parametrize("distmat, options, message", [
        ([], ["metric=euclidean"], "metric='mpbd' but the config has metric='euclidean'"),
        ([], ["normalization=table1"],
         "normalization='matrix_max' but the config has normalization='table1'"),
        ([], ["omega=0.3"], "omega=2.0 but the config has omega=0.3"),
        (["metric=dtw", "dtw_window=3"], ["metric=dtw"],
         "dtw_window=3 but the config has dtw_window=None"),
        (["metric=dtw"], ["metric=dtw", "dtw_window=0"],
         "dtw_window=None but the config has dtw_window=0"),
    ], ids=["metric", "normalization", "omega", "window", "no-window"])
    def test_distmat_the_config_does_not_describe_exits_2(self, clustered, command, distmat,
                                                          options, message, capsys):
        cfg, out = clustered
        assert run("distmat", "--config", str(cfg),
                   *[item for option in distmat for item in ("-O", option)]) == 0
        before = snapshot(out)
        argv = [item for option in options for item in ("-O", option)]
        assert run(command, "--config", str(cfg), *argv) == 2
        assert capsys.readouterr().err == (
            f"data error: distmat.json has {message} (run `distmat` first)\n")
        assert snapshot(out) == before

    @pytest.mark.parametrize("params", ["[]", "null", "2"])
    def test_distmat_params_not_an_object_exits_2(self, clustered, params, capsys):
        cfg, out = clustered
        (out / "distmat.json").write_text(f'{{"metric": "mpbd", "normalization": '
                                          f'"matrix_max", "params": {params}}}\n')
        assert run("cluster", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == (
            f"data error: {out / 'distmat.csv'}: sidecar params {json.loads(params)!r} "
            "is not a JSON object\n")

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


#: Each artifact that a stage reads, but metadata.csv -> the commands (with
#: options) that read it, under the default config.
SWEEP_FEATURES = ["sweep", "-O", "algorithm=kmeans_features"]
READERS = {
    "original.csv": [["profile"]],
    "scaled.csv": [["distmat", "-O", "metric=euclidean"], ["features"],
                   ["cluster", "-O", "algorithm=kmeans"], ["sweep"], SWEEP_FEATURES,
                   ["evaluate"]],
    "symbolic.csv": [["distmat"], ["sweep"], SWEEP_FEATURES, ["evaluate"]],
    "distmat.csv": [["cluster"], ["cluster", "-O", "algorithm=kmedoids"], ["sweep"]],
    "features.csv": [["cluster", "-O", "algorithm=kmeans_features"], SWEEP_FEATURES],
    "assignment.csv": [["evaluate"], ["profile"]],
}

READS = [(name, argv) for name, commands in READERS.items() for argv in commands]


def rewrite(path, change):
    """Give the table at ``path`` one series less (``lacking``) or more (``extra``).

    ``lacking`` drops the first series' row; ``extra`` appends a copy of the
    last row as series 'EXTRA'.  In distmat.csv the series' column goes or
    comes with its row.
    """
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    square = path.name == "distmat.csv"
    if change == "lacking":
        rows = [[cell for j, cell in enumerate(row) if not (square and j == 1)]
                for i, row in enumerate(rows) if i != 1]
    else:
        if square:
            rows = [row + [row[-1]] for row in rows]
            rows[0][-1] = "EXTRA"
        rows.append(["EXTRA", *rows[-1][1:]])
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8")


class TestSeriesRule:
    """Every artifact a stage reads, but metadata.csv, lists the series of metadata.csv."""

    @pytest.fixture(scope="class")
    def consistent(self, sample_dir, tmp_path_factory):
        out = tmp_path_factory.mktemp("consistent")
        for command in ("preprocess", "distmat", "features", "cluster"):
            assert run(command, "--input", str(sample_dir / "price_long.csv"),
                       "--out", str(out)) == 0
        return out

    def test_readers_name_every_command_that_reads_an_artifact(self, consistent, tmp_path,
                                                               monkeypatch):
        assert set(READERS) == set(cli.ARTIFACTS) - {"metadata.csv"}
        read = cli.Run.read
        for argv in {tuple(argv) for _, argv in READS}:
            out = shutil.copytree(consistent, tmp_path / "-".join(argv))
            names = []
            monkeypatch.setattr(cli.Run, "read",
                                lambda run, name: names.append(name) or read(run, name))
            assert run(*argv, "--out", str(out)) == 0
            monkeypatch.undo()
            assert set(names) - {"metadata.csv"} == {name for name, readers in READS
                                                     if list(argv) == readers}, argv

    @pytest.mark.parametrize("change", ["lacking", "extra"])
    @pytest.mark.parametrize("name, argv", READS,
                             ids=[":".join([name, argv[0], *argv[2::2]]) for name, argv in READS])
    def test_artifact_without_the_runs_series_exits_2(self, consistent, tmp_path, name, argv,
                                                      change, capsys):
        out = shutil.copytree(consistent, tmp_path / "out")
        series = ids_of(out / "metadata.csv")
        rewrite(out / name, change)
        before = snapshot(out)
        assert run(*argv, "--out", str(out)) == 2
        detail = (f"1 lacking (first {series[0]!r}), 0 extra" if change == "lacking"
                  else "0 lacking, 1 extra (first 'EXTRA')")
        assert capsys.readouterr().err == (
            f"data error: {out / name} does not hold the series of metadata.csv: {detail} "
            f"(run `{cli.ARTIFACTS[name][0]}` first)\n")
        assert snapshot(out) == before

    def test_series_in_another_order_exits_2(self, consistent, tmp_path, capsys):
        out = shutil.copytree(consistent, tmp_path / "out")
        first, second = ids_of(out / "metadata.csv")[:2]
        lines = (out / "symbolic.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1:3] = lines[2:0:-1]
        (out / "symbolic.csv").write_text("".join(lines), encoding="utf-8")
        assert run("distmat", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"data error: {out / 'symbolic.csv'} does not hold the series of metadata.csv: "
            f"0 lacking, 0 extra, but series 1 is {second!r} where metadata.csv has "
            f"{first!r} (run `preprocess` first)\n")

    def test_assignment_in_any_order_is_read(self, consistent, tmp_path):
        out = shutil.copytree(consistent, tmp_path / "out")
        assert run("evaluate", "--out", str(out)) == 0
        report = read(out / "evaluate.json")
        lines = (out / "assignment.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        (out / "assignment.csv").write_text("".join(lines[:1] + lines[:0:-1]), encoding="utf-8")
        assert run("evaluate", "--out", str(out)) == 0
        assert read(out / "evaluate.json") == report

    @pytest.mark.parametrize("first, second, producer, algorithm", [
        ("50", "95", "distmat", "hierarchical"),
        ("50", "95", "features", "kmeans_features"),
        ("95", "50", "distmat", "hierarchical"),
    ], ids=["distmat-of-fewer-series", "features-of-fewer-series", "distmat-of-more-series"])
    def test_artifact_of_an_earlier_preprocess_stops_sweep_and_cluster(
            self, sample_dir, tmp_path, first, second, producer, algorithm, capsys):
        """preprocess, then distmat or features, then preprocess with another percentile.

        The second preprocess keeps other series, so the distmat.csv or
        features.csv of the first lacks some of them or holds extra ones.
        """
        out = tmp_path / "out"
        base = ["--input", str(sample_dir / "price_long.csv"), "--out", str(out),
                "-O", f"algorithm={algorithm}"]
        for argv in (["preprocess", "-O", f"outlier_percentile={first}"], [producer],
                     ["preprocess", "-O", f"outlier_percentile={second}"]):
            assert run(*argv, *base) == 0
        capsys.readouterr()
        series, held = ids_of(out / "metadata.csv"), ids_of(out / cli.CLUSTERS[algorithm])
        lacking = [sid for sid in series if sid not in held]
        extra = [sid for sid in held if sid not in series]
        assert bool(lacking) != bool(extra)
        detail = (f"{len(lacking)} lacking (first {lacking[0]!r}), 0 extra" if lacking
                  else f"0 lacking, {len(extra)} extra (first {extra[0]!r})")
        before = snapshot(out)
        for command in ("sweep", "cluster"):
            assert run(command, *base) == 2
            assert capsys.readouterr().err == (
                f"data error: {out / cli.CLUSTERS[algorithm]} does not hold the series of "
                f"metadata.csv: {detail} (run `{producer}` first)\n")
            assert snapshot(out) == before


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


# ---------------------------------------------------------------------------
# one owner per rule, and the documented outputs


def qualname(scope):
    """``__qualname__`` of the innermost of ``scope``, a list of nested def and class nodes."""
    names = []
    for node in scope[:-1]:
        names += [node.name, "<locals>"] if isinstance(node, ast.FunctionDef) else [node.name]
    return ".".join(names + [scope[-1].name]) if scope else "<module>"


def config_error_raisers(tree):
    """The ``qualname`` of the scope around each ``raise ConfigError`` in ``tree``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "ConfigError":
                    found.append(qualname(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_config_parsers_raise_config_error():
    """A config rule has one owner: the parsers of the config raise every ConfigError.

    The one other raise is cmd_preprocess's ``input`` rule, which only that
    command needs.
    """
    raisers = config_error_raisers(ast.parse(Path(cli.__file__).read_text(encoding="utf-8")))
    parsers = {parse.__qualname__ for parse, _ in cli.CONFIG_SPEC.values()}
    parsers |= {fn.__qualname__ for fn in (cli.parse_config_file, cli.build_config,
                                           cli._Parser.error, cli.run)}
    assert "build_config" in raisers and "_Parser.error" in raisers
    assert [scope for scope in raisers if scope not in parsers] == ["cmd_preprocess"]


def test_readme_lists_every_output(tmp_path):
    """README's outputs paragraph names exactly the files that the commands write."""
    readme = (SAMPLE_DATA.parent / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Outputs land in", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"`(\w+\.(?:csv|json))`", paragraph))
    price = ["--input", str(SAMPLE_DATA / "price_long.csv")]
    for name, commands in (("ward", [["pipeline"], ["sweep"]]),
                           ("features", [["pipeline", "-O", "algorithm=kmeans_features"]])):
        for command in commands:
            assert run(*command, *price, "--out", str(tmp_path / name)) == 0
    written = {path.name for path in tmp_path.glob("*/*")}
    assert documented == written
