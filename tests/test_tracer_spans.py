"""The functions that bench/tracer.py wraps still exist, take their counted arguments
and are called through the tracer's wrappers.

The tracer looks each ``module.function`` of its ``SPANS`` up by name and
reads some counts from call arguments by position.  A renamed function, a
moved argument or a stage called around its wrapper would break only traced
bench runs, so it is checked here.  These tests only load ``bench/tracer.py``;
every wrapper they install is removed again after each test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _spans():
    return _tracer().SPANS


@pytest.mark.parametrize("qualified", sorted(_spans()))
def test_span_resolves(qualified):
    module_name, func_name = qualified.split(".")
    module = importlib.import_module(f"movclust.{module_name}")
    assert callable(getattr(module, func_name, None)), qualified


#: Arguments the tracer's count functions read, by (position, name).
COUNTED_ARGUMENTS = {
    "core_data.drop_sparse": (0, "collection"),
    "core_data.filter_outliers": (0, "collection"),
    "evaluation.mpbi": (2, "assignment"),
}


@pytest.mark.parametrize("qualified", sorted(COUNTED_ARGUMENTS))
def test_counted_argument_position(qualified):
    module_name, func_name = qualified.split(".")
    function = getattr(importlib.import_module(f"movclust.{module_name}"), func_name)
    position, name = COUNTED_ARGUMENTS[qualified]
    assert list(inspect.signature(function).parameters)[position] == name
    assert qualified in _spans()


@pytest.mark.parametrize("algorithm, stage", [
    ("hierarchical", "cli.cmd_distmat"),
    ("kmeans_features", "cli.cmd_features"),
    ("kmeans", None),
])
def test_pipeline_calls_its_stages_through_the_tracer_wrappers(sample_dir, tmp_path, monkeypatch,
                                                               algorithm, stage):
    tracer = _tracer()
    cli = importlib.import_module("movclust.cli")
    for qualified in tracer.SPANS:  # let monkeypatch restore what install replaces
        module_name, func_name = qualified.split(".")
        module = importlib.import_module(f"movclust.{module_name}")
        monkeypatch.setattr(module, func_name, getattr(module, func_name))
    monkeypatch.setattr(cli, "COMMANDS", dict(cli.COMMANDS))
    recorder = tracer.Recorder("test")
    assert tracer.install(recorder) is cli
    assert cli.main(["pipeline", "--input", str(sample_dir / "price_long.csv"),
                     "--out", str(tmp_path / "out"), "-O", f"algorithm={algorithm}",
                     "-O", "k=3"]) == 0
    spans = recorder.spans
    edges = {(s["name"], spans[s["parent"]]["name"] if s["parent"] is not None else None)
             for s in spans}
    stages = {name for name, parent in edges if parent == "cli.cmd_pipeline"}
    assert stages == {"cli.cmd_preprocess", "cli.cmd_cluster", "cli.cmd_evaluate",
                      "cli.cmd_profile"} | ({stage} if stage else set())
    if stage == "cli.cmd_distmat":
        assert ("distances.distance_matrix", "cli.cmd_distmat") in edges
