"""The functions that bench/tracer.py wraps still exist and take their counted arguments.

The tracer looks each ``module.function`` of its ``SPANS`` up by name and
reads some counts from call arguments by position.  A renamed function or a
moved argument would break only traced bench runs, so it is checked here.
This test only reads ``bench/tracer.py``.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.SPANS


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
