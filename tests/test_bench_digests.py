"""The bench workloads' artifacts at input seed 1 stay the same, byte for byte.

Each workload of ``bench/run.py`` writes its seeded input with
``make_input``, runs its CLI commands, here through ``cli.main`` in this
process, and digests its output directory with ``checks.digest``.  A change
to any artifact byte of the benchmarked paths shows here, before a bench
run.  ``bench/`` is only read: its modules are loaded from their files, and
dropped from ``sys.modules`` again afterwards.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from movclust import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"

#: ``checks.digest`` of each workload's output directory at input seed 1.
BENCH_DIGESTS = {
    "price_ward_sweep": "8a3dd72615cef282953fc833d1605ee7f6057013b09e9efbb6b92dc9d5348d4f",
    "dp_dtw_lev": "4dbcaa25628afad539376b51a5fcc088436502e6bf3221c1fdabe099dc7c04bf",
    "sales_features": "870fdd3e99432e0c6de9506df762927044a16266b6946cac90829f54e889a242",
}


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` as a module, with ``bench/`` on the path for its own imports."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(BENCH))
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        # registered before it runs: its dataclasses look their module up while being built
        patch.setitem(sys.modules, "bench_run", module)
        spec.loader.exec_module(module)
        yield module
    for name in ("checks", "layers", "tracer"):
        sys.modules.pop(name, None)


def test_every_workload_has_a_digest(bench_run):
    assert set(bench_run.WORKLOADS) == set(BENCH_DIGESTS)


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_workload_artifacts_match_their_digest(bench_run, tmp_path, name):
    workload = bench_run.WORKLOADS[name]
    input_path, out = tmp_path / "input.csv", tmp_path / "out"
    bench_run.make_input(workload, 1, input_path)
    for argv in workload.commands(input_path, out):
        assert cli.main(argv) == 0, argv
    assert bench_run.checks.digest(out) == BENCH_DIGESTS[name]
