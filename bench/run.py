"""movclust benchmark: run the CLI pipeline on seeded inputs and report metrics.

Usage, from the repository root::

    python3 bench/run.py --workload price_ward_sweep --seed 1 --seconds 40 --trace 0

Every CLI command runs in a fresh ``python -m movclust.cli`` process with
``PYTHONPATH=src`` and ``--threads 2``, one after the other: a closed loop
with one client, this process.  A *pass* is one workload's whole command
sequence on its generated input.  Passes repeat until the next one would
overrun ``--seconds``; at least one always runs.  The input CSV is written
before timing starts.

``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json as medians
over the passes.  ``--trace 1`` alternates untraced passes with passes run
under ``bench/tracer.py`` and reports the ``per_layer`` metrics of the traced
pass with the median wall time.  Every pass's artifacts are checked and
hashed; the hash of a (workload, seed) is kept in ``.bench_work/`` and later
runs must reproduce it.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See bench/WORKLOADS.md for why
each workload exists.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
THREADS = 2
#: Fresh-interpreter imports timed for setup_s before every pass and after
#: the last.  Their time drifts with the load on the machine over seconds, so
#: they are spread over the run rather than done in one burst.
SETUP_LAUNCHES = 3
#: Every run ends well inside the 180 s a run may take.
RUN_LIMIT_S = 170.0
END_TO_END = ("wall_s", "series_per_s", "peak_rss_mb", "setup_s", "passed_ratio")


@dataclass(frozen=True)
class Workload:
    """One input shape plus the CLI command sequence run on it."""

    name: str
    mode: str  # price | sales, selects the sample generator and the CLI mode
    sizes: dict  # keyword arguments of the sample generator
    options: tuple  # -O KEY=VALUE overrides shared by every command
    k: int
    sweep: tuple | None = None  # (k_min, k_max): run `sweep` after `pipeline`
    distmat: bool = True  # whether `pipeline` writes distmat.csv

    def commands(self, input_path, out_dir):
        base = ["--input", str(input_path), "--out", str(out_dir),
                "--threads", str(THREADS), "--seed", "0",
                "-O", f"mode={self.mode}", "-O", f"k={self.k}"]
        for option in self.options:
            base += ["-O", option]
        commands = [["pipeline", *base]]
        if self.sweep:
            k_min, k_max = self.sweep
            commands.append(["sweep", *base, "-O", f"k_min={k_min}", "-O", f"k_max={k_max}"])
        return commands

    def check(self, command, out_dir):
        """Problems found in the artifacts that `command` is responsible for."""
        if command == "sweep":
            return checks.guarded(checks.check_sweep, out_dir, *self.sweep)
        problems = checks.guarded(checks.check_assignment, out_dir, self.k)
        problems += checks.guarded(checks.check_evaluate, out_dir)
        if self.distmat:
            problems += checks.guarded(checks.check_distmat, out_dir)
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "price_ward_sweep", "price", {"n_series": 300, "n_days": 365},
            ("metric=mpbd", "outlier_filter=true", "outlier_metric=mpbd",
             "outlier_percentile=95", "algorithm=hierarchical", "linkage=ward"),
            k=15, sweep=(2, 20),
        ),
        Workload(
            "dp_dtw_lev", "price", {"n_series": 40, "n_days": 120},
            ("metric=dtw", "dtw_window=", "outlier_filter=true",
             "outlier_metric=levenshtein", "outlier_percentile=95", "algorithm=kmedoids"),
            k=6,
        ),
        Workload(
            "sales_features", "sales", {"n_items": 250, "n_stores": 4, "n_days": 365},
            ("outlier_filter=false", "algorithm=kmeans_features"),
            k=15, distmat=False,
        ),
    )
}


@dataclass
class Invocation:
    command: str
    start: float
    end: float
    returncode: int
    maxrss_kb: int
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return self.returncode == 0 and not self.problems


@dataclass
class Pass:
    traced: bool
    invocations: list
    digest: str
    artifact_bytes: int
    spans: list  # one span list per CLI process; empty when untraced

    @property
    def wall_s(self):
        return self.invocations[-1].end - self.invocations[0].start

    @property
    def peak_rss_kb(self):
        return max(inv.maxrss_kb for inv in self.invocations)


def spawn(argv, log_path, env, deadline):
    """Run argv to completion; return (start, end, returncode, max RSS in KiB).

    The child is killed if it is still running at ``deadline``.
    """
    start = time.monotonic()
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                env={**env, "BENCH_SPAWN_T": repr(start)})
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss


def child_env(run_id=""):
    return {**os.environ, "PYTHONPATH": str(SRC), "BENCH_RUN_ID": run_id}


def make_input(workload, seed, path):
    """Write the workload's seeded long CSV; return its shape."""
    from movclust import sample

    if workload.mode == "price":
        rows = sample.make_price_rows(seed=seed, **workload.sizes)
    else:
        rows = sample.make_sales_rows(seed=seed, **workload.sizes)
    sample.write_long_csv(rows, path)
    return {
        "rows": len(rows),
        "series": len({(r[0], r[4]) for r in rows}),
        "days": len({r[1] for r in rows}),
        "stores": len({r[4] for r in rows if r[4]}),
    }


def time_imports(work, deadline, launches):
    """Wall times of fresh-interpreter ``import movclust.cli`` launches."""
    argv = [sys.executable, "-c", "import movclust.cli"]
    times = []
    for _ in range(launches):
        start, end, returncode, _ = spawn(argv, work / "setup.log", child_env(), deadline)
        if returncode != 0:
            raise RuntimeError(f"`import movclust.cli` exited {returncode}; see {work / 'setup.log'}")
        times.append(end - start)
    return times


def run_pass(workload, input_path, work, run_id, traced, deadline):
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    env = child_env(run_id)
    invocations, span_paths = [], []
    for i, args in enumerate(workload.commands(input_path, out_dir)):
        if traced:
            span_paths.append(work / f"spans-{run_id}-{i}.json")
            argv = [sys.executable, str(TRACER), str(span_paths[-1]), *args]
        else:
            argv = [sys.executable, "-m", "movclust.cli", *args]
        log = work / f"{run_id}-{i}.log"
        invocations.append(Invocation(args[0], *spawn(argv, log, env, deadline)))
        if invocations[-1].returncode != 0:
            sys.stderr.write(f"{args[0]} exited {invocations[-1].returncode}:\n"
                             + log.read_text(errors="replace")[-2000:])
    for inv in invocations:
        inv.problems = workload.check(inv.command, out_dir)
    spans = []
    for path in span_paths:
        if path.exists():  # a child that died before writing its spans has none
            spans.append(json.loads(path.read_text(encoding="utf-8")))
    return Pass(traced, invocations, checks.digest(out_dir), checks.artifact_bytes(out_dir), spans)


def measure(workload, seed, seconds, trace, work, deadline):
    """Run passes for about ``seconds``: untraced only, or untraced and traced in turn.

    Returns the input's shape, the passes and, untraced, the import times.
    """
    input_path = work / "input.csv"
    shape = make_input(workload, seed, input_path)
    print(f"{workload.name} seed={seed}: input " + " ".join(f"{k}={v}" for k, v in shape.items()))
    passes, import_times = [], []
    if not trace:
        time_imports(work, deadline, 1)  # fills caches; not timed
    start = time.monotonic()
    for index, traced in enumerate(itertools.cycle((False, True) if trace else (False,))):
        if not trace:
            import_times += time_imports(work, deadline, SETUP_LAUNCHES)
        p = run_pass(workload, input_path, work, f"{workload.name}-{seed}-{index}", traced, deadline)
        passes.append(p)
        print(f"pass {index} {'traced' if traced else 'untraced'}: wall {p.wall_s:.4f} s, "
              f"peak rss {p.peak_rss_kb / 1024:.1f} MB, sha256 {p.digest}")
        for inv in p.invocations:
            for problem in inv.problems:
                print(f"  check failed after {inv.command}: {problem}")
        now = time.monotonic()
        if trace and len(passes) < 2:
            continue
        if now - start + p.wall_s > seconds or now + p.wall_s > deadline:
            break
    if not trace:
        import_times += time_imports(work, deadline, SETUP_LAUNCHES)
    return shape, passes, import_times


def apply_digest(workload, seed, passes, work_root):
    """Fail every invocation of a pass whose artifacts differ from the first run's."""
    store = work_root / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload.name}:{seed}"
    if key not in known:
        known[key] = passes[0].digest
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, store)
    print(f"artifact sha256 {workload.name} seed={seed}: {known[key]}")
    for p in passes:
        if p.digest != known[key]:
            print(f"  artifact sha256 {p.digest} differs from the first run's {known[key]}")
            for inv in p.invocations:
                inv.problems.append("artifact digest differs from the first run's")


def report(shape, passes, import_times, trace, units):
    """The result object: end-to-end metrics, or per-layer metrics when traced."""
    invocations = [inv for p in passes for inv in p.invocations]
    attempted = len(invocations)
    failed = sum(not inv.ok for inv in invocations)
    untraced = [p for p in passes if not p.traced]
    wall_s = statistics.median(p.wall_s for p in untraced)
    if trace:
        traced = sorted((p for p in passes if p.traced), key=lambda p: p.wall_s)
        median_pass = traced[(len(traced) - 1) // 2]
        values = layers.layer_metrics(median_pass.spans, median_pass.wall_s, wall_s,
                                      median_pass.artifact_bytes)
    else:
        values = {
            "wall_s": wall_s,
            "series_per_s": shape["series"] / wall_s,
            "peak_rss_mb": statistics.median(p.peak_rss_kb for p in untraced) / 1024,
            "setup_s": statistics.median(import_times),
            "passed_ratio": (attempted - failed) / attempted,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(units)},
    }


def declared_units(trace):
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    computed = set(layers.METRIC_NAMES if trace else END_TO_END)
    if set(units) != computed:
        raise RuntimeError(
            f"BENCHMARK.json and the benchmark disagree on metric names: {sorted(set(units) ^ computed)}"
        )
    return units


def run(workload, seed, seconds, trace, work_root):
    """Measure one workload and return the result object that main prints."""
    deadline = time.monotonic() + RUN_LIMIT_S
    units = declared_units(trace)
    work = work_root / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        shape, passes, import_times = measure(workload, seed, seconds, trace, work, deadline)
        apply_digest(workload, seed, passes, work_root)
        return report(shape, passes, import_times, trace, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "movclust" / "cli.py").is_file():
        print(f"error: {SRC / 'movclust'} not found; run from a movclust checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                 ROOT / ".bench_work")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
