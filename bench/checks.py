"""Output checks and the artifact digest for one pass of a workload.

The checks parse the CLI's artifacts with the standard library only, so
they do not share code with the program they check.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

#: evaluate.json value -> the ``notes`` key that explains a null value.
EVALUATE_NOTES = {"ch_standard": "ch", "ch_paper": "ch_paper", "db": "db", "mpbi": None}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_assignment(out_dir, k):
    """assignment.csv covers exactly the ids of scaled.csv, with labels 1..k."""
    kept = [row[0] for row in _read_csv(os.path.join(out_dir, "scaled.csv"))[1:]]
    rows = _read_csv(os.path.join(out_dir, "assignment.csv"))[1:]
    problems = []
    if sorted(row[0] for row in rows) != sorted(kept):
        problems.append("assignment.csv ids differ from scaled.csv ids")
    labels = {int(row[1]) for row in rows}
    if labels != set(range(1, k + 1)):
        problems.append(f"assignment.csv labels {sorted(labels)} are not 1..{k}")
    return problems


def check_distmat(out_dir):
    """distmat.csv is square, symmetric, has a zero diagonal and the kept ids."""
    rows = _read_csv(os.path.join(out_dir, "distmat.csv"))
    ids = rows[0][1:]
    kept = [row[0] for row in _read_csv(os.path.join(out_dir, "scaled.csv"))[1:]]
    if [row[0] for row in rows[1:]] != ids or ids != kept:
        return ["distmat.csv ids differ from its header or from scaled.csv"]
    values = [[float(v) for v in row[1:]] for row in rows[1:]]
    n = len(ids)
    if any(len(row) != n for row in values):
        return ["distmat.csv is not square"]
    problems = []
    if any(values[i][i] != 0.0 for i in range(n)):
        problems.append("distmat.csv diagonal is not zero")
    if any(values[i][j] != values[j][i] for i in range(n) for j in range(i)):
        problems.append("distmat.csv is not symmetric")
    return problems


def check_evaluate(out_dir):
    """Each evaluate.json index is finite, or null with a reason in notes."""
    with open(os.path.join(out_dir, "evaluate.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    notes = report.get("notes") or {}
    problems = []
    for key, note in EVALUATE_NOTES.items():
        value = report.get(key)
        if value is None:
            if note is None or note not in notes:
                problems.append(f"evaluate.json {key} is null without a note")
        elif not math.isfinite(value):
            problems.append(f"evaluate.json {key} is not finite: {value}")
    return problems


def check_sweep(out_dir, k_min, k_max):
    """sweep.csv has exactly one row per k in k_min..k_max."""
    ks = [int(row[0]) for row in _read_csv(os.path.join(out_dir, "sweep.csv"))[1:]]
    if ks != list(range(k_min, k_max + 1)):
        return [f"sweep.csv k column {ks} is not {k_min}..{k_max}"]
    return []


def guarded(check, *args):
    """Run one check; a missing or unparseable artifact is a failed check."""
    try:
        return check(*args)
    except (OSError, ValueError, IndexError, KeyError, TypeError) as exc:
        return [f"{check.__name__}: {type(exc).__name__}: {exc}"]


def digest(out_dir):
    """sha256 over every artifact's name and bytes, in name order."""
    h = hashlib.sha256()
    for name in _artifacts(out_dir):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in _artifacts(out_dir))


def _artifacts(out_dir):
    """Names of the files in out_dir, sorted; none when it was never made."""
    if not os.path.isdir(out_dir):
        return []
    return sorted(n for n in os.listdir(out_dir) if os.path.isfile(os.path.join(out_dir, n)))
