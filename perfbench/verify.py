"""Output checks, run after each invocation and outside its timing.

At the default seed every table must match the sha256 captured from the
commit that defined the benchmark (``reference.json``): a speed-up counts
only if the bytes stay the same.  At every seed the seed-independent
invariants are checked: files present, row counts, normalisation and
finiteness.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
HEADER_LINES = 3  # "# lattice-epr <version>", "# scenario sha256: ...", column names


def load_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def scan(path):
    """(newline count, byte size, sha256) of a file, read once in chunks."""
    digest = hashlib.sha256()
    lines = size = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return lines, size, digest.hexdigest()


def _data_rows(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return [line.split(",") for line in lines[HEADER_LINES:]]


def check_outputs(out_dir, expected, scenario_sha, reference=None):
    """Return (problems, stats); stats maps file name -> (rows, bytes, sha256).

    ``expected`` maps each table name to its data-row count.  With
    ``reference`` (a name -> sha256 map) the bytes must match as well.
    """
    problems = []
    stats = {}
    for name, rows in sorted(expected.items()):
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"{name}: missing")
            continue
        lines, size, sha = scan(path)
        stats[name] = (lines - HEADER_LINES, size, sha)
        if lines - HEADER_LINES != rows:
            problems.append(f"{name}: {lines - HEADER_LINES} rows, expected {rows}")
        with open(path, encoding="utf-8") as fh:
            head = [fh.readline() for _ in range(2)]
        if head[1].strip() != f"# scenario sha256: {scenario_sha}":
            problems.append(f"{name}: header does not record the scenario hash")
        if reference is not None and reference.get(name) != sha:
            problems.append(f"{name}: sha256 {sha} differs from the reference")
    if "sum_momentum.csv" in stats:
        total = sum(float(r[1]) for r in _data_rows(os.path.join(out_dir, "sum_momentum.csv")))
        if abs(total - 1.0) > 1e-9:
            problems.append(f"sum_momentum.csv: probabilities sum to {total!r}")
    if "sweep.csv" in stats:
        for i, row in enumerate(_data_rows(os.path.join(out_dir, "sweep.csv"))):
            try:
                finite = all(math.isfinite(float(v)) for v in row)
            except ValueError:
                finite = False
            if not finite:
                problems.append(f"sweep.csv: row {i} has a non-finite value")
                break
    return problems, stats
