"""Traced pass: spans around every public function of the package's layers.

Run as a child process of run.py:

    python3 perfbench/tracing.py --record FILE [--trace] -- <lattice-epr arguments>

It imports ``lattice_epr.cli``, with ``--trace`` replaces each public
function and public method of the layer modules by a wrapper (by attribute,
also where another module imported the function by name), calls
``lattice_epr.cli.main`` in-process and writes a JSON record: the return
code, the time spent inside ``main`` and, when traced, the spans
``[name, start, end, parent]`` kept in memory during the run plus a few
observations the per-layer ratios need.  Nothing inside the program is
edited.

``layer_metrics`` turns such a record into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

# core, constants and errors do negligible work and count toward set-up
LAYERS = ("scenario", "lattice", "dipole", "diatom", "analysis", "pipeline", "cli")

# name -> unit of every metric the traced pass reports, in output order
PER_LAYER = {
    "analysis.position_density_s": "s",
    "analysis.position_density_calls": "count",
    "analysis.position_rows_used_ratio": "ratio",
    "analysis.position_density_gflop": "GFLOP",
    "analysis.position_density_gbytes": "GB",
    "analysis.momentum_density_s": "s",
    "diatom.sum_momentum_s": "s",
    "cli.write_s": "s",
    "cli.rows_written": "count",
    "cli.bytes_written": "bytes",
    "cli.write_mb_per_s": "MB/s",
    "lattice.wannier_s": "s",
    "lattice.wannier_used_ratio": "ratio",
    "lattice.band_structure_s": "s",
    "diatom.band_s": "s",
    "diatom.thermal_state_s": "s",
    "diatom.block_solves_per_point": "count",
    "pipeline.chain_builds_per_point": "count",
    "scenario.load_s": "s",
    "cli.sweep_parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    **{f"layer.{layer}.calls": "count" for layer in LAYERS},
}


class Tracer:
    """Spans and observations of one in-process CLI run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.stack = []
        self.orbitals = {}     # id -> [Wannier orbital computed, used later?]
        self.position_grids = []  # [members M, sites N, grid points G]

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.orbitals:
                for arg in (*args, *kwargs.values()):
                    entry = self.orbitals.get(id(arg))
                    if entry is not None:
                        entry[1] = True
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                spans[index][2] = time.perf_counter()
                spans[index][1] = start
                stack.pop()
            if observe is not None:
                observe(self, args, return_value)
            return return_value

        return traced

    def record(self):
        return {
            "spans": self.spans,
            "orbitals_used": [used for _, used in self.orbitals.values()],
            "position_grids": self.position_grids,
        }


def _observe_wannier(tracer, args, orbital):
    tracer.orbitals[id(orbital)] = [orbital, False]


def _observe_position_density(tracer, args, grid):
    state = args[0]
    members = getattr(state, "members", None)
    m = len(members) if members is not None else len(getattr(state, "weights", ()))
    tracer.position_grids.append([m, state.n_sites, len(grid.axis1)])


_OBSERVERS = {
    "lattice.wannier": _observe_wannier,
    "analysis.joint_position_density": _observe_position_density,
}


def install(tracer):
    """Wrap the layers' public functions and methods by attribute."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lattice_epr.{layer}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                replaced[obj] = tracer.wrap(f"{layer}.{attr}", obj)
            elif inspect.isclass(obj):
                for name, method in list(vars(obj).items()):
                    if inspect.isfunction(method) and not name.startswith("_"):
                        setattr(obj, name, tracer.wrap(f"{layer}.{attr}.{name}", method))
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").partition(".")[0] != "lattice_epr":
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    # private, but the cli.write_* metrics are defined on it
    writer = importlib.import_module("lattice_epr.cli")._Writer
    writer.table = tracer.wrap("cli._Writer.table", writer.table)


# ---------------------------------------------------------------------------
# analysis of a record


def span_tables(spans):
    """Per-function and per-layer [calls, total_s, self_s].

    Self time is a span's duration minus the durations of its direct child
    spans.  A layer's total counts only spans with no ancestor in the same
    layer, so nested calls are not counted twice.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    layer_of = [name.partition(".")[0] for name, *_ in spans]
    by_name = defaultdict(lambda: [0, 0.0, 0.0])
    by_layer = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        own = duration - child[i]
        row = by_name[name]
        row[0] += 1
        row[1] += duration
        row[2] += own
        row = by_layer[layer_of[i]]
        row[0] += 1
        row[2] += own
        ancestor = parent
        while ancestor >= 0 and layer_of[ancestor] != layer_of[i]:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row[1] += duration
    return dict(by_name), dict(by_layer)


def position_density_cost(grids):
    """Computed (not measured) work of joint_position_density.

    Per ensemble member the kernel forms psi = w c w^T with w real (G, N)
    promoted to complex and c complex (N, N): two complex GEMMs at 8 real
    flops per multiply-add, 8 G N^2 + 8 G^2 N, plus about 6 flops per grid
    point for |psi|^2, the weight and the accumulation.  Bytes are the
    compulsory traffic: psi written and read once (complex), the density
    read and written once (real), and the inputs.
    """
    flop = sum(m * (8 * g * n * n + 8 * g * g * n + 6 * g * g) for m, n, g in grids)
    moved = sum(m * (48 * g * g + 16 * g * n + 16 * n * n) for m, n, g in grids)
    return flop / 1e9, moved / 1e9


def _ratio(used, computed):
    """Useful outcomes over attempts; 1 when nothing was attempted (no waste)."""
    return used / computed if computed else 1.0


def layer_metrics(record, points, file_stats):
    """Per-layer metrics from a traced record.

    ``points`` is the number of scenario points the run evaluated and
    ``file_stats`` maps the output tables, all written by ``_Writer.table``,
    to (rows, bytes, sha256).
    """
    by_name, by_layer = span_tables(record["spans"])

    def total(name):
        return by_name.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return by_name.get(name, (0, 0.0, 0.0))[0]

    grids = record["position_grids"]
    computed_rows = sum(g * g for _, _, g in grids)
    position_rows = sum(
        file_stats.get(name, (0,))[0]
        for name in ("position_joint.csv", "position_slice.csv")
    )
    gflop, gbytes = position_density_cost(grids)
    rows = sum(rows for rows, _, _ in file_stats.values())
    nbytes = sum(size for _, size, _ in file_stats.values())
    write_s = total("cli._Writer.table")
    hamiltonians = calls("diatom.build_hamiltonian")
    orbitals = record["orbitals_used"]
    values = {
        "analysis.position_density_s": total("analysis.joint_position_density"),
        "analysis.position_density_calls": calls("analysis.joint_position_density"),
        "analysis.position_rows_used_ratio": _ratio(
            min(computed_rows, position_rows), computed_rows
        ),
        "analysis.position_density_gflop": gflop,
        "analysis.position_density_gbytes": gbytes,
        "analysis.momentum_density_s": total("analysis.joint_momentum_density"),
        "diatom.sum_momentum_s": total("diatom.TwoAtomState.sum_momentum_distribution"),
        "cli.write_s": write_s,
        "cli.rows_written": rows,
        "cli.bytes_written": nbytes,
        "cli.write_mb_per_s": nbytes / 1e6 / write_s if write_s else 0.0,
        "lattice.wannier_s": total("lattice.wannier"),
        "lattice.wannier_used_ratio": _ratio(sum(orbitals), len(orbitals)),
        "lattice.band_structure_s": total("lattice.band_structure"),
        "diatom.band_s": total("diatom.diatom_band_exact"),
        "diatom.thermal_state_s": total("diatom.thermal_diatom_state"),
        "diatom.block_solves_per_point": (
            (calls("diatom.diatom_band_exact") + calls("diatom.thermal_diatom_state"))
            / hamiltonians
            if hamiltonians
            else 0.0
        ),
        "pipeline.chain_builds_per_point": calls("pipeline.lattice_results") / points,
        "scenario.load_s": total("scenario.load_scenario"),
    }
    for layer in LAYERS:
        n, _, own = by_layer.get(layer, (0, 0.0, 0.0))
        values[f"layer.{layer}.self_s"] = own
        values[f"layer.{layer}.calls"] = n
    return values, by_name, by_layer


# ---------------------------------------------------------------------------
# child entry point


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", required=True, help="JSON file to write")
    parser.add_argument("--trace", action="store_true", help="record spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    cli = importlib.import_module("lattice_epr.cli")
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    start = time.perf_counter()
    returncode = cli.main(cli_args)
    main_s = time.perf_counter() - start
    record = {"returncode": returncode, "main_s": main_s}
    if tracer is not None:
        record.update(tracer.record())
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return returncode


if __name__ == "__main__":
    sys.exit(main())
