#!/usr/bin/env python3
"""Benchmark of the lattice-epr command-line tool.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is the ``src/`` tree next to this
directory, run as ``python3 -m lattice_epr.cli`` with ``src`` on PYTHONPATH.

``--trace 0`` (end to end): a closed loop with one client.  This script
spawns one CLI invocation at a time, waits for it, checks its output tables
outside the timed region and deletes them, and starts the next invocation
while the next one is expected to finish within ``--seconds`` (at least
one).  Reported: ``wall_s`` (spawn to exit), ``setup_s`` (spawn to exit of a
child that only imports ``lattice_epr.cli`` and loads the scenario, the
median of several spread over the run) and ``peak_rss_mb`` (peak RSS of the
process tree).

``--trace 1`` (per layer): one untraced and one traced in-process run of
``lattice_epr.cli.main`` on the same inputs, at ``--jobs 1``, plus for
sweeps an untraced ``--jobs 2`` run for the parallel efficiency.  Spans are
recorded from this directory's code only (``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time

import procs
import tracing
import verify
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 150.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


# ---------------------------------------------------------------------------
# environment and inputs


def environment():
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": procs.nproc(),
        "threads": procs.THREAD_PINS,
    }


class Bench:
    """Scratch space, child environment and reference hashes of one run."""

    def __init__(self, work):
        self.work = work
        self.env = procs.child_env(SRC, work)
        self.reference = verify.load_reference()
        self._count = 0

    def scratch(self, tag):
        self._count += 1
        path = os.path.join(self.work, f"{tag}-{self._count}")
        os.makedirs(path)
        return path


class Prepared:
    """A workload's generated scenario file and its output expectations."""

    def __init__(self, bench, name, seed):
        from lattice_epr.scenario import parse_scenario

        self.workload = workloads.WORKLOADS[name]
        self.inputs = workloads.generate(name, seed)
        sc = workloads.validate(self.inputs, parse_scenario)
        self.path = os.path.join(bench.work, f"{name}.ini")
        with open(self.path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.inputs.text)
        self.sha256 = sc.sha256
        self.expected = workloads.expected_rows(name, self.inputs, sc)
        self.reference = bench.reference[name] if seed == workloads.DEFAULT_SEED else None

    def cli_args(self, out_dir, jobs):
        args = [self.workload.command, "--scenario", self.path, "--out", out_dir]
        return args + (["--jobs", str(jobs)] if jobs else [])


# ---------------------------------------------------------------------------
# one operation


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)


def _log_tail(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()[-300:].strip()


def invoke(bench, prep, tally, argv_prefix, jobs):
    """Spawn one run of the CLI, check its outputs and delete them."""
    out = bench.scratch("out")
    log = os.path.join(bench.work, f"log-{os.path.basename(out)}")
    outcome = procs.run_measured(
        argv_prefix + prep.cli_args(out, jobs), bench.env, ROOT, log, CHILD_TIMEOUT_S
    )
    if outcome.returncode != 0:
        problems = [f"exit status {outcome.returncode}: {_log_tail(log)}"]
        stats = {}
    else:
        problems, stats = verify.check_outputs(
            out, prep.expected, prep.sha256, prep.reference
        )
    shutil.rmtree(out, ignore_errors=True)
    tally.add(prep.workload.name, problems)
    return outcome, stats


def measure_setup(bench, prep, tally, repeats):
    code = (
        "import sys, lattice_epr.cli\n"
        "from lattice_epr.scenario import load_scenario\n"
        "load_scenario(sys.argv[1])\n"
    )
    times = []
    for _ in range(repeats):
        log = os.path.join(bench.work, "log-setup")
        outcome = procs.run_measured(
            [sys.executable, "-c", code, prep.path], bench.env, ROOT, log, CHILD_TIMEOUT_S
        )
        if outcome.returncode != 0:
            tally.add("setup", [f"exit status {outcome.returncode}: {_log_tail(log)}"])
        times.append(outcome.wall_s)
    return times


# ---------------------------------------------------------------------------
# end-to-end pass


def tail_percentile(values):
    """Highest standard percentile with at least ten samples beyond it."""
    n = len(values)
    best = None
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None
    ordered = sorted(values)
    return best, ordered[min(n - 1, math.ceil(n * best / 100) - 1)]


def _describe(name, values, unit):
    tail = tail_percentile(values)
    tail_text = f"p{tail[0]:g} {tail[1]:.4f}" if tail else "no tail percentile (<20 samples)"
    return (
        f"  {name:<12} median {statistics.median(values):.4f} {unit:<3} "
        f"{tail_text}, n={len(values)}"
    )


def run_end_to_end(bench, prep, seconds, tally):
    wl = prep.workload
    jobs = min(wl.jobs, procs.nproc()) if wl.jobs else None
    # The machine's speed drifts over seconds; set-up children spread over
    # the run (half before the first invocation, one after each, the rest at
    # the end) are not all moved by the same drift.
    setup = measure_setup(bench, prep, tally, SETUP_REPEATS // 2)
    walls, rss = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        outcome, _ = invoke(bench, prep, tally, [sys.executable, "-m", "lattice_epr.cli"], jobs)
        walls.append(outcome.wall_s)
        rss.append(outcome.peak_rss_mb)
        setup += measure_setup(bench, prep, tally, 1)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    setup += measure_setup(bench, prep, tally, SETUP_REPEATS - len(setup))
    print(f"workload {wl.name}: {wl.command}" + (f" --jobs {jobs}" if jobs else ""))
    print(_describe("wall_s", walls, "s"))
    print(_describe("setup_s", setup, "s"))
    print(_describe("peak_rss_mb", rss, "MB"))
    return {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


# ---------------------------------------------------------------------------
# traced pass


def in_process(bench, prep, tally, traced, jobs):
    record_path = os.path.join(bench.scratch("record"), "record.json")
    prefix = [sys.executable, os.path.join(HERE, "tracing.py"), "--record", record_path]
    prefix += ["--trace", "--"] if traced else ["--"]
    outcome, stats = invoke(bench, prep, tally, prefix, jobs)
    record = {}
    if outcome.returncode == 0:
        with open(record_path, encoding="utf-8") as fh:
            record = json.load(fh)
    return outcome, record, stats


def run_traced(bench, prep, tally):
    wl = prep.workload
    sweep = wl.command == "sweep"
    jobs1 = 1 if sweep else None
    setup = statistics.median(measure_setup(bench, prep, tally, SETUP_REPEATS))
    plain, plain_rec, _ = in_process(bench, prep, tally, False, jobs1)
    traced, record, stats = in_process(bench, prep, tally, True, jobs1)
    if not record:
        return None
    values, by_name, by_layer = tracing.layer_metrics(record, prep.inputs.points, stats)
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    efficiency = 0.0
    if sweep:
        jobs = min(2, procs.nproc())
        _, par_rec, _ = in_process(bench, prep, tally, False, jobs)
        if par_rec and plain_rec:
            efficiency = plain_rec["main_s"] / (jobs * par_rec["main_s"])
    values["cli.sweep_parallel_efficiency"] = efficiency

    print(f"workload {wl.name}: traced {wl.command}" + (" --jobs 1" if sweep else ""))
    print(f"  {'layer':<10} {'calls':>7} {'total_s':>9} {'self_s':>9}")
    for layer in tracing.LAYERS:
        n, total, own = by_layer.get(layer, (0, 0.0, 0.0))
        print(f"  {layer:<10} {n:>7} {total:>9.4f} {own:>9.4f}")
    print("  top functions by self time:")
    top = sorted(by_name.items(), key=lambda kv: -kv[1][2])[:8]
    for name, (n, total, own) in top:
        print(f"    {name:<48} {n:>6} {total:>9.4f} {own:>9.4f}")
    for name, unit in tracing.PER_LAYER.items():
        if not name.startswith("layer."):
            print(f"  {name:<38} {values[name]:.6g} {unit}")
    grids = record["position_grids"]
    if grids:
        print(
            "  joint_position_density, computed from M, G, N = "
            + ", ".join(f"({m}, {g}, {n})" for m, n, g in grids)
            + f": {values['analysis.position_density_gflop']:.2f} GFLOP, "
            f"{values['analysis.position_density_gbytes']:.2f} GB moved"
        )
    # cli.main is itself a span, so the layer self times add up to the
    # traced main's duration by construction.  This only shows how the
    # untraced wall time splits: self times less the tracing overhead,
    # setup_s, and a rest outside every span beyond set-up.
    accounted = sum(own for _, _, own in by_layer.values())
    overhead = traced.wall_s - plain.wall_s
    rest = plain.wall_s - (accounted - overhead) - setup
    print(
        f"  untraced wall {plain.wall_s:.4f} s = layer self times {accounted:.4f} s"
        f" - tracing overhead {overhead:.4f} s + setup_s {setup:.4f} s + rest {rest:.4f} s"
    )
    return {name: (values[name], unit) for name, unit in tracing.PER_LAYER.items()}


# ---------------------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    parser = argparse.ArgumentParser(description="lattice-epr benchmark")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "lattice_epr", "cli.py")):
        print(f"error: no lattice_epr sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(procs.THREAD_PINS)
    signal.signal(signal.SIGTERM, _terminate)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    os.makedirs(work)
    tally = Tally()
    metrics = {}
    try:
        bench = Bench(work)
        print("environment: " + json.dumps(environment(), sort_keys=True))
        for name in names:
            prep = Prepared(bench, name, args.seed)
            print(f"# {name}, seed {args.seed}: {prep.workload.why}")
            if args.trace:
                result = run_traced(bench, prep, tally) or {}
            else:
                result = run_end_to_end(bench, prep, args.seconds, tally)
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in result.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"failed {tally.failed} / attempted {tally.attempted} operations")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and bool(metrics),
                "attempted": max(1, tally.attempted),
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
