"""Command-line front end.

    lattice-epr <subcommand> --scenario FILE --out DIR [--jobs N] [--format csv|tsv]

Subcommands: bands, diatom, distributions, report, optimize, sweep.
``FILE`` may also name a builtin scenario (``lithium-example``).  All outputs
are flat delimited text with '#' header lines recording the tool version and
the scenario hash; identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__, analysis, pipeline
from .errors import LatticeEprError
from .scenario import Scenario, load_scenario

__all__ = ["main"]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


class _Writer:
    """Tracks written files so partial outputs can be removed on failure."""

    def __init__(self, out_dir, scenario: Scenario, delimiter: str):
        self.out_dir = out_dir
        self.scenario = scenario
        self.delimiter = delimiter
        self.written = []

    def table(self, name, columns, rows):
        """Write a table of ``rows``, or of every point of a DistributionGrid
        as (axis1, axis2, density) rows in C order."""
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# lattice-epr {__version__}\n")
            fh.write(f"# scenario sha256: {self.scenario.sha256}\n")
            fh.write(self.delimiter.join(columns) + "\n")
            if isinstance(rows, analysis.DistributionGrid):
                self._grid(fh, rows)
            else:
                for row in rows:
                    fh.write(self.delimiter.join(_fmt(v) for v in row) + "\n")
        self.written.append(path)
        return path

    def _grid(self, fh, grid):
        # "%.12g" % v is format(v, ".12g") for every float, so one string
        # template per grid row formats all of its values in a single call
        d = self.delimiter
        middles = [d + _fmt(x2) + d for x2 in grid.axis2.tolist()]
        for x1, values in zip(grid.axis1.tolist(), grid.density):
            head = _fmt(x1)
            template = head + ("%.12g\n" + head).join(middles) + "%.12g\n"
            fh.write(template % tuple(values.tolist()))

    def cleanup(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _jobs(args):
    """Worker count: ``--jobs``, or every core when it is not given."""
    return args.jobs or os.cpu_count() or 1


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_bands(sc: Scenario, writer: _Writer, args):
    lat = pipeline.lattice_results(sc)
    spectrum = lat.spectrum
    writer.table(
        "bands." + args.format,
        ["q", "E0", "E1", "E2"],
        [
            (q, *spectrum.energies[i, :3])
            for i, q in enumerate(spectrum.q)
        ],
    )
    writer.table(
        "wannier." + args.format,
        ["x", "amplitude"],
        list(zip(lat.wannier0.x, lat.wannier0.amplitude)),
    )
    writer.table(
        "lattice_summary." + args.format,
        ["quantity", "value"],
        [
            ("U0", sc.u0),
            ("v_hop", lat.hopping.v_hop),
            ("bandwidth", lat.hopping.bandwidth),
            ("bandwidth_ratio", lat.hopping.bandwidth_ratio),
            ("hopping_approx", lat.approx.value),
            ("sigma", lat.width.sigma),
            ("sigma_literal", lat.width.sigma_literal),
            ("m_eff_ratio", lat.m_eff_ratio),
        ],
    )
    return 0


def _cmd_diatom(sc: Scenario, writer: _Writer, args):
    lat = pipeline.lattice_results(sc)
    profile = pipeline.dipole_profile(sc)
    dia = pipeline.diatom_results(sc, lat.hopping.v_hop, profile)
    writer.table(
        "dipole_profile." + args.format,
        ["dj", "R", "theta", "V_dd"],
        list(
            zip(
                profile.offsets,
                profile.separations,
                profile.angles,
                profile.values,
            )
        ),
    )
    writer.table(
        "diatom_band." + args.format,
        ["K", "E_bound"],
        list(zip(dia.band.thetas, dia.band.energies)),
    )
    writer.table(
        "diatom_summary." + args.format,
        ["quantity", "value"],
        [
            ("v_hop", lat.hopping.v_hop),
            ("v_dd0", dia.v_dd0),
            ("v2at_pert", dia.v2_pert),
            ("v2at_fit", dia.band.v_hop_fit),
            ("bandwidth_2at", dia.band.bandwidth),
            ("fit_residual_rms", dia.band.fit_residual_rms),
            ("gap_min", dia.band.gap_min),
            ("mass_ratio_2at", dia.mass_ratio),
            ("m_eff_2at_ratio_fit", dia.band.m_eff_ratio_fit),
            ("m_eff_2at_ratio_curv", dia.band.m_eff_ratio_curvature),
        ],
    )
    return 0


def _cmd_distributions(sc: Scenario, writer: _Writer, args):
    lat = pipeline.lattice_results(sc)
    profile = pipeline.dipole_profile(sc)
    dia = pipeline.diatom_results(sc, lat.hopping.v_hop, profile)
    state = pipeline.build_state(sc, dia.hamiltonian)
    orbital = lat.wannier0
    sigma = lat.width.sigma
    jobs = _jobs(args)

    pos = analysis.joint_position_density(
        state, orbital, sc.samples_per_site, jobs=jobs
    )
    writer.table("position_joint." + args.format, ["x1", "x2", "density"], pos)
    j0 = sc.j0 if sc.j0 is not None else sc.n_sites // 2
    slice_w = analysis.conditional_density(pos, axis=1, value=float(j0))
    del pos  # never hold both full position grids
    pos_g = analysis.joint_position_density(
        state, sigma, sc.samples_per_site, jobs=jobs
    )
    slice_g = analysis.conditional_density(pos_g, axis=1, value=float(j0))
    writer.table(
        "position_slice." + args.format,
        ["x2", "density_wannier", "density_gaussian"],
        list(zip(slice_w.x, slice_w.density, slice_g.density)),
    )

    mom = analysis.joint_momentum_density(state, orbital, zones=sc.momentum_zones)
    writer.table("momentum_joint." + args.format, ["p1", "p2", "density"], mom)
    mslice = analysis.conditional_density(mom, axis=1, value=sc.p1_measured)
    writer.table(
        "momentum_slice." + args.format,
        ["p2", "density"],
        list(zip(mslice.x, mslice.density)),
    )
    mmarg = analysis.marginal(mom, axis=2)
    writer.table(
        "momentum_marginal." + args.format,
        ["p2", "density"],
        list(zip(mmarg.x, mmarg.density)),
    )
    p_plus, probs = state.sum_momentum_distribution()
    writer.table(
        "sum_momentum." + args.format,
        ["p_plus", "probability"],
        list(zip(p_plus, probs)),
    )
    return 0


def _cmd_report(sc: Scenario, writer: _Writer, args):
    rows = pipeline.golden_reference_rows(sc)
    writer.table(
        "report." + args.format,
        ["quantity", "computed", "reference", "rel_diff", "tolerance", "verdict"],
        rows,
    )
    failures = [r for r in rows if r[5] == "fail"]
    for name, value, ref, rel, tol, verdict in rows:
        if verdict is not None:
            print(
                f"{name}: computed={_fmt(value)} reference={_fmt(ref)} "
                f"rel_diff={_fmt(rel)} tol={_fmt(tol)} -> {verdict}"
            )
    return 1 if failures else 0


def _cmd_optimize(sc: Scenario, writer: _Writer, args):
    rows = pipeline.optimizer_rows(sc)
    writer.table(
        "optimize." + args.format,
        ["T_nK", "sigma_E_opt", "s_opt", "s_at_scenario_sigma_E", "on_boundary"],
        rows,
    )
    return 0


def _sweep_worker(task):
    text, path, value = task
    from .scenario import parse_scenario

    sc = parse_scenario(text).with_param(path, value)
    return pipeline.summary_quantities(sc)


def _cmd_sweep(sc: Scenario, writer: _Writer, args):
    if sc.sweep is None:
        print("scenario has no [sweep] section", file=sys.stderr)
        return 2
    path, values = sc.sweep
    tasks = [(sc.raw_text, path, v) for v in values]
    jobs = _jobs(args)
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]
    keys = sorted(set().union(*(r.keys() for r in results)))
    rows = [
        [value] + [r.get(k) for k in keys] for value, r in zip(values, results)
    ]
    writer.table("sweep." + args.format, [path] + keys, rows)
    return 0


_COMMANDS = {
    "bands": _cmd_bands,
    "diatom": _cmd_diatom,
    "distributions": _cmd_distributions,
    "report": _cmd_report,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lattice-epr",
        description="Translational EPR correlations of dipole-dipole coupled "
        "atoms in adjacent optical lattices",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument(
        "--scenario",
        required=True,
        help="scenario file path or builtin name (e.g. lithium-example)",
    )
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="workers: sweep processes, or distributions threads for the "
        "position grids (default: one per core)",
    )
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv")
    args = parser.parse_args(argv)

    try:
        sc = load_scenario(args.scenario)
    except LatticeEprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    delimiter = "," if args.format == "csv" else "\t"
    writer = _Writer(args.out, sc, delimiter)
    try:
        return _COMMANDS[args.command](sc, writer, args)
    except LatticeEprError as exc:
        writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
