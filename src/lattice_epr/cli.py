"""Command-line front end.

    lattice-epr <subcommand> --scenario FILE --out DIR [--jobs N] [--format csv|tsv]

Subcommands: bands, diatom, distributions, report, optimize, sweep.
``FILE`` may also name a builtin scenario (``lithium-example``).  All outputs
are flat delimited text with '#' header lines recording the tool version and
the scenario hash; identical inputs produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, analysis, dipole, lattice, pipeline
from .errors import LatticeEprError, OutputError
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


# ---------------------------------------------------------------------------
# grid tables: format(v, ".12g") for whole blocks of values in numpy
#
# Every piece of a line is padded with NUL bytes to whole 8-byte words, and
# a line is exactly its non-NUL bytes, so a block is compacted with one
# `!= 0` selection.  This holds because labels and delimiters never contain
# NUL.  A number takes four words:
#   word 0     sign and leading digit, right-aligned: "-0.00d" (exponents
#              -4..-1), or "-d" with a '.' where digits follow it in
#              exponent form and at exponent 0
#   words 1-2  the other 11 digits, with a '.' after the integer digits
#              for exponents 1..11, and NUL past the printed ones
#   word 3     "e-05\n", "e+123\n" or "\n", left-aligned
# The printed bytes then form two runs per number, and the compaction costs
# per run as well as per byte.
_MIN_EXP = -330     # decimal exponents -330 .. 330 index the tables
# values formatted per block: a few MB per worker thread, and bounds that
# depend only on the grid size.  At 8192 the threads queue for the GIL
# between the ~45 small numpy calls of a block; at 32768 writing a
# 1024 x 1024 grid on 2 threads peaks at about 12.7 MB, past the tests'
# 8 MB budget.
_GRID_BLOCK_VALUES = 16384


def _words(chunks, width=8):
    """Byte strings NUL-padded to ``width`` bytes (a multiple of 8) as 8-byte words."""
    return np.frombuffer(b"".join(c.ljust(width, b"\0") for c in chunks), np.uint64)


@functools.cache
def _g12_tables():
    """Lookup tables of the ".12g" kernel, built on first use."""
    quads = [f"{i:04d}" for i in range(10_000)]
    # the four digits of 0..9999 as the low bytes of a word, and their
    # trailing zeros (4 for 0)
    digits = _words([q.encode() for q in quads])
    zeros = np.array([4] + [len(q) - len(q.rstrip("0")) for q in quads[1:]])
    exps = range(_MIN_EXP, -_MIN_EXP + 1)
    # correctly rounded 10**k, for k = -330 .. 330 (0 and inf at the ends)
    pow10 = np.array([float(f"1e{k}") for k in exps])
    suffix = _words([b"\n" if -4 <= x < 12 else b"e%+03d\n" % x for x in exps])
    # by (sign, zeros after "0." of a fixed form below 1, digit, '.' after it)
    lead = _words([(b"-" * sign + b"0." * (z > 0) + b"0" * (z - 1) + b"%d" % d + b"." * dot)
                   .rjust(8, b"\0") for sign, z, d, dot in np.ndindex(2, 5, 10, 2)])
    # masks of the first n bytes of words 1 and 2, for n = 0..12
    keep = _words([b"\xff" * n for n in range(13)], 16).reshape(13, 2).T.copy()
    return digits, zeros, pow10, suffix, lead, keep


def _g12_fields(values, words):
    """Write format(v, ".12g") + "\\n" of each value, padded with NUL bytes,
    into its row of the (len(values), 4) uint64 view ``words``.

    The 12 digits are rint(|v| 10**(11 - x)) for the decimal exponent x.
    The float64 product is off by at most ~2.3e-4 of a unit, so values whose
    product lies within 1e-3 of a rounding tie, and zero, non-finite, tiny
    and huge values, are left to ``format`` itself.
    """
    digits, zeros, pow10, suffix, lead, keep = _g12_tables()
    a = np.abs(values)
    exact = (a >= 1e-290) & (a < 1e290)
    a[~exact] = 1.0
    x = np.floor(np.log10(a)).astype(np.int64)
    p = a * pow10[11 - _MIN_EXP - x]
    off = np.flatnonzero((p < 1e11) | (p >= 1e12))   # log10 next to a power of 10
    x[off] += np.where(p[off] < 1e11, -1, 1)
    p[off] = a[off] * pow10[11 - _MIN_EXP - x[off]]
    d = np.rint(p)
    exact &= np.abs(p - np.floor(p) - 0.5) >= 1e-3
    carry = d == 1e12                                # rounded up to 10**(x + 1)
    d[carry] = 1e11
    x += carry
    exact &= (d >= 1e11) & (d < 1e12)
    d[~exact] = 1e11
    d = d.astype(np.int64)
    hi, d4 = d // 100_000_000, d // 10_000
    mid, lo = d4 - hi * 10_000, d - d4 * 10_000
    # significant digits kept: 12 less the trailing zeros, which run on
    # into mid where lo is 0 and into hi where lo and mid are
    kept = 12 - zeros[lo]
    for zero, more in ((lo == 0, mid), (lo + mid == 0, hi)):
        kept[zero] -= zeros[more[zero]]
    below = np.where((x >= -4) & (x < 0), -x, 0)
    fixed = (x > 0) & (x < 12)
    dot = (kept > 1) & ~fixed & (below == 0)
    # digit bytes printed: the integer digits, and the '.' and the rest
    # where a fraction is left (exponents 1..11), else all but the lead
    printed = np.where(fixed, np.where(kept <= x + 1, x, kept), kept - 1)
    # the four digits of hi, mid and lo; word 0 takes the first of them
    q1, q2, q3 = digits[hi], digits[mid], digits[lo]
    words[:, 0] = lead[((np.signbit(values) * 5 + below) * 10 + hi // 1000) * 2 + dot]
    words[:, 1] = (q1 >> 8) | (q2 << 24) | (q3 << 56)
    words[:, 2] = q3 >> 8
    words[:, 3] = suffix[x - _MIN_EXP]
    field = words.view(np.uint8)
    # a '.' after the integer digits of exponents 1..11
    dotted = np.flatnonzero(fixed)
    at = x[dotted, None]
    col = np.arange(12)
    field[dotted, 8:20] = np.where(
        col < at, field[dotted, 8:20], np.where(col == at, ord("."), field[dotted, 7:19])
    )
    words[:, 1] &= keep[0][printed]
    words[:, 2] &= keep[1][printed]
    bad = np.flatnonzero(~exact)
    if len(bad):
        text = b"".join((format(v, ".12g") + "\n").encode().ljust(32, b"\0")
                        for v in values[bad].tolist())
        field[bad] = np.frombuffer(text, np.uint8).reshape(len(bad), -1)


class _Writer:
    """Tracks written files so partial outputs can be removed on failure.

    Grid tables are formatted on ``jobs`` threads.
    """

    def __init__(self, out_dir, scenario: Scenario, delimiter: str, jobs: int = 1):
        self.out_dir = out_dir
        self.scenario = scenario
        self.delimiter = delimiter
        self.jobs = jobs
        self.written = []

    def table(self, name, columns, rows):
        """Write a table of ``rows``, or of every point of a DistributionGrid
        as (axis1, axis2, density) rows in C order.

        The path is recorded as soon as the file is opened, so cleanup()
        also removes a table that fails halfway.  An OSError becomes an
        OutputError that names the path.
        """
        path = os.path.join(self.out_dir, name)
        header = [f"# lattice-epr {__version__}",
                  f"# scenario sha256: {self.scenario.sha256}",
                  self.delimiter.join(columns)]
        try:
            os.makedirs(self.out_dir, exist_ok=True)
            with open(path, "wb") as fh:
                self.written.append(path)
                fh.write("".join(line + "\n" for line in header).encode())
                if isinstance(rows, analysis.DistributionGrid):
                    self._grid(fh, rows)
                else:
                    for row in rows:
                        fh.write((self.delimiter.join(_fmt(v) for v in row) + "\n").encode())
        except OSError as exc:
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        return path

    def _grid(self, fh, grid):
        """Format blocks of grid rows on worker threads; write them in order."""
        rows, cols = grid.density.shape
        if not rows or not cols:
            return
        d = self.delimiter
        heads = [_fmt(x1).encode() for x1 in grid.axis1.tolist()]
        middles = [(d + _fmt(x2) + d).encode() for x2 in grid.axis2.tolist()]
        # head right-aligned and middle left-aligned after it: one run of bytes
        hw, mw = max(map(len, heads)), max(map(len, middles))
        head = _words([s.rjust(hw, b"\0") for s in heads], -(-hw // 8) * 8).reshape(rows, -1)
        n = -(-(hw + mw) // 8)
        middle = _words([b"\0" * hw + s for s in middles], n * 8).reshape(cols, n)
        _g12_tables()  # build once, before the workers start
        step = max(_GRID_BLOCK_VALUES // cols, 1)

        def block(lo):
            """The lines head + middle + number of rows lo .. lo + step."""
            density = grid.density[lo : lo + step]
            words = np.empty((len(density), cols, n + 4), np.uint64)
            words[..., :n] = middle
            for k in range(head.shape[1]):
                words[..., k] |= head[lo : lo + step, k, None]
            _g12_fields(density.ravel(), words.reshape(-1, n + 4)[:, n:])
            line = words.view(np.uint8)
            return line[line != 0]

        threads = min(self.jobs, -(-rows // step))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending = deque()
            for lo in range(0, rows, step):
                pending.append(pool.submit(block, lo))
                if len(pending) > threads:
                    fh.write(pending.popleft().result())
            while pending:
                fh.write(pending.popleft().result())

    def cleanup(self):
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _warn(message):
    """Print a regime warning to stderr; the tables are written all the same.
    A command prints its warnings after its tables, so one that fails prints
    its error line alone."""
    if message:
        print(f"warning: {message}", file=sys.stderr)


def _cmd_bands(sc: Scenario, writer: _Writer, args):
    model = pipeline.Model(sc)
    spectrum = model.spectrum
    writer.table(
        "bands." + args.format,
        ["q", "E0", "E1", "E2"],
        list(zip(spectrum.q, *spectrum.energies.T)),
    )
    wannier0 = model.wannier0
    writer.table(
        "wannier." + args.format,
        ["x", "amplitude"],
        list(zip(wannier0.x, wannier0.amplitude)),
    )
    writer.table(
        "lattice_summary." + args.format,
        ["quantity", "value"],
        list(model.quantities("bands").items()),
    )
    return 0


def _cmd_diatom(sc: Scenario, writer: _Writer, args):
    model = pipeline.Model(sc)
    quantities = model.quantities("diatom")
    profile = model.profile
    writer.table(
        "dipole_profile." + args.format,
        ["dj", "R", "theta", "V_dd"],
        list(zip(profile.offsets, profile.separations, profile.angles, profile.values)),
    )
    writer.table(
        "diatom_band." + args.format,
        ["K", "E_bound"],
        list(zip(model.band.thetas, model.band.energies)),
    )
    writer.table(
        "diatom_summary." + args.format,
        ["quantity", "value"],
        list(quantities.items()),
    )
    _warn(dipole.displacement_warning(sc.displacement, sc.units.a))
    return 0


def _cmd_distributions(sc: Scenario, writer: _Writer, args):
    model = pipeline.Model(sc)
    model.spectrum  # both branches below read it, and a stage has no lock
    # the orbital on a worker thread beside the pair state and the writer's
    # tables; the state's error comes first, as it would serially
    with ThreadPoolExecutor(max_workers=1) as pool:
        wannier0 = pool.submit(lambda: model.wannier0)
        state = model.state
        _g12_tables()
        orbital = wannier0.result()
    pos = analysis.joint_position_density(state, orbital, sc.samples_per_site, jobs=writer.jobs)
    writer.table("position_joint." + args.format, ["x1", "x2", "density"], pos)
    j0 = sc.j0 if sc.j0 is not None else sc.n_sites // 2
    slice_w = analysis.conditional_density(pos, float(j0))
    del pos  # free the grid before the momentum tables
    gaussian = lattice.GaussianOrbital(model.width.sigma)
    slice_g = analysis.conditional_position_density(
        state, gaussian, sc.samples_per_site, float(j0)
    )
    writer.table(
        "position_slice." + args.format,
        ["x2", "density_wannier", "density_gaussian"],
        list(zip(slice_w.x, slice_w.density, slice_g.density)),
    )

    mom = analysis.joint_momentum_density(state, orbital, zones=sc.momentum_zones)
    writer.table("momentum_joint." + args.format, ["p1", "p2", "density"], mom)
    mslice = analysis.conditional_density(mom, sc.p1_measured)
    writer.table(
        "momentum_slice." + args.format,
        ["p2", "density"],
        list(zip(mslice.x, mslice.density)),
    )
    mmarg = analysis.marginal(mom)
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
    _warn(state.regime_warning)
    _warn(dipole.displacement_warning(sc.displacement, sc.units.a))
    return 0


def _cmd_report(sc: Scenario, writer: _Writer, args):
    rows = pipeline.Model(sc).report_rows()
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
    _warn(dipole.displacement_warning(sc.displacement, sc.units.a))
    return 1 if failures else 0


def _cmd_optimize(sc: Scenario, writer: _Writer, args):
    writer.table(
        "optimize." + args.format,
        ["T_nK", "sigma_E_opt", "s_opt", "s_at_scenario_sigma_E", "on_boundary"],
        pipeline.Model(sc).optimizer_rows(),
    )
    return 0


def _sweep_point(base, path, value, text):
    """Sweep quantities of one point, ``base.with_param(path, value)``.  An
    error names the point by ``text``, its value as the scenario wrote it."""
    try:
        return base.with_param(path, value).quantities("sweep")
    except LatticeEprError as exc:
        raise type(exc)(f"sweep point {path} = {text}: {exc}") from exc


def _cmd_sweep(sc: Scenario, writer: _Writer, args):
    if sc.sweep is None:
        print("error: scenario has no [sweep] section", file=sys.stderr)
        return 2
    path, values = sc.sweep
    # one point made here builds the stages that the points share, so each
    # is built once and a fault in one is the scenario's own error; one
    # point per task, so the threads balance their load
    base = pipeline.Model(sc)
    base.with_param(path, values[0])
    with ThreadPoolExecutor(max_workers=min(writer.jobs, len(values))) as pool:
        point = functools.partial(_sweep_point, base, path)
        results = list(pool.map(point, values, sc.sweep_text))
    keys = sorted(set().union(*(r.keys() for r in results)))
    rows = [
        [value] + [r.get(k) for k in keys] for value, r in zip(values, results)
    ]
    writer.table("sweep." + args.format, [path] + keys, rows)
    _warn(dipole.displacement_warning(sc.displacement, sc.units.a))
    return 0


_COMMANDS = {
    "bands": _cmd_bands,
    "diatom": _cmd_diatom,
    "distributions": _cmd_distributions,
    "report": _cmd_report,
    "optimize": _cmd_optimize,
    "sweep": _cmd_sweep,
}


def _usable_cpus():
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        help="worker threads: sweep points, or the blocks of the distributions "
        "position grid and its table, whose Wannier orbital is built on one "
        "more thread (default: one per CPU this process may run on)",
    )
    parser.add_argument("--format", choices=("csv", "tsv"), default="csv")
    args = parser.parse_args(argv)

    try:
        sc = load_scenario(args.scenario)
    except LatticeEprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    delimiter = "," if args.format == "csv" else "\t"
    writer = _Writer(args.out, sc, delimiter, args.jobs or _usable_cpus())
    try:
        return _COMMANDS[args.command](sc, writer, args)
    except LatticeEprError as exc:
        writer.cleanup()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
