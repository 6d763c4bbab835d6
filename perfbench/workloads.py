"""Benchmark workloads: seeded scenario files and what each run must produce.

A workload owns its inputs.  ``generate`` draws them from the seed alone, so
the program under test only ever sees the generated scenario file.  The base
scenario is the worked lithium scheme, copied here byte for byte so that the
default seed of ``distributions-li64`` reproduces the built-in
``lithium-example`` output exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
SWEEP_POINTS = 40

# Byte-for-byte copy of lattice_epr.scenario.LITHIUM_EXAMPLE at the commit
# that defined the benchmark.
BASE_SCENARIO = """\
# Two lithium atoms in adjacent 1D lattices coupled by an off-resonant
# dipole-coupling beam; the worked golden scenario.
[species]
preset = lithium

[lattice]
U0 = 7.42 Erec
# 64 sites so the sigma_E = 6 a envelope fits well inside the periodic box
sites = 64
cutoff = 16

[coupling]
displacement = 40 nm
V_dd = -2.16 Erec
dj_max = 4
include_offsite = yes

[state]
mode = thermal
sigma_E = 6 a
T = 10 nK

[analysis]
samples_per_site = 32
momentum_zones = 2
p1_measured = 0.4 BZ
optimizer_min = 1 a
optimizer_max = 30 a
optimizer_temperatures = 10 nK, 100 nK
"""

U0_MAX = 12.0  # E_rec; deeper lattices are outside the validated range


@dataclass(frozen=True)
class Workload:
    name: str
    command: str        # CLI subcommand
    jobs: int | None    # --jobs of the timed runs (None: CLI default)
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "distributions-li64",
            "distributions",
            None,
            "joint position/momentum grids of a 64-member thermal ensemble and "
            "a 4.2 M-row table: stresses analysis and the CLI writer",
        ),
        Workload(
            "sweep-u0",
            "sweep",
            2,
            "40 distinct lattice depths at --jobs 2: every point builds its own "
            "lattice and diatom chain, so no cache can help",
        ),
        Workload(
            "sweep-T",
            "sweep",
            1,
            "40 temperatures at --jobs 1: every point rebuilds an identical "
            "chain, so memoisation and lazy stages show here",
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """One generated scenario file and the sweep values written into it."""

    text: str
    sweep_values: tuple  # the swept values as written, empty if no sweep

    @property
    def points(self):
        return max(1, len(self.sweep_values))


def _fmt(value, digits):
    return f"{value:.{digits}f}"


def generate(name: str, seed: int) -> Inputs:
    rng = random.Random(f"{name}:{seed}")
    if name == "distributions-li64":
        if seed == DEFAULT_SEED:
            return Inputs(BASE_SCENARIO, ())
        t_nk = rng.uniform(5.0, 100.0)
        sigma_e = rng.uniform(4.0, 8.0)
        text = BASE_SCENARIO.replace(
            "sigma_E = 6 a\n", f"sigma_E = {_fmt(sigma_e, 3)} a\n"
        ).replace("T = 10 nK\n", f"T = {_fmt(t_nk, 3)} nK\n")
        return Inputs(text, ())
    if name == "sweep-u0":
        values = sorted(rng.uniform(6.0, U0_MAX) for _ in range(SWEEP_POINTS))
        parameter, unit, digits = "lattice.U0", "Erec", 4
    elif name == "sweep-T":
        values = sorted(rng.uniform(5.0, 150.0) for _ in range(SWEEP_POINTS))
        parameter, unit, digits = "state.T", "nK", 3
    else:
        raise KeyError(name)
    written = tuple(_fmt(v, digits) for v in values)
    text = (
        BASE_SCENARIO
        + "\n[sweep]\n"
        + f"parameter = {parameter}\n"
        + "values = "
        + ", ".join(f"{v} {unit}" for v in written)
        + "\n"
    )
    return Inputs(text, written)


def validate(inputs: Inputs, parse_scenario):
    """Parse the scenario with the program's parser and check that every
    point stays inside the ranges where the chain raises no
    ConvergenceError, RegimeError, SizeError or GridError.  Returns the
    parsed scenario."""
    sc = parse_scenario(inputs.text)
    if sc.sigma_e is not None and not 3.0 * sc.sigma_e < sc.n_sites / 2.0:
        raise ValueError(f"3 sigma_E = {3 * sc.sigma_e} a reaches N/2")
    u0_points = [sc.u0]
    if sc.sweep is not None:
        path, values = sc.sweep
        if len(values) != len(inputs.sweep_values):
            raise ValueError("sweep parsed to a different number of points")
        if len(set(values)) != len(values):
            raise ValueError("sweep values repeat")
        if path == "lattice.U0":
            u0_points = list(values)
        if path == "state.T" and min(values) <= 0:
            raise ValueError("sweep temperature not positive")
    if not all(0 < u <= U0_MAX for u in u0_points):
        raise ValueError(f"lattice depth outside (0, {U0_MAX}] E_rec")
    if sc.temperature <= 0:
        raise ValueError("scenario temperature not positive")
    return sc


def expected_rows(name: str, inputs: Inputs, sc) -> dict:
    """Data rows (header lines excluded) each output table must hold."""
    if name == "distributions-li64":
        g = sc.n_sites * sc.samples_per_site
        n = sc.n_sites
        p = len(range(-sc.momentum_zones * n // 2, sc.momentum_zones * n // 2 + 1))
        return {
            "position_joint.csv": g * g,
            "position_slice.csv": g,
            "momentum_joint.csv": p * p,
            "momentum_slice.csv": p,
            "momentum_marginal.csv": p,
            "sum_momentum.csv": n,
        }
    return {"sweep.csv": len(inputs.sweep_values)}
