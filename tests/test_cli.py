"""Command-line front end: artifacts, determinism, error handling."""

import errno
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import lattice_epr
from lattice_epr import __version__
from lattice_epr.analysis import DistributionGrid
from lattice_epr import cli
from lattice_epr.cli import _fmt, _Writer, main
from lattice_epr.scenario import LITHIUM_EXAMPLE

TOY = """\
[species]
preset = lithium

[lattice]
U0 = 7.42 Erec
sites = 8
cutoff = 16

[coupling]
displacement = 40 nm
V_dd = -2.16 Erec

[state]
mode = ground

[analysis]
samples_per_site = 32
momentum_zones = 2
"""


# 16 sites x 32 samples: G = 512, four row blocks of the position grid
TOY16 = TOY.replace("sites = 8", "sites = 16").replace(
    "mode = ground", "mode = thermal\nT = 10 nK\nsigma_E = 2 a"
)

DISTRIBUTION_TABLES = (
    "position_joint.csv",
    "position_slice.csv",
    "momentum_joint.csv",
    "momentum_slice.csv",
    "momentum_marginal.csv",
    "sum_momentum.csv",
)


@pytest.fixture
def toy_scenario(tmp_path):
    path = tmp_path / "toy.ini"
    path.write_text(TOY)
    return str(path)


def read_table(path, delimiter=","):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    columns = body[0].split(delimiter)
    rows = [ln.split(delimiter) for ln in body[1:]]
    return header, columns, rows


def test_report_lithium_example_passes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["report", "--scenario", "lithium-example", "--out", str(out)])
    assert rc == 0
    header, columns, rows = read_table(out / "report.csv")
    assert header[0] == f"# lattice-epr {__version__}"
    assert header[1].startswith("# scenario sha256: ")
    verdicts = {r[0]: r[5] for r in rows if r[5]}
    assert verdicts["v_hop"] == "pass"
    assert verdicts["sigma"] == "pass"
    assert verdicts["mass_ratio_2at"] == "pass"
    assert verdicts["s_10nK"] == "pass"
    assert verdicts["s_100nK"] == "pass"
    assert "fail" not in verdicts.values()


def test_report_grades_s_only_at_the_reference_sigma_e(tmp_path, capsys):
    # the s references are the worked scheme's values at sigma_E = 6 a; at
    # 4 a the two s rows carry none, and the other four keep their verdicts
    path = tmp_path / "lithium4.ini"
    path.write_text(LITHIUM_EXAMPLE.replace("sigma_E = 6 a", "sigma_E = 4 a"))
    out = tmp_path / "out"
    assert main(["report", "--scenario", str(path), "--out", str(out)]) == 0
    _, _, rows = read_table(out / "report.csv")
    graded = {r[0]: r[2:] for r in rows}
    assert graded["s_10nK"] == graded["s_100nK"] == ["", "", "", ""]
    verdicts = {name: r[3] for name, r in graded.items() if r[3]}
    assert verdicts == dict.fromkeys(("v_hop", "sigma", "v2at_pert", "mass_ratio_2at"), "pass")
    assert "s_10nK" not in capsys.readouterr().out


def test_bands_outputs_are_byte_deterministic(toy_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bands", "--scenario", toy_scenario, "--out", str(out1)]) == 0
    assert main(["bands", "--scenario", toy_scenario, "--out", str(out2)]) == 0
    for name in ("bands.csv", "wannier.csv", "lattice_summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_distributions_toy_grids_normalize(toy_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(["distributions", "--scenario", toy_scenario, "--out", str(out)]) == 0
    for name, cols in (("position_joint.csv", 3), ("momentum_joint.csv", 3)):
        _, _, rows = read_table(out / name)
        data = np.array([[float(v) for v in r] for r in rows])
        assert data.shape[1] == cols
        a1 = np.unique(data[:, 0])
        a2 = np.unique(data[:, 1])
        d1 = a1[1] - a1[0]
        d2 = a2[1] - a2[0]
        assert data[:, 2].sum() * d1 * d2 == pytest.approx(1.0, abs=1e-6)
    # 1D slices normalize too
    for name in ("momentum_slice.csv", "momentum_marginal.csv"):
        _, _, rows = read_table(out / name)
        data = np.array([[float(v) for v in r] for r in rows])
        dx = data[1, 0] - data[0, 0]
        assert data[:, 1].sum() * dx == pytest.approx(1.0, abs=1e-6)
    # folded sum-momentum probabilities
    _, _, rows = read_table(out / "sum_momentum.csv")
    probs = np.array([float(r[1]) for r in rows])
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_tsv_format(toy_scenario, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["diatom", "--scenario", toy_scenario, "--out", str(out), "--format", "tsv"]
    ) == 0
    text = (out / "diatom_summary.tsv").read_text()
    assert "\t" in text.splitlines()[2]


def test_optimize_matches_grid_scan(tmp_path):
    out = tmp_path / "out"
    assert main(["optimize", "--scenario", "lithium-example", "--out", str(out)]) == 0
    _, columns, rows = read_table(out / "optimize.csv")
    assert columns[:3] == ["T_nK", "sigma_E_opt", "s_opt"]
    assert len(rows) == 2
    from lattice_epr.core import LITHIUM, UnitSystem
    from lattice_epr.lattice import wannier_gaussian_width

    units = UnitSystem(LITHIUM)
    sigma = wannier_gaussian_width(7.42).sigma
    for row in rows:
        t_nk = float(row[0])
        t = units.temperature_from_si(t_nk * 1e-9)
        grid = np.linspace(1.0, 30.0, 100001)
        s = grid / (math.sqrt(2.0) * sigma) * np.tanh(1.0 / (math.pi**2 * grid**2 * t))
        assert float(row[1]) == pytest.approx(grid[np.argmax(s)], abs=2e-3)
        assert float(row[2]) == pytest.approx(float(s.max()), rel=1e-6)


def test_sweep_parallel_and_serial_agree(tmp_path):
    text = TOY + "\n[sweep]\nparameter = state.T\nvalues = 5 nK, 10 nK, 20 nK\n"
    path = tmp_path / "sweep.ini"
    path.write_text(text)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    assert main(
        ["sweep", "--scenario", str(path), "--out", str(out1), "--jobs", "1"]
    ) == 0
    assert main(
        ["sweep", "--scenario", str(path), "--out", str(out2), "--jobs", "3"]
    ) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    _, columns, rows = read_table(out1 / "sweep.csv")
    assert columns[0] == "state.T"
    # rows come out in declared sweep order
    temps = [float(r[0]) for r in rows]
    assert temps == sorted(temps)
    assert len(rows) == 3


def test_sweep_without_sweep_section(toy_scenario, tmp_path, capsys):
    rc = main(["sweep", "--scenario", toy_scenario, "--out", str(tmp_path / "out")])
    assert rc == 2


def test_sweep_without_sweep_section_prints_one_error_line(toy_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", toy_scenario, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: scenario has no [sweep] section\n"
    assert not out.exists()


HEAVY_SPECIES = (
    "mass = 1e300\nlambda_L = 323 nm\ngamma_L = 1.2e6 s^-1\nlambda_C = 670.8 nm\ngamma_C = 3.7e7 s^-1"
)
NO_RECOIL_ENERGY = "mass and lattice wavelength give no finite recoil energy"

# scenario text -> the one error line it is rejected with
SCENARIO_REJECTIONS = {
    "lattice-intensity-alone": (
        TOY.replace("U0 = 7.42 Erec", "intensity = 1 W/cm^2"),
        "lattice laser block needs both intensity and detuning"),
    "coupling-intensity-alone": (
        TOY.replace("V_dd = -2.16 Erec", "intensity = 1 W/cm^2"),
        "coupling laser block needs both intensity and detuning"),
    "species-missing-keys": (
        TOY.replace("preset = lithium", "mass = 1.165e-26\nlambda_L = 323 nm"),
        "species section missing keys ['gamma_C', 'gamma_L', 'lambda_C']"),
    "huge-mass": (TOY.replace("preset = lithium", HEAVY_SPECIES), NO_RECOIL_ENERGY),
    "huge-lambda_L": (TOY.replace("cutoff = 16", "cutoff = 16\nlambda_L = 1e200 m"),
                      NO_RECOIL_ENERGY),
    "tiny-lambda_L": (TOY.replace("cutoff = 16", "cutoff = 16\nlambda_L = 1e-200 m"),
                      NO_RECOIL_ENERGY),
    "optimizer-bounds-reversed": (
        TOY + "optimizer_min = 5 a\noptimizer_max = 2 a\n",
        "optimizer bounds must satisfy 0 < min < max"),
    "sweep-without-values": (
        TOY + "\n[sweep]\nparameter = state.T\n", "sweep section needs parameter and values"),
}


@pytest.mark.parametrize("case", sorted(SCENARIO_REJECTIONS))
def test_scenario_rejection_prints_one_error_line(case, tmp_path, capsys):
    text, message = SCENARIO_REJECTIONS[case]
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["bands", "--scenario", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_invalid_scenario_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[lattice]\nU0 = 7 Erec\nwrong_key = 3\n")
    rc = main(["report", "--scenario", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_partial_outputs_removed_on_failure(tmp_path, capsys):
    # p1 far outside the momentum grid fails after the position files exist
    text = TOY.replace("momentum_zones = 2", "momentum_zones = 2\np1_measured = 5 BZ")
    path = tmp_path / "late_fail.ini"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main(["distributions", "--scenario", str(path), "--out", str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def _assert_fails_with_one_error_line(command, text, tmp_path, capsys, pattern):
    """``command`` on the scenario ``text`` exits 1, prints one stderr line
    matching ``pattern`` and leaves no table."""
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 1
    assert re.fullmatch(pattern, capsys.readouterr().err)
    assert not out.exists() or not list(out.iterdir())


def test_failing_distributions_prints_its_error_line_alone(tmp_path, capsys):
    # a hot ensemble (bound-branch occupancy 0.52) on a grid too coarse for
    # the orbital: the regime warning would follow the tables, which the
    # grid check stops
    text = (
        TOY.replace("sites = 8", "sites = 9")
        .replace("mode = ground", "mode = thermal\nT = 1 Erec")
        .replace("samples_per_site = 32", "samples_per_site = 8")
    )
    pattern = r"error: grid step 0\.1250 a coarser than orbital sigma/4 = \S+ a\n"
    _assert_fails_with_one_error_line("distributions", text, tmp_path, capsys, pattern)


NO_COUPLING = TOY.replace("[coupling]\ndisplacement = 40 nm\nV_dd = -2.16 Erec\n\n", "") + (
    "\n[sweep]\nparameter = state.T\nvalues = 5 nK, 10 nK\n"
)
NO_DISPLACEMENT = "scenario has no coupling displacement"


@pytest.mark.parametrize("command, prefix", [
    ("diatom", ""), ("report", ""), ("distributions", ""),
    # like every sweep error, the line names the point that raised it
    ("sweep", r"sweep point state\.T = \S+: "),
])
def test_scenario_without_coupling_fails_in_the_pair_commands(command, prefix, tmp_path, capsys):
    assert "[coupling]" not in NO_COUPLING
    pattern = rf"error: {prefix}{NO_DISPLACEMENT}\n"
    _assert_fails_with_one_error_line(command, NO_COUPLING, tmp_path, capsys, pattern)


@pytest.mark.parametrize("command", ["bands", "optimize"])
def test_scenario_without_coupling_runs_the_single_atom_commands(command, tmp_path, capsys):
    path = tmp_path / "scenario.ini"
    path.write_text(NO_COUPLING)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert list(out.iterdir())


def test_out_below_a_regular_file_fails_with_one_error_line(toy_scenario, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "sub"
    assert main(["distributions", "--scenario", toy_scenario, "--out", str(out)]) == 1
    path = re.escape(os.path.join(str(out), "position_joint.csv"))
    pattern = rf"error: cannot write {path}: {os.strerror(errno.ENOTDIR)}\n"
    assert re.fullmatch(pattern, capsys.readouterr().err)


def test_table_that_fails_halfway_is_removed(monkeypatch, tmp_path, capsys):
    def full_disk(self, fh, grid):
        fh.write(b"0,0,")
        fh.flush()
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(_Writer, "_grid", full_disk)
    pattern = rf"error: cannot write \S+position_joint\.csv: {os.strerror(errno.ENOSPC)}\n"
    _assert_fails_with_one_error_line("distributions", TOY, tmp_path, capsys, pattern)


@pytest.mark.parametrize("displacement", ["1e-300 nm", "1e300 nm"])
def test_extreme_displacement_fails_with_one_error_line(displacement, tmp_path, capsys):
    text = TOY.replace("displacement = 40 nm", f"displacement = {displacement}")
    pattern = r"error: nearest-site kernel is \S+ at this tube displacement\n"
    _assert_fails_with_one_error_line("report", text, tmp_path, capsys, pattern)


def test_non_finite_laser_profile_fails_with_one_error_line(tmp_path, capsys):
    text = TOY.replace("V_dd = -2.16 Erec", "intensity = 1 W/cm^2\ndetuning = -1e3 gamma_C")
    text = text.replace("displacement = 40 nm", "displacement = 1e-300 nm")
    pattern = r"error: V_dd at site offset 0 is -inf at this tube displacement\n"
    _assert_fails_with_one_error_line("report", text, tmp_path, capsys, pattern)


def test_coupling_scale_overflow_fails_with_one_error_line(tmp_path, capsys):
    # k^3 of the coupling laser overflows at this wavelength
    text = TOY.replace(
        "V_dd = -2.16 Erec", "intensity = 1 W/cm^2\ndetuning = -1000 gamma_C\nlambda_C = 1e-110 m"
    )
    pattern = r"error: coupling scale V_C overflows at lambda_C = 1e-110 m\n"
    _assert_fails_with_one_error_line("diatom", text, tmp_path, capsys, pattern)


@pytest.mark.parametrize("command, old, new", [
    ("report", "sigma_E = 2 a", "sigma_E = 1e-300 a"),
    ("report", "sigma_E = 2 a", "sigma_E = 1e300 a"),
], ids=["report-tiny-sigma_E", "report-huge-sigma_E"])
def test_out_of_range_preparation_width_fails_with_one_error_line(
    command, old, new, tmp_path, capsys
):
    pattern = r"error: pi\^2 sigma_E\^2 T is outside the float range at .*\n"
    _assert_fails_with_one_error_line(command, TOY16.replace(old, new), tmp_path, capsys, pattern)


def test_optimizer_bound_too_small_for_s_leaves_an_inner_optimum(tmp_path, capsys):
    # s cannot be evaluated at 1e-300 a, but the optimum lies inside the bracket
    def data_rows(optimizer_min):
        path = tmp_path / f"{optimizer_min}.ini"
        path.write_text(TOY16 + f"optimizer_min = {optimizer_min}\n")
        out = tmp_path / optimizer_min
        assert main(["optimize", "--scenario", str(path), "--out", str(out)]) == 0
        return read_table(out / "optimize.csv")[2]

    assert data_rows("1e-300 a") == data_rows("1 a")
    assert capsys.readouterr().err == ""


NARROW_ENVELOPES = {
    "envelope": (TOY, "mode = ground", "mode = envelope\nsigma_E = {}"),
    "thermal": (TOY16, "sigma_E = 2 a", "sigma_E = {}"),
}


@pytest.mark.parametrize("mode", sorted(NARROW_ENVELOPES))
def test_envelope_too_narrow_for_floats_fails_with_one_error_line(mode, tmp_path, capsys):
    text, old, new = NARROW_ENVELOPES[mode]
    text = text.replace(old, new.format("1e-300 a"))
    pattern = r"error: sigma_E = 1e-300 a is too narrow for float arithmetic\n"
    _assert_fails_with_one_error_line("distributions", text, tmp_path, capsys, pattern)


@pytest.mark.parametrize("mode", sorted(NARROW_ENVELOPES))
def test_narrow_envelope_runs_without_warnings(mode, tmp_path, capsys):
    # sigma_E^2 is a subnormal float: the envelope is 1 at its centre, 0 elsewhere
    text, old, new = NARROW_ENVELOPES[mode]
    path = tmp_path / "scenario.ini"
    path.write_text(text.replace(old, new.format("1e-160 a")))
    out = tmp_path / "out"
    assert main(["distributions", "--scenario", str(path), "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_must_be_a_positive_integer(toy_scenario, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(
            ["bands", "--scenario", toy_scenario, "--out", str(tmp_path / "out"),
             "--jobs", jobs]
        )
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_jobs_default_counts_the_cpus_this_process_may_run_on(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "bands", lambda sc, writer, args: seen.append(writer.jobs))
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    argv = ["bands", "--scenario", "lithium-example", "--out", str(tmp_path)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    main(argv)
    monkeypatch.delattr(os, "sched_getaffinity")
    main(argv)
    assert seen == [1, 8]


def _write_grid_reference(path, sha256, delimiter, columns, grid):
    """Row-by-row writer of a grid table, one _fmt call per value."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# lattice-epr {__version__}\n")
        fh.write(f"# scenario sha256: {sha256}\n")
        fh.write(delimiter.join(columns) + "\n")
        for i, x1 in enumerate(grid.axis1):
            for j, x2 in enumerate(grid.axis2):
                row = (x1, x2, grid.density[i, j])
                fh.write(delimiter.join(_fmt(v) for v in row) + "\n")


_SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, -2.2e-308, 1e16, -1e16, math.inf, -math.inf, math.nan
]


@st.composite
def _decimal_ties(draw):
    """Values of 13 significant digits ending in 5, exactly representable:
    halfway between two 12-digit decimals (1234567890.125 is one)."""
    k = draw(st.integers(1, 12))  # fraction digits of odd / 2**k
    whole = draw(st.integers(10 ** (12 - k), 10 ** (13 - k) - 1))
    odd = 2 * draw(st.integers(0, 2 ** (k - 1) - 1)) + 1
    return draw(st.sampled_from([1.0, -1.0])) * (whole + odd / 2**k)


# the neighbours of powers of ten and of the values that round up to one
_decade_edges = st.builds(
    lambda mantissa, k, toward, sign: sign * float(np.nextafter(float(f"{mantissa}e{k}"), toward)),
    st.sampled_from(["1", "9.999999999995"]),
    st.integers(-330, 310),
    st.sampled_from([0.0, math.inf, math.nan]),  # below, above, the value itself
    st.sampled_from([1.0, -1.0]),
)

_grid_values = st.one_of(
    st.sampled_from(_SPECIAL_FLOATS),
    st.floats(),
    st.floats(allow_subnormal=True, min_value=-2.3e-308, max_value=2.3e-308),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-10, 10), st.integers(-300, 300)),
    _decimal_ties(),
    _decade_edges,
)


def test_grid_table_rounds_a_decimal_tie_half_to_even(tmp_path):
    grid = DistributionGrid(
        axis1=np.array([0.5]), axis2=np.array([1.5]),
        density=np.array([[1234567890.125]]),
    )
    scenario = types.SimpleNamespace(sha256="ab" * 32)
    path = _Writer(str(tmp_path), scenario, ",").table("grid", ["a", "b", "c"], grid)
    assert Path(path).read_text().splitlines()[-1] == "0.5,1.5,1234567890.12"


def test_grid_table_matches_format_over_every_layout(tmp_path):
    # rows: sign and decimal exponent; columns: 1..12 significant digits,
    # every one non-zero, so the value prints exactly that many
    digits = "123456789123"
    exponents = range(-330, 331)
    density = np.array([
        [float(f"{sign}{digits[0]}.{digits[1:kept]}e{x}") for kept in range(1, 13)]
        for sign in ("", "-") for x in exponents
    ])
    # exponents 1..11 with the '.' inside the digits and zeros either side,
    # in place of 1-digit values that print as 0, subnormals or inf
    inner = "100000000001"
    dotted = [float(f"{inner[:x + 1]}.{inner[x + 1:]}") for x in range(1, 12)]
    density[:11, 0] = dotted
    density[-11:, 0] = np.negative(dotted)
    grid = DistributionGrid(
        axis1=np.arange(len(density)) - 661.5, axis2=np.arange(1.0, 13.0),
        density=density,
    )
    scenario = types.SimpleNamespace(sha256="01" * 32)
    path = _Writer(str(tmp_path), scenario, ",", 2).table("grid", ["a", "b", "c"], grid)
    reference = tmp_path / "reference"
    _write_grid_reference(reference, scenario.sha256, ",", ["a", "b", "c"], grid)
    assert Path(path).read_bytes() == reference.read_bytes()


@settings(max_examples=60, deadline=None)
@given(
    delimiter=st.sampled_from([",", "\t"]),
    axis1=hnp.arrays(np.float64, st.integers(1, 6), elements=_grid_values),
    axis2=hnp.arrays(np.float64, st.integers(1, 6), elements=_grid_values),
    data=st.data(),
    jobs=st.sampled_from([1, 3]),
)
def test_grid_table_matches_row_writer(delimiter, axis1, axis2, data, jobs):
    density = data.draw(
        hnp.arrays(np.float64, (len(axis1), len(axis2)), elements=_grid_values)
    )
    grid = DistributionGrid(axis1=axis1, axis2=axis2, density=density)
    scenario = types.SimpleNamespace(sha256="ab" * 32)
    columns = ["x1", "x2", "density"]
    with tempfile.TemporaryDirectory() as tmp:
        path = _Writer(tmp, scenario, delimiter, jobs).table("grid", columns, grid)
        reference = os.path.join(tmp, "reference")
        _write_grid_reference(reference, scenario.sha256, delimiter, columns, grid)
        assert Path(path).read_bytes() == Path(reference).read_bytes()


def test_grid_table_leaves_only_ties_and_special_values_to_format(tmp_path, monkeypatch):
    # at most 9 significant digits: never close to a tie of the 12th digit
    rng = np.random.default_rng(5)
    density = rng.integers(1, 10**9, (40, 50)) * 10.0 ** rng.integers(-120, 120, (40, 50))
    fallback = {
        (3, 4): 1234567890.125,         # exact decimal tie
        (7, 0): -1.000000000005e-7,     # within 1e-3 of a tie after scaling
        (9, 9): 0.0,
        (11, 2): math.inf,
        (20, 30): 5e-324,               # subnormal
        (39, 49): 1e300,                # beyond 1e290
    }
    for ij, value in fallback.items():
        density[ij] = value
    formatted = []

    def recording_format(value, spec):
        formatted.append(value)
        return format(value, spec)

    # negative integer labels, so no label equals a density value
    axis1, axis2 = -1.0 - np.arange(40), -1.0 - np.arange(50)
    grid = DistributionGrid(axis1=axis1, axis2=axis2, density=density)
    scenario = types.SimpleNamespace(sha256="cd" * 32)
    reference = tmp_path / "reference"
    _write_grid_reference(reference, scenario.sha256, ",", ["a", "b", "c"], grid)
    monkeypatch.setattr(cli, "format", recording_format, raising=False)
    path = _Writer(str(tmp_path), scenario, ",", 2).table("grid", ["a", "b", "c"], grid)
    assert Path(path).read_bytes() == reference.read_bytes()
    labels = set(axis1.tolist()) | set(axis2.tolist())
    values = sorted(v for v in formatted if v not in labels)
    assert values == sorted(fallback.values())


# traced peak of writing a grid table: a few blocks of rows in flight, so it
# does not grow with the number of rows (about 5 MB at 1024 x 1024)
GRID_WRITE_BUDGET_BYTES = 8_000_000


def test_grid_table_memory_stays_within_a_fixed_budget(tmp_path):
    axis = np.arange(1024) / 32.0
    density = np.random.default_rng(3).random((1024, 1024)) * 1e-3
    grid = DistributionGrid(axis1=axis, axis2=axis.copy(), density=density)
    writer = _Writer(str(tmp_path), types.SimpleNamespace(sha256="ef" * 32), ",", 2)
    tracemalloc.start()
    try:
        path = writer.table("grid.csv", ["x1", "x2", "density"], grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert Path(path).stat().st_size > 1024 * 1024 * 20
    assert peak < GRID_WRITE_BUDGET_BYTES


@pytest.fixture
def toy16_scenario(tmp_path):
    path = tmp_path / "toy16.ini"
    path.write_text(TOY16)
    return str(path)


def test_distributions_bytes_independent_of_jobs(toy16_scenario, tmp_path):
    outs = []
    for jobs in ("1", "3"):
        out = tmp_path / f"jobs{jobs}"
        argv = ["distributions", "--scenario", toy16_scenario, "--out", str(out)]
        assert main(argv + ["--jobs", jobs]) == 0
        outs.append(out)
    for name in DISTRIBUTION_TABLES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_distributions_bytes_independent_of_blas_threads(toy16_scenario, tmp_path):
    src = str(Path(lattice_epr.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=pythonpath)
        subprocess.run(
            [sys.executable, "-m", "lattice_epr.cli", "distributions",
             "--scenario", toy16_scenario, "--out", str(out), "--jobs", "2"],
            env=env,
            check=True,
            timeout=300,
        )
        outs.append(out)
    for name in DISTRIBUTION_TABLES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("temperature, warned", [("10 nK", False), ("1 Erec", True)])
def test_distributions_prints_the_regime_warning(temperature, warned, tmp_path, capsys):
    path = tmp_path / "toy16.ini"
    path.write_text(TOY16.replace("T = 10 nK", f"T = {temperature}"))
    argv = ["distributions", "--scenario", str(path), "--out", str(tmp_path / "out"), "--jobs", "1"]
    assert main(argv) == 0
    err = capsys.readouterr().err
    if warned:
        assert re.fullmatch(r"warning: bound-branch occupancy 0\.\d+ < 0\.9: .*\n", err)
    else:
        assert err == ""


def test_ground_mode_writes_the_tables_of_thermal_at_zero_temperature(tmp_path):
    """The ground state is the T = 0 member of the thermal ensemble, so the
    two modes write the same rows; only the header lines, which carry the
    scenario's hash, differ."""
    bodies = []
    for name, mode in (("ground", "ground"), ("thermal", "thermal\nT = 0 K")):
        path = tmp_path / f"{name}.ini"
        path.write_text(TOY.replace("mode = ground", f"mode = {mode}"))
        out = tmp_path / name
        argv = ["distributions", "--scenario", str(path), "--out", str(out), "--jobs", "1"]
        assert main(argv) == 0
        bodies.append({
            table: [ln for ln in (out / table).read_bytes().splitlines() if not ln.startswith(b"#")]
            for table in DISTRIBUTION_TABLES
        })
    assert bodies[0] == bodies[1]


DISPLACEMENT_WARNING = (
    "warning: tube displacement l > a/4: the nearest-site minimum is no longer "
    "sharply dominant\n"
)
# a/4 = 40.375 nm for the lithium lattice
WIDE_TUBES = {
    "V_dd": TOY.replace("displacement = 40 nm", "displacement = 60 nm"),
    "laser": TOY.replace(
        "V_dd = -2.16 Erec", "intensity = 1000 W/cm^2\ndetuning = -1e3 gamma_C"
    ).replace("displacement = 40 nm", "displacement = 200 nm"),
}


@pytest.mark.parametrize("command, jobs", [
    ("diatom", "1"), ("report", "1"), ("distributions", "2"), ("sweep", "1"), ("sweep", "2"),
])
@pytest.mark.parametrize("coupling", sorted(WIDE_TUBES))
def test_wide_tube_displacement_prints_one_warning_line(
    coupling, command, jobs, tmp_path, capsys
):
    path = tmp_path / "wide.ini"
    path.write_text(WIDE_TUBES[coupling] + "\n[sweep]\nparameter = state.T\nvalues = 5 nK, 10 nK\n")
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), "--jobs", jobs]) == 0
    assert capsys.readouterr().err == DISPLACEMENT_WARNING
    assert list(out.iterdir())


@pytest.mark.parametrize("command", ["bands", "diatom", "report", "optimize"])
def test_lithium_example_prints_no_warning(command, tmp_path, capsys):
    assert main([command, "--scenario", "lithium-example", "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
