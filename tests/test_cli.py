"""Command-line front end: artifacts, determinism, error handling."""

import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import lattice_epr
from lattice_epr import __version__
from lattice_epr.analysis import DistributionGrid
from lattice_epr.cli import _fmt, _Writer, main

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


# 16 sites x 32 samples: G = 512, two row blocks of the position grid
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
    lines = [ln.rstrip("\n") for ln in open(path) if ln.strip()]
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


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_must_be_a_positive_integer(toy_scenario, tmp_path, capsys, jobs):
    with pytest.raises(SystemExit) as exc:
        main(
            ["bands", "--scenario", toy_scenario, "--out", str(tmp_path / "out"),
             "--jobs", jobs]
        )
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


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
_grid_values = st.one_of(st.sampled_from(_SPECIAL_FLOATS), st.floats())


@settings(max_examples=60, deadline=None)
@given(
    delimiter=st.sampled_from([",", "\t"]),
    axis1=hnp.arrays(np.float64, st.integers(1, 6), elements=_grid_values),
    axis2=hnp.arrays(np.float64, st.integers(1, 6), elements=_grid_values),
    data=st.data(),
)
def test_grid_table_matches_row_writer(delimiter, axis1, axis2, data):
    density = data.draw(
        hnp.arrays(np.float64, (len(axis1), len(axis2)), elements=_grid_values)
    )
    grid = DistributionGrid(axis1=axis1, axis2=axis2, density=density, kind="position")
    scenario = types.SimpleNamespace(sha256="ab" * 32)
    columns = ["x1", "x2", "density"]
    with tempfile.TemporaryDirectory() as tmp:
        path = _Writer(tmp, scenario, delimiter).table("grid", columns, grid)
        reference = os.path.join(tmp, "reference")
        _write_grid_reference(reference, scenario.sha256, delimiter, columns, grid)
        assert Path(path).read_bytes() == Path(reference).read_bytes()


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
