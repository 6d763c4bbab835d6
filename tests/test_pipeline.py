"""The lazy pipeline behind the CLI: output bytes and failure behaviour of
every command, stages computed only when read, sweep points that share the
stages their parameter cannot reach, and sweep errors that name their
point."""

import hashlib
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from lattice_epr import cli, diatom, dipole, lattice, pipeline
from lattice_epr.cli import _sweep_point, main
from lattice_epr.errors import DegenerateBandError, LatticeEprError, SingularityError
from lattice_epr.scenario import LITHIUM_EXAMPLE, SWEEP_PARAMS, parse_scenario
from test_cli import NO_COUPLING, NO_DISPLACEMENT, TOY, TOY16

SCENARIOS = {
    "toy": TOY,
    "toy16": TOY16,
    "toy16_envelope": TOY16.replace("mode = thermal", "mode = envelope"),
    "toy17": TOY16.replace("sites = 16", "sites = 17"),
    "lithium": LITHIUM_EXAMPLE,
}

SWEEPS = {
    "toy": "\n[sweep]\nparameter = lattice.U0\nvalues = 6 Erec, 7.42 Erec, 9 Erec\n",
    "lithium": "\n[sweep]\nparameter = state.T\nvalues = 5 nK, 10 nK, 20 nK\n",
}


def run(command, text, tmp_path, *extra):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    out = tmp_path / "out"
    rc = main([command, "--scenario", str(path), "--out", str(out), *extra])
    return rc, out


def table_hashes(out):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


# sha256 of every table, recorded before the chain became a lazy Model
TABLE_SHA256 = {
    ("toy", "bands"): {
        "bands.csv": "d3a3a4792249754fd3d2d53032384e4d1bbccf0079ec15b4f93a13914ef539f3",
        "lattice_summary.csv": "641ce6239dbbb644e4a005dab3291c03f0a7789dcf04f0f7311ff8f786df89cb",
        "wannier.csv": "0261759c6d5167a7e3372a9654bcdaaa821f506159c615eae3bbd7188261a52c",
    },
    ("toy", "diatom"): {
        "diatom_band.csv": "f87b30660a6c1f8bede1cc611031ce29d23aaf4d549f12dfaa329e12857200fd",
        "diatom_summary.csv": "e9a4eb58b2a760a923f0e1fc44d09ca22d2aa45716e6f4042e5f3de7b9af508a",
        "dipole_profile.csv": "fa6ac6f0b991a432ee0fe76ca162bf3987b7af9abd22ddfd16b8f1de582465c6",
    },
    ("toy", "optimize"): {
        "optimize.csv": "7053459a81a6fddda0db193188c299e873d6fc258ad9aad3e895f529d8db38d2",
    },
    ("toy", "report"): {
        "report.csv": "e870bf75fa5442ed5983c32fc30d73140185222a90165be87d4ebcc59af22b49",
    },
    ("toy", "sweep"): {
        "sweep.csv": "435260eea960fefc5892038b4aed6f39a12307545d9afa4f842bc2160970c4e1",
    },
    ("lithium", "bands"): {
        "bands.csv": "8eb3fecf2c6d88d3765b4c25f971d32113151e115ab6c2f9f057e2a4e79074d7",
        "lattice_summary.csv": "a85eea3d9447bc775d3b3029ee32c9d9e7a47e1f7321efe9cdb67e5ada7a6eb9",
        "wannier.csv": "76a980e471eac553a3b7ef6863ca33399f4c90b1214cff8b6131f674f4f20d0b",
    },
    ("lithium", "diatom"): {
        "diatom_band.csv": "dc451f2bbe78b7261b9ed94a853b0addcec3e74cec5837f92f41c4cb138222b0",
        "diatom_summary.csv": "27839f7b1cb75247e88a36eaa2514c487d59677987a8e58b8643ee3c8f07ba99",
        "dipole_profile.csv": "f51c01f24abaf482f24b552ae455204f95041786dea5c396ab984f48492f14d4",
    },
    # recorded when the sigma_E optimum became the closed form: both rows
    # moved from the golden-section estimate to the exact maximum
    ("lithium", "optimize"): {
        "optimize.csv": "b51f75943816b4fb3f7d4769936da2dbe0426cb221a916a298d6be667d3f2aff",
    },
    ("lithium", "report"): {
        "report.csv": "defe7beace9277eda52cf6c28f44f79cee823ad174055ce078329e9765dd6799",
    },
    ("lithium", "sweep"): {
        "sweep.csv": "ef8571ec47c965796be168c71bc0f6335896f511059e0cbe2664ef7a45d66c24",
    },
    # the distributions tables, recorded before the pair state became arrays
    ("toy", "distributions"): {
        "momentum_joint.csv": "edcb951e84571798f79e4d900574cf3b8bde172addbfc76df719d312420fe7d7",
        "momentum_marginal.csv": "2c8c8a8cce372dad9f390a6c5a5bfa93a09797834bf9783940283e53ee3df038",
        "momentum_slice.csv": "b2459c2bc02f1eb7777d998f3ba41fc9f3e257fe28e2433f36bb99f0f3290d04",
        "position_joint.csv": "eb4915973c820de721c49956e7674588a645f6dc1543227a51cf383768d7ca67",
        "position_slice.csv": "f8ba229a7a89a78e704ddc0ee0648fcddbd57ded656bf154b2c403a109d9a37c",
        "sum_momentum.csv": "62a3ea9a7fb32b6060c144f3d3f397105e0edc3dc7af9b7ef231acbb1d0f3883",
    },
    ("toy16", "distributions"): {
        "momentum_joint.csv": "d1eb41d0e170b25549d90eef17ddc4e2e1a98bab571cab9098cd1492deae91a2",
        "momentum_marginal.csv": "5ac6dd40b56fdaf87ce01646ffc6423d11e414d147350a668fccf24a078eede4",
        "momentum_slice.csv": "d5a21c054deff720c6a68556c6a017730bcb450c78482b39f5c66bae98343d87",
        "position_joint.csv": "a817b40000ebeed314634566589b87ad31cbe8747bd2798d9dc566708f0e0870",
        "position_slice.csv": "36d373910003d43269d9b9b2cb1cb2eecad66198b34cd4df81d4c77802dcba5b",
        "sum_momentum.csv": "49be606d613bf8102af104cedc35c5ecc5941c63f10dd26c7bde16c58a1030ce",
    },
    ("toy16_envelope", "distributions"): {
        "momentum_joint.csv": "50eb4a6a93f851bfaaf1a423d4feafbd6c7109cace4915879eb26c44770f3782",
        "momentum_marginal.csv": "dcbfe02ebfefe4989d24157f3a92e0318550f740905607dc65f11a3040edcf63",
        "momentum_slice.csv": "0865f8bd9ecfb82149ab94b4965c349848fb9b165d52507ce1fc46743129b606",
        "position_joint.csv": "e7b9e34048b02aae3415ce26eca914cc4edac27b84f92b3f1c923a891f57b271",
        "position_slice.csv": "cee92bba4321a54bd4f8403e1f54c0fb7ceab2af982900ef0958ed600fcb9a8c",
        "sum_momentum.csv": "a24b579f0f844e3b6ba4b0a1c5ecb70c518e581f854b57f2a281fefbccdec49a",
    },
    # an odd ring, whose most negative two phases have no mirror: recorded
    # while the orbital still built one plane-wave table per q
    ("toy17", "bands"): {
        "bands.csv": "c156a569ff3429f303d6e6f7b3ca935c322683ac0f25ce7eb3d1d4bea72ec000",
        "lattice_summary.csv": "cf61445c99b32308e142e27fbc71be0390904cc3b86e639a10d352c4da190e3d",
        "wannier.csv": "c4e8d58bbcd929436fed653f738633f57086a76008cf0dee2f992d479ce24b39",
    },
    ("toy17", "distributions"): {
        "momentum_joint.csv": "095f58f7daf92c0819614a365b39989ad8def43c03e11ee141c9f7f562d768b9",
        "momentum_marginal.csv": "222d68107ad40d6596f7f2a831a24243d7bdb0971281492f3bf4327668625cf9",
        "momentum_slice.csv": "3cd0d4377a9b356149a9f8c4d2f4cb54c9589c3c9ce0b564cdfb73e03303da14",
        "position_joint.csv": "92b01786234221ace08bb5b114272705a897e539a6b9a2323463afd0e6655975",
        "position_slice.csv": "c9fa6943934154dede25f89d2c157986f03214ac6a6d73d48fb3351cfdd31495",
        "sum_momentum.csv": "556d80957d256a87d936ef97873da4e6f347e831987dceb01c64bd1bf98b1220",
    },
}


@pytest.mark.parametrize("scenario, command", sorted(TABLE_SHA256))
def test_output_bytes_are_unchanged(scenario, command, tmp_path):
    text = SCENARIOS[scenario] + (SWEEPS[scenario] if command == "sweep" else "")
    rc, out = run(command, text, tmp_path, "--jobs", "1")
    assert rc == 0
    assert table_hashes(out) == TABLE_SHA256[scenario, command]


COMMANDS = ("bands", "diatom", "distributions", "optimize", "report", "sweep")

WEAK_VDD = TOY.replace("V_dd = -2.16 Erec", "V_dd = -0.05 Erec")
FAILING_INPUTS = {
    "u0_zero": TOY.replace("U0 = 7.42 Erec", "U0 = 0 Erec"),
    "u0_tiny": TOY.replace("U0 = 7.42 Erec", "U0 = 1e-12 Erec"),
    "weak_vdd_ground": WEAK_VDD,
    "weak_vdd_envelope": WEAK_VDD.replace(
        "mode = ground", "mode = envelope\nsigma_E = 1 a"
    ),
}

SINGULAR_WIDTH = "harmonic width undefined for zero lattice depth"
DEGENERATE_BAND = (
    "lowest band degenerate with first excited band; Wannier gauge is "
    "undefined in the free-lattice limit"
)
CONTINUUM = "bound branch overlaps the continuum (|V_dd| <~ 4 |V_hop|)"

# error message per (input, command), or None where the command succeeds;
# recorded before the chain became a lazy Model.  Every input fails in a
# stage that a state.T sweep shares with its base model, so the sweep's
# message is the scenario's own and names no point.
EXPECTED_ERRORS = {
    **{("u0_zero", c): SINGULAR_WIDTH for c in COMMANDS},
    **{("u0_tiny", c): DEGENERATE_BAND for c in COMMANDS},
    ("u0_tiny", "optimize"): None,
    **{
        (name, c): None if c in ("bands", "optimize") else CONTINUUM
        for name in ("weak_vdd_ground", "weak_vdd_envelope")
        for c in COMMANDS
    },
}

TEMPERATURE_SWEEP = "\n[sweep]\nparameter = state.T\nvalues = 5 nK, 10 nK\n"


@pytest.mark.parametrize("name, command", sorted(EXPECTED_ERRORS))
def test_failure_behaviour_is_unchanged(name, command, tmp_path, capsys):
    text = FAILING_INPUTS[name]
    if command == "sweep":
        text += TEMPERATURE_SWEEP
    rc, out = run(command, text, tmp_path, "--jobs", "1")
    err = capsys.readouterr().err
    message = EXPECTED_ERRORS[name, command]
    if message is None:
        assert rc == 0 and err == ""
        assert list(out.iterdir())
        return
    assert rc == 1
    assert err == f"error: {message}\n"
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_error_names_its_point(jobs, tmp_path, capsys):
    text = TOY + "\n[sweep]\nparameter = lattice.U0\nvalues = 7.42 Erec, 0 Erec\n"
    rc, out = run("sweep", text, tmp_path, "--jobs", jobs)
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: sweep point lattice.U0 = 0 Erec: {SINGULAR_WIDTH}\n"
    )
    assert not out.exists() or not list(out.iterdir())
    with pytest.raises(SingularityError, match=r"^sweep point lattice\.U0 = 0 Erec: "):
        _sweep_point(pipeline.Model(parse_scenario(text)), "lattice.U0", 0.0, "0 Erec")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_error_names_its_point_as_the_scenario_wrote_it(jobs, tmp_path, capsys):
    # sigma_E = 1e-300 a passes the scenario's rules, and its point fails in
    # a closed form that the swept value reaches
    text = TOY16 + "\n[sweep]\nparameter = state.sigma_E\nvalues = 2 a,  1e-300 a\n"
    rc, out = run("sweep", text, tmp_path, "--jobs", jobs)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sweep point state.sigma_E = 1e-300 a: ")
    assert err.count("\n") == 1
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("command", ["diatom", "optimize", "report", "sweep"])
def test_commands_that_write_no_orbital_never_build_one(
    command, tmp_path, monkeypatch, capsys
):
    def no_wannier(*args, **kwargs):
        raise DegenerateBandError("the Wannier orbital was built")

    monkeypatch.setattr(lattice, "wannier", no_wannier)
    text = TOY + (TEMPERATURE_SWEEP if command == "sweep" else "")
    rc, out = run(command, text, tmp_path, "--jobs", "1")
    assert rc == 0, capsys.readouterr().err
    assert list(out.iterdir())


def test_bands_never_builds_the_dipole_profile(tmp_path, monkeypatch, capsys):
    def no_profile(*args, **kwargs):
        raise SingularityError("the dipole profile was built")

    monkeypatch.setattr(dipole, "interaction_profile", no_profile)
    rc, out = run("bands", TOY, tmp_path, "--jobs", "1")
    assert rc == 0, capsys.readouterr().err
    assert table_hashes(out) == TABLE_SHA256["toy", "bands"]


def test_report_evaluates_its_rows_in_table_order(tmp_path, capsys):
    # s_10nK precedes dp_plus_prep, so the error names 10 nK, not the
    # scenario's 100 nK (0.0076442 E_rec)
    text = TOY16.replace("T = 10 nK", "T = 100 nK").replace("sigma_E = 2 a", "sigma_E = 1e-300 a")
    rc, out = run("report", text, tmp_path, "--jobs", "1")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: pi^2 sigma_E^2 T is outside the float range at "
        "sigma_E = 1e-300 a, T = 0.00076442 E_rec\n"
    )
    assert not out.exists() or not list(out.iterdir())


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_lists_every_quantity_with_its_tables():
    section = README.read_text().split("## Scalar outputs\n")[1].split("\n## ")[0]
    rows = re.findall(r"^\| `(\w+)` \| ([a-z, ]+) \|", section, re.M)
    assert rows == [
        (name, ", ".join(tables.split()))
        for name, (tables, _) in pipeline._QUANTITIES.items()
    ]


def test_thermal_distributions_solve_each_block_once(tmp_path, monkeypatch):
    calls = []
    block = diatom.TwoAtomHamiltonian.block

    def counted(self, theta):
        calls.append(theta)
        return block(self, theta)

    monkeypatch.setattr(diatom.TwoAtomHamiltonian, "block", counted)
    text = TOY.replace("mode = ground", "mode = thermal\nT = 10 nK")
    rc, _ = run("distributions", text, tmp_path, "--jobs", "1")
    assert rc == 0
    assert len(calls) == 5  # the phases theta <= 0 of 8 sites, one block each


def test_distributions_prints_the_state_error_when_the_orbital_fails_too(
    tmp_path, monkeypatch, capsys
):
    # the orbital, built beside the state, fails first; the state's error is
    # the one printed, as when the two were built one after the other
    orbital_failed = threading.Event()

    def failing_wannier(*args, **kwargs):
        orbital_failed.set()
        raise DegenerateBandError("the orbital was built")

    def failing_state(self):
        assert orbital_failed.wait(timeout=30)
        raise SingularityError("the state was built")

    monkeypatch.setattr(lattice, "wannier", failing_wannier)
    monkeypatch.setattr(pipeline.Model, "state", property(failing_state))
    rc, out = run("distributions", TOY16, tmp_path, "--jobs", "2")
    assert rc == 1
    assert capsys.readouterr().err == "error: the state was built\n"
    assert not out.exists() or not list(out.iterdir())


def test_distributions_builds_band_orbital_and_pair_band_once(tmp_path, monkeypatch):
    calls = []

    def counted(module, name):
        build = getattr(module, name)

        def count(*args, **kwargs):
            calls.append(name)
            return build(*args, **kwargs)

        monkeypatch.setattr(module, name, count)

    counted(lattice, "band_structure")
    counted(lattice, "wannier")
    counted(diatom, "diatom_band_exact")
    rc, _ = run("distributions", TOY16, tmp_path, "--jobs", "2")
    assert rc == 0
    assert sorted(calls) == ["band_structure", "diatom_band_exact", "wannier"]


SWEEP_VALUES = {
    "state.T": "5 nK, 10 nK, 20 nK",
    "state.sigma_E": "4 a, 6 a, 8 a",
    "lattice.U0": "6 Erec, 7.42 Erec, 9 Erec",
    "coupling.V_dd": "-1.5 Erec, -2.16 Erec, -3 Erec",
}


def sweep_text(text, path):
    return text + f"\n[sweep]\nparameter = {path}\nvalues = {SWEEP_VALUES[path]}\n"


# sha256 of sweep.csv, recorded before sweep points shared their base's stages
SWEEP_SHA256 = {
    ("toy", "state.T"): "db8ef22dafb3be7391904bfcdf973d34badeeeb7bfc01e8fabae4ae247bbeea0",
    ("toy", "state.sigma_E"): "360fcc0116aa029d4ce5259fbf238f54ec6775a9b4a0d3b20bc290133ada2384",
    ("toy", "coupling.V_dd"): "cfb8528a3d85e90e1f77946146525a946c37243ce33b13fdfbfc22cd9258fa03",
    ("lithium", "state.sigma_E"): "0461a712b3abbcc59802ed9be91d6961597396789a289df8ef18a943570115ed",
    ("lithium", "coupling.V_dd"): "c3d7f226231e60779048f633f0187cad4cf54470a6ee981199d596d44e3b7994",
}


# every pin at --jobs 1, 2 and 3, so that points on concurrent threads read
# one base model; the --jobs 1 cases keep their ids
@pytest.mark.parametrize("scenario, path, jobs", [
    pytest.param(scenario, path, jobs, id=f"{scenario}-{path}" + f"-jobs{jobs}" * (jobs > 1))
    for scenario, path in sorted(SWEEP_SHA256) for jobs in (1, 2, 3)
])
def test_sweep_bytes_are_unchanged(scenario, path, jobs, tmp_path):
    rc, out = run("sweep", sweep_text(SCENARIOS[scenario], path), tmp_path, "--jobs", str(jobs))
    assert rc == 0
    assert table_hashes(out) == {"sweep.csv": SWEEP_SHA256[scenario, path]}


def test_every_sweep_path_has_its_shared_stages():
    assert set(pipeline._SHARED_STAGES) == set(SWEEP_PARAMS)


@pytest.mark.parametrize("path", sorted(SWEEP_PARAMS))
def test_sweep_quantities_read_every_shared_stage(path):
    # a point builds its shared stages before it runs, so none may be a
    # stage that the sweep does not read
    model = pipeline.Model(parse_scenario(sweep_text(TOY, path)))
    model.quantities("sweep")
    assert set(pipeline._SHARED_STAGES[path]) <= set(model.__dict__)


def outcome(point):
    """The sweep quantities of the model that ``point()`` makes, or the type
    and message of the error that making it or them raises."""
    try:
        return point().quantities("sweep")
    except LatticeEprError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("path", sorted(SWEEP_PARAMS))
@pytest.mark.parametrize("text", [TOY, LITHIUM_EXAMPLE, *FAILING_INPUTS.values()],
                         ids=["toy", "lithium", *FAILING_INPUTS])
def test_shared_points_equal_models_of_their_own(text, path):
    sc = parse_scenario(sweep_text(text, path))
    base = pipeline.Model(sc)
    for value in sc.sweep[1]:
        shared = outcome(lambda: base.with_param(path, value))
        assert shared == outcome(lambda: pipeline.Model(sc.with_param(path, value)))


@pytest.mark.parametrize("path", sorted(SWEEP_PARAMS))
def test_sweep_points_on_many_threads_equal_models_of_their_own(path):
    # 12 points on 8 threads (more than a CI runner's cores), switching
    # often, all reading one base model whose shared stages one point has
    # built, as the sweep command does; ten times, each with a new base
    sc = parse_scenario(sweep_text(TOY, path))
    values = sc.sweep[1] * 4
    own = [outcome(lambda v=v: pipeline.Model(sc.with_param(path, v))) for v in values]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            for _ in range(10):
                base = pipeline.Model(sc)
                base.with_param(path, values[0])
                shared = pool.map(
                    lambda v, base=base: outcome(lambda: base.with_param(path, v)),
                    values, timeout=60,
                )
                assert list(shared) == own
    finally:
        sys.setswitchinterval(interval)


# at --jobs 1, and at --jobs 3 with one thread per point; the --jobs 1
# cases keep their ids
@pytest.mark.parametrize("path, band_structures, phases, jobs", [
    pytest.param(*case, jobs, id="-".join(map(str, case)) + f"-jobs{jobs}" * (jobs > 1))
    for case in [("state.T", 1, 8), ("state.sigma_E", 1, 8), ("coupling.V_dd", 1, 24),
                 ("lattice.U0", 3, 24)]
    for jobs in (1, 3)
])
def test_sweep_builds_each_unreachable_stage_once(
    path, band_structures, phases, jobs, tmp_path, monkeypatch
):
    calls = []
    band_structure = lattice.band_structure
    block = diatom.TwoAtomHamiltonian.block

    def counted_band_structure(*args):
        calls.append("band_structure")
        return band_structure(*args)

    def counted_block(self, theta):
        calls.append("block")
        return block(self, theta)

    monkeypatch.setattr(lattice, "band_structure", counted_band_structure)
    monkeypatch.setattr(diatom.TwoAtomHamiltonian, "block", counted_block)
    rc, _ = run("sweep", sweep_text(TOY, path), tmp_path, "--jobs", str(jobs))
    assert rc == 0
    assert calls.count("band_structure") == band_structures
    # 8 center-of-mass phases per band; the 5 with theta <= 0 are solved
    assert calls.count("block") == phases // 8 * 5


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("values", ["0 Erec, 7.42 Erec", "7.42 Erec, 0 Erec"],
                         ids=["zero_first", "zero_last"])
def test_sweep_with_a_fault_in_a_shared_stage_prints_it_once_in_any_order(
    values, jobs, tmp_path, capsys
):
    # the 0 Erec point would fail as a singular width, but the dipole
    # profile that every point shares fails first, before any point runs
    text = NO_COUPLING.replace("parameter = state.T\nvalues = 5 nK, 10 nK",
                               f"parameter = lattice.U0\nvalues = {values}")
    assert "lattice.U0" in text
    rc, out = run("sweep", text, tmp_path, "--jobs", jobs)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {NO_DISPLACEMENT}\n"
    assert not out.exists() or not list(out.iterdir())


class RecordingPool(cli.ThreadPoolExecutor):
    """The sweep's thread pool, recording its worker and task counts."""

    workers = []
    tasks = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)
        super().__init__(max_workers)

    def submit(self, fn, *args):
        self.tasks.append(args)
        return super().submit(fn, *args)


@pytest.mark.parametrize("jobs, workers", [("64", [3]), ("2", [2]), ("1", [1])])
def test_sweep_starts_no_more_workers_than_points(jobs, workers, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "workers", [])
    monkeypatch.setattr(RecordingPool, "tasks", [])
    text = sweep_text(TOY, "state.T")
    rc, out = run("sweep", text, tmp_path, "--jobs", jobs)
    assert rc == 0
    assert RecordingPool.workers == workers
    assert len(RecordingPool.tasks) == 3  # one task per point
    assert table_hashes(out) == {"sweep.csv": SWEEP_SHA256["toy", "state.T"]}


def test_lithium_optimum_is_no_worse_than_the_golden_section_search():
    # (sigma_E_opt, s_opt) that the golden-section search with a 1e-4 a
    # tolerance returned at 10 nK and 100 nK
    searched = [(11.034115017933225, 45.5631510102764),
                (3.4893125710460415, 14.408333456359234)]
    rows = pipeline.Model(parse_scenario(LITHIUM_EXAMPLE)).optimizer_rows()
    assert len(rows) == len(searched)
    for (_, sigma_e, s, _, on_boundary), (old_sigma_e, old_s) in zip(rows, searched):
        assert s >= old_s
        assert abs(sigma_e - old_sigma_e) < 1e-4
        assert not on_boundary
