"""Scenario grammar: unit parsing, validation, builtin example."""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lattice_epr import scenario
from lattice_epr.cli import main
from lattice_epr.core import LITHIUM, LaserConfig, lattice_depth_from_laser
from lattice_epr.errors import ScenarioError
from test_cli import TOY, TOY16

MINIMAL = """\
[species]
preset = lithium

[lattice]
U0 = 7.42 Erec
sites = 32
"""

INLINE_SPECIES = (
    "[species]\nname = custom\nmass = 1.165e-26\nlambda_L = 323 nm\n"
    "gamma_L = 1.2e6\nlambda_C = 670.8 nm\ngamma_C = 3.7e7"
)
LATTICE_LASER = "intensity = 0.35 W/cm^2\ndetuning = 50 gamma_L"


def make(text):
    return scenario.parse_scenario(text)


def test_parse_quantity():
    assert scenario.parse_quantity("323 nm") == (323.0, "nm")
    assert scenario.parse_quantity("-2.16 Erec") == (-2.16, "Erec")
    assert scenario.parse_quantity("1e-3 K") == (1e-3, "K")
    assert scenario.parse_quantity("42") == (42.0, "")
    with pytest.raises(ScenarioError):
        scenario.parse_quantity("fast nm")
    with pytest.raises(ScenarioError):
        scenario.parse_quantity("3 furlongs")
    for text in ("1e999 nm", "-1e999 Erec", "1e999"):
        with pytest.raises(ScenarioError, match="out of range"):
            scenario.parse_quantity(text)


def test_builtin_lithium_example_values():
    sc = scenario.load_scenario("lithium-example")
    assert sc.species.name == "lithium"
    assert sc.u0 == pytest.approx(7.42)
    assert sc.v_dd == pytest.approx(-2.16)
    assert sc.displacement == pytest.approx(40e-9)
    assert sc.sigma_e == pytest.approx(6.0)
    assert sc.state_mode == "thermal"
    # 10 nK in units of the 13.08 uK lithium recoil temperature
    assert sc.temperature == pytest.approx(10e-9 / 13.08e-6, rel=1e-3)
    assert sc.p1_measured == pytest.approx(0.4 * 2.0 * math.pi)
    assert len(sc.optimizer_temperatures) == 2


def test_empty_input_rejected():
    with pytest.raises(ScenarioError):
        make("")


def test_unknown_section_and_key_rejected():
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[plotting]\ncolor = red\n")
    with pytest.raises(ScenarioError):
        make(MINIMAL.replace("sites = 32", "sights = 32"))


def test_exactly_one_lattice_depth_source():
    # both U0 and a laser block
    text = MINIMAL.replace(
        "U0 = 7.42 Erec", "U0 = 7.42 Erec\nintensity = 0.35 W/cm^2\ndetuning = 50 gamma_L"
    )
    with pytest.raises(ScenarioError):
        make(text)
    # neither
    with pytest.raises(ScenarioError):
        make("[species]\npreset = lithium\n\n[lattice]\nsites = 32\n")


def test_control_case_parses():
    sc = make(MINIMAL)
    assert sc.u0 == pytest.approx(7.42)
    assert sc.n_sites == 32
    assert sc.v_dd is None


def test_lattice_laser_block():
    text = MINIMAL.replace(
        "U0 = 7.42 Erec", "intensity = 0.35 W/cm^2\ndetuning = 50 gamma_L"
    )
    sc = make(text)
    laser = LaserConfig(intensity=3500.0, detuning=50 * 1.2e6, wavelength=323e-9)
    assert sc.u0 == sc.units.energy_from_si(lattice_depth_from_laser(laser, LITHIUM))


def test_coupling_block_validation():
    base = MINIMAL + "\n[coupling]\ndisplacement = 40 nm\n"
    with pytest.raises(ScenarioError):
        make(base)  # neither V_dd nor a laser block
    with pytest.raises(ScenarioError):
        make(base + "V_dd = 2.16 Erec\n")  # repulsive value rejected
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[coupling]\nV_dd = -2.16 Erec\n")  # no displacement
    sc = make(base + "V_dd = -2.16 Erec\n")
    assert sc.v_dd == pytest.approx(-2.16)


def test_wrong_dimension_rejected():
    with pytest.raises(ScenarioError):
        make(MINIMAL.replace("7.42 Erec", "7.42 nm"))
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[state]\nT = 10 nm\n")


def test_state_block():
    sc = make(MINIMAL + "\n[state]\nmode = envelope\nsigma_E = 4 a\nj0 = 16\n")
    assert sc.state_mode == "envelope"
    assert sc.sigma_e == pytest.approx(4.0)
    assert sc.j0 == 16
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[state]\nmode = envelope\n")  # sigma_E required
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[state]\nmode = squeezed\n")
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[state]\nT = -1 nK\n")


def test_unit_conversions_in_context():
    sc = make(
        MINIMAL
        + "\n[analysis]\np1_measured = 0.25 BZ\n"
        + "\n[state]\nT = 1 uK\n"
    )
    assert sc.p1_measured == pytest.approx(0.25 * 2.0 * math.pi)
    assert sc.temperature == pytest.approx(1e-6 / 13.08e-6, rel=1e-3)


def test_temperature_in_recoil_units():
    sc = make(MINIMAL + "\n[state]\nT = 0.5 Erec\n")
    assert sc.temperature == pytest.approx(0.5)


def test_sweep_block():
    sc = make(MINIMAL + "\n[sweep]\nparameter = state.T\nvalues = 10 nK, 20 nK\n")
    path, values = sc.sweep
    assert path == "state.T"
    assert len(values) == 2
    assert values[1] == pytest.approx(2.0 * values[0])
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[sweep]\nparameter = species.mass\nvalues = 1, 2\n")
    with pytest.raises(ScenarioError):
        make(MINIMAL + "\n[sweep]\nparameter = state.T\nvalues =\n")


def test_with_param_replaces_value():
    sc = make(MINIMAL + "\n[state]\nT = 10 nK\n")
    hot = sc.with_param("state.T", 2.0 * sc.temperature)
    assert hot.temperature == pytest.approx(2.0 * sc.temperature)
    assert hot.u0 == sc.u0
    with pytest.raises(ScenarioError):
        sc.with_param("species.mass", 1.0)


def test_sha256_tracks_text():
    a = make(MINIMAL)
    b = make(MINIMAL)
    c = make(MINIMAL + "\n# a comment\n")
    assert a.sha256 == b.sha256
    assert a.sha256 != c.sha256


def test_inline_species_definition():
    text = MINIMAL.replace("[species]\npreset = lithium", INLINE_SPECIES)
    sc = make(text)
    assert sc.species.name == "custom"
    assert sc.species.lambda_lattice == pytest.approx(323e-9)
    # preset mixed with overrides is rejected
    with pytest.raises(ScenarioError):
        make(MINIMAL.replace("preset = lithium", "preset = lithium\nmass = 1e-26"))


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        scenario.load_scenario(str(tmp_path / "missing.ini"))
    path = tmp_path / "ok.ini"
    path.write_text(MINIMAL)
    sc = scenario.load_scenario(str(path))
    assert sc.u0 == pytest.approx(7.42)


@pytest.mark.parametrize("zones", [0, -1])
def test_momentum_zones_below_one_rejected(zones, tmp_path, capsys):
    text = MINIMAL + f"\n[analysis]\nmomentum_zones = {zones}\n"
    with pytest.raises(ScenarioError, match="momentum_zones"):
        make(text)
    path = tmp_path / "zones.ini"
    path.write_text(text)
    rc = main(["distributions", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "momentum_zones" in err
    assert not (tmp_path / "out").exists()


# the builtin example, and variants with an inline species and with a lattice
# laser block in place of U0
_BASES = (
    scenario.LITHIUM_EXAMPLE,
    scenario.LITHIUM_EXAMPLE.replace("[species]\npreset = lithium", INLINE_SPECIES),
    scenario.LITHIUM_EXAMPLE.replace("U0 = 7.42 Erec", LATTICE_LASER),
)
# every "key = value" line of each base, as (base, start, end) of the value
_EXAMPLE_VALUES = [
    (base, *m.span(1))
    for base in _BASES
    for m in re.finditer(r"^\w+ = (.*)$", base, re.MULTILINE)
]
_NUMBERS = st.one_of(st.integers().map(str), st.floats().map(repr))
_QUANTITIES = st.builds(
    "{} {}".format,
    _NUMBERS,
    st.one_of(st.sampled_from(sorted(scenario._UNITS)), st.text(max_size=8)),
)


@settings(max_examples=600, deadline=None)
@given(
    span=st.sampled_from(_EXAMPLE_VALUES),
    value=st.one_of(st.text(), _NUMBERS, _QUANTITIES),
)
def test_parse_scenario_raises_only_scenario_error(span, value):
    base, start, end = span
    text = base[:start] + value + base[end:]
    try:
        scenario.parse_scenario(text)
    except ScenarioError:
        pass


@pytest.mark.parametrize("mode", ["thermal", "envelope"])
@pytest.mark.parametrize("sigma_e", ["0 a", "-2 a"])
def test_non_positive_sigma_e_rejected(mode, sigma_e, tmp_path, capsys):
    text = MINIMAL + f"\n[state]\nmode = {mode}\nT = 10 nK\nsigma_E = {sigma_e}\n"
    with pytest.raises(ScenarioError, match="sigma_E"):
        make(text)
    path = tmp_path / "sigma.ini"
    path.write_text(text)
    rc = main(["distributions", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigma_E" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["0 a", "-2 a"])
def test_non_positive_sigma_e_sweep_value_rejected(value):
    with pytest.raises(ScenarioError, match="sigma_E"):
        make(MINIMAL + f"\n[sweep]\nparameter = state.sigma_E\nvalues = 4 a, {value}\n")


def assert_rejected(text, command, match, tmp_path, capsys):
    """``text`` fails to parse with ScenarioError, and the CLI exits 2 with
    one error line and writes no table."""
    with pytest.raises(ScenarioError, match=match):
        make(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out), "--jobs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and re.search(match, err)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("report", TOY.replace("U0 = 7.42 Erec", "U0 = 1e999 Erec")),
        ("distributions", TOY.replace("U0 = 7.42 Erec", "U0 = 1e999 Erec")),
        ("report", TOY16.replace("T = 10 nK", "T = 1e999 nK")),
        ("report", TOY.replace("V_dd = -2.16 Erec", "V_dd = -1e999 Erec")),
        ("sweep", TOY + "\n[sweep]\nparameter = lattice.U0\nvalues = 7.42 Erec, 1e999 Erec\n"),
    ],
    ids=["U0-report", "U0-distributions", "T", "V_dd", "U0-sweep"],
)
def test_non_finite_number_rejected(command, text, tmp_path, capsys):
    assert_rejected(text, command, "out of range", tmp_path, capsys)


def test_converted_value_out_of_float_range_rejected():
    with pytest.raises(ScenarioError, match="optimizer_max = '1e308 m' is out of range"):
        make(MINIMAL + "\n[analysis]\noptimizer_max = 1e308 m\n")


CUSTOM_TOY = TOY.replace("[species]\npreset = lithium", INLINE_SPECIES)
LASER_TOY = TOY.replace("U0 = 7.42 Erec", LATTICE_LASER)


@pytest.mark.parametrize(
    "text, match",
    [
        (CUSTOM_TOY.replace("mass = 1.165e-26", "mass = abc"), "'abc'"),
        (CUSTOM_TOY.replace("mass = 1.165e-26", "mass ="), "''"),
        (CUSTOM_TOY.replace("mass = 1.165e-26", "mass = -1"), "mass must be positive"),
        (CUSTOM_TOY.replace("lambda_L = 323 nm", "lambda_L = 323 nK"), "wavelength"),
        (CUSTOM_TOY.replace("gamma_C = 3.7e7", "gamma_C = 3.7e7 gamma_L"), "linewidth"),
        (LASER_TOY.replace("detuning = 50 gamma_L", "detuning = 0 gamma_L"), "non-zero"),
        (LASER_TOY.replace("intensity = 0.35", "intensity = -0.35"), "non-negative"),
        (LASER_TOY.replace("detuning = 50", "detuning = -50"), "U0 of the laser block"),
        (LASER_TOY.replace("intensity = 0.35", "intensity = 1e300"), "out of range"),
    ],
    ids=["mass-text", "mass-empty", "mass-negative", "lambda-temperature",
         "gamma-self", "detuning-zero", "intensity-negative", "blue-detuned", "u0-overflow"],
)
def test_malformed_species_and_laser_block_rejected(text, match, tmp_path, capsys):
    assert_rejected(text, "report", match, tmp_path, capsys)


def test_inline_species_keys_resolve_their_units():
    sc = make(CUSTOM_TOY.replace("gamma_L = 1.2e6", "gamma_L = 1.2e6 MHz"))
    assert sc.species.gamma_lattice == pytest.approx(1.2e6 * 2e6 * math.pi)
    sc = make(CUSTOM_TOY.replace("gamma_C = 3.7e7", "gamma_C = 3.7e7 s^-1"))
    assert sc.species.gamma_coupling == 3.7e7 and sc.species.mass == 1.165e-26


def test_species_and_lattice_wavelengths_take_si_lengths_only():
    with pytest.raises(ScenarioError, match="wavelength"):
        make(MINIMAL.replace("U0 = 7.42 Erec", "U0 = 7.42 Erec\nlambda_L = 2 a"))
    sc = make(MINIMAL.replace("U0 = 7.42 Erec", "U0 = 7.42 Erec\nlambda_L = 0.4 um"))
    assert sc.units.lambda_lattice == pytest.approx(4e-7) and sc.units.a == pytest.approx(2e-7)


@pytest.mark.parametrize(
    "command, old, new, match",
    [
        ("report", "sites = 8", "sites = 4", "sites must be at least 8"),
        ("report", "cutoff = 16", "cutoff = 4", "cutoff must be at least 8"),
        ("distributions", "samples_per_site = 32", "samples_per_site = 2",
         "samples_per_site must be at least 4"),
        ("report", "V_dd = -2.16 Erec", "V_dd = -2.16 Erec\ndj_max = 0", "dj_max must be at least 1"),
        ("report", "displacement = 40 nm", "displacement = 0 nm", "displacement must be positive"),
        ("report", "displacement = 40 nm", "displacement = -40 nm", "displacement must be positive"),
        ("distributions", "mode = ground", "mode = envelope\nsigma_E = 1 a\nj0 = 999",
         r"j0 must lie in \[0, sites\), got 999"),
        ("distributions", "mode = ground", "mode = envelope\nsigma_E = 1 a\nj0 = 8",
         r"j0 must lie in \[0, sites\), got 8"),
        ("distributions", "mode = ground", "mode = envelope\nsigma_E = 1 a\nj0 = -1",
         r"j0 must lie in \[0, sites\), got -1"),
        ("optimize", "momentum_zones = 2", "optimizer_temperatures = 10 nK, -5 nK",
         "optimizer_temperatures must be non-negative"),
    ],
    ids=["sites", "cutoff", "samples_per_site", "dj_max", "displacement-zero",
         "displacement-negative", "j0-far", "j0-sites", "j0-negative", "optimizer-T"],
)
def test_out_of_range_value_rejected_at_parse(command, old, new, match, tmp_path, capsys):
    assert old in TOY
    assert_rejected(TOY.replace(old, new), command, match, tmp_path, capsys)


@pytest.mark.parametrize(
    "path, values, match",
    [
        ("coupling.V_dd", "-2 Erec, 1 Erec", "coupling.V_dd must be negative .*'1 Erec'"),
        ("state.T", "5 nK, -5 nK", "state.T must be non-negative, got '-5 nK'"),
        ("lattice.U0", "7.42 Erec, -1 Erec", "lattice.U0 must be non-negative"),
    ],
)
def test_sweep_value_meets_the_rule_of_its_key(path, values, match, tmp_path, capsys):
    text = TOY + f"\n[sweep]\nparameter = {path}\nvalues = {values}\n"
    assert_rejected(text, "sweep", match, tmp_path, capsys)


def test_sweep_params_come_from_the_key_table():
    for path, (field, kind) in scenario.SWEEP_PARAMS.items():
        section, key = path.split(".")
        assert scenario._KEYS[section][key][:2] == (field, kind)
    assert sorted(scenario.SWEEP_PARAMS) == ["coupling.V_dd", "lattice.U0", "state.T", "state.sigma_E"]


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_scenario_block_parses():
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    sc = make(block)
    assert sc.u0 == pytest.approx(7.42) and sc.sweep[0] == "state.T"


def test_readme_lists_every_key_with_its_default_and_rule():
    text = README.read_text()
    for section, keys in scenario._KEYS.items():
        for key, (_, _, default, rule) in keys.items():
            shown = "—" if default is None else f"`{default}`"
            bound = "—" if rule is None else rule[1]
            assert f"| `[{section}]` | `{key}` | {shown} | {bound} |" in text
