"""Scenario files: INI-style sections with unit-suffixed quantities.

Grammar: ``[section]`` headers with ``key = value`` lines; every physical
number carries a unit suffix (``323 nm``, ``0.35 W/cm^2``, ``10 nK``,
``7.42 Erec``, ``6 a``, ``50 gamma_L``).  Unknown sections or keys are
rejected.  All quantities are converted to the internal unit system
(E_rec, a, hbar/a) on load.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass, field

from .core import AtomSpecies, LaserConfig, SPECIES_PRESETS, UnitSystem
from .errors import ScenarioError

__all__ = ["Scenario", "parse_scenario", "load_scenario", "BUILTIN_SCENARIOS", "SWEEP_PARAMS"]


_QUANTITY_RE = re.compile(r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*(.*?)\s*$")

# unit -> (dimension, factor).  SI dimensions carry the factor to the SI base
# unit; internal dimensions are resolved against the scenario unit system.
_UNITS = {
    "m": ("length_si", 1.0),
    "mm": ("length_si", 1e-3),
    "um": ("length_si", 1e-6),
    "nm": ("length_si", 1e-9),
    "a": ("length_internal", 1.0),
    "J": ("energy_si", 1.0),
    "Erec": ("energy_internal", 1.0),
    "E_rec": ("energy_internal", 1.0),
    "K": ("temperature_si", 1.0),
    "mK": ("temperature_si", 1e-3),
    "uK": ("temperature_si", 1e-6),
    "nK": ("temperature_si", 1e-9),
    "W/m^2": ("intensity_si", 1.0),
    "W/cm^2": ("intensity_si", 1e4),
    "s^-1": ("rate_si", 1.0),
    "Hz": ("rate_si", 2.0 * math.pi),
    "kHz": ("rate_si", 2.0e3 * math.pi),
    "MHz": ("rate_si", 2.0e6 * math.pi),
    "gamma_L": ("linewidth_lattice", 1.0),
    "gamma_C": ("linewidth_coupling", 1.0),
    "hbar/a": ("momentum_internal", 1.0),
    "BZ": ("momentum_internal", 2.0 * math.pi),
    "": ("dimensionless", 1.0),
}

_SECTION_KEYS = {
    "species": {"preset", "name", "mass", "lambda_L", "gamma_L", "lambda_C", "gamma_C"},
    "lattice": {"lambda_L", "U0", "intensity", "detuning", "sites", "cutoff"},
    "coupling": {
        "lambda_C",
        "displacement",
        "V_dd",
        "intensity",
        "detuning",
        "dj_max",
        "include_offsite",
    },
    "state": {"mode", "sigma_E", "T", "j0"},
    "analysis": {
        "samples_per_site",
        "momentum_zones",
        "p1_measured",
        "optimizer_min",
        "optimizer_max",
        "optimizer_temperatures",
    },
    "sweep": {"parameter", "values"},
}

# sweepable parameter path -> (Scenario field, unit kind of its values)
SWEEP_PARAMS = {
    "state.T": ("temperature", "temperature_internal"),
    "state.sigma_E": ("sigma_e", "length_internal"),
    "lattice.U0": ("u0", "energy_internal"),
    "coupling.V_dd": ("v_dd", "energy_internal"),
}


def parse_quantity(text):
    """Split '323 nm' into (323.0, 'nm'); validate the unit token."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ScenarioError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    unit = m.group(2)
    if unit not in _UNITS:
        raise ScenarioError(f"unknown unit {unit!r} in {text!r}")
    return value, unit


@dataclass
class Scenario:
    """Validated scenario with every quantity in internal units."""

    species: AtomSpecies
    units: UnitSystem
    lambda_lattice: float                 # m
    u0: float                             # E_rec
    u0_direct: bool
    lattice_laser: LaserConfig | None
    n_sites: int
    cutoff: int
    lambda_coupling: float                # m
    displacement: float                   # m
    v_dd: float | None                    # E_rec (nearest-site value)
    coupling_laser: LaserConfig | None
    dj_max: int
    include_offsite: bool
    state_mode: str                       # ground | envelope | thermal
    sigma_e: float | None                 # units of a
    temperature: float                    # k_B T / E_rec
    j0: int | None
    samples_per_site: int
    momentum_zones: int
    p1_measured: float                    # hbar/a
    optimizer_lo: float                   # a
    optimizer_hi: float                   # a
    optimizer_temperatures: list = field(default_factory=list)
    sweep: tuple | None = None            # (parameter path, [internal values])
    raw_text: str = ""

    @property
    def sha256(self):
        return hashlib.sha256(self.raw_text.encode()).hexdigest()

    def with_param(self, path, value):
        """Copy of the scenario with one internal-unit parameter replaced."""
        if path not in SWEEP_PARAMS:
            raise ScenarioError(f"unsupported sweep parameter {path!r}")
        return dataclasses.replace(self, **{SWEEP_PARAMS[path][0]: value})


class _Converter:
    """Resolves parsed quantities to internal units for one scenario."""

    def __init__(self, species: AtomSpecies, units: UnitSystem):
        self.species = species
        self.units = units

    def resolve(self, text, expected):
        value, unit = parse_quantity(text)
        dim, factor = _UNITS[unit]
        si = value * factor
        if expected == "length_si":
            if dim == "length_si":
                return si
            if dim == "length_internal":
                return self.units.length_to_si(si)
        elif expected == "length_internal":
            if dim == "length_internal":
                return si
            if dim == "length_si":
                return self.units.length_from_si(si)
        elif expected == "energy_internal":
            if dim == "energy_internal":
                return si
            if dim == "energy_si":
                return self.units.energy_from_si(si)
        elif expected == "temperature_internal":
            if dim == "temperature_si":
                return self.units.temperature_from_si(si)
            if dim == "energy_internal":
                return si
        elif expected == "rate_si":
            if dim == "rate_si":
                return si
            if dim == "linewidth_lattice":
                return value * self.species.gamma_lattice
            if dim == "linewidth_coupling":
                return value * self.species.gamma_coupling
        elif expected == "intensity_si":
            if dim == "intensity_si":
                return si
        elif expected == "momentum_internal":
            if dim == "momentum_internal":
                return si
        elif expected == "dimensionless":
            if dim == "dimensionless":
                return si
        raise ScenarioError(f"value {text!r} has wrong dimension for {expected}")


def _get_bool(text, key):
    t = text.strip().lower()
    if t in ("yes", "true", "on", "1"):
        return True
    if t in ("no", "false", "off", "0"):
        return False
    raise ScenarioError(f"{key}: expected a boolean, got {text!r}")


def _get_int(text, key):
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ScenarioError(f"{key}: expected an integer, got {text!r}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # case-sensitive keys
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    if not cp.sections():
        raise ScenarioError("empty scenario: no sections found")
    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    # species
    sp = cp["species"] if cp.has_section("species") else {}
    if "preset" in sp:
        extra = set(sp) - {"preset"}
        if extra:
            raise ScenarioError(f"species preset cannot be mixed with {sorted(extra)}")
        preset = sp["preset"].strip()
        if preset not in SPECIES_PRESETS:
            raise ScenarioError(f"unknown species preset {preset!r}")
        species = SPECIES_PRESETS[preset]
    else:
        required = {"mass", "lambda_L", "gamma_L", "lambda_C", "gamma_C"}
        missing = required - set(sp)
        if missing:
            raise ScenarioError(f"species section missing keys {sorted(missing)}")
        # mass in kg; unit suffix 'kg' is implied and not written
        species = AtomSpecies(
            name=sp.get("name", "custom").strip(),
            mass=float(sp["mass"].split()[0]),
            lambda_lattice=parse_quantity(sp["lambda_L"])[0]
            * _UNITS[parse_quantity(sp["lambda_L"])[1]][1],
            gamma_lattice=float(sp["gamma_L"].split()[0]),
            lambda_coupling=parse_quantity(sp["lambda_C"])[0]
            * _UNITS[parse_quantity(sp["lambda_C"])[1]][1],
            gamma_coupling=float(sp["gamma_C"].split()[0]),
        )

    lat = cp["lattice"] if cp.has_section("lattice") else {}
    lambda_lattice = species.lambda_lattice
    units = UnitSystem(species, lambda_lattice)
    conv = _Converter(species, units)
    if "lambda_L" in lat:
        lambda_lattice = conv.resolve(lat["lambda_L"], "length_si")
        units = UnitSystem(species, lambda_lattice)
        conv = _Converter(species, units)

    has_u0 = "U0" in lat
    has_lat_laser = "intensity" in lat or "detuning" in lat
    if has_u0 == has_lat_laser:
        raise ScenarioError(
            "lattice section needs exactly one of U0 or an intensity/detuning pair"
        )
    lattice_laser = None
    if has_u0:
        u0 = conv.resolve(lat["U0"], "energy_internal")
    else:
        if "intensity" not in lat or "detuning" not in lat:
            raise ScenarioError("lattice laser block needs both intensity and detuning")
        lattice_laser = LaserConfig(
            intensity=conv.resolve(lat["intensity"], "intensity_si"),
            detuning=conv.resolve(lat["detuning"], "rate_si"),
            wavelength=lambda_lattice,
            role="lattice",
        )
        from .core import lattice_depth_from_laser

        u0 = units.energy_from_si(lattice_depth_from_laser(lattice_laser, species).u0)
    n_sites = _get_int(lat.get("sites", "32"), "sites")
    cutoff = _get_int(lat.get("cutoff", "16"), "cutoff")

    cpl = cp["coupling"] if cp.has_section("coupling") else {}
    lambda_coupling = (
        conv.resolve(cpl["lambda_C"], "length_si")
        if "lambda_C" in cpl
        else species.lambda_coupling
    )
    displacement = (
        conv.resolve(cpl["displacement"], "length_si") if "displacement" in cpl else None
    )
    has_vdd = "V_dd" in cpl
    has_cpl_laser = "intensity" in cpl or "detuning" in cpl
    v_dd = None
    coupling_laser = None
    if cpl:
        if has_vdd == has_cpl_laser:
            raise ScenarioError(
                "coupling section needs exactly one of V_dd or an intensity/detuning pair"
            )
        if displacement is None:
            raise ScenarioError("coupling section requires a displacement")
        if has_vdd:
            v_dd = conv.resolve(cpl["V_dd"], "energy_internal")
            if v_dd >= 0:
                raise ScenarioError("V_dd must be negative (attractive)")
        else:
            if "intensity" not in cpl or "detuning" not in cpl:
                raise ScenarioError("coupling laser block needs both intensity and detuning")
            coupling_laser = LaserConfig(
                intensity=conv.resolve(cpl["intensity"], "intensity_si"),
                detuning=conv.resolve(cpl["detuning"], "rate_si"),
                wavelength=lambda_coupling,
                role="coupling",
            )
    dj_max = _get_int(cpl.get("dj_max", "4"), "dj_max") if cpl else 4
    include_offsite = _get_bool(cpl.get("include_offsite", "yes"), "include_offsite") if cpl else True

    st = cp["state"] if cp.has_section("state") else {}
    state_mode = st.get("mode", "ground").strip()
    if state_mode not in ("ground", "envelope", "thermal"):
        raise ScenarioError(f"unknown state mode {state_mode!r}")
    sigma_e = conv.resolve(st["sigma_E"], "length_internal") if "sigma_E" in st else None
    if sigma_e is not None and sigma_e <= 0:
        raise ScenarioError(f"sigma_E must be positive, got {st['sigma_E'].strip()!r}")
    temperature = (
        conv.resolve(st["T"], "temperature_internal") if "T" in st else 0.0
    )
    if temperature < 0:
        raise ScenarioError("temperature must be non-negative")
    j0 = _get_int(st["j0"], "j0") if "j0" in st else None
    if state_mode == "envelope" and sigma_e is None:
        raise ScenarioError("envelope mode requires sigma_E")

    an = cp["analysis"] if cp.has_section("analysis") else {}
    samples_per_site = _get_int(an.get("samples_per_site", "32"), "samples_per_site")
    momentum_zones = _get_int(an.get("momentum_zones", "2"), "momentum_zones")
    if momentum_zones < 1:
        raise ScenarioError(f"momentum_zones must be at least 1, got {momentum_zones}")
    p1_measured = (
        conv.resolve(an["p1_measured"], "momentum_internal")
        if "p1_measured" in an
        else 0.4 * 2.0 * math.pi
    )
    optimizer_lo = conv.resolve(an.get("optimizer_min", "1 a"), "length_internal")
    optimizer_hi = conv.resolve(an.get("optimizer_max", "30 a"), "length_internal")
    if not 0 < optimizer_lo < optimizer_hi:
        raise ScenarioError("optimizer bounds must satisfy 0 < min < max")
    if "optimizer_temperatures" in an:
        opt_temps = [
            conv.resolve(part.strip(), "temperature_internal")
            for part in an["optimizer_temperatures"].split(",")
            if part.strip()
        ]
    else:
        opt_temps = [temperature] if temperature > 0 else []

    sweep = None
    if cp.has_section("sweep"):
        sw = cp["sweep"]
        if "parameter" not in sw or "values" not in sw:
            raise ScenarioError("sweep section needs parameter and values")
        path = sw["parameter"].strip()
        if path not in SWEEP_PARAMS:
            raise ScenarioError(f"unsupported sweep parameter {path!r}")
        expected = SWEEP_PARAMS[path][1]
        values = [
            conv.resolve(part.strip(), expected)
            for part in sw["values"].split(",")
            if part.strip()
        ]
        if not values:
            raise ScenarioError("sweep values list is empty")
        if path == "state.sigma_E" and min(values) <= 0:
            raise ScenarioError("sweep values of state.sigma_E must be positive")
        sweep = (path, values)

    return Scenario(
        species=species,
        units=units,
        lambda_lattice=lambda_lattice,
        u0=u0,
        u0_direct=has_u0,
        lattice_laser=lattice_laser,
        n_sites=n_sites,
        cutoff=cutoff,
        lambda_coupling=lambda_coupling,
        displacement=displacement if displacement is not None else 0.0,
        v_dd=v_dd,
        coupling_laser=coupling_laser,
        dj_max=dj_max,
        include_offsite=include_offsite,
        state_mode=state_mode,
        sigma_e=sigma_e,
        temperature=temperature,
        j0=j0,
        samples_per_site=samples_per_site,
        momentum_zones=momentum_zones,
        p1_measured=p1_measured,
        optimizer_lo=optimizer_lo,
        optimizer_hi=optimizer_hi,
        optimizer_temperatures=opt_temps,
        sweep=sweep,
        raw_text=text,
    )


LITHIUM_EXAMPLE = """\
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

BUILTIN_SCENARIOS = {"lithium-example": LITHIUM_EXAMPLE}


def load_scenario(source: str) -> Scenario:
    """Load a scenario from a builtin name or a file path."""
    if source in BUILTIN_SCENARIOS:
        return parse_scenario(BUILTIN_SCENARIOS[source])
    try:
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {source!r}: {exc}") from exc
    return parse_scenario(text)
