"""Scenario files: INI-style sections with unit-suffixed quantities.

Grammar: ``[section]`` headers with ``key = value`` lines; every physical
number carries a unit suffix (``323 nm``, ``0.35 W/cm^2``, ``10 nK``,
``7.42 Erec``, ``6 a``, ``50 gamma_L``).  One table, ``_KEYS``, lists every
key with its field, unit kind, default and rule; unknown sections or keys
are rejected.  All quantities are converted to the internal unit system
(E_rec, a, hbar/a) on load, and every malformed or out-of-range input
raises ScenarioError.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import math
import re
from dataclasses import dataclass, field

from .core import AtomSpecies, LaserConfig, SPECIES_PRESETS, UnitSystem, lattice_depth_from_laser
from .errors import DomainError, ScenarioError

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


def _same(x, units):
    return x


# (expected kind, unit dimension) -> conversion of the number times its unit
# factor, given the scenario's unit system (None for the species keys)
_CONVERSIONS = {
    ("wavelength", "length_si"): _same,
    ("mass", "dimensionless"): _same,  # kg, unit not written
    ("linewidth", "rate_si"): _same,
    ("linewidth", "dimensionless"): _same,  # s^-1, unit not written
    ("length_si", "length_si"): _same,
    ("length_si", "length_internal"): lambda x, units: units.length_to_si(x),
    ("length_internal", "length_internal"): _same,
    ("length_internal", "length_si"): lambda x, units: units.length_from_si(x),
    ("energy_internal", "energy_internal"): _same,
    ("energy_internal", "energy_si"): lambda x, units: units.energy_from_si(x),
    ("temperature_internal", "temperature_si"): lambda x, units: units.temperature_from_si(x),
    ("temperature_internal", "energy_internal"): _same,
    ("rate_si", "rate_si"): _same,
    ("rate_si", "linewidth_lattice"): lambda x, units: x * units.species.gamma_lattice,
    ("rate_si", "linewidth_coupling"): lambda x, units: x * units.species.gamma_coupling,
    ("intensity_si", "intensity_si"): _same,
    ("momentum_internal", "momentum_internal"): _same,
}

_BOOLS = {"yes": True, "true": True, "on": True, "1": True,
          "no": False, "false": False, "off": False, "0": False}

# rules: (predicate, what a value must be)
_POSITIVE = (lambda x: x > 0, "positive")
_NON_NEGATIVE = (lambda x: x >= 0, "non-negative")
_NONZERO = (lambda x: x != 0, "non-zero")


def _at_least(n):
    return (lambda x: x >= n, f"at least {n}")


def _one_of(*names):
    return (lambda x: x in names, "one of " + ", ".join(names))


_SWEEP_PATHS = ("state.T", "state.sigma_E", "lattice.U0", "coupling.V_dd")

# [section] key -> (field, unit kind, default, rule).  This table is the
# whole grammar: a key not in it is rejected, an absent key takes its
# default text, and a key without a default reads as None.  A kind in a
# list is a comma-separated list of values of that kind.
_KEYS = {
    "species": {
        "preset": ("preset", "text", None, _one_of(*SPECIES_PRESETS)),
        "name": ("name", "text", "custom", None),
        "mass": ("mass", "mass", None, _POSITIVE),
        "lambda_L": ("lambda_lattice", "wavelength", None, _POSITIVE),
        "gamma_L": ("gamma_lattice", "linewidth", None, _POSITIVE),
        "lambda_C": ("lambda_coupling", "wavelength", None, _POSITIVE),
        "gamma_C": ("gamma_coupling", "linewidth", None, _POSITIVE),
    },
    "lattice": {
        "lambda_L": ("lambda_lattice", "wavelength", None, _POSITIVE),
        "U0": ("u0", "energy_internal", None, _NON_NEGATIVE),
        "intensity": ("lattice_intensity", "intensity_si", None, _NON_NEGATIVE),
        "detuning": ("lattice_detuning", "rate_si", None, _NONZERO),
        "sites": ("n_sites", "int", "32", _at_least(8)),
        "cutoff": ("cutoff", "int", "16", _at_least(8)),
    },
    "coupling": {
        "lambda_C": ("lambda_coupling", "length_si", None, _POSITIVE),
        "displacement": ("displacement", "length_si", None, _POSITIVE),
        "V_dd": ("v_dd", "energy_internal", None, (lambda x: x < 0, "negative (attractive)")),
        "intensity": ("coupling_intensity", "intensity_si", None, _NON_NEGATIVE),
        "detuning": ("coupling_detuning", "rate_si", None, _NONZERO),
        "dj_max": ("dj_max", "int", "4", _at_least(1)),
        "include_offsite": ("include_offsite", "bool", "yes", None),
    },
    "state": {
        "mode": ("state_mode", "text", "ground", _one_of("ground", "envelope", "thermal")),
        "sigma_E": ("sigma_e", "length_internal", None, _POSITIVE),
        "T": ("temperature", "temperature_internal", "0 K", _NON_NEGATIVE),
        "j0": ("j0", "int", None, None),
    },
    "analysis": {
        "samples_per_site": ("samples_per_site", "int", "32", _at_least(4)),
        "momentum_zones": ("momentum_zones", "int", "2", _at_least(1)),
        "p1_measured": ("p1_measured", "momentum_internal", "0.4 BZ", None),
        "optimizer_min": ("optimizer_lo", "length_internal", "1 a", None),
        "optimizer_max": ("optimizer_hi", "length_internal", "30 a", None),
        "optimizer_temperatures": (
            "optimizer_temperatures", ["temperature_internal"], None, _NON_NEGATIVE
        ),
    },
    "sweep": {
        "parameter": ("sweep_path", "text", None, _one_of(*_SWEEP_PATHS)),
        "values": ("sweep_values", "text", None, None),
    },
}

# sweepable parameter path -> (Scenario field, unit kind of its values)
SWEEP_PARAMS = {
    path: _KEYS[section][key][:2]
    for path in _SWEEP_PATHS
    for section, key in [path.split(".")]
}


def parse_quantity(text):
    """Split '323 nm' into (323.0, 'nm'); validate the number and the unit token."""
    m = _QUANTITY_RE.match(text)
    if not m:
        raise ScenarioError(f"cannot parse quantity {text!r}")
    value = float(m.group(1))
    if not math.isfinite(value):
        raise ScenarioError(f"number out of range in {text!r}")
    unit = m.group(2)
    if unit not in _UNITS:
        raise ScenarioError(f"unknown unit {unit!r} in {text!r}")
    return value, unit


@dataclass
class Scenario:
    """Validated scenario with every quantity in internal units."""

    species: AtomSpecies
    units: UnitSystem
    u0: float                             # E_rec
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
    sweep_text: tuple = ()                # the sweep values as written
    sha256: str = ""                      # of the scenario document

    def with_param(self, path, value):
        """Copy of the scenario with one internal-unit parameter replaced."""
        if path not in SWEEP_PARAMS:
            raise ScenarioError(f"unsupported sweep parameter {path!r}")
        return dataclasses.replace(self, **{SWEEP_PARAMS[path][0]: value})


def _check(label, value, rule, shown):
    """``value`` if it is finite and passes ``rule``; else a ScenarioError."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{label} = {shown!r} is out of range")
    if rule is not None and not rule[0](value):
        raise ScenarioError(f"{label} must be {rule[1]}, got {shown!r}")
    return value


def _resolve(label, text, kind, rule, units=None):
    """One value of the unit kind ``kind``, in internal units and checked."""
    if isinstance(kind, list):
        parts = [part.strip() for part in text.split(",")]
        return [_resolve(label, part, kind[0], rule, units) for part in parts if part]
    if kind == "text":
        value = text.strip()
    elif kind == "int":
        try:
            value = int(text.strip())
        except ValueError as exc:
            raise ScenarioError(f"{label}: expected an integer, got {text!r}") from exc
    elif kind == "bool":
        value = _BOOLS.get(text.strip().lower())
        if value is None:
            raise ScenarioError(f"{label}: expected a boolean, got {text!r}")
    else:
        number, unit = parse_quantity(text)
        dim, factor = _UNITS[unit]
        if (kind, dim) not in _CONVERSIONS:
            raise ScenarioError(f"value {text!r} has wrong dimension for {kind}")
        value = _CONVERSIONS[kind, dim](number * factor, units)
    return _check(label, value, rule, text.strip())


def _value(cp, section, key, units=None):
    """A key's checked value, or its default's where it is absent."""
    _, kind, default, rule = _KEYS[section][key]
    text = cp.get(section, key, fallback=default)
    return None if text is None else _resolve(key, text, kind, rule, units)


def _read(cp, section, units=None):
    """Every field of a section, by field name."""
    return {spec[0]: _value(cp, section, key, units) for key, spec in _KEYS[section].items()}


def _laser(fields, role, key, wavelength):
    """The section's laser block, or None where it sets ``key`` directly."""
    intensity, detuning = fields[f"{role}_intensity"], fields[f"{role}_detuning"]
    has_laser = intensity is not None or detuning is not None
    if has_laser == (fields[_KEYS[role][key][0]] is not None):
        raise ScenarioError(
            f"{role} section needs exactly one of {key} or an intensity/detuning pair"
        )
    if not has_laser:
        return None
    if intensity is None or detuning is None:
        raise ScenarioError(f"{role} laser block needs both intensity and detuning")
    return LaserConfig(intensity=intensity, detuning=detuning, wavelength=wavelength)


def _species(cp):
    """A preset alone, or every key without a default written out."""
    sp = _read(cp, "species")
    preset = sp.pop("preset")
    if preset is not None:
        extra = set(cp["species"]) - {"preset"}
        if extra:
            raise ScenarioError(f"species preset cannot be mixed with {sorted(extra)}")
        return SPECIES_PRESETS[preset]
    missing = [k for k, (name, *_) in _KEYS["species"].items() if name in sp and sp[name] is None]
    if missing:
        raise ScenarioError(f"species section missing keys {sorted(missing)}")
    return AtomSpecies(**sp)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document."""
    try:
        return _parse(text)
    except (DomainError, ArithmeticError) as exc:  # from the records built of the values
        raise ScenarioError(f"scenario out of range: {exc}") from exc


def _parse(text):
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # case-sensitive keys
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    if not cp.sections():
        raise ScenarioError("empty scenario: no sections found")
    for section in cp.sections():
        if section not in _KEYS:
            raise ScenarioError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _KEYS[section]:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    species = _species(cp)
    # the lattice wavelength sets the units that the other keys resolve in
    try:
        units = UnitSystem(species, _value(cp, "lattice", "lambda_L"))
    except ArithmeticError:  # m lambda_L^2 overflows, or underflows to 0
        units = None
    if units is None or not units.e_rec > 0:
        raise ScenarioError("mass and lattice wavelength give no finite recoil energy")
    fields = dict(species=species, units=units, sha256=hashlib.sha256(text.encode()).hexdigest())
    for section in ("lattice", "coupling", "state", "analysis", "sweep"):
        fields.update(_read(cp, section, units))
    fields["lambda_coupling"] = fields["lambda_coupling"] or species.lambda_coupling

    laser = _laser(fields, "lattice", "U0", units.lambda_lattice)
    if laser is not None:
        u0 = units.energy_from_si(lattice_depth_from_laser(laser, species))
        fields["u0"] = _check("U0 of the laser block", u0, _KEYS["lattice"]["U0"][3], f"{u0} Erec")
    fields["coupling_laser"] = None
    if cp.has_section("coupling") and cp["coupling"]:
        fields["coupling_laser"] = _laser(fields, "coupling", "V_dd", fields["lambda_coupling"])
        if fields["displacement"] is None:
            raise ScenarioError("coupling section requires a displacement")
    fields["displacement"] = fields["displacement"] or 0.0

    if fields["state_mode"] == "envelope" and fields["sigma_e"] is None:
        raise ScenarioError("envelope mode requires sigma_E")
    if fields["j0"] is not None and not 0 <= fields["j0"] < fields["n_sites"]:
        raise ScenarioError(f"j0 must lie in [0, sites), got {fields['j0']}")
    if not 0 < fields["optimizer_lo"] < fields["optimizer_hi"]:
        raise ScenarioError("optimizer bounds must satisfy 0 < min < max")
    if fields["optimizer_temperatures"] is None:
        fields["optimizer_temperatures"] = [t for t in [fields["temperature"]] if t > 0]

    fields["sweep"], fields["sweep_text"] = None, ()
    if cp.has_section("sweep"):
        path, text = fields["sweep_path"], fields["sweep_values"]
        if path is None or text is None:
            raise ScenarioError("sweep section needs parameter and values")
        section, key = path.split(".")
        _, kind, _, rule = _KEYS[section][key]
        values = _resolve(path, text, [kind], rule, units)
        if not values:
            raise ScenarioError("sweep values list is empty")
        fields["sweep"] = (path, values)
        fields["sweep_text"] = tuple(part.strip() for part in text.split(",") if part.strip())
    return Scenario(**{f.name: fields[f.name] for f in dataclasses.fields(Scenario)})


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
