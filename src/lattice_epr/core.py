"""Species and laser parameter records, unit system, scalar conversions.

Internal unit convention used throughout the package:

* energy      -- recoil energy E_rec of the active lattice,
* length      -- lattice constant a = lambda_L / 2,
* momentum    -- hbar / a,
* temperature -- k_B * T expressed in E_rec.

With these units the single-particle kinetic energy of a plane wave with
dimensionless momentum ``p`` is ``p**2 / pi**2`` (in E_rec), which is the only
place the atomic mass enters the lattice problem.  SI values appear at API
boundaries only, converted through :class:`UnitSystem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import C_LIGHT, EPSILON_0, HBAR, H_PLANCK, K_B
from .errors import DomainError, SingularityError

__all__ = [
    "AtomSpecies",
    "LaserConfig",
    "UnitSystem",
    "recoil_energy",
    "dipole_moment_sq_from_linewidth",
    "saturation_intensity",
    "lattice_depth_from_laser",
    "LITHIUM",
    "SPECIES_PRESETS",
]


@dataclass(frozen=True)
class AtomSpecies:
    """Atomic parameters: one lattice transition and one coupling transition.

    All fields in SI.  ``gamma_*`` are natural linewidths (s^-1),
    ``lambda_*`` transition wavelengths (m).
    """

    name: str
    mass: float
    lambda_lattice: float
    gamma_lattice: float
    lambda_coupling: float
    gamma_coupling: float

    def __post_init__(self):
        if self.mass <= 0:
            raise DomainError("atomic mass must be positive")
        for attr in ("lambda_lattice", "lambda_coupling"):
            if getattr(self, attr) <= 0:
                raise DomainError(f"{attr} must be positive")
        for attr in ("gamma_lattice", "gamma_coupling"):
            if getattr(self, attr) <= 0:
                raise DomainError(f"{attr} must be positive")

    @property
    def omega_coupling(self):
        """Angular frequency of the coupling transition, 2 pi c / lambda_C."""
        return 2.0 * math.pi * C_LIGHT / self.lambda_coupling


@dataclass(frozen=True)
class LaserConfig:
    """A single driving field.

    ``detuning`` is the absolute detuning omega - omega_atom in s^-1 (often
    specified as a multiple of the transition linewidth).
    """

    intensity: float            # W/m^2
    detuning: float             # s^-1
    wavelength: float           # m

    def __post_init__(self):
        if self.intensity < 0:
            raise DomainError("laser intensity must be non-negative")
        if self.wavelength <= 0:
            raise DomainError("laser wavelength must be positive")

    @property
    def wavevector(self):
        return 2.0 * math.pi / self.wavelength


# Parameters of the worked lithium scheme: lattice on the 2s-3p line,
# dipole coupling on the 2s-2p line.
LITHIUM = AtomSpecies(
    name="lithium",
    mass=1.165e-26,
    lambda_lattice=323e-9,
    gamma_lattice=1.2e6,
    lambda_coupling=670.8e-9,
    gamma_coupling=3.7e7,
)

SPECIES_PRESETS = {LITHIUM.name: LITHIUM}


def recoil_energy(mass, lambda_lattice):
    """Recoil energy 2 pi^2 hbar^2 / (m lambda_L^2) in joules."""
    if mass <= 0 or lambda_lattice <= 0:
        raise DomainError("mass and wavelength must be positive")
    return 2.0 * math.pi**2 * HBAR**2 / (mass * lambda_lattice**2)


def dipole_moment_sq_from_linewidth(gamma, omega_a):
    """|mu|^2 (C^2 m^2) of a two-level transition from its spontaneous rate.

    Inverts gamma = omega_A^3 |mu|^2 / (3 pi eps0 hbar c^3).
    """
    if gamma <= 0 or omega_a <= 0:
        raise DomainError("linewidth and transition frequency must be positive")
    return 3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3 * gamma / omega_a**3


def saturation_intensity(gamma, wavelength):
    """Two-level saturation intensity pi h c gamma / (3 lambda^3), W/m^2."""
    if gamma <= 0 or wavelength <= 0:
        raise DomainError("linewidth and wavelength must be positive")
    return math.pi * H_PLANCK * C_LIGHT * gamma / (3.0 * wavelength**3)


def lattice_depth_from_laser(laser: LaserConfig, species: AtomSpecies) -> float:
    """Two-level light-shift estimate of the lattice depth U0, in joules.

    Uses U0 = hbar Omega^2 / (4 delta) with Omega^2 = gamma^2 I / (2 I_sat).
    A scenario's ``[lattice]`` laser block (intensity and detuning in place
    of ``U0``) sets U0 through this helper, on the lattice transition.  This
    standard chain does not reproduce the depth quoted for the lithium scheme
    from its quoted intensity and detuning, which is why the builtin example
    sets U0 directly.
    """
    if laser.detuning == 0:
        raise SingularityError("light shift diverges at zero detuning")
    gamma = species.gamma_lattice
    i_sat = saturation_intensity(gamma, laser.wavelength)
    rabi_sq = gamma**2 * laser.intensity / (2.0 * i_sat)
    return HBAR * rabi_sq / (4.0 * laser.detuning)


class UnitSystem:
    """Conversions between SI and the internal (E_rec, a, hbar/a) units."""

    def __init__(self, species: AtomSpecies, lambda_lattice=None):
        self.species = species
        self.lambda_lattice = lambda_lattice or species.lambda_lattice
        self.a = self.lambda_lattice / 2.0
        self.e_rec = recoil_energy(species.mass, self.lambda_lattice)

    # energies
    def energy_from_si(self, e_si):
        return e_si / self.e_rec

    # lengths
    def length_to_si(self, x):
        return x * self.a

    def length_from_si(self, x_si):
        return x_si / self.a

    # temperatures: internal value is k_B T / E_rec
    def temperature_to_si(self, t):
        return t * self.e_rec / K_B

    def temperature_from_si(self, t_si):
        return t_si * K_B / self.e_rec
