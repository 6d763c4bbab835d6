"""Entangled translational states of dipole-dipole coupled atoms in
adjacent one-dimensional optical lattices.

The package computes single-atom band structure and Wannier orbitals,
the laser-induced dipole-dipole interaction between two atoms trapped in
parallel displaced lattices, the bound two-atom band, thermal and
envelope-modulated pair states, and the resulting EPR-type position and
momentum correlations.
"""

from .core import (
    AtomSpecies,
    LaserConfig,
    LITHIUM,
    SPECIES_PRESETS,
    UnitSystem,
    recoil_energy,
)
from .errors import LatticeEprError
from .scenario import Scenario, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AtomSpecies",
    "LaserConfig",
    "LITHIUM",
    "SPECIES_PRESETS",
    "UnitSystem",
    "recoil_energy",
    "LatticeEprError",
    "Scenario",
    "load_scenario",
    "parse_scenario",
]
