"""Shared fixtures: precomputed lattice/diatom results for the worked
lithium parameters, cached once per session."""

import numpy as np
import pytest

from lattice_epr import diatom, dipole, lattice

U0_LI = 7.42
VDD_LI = -2.16


@pytest.fixture(scope="session")
def li_spectrum():
    return lattice.band_structure(U0_LI, 32, 16)


@pytest.fixture(scope="session")
def li_hopping(li_spectrum):
    return lattice.hopping_exact(li_spectrum)


@pytest.fixture(scope="session")
def li_wannier(li_spectrum):
    return lattice.wannier(li_spectrum, 32, site=0)


def nearest_only_profile(v_dd0):
    """Interaction profile with only the same-site value set (toy model)."""
    return dipole.InteractionProfile(
        offsets=np.arange(2),
        separations=np.array([1.0, 1.0]),
        angles=np.array([np.pi / 2.0, 0.0]),
        values=np.array([v_dd0, 0.0]),
    )


@pytest.fixture(scope="session")
def li_profile():
    return nearest_only_profile(VDD_LI)


@pytest.fixture(scope="session")
def li_diatom_32(li_hopping, li_profile):
    return diatom.build_hamiltonian(32, li_hopping.v_hop, li_profile)


@pytest.fixture(scope="session")
def li_band_32(li_diatom_32):
    return diatom.diatom_band_exact(li_diatom_32)


@pytest.fixture(scope="session")
def li_ground_32(li_band_32):
    return diatom.thermal_diatom_state(li_band_32, 0.0)
