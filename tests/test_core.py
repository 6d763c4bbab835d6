"""Species records, scalar conversions, and the internal unit system."""

import math

import pytest
from hypothesis import given, strategies as st

from lattice_epr import core
from lattice_epr.constants import HBAR, K_B
from lattice_epr.errors import DomainError, SingularityError


def test_lithium_recoil_energy():
    e_rec = core.recoil_energy(core.LITHIUM.mass, core.LITHIUM.lambda_lattice)
    assert e_rec == pytest.approx(1.806e-28, rel=1e-3)


def test_recoil_energy_rejects_bad_input():
    with pytest.raises(DomainError):
        core.recoil_energy(0.0, 323e-9)
    with pytest.raises(DomainError):
        core.recoil_energy(1e-26, -1.0)


def test_species_validation():
    with pytest.raises(DomainError):
        core.AtomSpecies("bad", -1.0, 323e-9, 1e6, 671e-9, 3.7e7)
    with pytest.raises(DomainError):
        core.AtomSpecies("bad", 1e-26, 323e-9, 0.0, 671e-9, 3.7e7)


def test_species_transition_frequencies():
    sp = core.LITHIUM
    assert sp.omega_coupling == pytest.approx(2.0 * math.pi * 2.998e8 / 670.8e-9, rel=1e-3)


def test_laser_config_validation():
    with pytest.raises(DomainError):
        core.LaserConfig(intensity=-1.0, detuning=1e8, wavelength=671e-9)
    laser = core.LaserConfig(intensity=1.0, detuning=1e8, wavelength=671e-9)
    assert laser.wavevector == pytest.approx(2.0 * math.pi / 671e-9)


def test_dipole_moment_roundtrip():
    sp = core.LITHIUM
    mu_sq = core.dipole_moment_sq_from_linewidth(sp.gamma_coupling, sp.omega_coupling)
    # invert back to the linewidth
    from lattice_epr.constants import C_LIGHT, EPSILON_0

    gamma = sp.omega_coupling**3 * mu_sq / (3.0 * math.pi * EPSILON_0 * HBAR * C_LIGHT**3)
    assert gamma == pytest.approx(sp.gamma_coupling, rel=1e-12)


def test_lithium_coupling_line_saturation_intensity():
    # the lithium resonance line saturates around 2.5 mW/cm^2
    i_sat = core.saturation_intensity(3.7e7, 670.8e-9)
    assert i_sat == pytest.approx(25.5, rel=0.02)


def test_lattice_depth_from_laser_is_the_two_level_light_shift():
    laser = core.LaserConfig(intensity=3500.0, detuning=50 * 1.2e6, wavelength=323e-9)
    u0 = core.lattice_depth_from_laser(laser, core.LITHIUM)
    # U0 = hbar Omega^2 / (4 delta), Omega^2 = gamma^2 I / (2 I_sat), on the lattice line
    i_sat = core.saturation_intensity(1.2e6, 323e-9)
    assert u0 == pytest.approx(HBAR * 1.2e6**2 * 3500.0 / (2.0 * i_sat) / (4.0 * 50 * 1.2e6))
    assert u0 > 0


def test_lattice_depth_zero_detuning():
    laser = core.LaserConfig(intensity=3500.0, detuning=0.0, wavelength=323e-9)
    with pytest.raises(SingularityError):
        core.lattice_depth_from_laser(laser, core.LITHIUM)


def test_unit_system_scales():
    u = core.UnitSystem(core.LITHIUM)
    assert u.a == pytest.approx(161.5e-9)
    assert u.e_rec == pytest.approx(1.806e-28, rel=1e-3)
    # 10 nK in internal units
    assert u.temperature_from_si(10e-9) == pytest.approx(10e-9 * K_B / u.e_rec)


@given(st.floats(min_value=1e-12, max_value=1e12))
def test_unit_roundtrips(value):
    u = core.UnitSystem(core.LITHIUM)
    assert u.length_from_si(u.length_to_si(value)) == pytest.approx(value, rel=1e-12)
    assert u.temperature_from_si(u.temperature_to_si(value)) == pytest.approx(
        value, rel=1e-12
    )
