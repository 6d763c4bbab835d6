"""End-to-end acceptance checks against the worked lithium reference scheme.

Every quantitative target and tolerance here is pinned; the suite exercises
the full chain from lattice depth to the EPR figures of merit.
"""

import math

import numpy as np
import pytest

from lattice_epr import analysis, core, diatom, dipole, lattice
from conftest import U0_LI, VDD_LI, nearest_only_profile


# 1. Hopping from the exact bands ------------------------------------------

def test_hopping_value(li_hopping):
    assert li_hopping.v_hop == pytest.approx(-0.0355, rel=0.05)


def test_exponential_estimate_reads_as_bandwidth(li_hopping):
    est = lattice.hopping_approx(U0_LI)
    assert est.value == pytest.approx(4.0 * abs(li_hopping.v_hop), rel=0.05)


# 2. Perturbative diatom hopping -------------------------------------------

def test_perturbative_diatom_hopping(li_hopping):
    v2 = diatom.hopping_two_atom(li_hopping.v_hop, VDD_LI)
    assert v2 == pytest.approx(-0.0012, rel=0.05)


def test_exact_bound_band_matches_perturbation(li_diatom_32, li_hopping):
    band = diatom.diatom_band_exact(li_diatom_32)
    v2 = diatom.hopping_two_atom(li_hopping.v_hop, VDD_LI)
    assert band.v_hop_fit == pytest.approx(v2, rel=0.15)


# 3. Effective-mass ratio ---------------------------------------------------

def test_mass_ratio_value(li_hopping):
    ratio = diatom.effective_mass_ratio_two_atom(li_hopping.v_hop, VDD_LI)
    assert ratio == pytest.approx(30.0, rel=0.05)


def test_curvature_mass_matches_closed_form(li_diatom_32, li_hopping):
    band = diatom.diatom_band_exact(li_diatom_32)
    closed = diatom.effective_mass_two_atom(li_hopping.v_hop, VDD_LI)
    assert band.m_eff_ratio_curvature == pytest.approx(closed, rel=0.15)


# 4. Wannier width ----------------------------------------------------------

def test_harmonic_width_value():
    width = lattice.wannier_gaussian_width(U0_LI)
    assert width.sigma == pytest.approx(0.136, rel=0.02)
    # 0.136 a is 22 nm on the 161.5 nm lattice
    units = core.UnitSystem(core.LITHIUM)
    assert units.length_to_si(width.sigma) == pytest.approx(22e-9, rel=0.02)


def test_conditional_position_slice_width(li_ground_32, li_wannier):
    sigma = lattice.wannier_gaussian_width(U0_LI).sigma
    grid = analysis.joint_position_density(li_ground_32, li_wannier, 32)
    sl = analysis.conditional_density(grid, 16.5)
    pm = analysis.peak_metrics(sl.x, sl.density)
    assert pm.hwhm / analysis.GAUSS_HWHM == pytest.approx(sigma, rel=0.15)


# 5. s-parameter chain ------------------------------------------------------

def test_s_parameter_at_10_and_100_nanokelvin():
    sigma = lattice.wannier_gaussian_width(U0_LI).sigma
    units = core.UnitSystem(core.LITHIUM)
    t10 = units.temperature_from_si(10e-9)
    t100 = units.temperature_from_si(100e-9)
    s10 = analysis.s_estimate(6.0, sigma, t10)
    s100 = analysis.s_estimate(6.0, sigma, t100)
    assert s10 == pytest.approx(30.0, rel=0.10)
    assert s100 == pytest.approx(11.0, rel=0.10)


# 6. Momentum comb geometry -------------------------------------------------

def test_momentum_comb_spacing_and_ridge_width(li_wannier):
    n = 32
    uniform = diatom.envelope_state(n, math.inf)
    grid = analysis.joint_momentum_density(uniform, li_wannier, zones=2)
    marg = analysis.sum_momentum_marginal(grid)
    pm = analysis.peak_metrics(marg.x, marg.density)
    cell = 2.0 * math.pi / n
    assert pm.spacing == pytest.approx(2.0 * math.pi, abs=cell)
    # ridge peaks sit on p1 + p2 = 2 pi n
    for pos in pm.peak_positions:
        assert abs(pos - 2.0 * math.pi * round(pos / (2.0 * math.pi))) <= cell
    assert pm.hwhm == pytest.approx(math.pi / n, rel=0.20)


# 7. Thermal equipartition --------------------------------------------------

def test_thermal_sum_momentum_equipartition(li_hopping, li_profile):
    h = diatom.build_hamiltonian(64, li_hopping.v_hop, li_profile)
    band = diatom.diatom_band_exact(h)
    for fraction in (0.1, 0.25, 0.4):
        t = fraction * band.bandwidth
        state = diatom.thermal_diatom_state(band, t)
        dp = analysis.folded_sum_momentum_width(state, estimator="hwhm")
        expected = analysis.delta_p_plus_thermal(VDD_LI, li_hopping.v_hop, t)
        assert dp == pytest.approx(expected, rel=0.10)


# 8. Oracle equivalence -----------------------------------------------------

def test_dense_oracle_equivalence(li_hopping, li_profile):
    n = 16
    h = diatom.build_hamiltonian(n, li_hopping.v_hop, li_profile)
    dense = diatom.dense_spectrum(h)
    block = []
    for theta in 2.0 * np.pi * np.arange(-n // 2, n // 2) / n:
        block.extend(np.linalg.eigvalsh(h.block(theta)))
    block = np.sort(block)
    assert np.max(np.abs(dense[: 2 * n] - block[: 2 * n])) < 1e-9


# 9. Property suite ---------------------------------------------------------

def test_distribution_normalizations(li_ground_32, li_wannier):
    pos = analysis.joint_position_density(li_ground_32, li_wannier, 32)
    mom = analysis.joint_momentum_density(li_ground_32, li_wannier, zones=2)
    for grid in (pos, mom):
        assert grid.density.sum() * grid.d1 * grid.d2 == pytest.approx(1.0, abs=1e-6)
        marg = analysis.marginal(grid)
        assert marg.density.sum() * marg.dx == pytest.approx(1.0, abs=1e-6)


def test_fourier_consistency(li_ground_32, li_wannier):
    n = li_ground_32.n_sites
    step = 1.0 / 32
    x = np.arange(n * 32) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    w = li_wannier.at(dx)
    psi = w @ li_ground_32.amplitudes[0] @ w.T
    mom = analysis.joint_momentum_density(li_ground_32, li_wannier, zones=2)
    p = mom.axis1
    ft = np.exp(-1j * np.outer(p, x)) * step
    dens = np.abs(ft @ psi @ ft.T) ** 2
    dp = float(p[1] - p[0])
    dens /= dens.sum() * dp * dp
    assert np.max(np.abs(dens - mom.density)) <= 1e-8 * np.max(mom.density)


def test_kernel_asymptote_property():
    kr = 0.05
    assert dipole.f_theta(kr, math.pi / 2.0) == pytest.approx(2.0 / kr**3, rel=0.01)


def test_nearest_site_identity():
    v = dipole.v_dd_nearest(0.055, 670.8e-9, 40e-9)
    assert v == pytest.approx(-0.055 * (670.8 / 40.0) ** 3 / (4.0 * math.pi**3))


def test_report_identity_property():
    dx, dp = 0.138, 0.118
    assert 2.0 * dx * dp * analysis.s_parameter(dx, dp) == pytest.approx(
        1.0, rel=1e-14
    )


def test_optimizer_against_grid_oracle():
    sigma = lattice.wannier_gaussian_width(U0_LI).sigma
    units = core.UnitSystem(core.LITHIUM)
    for t_si in (10e-9, 100e-9):
        t = units.temperature_from_si(t_si)
        res = analysis.optimize_sigma_e(sigma, t, 1.0, 30.0)
        grid = np.linspace(1.0, 30.0, 100001)
        s_grid = grid / (math.sqrt(2.0) * sigma) * np.tanh(
            1.0 / (math.pi**2 * grid**2 * t)
        )
        assert abs(res.sigma_e - float(grid[np.argmax(s_grid)])) < 1e-3


# 10. Laser-chain conversions: logged, not asserted -------------------------

def test_intensity_conversions_run_and_are_logged_only(capsys):
    """The two-level light-shift chain does not reproduce the quoted lattice
    depth or coupling scale from the quoted beam parameters; the values are
    computed and printed for comparison, without assertions on magnitude."""
    species = core.LITHIUM
    lattice_beam = core.LaserConfig(
        intensity=0.35e4, detuning=50 * species.gamma_lattice, wavelength=323e-9
    )
    shift = core.lattice_depth_from_laser(lattice_beam, species)
    units = core.UnitSystem(species)
    u0 = units.energy_from_si(shift)
    mu_sq = core.dipole_moment_sq_from_linewidth(
        species.gamma_coupling, species.omega_coupling
    )
    omega = species.omega_coupling - 1000 * species.gamma_coupling
    alpha = dipole.polarizability(mu_sq, species.omega_coupling, omega)
    v_c = units.energy_from_si(
        dipole.coupling_scale(alpha, 2.0 * math.pi / 670.8e-9, 36.0e4)
    )
    print(f"light-shift U0 = {u0:.4g} E_rec (target scale 7.42)")
    print(f"coupling scale V_C = {v_c:.4g} E_rec (target scale 0.053)")
    assert math.isfinite(u0) and math.isfinite(v_c)
    assert u0 > 0 and v_c > 0
