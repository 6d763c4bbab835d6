"""Band structure, Wannier orbitals, hopping, widths, effective masses."""

import math

import numpy as np
import pytest

from lattice_epr import lattice
from lattice_epr.errors import (
    ConvergenceError,
    DegenerateBandError,
    DomainError,
    SingularityError,
)


def test_config_validation():
    with pytest.raises(DomainError):
        lattice.LatticeConfig(u0=-1.0)
    with pytest.raises(DomainError):
        lattice.LatticeConfig(u0=5.0, n_sites=4)
    with pytest.raises(DomainError):
        lattice.LatticeConfig(u0=5.0, cutoff=2)


def test_free_lattice_band_is_folded_free_dispersion():
    cfg = lattice.LatticeConfig(u0=0.0, n_sites=32, cutoff=16)
    spectrum = lattice.band_structure(cfg)
    expected = spectrum.q**2 / math.pi**2
    assert np.allclose(spectrum.lowest_band, expected, atol=1e-12)


def test_free_lattice_wannier_gauge_undefined():
    spectrum = lattice.band_structure(lattice.LatticeConfig(u0=0.0, n_sites=32, cutoff=16))
    with pytest.raises(DegenerateBandError):
        lattice.wannier(spectrum)


def test_convergence_guard_trips_for_deep_lattice_small_cutoff():
    with pytest.raises(ConvergenceError):
        lattice.band_structure(lattice.LatticeConfig(u0=600.0, n_sites=8, cutoff=8))


def test_band_ordering_and_gap(li_spectrum):
    assert np.all(np.diff(li_spectrum.energies, axis=1) > 0)
    # lowest band maximum sits at the zone edge, minimum at the center
    e0 = li_spectrum.lowest_band
    assert np.argmin(e0) == np.argmin(np.abs(li_spectrum.q))
    assert np.argmax(e0) == np.argmax(np.abs(li_spectrum.q))


def test_hopping_sign_and_bandwidth(li_hopping):
    assert li_hopping.v_hop < 0
    assert li_hopping.bandwidth == pytest.approx(
        4.0 * abs(li_hopping.v_hop), rel=0.02
    )
    assert li_hopping.tight_binding_rms < 0.01 * li_hopping.bandwidth


def test_hopping_decreases_with_depth():
    values = []
    for u0 in (4.0, 8.0, 12.0, 16.0):
        spectrum = lattice.band_structure(lattice.LatticeConfig(u0=u0, n_sites=16, cutoff=16))
        values.append(abs(lattice.hopping_exact(spectrum).v_hop))
    assert all(a > b for a, b in zip(values, values[1:]))


def test_hopping_approx_tracks_bandwidth(li_hopping):
    est = lattice.hopping_approx(7.42)
    assert est.within_validity
    assert est.value == pytest.approx(4.0 * abs(li_hopping.v_hop), rel=0.05)
    assert not lattice.hopping_approx(20.0).within_validity


def test_wannier_is_normalized_real_and_localized(li_wannier):
    assert np.sum(li_wannier.amplitude**2) * li_wannier.dx == pytest.approx(1.0, abs=1e-10)
    assert li_wannier.residual_imag < 1e-10
    dx, amp = li_wannier.displacement_profile()
    i0 = np.argmin(np.abs(dx))
    assert amp[i0] == np.max(np.abs(amp))
    # localized: negligible weight beyond two sites
    far = np.abs(dx) > 2.0
    assert np.sum(amp[far] ** 2) / np.sum(amp**2) < 1e-4


def test_wannier_mirror_symmetry(li_wannier):
    dx, amp = li_wannier.displacement_profile()
    # dx[i] = (i - n/2) * step, so mirror partners sit at n/2 +- k
    mid = np.argmin(np.abs(dx))
    k = np.arange(1, mid)
    assert np.allclose(amp[mid + k], amp[mid - k], atol=np.max(amp) * 1e-9)


def test_neighboring_wanniers_are_orthonormal(li_spectrum):
    cfg = li_spectrum.config
    w0 = lattice.wannier(li_spectrum, 0)
    w1 = lattice.wannier(li_spectrum, 1)
    overlap = np.sum(w0.amplitude * w1.amplitude) / cfg.samples_per_site
    assert abs(overlap) < 1e-10


@pytest.mark.parametrize("n", [8, 9, 16, 17, 64])
def test_zone_grid_mirror_maps_each_phase_to_its_negative(n):
    q, mirror = lattice.zone_grid(n)
    k = np.arange(-n // 2, n // 2)
    assert np.array_equal(q, 2.0 * np.pi * k / n)
    paired = mirror != np.arange(n)
    assert np.array_equal(paired, k > 0)
    assert np.array_equal(q[mirror[paired]], -q[paired])
    # k <= 0 maps to itself; each k > 0 maps to -k, so every k < 0 is some
    # k's mirror but -N/2 for even N and -(N + 1)/2, -(N - 1)/2 for odd N
    assert np.array_equal(mirror[~paired], np.flatnonzero(~paired))
    no_mirror = np.setdiff1d(np.flatnonzero(k < 0), mirror[paired])
    assert k[no_mirror].tolist() == ([-n // 2] if n % 2 == 0 else [-n // 2, -n // 2 + 1])
    assert np.array_equal(lattice.band_structure(lattice.LatticeConfig(7.42, n_sites=n)).q, q)


def _wannier_per_q(spectrum, site):
    """Reference: one plane-wave table per q, each Bloch function built
    from its own table."""
    cfg = spectrum.config
    n, ppa, m = cfg.n_sites, cfg.samples_per_site, cfg.cutoff
    x = np.arange(n * ppa) / ppa
    s = np.arange(-m, m + 1)
    w = np.zeros(n * ppa, dtype=complex)
    for qi, c in zip(spectrum.q, spectrum.coefficients):
        phi = np.exp(1j * np.outer(x, qi + 2.0 * np.pi * s)) @ c
        at_center = np.exp(1j * 0.5 * (qi + 2.0 * np.pi * s)) @ c
        phi *= abs(at_center) / at_center
        w += np.exp(-1j * qi * site) * phi
    resid = float(np.max(np.abs(w.imag)) / np.max(np.abs(w)))
    amp = w.real
    amp /= math.sqrt(np.sum(amp**2) / ppa)
    if amp[int(round((site + 0.5) * ppa)) % (n * ppa)] < 0:
        amp = -amp
    return amp, resid


@pytest.mark.parametrize("site", [0, 1])
@pytest.mark.parametrize("n", [8, 9, 16, 17, 64])
def test_wannier_equals_one_table_per_q_bit_for_bit(n, site):
    # the tables of -q come from those of q; at odd N the most negative q
    # has no mirror, and a mirror index of N - i builds a wrong orbital
    spectrum = lattice.band_structure(lattice.LatticeConfig(u0=7.42, n_sites=n))
    orbital = lattice.wannier(spectrum, site)
    amp, resid = _wannier_per_q(spectrum, site)
    assert np.array_equal(orbital.amplitude.view(np.uint64), amp.view(np.uint64))
    assert orbital.residual_imag == resid


def test_hopping_matches_wannier_matrix_element(li_spectrum, li_hopping):
    cfg = li_spectrum.config
    w0 = lattice.wannier(li_spectrum, 0)
    w1 = lattice.wannier(li_spectrum, 1)
    element = lattice.lattice_matrix_element(cfg, w0, w1)
    assert element == pytest.approx(li_hopping.v_hop, rel=1e-10)


def test_wannier_width_values():
    width = lattice.wannier_gaussian_width(7.42)
    assert width.sigma == pytest.approx(0.1364, rel=1e-3)
    assert width.sigma_literal / width.sigma == pytest.approx(2.0**0.25, rel=1e-12)
    with pytest.raises(SingularityError):
        lattice.wannier_gaussian_width(0.0)


def test_wannier_width_scaling():
    # sigma ~ u0^(-1/4)
    s1 = lattice.wannier_gaussian_width(4.0).sigma
    s2 = lattice.wannier_gaussian_width(64.0).sigma
    assert s1 / s2 == pytest.approx(2.0, rel=1e-12)


def test_effective_mass_single(li_hopping, li_spectrum):
    m_hop = lattice.effective_mass_single(li_hopping.v_hop)
    assert m_hop == pytest.approx(1.0 / (math.pi**2 * abs(li_hopping.v_hop)))
    m_curv = lattice.effective_mass_from_band(li_spectrum)
    # the exact band is not a pure cosine at this depth; the curvature mass
    # sits about 10% above the hopping-based value
    assert m_curv == pytest.approx(m_hop, rel=0.12)


def test_effective_mass_estimates_converge_for_deep_lattice():
    spectrum = lattice.band_structure(lattice.LatticeConfig(u0=20.0, n_sites=64, cutoff=16))
    hop = lattice.hopping_exact(spectrum)
    m_hop = lattice.effective_mass_single(hop.v_hop)
    m_curv = lattice.effective_mass_from_band(spectrum)
    assert m_curv == pytest.approx(m_hop, rel=0.01)


def test_effective_mass_singularities():
    with pytest.raises(SingularityError):
        lattice.effective_mass_single(0.0)


@pytest.mark.parametrize("kind", ["wannier", "gaussian"])
def test_orbital_contract(kind, li_wannier):
    """Both orbitals are normalized, ``sigma`` is the rms width of their
    density, and ``momentum_at`` is sum_x exp(-i p x) at(x) dx on the
    Wannier orbital's own grid."""
    if kind == "wannier":
        orbital = li_wannier
    else:
        orbital = lattice.GaussianOrbital(lattice.wannier_gaussian_width(7.42).sigma)
    x, _ = li_wannier.displacement_profile()  # 32 samples per site, 32 sites
    step = float(x[1] - x[0])
    amp = orbital.at(x)
    dens = amp**2
    assert np.sum(dens) * step == pytest.approx(1.0, abs=1e-10)
    assert orbital.sigma == pytest.approx(math.sqrt(np.sum(dens * x**2) * step), rel=1e-10)
    p = 2.0 * np.pi / 32 * np.arange(-32, 33)
    quadrature = np.exp(-1j * np.outer(p, x)) @ amp * step
    momentum = orbital.momentum_at(p)
    assert np.max(np.abs(momentum - quadrature)) <= 1e-10 * np.max(np.abs(momentum))
