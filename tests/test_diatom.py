"""Two-atom bound states, the diatom band, and prepared ensembles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_epr import diatom
from lattice_epr.errors import DomainError, RegimeError, SingularityError, SizeError
from conftest import VDD_LI, nearest_only_profile


def test_build_hamiltonian_diagonal_symmetry(li_diatom_32):
    vdd = li_diatom_32.vdd_diag
    assert vdd[0] == pytest.approx(VDD_LI)
    assert np.allclose(vdd[1:], vdd[1:][::-1])


def test_build_hamiltonian_size_guard(li_hopping, li_profile):
    with pytest.raises(DomainError):
        diatom.build_hamiltonian(4, li_hopping.v_hop, li_profile)


def test_block_is_hermitian(li_diatom_32):
    for theta in (0.0, 0.7, -2.1):
        h = li_diatom_32.block(theta)
        assert np.allclose(h, h.conj().T)


def test_dense_oracle_matches_blocks(li_hopping, li_profile):
    h = diatom.build_hamiltonian(16, li_hopping.v_hop, li_profile)
    dense = diatom.dense_spectrum(h)
    block_energies = []
    for theta in 2.0 * np.pi * np.arange(-8, 8) / 16:
        block_energies.extend(np.linalg.eigvalsh(h.block(theta)))
    block_energies = np.sort(block_energies)
    assert np.allclose(dense, block_energies, atol=1e-9)


def test_dense_oracle_size_limit(li_hopping, li_profile):
    h = diatom.build_hamiltonian(32, li_hopping.v_hop, li_profile)
    with pytest.raises(SizeError):
        diatom.dense_spectrum(h)


def test_ground_state_structure(li_ground_32, li_hopping):
    gs = li_ground_32
    assert len(gs.weights) == 1
    c = gs.amplitudes[0]
    assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)
    # strongly bound: nearly all weight on the same-site diagonal, with the
    # off-diagonal remainder set by the two-path hop admixture
    r = li_hopping.v_hop / VDD_LI
    off = 1.0 - float(np.sum(np.abs(np.diag(c)) ** 2))
    assert off == pytest.approx(8.0 * r**2, rel=0.2)


def test_ground_state_sum_momentum_is_sharp(li_ground_32):
    p, probs = li_ground_32.sum_momentum_distribution()
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    assert probs[np.argmin(np.abs(p))] == pytest.approx(1.0, abs=1e-8)


def test_diatom_band_matches_perturbation_theory(li_diatom_32, li_hopping):
    band = diatom.diatom_band_exact(li_diatom_32)
    v2 = diatom.hopping_two_atom(li_hopping.v_hop, VDD_LI)
    assert band.v_hop_fit == pytest.approx(v2, rel=0.01)
    assert band.bandwidth == pytest.approx(4.0 * abs(v2), rel=0.01)
    assert band.fit_residual_rms < 0.01 * band.bandwidth
    assert band.gap_min > 0


def test_diatom_band_regime_guard(li_hopping):
    # weak interaction: the bound branch merges with the continuum
    weak = nearest_only_profile(-3.0 * abs(li_hopping.v_hop))
    h = diatom.build_hamiltonian(32, li_hopping.v_hop, weak)
    with pytest.raises(RegimeError):
        diatom.diatom_band_exact(h)


def test_effective_mass_relations(li_hopping):
    v_hop = li_hopping.v_hop
    ratio = diatom.effective_mass_ratio_two_atom(v_hop, VDD_LI)
    assert ratio == pytest.approx(abs(VDD_LI) / (2.0 * abs(v_hop)))
    m2 = diatom.effective_mass_two_atom(v_hop, VDD_LI)
    m1 = 1.0 / (math.pi**2 * abs(v_hop))
    # consistency: two-atom mass / single-atom mass = ratio, per atom pair
    assert m2 / m1 == pytest.approx(ratio, rel=1e-12)
    with pytest.raises(SingularityError):
        diatom.hopping_two_atom(1.0, 0.0)


def test_envelope_state_uniform_limit():
    st = diatom.envelope_state(32, math.inf)
    c = st.amplitudes[0]
    assert np.allclose(np.diag(c), 1.0 / math.sqrt(32))
    assert np.sum(np.abs(c - np.diag(np.diag(c)))) == 0.0


def test_envelope_state_width_and_guards():
    st = diatom.envelope_state(64, 4.0, j0=32)
    amp = np.abs(np.diag(st.amplitudes[0]))
    j = np.arange(64, dtype=float)
    mean = float(np.sum(amp**2 * j))
    var = float(np.sum(amp**2 * (j - mean) ** 2))
    # |amplitude|^2 of an amplitude-width-4 Gaussian has rms width 4/sqrt(2)
    assert mean == pytest.approx(32.0, abs=1e-9)
    assert math.sqrt(var) == pytest.approx(4.0 / math.sqrt(2.0), rel=1e-3)
    with pytest.raises(DomainError):
        diatom.envelope_state(64, -1.0)
    with pytest.raises(SizeError):
        diatom.envelope_state(16, 4.0)


def test_thermal_state_weights_and_occupancy(li_diatom_32):
    st = diatom.thermal_diatom_state(li_diatom_32, 0.001)
    assert np.sum(st.weights) == pytest.approx(1.0, abs=1e-10)
    assert st.bound_occupancy > 0.999
    assert st.regime_warning is None
    # zero temperature collapses to the single zone-center member
    st0 = diatom.thermal_diatom_state(li_diatom_32, 0.0)
    assert len(st0.weights) == 1


def test_thermal_state_flags_hot_ensemble(li_diatom_32):
    st = diatom.thermal_diatom_state(li_diatom_32, 1.0)
    assert st.bound_occupancy < 0.9
    assert "occupancy" in st.regime_warning


def test_thermal_momentum_spread_grows_with_temperature(li_hopping, li_profile):
    h = diatom.build_hamiltonian(64, li_hopping.v_hop, li_profile)
    widths = []
    for t in (2e-4, 8e-4, 2e-3):
        st = diatom.thermal_diatom_state(h, t)
        p, probs = st.sum_momentum_distribution()
        mean = float(np.sum(p * probs))
        widths.append(math.sqrt(float(np.sum(probs * (p - mean) ** 2))))
    assert widths[0] < widths[1] < widths[2]


def test_thermal_envelope_guard(li_diatom_32):
    with pytest.raises(SizeError):
        diatom.thermal_diatom_state(li_diatom_32, 0.001, sigma_e=8.0)



def ring_bound_band(n, j, v, thetas):
    """Exact bound-pair band of N sites with on-site coupling V < 0 only.

    The relative-coordinate block at K is a ring with band A cos(k - K/2),
    A = 4 J cos(K/2), whose flux N K / 2 makes it periodic or antiperiodic
    by the parity of the K index.  Summing its Green's function in closed
    form, the bound state solves sqrt(E^2 - A^2) = |V| (1 + z) / (1 - z),
    z = (-1)^index x^N, x = |A| / (|E| + sqrt(E^2 - A^2)).  For x^N -> 0
    this is the infinite-lattice band -sqrt(V^2 + 16 J^2 cos^2(K a / 2)),
    which is where the iteration starts.
    """
    a_sq = (4.0 * j * np.cos(thetas / 2.0)) ** 2
    parity = (-1.0) ** np.rint(thetas * n / (2.0 * np.pi))
    root = abs(v)
    for _ in range(4):
        x = np.sqrt(a_sq) / (np.sqrt(a_sq + root**2) + root)
        z = parity * x**n
        root = abs(v) * (1.0 + z) / (1.0 - z)
    return -np.sqrt(a_sq + root**2)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(16, 128),
    j=st.floats(-0.2, -0.005),
    ratio=st.floats(8.0, 200.0),
)
def test_bound_band_matches_closed_form(n, j, ratio):
    """With on-site coupling only, the bound pair has the band
    E(K) = -sqrt(V^2 + 16 J^2 cos^2(K a / 2)) of the infinite lattice, up to
    a ring correction of at most 2 |V| x^N (x <= 0.24 here) that the exact
    ring form adds, so the band is checked at every N."""
    v = -ratio * abs(j)
    h = diatom.build_hamiltonian(n, j, nearest_only_profile(v), include_offsite=False)
    band = diatom.diatom_band_exact(h)
    infinite = -np.sqrt(v**2 + 16.0 * j**2 * np.cos(band.thetas / 2.0) ** 2)
    ring = ring_bound_band(n, j, v, band.thetas)
    assert np.max(np.abs(ring - infinite)) <= abs(v) * (2.0 * 0.24**n + 1e-15)
    assert np.max(np.abs(band.energies - ring)) <= 1e-10 * abs(v)


def test_state_rejects_non_finite_weights_and_norms(li_diatom_32):
    c = np.eye(4, dtype=complex)[None] / 2.0
    diatom.TwoAtomState(weights=np.ones(1), amplitudes=c)
    with pytest.raises(DomainError, match="weights"):
        diatom.TwoAtomState(weights=np.array([np.nan]), amplitudes=c)
    with pytest.raises(DomainError, match="norm"):
        diatom.TwoAtomState(weights=np.full(2, 0.5), amplitudes=np.concatenate([c, c * np.nan]))
    # a zero envelope width divides 0 by 0 on the diagonal
    with pytest.raises(DomainError, match="norm"), np.errstate(divide="ignore", invalid="ignore"):
        diatom.thermal_diatom_state(li_diatom_32, 0.001, sigma_e=0.0)
