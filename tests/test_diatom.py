"""Two-atom bound states, the diatom band, and prepared ensembles."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_epr import diatom, lattice, pipeline
from lattice_epr.errors import DomainError, RegimeError, SingularityError, SizeError
from lattice_epr.scenario import LITHIUM_EXAMPLE, parse_scenario
from conftest import U0_LI, VDD_LI, nearest_only_profile


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


def test_thermal_state_weights_and_occupancy(li_band_32):
    st = diatom.thermal_diatom_state(li_band_32, 0.001)
    assert np.sum(st.weights) == pytest.approx(1.0, abs=1e-10)
    assert st.bound_occupancy > 0.999
    assert st.regime_warning is None
    # zero temperature collapses to the single zone-center member
    st0 = diatom.thermal_diatom_state(li_band_32, 0.0)
    assert len(st0.weights) == 1


def test_thermal_state_flags_hot_ensemble(li_band_32):
    st = diatom.thermal_diatom_state(li_band_32, 1.0)
    assert st.bound_occupancy < 0.9
    assert "occupancy" in st.regime_warning


def test_thermal_momentum_spread_grows_with_temperature(li_hopping, li_profile):
    band = diatom.diatom_band_exact(diatom.build_hamiltonian(64, li_hopping.v_hop, li_profile))
    widths = []
    for t in (2e-4, 8e-4, 2e-3):
        st = diatom.thermal_diatom_state(band, t)
        p, probs = st.sum_momentum_distribution()
        mean = float(np.sum(p * probs))
        widths.append(math.sqrt(float(np.sum(probs * (p - mean) ** 2))))
    assert widths[0] < widths[1] < widths[2]


def test_thermal_envelope_guard(li_band_32):
    with pytest.raises(SizeError, match="3 sigma_E >= N a / 2"):
        diatom.thermal_diatom_state(li_band_32, 0.001, sigma_e=8.0)
    # as in envelope_state, sigma_E = inf is not clipped: the envelope is 1
    bare = diatom.thermal_diatom_state(li_band_32, 0.001)
    wide = diatom.thermal_diatom_state(li_band_32, 0.001, sigma_e=math.inf)
    assert np.array_equal(wide.weights, bare.weights)
    assert np.allclose(wide.amplitudes, bare.amplitudes, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("temperature", [0.0, 0.01])
def test_thermal_state_rejects_a_bound_pair_wider_than_the_box(li_band_32, temperature):
    # the K = 0 bound pair spread evenly over 32 sites is 9.2 sites wide, and
    # every ensemble holds it, not only the ground state
    vectors = li_band_32.vectors.copy()
    vectors[np.argmin(np.abs(li_band_32.thetas))] = 1.0 / math.sqrt(32)
    band = dataclasses.replace(li_band_32, vectors=vectors)
    with pytest.raises(SizeError, match="bound-state width 9.2 sites exceeds N/4"):
        diatom.thermal_diatom_state(band, temperature)


def test_thermal_state_rejects_a_negative_temperature(li_band_32):
    with pytest.raises(DomainError, match="temperature must be non-negative"):
        diatom.thermal_diatom_state(li_band_32, -1e-3)


def test_state_and_band_are_read_only(li_band_32):
    # a declared pair cannot go stale: neither a member nor a field can be
    # replaced once the state's checks pass
    state = diatom.thermal_diatom_state(li_band_32, 0.001, sigma_e=2.0)
    assert state.conjugate_of[17] == 15
    for array in (state.weights, state.amplitudes, state.conjugate_of):
        with pytest.raises(ValueError, match="read-only"):
            array[17] = array[15]
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.amplitudes = state.amplitudes.copy()
    with pytest.raises(dataclasses.FrozenInstanceError):
        li_band_32.vectors = li_band_32.vectors.copy()



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


def test_state_rejects_mismatched_member_counts():
    c = np.eye(8, dtype=complex)[None] / math.sqrt(8.0)
    half = np.full(2, 0.5)
    for weights, amplitudes, conjugate_of in [
        (half, np.concatenate([c, c, c]), None),
        (half, np.concatenate([c, c]), np.arange(3)),
        (half[None], np.concatenate([c, c]), None),
        (half, np.concatenate([c, c])[:, :, :4] * math.sqrt(2.0), None),
    ]:
        with pytest.raises(DomainError, match="not \\(M,\\), \\(M, N, N\\) and \\(M,\\)"):
            diatom.TwoAtomState(weights=weights, amplitudes=amplitudes, conjugate_of=conjugate_of)


def test_state_rejects_a_malformed_pairing():
    # a real member is its own conjugate, so member 1 may declare member 0;
    # each pair must point back to an earlier member that is its own
    c = np.eye(8, dtype=complex) / math.sqrt(8.0)
    two = np.stack([c, c])
    diatom.TwoAtomState(weights=np.full(2, 0.5), amplitudes=two, conjugate_of=np.array([0, 0]))
    for conjugate_of in ([1, 1], [0, 0, 1], [0, 0.0, 2], [0, -1, 2]):
        m = len(conjugate_of)
        with pytest.raises(DomainError, match="conjugate"):
            diatom.TwoAtomState(
                weights=np.full(m, 1.0 / m),
                amplitudes=np.stack([c] * m),
                conjugate_of=np.array(conjugate_of),
            )


@pytest.mark.parametrize("sigma_e", [0.0, -6.0, math.nan])
def test_thermal_state_rejects_a_non_positive_envelope_width(li_band_32, sigma_e):
    # raised before the envelope is evaluated: filterwarnings = error fails a
    # raw warning.  envelope_state shares the guard and its message
    with pytest.raises(DomainError, match="sigma_E"):
        diatom.thermal_diatom_state(li_band_32, 0.001, sigma_e=sigma_e)
    with pytest.raises(DomainError, match="sigma_E"):
        diatom.envelope_state(16, sigma_e)


def solve_every_block(h):
    """Reference for the blocks that diatom_band_exact solves: one eigh of
    the complex block per phase, theta > 0 included."""
    n = h.n_sites
    thetas = 2.0 * np.pi * np.arange(-n // 2, n // 2) / n
    energies = np.empty((n, n))
    ground = np.empty((n, n), dtype=complex)
    for i, th in enumerate(thetas):
        w, v = np.linalg.eigh(h.block(th))
        energies[i] = w
        g = v[:, 0]
        k = int(np.argmax(np.abs(g)))
        ground[i] = g * (abs(g[k]) / g[k])
    return thetas, energies, ground


@pytest.fixture(scope="module")
def li_chains():
    """The lithium-example dipole profile, off-site tail included, and v_hop
    at U0 = 6, 7.42 and 12 E_rec on the lattice of li_hopping."""
    profile = pipeline.Model(parse_scenario(LITHIUM_EXAMPLE)).profile
    v_hops = [
        lattice.hopping_exact(lattice.band_structure(lattice.LatticeConfig(
            u0=u0, n_sites=32, cutoff=16, samples_per_site=32))).v_hop
        for u0 in (6.0, U0_LI, 12.0)
    ]
    return profile, v_hops


@pytest.mark.parametrize("n", [8, 9, 16, 17, 64])
def test_blocks_mirror_equals_solving_every_block(n, li_chains):
    """The theta > 0 rows, filled from -theta by conjugation, are bitwise the
    rows a solve of their own block gives.  CI runs this again with two BLAS
    threads."""
    profile, v_hops = li_chains
    for v_hop in v_hops:
        h = diatom.build_hamiltonian(n, v_hop, profile)
        band = diatom.diatom_band_exact(h)
        got = band.thetas, band.spectra, band.vectors
        for array, expected in zip(got, solve_every_block(h)):
            assert np.array_equal(array, expected)
            assert not array.flags.writeable
        assert np.array_equal(band.energies, band.spectra[:, 0])
        thetas, _, ground = got
        for i in np.flatnonzero(thetas > 0):
            mirror = int(np.flatnonzero(thetas == -thetas[i])[0])
            assert np.array_equal(ground[mirror], ground[i].conj())


@pytest.mark.parametrize(
    "sigma_e, n",
    [(None, n) for n in (8, 9, 16, 17, 64)]
    + [(1.0, 8), (1.0, 9), (2.0, 16), (2.0, 17), (2.0, 64)],
)
def test_thermal_state_pairs_each_theta_with_minus_theta(li_chains, sigma_e, n):
    """Each theta > 0 member is built as the conjugate of its -theta member,
    with the same weight, and equals the member computed directly bit for
    bit.  The rows left unpaired are theta = 0, theta = -pi for even N, and
    the two negative phases without a positive partner for odd N.  An
    envelope of 2 a is clipped at N = 8 and 9, which take 1 a.  CI runs this
    again with two BLAS threads."""
    profile, v_hops = li_chains
    h = diatom.build_hamiltonian(n, v_hops[1], profile)
    band = diatom.diatom_band_exact(h)
    state = diatom.thermal_diatom_state(band, 0.01, sigma_e=sigma_e)
    thetas, mirror = diatom._com_phases(n)
    assert np.array_equal(thetas, band.thetas)
    assert np.array_equal(state.conjugate_of, mirror)
    paired = np.flatnonzero(mirror != np.arange(n))
    assert len(paired) == (n // 2 - 1 if n % 2 == 0 else (n - 3) // 2)
    assert np.array_equal(thetas[mirror[paired]], -thetas[paired])
    assert (thetas[paired] > 0).all()
    k = np.arange(-n // 2, n // 2)
    unpaired = {0, -n // 2} if n % 2 == 0 else {0, -n // 2, -n // 2 + 1}
    alone = np.setdiff1d(np.arange(n), np.concatenate([paired, mirror[paired]]))
    assert set(k[alone].tolist()) == unpaired
    for m in paired:
        assert state.weights[m] == state.weights[mirror[m]]
        assert np.array_equal(state.amplitudes[m], state.amplitudes[mirror[m]].conj())
    # oracle: every member computed directly from every block solved, the
    # theta > 0 ones included
    direct = diatom._bloch_amplitudes(thetas, solve_every_block(h)[2])
    if sigma_e is not None:
        j = np.arange(n, dtype=float)
        direct *= diatom._envelope(n, sigma_e, n // 2, (j[:, None] + j[None, :]) / 2.0)
        direct /= np.sqrt(np.sum(np.abs(direct) ** 2, axis=(1, 2)))[:, None, None]
    assert np.array_equal(state.amplitudes, direct)
