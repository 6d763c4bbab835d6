"""Distributions, peak metrics, closed-form widths, and the optimizer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lattice_epr import analysis, diatom, lattice, pipeline
from lattice_epr.errors import (
    ConditioningError,
    DomainError,
    GridError,
    NoPeakError,
    SingularityError,
)
from lattice_epr.scenario import LITHIUM_EXAMPLE, parse_scenario
from conftest import nearest_only_profile


@pytest.fixture(scope="module")
def small_ground(li_hopping):
    h = diatom.build_hamiltonian(16, li_hopping.v_hop, nearest_only_profile(-2.16))
    return diatom.thermal_diatom_state(diatom.diatom_band_exact(h), 0.0)


def test_position_density_normalizes(small_ground, li_wannier):
    grid = analysis.joint_position_density(small_ground, li_wannier, 32)
    assert grid.density.sum() * grid.d1 * grid.d2 == pytest.approx(1.0, abs=1e-6)
    assert np.all(grid.density >= 0)


def test_position_density_gaussian_orbital(small_ground):
    grid = analysis.joint_position_density(small_ground, lattice.GaussianOrbital(0.136), 32)
    assert grid.density.sum() * grid.d1 * grid.d2 == pytest.approx(1.0, abs=1e-6)


def _position_density_unblocked(state, orbital, samples_per_site):
    """Reference: the full grid with one GEMM chain per member."""
    n = state.n_sites
    step = 1.0 / samples_per_site
    x = np.arange(n * samples_per_site) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    w = orbital.at(dx)
    dens = np.zeros((len(x), len(x)))
    for weight, c in zip(state.weights, state.amplitudes):
        dens += weight * np.abs(w @ c @ w.T) ** 2
    return dens / (dens.sum() * step * step)


@pytest.mark.parametrize(
    "n, jobs",
    [
        pytest.param(20, 1, id="1"),
        pytest.param(20, 3, id="3"),
        pytest.param(17, 1, id="17-1"),
        pytest.param(17, 3, id="17-3"),
    ],
)
def test_position_density_matches_unblocked_loop(li_hopping, li_wannier, n, jobs):
    # 32 samples per site: G = 640 in ten row blocks of 64 and column tiles
    # of 256, 256 and 128, or G = 544, whose row blocks and column tiles
    # both end in a remainder of 32
    rows = np.diff(analysis._tile_edges(32 * n, analysis._POSITION_ROWS)).tolist()
    columns = np.diff(analysis._tile_edges(32 * n, analysis._POSITION_COLUMNS)).tolist()
    assert (rows, columns) == {
        20: ([64] * 10, [256, 256, 128]),
        17: ([64] * 8 + [32], [256, 256, 32]),
    }[n]
    h = diatom.build_hamiltonian(n, li_hopping.v_hop, nearest_only_profile(-2.16))
    state = diatom.thermal_diatom_state(diatom.diatom_band_exact(h), 0.01, sigma_e=2.0)
    assert len(state.weights) > 1
    grid = analysis.joint_position_density(state, li_wannier, 32, jobs=jobs)
    ref = _position_density_unblocked(state, li_wannier, 32)
    assert np.array_equal(grid.density, ref)


def _position_density_full_products(state, orbital, samples_per_site):
    """Reference: the row-block loop with full products, row blocks as in
    joint_position_density; the products span every column, so the grid's
    column tiles must not change a bit."""
    n = state.n_sites
    step = 1.0 / samples_per_site
    x = np.arange(n * samples_per_site) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    w = orbital.at(dx)
    g = len(x)
    edges = analysis._tile_edges(g, analysis._POSITION_ROWS)
    dens = np.empty((g, g))
    for lo, hi in zip(edges[:-1], edges[1:]):
        acc = dens[lo:hi]
        acc[...] = 0.0
        buf = np.empty_like(acc)
        for weight, c in zip(state.weights, state.amplitudes):
            np.abs(w[lo:hi] @ c @ w.T, out=buf)
            np.square(buf, out=buf)
            buf *= weight
            acc += buf
    return dens / (dens.sum() * step * step), (w == 0).any()


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("orbital", ["wannier", "gaussian"])
def test_position_density_with_exact_zeros_equals_the_full_products(
    li_hopping, li_wannier, orbital, jobs
):
    h = diatom.build_hamiltonian(20, li_hopping.v_hop, nearest_only_profile(-2.16))
    state = diatom.thermal_diatom_state(diatom.diatom_band_exact(h), 0.01, sigma_e=2.0)
    orb = li_wannier if orbital == "wannier" else lattice.GaussianOrbital(0.136)
    ref, has_zeros = _position_density_full_products(state, orb, 32)
    # the Gaussian orbital underflows to exact zeros beyond ~7.4 sites
    assert has_zeros == (orbital == "gaussian")
    grid = analysis.joint_position_density(state, orb, 32, jobs=jobs)
    assert np.array_equal(grid.density, ref)


def _thermal_state(li_hopping, n, sigma_e):
    h = diatom.build_hamiltonian(n, li_hopping.v_hop, nearest_only_profile(-2.16))
    return diatom.thermal_diatom_state(diatom.diatom_band_exact(h), 0.01, sigma_e=sigma_e)


@pytest.mark.parametrize("jobs", [1, 3])
@pytest.mark.parametrize("orbital", ["wannier", "gaussian"])
@pytest.mark.parametrize("sigma_e", [None, 2.0])
@pytest.mark.parametrize("n", [16, 17])
def test_position_density_reuses_conjugate_members_exactly(
    li_hopping, li_wannier, n, sigma_e, orbital, jobs
):
    # each member computed in full, against the grid that computes the
    # theta > 0 members' terms once, for their theta < 0 partners
    state = _thermal_state(li_hopping, n, sigma_e)
    orb = li_wannier if orbital == "wannier" else lattice.GaussianOrbital(0.136)
    assert (analysis._term_sources(state) != np.arange(n)).any()
    ref, _ = _position_density_full_products(state, orb, 32)
    grid = analysis.joint_position_density(state, orb, 32, jobs=jobs)
    assert np.array_equal(grid.density, ref)


@pytest.mark.parametrize("change", ["weight", "amplitude"])
def test_position_density_does_not_reuse_a_member_one_bit_off(li_hopping, li_wannier, change):
    # member 9 (theta = 2 pi / 16) is the conjugate of member 7; with its
    # weight one ulp up or one amplitude bit flipped, member 9 is computed in
    # full
    state = _thermal_state(li_hopping, 16, 2.0)
    assert analysis._term_sources(state)[9] == 7
    weights, amplitudes = state.weights.copy(), state.amplitudes.copy()
    if change == "weight":
        weights[9] = np.nextafter(weights[9], 1.0)
    else:
        bits = amplitudes[9].view(np.uint64).reshape(-1)
        bits[np.argmax(np.abs(amplitudes[9].view(np.float64)))] ^= np.uint64(1)
    state = diatom.TwoAtomState(weights=weights, amplitudes=amplitudes)
    assert analysis._term_sources(state)[9] == 9
    ref, _ = _position_density_full_products(state, li_wannier, 32)
    grid = analysis.joint_position_density(state, li_wannier, 32, jobs=3)
    assert np.array_equal(grid.density, ref)


def _zero_sign_state(li_hopping):
    """A member with exact zeros, its conjugate (whose zeros have imaginary
    part -0), a copy whose zeros are -0 - 0i, and a member with other
    amplitudes."""
    c = _thermal_state(li_hopping, 16, 2.0).amplitudes[9].copy()
    zeros = np.abs(c) < 1e-3
    c[zeros] = 0.0
    c /= np.linalg.norm(c)
    negative_zeros = c.copy()
    negative_zeros[zeros] = complex(-0.0, -0.0)
    assert zeros.any() and np.signbit(c.conj().imag[zeros]).all()
    other = np.eye(16, dtype=complex) / 4.0
    return diatom.TwoAtomState(
        weights=np.array([0.3, 0.3, 0.3, 0.1]),
        amplitudes=np.stack([c, c.conj(), negative_zeros, other]),
    )


@pytest.mark.parametrize("jobs", [1, 3])
def test_position_density_reuses_members_equal_up_to_zero_signs(li_hopping, li_wannier, jobs):
    # the first three members are one term; the fourth is computed
    state = _zero_sign_state(li_hopping)
    assert np.array_equal(analysis._term_sources(state), [0, 0, 0, 3])
    ref, _ = _position_density_full_products(state, li_wannier, 32)
    grid = analysis.joint_position_density(state, li_wannier, 32, jobs=jobs)
    assert np.array_equal(grid.density, ref)


def _term_sources_by_definition(state):
    """source[m] from its definition, in O(M^2): the first earlier member
    that is its own source, has m's weight, and whose amplitudes equal m's
    or their conjugate, else m."""
    weights, amplitudes = state.weights, state.amplitudes
    source = np.arange(len(weights))
    for m, c in enumerate(amplitudes):
        for p in range(m):
            if source[p] == p and weights[p] == weights[m] and (
                np.array_equal(amplitudes[p], c) or np.array_equal(amplitudes[p], c.conj())
            ):
                source[m] = p
                break
    return source


@pytest.mark.parametrize("sigma_e", [None, 2.0])
@pytest.mark.parametrize("n", [16, 17, 64])
def test_term_sources_follow_their_definition_on_thermal_states(li_hopping, n, sigma_e):
    state = _thermal_state(li_hopping, n, sigma_e)
    assert np.array_equal(analysis._term_sources(state), _term_sources_by_definition(state))


@pytest.mark.parametrize("case", ["ground", "envelope", "zero-signs"])
def test_term_sources_follow_their_definition_on_other_states(li_hopping, case):
    if case == "zero-signs":
        state = _zero_sign_state(li_hopping)
    else:
        state = _state_of_mode(li_hopping, 16, case)
    assert np.array_equal(analysis._term_sources(state), _term_sources_by_definition(state))


def test_term_sources_tell_apart_members_that_share_a_key(li_hopping, li_wannier):
    # c and i c have one weight and the same moduli, and neither is the
    # other or its conjugate, so both are computed
    c = _thermal_state(li_hopping, 16, 2.0).amplitudes[9]
    state = diatom.TwoAtomState(weights=np.array([0.5, 0.5]), amplitudes=np.stack([c, 1j * c]))
    assert np.abs(1j * c).sum() == np.abs(c).sum()
    assert np.array_equal(analysis._term_sources(state), [0, 1])
    assert np.array_equal(_term_sources_by_definition(state), [0, 1])
    ref, _ = _position_density_full_products(state, li_wannier, 32)
    grid = analysis.joint_position_density(state, li_wannier, 32)
    assert np.array_equal(grid.density, ref)


def test_term_sources_pair_the_members_of_one_weight(li_hopping):
    # so hot that all 16 weights are equal: the +-theta pairs are found
    # among them
    h = diatom.build_hamiltonian(16, li_hopping.v_hop, nearest_only_profile(-2.16))
    band = diatom.diatom_band_exact(h)
    state = diatom.thermal_diatom_state(band, 1e18)
    assert (state.weights == state.weights[0]).all()
    sources = analysis._term_sources(state)
    assert np.array_equal(sources, _term_sources_by_definition(state))
    assert np.array_equal(sources, lattice.zone_grid(16)[1])


def _ring_distance(a, b, n):
    return np.abs((a[:, None] - b[None, :] + n / 2) % n - n / 2)


def test_position_block_tiles_without_common_sites_are_exactly_zero():
    rng = np.random.default_rng(7)
    g, n = 1024, 32
    # orbital rows non-zero on the 5 sites nearest them, banded amplitudes
    w = np.where(
        _ring_distance(np.arange(g) // 32, np.arange(n), n) <= 2,
        rng.standard_normal((g, n)),
        0.0,
    )
    band = _ring_distance(np.arange(n), np.arange(n), n) <= 1
    weights = np.array([0.7, 0.3])
    amplitudes = np.where(
        band, rng.standard_normal((2, n, n)) + 1j * rng.standard_normal((2, n, n)), 0
    )
    out = np.empty((g, g))
    analysis._position_block(w, weights, amplitudes, np.arange(2), out[256:512], 256, 512)
    ref = sum(weight * np.abs(w[256:512] @ c @ w.T) ** 2 for weight, c in zip(weights, amplitudes))
    assert np.array_equal(out[256:512], ref)
    assert not out[256:512, 768:].any()  # sites 24..31 share no site with 8..15


def _random_block_inputs(g, n, lo, orbital):
    rng = np.random.default_rng(g + lo)
    w = rng.standard_normal((g, n))
    if orbital == "banded":
        w[_ring_distance(np.arange(g) // (g // n), np.arange(n), n) > 2] = 0.0
    weights = rng.random(3)
    amplitudes = rng.standard_normal((3, n, n)) + 1j * rng.standard_normal((3, n, n))
    return w, weights, amplitudes


def _block_reference(w, weights, amplitudes, lo, hi):
    """The complex products of every member, summed in member order."""
    return sum(weight * np.abs(w[lo:hi] @ c @ w.T) ** 2 for weight, c in zip(weights, amplitudes))


@pytest.mark.parametrize("orbital", ["dense", "banded"])
@pytest.mark.parametrize(
    "g, n, lo, hi",
    [
        (297, 9, 0, 149),     # 297 = 256 + 41: a remainder tile
        (297, 9, 149, 297),
        (513, 9, 0, 213),     # 513 = 2 * 256 + 1: a one-column remainder
        (513, 9, 213, 427),
        (527, 17, 213, 427),
        (640, 20, 0, 213),
        (640, 20, 427, 640),
    ],
)
def test_position_block_real_product_is_exact(g, n, lo, hi, orbital):
    # block heights that are not a multiple of 8, against the complex
    # product summed in member order
    w, weights, amplitudes = _random_block_inputs(g, n, lo, orbital)
    out = np.full((g, g), np.nan)
    analysis._position_block(w, weights, amplitudes, np.arange(3), out[lo:hi], lo, hi)
    assert np.array_equal(out[lo:hi], _block_reference(w, weights, amplitudes, lo, hi))


@pytest.mark.parametrize("orbital", ["dense", "banded"])
@pytest.mark.parametrize("g, n, lo, hi", [(513, 9, 213, 427), (640, 20, 427, 640)])
def test_position_block_real_product_is_exact_for_a_conjugate_pair(g, n, lo, hi, orbital):
    # member 2 is the conjugate of member 0 with its weight: its term is
    # member 0's, added in member 2's place, against computing it in full
    w, weights, amplitudes = _random_block_inputs(g, n, lo, orbital)
    weights = np.insert(weights, 2, weights[0])
    amplitudes = np.insert(amplitudes, 2, amplitudes[0].conj(), axis=0)
    out = np.full((g, g), np.nan)
    analysis._position_block(w, weights, amplitudes, np.array([0, 1, 0, 3]), out[lo:hi], lo, hi)
    assert np.array_equal(out[lo:hi], _block_reference(w, weights, amplitudes, lo, hi))


@pytest.mark.parametrize("orbital", ["wannier", "gaussian"])
def test_position_block_peak_allocation(li_wannier, orbital):
    # one 256-row block of a 2048-column grid with 4 members; the Wannier
    # orbital has no exact zero on this 32-site ring
    n, samples_per_site = 32, 64
    orb = li_wannier if orbital == "wannier" else lattice.GaussianOrbital(0.136)
    x = np.arange(n * samples_per_site) / samples_per_site
    w = orb.at((x[:, None] - np.arange(n) + n / 2.0) % n - n / 2.0)
    rng = np.random.default_rng(5)
    weights = rng.random(4)
    amplitudes = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    out = np.empty((len(x), len(x)))
    tracemalloc.start()
    try:
        analysis._position_block(w, weights, amplitudes, np.arange(4), out[256:512], 256, 512)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _state_of_mode(li_hopping, n, mode):
    """The ground, envelope or thermal state of an n-site chain."""
    sigma_e = 6.0 if n == 64 else n / 8.0
    if mode == "envelope":
        return diatom.envelope_state(n, sigma_e)
    band = diatom.diatom_band_exact(
        diatom.build_hamiltonian(n, li_hopping.v_hop, nearest_only_profile(-2.16))
    )
    if mode == "ground":
        return diatom.thermal_diatom_state(band, 0.0)
    return diatom.thermal_diatom_state(band, 0.01, sigma_e=sigma_e)


@pytest.mark.parametrize("orbital", ["wannier", "gaussian"])
@pytest.mark.parametrize("n", [16, 17])
def test_position_block_one_row_equals_that_row_of_the_grid(li_hopping, li_wannier, n, orbital):
    state = _state_of_mode(li_hopping, n, "thermal")
    orb = li_wannier if orbital == "wannier" else lattice.GaussianOrbital(0.136)
    x, w = analysis._position_axes(state, orb, 32)
    full = np.zeros((len(x), len(x)))
    analysis._fill_position_grid(state, w, full, 1)
    rows = np.zeros_like(full)
    sources = analysis._term_sources(state)
    for r in (0, 1, 127, 128, 200, n * 16, len(x) - 1):
        analysis._position_block(
            w, state.weights, state.amplitudes, sources, rows[r : r + 1], r, r + 1
        )
        assert np.array_equal(rows[r], full[r])


@pytest.mark.parametrize("orbital", ["wannier", "gaussian"])
@pytest.mark.parametrize("mode", ["ground", "envelope", "thermal"])
@pytest.mark.parametrize("n", [8, 16, 17, 64])
def test_position_total_equals_the_grid_sum(li_hopping, li_wannier, n, mode, orbital):
    state = _state_of_mode(li_hopping, n, mode)
    orb = li_wannier if orbital == "wannier" else lattice.GaussianOrbital(0.136)
    x, w = analysis._position_axes(state, orb, 32)
    grid = np.zeros((len(x), len(x)))
    analysis._fill_position_grid(state, w, grid, 2)
    assert analysis._position_total(state, w) == pytest.approx(grid.sum(), rel=4e-15, abs=0)


@pytest.mark.parametrize("mode", ["ground", "envelope", "thermal"])
@pytest.mark.parametrize("n", [8, 16, 17, 64])
def test_conditional_position_density_equals_the_full_grid_slice(li_hopping, li_wannier, n, mode):
    state = _state_of_mode(li_hopping, n, mode)
    x1 = float(n // 2)
    for orb in (li_wannier, lattice.GaussianOrbital(0.136)):
        ref = analysis.conditional_density(analysis.joint_position_density(state, orb, 32, 2), x1)
        got = analysis.conditional_position_density(state, orb, 32, x1)
        assert np.array_equal(got.x, ref.x)
        np.testing.assert_allclose(got.density, ref.density, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("n", [8, 16, 17, 64])
def test_position_total_of_a_product_state_is_the_squared_gram_diagonal(li_wannier, n):
    # c = e_{j0 j0}: the grid is w(x1 - j0)^2 w(x2 - j0)^2, whose sum is
    # O[j0, j0]^2, and whose slice is the orbital density about j0
    j0 = n // 2
    amplitudes = np.zeros((1, n, n), dtype=complex)
    amplitudes[0, j0, j0] = 1.0
    state = diatom.TwoAtomState(weights=np.ones(1), amplitudes=amplitudes)
    x, w = analysis._position_axes(state, li_wannier, 32)
    gram = w.T @ w
    total = analysis._position_total(state, w)
    assert total == pytest.approx(gram[j0, j0] ** 2, rel=1e-15, abs=0)
    if n >= 16:  # an 8-site ring cuts the orbital's tail at 4 sites
        assert total == pytest.approx(32.0**2, rel=1e-14, abs=0)
    got = analysis.conditional_position_density(state, li_wannier, 32, float(j0))
    np.testing.assert_allclose(
        got.density, w[:, j0] ** 2 / (gram[j0, j0] / 32), rtol=1e-13, atol=1e-300
    )


def test_wannier_orbital_is_orthonormal_on_the_grid():
    # w^T w / samples_per_site is the overlap matrix of the site orbitals
    model = pipeline.Model(parse_scenario(LITHIUM_EXAMPLE))
    n, samples_per_site = model.state.n_sites, 32
    overlaps = []
    for orb in (model.wannier0, lattice.GaussianOrbital(model.width.sigma)):
        _, w = analysis._position_axes(model.state, orb, samples_per_site)
        overlaps.append(w.T @ w / samples_per_site)
    wannier, gaussian = overlaps
    assert np.abs(wannier - np.eye(n)).max() <= 1e-14
    assert np.abs(np.diag(gaussian) - 1.0).max() <= 1e-14
    assert gaussian[0, 1] == pytest.approx(1.2e-3, rel=0.01)


def test_conditional_position_density_row_and_errors(li_hopping):
    state = _state_of_mode(li_hopping, 17, "thermal")
    orb = lattice.GaussianOrbital(0.136)
    grid = analysis.joint_position_density(state, orb, 32)
    at_8_5 = analysis.conditional_position_density(state, orb, 32, 8.5)
    for value in (8.5, 8.51):  # the off-grid 8.51 takes the row of 8.5
        got = analysis.conditional_position_density(state, orb, 32, value)
        assert np.array_equal(got.density, at_8_5.density)
        ref = analysis.conditional_density(grid, value)
        np.testing.assert_allclose(got.density, ref.density, rtol=1e-13, atol=1e-300)
    for value in (-0.5, 17.5):
        with pytest.raises(ConditioningError, match="outside the grid"):
            analysis.conditional_density(grid, value)
        with pytest.raises(ConditioningError, match="outside the grid"):
            analysis.conditional_position_density(state, orb, 32, value)
    # the orbital underflows to exactly 0 eight sites from the one occupied one
    amplitudes = np.zeros((1, 16, 16), dtype=complex)
    amplitudes[0, 8, 8] = 1.0
    product = diatom.TwoAtomState(weights=np.ones(1), amplitudes=amplitudes)
    grid = analysis.joint_position_density(product, orb, 32)
    with pytest.raises(ConditioningError, match="zero-probability"):
        analysis.conditional_density(grid, 0.0)
    with pytest.raises(ConditioningError, match="zero-probability"):
        analysis.conditional_position_density(product, orb, 32, 0.0)


def test_position_density_grid_guard(small_ground):
    with pytest.raises(GridError):
        analysis.joint_position_density(small_ground, lattice.GaussianOrbital(0.136), 8)


def test_momentum_density_normalizes(small_ground, li_wannier):
    grid = analysis.joint_momentum_density(small_ground, li_wannier, zones=2)
    assert grid.density.sum() * grid.d1 * grid.d2 == pytest.approx(1.0, abs=1e-6)


def test_momentum_matches_fourier_transform_of_position_amplitude(
    small_ground, li_wannier
):
    # for a pure state the momentum density must be the squared Fourier
    # transform of the position amplitude field
    n = small_ground.n_sites
    step = 1.0 / 32
    x = np.arange(n * 32) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    w = li_wannier.at(dx)
    psi = w @ small_ground.amplitudes[0] @ w.T
    mom = analysis.joint_momentum_density(small_ground, li_wannier, zones=2)
    p = mom.axis1
    ft = np.exp(-1j * np.outer(p, x)) * step
    dens = np.abs(ft @ psi @ ft.T) ** 2
    dp = float(p[1] - p[0])
    dens /= dens.sum() * dp * dp
    assert np.max(np.abs(dens - mom.density)) <= 1e-8 * np.max(mom.density)


def test_marginals_normalize_and_match_direct_sum(small_ground, li_wannier):
    grid = analysis.joint_momentum_density(small_ground, li_wannier, zones=2)
    m = analysis.marginal(grid)
    assert m.density.sum() * (m.x[1] - m.x[0]) == pytest.approx(1.0, abs=1e-8)
    direct = grid.density.sum(axis=0) * grid.d1
    assert np.allclose(m.density, direct, atol=1e-12)


def test_conditional_density(small_ground, li_wannier):
    grid = analysis.joint_position_density(small_ground, li_wannier, 32)
    sl = analysis.conditional_density(grid, 8.5)
    assert sl.density.sum() * (sl.x[1] - sl.x[0]) == pytest.approx(1.0, abs=1e-8)
    # an off-grid x1 takes the nearest row
    assert np.array_equal(analysis.conditional_density(grid, 8.51).density, sl.density)
    assert not np.array_equal(analysis.conditional_density(grid, 8.54).density, sl.density)
    with pytest.raises(ConditioningError):
        analysis.conditional_density(grid, 1e4)


def test_sum_momentum_marginal_registration():
    # two delta ridges at p1 + p2 = 0 must land on one output bin
    p = np.arange(-4, 5) * 0.5
    dens = np.zeros((9, 9))
    dens[2, 6] = 1.0
    dens[6, 2] = 1.0
    grid = analysis.DistributionGrid(axis1=p, axis2=p.copy(), density=dens)
    marg = analysis.sum_momentum_marginal(grid)
    i = int(np.argmax(marg.density))
    assert marg.x[i] == pytest.approx(0.0)
    assert marg.density.sum() * (marg.x[1] - marg.x[0]) == pytest.approx(1.0, abs=1e-12)


def test_peak_metrics_gaussian():
    x = np.linspace(-5, 5, 4001)
    sigma = 0.3
    dens = np.exp(-(x**2) / (2.0 * sigma**2))
    pm = analysis.peak_metrics(x, dens)
    assert pm.hwhm == pytest.approx(sigma * analysis.GAUSS_HWHM, rel=1e-3)
    assert pm.sigma_equiv == pytest.approx(sigma, rel=1e-3)
    assert pm.spacing is None


def test_peak_metrics_comb():
    x = np.linspace(0, 10, 8001)
    dens = sum(np.exp(-((x - c) ** 2) / (2.0 * 0.05**2)) for c in (2, 4, 6, 8))
    pm = analysis.peak_metrics(x, dens)
    assert pm.spacing == pytest.approx(2.0, rel=1e-3)
    assert len(pm.peak_positions) == 4


def test_peak_metrics_flat_raises():
    with pytest.raises(NoPeakError):
        analysis.peak_metrics(np.arange(10.0), np.ones(10))


def test_folded_sum_momentum_width_estimators():
    env = diatom.envelope_state(64, 4.0)
    hwhm = analysis.folded_sum_momentum_width(env, "hwhm")
    var = analysis.folded_sum_momentum_width(env, "variance")
    expected = 1.0 / (math.sqrt(2.0) * 4.0)
    assert hwhm == pytest.approx(expected, rel=0.05)
    assert var == pytest.approx(expected, rel=0.05)
    with pytest.raises(DomainError):
        analysis.folded_sum_momentum_width(env, "fwhm")


def test_delta_x_minus():
    assert analysis.delta_x_minus(0.1, 0.0, -2.0) == pytest.approx(0.1)
    val = analysis.delta_x_minus(0.136, -0.0355, -2.16)
    assert val == pytest.approx(
        math.sqrt(0.136**2 + 2.0 * (0.0355 / 2.16) ** 2), rel=1e-12
    )
    with pytest.raises(SingularityError):
        analysis.delta_x_minus(0.1, 0.01, 0.0)


def test_delta_p_plus_prep_limits():
    assert analysis.delta_p_plus_prep(6.0, 0.0) == pytest.approx(
        1.0 / (math.sqrt(2.0) * 6.0)
    )
    # tanh < 1 raises the width above the zero-temperature floor
    assert analysis.delta_p_plus_prep(6.0, 0.01) > analysis.delta_p_plus_prep(6.0, 0.0)


@pytest.mark.parametrize("sigma_e", [1e-300, 1e300])
def test_preparation_forms_reject_a_tanh_argument_out_of_float_range(sigma_e):
    # pi^2 sigma_E^2 T underflows to 0, or sigma_E^2 overflows
    with pytest.raises(DomainError, match="outside the float range"):
        analysis.delta_p_plus_prep(sigma_e, 7.6e-4)
    with pytest.raises(DomainError, match="outside the float range"):
        analysis.s_estimate(sigma_e, 0.136, 7.6e-4)


def test_preparation_forms_where_the_tanh_underflows():
    # pi^2 sigma_E^2 T is inf: the tanh factor is 0, so s is 0 to within
    # float range and dp_plus_prep is infinite
    assert analysis.s_estimate(1e154, 0.136, 1.0) == 0.0
    with pytest.raises(DomainError, match="dp_plus_prep is infinite"):
        analysis.delta_p_plus_prep(1e154, 1.0)


def test_s_parameter_identity():
    s = analysis.s_parameter(0.2, 0.3)
    assert s == pytest.approx(1.0 / (2.0 * 0.2 * 0.3), rel=1e-15)


def test_s_estimate_consistency_with_widths():
    # the closed-form estimate is 1/(2 sigma dp_plus_prep) by construction
    sigma, sigma_e, t = 0.136, 6.0, 7.6e-4
    s = analysis.s_estimate(sigma_e, sigma, t)
    dp = analysis.delta_p_plus_prep(sigma_e, t)
    assert s == pytest.approx(1.0 / (2.0 * sigma * dp), rel=1e-12)


@settings(max_examples=50)
@given(
    st.floats(min_value=5e-4, max_value=5e-2),
    st.floats(min_value=1.1, max_value=5.0),
)
def test_s_estimate_monotone_decreasing_in_temperature(t, factor):
    s_cold = analysis.s_estimate(6.0, 0.136, t)
    s_hot = analysis.s_estimate(6.0, 0.136, factor * t)
    assert s_hot < s_cold


def test_optimizer_matches_grid_scan():
    sigma = 0.136
    for t in (7.6e-4, 7.6e-3):
        res = analysis.optimize_sigma_e(sigma, t, 1.0, 30.0)
        grid = np.linspace(1.0, 30.0, 100001)
        s_grid = grid / (math.sqrt(2.0) * sigma) * np.tanh(
            1.0 / (math.pi**2 * grid**2 * t)
        )
        best = grid[np.argmax(s_grid)]
        assert abs(res.sigma_e - best) < 1e-3
        assert res.s >= float(np.max(s_grid)) - 1e-9


def test_optimizer_flags_boundary():
    # at zero temperature s grows linearly in sigma_E: boundary maximum
    res = analysis.optimize_sigma_e(0.136, 0.0, 1.0, 30.0)
    assert res.on_boundary
    assert res.sigma_e == pytest.approx(30.0)


def test_optimum_constant_is_the_root_of_sinh_2y_equals_4y():
    y = analysis._Y_OPT
    two_ulp = 2.0 * math.ulp(y)
    assert math.sinh(2.0 * (y - two_ulp)) < 4.0 * (y - two_ulp)
    assert math.sinh(2.0 * (y + two_ulp)) > 4.0 * (y + two_ulp)

    def shape(v):
        return math.tanh(v) / math.sqrt(v)

    assert shape(y * (1.0 - 1e-6)) < shape(y) > shape(y * (1.0 + 1e-6))


@pytest.mark.parametrize("lo, hi, bound", [(12.0, 30.0, 12.0), (1.0, 10.0, 10.0)])
def test_optimizer_clips_an_outside_optimum_to_the_nearer_bound(lo, hi, bound):
    # the optimum is 11.03 a at T = 7.6e-4 E_rec
    res = analysis.optimize_sigma_e(0.136, 7.6e-4, lo, hi)
    assert res.on_boundary
    assert res.sigma_e == bound
    assert res.s == analysis.s_estimate(bound, 0.136, 7.6e-4)


def test_pair_fraction():
    assert analysis.pair_fraction(6.0) == pytest.approx(1.0 / 6.0)
    with pytest.raises(DomainError):
        analysis.pair_fraction(0.0)
