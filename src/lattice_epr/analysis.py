"""Observable distributions and EPR figures of merit.

Joint and conditional position/momentum densities of two-atom states, the
correlation widths dx_minus (relative position) and dp_plus (folded sum
momentum), the EPR strength parameter s = hbar / (2 dx dp), the closed-form
preparation estimates, and the envelope-width optimizer.

Internal units: lengths in a, momenta in hbar/a, energies in E_rec,
temperatures as k_B T / E_rec.  Site centers are placed at integer x = j.
The peak widths of peak_metrics and of folded_sum_momentum_width(...,
"hwhm") are the half-width at half-maximum of the dominant peak, converted
to a Gaussian-equivalent sigma by dividing by sqrt(2 ln 2) = 1.1774 when
compared against closed forms.  No command writes a peak width.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .diatom import TwoAtomState
from .errors import (
    ConditioningError,
    DomainError,
    GridError,
    NoPeakError,
    SingularityError,
)

__all__ = [
    "GAUSS_HWHM",
    "DistributionGrid",
    "Slice1D",
    "PeakMetrics",
    "OptimizeResult",
    "joint_position_density",
    "joint_momentum_density",
    "conditional_density",
    "conditional_position_density",
    "marginal",
    "sum_momentum_marginal",
    "peak_metrics",
    "folded_sum_momentum_width",
    "delta_x_minus",
    "delta_p_plus_thermal",
    "delta_p_plus_prep",
    "s_parameter",
    "s_estimate",
    "optimize_sigma_e",
    "pair_fraction",
]

# HWHM of a unit-sigma Gaussian
GAUSS_HWHM = math.sqrt(2.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# distribution containers

@dataclass
class DistributionGrid:
    """Normalized joint density on a rectangular grid."""

    axis1: np.ndarray
    axis2: np.ndarray
    density: np.ndarray

    @property
    def d1(self):
        return float(self.axis1[1] - self.axis1[0])

    @property
    def d2(self):
        return float(self.axis2[1] - self.axis2[0])


@dataclass
class Slice1D:
    """Normalized 1D density slice."""

    x: np.ndarray
    density: np.ndarray

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])


# ---------------------------------------------------------------------------
# joint densities

# rows per block and columns per tile of the position grid, both cut by
# _tile_edges.  A row of the grid does not depend on the height of its block
# or on the tiles, so the edges set only the work per thread and the memory
# per block.  A block holds the first products and one tile term of every
# computed member: about 6.5 MiB for the 33 of lithium-example at 64 x 256,
# against 8.6 MiB at 128 x 128 with the same number of products; 64 x 128
# held less but took about 10 % longer.  A one-point remainder joins the run
# before it, because a one-column product takes BLAS's matrix-vector path,
# which rounds differently.
_POSITION_ROWS = 64
_POSITION_COLUMNS = 256


def _tile_edges(g, side):
    """Edges that cut g >= 2 points into runs of ``side`` points."""
    return np.append(np.arange(0, g - 1, side), g)


def _position_block(w, weights, amplitudes, source, out, lo, hi):
    """Weighted sum over the ensemble of |w[lo:hi] c w^T|^2 into out, the
    hi - lo rows that the caller hands in.

    Each member m adds the term of member source[m] (see _term_sources),
    and only the members with source[m] == m are computed.  A member whose
    amplitudes equal another's, or their conjugate, with the same weight,
    has the same term bit for bit: the orbital w is real, so the first
    product w[lo:hi] conj(c) is the conjugate of w[lo:hi] c (rounding to
    nearest is symmetric under a change of sign), the real second product
    below then flips only the sign of the imaginary part, and the modulus
    ignores it.  The sign of a zero can change only the sign of a zero
    result, which the modulus drops too.  That the BLAS kernels keep this
    symmetry is observed, not promised, and the tests check it against
    computing every member.

    The first products, left = w[lo:hi] c, are complex and are computed
    once per block.  The second one multiplies left by the real orbital, so
    it is computed transposed, one column tile at a time, as one real GEMM
    on the interleaved (re, im) values of left^T; complex tiles would spend
    half their multiplies on the orbital's zero imaginary part.  The
    columns of left^T are padded with zeros to a multiple of 8: without the
    padding the last (hi - lo) mod 8 rows can differ from the complex
    product in their last bits (seen with OpenBLAS, whose edge kernel is
    the likely cause); with it the two agree bit for bit.  The first
    product is padded the same way, with zero rows: a one-row product would
    take BLAS's vector-matrix path, which rounds differently.

    Tiles are the outer loop.  In each tile every computed member's squared
    modulus times its weight is formed once, the terms are summed into a
    zeroed tile in member order, through the map, and the tile is copied
    into out once.  So each entry is the sum of the same terms in the same
    order as the full complex products would give.  Every product
    contracts over all N sites.

    Runs in worker threads, so it calls nothing but numpy: the package's
    functions then only ever run on the calling thread.
    """
    g, n = w.shape
    height = hi - lo
    width = -(-height // 8) * 8
    rows = np.pad(w[lo:hi], ((0, width - height), (0, 0)))
    edges = _tile_edges(g, _POSITION_COLUMNS)
    computed = np.flatnonzero(source == np.arange(len(source)))
    slot = np.searchsorted(computed, source)  # member m adds terms[slot[m]]
    left_t = np.empty((len(computed), n, width), dtype=complex)
    for left, m in zip(left_t, computed):
        left[...] = (rows @ amplitudes[m]).T
    tile_max = np.diff(edges).max()
    terms = np.empty((len(computed), tile_max, width))
    for t0, t1 in zip(edges[:-1], edges[1:]):
        for k, m in enumerate(computed):
            z = (w[t0:t1] @ left_t[k].view(np.float64)).view(complex)
            term = terms[k, : t1 - t0]
            np.abs(z, out=term)
            np.square(term, out=term)
            term *= weights[m]
        tile = np.zeros((t1 - t0, width))
        for k in slot:
            tile += terms[k, : t1 - t0]
        out[:, t0:t1] = tile[:, :height].T


def _position_axes(state: TwoAtomState, orbital, samples_per_site):
    """The grid axis x and the orbital matrix w[i, j] = w(x_i - j) on the
    periodic box.  Raises GridError when the grid step exceeds a quarter of
    the orbital width."""
    n = state.n_sites
    step = 1.0 / samples_per_site
    sigma = orbital.sigma
    if step > sigma / 4.0:
        raise GridError(
            f"grid step {step:.4f} a coarser than orbital sigma/4 = {sigma / 4.0:.4f} a"
        )
    x = np.arange(n * samples_per_site) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    return x, orbital.at(dx)


def _term_sources(state: TwoAtomState):
    """source[m] for _position_block: the first earlier member with member
    m's weight whose amplitudes equal m's or their conjugate, else m.

    Equal means np.array_equal, which ignores the sign of a zero.  The
    candidates are the members with the same digest of the weight, the
    real parts and the moduli of the imaginary parts, which a member shares
    with its conjugate; + 0.0 and the modulus turn -0 into +0, so
    conjugating a real entry, which gives an imaginary -0, keeps the
    digest.  In a thermal state each theta > 0 member is the conjugate of
    its -theta member, so 33 of the 64 of lithium-example are computed.
    """
    weights, amplitudes = state.weights, state.amplitudes
    source = np.arange(len(weights))
    candidates = {}
    for m, c in enumerate(amplitudes):
        h = hashlib.sha256(np.float64(weights[m] + 0.0).tobytes())
        h.update(c.real + 0.0)
        h.update(np.abs(c.imag))
        same = candidates.setdefault(h.digest(), [])
        for p in same:
            if weights[p] == weights[m] and (
                np.array_equal(amplitudes[p], c) or np.array_equal(amplitudes[p], c.conj())
            ):
                source[m] = p
                break
        else:
            same.append(m)
    return source


def _fill_position_grid(state: TwoAtomState, w, out, jobs):
    """Compute the row blocks of the unnormalised grid into ``out`` on up
    to ``jobs`` threads."""
    source = _term_sources(state)
    edges = _tile_edges(len(w), _POSITION_ROWS)

    def block(lo, hi):
        _position_block(w, state.weights, state.amplitudes, source, out[lo:hi], lo, hi)

    with ThreadPoolExecutor(max_workers=min(jobs, len(edges) - 1)) as pool:
        list(pool.map(block, edges[:-1], edges[1:]))  # re-raises failures


def _position_total(state: TwoAtomState, w):
    """Sum of the unnormalised position grid without the grid.

    The grid of member m is |w c w^T|^2, so its sum is the squared
    Frobenius norm tr(c^H O c O) of w c w^T, with O = w^T w the orbital's
    N x N Gram matrix on the grid.  It agrees with the grid's ndarray.sum
    to about 1e-15 relative, not bit for bit.
    """
    gram = w.T @ w
    return float(
        sum(
            weight * np.vdot(c, gram @ c @ gram).real
            for weight, c in zip(state.weights, state.amplitudes)
        )
    )


def joint_position_density(
    state: TwoAtomState, orbital, samples_per_site: int = 32, jobs: int = 1
) -> DistributionGrid:
    """P(x1, x2) = |sum_jl c_jl w(x1 - j) w(x2 - l)|^2 on the periodic box.

    ``orbital`` is a lattice.WannierState or lattice.GaussianOrbital.
    Ensemble states are weight-averaged.  A member whose amplitudes equal
    an earlier member's, or their conjugate, with the same weight (the
    theta > 0 members of a thermal state) has that member's grid term, so
    the term is computed once and added at both places.  The grid is
    evaluated in blocks of rows whose edges depend only on the grid size,
    on up to ``jobs`` threads; the result does not depend on ``jobs``.
    Raises GridError when the grid step exceeds a quarter of the orbital
    width.
    """
    x, w = _position_axes(state, orbital, samples_per_site)
    step = 1.0 / samples_per_site
    dens = np.zeros((len(x), len(x)))
    _fill_position_grid(state, w, dens, jobs)
    dens /= dens.sum() * step * step
    return DistributionGrid(axis1=x, axis2=x.copy(), density=dens)


def joint_momentum_density(state: TwoAtomState, orbital, zones: int = 2) -> DistributionGrid:
    """P(p1, p2) = |w~(p1) w~(p2) sum_jl c_jl e^{-i(p1 j + p2 l)}|^2.

    The grid spans ``zones`` Brillouin zones at the box resolution 2 pi / N,
    so it is commensurate with both the Brillouin comb (spacing 2 pi) and
    the box.  ``orbital`` is as in joint_position_density.
    """
    n = state.n_sites
    p = np.arange(-zones * n // 2, zones * n // 2 + 1) * (2.0 * np.pi / n)
    wt = orbital.momentum_at(p)                   # (G,)
    phase = np.exp(-1j * np.outer(p, np.arange(n)))  # (G, N)
    dens = np.zeros((len(p), len(p)))
    for weight, c in zip(state.weights, state.amplitudes):
        s_mat = phase @ c @ phase.T
        psi = wt[:, None] * wt[None, :] * s_mat
        dens += weight * np.abs(psi) ** 2
    step = float(p[1] - p[0])
    dens /= dens.sum() * step * step
    return DistributionGrid(axis1=p, axis2=p.copy(), density=dens)


def _nearest_line(coords, step, value):
    """Index of the grid line nearest ``value``; ConditioningError when
    value lies more than one step outside the grid."""
    if value < coords.min() - step or value > coords.max() + step:
        raise ConditioningError(f"conditioning value {value} outside the grid")
    return int(np.argmin(np.abs(coords - value)))


def _normalized_slice(x, line, step):
    norm = float(line.sum() * step)
    if norm < 1e-12:
        raise ConditioningError("conditioning on a zero-probability value")
    return Slice1D(x=x.copy(), density=line / norm)


def conditional_density(grid: DistributionGrid, value: float) -> Slice1D:
    """Normalized slice P(x2 | x1 = value) at the nearest grid line."""
    line = grid.density[_nearest_line(grid.axis1, grid.d1, value)]
    return _normalized_slice(grid.axis2, line, grid.d2)


def conditional_position_density(
    state: TwoAtomState, orbital, samples_per_site: int, value: float
) -> Slice1D:
    """P(x2 | x1 = value) of joint_position_density's grid, without the grid.

    Row r, the grid line nearest ``value``, is computed as a one-row block,
    which equals that row of the grid bit for bit.  It is divided by the
    grid's total from _position_total and then by its own sum, as the
    grid's slice is, so the result agrees with
    conditional_density(joint_position_density(...), value) to about 1e-15
    relative and raises the same errors.  Dividing by the row's sum alone
    would change the .12g text of some subnormal values.
    """
    x, w = _position_axes(state, orbital, samples_per_site)
    step = 1.0 / samples_per_site
    r = _nearest_line(x, step, value)
    row = np.empty((1, len(x)))
    _position_block(w, state.weights, state.amplitudes, _term_sources(state), row, r, r + 1)
    line = row[0] / (_position_total(state, w) * step * step)
    return _normalized_slice(x, line, step)


def marginal(grid: DistributionGrid) -> Slice1D:
    """Marginal density of axis 2."""
    dens = grid.density.sum(axis=0) * grid.d1
    return Slice1D(x=grid.axis2.copy(), density=dens / (dens.sum() * grid.d2))


def sum_momentum_marginal(grid: DistributionGrid) -> Slice1D:
    """Distribution of p1 + p2 from a commensurate joint momentum grid."""
    step = grid.d1
    g = len(grid.axis1)
    # p1 + p2 index runs over 0 .. 2G-2 with exact registration
    idx = np.arange(g)[:, None] + np.arange(g)[None, :]
    dens = np.bincount(idx.ravel(), weights=grid.density.ravel(), minlength=2 * g - 1)
    p_sum = grid.axis1[0] + grid.axis2[0] + step * np.arange(2 * g - 1)
    dens /= dens.sum() * step
    return Slice1D(x=p_sum, density=dens)


# ---------------------------------------------------------------------------
# peak metrics

@dataclass
class PeakMetrics:
    hwhm: float
    sigma_equiv: float
    peak_positions: np.ndarray
    spacing: float | None


def _half_crossing(x, y, i_peak, half, direction):
    i = i_peak
    while True:
        j = i + direction
        if j < 0 or j >= len(y):
            return None
        if y[j] < half:
            return x[i] + (half - y[i]) * (x[j] - x[i]) / (y[j] - y[i])
        i = j


def peak_metrics(x, density, rel_threshold: float = 0.05) -> PeakMetrics:
    """Dominant-peak HWHM (linear interpolation) and comb spacing.

    Peaks are strict local maxima above ``rel_threshold`` of the global
    maximum; spacing is the median gap between consecutive peaks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(density, dtype=float)
    ymax = float(y.max())
    if ymax <= 0 or np.allclose(y, y[0]):
        raise NoPeakError("distribution has no peak")
    peaks = [
        i
        for i in range(1, len(y) - 1)
        if y[i] >= y[i - 1] and y[i] > y[i + 1] and y[i] > rel_threshold * ymax
    ]
    if not peaks:
        raise NoPeakError("no local maximum above threshold")
    i_dom = max(peaks, key=lambda i: y[i])
    half = y[i_dom] / 2.0
    right = _half_crossing(x, y, i_dom, half, +1)
    left = _half_crossing(x, y, i_dom, half, -1)
    widths = [w for w in (right - x[i_dom] if right is not None else None,
                          x[i_dom] - left if left is not None else None)
              if w is not None]
    if not widths:
        raise NoPeakError("peak does not fall to half maximum inside the grid")
    hwhm = float(np.mean(widths))
    positions = x[peaks]
    spacing = float(np.median(np.diff(positions))) if len(positions) > 1 else None
    return PeakMetrics(
        hwhm=hwhm,
        sigma_equiv=hwhm / GAUSS_HWHM,
        peak_positions=positions,
        spacing=spacing,
    )


def folded_sum_momentum_width(state: TwoAtomState, estimator: str = "hwhm") -> float:
    """Width of the folded sum-momentum distribution of an ensemble.

    ``estimator`` is "hwhm" (Gaussian-equivalent sigma from the dominant
    peak, the package-wide convention) or "variance" (rms spread).
    """
    p, probs = state.sum_momentum_distribution()
    if estimator == "variance":
        mean = float(np.sum(p * probs))
        return float(np.sqrt(np.sum(probs * (p - mean) ** 2)))
    if estimator != "hwhm":
        raise DomainError("estimator must be 'hwhm' or 'variance'")
    metrics = peak_metrics(p, probs, rel_threshold=0.0)
    return metrics.sigma_equiv


# ---------------------------------------------------------------------------
# closed forms

def delta_x_minus(sigma, v_hop, v_dd):
    """Relative-position width sqrt(sigma^2 + 2 a^2 (v_hop / v_dd)^2), in a."""
    if v_dd == 0:
        raise SingularityError("relative-position width undefined at zero interaction")
    return math.sqrt(sigma**2 + 2.0 * (v_hop / v_dd) ** 2)


def delta_p_plus_thermal(v_dd, v_hop, temperature):
    """Thermal sum-momentum width sqrt(|v_dd| k_B T / (4 v_hop^2)), hbar/a units."""
    if v_hop == 0:
        raise SingularityError("thermal momentum width undefined at zero hopping")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    return math.sqrt(abs(v_dd) * temperature / (4.0 * v_hop**2))


def _prep_tanh(sigma_e, temperature):
    """tanh[1 / (pi^2 sigma_E^2 T)], the thermal factor of the preparation
    forms, for T > 0."""
    try:
        return math.tanh(1.0 / (math.pi**2 * sigma_e**2 * temperature))
    except (ZeroDivisionError, OverflowError):  # pi^2 sigma_E^2 T is 0 or overflows
        raise DomainError(
            f"pi^2 sigma_E^2 T is outside the float range at sigma_E = {sigma_e:g} a, "
            f"T = {temperature:g} E_rec"
        ) from None


def delta_p_plus_prep(sigma_e, temperature):
    """Preparation-protocol sum-momentum width, hbar/a units.

    dp_plus = 1 / (sqrt 2 sigma_E tanh[1 / (pi^2 sigma_E^2 T)]), with the
    T -> 0 limit 1 / (sqrt 2 sigma_E).
    """
    if sigma_e <= 0:
        raise SingularityError("envelope width must be positive")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    if temperature == 0:
        return 1.0 / (math.sqrt(2.0) * sigma_e)
    factor = _prep_tanh(sigma_e, temperature)
    if factor == 0:  # pi^2 sigma_E^2 T is inf
        raise DomainError(
            f"dp_plus_prep is infinite at sigma_E = {sigma_e:g} a, T = {temperature:g} E_rec"
        )
    return 1.0 / (math.sqrt(2.0) * sigma_e * factor)


def s_parameter(dx_minus, dp_plus):
    """EPR strength s = hbar / (2 dx dp); s > 1 marks the EPR regime."""
    if dx_minus <= 0 or dp_plus <= 0:
        raise SingularityError("widths must be positive")
    return 1.0 / (2.0 * dx_minus * dp_plus)


def s_estimate(sigma_e, sigma, temperature):
    """Closed-form estimate s = (sigma_E / (sqrt 2 sigma)) tanh[(a/sigma_E)^2
    E_rec / (pi^2 k_B T)] (internal units)."""
    if sigma_e <= 0 or sigma <= 0:
        raise DomainError("widths must be positive")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    pref = sigma_e / (math.sqrt(2.0) * sigma)
    if temperature == 0:
        return pref
    return pref * _prep_tanh(sigma_e, temperature)


@dataclass(frozen=True)
class OptimizeResult:
    sigma_e: float
    s: float
    on_boundary: bool


# root of sinh 2y = 4y, where tanh(y) / sqrt(y) is largest
_Y_OPT = 1.0886594924826534


def optimize_sigma_e(sigma, temperature, lo, hi) -> OptimizeResult:
    """Maximize the closed-form s over the envelope width, in closed form.

    With y = 1 / (pi^2 sigma_E^2 T), s is a constant times tanh(y) / sqrt(y),
    whose one maximum is at y = _Y_OPT; T = 0 has no maximum (s grows with
    sigma_E).  The optimum is clipped to [lo, hi], and on_boundary says so.
    """
    if not 0 < lo < hi:
        raise DomainError("bounds must satisfy 0 < lo < hi")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    best = 1.0 / (math.pi * math.sqrt(_Y_OPT * temperature)) if temperature else math.inf
    clipped = min(max(best, lo), hi)
    return OptimizeResult(clipped, s_estimate(clipped, sigma, temperature), clipped != best)


def pair_fraction(sigma_e):
    """Fraction ~ a / sigma_E of doubly occupied tube pairs kept as diatoms."""
    if sigma_e <= 0:
        raise DomainError("envelope width must be positive")
    return 1.0 / sigma_e

