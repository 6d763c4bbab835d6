"""Observable distributions and EPR figures of merit.

Joint and conditional position/momentum densities of two-atom states, the
correlation widths dx_minus (relative position) and dp_plus (folded sum
momentum), the EPR strength parameter s = hbar / (2 dx dp), the closed-form
preparation estimates, and the envelope-width optimizer.

Internal units: lengths in a, momenta in hbar/a, energies in E_rec,
temperatures as k_B T / E_rec.  Site centers are placed at integer x = j;
peak widths follow one convention throughout: half-width at half-maximum of
the dominant peak, converted to a Gaussian-equivalent sigma by dividing by
sqrt(2 ln 2) = 1.1774 whenever compared against closed forms.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .diatom import TwoAtomState
from .errors import (
    ConditioningError,
    DomainError,
    GridError,
    NoPeakError,
    SingularityError,
)
from .lattice import WannierState

__all__ = [
    "GAUSS_HWHM",
    "DistributionGrid",
    "Slice1D",
    "PeakMetrics",
    "EprReport",
    "OptimizeResult",
    "joint_position_density",
    "joint_momentum_density",
    "conditional_density",
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
    "epr_report",
]

# HWHM of a unit-sigma Gaussian
GAUSS_HWHM = math.sqrt(2.0 * math.log(2.0))


# ---------------------------------------------------------------------------
# orbitals

def _orbital_sigma(orbital):
    """Rms width of the single-site orbital density, units of a."""
    if isinstance(orbital, WannierState):
        dx, amp = orbital.displacement_profile()
        dens = amp**2
        dens = dens / dens.sum()
        return float(np.sqrt(np.sum(dens * dx**2)))
    return float(orbital)


def _orbital_amplitude(orbital, dx):
    """Real-space orbital amplitude at displacement dx from its center."""
    if isinstance(orbital, WannierState):
        grid, amp = orbital.displacement_profile()
        return np.interp(dx, grid, amp, left=0.0, right=0.0)
    sigma = float(orbital)
    return (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-(dx**2) / (4.0 * sigma**2))


def _orbital_momentum_amplitude(orbital, p):
    """Fourier transform of the orbital amplitude at momentum p (hbar/a)."""
    if isinstance(orbital, WannierState):
        grid, amp = orbital.displacement_profile()
        step = float(grid[1] - grid[0])
        return (np.exp(-1j * np.outer(p, grid)) @ amp * step).real
    sigma = float(orbital)
    return (8.0 * math.pi * sigma**2) ** 0.25 * np.exp(-(sigma**2) * p**2)


# ---------------------------------------------------------------------------
# distribution containers

@dataclass
class DistributionGrid:
    """Normalized joint density on a rectangular grid."""

    axis1: np.ndarray
    axis2: np.ndarray
    density: np.ndarray
    kind: str                   # "position" | "momentum"

    @property
    def d1(self):
        return float(self.axis1[1] - self.axis1[0])

    @property
    def d2(self):
        return float(self.axis2[1] - self.axis2[0])

    def total(self):
        return float(self.density.sum() * self.d1 * self.d2)


@dataclass
class Slice1D:
    """Normalized 1D density slice."""

    x: np.ndarray
    density: np.ndarray

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    def total(self):
        return float(self.density.sum() * self.dx)


# ---------------------------------------------------------------------------
# joint densities

# rows per block of the position grid; blocks this tall reproduce the
# unblocked GEMM bit for bit, while very short ones take another BLAS path
_POSITION_BLOCK_ROWS = 256


def _position_block(w, members, out, lo, hi):
    """Weighted sum over members of |w[lo:hi] c w^T|^2 into out[lo:hi].

    Runs in worker threads, so it calls nothing but numpy: the package's
    functions then only ever run on the calling thread.
    """
    acc = out[lo:hi]
    acc[...] = 0.0
    buf = np.empty_like(acc)
    for weight, c in members:
        np.abs(w[lo:hi] @ c @ w.T, out=buf)
        np.square(buf, out=buf)
        buf *= weight
        acc += buf


def joint_position_density(
    state: TwoAtomState, orbital, samples_per_site: int = 32, jobs: int = 1
) -> DistributionGrid:
    """P(x1, x2) = |sum_jl c_jl w(x1 - j) w(x2 - l)|^2 on the periodic box.

    Ensemble states are weight-averaged.  The grid is evaluated in blocks of
    rows whose bounds depend only on the grid size, on up to ``jobs``
    threads; the result does not depend on ``jobs``.  Raises GridError when
    the grid step exceeds a quarter of the orbital width.
    """
    n = state.n_sites
    step = 1.0 / samples_per_site
    sigma = _orbital_sigma(orbital)
    if step > sigma / 4.0:
        raise GridError(
            f"grid step {step:.4f} a coarser than orbital sigma/4 = {sigma / 4.0:.4f} a"
        )
    x = np.arange(n * samples_per_site) * step
    sites = np.arange(n, dtype=float)
    dx = (x[:, None] - sites[None, :] + n / 2.0) % n - n / 2.0
    w = _orbital_amplitude(orbital, dx)           # (G, N)
    g = len(x)
    bounds = np.linspace(0, g, -(-g // _POSITION_BLOCK_ROWS) + 1).astype(int)
    dens = np.empty((g, g))
    block = functools.partial(_position_block, w, state.members, dens)
    with ThreadPoolExecutor(max_workers=min(jobs, len(bounds) - 1)) as pool:
        list(pool.map(block, bounds[:-1], bounds[1:]))  # re-raises failures
    dens /= dens.sum() * step * step
    return DistributionGrid(axis1=x, axis2=x.copy(), density=dens, kind="position")


def joint_momentum_density(
    state: TwoAtomState, orbital, zones: int = 2, p_grid: np.ndarray | None = None
) -> DistributionGrid:
    """P(p1, p2) = |w~(p1) w~(p2) sum_jl c_jl e^{-i(p1 j + p2 l)}|^2.

    The grid is commensurate with both the Brillouin comb (spacing 2 pi) and
    the box resolution (spacing 2 pi / N); a custom ``p_grid`` must keep
    that commensurability.
    """
    n = state.n_sites
    base = 2.0 * np.pi / n
    if p_grid is None:
        m = np.arange(-zones * n // 2, zones * n // 2 + 1)
        p = m * base
    else:
        p = np.asarray(p_grid, dtype=float)
        ratio = p / base
        if np.max(np.abs(ratio - np.round(ratio))) > 1e-9:
            raise GridError("momentum grid must consist of multiples of 2 pi/(N a)")
    wt = _orbital_momentum_amplitude(orbital, p)  # (G,)
    phase = np.exp(-1j * np.outer(p, np.arange(n)))  # (G, N)
    dens = np.zeros((len(p), len(p)))
    for weight, c in state.members:
        s_mat = phase @ c @ phase.T
        psi = wt[:, None] * wt[None, :] * s_mat
        dens += weight * np.abs(psi) ** 2
    step = float(p[1] - p[0])
    dens /= dens.sum() * step * step
    return DistributionGrid(axis1=p, axis2=p.copy(), density=dens, kind="momentum")


def conditional_density(grid: DistributionGrid, axis: int, value: float) -> Slice1D:
    """Normalized slice P(. | axis = value) at the nearest grid line."""
    if axis not in (1, 2):
        raise DomainError("axis must be 1 or 2")
    coords = grid.axis1 if axis == 1 else grid.axis2
    if value < coords.min() - grid.d1 or value > coords.max() + grid.d1:
        raise ConditioningError(f"conditioning value {value} outside the grid")
    i = int(np.argmin(np.abs(coords - value)))
    line = grid.density[i, :] if axis == 1 else grid.density[:, i]
    other = grid.axis2 if axis == 1 else grid.axis1
    step = float(other[1] - other[0])
    norm = float(line.sum() * step)
    if norm < 1e-12:
        raise ConditioningError("conditioning on a zero-probability value")
    return Slice1D(x=other.copy(), density=line / norm)


def marginal(grid: DistributionGrid, axis: int) -> Slice1D:
    """Marginal density of axis 1 or 2."""
    if axis == 1:
        dens = grid.density.sum(axis=1) * grid.d2
        x = grid.axis1
    elif axis == 2:
        dens = grid.density.sum(axis=0) * grid.d1
        x = grid.axis2
    else:
        raise DomainError("axis must be 1 or 2")
    step = float(x[1] - x[0])
    return Slice1D(x=x.copy(), density=dens / (dens.sum() * step))


def sum_momentum_marginal(grid: DistributionGrid) -> Slice1D:
    """Distribution of p1 + p2 from a commensurate joint momentum grid."""
    if grid.kind != "momentum":
        raise DomainError("sum-momentum marginal requires a momentum grid")
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

def delta_x_minus(sigma, v_hop, v_dd, a: float = 1.0):
    """Relative-position width sqrt(sigma^2 + 2 a^2 (v_hop / v_dd)^2)."""
    if v_dd == 0:
        raise SingularityError("relative-position width undefined at zero interaction")
    return math.sqrt(sigma**2 + 2.0 * a**2 * (v_hop / v_dd) ** 2)


def delta_p_plus_thermal(v_dd, v_hop, temperature, a: float = 1.0):
    """Thermal sum-momentum width sqrt(|v_dd| k_B T / (4 v_hop^2)), hbar/a units."""
    if v_hop == 0:
        raise SingularityError("thermal momentum width undefined at zero hopping")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    return math.sqrt(abs(v_dd) * temperature / (4.0 * v_hop**2)) / a


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
    arg = 1.0 / (math.pi**2 * sigma_e**2 * temperature)
    return 1.0 / (math.sqrt(2.0) * sigma_e * math.tanh(arg))


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
    return pref * math.tanh(1.0 / (math.pi**2 * sigma_e**2 * temperature))


@dataclass(frozen=True)
class OptimizeResult:
    sigma_e: float
    s: float
    on_boundary: bool


def optimize_sigma_e(sigma, temperature, lo, hi, tol: float = 1e-4) -> OptimizeResult:
    """Maximize the closed-form s over the envelope width by golden section.

    The objective is unimodal in sigma_E (rising prefactor against a falling
    tanh); a boundary solution is flagged rather than treated as an error.
    """
    if not 0 < lo < hi:
        raise DomainError("bounds must satisfy 0 < lo < hi")
    if temperature < 0:
        raise DomainError("temperature must be non-negative")

    def f(se):
        return s_estimate(se, sigma, temperature)

    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a_, b_ = lo, hi
    c = b_ - inv_phi * (b_ - a_)
    d = a_ + inv_phi * (b_ - a_)
    fc, fd = f(c), f(d)
    while b_ - a_ > tol:
        if fc > fd:
            b_, d, fd = d, c, fc
            c = b_ - inv_phi * (b_ - a_)
            fc = f(c)
        else:
            a_, c, fc = c, d, fd
            d = a_ + inv_phi * (b_ - a_)
            fd = f(d)
    x = (a_ + b_) / 2.0
    boundary = x - lo < 5.0 * tol or hi - x < 5.0 * tol
    # boundary refinement: compare against the endpoints explicitly
    best_x, best_s = x, f(x)
    for xe in (lo, hi):
        fe = f(xe)
        if fe > best_s:
            best_x, best_s, boundary = xe, fe, True
    return OptimizeResult(sigma_e=best_x, s=best_s, on_boundary=boundary)


def pair_fraction(sigma_e, a: float = 1.0):
    """Fraction ~ a / sigma_E of doubly occupied tube pairs kept as diatoms."""
    if sigma_e <= 0:
        raise DomainError("envelope width must be positive")
    return a / sigma_e


# ---------------------------------------------------------------------------
# report

@dataclass
class EprReport:
    """EPR widths and validity flags; s = 1/(2 dx dp) holds by construction."""

    dx_minus: float
    dp_plus: float
    s: float
    position_peak_spacing: float | None = None
    momentum_ridge_spacing: float | None = None
    momentum_ridge_halfwidth: float | None = None
    flags: dict = field(default_factory=dict)


def epr_report(dx_minus, dp_plus, **extras) -> EprReport:
    return EprReport(
        dx_minus=dx_minus,
        dp_plus=dp_plus,
        s=s_parameter(dx_minus, dp_plus),
        **extras,
    )
