"""Single-particle physics of the 1D optical lattice.

Bloch bands by plane-wave diagonalization, Wannier functions, hopping
amplitudes, bandwidths, effective masses, and the Gaussian width of the
lowest-band Wannier orbital.

All quantities are in internal units: energies in E_rec, lengths in a,
quasimomenta in 1/a.  The lattice potential is (U0/2) cos(2 pi x / a), whose
wells sit at half-integer positions; Wannier home centers are therefore at
x_j = j + 1/2 (in units of a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, DegenerateBandError, DomainError, SingularityError

__all__ = [
    "LatticeConfig",
    "BlochSpectrum",
    "WannierState",
    "GaussianOrbital",
    "HoppingResult",
    "HoppingEstimate",
    "WannierWidth",
    "zone_grid",
    "band_structure",
    "require_band_gap",
    "cosine_band_fit",
    "curvature_mass",
    "hopping_exact",
    "hopping_approx",
    "wannier",
    "wannier_gaussian_width",
    "effective_mass_single",
    "effective_mass_from_band",
    "lattice_matrix_element",
]

# Kinetic prefactor: p^2/(2m) = KIN * p~^2 in E_rec for p~ in hbar/a.
KIN = 1.0 / math.pi**2


@dataclass(frozen=True)
class LatticeConfig:
    """Periodic 1D lattice: depth u0 (E_rec), n_sites sites, plane-wave
    cutoff (reciprocal vectors -cutoff..+cutoff)."""

    u0: float
    n_sites: int = 64
    cutoff: int = 16
    samples_per_site: int = 32

    def __post_init__(self):
        if self.u0 < 0:
            raise DomainError("lattice depth must be non-negative")
        if self.n_sites < 8:
            raise DomainError("need at least 8 lattice sites")
        if self.cutoff < 8:
            raise DomainError("plane-wave cutoff must be at least 8")
        if self.samples_per_site < 4:
            raise DomainError("need at least 4 samples per site")


@dataclass
class BlochSpectrum:
    """Band energies and lowest-band plane-wave coefficients on the
    quasimomentum grid q_n = 2 pi n / N, n = -N/2 .. N/2 - 1."""

    config: LatticeConfig
    q: np.ndarray                # (N,) quasimomenta in 1/a
    energies: np.ndarray         # (N, 3) in E_rec
    coefficients: np.ndarray     # (N, 2M+1), real

    @property
    def lowest_band(self):
        return self.energies[:, 0]


def _bloch_matrix(q, u0, cutoff):
    s = np.arange(-cutoff, cutoff + 1)
    h = np.diag(KIN * (q + 2.0 * np.pi * s) ** 2)
    off = np.full(2 * cutoff, u0 / 4.0)
    h += np.diag(off, 1) + np.diag(off, -1)
    return h


def zone_grid(n):
    """Phases 2 pi k / N, k = -ceil(N/2) .. N//2 - 1, of the Brillouin zone
    of an N-site ring, and mirror[i], the index of -k where k > 0, else i.

    The index of -k is (N + 1)//2 - k, which is N - i only for even N.
    -N/2 has no mirror for even N, nor have -(N + 1)/2 and -(N - 1)/2 for
    odd N.
    """
    k = np.arange(-n // 2, n // 2)
    mirror = np.where(k > 0, (n + 1) // 2 - k, np.arange(n))
    return 2.0 * np.pi * k / n, mirror


def band_structure(cfg: LatticeConfig) -> BlochSpectrum:
    """Diagonalize the plane-wave lattice Hamiltonian on the full q grid and
    keep its three lowest bands' energies and the lowest band's coefficients.

    Raises ConvergenceError if doubling the cutoff moves the lowest band by
    more than 1e-8 E_rec at the zone center or edge.
    """
    n = cfg.n_sites
    m = cfg.cutoff
    q, _ = zone_grid(n)
    energies = np.empty((n, 3))
    coeffs = np.empty((n, 2 * m + 1))
    for i, qi in enumerate(q):
        w, v = np.linalg.eigh(_bloch_matrix(qi, cfg.u0, m))
        energies[i] = w[:3]
        coeffs[i] = v[:, 0]
    for qi in (0.0, -np.pi):
        e_m = np.linalg.eigvalsh(_bloch_matrix(qi, cfg.u0, m))[0]
        e_2m = np.linalg.eigvalsh(_bloch_matrix(qi, cfg.u0, 2 * m))[0]
        if abs(e_m - e_2m) > 1e-8:
            raise ConvergenceError(
                f"plane-wave cutoff {m} not converged at q={qi:.3f}: "
                f"|dE0| = {abs(e_m - e_2m):.3e} E_rec > 1e-8"
            )
    return BlochSpectrum(config=cfg, q=q, energies=energies, coefficients=coeffs)


@dataclass(frozen=True)
class HoppingResult:
    """Nearest-neighbor hopping from the exact lowest band."""

    v_hop: float            # E_rec, negative for u0 > 0
    bandwidth: float        # E_rec
    bandwidth_ratio: float  # bandwidth / (4 |v_hop|)
    tight_binding_rms: float  # rms residual of E0 vs const + 2 v_hop cos(qa)


def require_band_gap(spectrum: BlochSpectrum):
    """Raise DegenerateBandError where the lowest band touches the next one."""
    gap = float(np.min(spectrum.energies[:, 1] - spectrum.energies[:, 0]))
    if gap < 1e-10:
        raise DegenerateBandError(
            "lowest band degenerate with first excited band; Wannier gauge "
            "is undefined in the free-lattice limit"
        )


def cosine_band_fit(k, energies):
    """Fit E(k) = mean + 2 v cos(k) on the full Brillouin-zone grid ``k``.

    Returns (v, bandwidth, rms residual), with v = (1/N) sum_k E(k) exp(i k)
    the nearest-neighbor Fourier coefficient.
    """
    v = float(np.real(energies @ np.exp(1j * k)) / len(energies))
    bandwidth = float(energies.max() - energies.min())
    model = float(energies.mean()) + 2.0 * v * np.cos(k)
    rms = float(np.sqrt(np.mean((energies - model) ** 2)))
    return v, bandwidth, rms


def curvature_mass(k, energies, error: Exception) -> float:
    """m_eff / m = 2 / (pi^2 E''(0)) from the finite-difference curvature of
    E(k) at k = 0; raises ``error`` unless the curvature is positive."""
    i0 = int(np.argmin(np.abs(k)))
    dk = float(k[1] - k[0])
    curv = (energies[i0 + 1] - 2.0 * energies[i0] + energies[i0 - 1]) / dk**2
    if curv <= 0:
        raise error
    return 2.0 / (math.pi**2 * curv)


def hopping_exact(spectrum: BlochSpectrum) -> HoppingResult:
    """Nearest-neighbor Fourier coefficient of the lowest band,
    V_hop = (1/N) sum_q E0(q) exp(i q a)."""
    v_hop, bandwidth, rms = cosine_band_fit(spectrum.q, spectrum.lowest_band)
    ratio = bandwidth / (4.0 * abs(v_hop)) if v_hop != 0 else math.inf
    return HoppingResult(
        v_hop=v_hop, bandwidth=bandwidth, bandwidth_ratio=ratio, tight_binding_rms=rms
    )


@dataclass(frozen=True)
class HoppingEstimate:
    value: float
    within_validity: bool


def hopping_approx(u0) -> HoppingEstimate:
    """Shallow-lattice estimate E_rec exp(-0.26 U0/E_rec).

    Note: at the lithium operating point this numerically reproduces the
    lowest bandwidth 4|V_hop|, not V_hop itself; treat it as a
    bandwidth-scale estimate.  Valid for u0 <~ 15 E_rec (flagged, not
    raised, outside that range).
    """
    if u0 < 0:
        raise DomainError("lattice depth must be non-negative")
    return HoppingEstimate(value=math.exp(-0.26 * u0), within_validity=u0 <= 15.0)


@dataclass
class WannierState:
    """Lowest-band Wannier orbital on the periodic real-space grid.

    ``x`` covers [0, N) in units of a; ``amplitude`` is real (Kohn gauge)
    and the orbital is centered at ``center``, its site + 1/2.
    """

    x: np.ndarray
    amplitude: np.ndarray
    center: float
    residual_imag: float = field(default=0.0)

    @property
    def dx(self):
        return float(self.x[1] - self.x[0])

    def displacement_profile(self):
        """(dx_grid, amplitude) with the orbital rolled so its center maps
        to displacement 0 and the grid spans [-N/2, N/2)."""
        n_grid = len(self.x)
        shift = int(round(self.center / self.dx)) - n_grid // 2
        amp = np.roll(self.amplitude, -shift)
        dxg = (np.arange(n_grid) - n_grid // 2) * self.dx
        return dxg, amp

    @property
    def sigma(self):
        """Rms width of the orbital density, units of a."""
        dx, amp = self.displacement_profile()
        dens = amp**2
        dens = dens / dens.sum()
        return float(np.sqrt(np.sum(dens * dx**2)))

    def at(self, dx):
        """Amplitude at displacement dx from the center, interpolated
        linearly on the grid and 0 beyond it."""
        grid, amp = self.displacement_profile()
        return np.interp(dx, grid, amp, left=0.0, right=0.0)

    def momentum_at(self, p):
        """Fourier transform sum_x exp(-i p x) amplitude(x) dx of the
        centered orbital at momenta p (hbar/a)."""
        grid, amp = self.displacement_profile()
        step = float(grid[1] - grid[0])
        return (np.exp(-1j * np.outer(p, grid)) @ amp * step).real


@dataclass(frozen=True)
class GaussianOrbital:
    """Gaussian single-site orbital whose density has rms width ``sigma``
    (units of a); the harmonic-well model of the Wannier orbital."""

    sigma: float

    def at(self, dx):
        """Amplitude at displacement dx from the center."""
        sigma = self.sigma
        return (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(-(dx**2) / (4.0 * sigma**2))

    def momentum_at(self, p):
        """Fourier transform of the amplitude at momenta p (hbar/a), in the
        convention of WannierState.momentum_at."""
        sigma = self.sigma
        return (8.0 * math.pi * sigma**2) ** 0.25 * np.exp(-(sigma**2) * p**2)


def wannier(spectrum: BlochSpectrum, site: int = 0) -> WannierState:
    """Construct the lowest-band Wannier function localized at ``site``.

    Bloch phases are fixed so that each Bloch function is real and positive
    at the well center of site 0, which makes the Wannier orbital real and
    symmetric about its center.

    The plane waves exp(i x (q + 2 pi s)) of -q are the conjugates of those
    of q in reverse order of s, exactly but for the signs of zeros, so the
    table of each q < 0 with a mirror gives its mirror's as well.  The
    mirror's Bloch function is held until its turn, so the orbital is
    summed in the order of q.
    """
    cfg = spectrum.config
    require_band_gap(spectrum)
    n = cfg.n_sites
    ppa = cfg.samples_per_site
    m = cfg.cutoff
    x = np.arange(n * ppa) / ppa
    s = np.arange(-m, m + 1)
    center0 = 0.5
    _, mirror = zone_grid(n)
    partner = {j: i for i, j in enumerate(mirror.tolist()) if j != i}  # -q -> q
    held = {}
    mirrored = np.empty((len(x), len(s)), dtype=complex)
    w = np.zeros(n * ppa, dtype=complex)
    for i, qi in enumerate(spectrum.q):
        c = spectrum.coefficients[i]
        # Bloch function on the grid and its value at the site-0 well center
        phi = held.pop(i, None)
        if phi is None:
            phases = 1j * np.outer(x, qi + 2.0 * np.pi * s)
            np.exp(phases, out=phases)
            phi = phases @ c
            if i in partner:
                j = partner[i]
                np.conjugate(phases[:, ::-1], out=mirrored)
                held[j] = mirrored @ spectrum.coefficients[j]
        at_center = np.exp(1j * center0 * (qi + 2.0 * np.pi * s)) @ c
        if abs(at_center) < 1e-12:
            raise DegenerateBandError("Bloch function vanishes at the well center")
        phi *= abs(at_center) / at_center
        w += np.exp(-1j * qi * site) * phi
    resid = float(np.max(np.abs(w.imag)) / np.max(np.abs(w)))
    amp = w.real
    amp /= math.sqrt(np.sum(amp**2) / ppa)
    # global sign: positive at the center
    ic = int(round((site + center0) * ppa)) % (n * ppa)
    if amp[ic] < 0:
        amp = -amp
    return WannierState(x=x, amplitude=amp, center=site + center0, residual_imag=resid)


def lattice_matrix_element(cfg: LatticeConfig, w1: WannierState, w2: WannierState) -> float:
    """<w1| H_lat |w2> by spectral application of H on the periodic grid."""
    ppa = cfg.samples_per_site
    dx = 1.0 / ppa
    k = 2.0 * np.pi * np.fft.fftfreq(len(w2.x), d=dx)
    kinetic = np.fft.ifft(KIN * k**2 * np.fft.fft(w2.amplitude)).real
    potential = (cfg.u0 / 2.0) * np.cos(2.0 * np.pi * w2.x) * w2.amplitude
    return float(np.sum(w1.amplitude * (kinetic + potential)) * dx)


@dataclass(frozen=True)
class WannierWidth:
    """Gaussian width of the lowest-band orbital, in units of a.

    ``sigma`` is the harmonic-well ground-state width (canonical: it
    reproduces the quoted 0.136 a for the lithium scheme); ``sigma_literal``
    follows the alternative printed closed form, which is larger by 2^(1/4)
    and inconsistent with the quoted number.
    """

    sigma: float
    sigma_literal: float


def wannier_gaussian_width(u0) -> WannierWidth:
    """Harmonic-approximation width of the lowest-band Wannier orbital.

    Expanding (U0/2) cos(2 pi x / a) about a well gives
    omega = (pi/a) sqrt(2 U0 / m) and sigma^2 = hbar/(2 m omega), i.e.
    sigma^2 = 1 / (2 pi^2 sqrt(U0)) in units of a^2 with U0 in E_rec.
    """
    if u0 <= 0:
        raise SingularityError("harmonic width undefined for zero lattice depth")
    sigma_sq = 1.0 / (2.0 * math.pi**2 * math.sqrt(u0))
    return WannierWidth(
        sigma=math.sqrt(sigma_sq),
        sigma_literal=math.sqrt(sigma_sq * math.sqrt(2.0)),
    )


def effective_mass_single(v_hop) -> float:
    """m_eff / m = hbar^2 / (2 |v_hop| a^2 m) for the cosine band."""
    if v_hop == 0:
        raise SingularityError("effective mass diverges at zero hopping")
    return 1.0 / (math.pi**2 * abs(v_hop))


def effective_mass_from_band(spectrum: BlochSpectrum) -> float:
    """m_eff / m from the finite-difference curvature of E0 at q = 0."""
    return curvature_mass(
        spectrum.q,
        spectrum.lowest_band,
        SingularityError("non-positive band curvature at q = 0"),
    )
