"""Two-atom tight-binding model on the pair of tubes.

Basis |j, l> = site j of tube 1, site l of tube 2, periodic in both indices.
Hop terms connect j -> j+-1 and l -> l+-1 with amplitude v_hop; the diagonal
carries the dipole-dipole energy V_dd(j - l).

Translation invariance under the simultaneous shift (j, l) -> (j+1, l+1)
block-diagonalizes the N^2 problem into N relative-coordinate problems of
size N, labelled by the center-of-mass Bloch phase theta = K a:

    c_jl = exp(i theta j) g(l - j) / sqrt(N)
    (H_theta g)(d) = V(d) g(d) + v_hop [(1 + e^{i theta}) g(d-1)
                                        + (1 + e^{-i theta}) g(d+1)]

V(d) is real, so H_{-theta} is the complex conjugate of H_theta: the two
blocks share their eigenvalues, and the eigenvectors of one are the
conjugates of the other's.  Only the phases theta <= 0 are diagonalized,
N/2 + 1 of the N for even N; the rest are filled in by conjugation.

The brute-force N^2 x N^2 diagonalization is kept as the small-N oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dipole import InteractionProfile
from .errors import DomainError, RegimeError, SingularityError, SizeError
from .lattice import cosine_band_fit, curvature_mass, effective_mass_single, zone_grid

__all__ = [
    "TwoAtomHamiltonian",
    "TwoAtomState",
    "DiatomBand",
    "build_hamiltonian",
    "diatom_band_exact",
    "dense_spectrum",
    "hopping_two_atom",
    "effective_mass_two_atom",
    "effective_mass_ratio_two_atom",
    "envelope_state",
    "thermal_diatom_state",
]

@dataclass(frozen=True)
class TwoAtomHamiltonian:
    """Translation-invariant two-atom Hamiltonian.

    ``vdd_diag[d]`` is the interaction energy at wrapped site separation d
    (d = 0 .. N-1, symmetric under d -> N - d).
    """

    n_sites: int
    v_hop: float
    vdd_diag: np.ndarray

    def block(self, theta: float) -> np.ndarray:
        """Relative-coordinate Hamiltonian at center-of-mass phase theta."""
        n = self.n_sites
        h = np.diag(self.vdd_diag).astype(complex)
        lower = self.v_hop * (1.0 + np.exp(1j * theta))
        upper = self.v_hop * (1.0 + np.exp(-1j * theta))
        idx = np.arange(n)
        h[idx, (idx - 1) % n] += lower
        h[idx, (idx + 1) % n] += upper
        return h

    def dense(self) -> np.ndarray:
        """Full N^2 x N^2 matrix in the |j, l> basis (oracle path)."""
        n = self.n_sites
        dim = n * n
        h = np.zeros((dim, dim))
        j, l = np.divmod(np.arange(dim), n)
        h[np.arange(dim), np.arange(dim)] = self.vdd_diag[(j - l) % n]
        for shift in (1, -1):
            h[np.arange(dim), ((j + shift) % n) * n + l] += self.v_hop
            h[np.arange(dim), j * n + (l + shift) % n] += self.v_hop
        return h


def build_hamiltonian(
    n_sites: int,
    v_hop: float,
    profile: InteractionProfile,
    include_offsite: bool = True,
) -> TwoAtomHamiltonian:
    """Assemble the two-atom Hamiltonian from a site-offset interaction profile."""
    if n_sites < 8:
        raise DomainError("need at least 8 sites per tube")
    vdd = np.zeros(n_sites)
    for d in range(n_sites):
        dw = min(d, n_sites - d)
        if dw == 0:
            vdd[d] = profile.value(0)
        elif include_offsite:
            vdd[d] = profile.value(dw)
    return TwoAtomHamiltonian(n_sites=n_sites, v_hop=v_hop, vdd_diag=vdd)


def dense_spectrum(h: TwoAtomHamiltonian) -> np.ndarray:
    """Sorted eigenvalues of the brute-force N^2 x N^2 matrix (N <= 24)."""
    if h.n_sites > 24:
        raise SizeError("dense oracle limited to N <= 24")
    return np.linalg.eigvalsh(h.dense())


@dataclass(frozen=True)
class TwoAtomState:
    """Pure state or Boltzmann ensemble of two-atom amplitude matrices.

    ``amplitudes[m]`` is the N x N amplitude matrix over site pairs of
    member m and ``weights[m]`` its weight; weights sum to 1 and each member
    is normalized.  The arrays are made read-only once they pass the
    checks, so a state stays as it was checked.
    """

    weights: np.ndarray          # (M,)
    amplitudes: np.ndarray       # (M, N, N), complex
    bound_occupancy: float | None = None

    def __post_init__(self):
        m = np.size(self.weights)
        shapes = tuple(np.shape(a) for a in (self.weights, self.amplitudes))
        if shapes != ((m,), (m,) + np.shape(self.amplitudes)[-1:] * 2):
            raise DomainError(f"shapes {shapes} are not (M,) and (M, N, N)")
        # written so that NaN fails the checks
        total = float(np.sum(self.weights))
        if not abs(total - 1.0) <= 1e-10:
            raise DomainError(f"ensemble weights sum to {total}, expected 1")
        norms = np.sum(np.abs(self.amplitudes) ** 2, axis=(1, 2))
        bad = np.flatnonzero(~(np.abs(norms - 1.0) <= 1e-10))
        if len(bad):
            raise DomainError(f"member norm {norms[bad[0]]} differs from 1")
        for array in (self.weights, self.amplitudes):
            array.flags.writeable = False

    @property
    def n_sites(self):
        return self.amplitudes.shape[-1]

    @property
    def regime_warning(self):
        """Why the ensemble is outside the regime the model describes, or None."""
        occupancy = self.bound_occupancy
        if occupancy is not None and occupancy < 0.9:
            return (
                f"bound-branch occupancy {occupancy:.3f} < 0.9: temperature too "
                "high for a pure diatom ensemble"
            )
        return None

    def sum_momentum_distribution(self):
        """Distribution of the folded sum momentum p1 + p2.

        Site-level momenta live on p = 2 pi m / N (units hbar/a); the sum is
        folded into [-pi, pi), which holds -pi for even N.  Returns
        (p_plus, probabilities).
        """
        n = self.n_sites
        p2 = np.abs(np.fft.fft2(self.amplitudes)) ** 2
        p2 /= p2.sum(axis=(1, 2), keepdims=True)
        p2 *= self.weights[:, None, None]
        m = np.arange(n)
        folded = (m[:, None] + m[None, :]) % n
        # bincount adds in input order: each bin sums its terms member by member
        probs = np.bincount(np.tile(folded.ravel(), len(p2)), weights=p2.ravel(), minlength=n)
        m_wrapped = np.where(m >= (n + 1) // 2, m - n, m)
        p_plus = 2.0 * np.pi * m_wrapped / n
        order = np.argsort(p_plus)
        return p_plus[order], probs[order]


def _bloch_amplitudes(thetas, g):
    """c[m, j, l] = exp(i thetas[m] j) g[m, l - j] / sqrt(N), one matrix per
    center-of-mass phase."""
    n = g.shape[-1]
    j = np.arange(n)
    rel = (j[None, :] - j[:, None]) % n
    return np.exp(1j * thetas[:, None] * j)[:, :, None] * g[:, rel] / math.sqrt(n)


@dataclass(frozen=True)
class DiatomBand:
    """Bound branch of the two-atom spectrum versus center-of-mass momentum,
    with the solved blocks that the pair states are built from."""

    thetas: np.ndarray           # K a
    energies: np.ndarray         # bound-branch E(K), E_rec
    spectra: np.ndarray          # (N, N): every eigenvalue of the block at thetas[i]
    vectors: np.ndarray          # (N, N): its bound-branch eigenvector
    v_hop_fit: float             # nearest-neighbor Fourier coefficient
    bandwidth: float
    fit_residual_rms: float
    gap_min: float               # min over K of E1 - E0
    m_eff_ratio_fit: float       # m_eff^(2at)/m from the fitted cosine
    m_eff_ratio_curvature: float  # from finite-difference curvature at K=0


def diatom_band_exact(h: TwoAtomHamiltonian) -> DiatomBand:
    """Diagonalize every center-of-mass block and fit the bound-diatom band.

    Each bound-branch vector is in the gauge where its largest-magnitude
    component is real positive.  Only the rows that are their own mirror
    (see lattice.zone_grid) are solved: N/2 + 1 for even N, 33 of 64 on
    lithium-example.  The block at theta > 0 is the conjugate of the block
    at -theta, so its row copies the eigenvalues of its mirror row and the
    conjugate of its bound vector, which LAPACK's zheevd is observed to
    match bit for bit; the tests check it against solving every block.  The
    arrays are shared by every state built from the band, so they are
    read-only.
    """
    n = h.n_sites
    thetas, mirror = zone_grid(n)
    spectra = np.empty((n, n))
    vectors = np.empty((n, n), dtype=complex)
    paired = mirror != np.arange(n)
    for i in np.flatnonzero(~paired):
        w, v = np.linalg.eigh(h.block(thetas[i]))
        spectra[i] = w
        g = v[:, 0]
        k = int(np.argmax(np.abs(g)))
        vectors[i] = g * (abs(g[k]) / g[k])
    spectra[paired] = spectra[mirror[paired]]
    vectors[paired] = vectors[mirror[paired]].conj()
    for array in (thetas, spectra, vectors):
        array.flags.writeable = False
    e0 = spectra[:, 0]
    e1 = spectra[:, 1]
    if e0.max() >= e1.min():
        raise RegimeError(
            "bound branch overlaps the continuum (|V_dd| <~ 4 |V_hop|)"
        )
    v_fit, bandwidth, rms = cosine_band_fit(thetas, e0)
    m_curv = curvature_mass(
        thetas, e0, RegimeError("non-positive bound-band curvature at K = 0")
    )
    return DiatomBand(
        thetas=thetas,
        energies=e0,
        spectra=spectra,
        vectors=vectors,
        v_hop_fit=v_fit,
        bandwidth=bandwidth,
        fit_residual_rms=rms,
        gap_min=float(np.min(e1 - e0)),
        m_eff_ratio_fit=effective_mass_single(v_fit),
        m_eff_ratio_curvature=m_curv,
    )


def hopping_two_atom(v_hop, v_dd):
    """Second-order diatom hopping 2 v_hop^2 / v_dd (negative for attraction)."""
    if v_dd == 0:
        raise SingularityError("diatom hopping undefined at zero interaction")
    return 2.0 * v_hop**2 / v_dd


def effective_mass_two_atom(v_hop, v_dd):
    """Closed-form m_eff^(2at) / m = |v_dd| / (4 v_hop^2) * 2 / pi^2."""
    if v_hop == 0 or v_dd == 0:
        raise SingularityError("effective mass undefined at zero hopping/interaction")
    return abs(v_dd) / (4.0 * v_hop**2) * 2.0 / math.pi**2


def effective_mass_ratio_two_atom(v_hop, v_dd):
    """m_eff^(2at) / m_eff = |v_dd| / (2 |v_hop|)."""
    if v_hop == 0 or v_dd == 0:
        raise SingularityError("mass ratio undefined at zero hopping/interaction")
    return abs(v_dd) / (2.0 * abs(v_hop))


def _envelope(n, sigma_e, j0, coord):
    """Gaussian amplitude envelope exp(-u^2 / (2 sigma_E^2)) with minimal-image
    offset u = coord - j0 (coord in units of a; j0 = None is N // 2).
    ``sigma_e = inf`` gives 1 everywhere."""
    if not sigma_e > 0:  # NaN fails too
        raise DomainError(f"sigma_E = {sigma_e:g} a: envelope width must be positive")
    if not math.isinf(sigma_e) and 3.0 * sigma_e >= n / 2.0:
        raise SizeError("envelope clipped by the periodic boundary (3 sigma_E >= N a / 2)")
    if sigma_e**2 == 0:  # sigma_E^2 underflows
        raise DomainError(f"sigma_E = {sigma_e:g} a is too narrow for float arithmetic")
    if j0 is None:
        j0 = n // 2
    u = (coord - j0 + n / 2.0) % n - n / 2.0
    with np.errstate(over="ignore"):  # exp(-inf) = 0 far from a narrow envelope
        return np.exp(-(u**2) / (2.0 * sigma_e**2))


def envelope_state(n_sites: int, sigma_e: float, j0: int | None = None) -> TwoAtomState:
    """Diagonal diatom state with a Gaussian center-of-mass envelope.

    Amplitudes c_jj ~ exp(-(j - j0)^2 / (2 sigma_E^2)), sigma_E in units of a.
    ``sigma_e = inf`` gives the uniform ideal lattice-EPR superposition.
    """
    amp = _envelope(n_sites, sigma_e, j0, np.arange(n_sites, dtype=float))  # all 1 at inf
    amp /= math.sqrt(float(np.sum(amp**2)))
    c = np.diag(amp).astype(complex)
    return TwoAtomState(weights=np.ones(1), amplitudes=c[None])


def thermal_diatom_state(
    band: DiatomBand,
    temperature: float,
    sigma_e: float | None = None,
    j0: int | None = None,
) -> TwoAtomState:
    """Boltzmann mixture of bound-branch Bloch states.

    ``temperature`` is k_B T in E_rec.  With ``sigma_e`` set, every member is
    modulated by the center-of-mass Gaussian envelope (amplitude width
    sigma_E in a), which adds the hbar/(sqrt 2 sigma_E) momentum floor of the
    preparation protocol.  T = 0 returns the single K = 0 member, the ground
    state.  At every temperature the K = 0 bound pair, the widest because
    its hopping 2 v_hop cos(theta/2) is largest, must fit the box.
    """
    if temperature < 0:
        raise DomainError("temperature must be non-negative")
    thetas, e0, vectors = band.thetas, band.energies, band.vectors
    n = len(thetas)
    j = np.arange(n, dtype=float)
    if sigma_e is not None:  # checked before any member is built
        envelope = _envelope(n, sigma_e, j0, (j[:, None] + j[None, :]) / 2.0)
    i0 = int(np.argmin(np.abs(thetas)))
    d_wrapped = np.minimum(j, n - j)
    width = math.sqrt(float(np.sum(np.abs(vectors[i0]) ** 2 * d_wrapped**2)))
    if width > n / 4.0:
        raise SizeError(f"bound-state width {width:.1f} sites exceeds N/4; increase N")
    if temperature == 0.0:
        thetas, vectors = thetas[i0 : i0 + 1], vectors[i0 : i0 + 1]
        weights = np.ones(1)
        occupancy = 1.0
    else:
        beta = 1.0 / temperature
        shifted = band.spectra - e0.min()
        z_all = float(np.sum(np.exp(-beta * shifted)))
        z_bound = float(np.sum(np.exp(-beta * shifted[:, 0])))
        occupancy = z_bound / z_all
        weights = np.exp(-beta * (e0 - e0.min()))
        weights /= weights.sum()
    amplitudes = _bloch_amplitudes(thetas, vectors)
    if sigma_e is not None:
        amplitudes *= envelope
        amplitudes /= np.sqrt(np.sum(np.abs(amplitudes) ** 2, axis=(1, 2)))[:, None, None]
    return TwoAtomState(weights=weights, amplitudes=amplitudes, bound_occupancy=occupancy)
