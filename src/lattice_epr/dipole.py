"""Laser-induced dipole-dipole interaction between atoms in the two tubes.

Geometry: the coupling laser propagates along x (the lattice axis) and is
polarized along y (the tube-displacement axis).  Two atoms at site offset
``dj`` between the tubes are separated by R = sqrt(l^2 + (dj a)^2) with
cos(theta) = dj a / R, theta being the angle between the interatomic axis
and the laser wavevector.  Same-site atoms (dj = 0) have theta = pi/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_LIGHT, EPSILON_0, HBAR
from .errors import DomainError, SingularityError

__all__ = [
    "DipoleCoupling",
    "InteractionProfile",
    "f_theta",
    "coupling_scale",
    "polarizability",
    "v_dd_nearest",
    "interaction_profile",
    "displacement_warning",
    "coupling_for_nearest_value",
]


def f_theta(kr, theta):
    """Angular/radial kernel of the laser-induced dipole-dipole potential.

    F_theta(kR) = cos(kR cos th) * { (2 - 3 cos^2 th) [cos kR/(kR)^3
                  + sin kR/(kR)^2] + cos^2 th cos kR / kR }.

    The potential is V_dd = -V_C * F_theta(kR).  Diverges as 2/(kR)^3 in the
    near zone at theta = pi/2.
    """
    kr = np.asarray(kr, dtype=float)
    if np.any(kr <= 0):
        raise SingularityError("f_theta requires kR > 0")
    ct = math.cos(theta)
    radial = (2.0 - 3.0 * ct**2) * (np.cos(kr) / kr**3 + np.sin(kr) / kr**2)
    radial += ct**2 * np.cos(kr) / kr
    out = np.cos(kr * ct) * radial
    return float(out) if out.ndim == 0 else out


def coupling_scale(alpha, k, intensity):
    """Interaction scale V_C = alpha^2 k^3 I_C / (4 pi eps0^2 c), in joules."""
    if alpha <= 0 or k <= 0 or intensity < 0:
        raise DomainError("polarizability, wavevector positive; intensity >= 0")
    return alpha**2 * k**3 * intensity / (4.0 * math.pi * EPSILON_0**2 * C_LIGHT)


def polarizability(mu_sq, omega_a, omega):
    """Dynamic polarizability alpha = 2 omega_A |mu|^2 / [hbar (omega_A^2 - omega^2)]."""
    if mu_sq <= 0 or omega_a <= 0 or omega < 0:
        raise DomainError("dipole moment and frequencies must be positive")
    if omega == omega_a:
        raise SingularityError("polarizability diverges on resonance")
    return 2.0 * omega_a * mu_sq / (HBAR * (omega_a**2 - omega**2))


def v_dd_nearest(v_c, lambda_c, l):
    """Near-zone nearest-site minimum V_dd = -V_C (lambda_C / l)^3 / (4 pi^3).

    Energy is returned in the units of ``v_c``; lengths must share a unit.
    """
    if l <= 0:
        raise SingularityError("tube displacement must be positive")
    if lambda_c <= 0:
        raise DomainError("coupling wavelength must be positive")
    return -v_c * (lambda_c / l) ** 3 / (4.0 * math.pi**3)


@dataclass(frozen=True)
class DipoleCoupling:
    """Coupling-laser parameters for the site-pair interaction profile.

    ``v_c`` in the caller's energy unit (E_rec internally), lengths in a
    shared unit (SI internally).
    """

    v_c: float
    lambda_c: float
    displacement: float     # tube offset l

    def __post_init__(self):
        if self.v_c < 0:
            raise DomainError("coupling scale V_C must be non-negative")
        if self.lambda_c <= 0 or self.displacement <= 0:
            raise DomainError("lengths must be positive")

    @property
    def wavevector(self):
        return 2.0 * math.pi / self.lambda_c


@dataclass
class InteractionProfile:
    """V_dd versus site offset dj between the tubes (mirror symmetric)."""

    offsets: np.ndarray       # 0 .. dj_max
    separations: np.ndarray   # R(dj), same unit as the inputs
    angles: np.ndarray        # theta(dj)
    values: np.ndarray        # V_dd(dj), energy unit of v_c

    @property
    def dj_max(self):
        return int(self.offsets[-1])

    def value(self, dj):
        """V_dd at (possibly negative) site offset dj; 0 beyond dj_max."""
        dj = abs(int(dj))
        if dj > self.dj_max:
            return 0.0
        return float(self.values[dj])


def interaction_profile(coupling: DipoleCoupling, a, dj_max: int = 4) -> InteractionProfile:
    """Evaluate V_dd(dj) = -V_C F_theta(k R(dj)) for dj = 0 .. dj_max."""
    if dj_max < 1:
        raise DomainError("dj_max must be at least 1")
    if a <= 0:
        raise DomainError("lattice constant must be positive")
    k = coupling.wavevector
    dj = np.arange(dj_max + 1)
    r = np.hypot(coupling.displacement, dj * a)
    theta = np.arccos(dj * a / r)
    values = np.array(
        [-coupling.v_c * f_theta(k * ri, ti) for ri, ti in zip(r, theta)]
    )
    return InteractionProfile(offsets=dj, separations=r, angles=theta, values=values)


def displacement_warning(displacement, a) -> str | None:
    """Why a profile at tube displacement l and lattice constant a is outside
    the model's regime, or None."""
    if displacement > a / 4.0:
        return "tube displacement l > a/4: the nearest-site minimum is no longer sharply dominant"
    return None


def coupling_for_nearest_value(v_dd0, lambda_c, displacement, a):
    """V_C that makes the full profile hit exactly ``v_dd0`` at dj = 0.

    Used when a scenario pins the nearest-site interaction energy directly
    instead of specifying the coupling-laser chain.  ``v_dd0`` must be
    negative (attractive nearest-site minimum).
    """
    if v_dd0 >= 0:
        raise DomainError("nearest-site dipole-dipole energy must be negative")
    unit = DipoleCoupling(v_c=1.0, lambda_c=lambda_c, displacement=displacement)
    with np.errstate(all="ignore"):  # a vanishing or non-finite kernel fails below
        base = interaction_profile(unit, a, dj_max=1).value(0)
    if base == 0 or not math.isfinite(base):
        raise SingularityError(f"nearest-site kernel is {base} at this tube displacement")
    return v_dd0 / base
