"""Laser-induced dipole-dipole interaction kernel and site profile."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lattice_epr import dipole
from lattice_epr.errors import DomainError, SingularityError

# worked lithium geometry, SI lengths
LAMBDA_C = 670.8e-9
L_TUBE = 40e-9
A_LATT = 161.5e-9


def test_f_theta_near_zone_asymptote():
    # at theta = pi/2 the kernel approaches 2/(kR)^3 in the near zone
    kr = 0.05
    val = dipole.f_theta(kr, math.pi / 2.0)
    assert val == pytest.approx(2.0 / kr**3, rel=0.01)


def test_f_theta_requires_positive_kr():
    with pytest.raises(SingularityError):
        dipole.f_theta(0.0, math.pi / 2.0)
    with pytest.raises(SingularityError):
        dipole.f_theta(np.array([0.5, -1.0]), math.pi / 2.0)


def test_f_theta_vectorized_matches_scalar():
    kr = np.array([0.3, 1.0, 3.0])
    vec = dipole.f_theta(kr, 0.7)
    for i, k in enumerate(kr):
        assert vec[i] == pytest.approx(dipole.f_theta(float(k), 0.7))


def test_f_theta_far_zone_decays():
    near = abs(dipole.f_theta(0.5, math.pi / 2.0))
    far = abs(dipole.f_theta(50.0, math.pi / 2.0))
    assert far < 1e-3 * near


@given(st.floats(min_value=0.01, max_value=0.2))
def test_f_theta_near_zone_scaling(kr):
    # cubic divergence: F(kr) * kr^3 is nearly constant in the near zone
    val = dipole.f_theta(kr, math.pi / 2.0) * kr**3
    assert val == pytest.approx(2.0, rel=0.05)


def test_v_dd_nearest_closed_form():
    v = dipole.v_dd_nearest(1.0, LAMBDA_C, L_TUBE)
    assert v == pytest.approx(-((LAMBDA_C / L_TUBE) ** 3) / (4.0 * math.pi**3))
    with pytest.raises(SingularityError):
        dipole.v_dd_nearest(1.0, LAMBDA_C, 0.0)


def test_v_dd_nearest_is_near_zone_limit_of_kernel():
    # -V_C F(k l, pi/2) approaches the closed form as l -> 0
    k = 2.0 * math.pi / LAMBDA_C
    for l, tol in ((L_TUBE, 0.08), (L_TUBE / 10.0, 1e-3)):
        full = -dipole.f_theta(k * l, math.pi / 2.0)
        near = dipole.v_dd_nearest(1.0, LAMBDA_C, l)
        assert full == pytest.approx(near, rel=tol)


def test_coupling_scale_and_polarizability_domains():
    with pytest.raises(DomainError):
        dipole.coupling_scale(-1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        dipole.polarizability(-1.0, 1.0, 0.5)
    with pytest.raises(SingularityError):
        dipole.polarizability(1e-58, 2.8e15, 2.8e15)


def test_polarizability_sign_flips_across_resonance():
    mu_sq = 4e-58
    omega_a = 2.8e15
    assert dipole.polarizability(mu_sq, omega_a, 0.9 * omega_a) > 0
    assert dipole.polarizability(mu_sq, omega_a, 1.1 * omega_a) < 0


def test_interaction_profile_nearest_site_dominates():
    prof = dipole.interaction_profile(0.05, LAMBDA_C, L_TUBE, A_LATT, dj_max=4)
    assert prof.value(0) < 0
    for dj in range(1, 5):
        assert abs(prof.value(dj)) < 0.01 * abs(prof.value(0))
        assert prof.value(dj) == prof.value(-dj)
    assert prof.value(5) == 0.0


@pytest.mark.parametrize("args, message", [
    ((-1e-3, LAMBDA_C, L_TUBE, A_LATT, 4), "coupling scale V_C must be non-negative"),
    ((1.0, 0.0, L_TUBE, A_LATT, 4), "lengths must be positive"),
    ((1.0, -LAMBDA_C, L_TUBE, A_LATT, 4), "lengths must be positive"),
    ((1.0, LAMBDA_C, 0.0, A_LATT, 4), "lengths must be positive"),
    ((1.0, LAMBDA_C, L_TUBE, A_LATT, 0), "dj_max must be at least 1"),
    ((1.0, LAMBDA_C, L_TUBE, 0.0, 4), "lattice constant must be positive"),
    ((1.0, LAMBDA_C, L_TUBE, -A_LATT, 4), "lattice constant must be positive"),
], ids=["v_c", "lambda_c-zero", "lambda_c-negative", "displacement", "dj_max", "a-zero",
        "a-negative"])
def test_interaction_profile_guards_raise_a_domain_error_with_their_message(args, message):
    with pytest.raises(DomainError) as raised:
        dipole.interaction_profile(*args)
    assert type(raised.value) is DomainError
    assert str(raised.value) == message


def test_interaction_profile_geometry():
    prof = dipole.interaction_profile(1.0, LAMBDA_C, L_TUBE, A_LATT, dj_max=3)
    assert prof.separations[0] == pytest.approx(L_TUBE)
    assert prof.angles[0] == pytest.approx(math.pi / 2.0)
    r1 = math.hypot(L_TUBE, A_LATT)
    assert prof.separations[1] == pytest.approx(r1)
    assert prof.angles[1] == pytest.approx(math.acos(A_LATT / r1))


def test_displacement_warning_beyond_a_quarter_of_the_lattice_constant():
    assert dipole.displacement_warning(L_TUBE, A_LATT) is None
    assert dipole.displacement_warning(A_LATT / 4.0, A_LATT) is None
    message = dipole.displacement_warning(A_LATT / 2.0, A_LATT)
    assert message.startswith("tube displacement l > a/4: ")


def test_nearest_site_value_vs_near_zone_formula():
    # retardation corrections at k l ~ 0.37 keep the two within 8%
    prof = dipole.interaction_profile(0.055, LAMBDA_C, L_TUBE, A_LATT, dj_max=1)
    near = dipole.v_dd_nearest(0.055, LAMBDA_C, L_TUBE)
    assert prof.value(0) == pytest.approx(near, rel=0.08)


def test_coupling_for_nearest_value_anchors_exactly():
    v_c = dipole.coupling_for_nearest_value(-2.16, LAMBDA_C, L_TUBE, A_LATT)
    assert v_c > 0
    prof = dipole.interaction_profile(v_c, LAMBDA_C, L_TUBE, A_LATT, dj_max=4)
    assert prof.value(0) == pytest.approx(-2.16, rel=1e-12)
    with pytest.raises(DomainError):
        dipole.coupling_for_nearest_value(2.16, LAMBDA_C, L_TUBE, A_LATT)


@pytest.mark.parametrize("displacement", [1e-309, 1e291])
def test_coupling_for_nearest_value_rejects_a_vanishing_or_infinite_kernel(displacement):
    # the unit-V_C kernel overflows to -inf at 1e-309 m and underflows to 0 at 1e291 m
    with pytest.raises(SingularityError, match="tube displacement"):
        dipole.coupling_for_nearest_value(-2.16, LAMBDA_C, displacement, A_LATT)


@pytest.mark.parametrize("displacement", [300e-9, 400e-9])
def test_coupling_for_nearest_value_rejects_a_repulsive_kernel(displacement):
    # the unit-V_C kernel at dj = 0 is +0.0028 at 300 nm and +0.11 at 400 nm,
    # so no V_C >= 0 makes V_dd negative; at 250 nm it is still negative
    prof = dipole.interaction_profile(1.0, LAMBDA_C, displacement, A_LATT, dj_max=1)
    assert prof.value(0) > 0
    with pytest.raises(DomainError) as raised:
        dipole.coupling_for_nearest_value(-2.16, LAMBDA_C, displacement, A_LATT)
    assert type(raised.value) is DomainError
    assert str(raised.value) == f"nearest-site kernel is {prof.value(0)} at this tube displacement"
    assert dipole.coupling_for_nearest_value(-2.16, LAMBDA_C, 250e-9, A_LATT) > 0


def test_lithium_coupling_scale_magnitude():
    # the -2.16 E_rec nearest-site energy needs V_C in the 0.05-0.06 E_rec range
    v_c = dipole.coupling_for_nearest_value(-2.16, LAMBDA_C, L_TUBE, A_LATT)
    assert 0.05 < v_c < 0.06
