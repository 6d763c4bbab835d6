"""The scenario-driven computation chain shared by the CLI and the tests.

Chains the modules together: lattice bands -> hopping and Wannier orbital ->
dipole-dipole profile -> two-atom model -> states -> distributions and EPR
report.  Everything here is deterministic for a fixed scenario.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import analysis, diatom, dipole, lattice
from .core import dipole_moment_sq_from_linewidth
from .errors import DomainError, ScenarioError, SingularityError
from .scenario import Scenario

__all__ = ["Model"]


# Reference values of the worked lithium scheme, with report tolerances.
_GOLDEN_REFS = {
    "v_hop": (-0.0355, 0.05),
    "v2at_pert": (-0.0012, 0.05),
    "mass_ratio_2at": (30.0, 0.05),
    "sigma": (0.136, 0.02),
    "s_10nK": (30.0, 0.10),
    "s_100nK": (11.0, 0.10),
}


def _envelope(value):
    """A row's value, left out where the scenario sets no envelope width."""
    return lambda m, q: None if m.scenario.sigma_e is None else value(m, q)


def _s_at(nanokelvin):
    """The closed-form s at ``nanokelvin`` for the scenario's sigma_E, or for
    6 a where it sets none."""

    def value(m, q):
        sc = m.scenario
        sigma_e = sc.sigma_e if sc.sigma_e is not None else 6.0
        t = nanokelvin * sc.units.temperature_from_si(1e-9)
        return analysis.s_estimate(sigma_e, q["sigma"], t)

    return value


# Every scalar of the bands, diatom, report and sweep tables: name -> (the
# tables it appears in, its value from the model and the earlier quantities
# of the same table).  A value of None leaves the row out.  Each table lists
# its rows in this order, and sweep sorts its columns.
_QUANTITIES = {
    "U0": ("bands report sweep", lambda m, q: m.scenario.u0),
    "v_hop": ("bands diatom report sweep", lambda m, q: m.hopping.v_hop),
    "bandwidth": ("bands report sweep", lambda m, q: m.hopping.bandwidth),
    "bandwidth_ratio": ("bands", lambda m, q: m.hopping.bandwidth_ratio),
    "hopping_approx": (
        "bands report sweep", lambda m, q: lattice.hopping_approx(m.scenario.u0).value),
    "approx_vs_4vhop": ("report", lambda m, q: q["hopping_approx"] / (4.0 * abs(q["v_hop"]))),
    "sigma": ("bands report sweep", lambda m, q: m.width.sigma),
    "sigma_literal": ("bands report sweep", lambda m, q: m.width.sigma_literal),
    "m_eff_ratio": (
        "bands report sweep", lambda m, q: lattice.effective_mass_single(q["v_hop"])),
    "v_dd0": ("diatom report sweep", lambda m, q: m.profile.value(0)),
    "v2at_pert": (
        "diatom report sweep", lambda m, q: diatom.hopping_two_atom(q["v_hop"], q["v_dd0"])),
    "v2at_fit": ("diatom report sweep", lambda m, q: m.band.v_hop_fit),
    "bandwidth_2at": ("diatom report sweep", lambda m, q: m.band.bandwidth),
    "fit_residual_rms": ("diatom", lambda m, q: m.band.fit_residual_rms),
    "gap_min": ("diatom", lambda m, q: m.band.gap_min),
    "mass_ratio_2at": ("diatom report sweep", lambda m, q: diatom.effective_mass_ratio_two_atom(
        q["v_hop"], q["v_dd0"])),
    "m_eff_2at_ratio_fit": ("diatom", lambda m, q: m.band.m_eff_ratio_fit),
    "m_eff_2at_ratio_curv": ("diatom", lambda m, q: m.band.m_eff_ratio_curvature),
    "dx_minus": ("report sweep", lambda m, q: analysis.delta_x_minus(
        q["sigma"], q["v_hop"], q["v_dd0"])),
    "s_10nK": ("report", _s_at(10.0)),
    "s_100nK": ("report", _s_at(100.0)),
    "temperature": ("sweep", lambda m, q: m.scenario.temperature),
    "sigma_E": ("report sweep", lambda m, q: m.scenario.sigma_e),
    "dp_plus_prep": ("report sweep", _envelope(lambda m, q: analysis.delta_p_plus_prep(
        m.scenario.sigma_e, m.scenario.temperature))),
    "s": ("report sweep", _envelope(lambda m, q: analysis.s_parameter(
        q["dx_minus"], q["dp_plus_prep"]))),
    "s_estimate": ("sweep", _envelope(lambda m, q: analysis.s_estimate(
        m.scenario.sigma_e, q["sigma"], m.scenario.temperature))),
    "pair_fraction": (
        "report sweep", _envelope(lambda m, q: analysis.pair_fraction(m.scenario.sigma_e))),
    "dp_plus_thermal": ("report sweep", lambda m, q: analysis.delta_p_plus_thermal(
        q["v_dd0"], q["v_hop"], m.scenario.temperature) if m.scenario.temperature > 0 else None),
}


# per sweep path (scenario.SWEEP_PARAMS), the stages its value cannot reach,
# which every point of a sweep takes from one base model
_LATTICE_STAGES = ("spectrum", "hopping", "width")
_SHARED_STAGES = {
    "state.T": _LATTICE_STAGES + ("profile", "band"),
    "state.sigma_E": _LATTICE_STAGES + ("profile", "band"),
    "coupling.V_dd": _LATTICE_STAGES,
    "lattice.U0": ("profile",),
}


def _stage(build):
    """A stage built on first read and kept in the model's own dict; only a
    build that succeeds is kept.  There is no lock: the standard library's
    cached property holds one for all instances before Python 3.12, which
    would serialise the sweep threads."""
    name = build.__name__

    @functools.wraps(build)
    def get(self):
        if name not in self.__dict__:
            self.__dict__[name] = build(self)
        return self.__dict__[name]

    return property(get)


def _golden_refs(sc: Scenario) -> dict:
    """The references of ``_GOLDEN_REFS`` that apply to ``sc``: none outside
    the worked lithium scheme, and the two s values only at its sigma_E of
    6 a, which ``_s_at`` also takes where the scenario sets none."""

    def near(value, ref):
        return value is not None and abs(value - ref) < 5e-3

    if sc.species.name != "lithium" or not (near(sc.u0, 7.42) and near(sc.v_dd, -2.16)):
        return {}
    if sc.sigma_e is None or near(sc.sigma_e, 6.0):
        return _GOLDEN_REFS
    return {k: v for k, v in _GOLDEN_REFS.items() if k not in ("s_10nK", "s_100nK")}


class Model:
    """The chain of one scenario, each stage built on first read and kept.

    A command reads only the stages it writes, so it pays for nothing else.
    Checks that guard a stage's inputs live in the stage that needs them:
    ``spectrum`` resolves ``width`` (a zero depth fails as a singular width)
    and then requires a gap above the lowest band, and ``state`` reads
    ``band``, so a bound branch that overlaps the continuum fails in every
    state mode.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario

    def with_param(self, path, value) -> Model:
        """Model of this scenario with one sweep parameter replaced.

        The new model takes from this one each stage that ``path`` cannot
        reach, built here the first time, so the points of a sweep build
        those stages once.  Such a stage fails here, before any point
        exists: that is the scenario's own error, and no point's.
        """
        shared = {name: getattr(self, name) for name in _SHARED_STAGES[path]}
        point = Model(self.scenario.with_param(path, value))
        point.__dict__.update(shared)
        return point

    @_stage
    def spectrum(self) -> lattice.BlochSpectrum:
        sc = self.scenario
        spectrum = lattice.band_structure(sc.u0, sc.n_sites, sc.cutoff)
        self.width  # a zero depth fails as a singular width, not a closed gap
        lattice.require_band_gap(spectrum)
        return spectrum

    @_stage
    def hopping(self) -> lattice.HoppingResult:
        return lattice.hopping_exact(self.spectrum)

    @_stage
    def width(self) -> lattice.WannierWidth:
        return lattice.wannier_gaussian_width(self.scenario.u0)

    @_stage
    def wannier0(self) -> lattice.WannierState:
        return lattice.wannier(self.spectrum, self.scenario.samples_per_site)

    @_stage
    def profile(self) -> dipole.InteractionProfile:
        """Site-offset interaction profile in E_rec, anchored per the scenario."""
        sc = self.scenario
        if sc.displacement <= 0:
            raise ScenarioError("scenario has no coupling displacement")
        a_si = sc.units.a
        if sc.v_dd is not None:
            v_c = dipole.coupling_for_nearest_value(
                sc.v_dd, sc.lambda_coupling, sc.displacement, a_si
            )
        else:
            laser = sc.coupling_laser
            mu_sq = dipole_moment_sq_from_linewidth(
                sc.species.gamma_coupling, sc.species.omega_coupling
            )
            # red detuning assumed: omega = omega_A - |delta|
            omega = sc.species.omega_coupling - abs(laser.detuning)
            alpha = dipole.polarizability(mu_sq, sc.species.omega_coupling, omega)
            try:
                v_c_si = dipole.coupling_scale(alpha, laser.wavevector, laser.intensity)
            except OverflowError:  # k^3 of a very short wavelength
                raise DomainError(
                    f"coupling scale V_C overflows at lambda_C = {sc.lambda_coupling:g} m"
                ) from None
            v_c = sc.units.energy_from_si(v_c_si)
        with np.errstate(all="ignore"):  # a non-finite profile fails below
            profile = dipole.interaction_profile(
                v_c, sc.lambda_coupling, sc.displacement, a_si, dj_max=sc.dj_max
            )
        bad = np.flatnonzero(~np.isfinite(profile.values))
        if len(bad):
            dj = bad[0]
            raise SingularityError(
                f"V_dd at site offset {dj} is {profile.values[dj]} at this tube displacement"
            )
        return profile

    @_stage
    def band(self) -> diatom.DiatomBand:
        sc = self.scenario
        h = diatom.build_hamiltonian(
            sc.n_sites, self.hopping.v_hop, self.profile, include_offsite=sc.include_offsite
        )
        return diatom.diatom_band_exact(h)

    @_stage
    def state(self) -> diatom.TwoAtomState:
        sc = self.scenario
        band = self.band  # no pair state without a bound branch, in any mode
        if sc.state_mode == "ground":  # the T = 0 Bloch pair; T and sigma_E are not read
            return diatom.thermal_diatom_state(band, 0.0)
        if sc.state_mode == "envelope":
            return diatom.envelope_state(sc.n_sites, sc.sigma_e, sc.j0)
        return diatom.thermal_diatom_state(band, sc.temperature, sigma_e=sc.sigma_e, j0=sc.j0)

    def quantities(self, table) -> dict:
        """The scalars of ``table`` ("bands", "diatom", "report" or "sweep")
        in table order, in internal units.  Only the stages that its rows
        read are built."""
        q = {}
        for name, (tables, value) in _QUANTITIES.items():
            if table in tables.split():
                v = value(self, q)
                if v is not None:
                    q[name] = v
        return q

    def report_rows(self) -> list:
        """Comparison table rows: (name, computed, reference, rel_diff,
        tolerance, verdict).

        Reference columns are filled only for the worked lithium scheme, and
        its s rows only at sigma_E = 6 a.
        """
        refs = _golden_refs(self.scenario)
        rows = []
        for name, value in self.quantities("report").items():
            ref = tol = rel = verdict = None
            if name in refs:
                ref, tol = refs[name]
                rel = abs(value - ref) / abs(ref)
                verdict = "pass" if rel <= tol else "fail"
            rows.append((name, value, ref, rel, tol, verdict))
        return rows

    def optimizer_rows(self) -> list:
        """(T_nK, sigma_E_opt, s_opt, s_at_scenario_sigma_E, on_boundary) per T."""
        sc = self.scenario
        sigma = self.width.sigma
        rows = []
        for t in sc.optimizer_temperatures:
            res = analysis.optimize_sigma_e(sigma, t, sc.optimizer_lo, sc.optimizer_hi)
            s_ref = (
                analysis.s_estimate(sc.sigma_e, sigma, t) if sc.sigma_e else math.nan
            )
            t_nk = sc.units.temperature_to_si(t) * 1e9
            rows.append((t_nk, res.sigma_e, res.s, s_ref, res.on_boundary))
        return rows
