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
from .errors import ScenarioError, SingularityError
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

# quantities of the bands and diatom tables that the summary leaves out
_TABLE_ONLY = (
    "bandwidth_ratio",
    "fit_residual_rms",
    "gap_min",
    "m_eff_2at_ratio_fit",
    "m_eff_2at_ratio_curv",
)

_REPORT_ORDER = (
    "U0",
    "v_hop",
    "bandwidth",
    "hopping_approx",
    "approx_vs_4vhop",
    "sigma",
    "sigma_literal",
    "m_eff_ratio",
    "v_dd0",
    "v2at_pert",
    "v2at_fit",
    "bandwidth_2at",
    "mass_ratio_2at",
    "dx_minus",
    "s_10nK",
    "s_100nK",
)


# per sweep path (scenario.SWEEP_PARAMS), the stages its value cannot reach,
# which every point of a sweep takes from one base model
_LATTICE_STAGES = ("spectrum", "hopping", "width", "wannier0")
_SHARED_STAGES = {
    "state.T": _LATTICE_STAGES + ("profile", "hamiltonian", "band"),
    "state.sigma_E": _LATTICE_STAGES + ("profile", "hamiltonian", "band"),
    "coupling.V_dd": _LATTICE_STAGES,
    "lattice.U0": ("profile",),
}


def _stage(build):
    """A stage built on first read and kept, or read from the base model
    when the model shares it."""

    @functools.wraps(build)
    def get(self):
        if build.__name__ in self._shared:
            return getattr(self._base, build.__name__)
        return build(self)

    return functools.cached_property(get)


def is_golden_scenario(sc: Scenario) -> bool:
    return (
        sc.species.name == "lithium"
        and abs(sc.u0 - 7.42) < 5e-3
        and sc.v_dd is not None
        and abs(sc.v_dd + 2.16) < 5e-3
    )


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
        self._base = None
        self._shared = frozenset()

    def with_param(self, path, value) -> Model:
        """Model of this scenario with one sweep parameter replaced.

        The new model reads each stage that ``path`` cannot reach from this
        one when it first needs it, so the points of a sweep build those
        stages once.  A stage that fails is not kept: every point that reads
        it fails there with the same error as a model of its own would.
        """
        point = Model(self.scenario.with_param(path, value))
        point._base = self
        point._shared = frozenset(_SHARED_STAGES[path])
        return point

    @_stage
    def spectrum(self) -> lattice.BlochSpectrum:
        sc = self.scenario
        cfg = lattice.LatticeConfig(
            u0=sc.u0,
            n_sites=sc.n_sites,
            cutoff=sc.cutoff,
            samples_per_site=sc.samples_per_site,
        )
        spectrum = lattice.band_structure(cfg)
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
        return lattice.wannier(self.spectrum, site=0)

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
            v_c_si = dipole.coupling_scale(alpha, laser.wavevector, laser.intensity)
            v_c = sc.units.energy_from_si(v_c_si)
        coupling = dipole.DipoleCoupling(
            v_c=v_c, lambda_c=sc.lambda_coupling, displacement=sc.displacement
        )
        with np.errstate(all="ignore"):  # a non-finite profile fails below
            profile = dipole.interaction_profile(coupling, a_si, dj_max=sc.dj_max)
        bad = np.flatnonzero(~np.isfinite(profile.values))
        if len(bad):
            dj = bad[0]
            raise SingularityError(
                f"V_dd at site offset {dj} is {profile.values[dj]} at this tube displacement"
            )
        return profile

    @_stage
    def hamiltonian(self) -> diatom.TwoAtomHamiltonian:
        sc = self.scenario
        return diatom.build_hamiltonian(
            sc.n_sites,
            self.hopping.v_hop,
            self.profile,
            include_offsite=sc.include_offsite,
        )

    @_stage
    def band(self) -> diatom.DiatomBand:
        return diatom.diatom_band_exact(self.hamiltonian)

    @_stage
    def state(self) -> diatom.TwoAtomState:
        sc = self.scenario
        self.band  # no pair state without a bound branch, in any mode
        if sc.state_mode == "ground":
            return diatom.ground_state(self.hamiltonian)
        if sc.state_mode == "envelope":
            return diatom.envelope_state(sc.n_sites, sc.sigma_e, sc.j0)
        if sc.state_mode == "thermal":
            return diatom.thermal_diatom_state(
                self.hamiltonian, sc.temperature, sigma_e=sc.sigma_e, j0=sc.j0
            )
        raise ScenarioError(f"unknown state mode {sc.state_mode!r}")

    def lattice_quantities(self) -> dict:
        """Scalars of the single-atom lattice, in table order."""
        sc, hop, width = self.scenario, self.hopping, self.width
        return {
            "U0": sc.u0,
            "v_hop": hop.v_hop,
            "bandwidth": hop.bandwidth,
            "bandwidth_ratio": hop.bandwidth_ratio,
            "hopping_approx": lattice.hopping_approx(sc.u0).value,
            "sigma": width.sigma,
            "sigma_literal": width.sigma_literal,
            "m_eff_ratio": lattice.effective_mass_single(hop.v_hop),
        }

    def diatom_quantities(self) -> dict:
        """Scalars of the bound two-atom band, in table order."""
        v_hop = self.hopping.v_hop
        v_dd0 = self.profile.value(0)
        band = self.band
        return {
            "v_hop": v_hop,
            "v_dd0": v_dd0,
            "v2at_pert": diatom.hopping_two_atom(v_hop, v_dd0),
            "v2at_fit": band.v_hop_fit,
            "bandwidth_2at": band.bandwidth,
            "fit_residual_rms": band.fit_residual_rms,
            "gap_min": band.gap_min,
            "mass_ratio_2at": diatom.effective_mass_ratio_two_atom(v_hop, v_dd0),
            "m_eff_2at_ratio_fit": band.m_eff_ratio_fit,
            "m_eff_2at_ratio_curv": band.m_eff_ratio_curvature,
        }

    def summary(self) -> dict:
        """Flat dictionary of the scenario's derived scalars (internal units)."""
        sc = self.scenario
        out = {**self.lattice_quantities(), **self.diatom_quantities()}
        for name in _TABLE_ONLY:
            del out[name]
        sigma = out["sigma"]
        dx = analysis.delta_x_minus(sigma, out["v_hop"], out["v_dd0"])
        out["dx_minus"] = dx
        out["temperature"] = sc.temperature
        if sc.sigma_e is not None:
            dp = analysis.delta_p_plus_prep(sc.sigma_e, sc.temperature)
            out.update(
                {
                    "sigma_E": sc.sigma_e,
                    "dp_plus_prep": dp,
                    "s": analysis.s_parameter(dx, dp),
                    "s_estimate": analysis.s_estimate(sc.sigma_e, sigma, sc.temperature),
                    "pair_fraction": analysis.pair_fraction(sc.sigma_e),
                }
            )
        if sc.temperature > 0:
            out["dp_plus_thermal"] = analysis.delta_p_plus_thermal(
                out["v_dd0"], out["v_hop"], sc.temperature
            )
        return out

    def report_rows(self) -> list:
        """Comparison table rows: (name, computed, reference, rel_diff,
        tolerance, verdict).

        Reference columns are filled only for the worked lithium scheme.
        """
        sc = self.scenario
        q = self.summary()
        golden = is_golden_scenario(sc)
        nk = sc.units.temperature_from_si(1e-9)
        sigma_e = sc.sigma_e if sc.sigma_e is not None else 6.0
        q["s_10nK"] = analysis.s_estimate(sigma_e, q["sigma"], 10.0 * nk)
        q["s_100nK"] = analysis.s_estimate(sigma_e, q["sigma"], 100.0 * nk)
        q["approx_vs_4vhop"] = q["hopping_approx"] / (4.0 * abs(q["v_hop"]))
        rows = []
        for name in _REPORT_ORDER:
            value = q[name]
            ref = tol = rel = verdict = None
            if golden and name in _GOLDEN_REFS:
                ref, tol = _GOLDEN_REFS[name]
                rel = abs(value - ref) / abs(ref)
                verdict = "pass" if rel <= tol else "fail"
            rows.append((name, value, ref, rel, tol, verdict))
        for name in ("sigma_E", "dp_plus_prep", "s", "pair_fraction", "dp_plus_thermal"):
            if name in q:
                rows.append((name, q[name], None, None, None, None))
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
