"""Regularization by differentiation: loop integrals made finite by
differentiating away the divergence, reintegrating, and fixing the
integration constants against physical anchor points.

Subpackages cover the regulated integral family itself and the places
it gets used: electron self-energy, running couplings (electromagnetic
and strong), the one-loop effective potential, and hydrogen-level
shifts.

Pure Python with no runtime dependencies: the running couplings and the
light-quark fit use the exact reintegrated loop function, and the
quadrature oracles a 21-point Gauss-Kronrod rule. The tests check both
against independent numerical libraries (the `test` extra).
"""

import importlib

__version__ = "0.1.0"

# the public names of each module. `import rrm_lab` loads none of them: the
# first read of a name imports its module (PEP 562 __getattr__)
_EXPORTS = {
    "constants": (
        "DEFAULT_CONSTANTS", "FermionSpecies", "ParticleTable",
        "PhysicalConstants", "default_particle_table", "load_config",
        "load_particle_table", "load_particle_table_file",
    ),
    "errors": ("NumericsError", "RRMLabError", "ValidationError"),
    "lamb": (
        "AtomConfig", "RadiativeCoefficients", "TransitionReport",
        "lamb_2s_2p", "p4_level_shift", "radiative_coefficients",
        "rde_level", "rde_transition_1s2s", "reduced_mass",
        "uehling_2s_shift",
    ),
    "potential": (
        "PotentialParams", "SchemeConstants", "SectorReport",
        "mass_squared", "one_loop_potential", "phi_broken",
        "potential_derivative", "scheme_for", "sector_report",
        "ssb_scheme", "symmetric_scheme", "tree_potential",
        "two_phase_table",
    ),
    "qcd": (
        "MassiveEvolution", "MassiveQcdModel", "QcdScheme",
        "ThresholdEstimate", "alpha_s_lambda", "alpha_s_mu", "beta0_for",
        "evolve_alpha_s_massive", "hadronization_threshold", "lambda_qcd",
        "make_scheme",
    ),
    "qed": (
        "BetaModel", "CouplingCurve", "FitResult", "beta_total",
        "evolve_alpha", "fit_light_quarks", "loop_integral",
    ),
    "regulator": (
        "KAPPA", "RegulatedLogIntegral",
        "RegulatedQuarticIntegral", "log_derivative_closed_form",
        "log_derivative_oracle", "log_integral_value", "principal_log_msq",
        "quartic_integral_value", "quartic_third_derivative_closed_form",
        "quartic_third_derivative_oracle",
    ),
    "self_energy": (
        "MassRenormalization", "SigmaCoefficients", "ZetaRow",
        "fix_on_shell", "mass_increment", "sigma_coefficients",
        "zeta_row", "zeta_table",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    home = importlib.import_module(f".{module}", __name__)
    # bind all of the module's names at once: later reads skip this hook,
    # and every name is read from the module at the same moment
    for export in _EXPORTS[module]:
        globals()[export] = getattr(home, export)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME})
