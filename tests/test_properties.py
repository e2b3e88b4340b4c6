"""Property pack: every module's invariants, runnable standalone.

This file is what the property-suite acceptance criterion executes, so it
restates the per-module invariants even where a unit test overlaps.
"""

import dataclasses
import math
import subprocess
import sys
from fractions import Fraction

import pytest

from conftest import massive_beta, table_text
from rrm_lab import lamb, potential, qcd, qed, regulator, self_energy
from rrm_lab.constants import (
    DEFAULT_CONSTANTS,
    FermionSpecies,
    ParticleTable,
    default_particle_table,
    load_particle_table,
)
from rrm_lab.lamb import (
    AtomConfig,
    bohr_binding,
    lamb_2s_2p,
    p4_level_shift,
    radiative_coefficients,
    rde_level,
    reduced_mass,
)
from rrm_lab.potential import (
    PotentialParams,
    one_loop_potential,
    phi_broken,
    potential_derivative,
    ssb_scheme,
    symmetric_scheme,
)
from rrm_lab.qcd import alpha_s_lambda, alpha_s_mu, lambda_qcd, make_scheme
from rrm_lab.qed import (
    BetaModel,
    beta_total,
    evolve_alpha,
    landau_solution,
)
from rrm_lab.regulator import (
    RegulatedLogIntegral,
    log_derivative_closed_form,
    log_derivative_oracle,
    log_integral_value,
    quartic_third_derivative_closed_form,
    quartic_third_derivative_oracle,
)
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.self_energy import (
    delta_mu_off_shell,
    mass_increment,
    zeta_row,
)

C = DEFAULT_CONSTANTS
ALPHA0 = 1.0 / 137.03599
FOUR_PI_SQ = (4.0 * math.pi) ** 2


# ---------------------------------------------------------------- constants

def test_particle_table_round_trip_arbitrary():
    table = ParticleTable(species=(
        FermionSpecies("x1", 0.125, Fraction(-1, 3), 3),
        FermionSpecies("x2", 0.1 + 0.2, Fraction(2, 3), 3),
        FermionSpecies("x3", 1e-4, Fraction(-1), 1),
    ))
    assert load_particle_table(table_text(table), source="prop") == table


def test_default_table_round_trip():
    table = default_particle_table()
    assert load_particle_table(table_text(table), source="prop") == table


# ---------------------------------------------------------------- regulator

def test_scheme_independence_of_log_differences():
    pairs = ((1.0, 7.0), (1e-3, 1.0), (0.5, 2.0e3))
    for m_a, m_b in pairs:
        diffs = []
        for c1 in (0.0, 2.5, -3.1):
            d = (log_integral_value(RegulatedLogIntegral(m_a, c1))
                 - log_integral_value(RegulatedLogIntegral(m_b, c1)))
            diffs.append(d)
        base = diffs[0]
        for d in diffs[1:]:
            assert abs(d - base) <= 1e-12 * abs(base)


def test_oracle_equivalence_on_log_grid():
    grid = [10.0 ** (-3.0 + 6.0 * k / 12.0) for k in range(13)]
    for m_sq in grid:
        assert log_derivative_oracle(m_sq) == pytest.approx(
            log_derivative_closed_form(m_sq), rel=1e-8)
        assert quartic_third_derivative_oracle(m_sq) == pytest.approx(
            quartic_third_derivative_closed_form(m_sq), rel=1e-8)


def test_log_value_derivative_consistency():
    for m_sq in (0.1, 1.0, 30.0):
        h = 1e-5 * m_sq
        up = log_integral_value(RegulatedLogIntegral(m_sq + h))
        dn = log_integral_value(RegulatedLogIntegral(m_sq - h))
        numeric = (up - dn) / (2.0 * h)
        exact = complex(0.0, -1.0 / (FOUR_PI_SQ * m_sq))
        assert abs(numeric - exact) <= 1e-6 * abs(exact)


# -------------------------------------------------------------- self-energy

def test_zeta_root_residual_all_rows():
    norm = (C.alpha / (4.0 * math.pi)) / (1.0 + C.alpha / (3.0 * math.pi))
    for z, n in ((1, 1), (1, 2), (1, 4)):
        zeta = zeta_row((z * z) / (n * n), C).zeta_s
        lhs = norm * (-zeta + 2.0 * zeta * math.log(zeta))
        rhs = -(z * z) * C.alpha ** 2 / (2.0 * n * n)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_off_shell_limit_consistency():
    mu2_star = math.exp(-5.0 / 6.0)
    for zeta in (1e-3, 1e-4, 1e-5):
        full = mass_increment(1.0 - zeta, 1.0, mu2_star, C)
        linear = delta_mu_off_shell(zeta, 1.0, C)
        assert abs(full - linear) <= 5.0 * zeta * abs(linear)


def test_mu2_fix_unique_by_monotonicity():
    values = [mass_increment(1.0, 1.0, math.exp(u), C)
              for u in (-3.0, -2.0, -1.0, -5.0 / 6.0, 0.0, 1.0)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_zeta_scheme_identities():
    for ratio in (0.0625, 0.25, 1.0):
        row = zeta_row(ratio, C)
        assert row.zeta_sv_mean == (row.zeta_s + row.zeta_v) / 2.0
        assert row.zeta_sv_geo == math.sqrt(row.zeta_s * row.zeta_v)
        assert row.zeta_v == pytest.approx(2.0 * ratio * C.alpha ** 2,
                                           rel=1e-15, abs=0)


# ---------------------------------------------------------------------- qed

M_E_GEV = C.electron_mass * 1e-3
ELECTRON_ONLY = BetaModel(ParticleTable(species=(
    FermionSpecies("e", M_E_GEV, Fraction(-1), 1),)))


def test_series_vs_closed_form_window():
    # far below threshold the beta is its leading x^2/5 term, and the
    # next term of the series is -(3/14) x^2 of it
    scale = 2.0 * ALPHA0 ** 2 / (3.0 * math.pi)
    for x in (1e-3, 3e-3, 0.01 * (1.0 - 1e-9)):
        beta = beta_total(ALPHA0, x * M_E_GEV, ELECTRON_ONLY)
        assert beta == pytest.approx(scale * x * x / 5.0, rel=x * x,
                                     abs=0)


def test_asymptotic_massless_limit():
    coeff = 2.0 * ALPHA0 ** 2 / (3.0 * math.pi)
    for x in (1e4, 1e5, 1e7):
        ratio = beta_total(ALPHA0, x * M_E_GEV, ELECTRON_ONLY) / coeff
        assert 0.999 <= ratio <= 1.0


def _quadrature_running(grid, slope, inverse_start):
    """1/alpha at each grid point from an independent scipy quad of
    d(1/alpha)/d ln Q = slope(Q), panel by panel from grid[0] on."""
    from scipy.integrate import quad

    def integrand(t):
        return slope(math.exp(t))

    inverse = [inverse_start]
    for q_a, q_b in zip(grid, grid[1:]):
        part, _ = quad(integrand, math.log(q_a), math.log(q_b),
                       epsabs=0.0, epsrel=1e-13, limit=200)
        inverse.append(inverse[-1] + part)
    return inverse


def test_running_matches_quadrature_of_beta():
    # 1/alpha is linear in the integral of beta/alpha^2 = beta_total(1, Q)
    model = BetaModel(default_particle_table())
    for q_max, steps in ((C.m_z, None), (1e4, 40)):
        curve = evolve_alpha(q_max, model, steps=steps, constants=C)
        grid = [q for q, _ in curve.samples]
        ref = _quadrature_running(grid, lambda q: -beta_total(1.0, q, model),
                                  1.0 / C.alpha)
        for (q, a), inv in zip(curve.samples, ref):
            assert 1.0 / a == pytest.approx(inv, rel=1e-9), q


def test_massive_running_matches_quadrature_of_beta():
    from rrm_lab.qcd import MassiveQcdModel, evolve_alpha_s_massive
    table = default_particle_table()
    quarks = table.quarks()
    for anchor, q_min in ((0.118, 0.3), (0.112, 2.0)):
        model = MassiveQcdModel(table=table, alpha_s_mz=anchor, flavor="c")
        res = evolve_alpha_s_massive(model, q_min, constants=C)
        down = [q for q, _ in reversed(res.curve.samples)]
        ref = _quadrature_running(
            down, lambda q: -massive_beta(1.0, q, quarks), 1.0 / anchor)
        for (q, a), inv in zip(reversed(res.curve.samples), ref):
            assert 1.0 / a == pytest.approx(inv, rel=1e-9), q


def test_ode_bounded_by_landau():
    curve = evolve_alpha(10.0, ELECTRON_ONLY, steps=40, constants=C)
    for q, a in curve.samples:
        if q >= 10.0 * M_E_GEV:
            assert a <= landau_solution(q, M_E_GEV, ALPHA0) * (1.0 + 1e-6)


# ---------------------------------------------------------------------- qcd

def test_mutual_inversion_identity():
    # pairs chosen so neither direction crosses the pole
    cases = [((2.0, 7.0), 0.1176), ((2.0, 7.0), 0.2),
             ((50.0, 3.0), 0.1176), ((50.0, 3.0), 0.2),
             ((1.0, 91.1876), 0.1176), ((91.1876, 1.0), 0.35)]
    for (q, mu), alpha in cases:
        mid = alpha_s_mu(q, mu, alpha, 5)
        back = alpha_s_mu(mu, q, mid, 5)
        assert back == pytest.approx(alpha, rel=1e-12)


def test_lambda_round_trip_property():
    for x in (0.10, 0.1176, 0.13):
        for nf in (3, 4, 5, 6):
            lam = lambda_qcd(x, nf, C)
            assert alpha_s_lambda(C.m_z_strong,
                                  make_scheme(nf, lam)) == pytest.approx(
                x, rel=1e-12)


def test_flavor_independence_at_anchor():
    from rrm_lab.qcd import MassiveQcdModel, evolve_alpha_s_massive
    table = default_particle_table()
    curves = {}
    for flavor in ("u", "b"):
        model = MassiveQcdModel(table=table, alpha_s_mz=0.118,
                                flavor=flavor)
        curves[flavor] = evolve_alpha_s_massive(model, 50.0, steps=10,
                                                constants=C)
    au = curves["u"].curve.samples[-1][1]
    ab = curves["b"].curve.samples[-1][1]
    assert au == pytest.approx(ab, rel=1e-12)
    assert au == pytest.approx(0.118, rel=1e-12)


def test_lambda_strictly_decreasing_in_nf():
    for x in (0.10, 0.1176, 0.13):
        lams = [lambda_qcd(x, nf, C) for nf in (3, 4, 5, 6)]
        assert all(b < a for a, b in zip(lams, lams[1:]))


# ---------------------------------------------------------- eff. potential

FD_STENCILS = {
    1: (((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)), 12.0, 1e-3),
    2: (((-2, -1.0), (-1, 16.0), (0, -30.0), (1, 16.0), (2, -1.0)),
        12.0, 2e-3),
    3: (((-3, 1.0), (-2, -8.0), (-1, 13.0), (1, -13.0), (2, 8.0),
         (3, -1.0)), 8.0, 4e-3),
    4: (((-4, 7.0 / 240.0), (-3, -2.0 / 5.0), (-2, 169.0 / 60.0),
         (-1, -122.0 / 15.0), (0, 91.0 / 8.0), (1, -122.0 / 15.0),
         (2, 169.0 / 60.0), (3, -2.0 / 5.0), (4, 7.0 / 240.0)),
        1.0, 6e-3),
}


def finite_difference(f, x, order, h):
    taps, denom, _ = FD_STENCILS[order]
    acc = 0.0 + 0.0j
    for offset, weight in taps:
        acc += weight * f(x + offset * h)
    return acc / (denom * h ** order)


def test_analytic_derivatives_match_finite_differences():
    p = PotentialParams(sigma=1.0, lam=0.5)
    c = ssb_scheme(p)
    phi1 = phi_broken(p)

    def v(phi):
        return one_loop_potential(phi, p, c)

    worst = 0.0
    for frac in (0.1, 0.5, 1.0, 1.5):
        phi = frac * phi1
        for order in (1, 2, 3, 4):
            _, _, hfrac = FD_STENCILS[order]
            h = hfrac * phi1
            numeric = finite_difference(v, phi, order, h)
            analytic = potential_derivative(phi, order, p, c)
            scale = max(abs(analytic), p.sigma ** 2 / phi1 ** order)
            err = abs(numeric - analytic) / scale
            worst = max(worst, err)
            assert err <= 1e-6, (frac, order, err)
    assert worst > 0.0


def test_ssb_stationary_at_phi1():
    for sigma, lam in ((1.0, 0.5), (0.25, 1.0)):
        p = PotentialParams(sigma=sigma, lam=lam)
        c = ssb_scheme(p)
        phi1 = phi_broken(p)
        d1 = potential_derivative(phi1, 1, p, c)
        assert abs(d1) <= 1e-12 * lam * phi1 ** 3
        assert abs(one_loop_potential(phi1, p, c)) <= 1e-12 * sigma ** 2
        # numeric slope of Re V vanishes too
        h = 1e-4 * phi1
        slope = (one_loop_potential(phi1 + h, p, c).real
                 - one_loop_potential(phi1 - h, p, c).real) / (2.0 * h)
        assert abs(slope) <= 1e-6 * sigma ** 2 / phi1


def test_symmetric_origin_stationary_and_real():
    for sigma, lam in ((1.0, 1.0), (0.25, 1.0), (2.0, 0.3)):
        p = PotentialParams(sigma=sigma, lam=lam)
        c = symmetric_scheme(p)
        assert potential_derivative(0.0, 1, p, c) == 0.0
        v0 = one_loop_potential(0.0, p, c)
        assert abs(v0.imag) <= 1e-15 * sigma ** 2
        assert abs(v0.real) <= 1e-15 * sigma ** 2


def test_ssb_origin_imaginary_sign_fixed():
    signs = set()
    for sigma, lam in ((1.0, 0.5), (0.25, 1.0), (3.0, 2.0), (0.5, 0.1)):
        p = PotentialParams(sigma=sigma, lam=lam)
        v0 = one_loop_potential(0.0, p, ssb_scheme(p))
        signs.add(math.copysign(1.0, v0.imag))
    assert signs == {1.0}


def test_table_entries_against_closed_forms():
    # the 1e-10 Table-II comparison lives in test_potential; assert the
    # sector-defining zeros here for independent parameters
    for sigma, lam in ((0.7, 0.9), (2.5, 0.2)):
        p = PotentialParams(sigma=sigma, lam=lam)
        c = ssb_scheme(p)
        phi1 = phi_broken(p)
        assert abs(one_loop_potential(phi1, p, c)) <= 1e-12 * sigma ** 2
        d2 = potential_derivative(phi1, 2, p, c)
        assert d2.real == pytest.approx(2.0 * sigma, rel=1e-12)


# --------------------------------------------------------------------- lamb

def test_rde_reduces_to_bohr():
    mu = reduced_mass(C.electron_mass, C.proton_mass)
    z_alpha_sq = (C.alpha) ** 2
    for n, l, j in ((1, 0, 0.5), (2, 0, 0.5), (2, 1, 0.5)):
        cfg = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=n, l=l, j=j)
        e = rde_level(cfg, C)
        bohr = bohr_binding(1, n, mu, C)
        measured = (-e - bohr) / (bohr * z_alpha_sq)
        predicted = (n / (j + 0.5) - 0.75) / n ** 2
        assert 0.3 * predicted <= measured <= 1.5 * predicted


def test_p4_shift_separability():
    mu = reduced_mass(C.electron_mass, C.proton_mass)
    co = radiative_coefficients(mu, C.g_factor, "frozen_constant", C)
    invariants = []
    for n, l in ((2, 0), (2, 1), (3, 0), (3, 2), (5, 1)):
        cfg = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=n, l=l,
                         j=l + 0.5)
        shift = p4_level_shift(cfg, mu, co.b2r, "standard_2l", C)
        bracket = 8.0 * n / (2.0 * l + 1.0) - 3.0
        invariants.append(shift * n ** 4 / bracket)
    base = invariants[0]
    for value in invariants[1:]:
        assert value == pytest.approx(base, rel=1e-12, abs=0)


def test_beta_positive_and_mass_reduced():
    for mass in (C.electron_mass,
                 reduced_mass(C.electron_mass, C.proton_mass),
                 reduced_mass(C.electron_mass, C.deuteron_mass)):
        co = radiative_coefficients(mass, C.g_factor, "frozen_constant", C)
        assert co.beta > 0.0
        assert mass / (1.0 + co.beta) < mass


def test_transition_report_additivity():
    mu = reduced_mass(C.electron_mass, C.proton_mass)
    co = radiative_coefficients(mu, C.g_factor, "frozen_constant", C)
    rep = lamb_2s_2p(mu_obs=mu, b2r=co.b2r, vp_mhz=-27.13,
                     nuclear_mhz=0.10, convention="standard_2l",
                     constants=C)
    assert rep.total == (rep.baseline + rep.radiative
                         + rep.vacuum_polarization + rep.nuclear_size)


# ---------------------------------------------------------------------- cli

def _run(*args):
    return subprocess.run([sys.executable, "-m", "rrm_lab.cli", *args],
                          capture_output=True, text=True)


def test_cli_deterministic_output():
    a = _run("constants", "show", "--format", "json")
    b = _run("constants", "show", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_machine_digits():
    proc = _run("selfenergy", "onshell", "--format", "csv")
    assert proc.returncode == 0
    z2_text = proc.stdout.strip().splitlines()[1].split(",")[2]
    digits = z2_text.replace(".", "").replace("-", "").lstrip("0")
    assert len(digits) >= 10


# -------------------------------------------------------- non-finite inputs

_PARAMS = PotentialParams(1.0, 0.5)
_SSB = potential.ssb_scheme(_PARAMS)
_CFG_2S = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=2, l=0, j=0.5)

# each call takes the non-finite value in one argument; nan passed every
# `x <= 0` guard, and inf most of them
NON_FINITE_CALLS = {
    "qed.landau_solution": lambda v: qed.landau_solution(v, 1.0, ALPHA0),
    "qed.landau_solution m": lambda v: qed.landau_solution(10.0, v, ALPHA0),
    "qed.loop_integral": qed.loop_integral,
    "qed.beta_total alpha": lambda v: qed.beta_total(v, 1.0, ELECTRON_ONLY),
    "qed.beta_total q": lambda v: qed.beta_total(ALPHA0, v, ELECTRON_ONLY),
    "qed.evolve_alpha": lambda v: qed.evolve_alpha(v, ELECTRON_ONLY),
    "qcd.alpha_s_mu": lambda v: qcd.alpha_s_mu(v, 91.0, 0.118, 5),
    "qcd.alpha_s_mu alpha": lambda v: qcd.alpha_s_mu(10.0, 91.0, v, 5),
    "qcd.alpha_s_lambda": lambda v: qcd.alpha_s_lambda(
        v, qcd.make_scheme(5, 0.2)),
    "qcd.QcdScheme": lambda v: qcd.QcdScheme(5, v),
    "qcd.hadronization_threshold": lambda v: qcd.hadronization_threshold(
        v, 1.0),
    "qcd.hadronization_threshold alpha":
        lambda v: qcd.hadronization_threshold(0.2, v),
    "lamb.reduced_mass": lambda v: lamb.reduced_mass(v, 1.0),
    "lamb.bohr_binding": lambda v: lamb.bohr_binding(1, 1, v),
    "lamb.bohr_binding z": lambda v: lamb.bohr_binding(v, 1, 1.0),
    "lamb.AtomConfig": lambda v: lamb.AtomConfig(1, v, 1, 0, 0.5),
    "lamb.AtomConfig j": lambda v: lamb.AtomConfig(1, 1.0, 1, 0, v),
    "lamb.uehling_2s_shift": lamb.uehling_2s_shift,
    "lamb.radiative_coefficients": lambda v: lamb.radiative_coefficients(
        v, C.g_factor, "formula"),
    "lamb.radiative_coefficients g":
        lambda v: lamb.radiative_coefficients(1.0, v, "formula"),
    "lamb.p4_level_shift": lambda v: lamb.p4_level_shift(_CFG_2S, v, 1.0),
    "lamb.lamb_2s_2p vp": lambda v: lamb.lamb_2s_2p(1.0, 1.0, vp_mhz=v),
    "lamb.lamb_2s_2p nuclear":
        lambda v: lamb.lamb_2s_2p(1.0, 1.0, nuclear_mhz=v),
    "regulator.log_integral_value": lambda v: regulator.log_integral_value(
        regulator.RegulatedLogIntegral(v)),
    "regulator.log_integral_value c1":
        lambda v: regulator.log_integral_value(
            regulator.RegulatedLogIntegral(1.0, v)),
    "regulator.quartic_integral_value":
        lambda v: regulator.quartic_integral_value(
            regulator.RegulatedQuarticIntegral(v)),
    "regulator.quartic_integral_value c1":
        lambda v: regulator.quartic_integral_value(
            regulator.RegulatedQuarticIntegral(-1.0, c1=complex(0.0, v))),
    "regulator.quartic_integral_value c2":
        lambda v: regulator.quartic_integral_value(
            regulator.RegulatedQuarticIntegral(1.0, c2=v)),
    "regulator.quartic_integral_value c3":
        lambda v: regulator.quartic_integral_value(
            regulator.RegulatedQuarticIntegral(1.0, c3=v)),
    "regulator.log_derivative_oracle": regulator.log_derivative_oracle,
    "regulator.log_derivative_closed_form":
        regulator.log_derivative_closed_form,
    "regulator.quartic_third_derivative_oracle":
        regulator.quartic_third_derivative_oracle,
    "regulator.quartic_third_derivative_closed_form":
        regulator.quartic_third_derivative_closed_form,
    "self_energy.sigma_coefficients":
        lambda v: self_energy.sigma_coefficients(v, 1.0, 1.0),
    "self_energy.mass_increment":
        lambda v: self_energy.mass_increment(1.0, 1.0, v),
    "self_energy.fix_on_shell": self_energy.fix_on_shell,
    "self_energy.delta_mu_off_shell":
        lambda v: self_energy.delta_mu_off_shell(0.01, v),
    "self_energy.zeta_row": self_energy.zeta_row,
    "potential.PotentialParams": lambda v: potential.PotentialParams(v, 0.5),
    "potential.PotentialParams lam":
        lambda v: potential.PotentialParams(1.0, v),
    "potential.one_loop_potential": lambda v: potential.one_loop_potential(
        v, _PARAMS, potential.ssb_scheme(_PARAMS)),
    "potential.potential_derivative":
        lambda v: potential.potential_derivative(
            v, 2, _PARAMS, potential.symmetric_scheme(_PARAMS)),
    # the scheme constants as one_loop_potential uses them; c1 is complex
    "potential.SchemeConstants c1": lambda v: potential.one_loop_potential(
        1.0, _PARAMS, dataclasses.replace(_SSB, c1=complex(v))),
    "potential.SchemeConstants c1 imag":
        lambda v: potential.one_loop_potential(
            1.0, _PARAMS, dataclasses.replace(_SSB, c1=complex(0.0, v))),
    "potential.SchemeConstants c2": lambda v: potential.one_loop_potential(
        1.0, _PARAMS, dataclasses.replace(_SSB, c2=v)),
    "potential.SchemeConstants c3": lambda v: potential.one_loop_potential(
        1.0, _PARAMS, dataclasses.replace(_SSB, c3=v)),
    # the fused kernel: phi, then each scheme constant
    "potential.sector_report": lambda v: potential.sector_report(
        v, _PARAMS, _SSB),
    "potential.sector_report c1": lambda v: potential.sector_report(
        1.0, _PARAMS, dataclasses.replace(_SSB, c1=complex(v))),
    "potential.sector_report c1 imag": lambda v: potential.sector_report(
        1.0, _PARAMS, dataclasses.replace(_SSB, c1=complex(0.0, v))),
    "potential.sector_report c2": lambda v: potential.sector_report(
        1.0, _PARAMS, dataclasses.replace(_SSB, c2=v)),
    "potential.sector_report c3": lambda v: potential.sector_report(
        1.0, _PARAMS, dataclasses.replace(_SSB, c3=v)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_an_error(call, value):
    with pytest.raises((ValidationError, NumericsError)):
        NON_FINITE_CALLS[call](value)
