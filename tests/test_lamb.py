import math
from dataclasses import replace

import mpmath
import pytest

from rrm_lab.constants import DEFAULT_CONSTANTS
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.lamb import (
    AtomConfig,
    bohr_binding,
    lamb_2s_2p,
    p4_level_shift,
    radiative_coefficients,
    rde_level,
    rde_transition_1s2s,
    reduced_mass,
    uehling_2s_shift,
)

C = DEFAULT_CONSTANTS


def mu_hydrogen():
    return reduced_mass(C.electron_mass, C.proton_mass)


def test_reduced_masses_frozen():
    assert mu_hydrogen() == pytest.approx(0.510720802758, rel=1e-11)
    mu_d = reduced_mass(C.electron_mass, C.deuteron_mass)
    assert mu_d == pytest.approx(0.510859769469, rel=1e-11)
    assert mu_d > mu_hydrogen()


@pytest.mark.parametrize("m_e,m_n", [
    (C.electron_mass, C.proton_mass), (1.5e-154, 1.5e-154),
    (1e-300, 1e-7), (1e-150, 1e150), (1e154, 1e154),
])
def test_reduced_mass_keeps_every_normal_result(m_e, m_n):
    assert reduced_mass(m_e, m_n) == m_e * m_n / (m_e + m_n)


def test_bohr_binding():
    e_1s = bohr_binding(1, 1, mu_hydrogen(), C)
    assert e_1s * 1e6 == pytest.approx(13.598289067140, rel=1e-11)
    # n^-2 scaling
    assert bohr_binding(1, 2, mu_hydrogen(), C) == pytest.approx(
        e_1s / 4.0, rel=1e-14, abs=0)


def test_rde_transitions_frozen():
    h = rde_transition_1s2s("H", C)
    d = rde_transition_1s2s("D", C)
    assert h == pytest.approx(2.466068598667e15, rel=1e-11)
    assert d == pytest.approx(2.466739613908e15, rel=1e-11)
    assert d - h == pytest.approx(6.71015241133e11, rel=1e-9)


def test_rde_level_is_negative_binding():
    cfg = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=1, l=0, j=0.5)
    e = rde_level(cfg, C)
    assert e < 0.0
    assert abs(e * 1e6) == pytest.approx(13.598289, abs=2e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 100])
def test_rde_level_matches_mpmath(n):
    # mu ([1 + (Z alpha/(n - delta))^2]^(-1/2) - 1) at 60 digits, on the
    # same float inputs; both differences in it cancel in floats
    cfg = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=n, l=0, j=0.5)
    with mpmath.workdps(60):
        m_e, m_p = mpmath.mpf(C.electron_mass), mpmath.mpf(C.proton_mass)
        z_alpha = mpmath.mpf(C.alpha)
        delta = 1 - mpmath.sqrt(1 - z_alpha ** 2)
        ratio = z_alpha / (n - delta)
        want = float(m_e * m_p / (m_e + m_p)
                     * (1 / mpmath.sqrt(1 + ratio ** 2) - 1))
    assert rde_level(cfg, C) == pytest.approx(want, rel=1e-15, abs=0)


def test_rde_strong_field_guard():
    cfg = AtomConfig(z=138, nuclear_mass=C.proton_mass, n=1, l=0, j=0.5)
    with pytest.raises(ValidationError):
        rde_level(cfg, C)


def test_atom_config_validation():
    with pytest.raises(ValidationError):
        AtomConfig(z=1, nuclear_mass=C.proton_mass, n=0, l=0, j=0.5)
    with pytest.raises(ValidationError):
        AtomConfig(z=1, nuclear_mass=C.proton_mass, n=2, l=0, j=1.5)
    with pytest.raises(ValidationError):
        AtomConfig(z=1, nuclear_mass=C.proton_mass, n=2, l=2, j=1.5)


def test_radiative_coefficients_frozen_mode():
    co = radiative_coefficients(mu_hydrogen(), C.g_factor,
                                "frozen_constant", C)
    assert co.beta == pytest.approx(1.3616286264e-2, rel=1e-9)
    assert co.b2r == pytest.approx(
        1.99808 * C.alpha / (math.pi * mu_hydrogen() ** 3), rel=1e-13)


def test_radiative_coefficients_formula_mode():
    co = radiative_coefficients(mu_hydrogen(), C.g_factor, "formula", C)
    const = co.b2r * math.pi * mu_hydrogen() ** 3 / C.alpha
    assert const == pytest.approx(2.0281497, rel=1e-7)
    assert co.b1p == pytest.approx(1.333045980375e-2, rel=1e-10)
    assert co.b2p == pytest.approx(-1.165145763013e-3, rel=1e-10)
    assert co.b2 == pytest.approx(-2.324896257403e-3, rel=1e-10)


def test_radiative_coefficients_mode_validation():
    with pytest.raises(ValidationError):
        radiative_coefficients(mu_hydrogen(), C.g_factor, "other", C)


def test_observed_mass_below_input_mass():
    co = radiative_coefficients(mu_hydrogen(), C.g_factor,
                                "frozen_constant", C)
    assert co.beta > 0.0
    assert mu_hydrogen() / (1.0 + co.beta) < mu_hydrogen()


def test_p4_brackets():
    mu = mu_hydrogen()
    co = radiative_coefficients(mu, C.g_factor, "frozen_constant", C)
    s2 = p4_level_shift(AtomConfig(z=1, nuclear_mass=C.proton_mass,
                                   n=2, l=0, j=0.5),
                        mu, co.b2r, "standard_2l", C)
    p2 = p4_level_shift(AtomConfig(z=1, nuclear_mass=C.proton_mass,
                                   n=2, l=1, j=0.5),
                        mu, co.b2r, "standard_2l", C)
    assert s2 / p2 == pytest.approx(13.0 / (7.0 / 3.0), rel=1e-13)
    p2_alt = p4_level_shift(AtomConfig(z=1, nuclear_mass=C.proton_mass,
                                         n=2, l=1, j=0.5),
                              mu, co.b2r, "alt_3l", C)
    assert s2 / p2_alt == pytest.approx(13.0, rel=1e-13)


def test_lamb_2s_2p_frozen_defaults():
    mu = mu_hydrogen()
    co = radiative_coefficients(mu, C.g_factor, "frozen_constant", C)
    rep = lamb_2s_2p(mu_obs=mu, b2r=co.b2r, vp_mhz=-27.13,
                     nuclear_mhz=0.10, convention="standard_2l",
                     constants=C)
    assert rep.baseline == 0.0
    assert rep.radiative / 1e6 == pytest.approx(1083.518676, rel=1e-9)
    assert rep.vacuum_polarization == -27.13e6
    assert rep.nuclear_size == 0.10e6
    assert rep.total / 1e6 == pytest.approx(1056.488676, rel=1e-9)
    assert rep.total == (rep.baseline + rep.radiative
                         + rep.vacuum_polarization + rep.nuclear_size)


def test_lamb_2s_2p_alt_convention():
    mu = mu_hydrogen()
    co = radiative_coefficients(mu, C.g_factor, "frozen_constant", C)
    rep = lamb_2s_2p(mu_obs=mu, b2r=co.b2r, vp_mhz=-27.13,
                     nuclear_mhz=0.10, convention="alt_3l", constants=C)
    assert rep.radiative / 1e6 == pytest.approx(1218.958511, rel=1e-9)


def test_lamb_2s_2p_formula_mode():
    mu = mu_hydrogen()
    co = radiative_coefficients(mu, C.g_factor, "formula", C)
    rep = lamb_2s_2p(mu_obs=mu, b2r=co.b2r, vp_mhz=-27.13,
                     nuclear_mhz=0.10, convention="standard_2l",
                     constants=C)
    assert rep.radiative / 1e6 == pytest.approx(1099.824854, rel=1e-9)


def test_uehling_frozen():
    assert uehling_2s_shift(C.electron_mass, C) == pytest.approx(
        -27.1287630857, rel=1e-10)
    assert uehling_2s_shift(mu_hydrogen(), C) == pytest.approx(
        -27.1139963417, rel=1e-10)


def test_uehling_supports_default_vp():
    # the shipped -27.13 MHz default is the rounded Uehling 2S value
    assert abs(uehling_2s_shift(C.electron_mass, C) - (-27.13)) < 0.01


_2S = AtomConfig(z=1, nuclear_mass=C.proton_mass, n=2, l=0, j=0.5)
_FLOAT_RANGE = "outside the float range"


@pytest.mark.parametrize("call,message,cause", [
    # m_e m_n overflows to inf, or underflows to 0 though mu does not
    (lambda: reduced_mass(1e300, 1e300),
     "m_e = 1e+300 and m_n = 1e+300 MeV put the reduced mass "
     "m_e m_n / (m_e + m_n)", None),
    (lambda: reduced_mass(1e-200, 1e-200),
     "m_e = 1e-200 and m_n = 1e-200 MeV put the reduced mass "
     "m_e m_n / (m_e + m_n)", None),
    # mu^3 underflows to 0, is subnormal so 1/mu^3 overflows, or overflows
    (lambda: radiative_coefficients(1e-300, C.g_factor, "frozen_constant"),
     f"mu = 1e-300 MeV and g = {C.g_factor!r} put the radiative "
     "coefficients", ZeroDivisionError),
    (lambda: radiative_coefficients(1e-105, C.g_factor, "formula"),
     f"mu = 1e-105 MeV and g = {C.g_factor!r} put the radiative "
     "coefficients", OverflowError),
    (lambda: radiative_coefficients(5e149, C.g_factor, "formula"),
     f"mu = 5e+149 MeV and g = {C.g_factor!r} put the radiative "
     "coefficients", OverflowError),
    (lambda: radiative_coefficients(1.0, 1e200, "formula"),
     "mu = 1.0 MeV and g = 1e+200 put the radiative coefficients",
     OverflowError),
    # mu_obs^4 overflows, or b2r times the bracket is inf and mu_obs^4 is 0
    (lambda: p4_level_shift(_2S, 5e99, 3.7e-302),
     "Z = 1, mu_obs = 5e+99 MeV and b2r = 3.7e-302 put the p^4 level shift",
     OverflowError),
    (lambda: p4_level_shift(_2S, 5e-104, 3.7e307),
     "Z = 1, mu_obs = 5e-104 MeV and b2r = 3.7e+307 put the p^4 level "
     "shift", OverflowError),
    # m_e m_n is subnormal and keeps only some digits; mu is subnormal
    (lambda: reduced_mass(1e-160, 1e-160),
     "m_e = 1e-160 and m_n = 1e-160 MeV put the reduced mass "
     "m_e m_n / (m_e + m_n)", None),
    (lambda: reduced_mass(3e-170, 2e-150),
     "m_e = 3e-170 and m_n = 2e-150 MeV put the reduced mass "
     "m_e m_n / (m_e + m_n)", None),
    (lambda: reduced_mass(1e-310, 1e300),
     "m_e = 1e-310 and m_n = 1e+300 MeV put the reduced mass "
     "m_e m_n / (m_e + m_n)", None),
    # -alpha^5 m/(30 pi) in Hz overflows to -inf, is subnormal, is reached
    # through a subnormal shift in MeV, or through a subnormal alpha^5
    (lambda: uehling_2s_shift(1e308, C),
     f"m = 1e+308 MeV and alpha = {C.alpha!r} put the Uehling 2S shift",
     OverflowError),
    (lambda: uehling_2s_shift(2.4e-305, replace(C, alpha=7.5e-4)),
     "m = 2.4e-305 MeV and alpha = 0.00075 put the Uehling 2S shift",
     OverflowError),
    (lambda: uehling_2s_shift(1e-300, C),
     f"m = 1e-300 MeV and alpha = {C.alpha!r} put the Uehling 2S shift",
     OverflowError),
    (lambda: uehling_2s_shift(1e10, replace(C, alpha=1e-62)),
     "m = 10000000000.0 MeV and alpha = 1e-62 put the Uehling 2S shift",
     OverflowError),
    (lambda: uehling_2s_shift(1.0, replace(C, alpha=1e70)),
     "m = 1.0 MeV and alpha = 1e+70 put the Uehling 2S shift",
     OverflowError),
])
def test_float_range_error_names_its_input(call, message, cause):
    with pytest.raises(NumericsError) as err:
        call()
    assert str(err.value) == f"{message} {_FLOAT_RANGE}"
    assert type(err.value.__cause__) is (type(None) if cause is None
                                          else cause)
