import math

import pytest

from rrm_lab.constants import DEFAULT_CONSTANTS
from rrm_lab.errors import ValidationError
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
