import math
import re

import pytest

from rrm_lab.constants import DEFAULT_CONSTANTS, default_particle_table
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.qcd import (
    MassiveQcdModel,
    alpha_s_lambda,
    alpha_s_mu,
    beta0_for,
    evolve_alpha_s_massive,
    hadronization_threshold,
    lambda_qcd,
    make_scheme,
)

C = DEFAULT_CONSTANTS

LAMBDA_FROZEN = {
    3: 0.240851400409,
    4: 0.149793941022,
    5: 0.0857766134573,
    6: 0.0441696980326,
}


def test_beta0_values():
    assert beta0_for(3) == 9.0
    assert beta0_for(4) == pytest.approx(25.0 / 3.0, rel=1e-15)
    assert beta0_for(5) == pytest.approx(23.0 / 3.0, rel=1e-15)
    assert beta0_for(6) == 7.0


def test_beta0_rejects_out_of_range():
    with pytest.raises(ValidationError):
        beta0_for(7)
    with pytest.raises(ValidationError):
        beta0_for(2)


@pytest.mark.parametrize("nf", sorted(LAMBDA_FROZEN))
def test_lambda_qcd_frozen(nf):
    assert lambda_qcd(0.1176, nf, C) == pytest.approx(
        LAMBDA_FROZEN[nf], rel=1e-11)


def test_lambda_decreasing_in_nf():
    values = [lambda_qcd(0.1176, nf, C) for nf in (3, 4, 5, 6)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_lambda_round_trip():
    for x in (0.10, 0.1176, 0.13):
        lam = lambda_qcd(x, 5, C)
        back = alpha_s_lambda(C.m_z_strong, make_scheme(5, lam))
        assert back == pytest.approx(x, rel=1e-12)


def test_alpha_s_lambda_frozen():
    scheme = make_scheme(5, 0.0858)
    assert alpha_s_lambda(10.0, scheme) == pytest.approx(
        0.172234249577, rel=1e-11)


def test_alpha_s_lambda_confinement_guard():
    scheme = make_scheme(5, 0.0858)
    with pytest.raises(NumericsError):
        alpha_s_lambda(0.0858, scheme)
    with pytest.raises(NumericsError):
        alpha_s_lambda(0.01, scheme)


def test_alpha_s_mu_frozen():
    assert alpha_s_mu(10.0, 91.1876, 0.1176, 5) == pytest.approx(
        0.172224382721, rel=1e-11)


def test_alpha_s_mu_pole_guard():
    with pytest.raises(NumericsError):
        alpha_s_mu(1e-5, 91.1876, 0.1176, 5)


def test_extreme_scale_ratios():
    # Q/Lambda and Q/mu overflowed to inf: alpha_s printed 0, exit 0.
    # References: the same forms at 40 digits in mpmath
    assert alpha_s_lambda(1e308, make_scheme(5, 1e-308)) == pytest.approx(
        5.7779913347339413e-4, rel=1e-14)
    assert alpha_s_mu(1e308, 1e-308, 0.1, 5) == pytest.approx(
        5.7447979420052377e-4, rel=1e-14)


def test_alpha_s_mu_inversion():
    a1 = alpha_s_mu(3.7, 91.1876, 0.1176, 5)
    back = alpha_s_mu(91.1876, 3.7, a1, 5)
    assert back == pytest.approx(0.1176, rel=1e-13)


def test_make_scheme_validation():
    with pytest.raises(ValidationError):
        make_scheme(5, -0.1)
    with pytest.raises(ValidationError):
        make_scheme(9, 0.1)


def test_massive_model_flavor_must_be_quark():
    with pytest.raises(ValidationError):
        MassiveQcdModel(table=default_particle_table(), alpha_s_mz=0.118,
                        flavor="e")


def default_massive_model():
    return MassiveQcdModel(table=default_particle_table(),
                           alpha_s_mz=0.118, flavor="u")


def test_massive_evolution_anchored_at_mz():
    res = evolve_alpha_s_massive(default_massive_model(), 10.0,
                                 constants=C)
    q_hi, a_hi = res.curve.samples[-1]
    assert q_hi == pytest.approx(C.m_z_strong, rel=1e-10)
    assert a_hi == pytest.approx(0.118, rel=1e-12)


def test_massive_evolution_frozen_values():
    res = evolve_alpha_s_massive(default_massive_model(), 0.3,
                                 constants=C)
    q_lo, a_lo = res.curve.samples[0]
    assert q_lo == pytest.approx(0.3, rel=1e-9)
    assert a_lo == pytest.approx(1.18337551571, rel=1e-8)
    res35 = evolve_alpha_s_massive(default_massive_model(), 0.35,
                                   constants=C)
    assert res35.curve.samples[0][1] == pytest.approx(0.928947715629,
                                                      rel=1e-8)


def test_massive_evolution_monotone_decreasing_in_q():
    res = evolve_alpha_s_massive(default_massive_model(), 1.0, steps=60,
                                 constants=C)
    alphas = [a for _, a in res.curve.samples]
    assert all(b < a for a, b in zip(alphas, alphas[1:]))


def test_massive_evolution_no_interior_maximum():
    res = evolve_alpha_s_massive(default_massive_model(), 0.5,
                                 constants=C)
    assert res.lambda_peak is None
    assert res.alpha_max is None


def test_massive_blow_up_guard():
    with pytest.raises(NumericsError) as err:
        evolve_alpha_s_massive(default_massive_model(), 0.15, constants=C)
    assert "0.181" in str(err.value)


def test_blow_up_reports_the_4pi_crossing():
    # the reported Q is where alpha_s reaches 4 pi: checked against an
    # independent quadrature of the beta from the Z mass down to it
    from scipy.integrate import quad

    from rrm_lab.qcd import _massive_beta
    quarks = default_particle_table().quarks()
    for anchor, flavor, q_min in ((0.118, "u", 0.15), (0.2, "c", 0.5),
                                  (0.118, "b", 1e-300)):
        model = MassiveQcdModel(table=default_particle_table(),
                                alpha_s_mz=anchor, flavor=flavor)
        with pytest.raises(NumericsError) as err:
            evolve_alpha_s_massive(model, q_min, constants=C)
        last_q = float(re.search(r"last valid Q = (\S+) GeV",
                                 str(err.value)).group(1))
        assert q_min < last_q < C.m_z_strong
        rise, _ = quad(lambda t: -_massive_beta(1.0, math.exp(t), quarks),
                       math.log(C.m_z_strong), math.log(last_q),
                       epsabs=0.0, epsrel=1e-13, limit=200)
        assert 1.0 / anchor + rise == pytest.approx(1.0 / (4.0 * math.pi),
                                                    rel=1e-9)
        # just above the crossing the run goes through
        res = evolve_alpha_s_massive(model, last_q * (1.0 + 1e-9), steps=2,
                                     constants=C)
        assert res.curve.samples[0][1] == pytest.approx(4.0 * math.pi,
                                                        rel=1e-7)


def test_threshold_exact_products():
    est = hadronization_threshold(7.04, 0.161)
    assert est.length_scale == 0.19733 / 7.04
    assert est.energy == 0.161 * 7.04
    assert est.lambda_i == 7.04
    assert est.alpha_max == 0.161


def test_threshold_validation():
    with pytest.raises(ValidationError):
        hadronization_threshold(-1.0, 0.161)
    with pytest.raises(ValidationError):
        hadronization_threshold(7.04, 0.0)
