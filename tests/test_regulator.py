import math
import random

import pytest

from rrm_lab import regulator
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.regulator import (
    KAPPA,
    RegulatedLogIntegral,
    RegulatedQuarticIntegral,
    log_derivative_closed_form,
    log_derivative_oracle,
    log_integral_value,
    principal_log_msq,
    quartic_integral_value,
    quartic_third_derivative_closed_form,
    quartic_third_derivative_oracle,
)

FOUR_PI_SQ = (4.0 * math.pi) ** 2


def test_principal_branch():
    assert principal_log_msq(4.0) == complex(math.log(4.0), 0.0)
    z = principal_log_msq(-4.0)
    assert z.real == pytest.approx(math.log(4.0), rel=1e-15)
    assert z.imag == math.pi
    with pytest.raises(ValidationError):
        principal_log_msq(0.0)


def test_log_value_at_unit_mass():
    # C1 = -ln(mu2^2) with mu2^2 = e makes the bracket equal -1
    v = log_integral_value(RegulatedLogIntegral(m_sq=1.0, c1=-1.0))
    assert v == pytest.approx(complex(0.0, 1.0 / FOUR_PI_SQ), rel=1e-15)
    assert v.imag == pytest.approx(6.3325739776e-3, rel=1e-10)


def test_log_value_ratio_for_any_c1():
    for c1 in (0.0, 3.7, -12.25):
        d = (log_integral_value(RegulatedLogIntegral(math.e ** 2, c1))
             - log_integral_value(RegulatedLogIntegral(1.0, c1)))
        assert d.real == 0.0
        assert d.imag == pytest.approx(-2.0 / FOUR_PI_SQ, rel=1e-13)
        assert d.imag == pytest.approx(-1.2665147955e-2, rel=1e-10)


def test_log_value_rejects_nonpositive_mass():
    with pytest.raises(ValidationError):
        log_integral_value(RegulatedLogIntegral(m_sq=0.0))
    with pytest.raises(ValidationError):
        log_integral_value(RegulatedLogIntegral(m_sq=-1.0))


def test_quartic_value_unit_mass():
    v = quartic_integral_value(RegulatedQuarticIntegral(m_sq=1.0))
    # (1/(2(4pi)^2)) * (-1/4 - 1/2)
    assert v == pytest.approx(complex(-0.75 * KAPPA, 0.0), rel=1e-15)
    assert v.real == pytest.approx(-2.3747152416e-3, rel=1e-10)


def test_quartic_value_negative_mass_square():
    v = quartic_integral_value(RegulatedQuarticIntegral(m_sq=-1.0))
    assert v.real == pytest.approx(-2.3747152416e-3, rel=1e-10)
    # principal branch: + i pi enters through ln M^2 times M^4/2
    assert v.imag == pytest.approx(KAPPA * math.pi / 2.0, rel=1e-15)
    assert v.imag == pytest.approx(4.9735919716e-3, rel=1e-10)


def test_quartic_constants_enter_linearly():
    base = quartic_integral_value(RegulatedQuarticIntegral(m_sq=2.0))
    bumped = quartic_integral_value(
        RegulatedQuarticIntegral(m_sq=2.0, c1=1.5, c2=-0.75, c3=3.25)
    )
    expected = KAPPA * (1.5 * 4.0 / 2.0 - 0.75 * 2.0 + 3.25)
    assert (bumped - base).real == pytest.approx(expected, rel=1e-14)
    assert (bumped - base).imag == 0.0


@pytest.mark.parametrize("m_sq,c2,c3", [
    (1e200, 0.0, 0.0), (-1e200, 0.0, 0.0),   # M^4 overflows
    (2.0, 1e308, 1e308),                     # C2 M^2 + C3 overflows
])
def test_quartic_value_overflow_names_its_inputs(m_sq, c2, c3):
    # the value was (nan+nanj) or inf, with no error
    with pytest.raises(NumericsError) as err:
        quartic_integral_value(RegulatedQuarticIntegral(m_sq=m_sq, c2=c2,
                                                        c3=c3))
    assert str(err.value) == (f"M^2 = {m_sq!r}, c1 = 0.0, c2 = {c2!r} and "
                              f"c3 = {c3!r} put the quartic integral outside "
                              "the float range")


def test_oracles_match_closed_forms():
    for m_sq in (0.001, 0.27, 1.0, 4.0, 1000.0):
        lo = log_derivative_oracle(m_sq)
        assert lo == pytest.approx(log_derivative_closed_form(m_sq),
                                   rel=1e-9)
        qo = quartic_third_derivative_oracle(m_sq)
        assert qo == pytest.approx(
            quartic_third_derivative_closed_form(m_sq), rel=1e-9)


def test_oracle_frozen_values():
    assert log_derivative_oracle(1.0) == pytest.approx(
        6.3325739776e-3, rel=1e-9)
    assert log_derivative_oracle(4.0) == pytest.approx(
        1.5831434944e-3, rel=1e-9)
    assert quartic_third_derivative_oracle(1.0) == pytest.approx(
        3.1662869888e-3, rel=1e-9)


def test_closed_forms():
    assert log_derivative_closed_form(2.0) == 1.0 / (16.0 * math.pi ** 2
                                                     * 2.0)
    assert quartic_third_derivative_closed_form(2.0) == KAPPA / 2.0


def _set_bound(monkeypatch, rel_tol=1e-16, abs_tol=1e-300):
    # the oracles' error bound is a module constant; by default this sets
    # it below what one panel can certify
    monkeypatch.setattr(regulator, "_REL_TOL", rel_tol)
    monkeypatch.setattr(regulator, "_ABS_TOL", abs_tol)


def test_quadrature_failure_reported(monkeypatch):
    _set_bound(monkeypatch)
    with pytest.raises(NumericsError, match="error estimate .* exceeds the "
                                            "tolerance"):
        log_derivative_oracle(1.0)


def test_starved_tolerance_fails_after_one_panel(monkeypatch):
    # halving the panel cannot lower its error floor, so the oracle
    # reports the first estimate instead of spending more panels on it
    calls = []
    panel = regulator._kronrod_panel

    def counted(f, a, b):
        calls.append((a, b))
        return panel(f, a, b)

    monkeypatch.setattr(regulator, "_kronrod_panel", counted)
    _set_bound(monkeypatch)
    with pytest.raises(NumericsError):
        log_derivative_oracle(1.0)
    assert calls == [(0.0, 0.5 * math.pi)]


@pytest.mark.parametrize("oracle,closed", [
    (log_derivative_oracle, log_derivative_closed_form),
    (quartic_third_derivative_oracle, quartic_third_derivative_closed_form),
])
def test_one_panel_error_floor(oracle, closed, monkeypatch):
    # the mapped integrand is sin^3 cos / M^2 at every M^2, so the panel's
    # estimate is 50 eps = 1.11e-14 relative across the whole range
    for e in range(-90, 91, 5):
        m_sq = 10.0 ** e
        _set_bound(monkeypatch, rel_tol=1.2e-14)
        value = oracle(m_sq)
        assert value == pytest.approx(closed(m_sq), rel=1e-14, abs=0)
        _set_bound(monkeypatch, rel_tol=1.0e-14)
        with pytest.raises(NumericsError):
            oracle(m_sq)


def test_kronrod_oracle_on_random_masses():
    # one 21-point panel meets the default 1e-10 tolerance at every M^2
    rng = random.Random(2024)
    for _ in range(200):
        m_sq = 10.0 ** rng.uniform(-6.0, 6.0)
        assert log_derivative_oracle(m_sq) == pytest.approx(
            log_derivative_closed_form(m_sq), rel=1e-14)
        assert quartic_third_derivative_oracle(m_sq) == pytest.approx(
            quartic_third_derivative_closed_form(m_sq), rel=1e-14)


def test_oracle_rejects_nonpositive_mass():
    with pytest.raises(ValidationError):
        log_derivative_oracle(0.0)
    with pytest.raises(ValidationError):
        quartic_third_derivative_oracle(-2.0)


def test_oracle_range_edges():
    # inside the documented M^2 range the oracles keep full precision;
    # outside it the integrand overflowed or divided by zero
    for m_sq in (regulator.ORACLE_MSQ_MIN, regulator.ORACLE_MSQ_MAX):
        assert log_derivative_oracle(m_sq) == pytest.approx(
            log_derivative_closed_form(m_sq), rel=1e-14)
        assert quartic_third_derivative_oracle(m_sq) == pytest.approx(
            quartic_third_derivative_closed_form(m_sq), rel=1e-14)
    for m_sq in (1e-300, 1e300):
        with pytest.raises(ValidationError, match="oracle needs M"):
            log_derivative_oracle(m_sq)
        with pytest.raises(ValidationError, match="oracle needs M"):
            quartic_third_derivative_oracle(m_sq)


def test_quartic_third_difference_matches_derivative():
    # third central difference in M^2, step 1e-3, against KAPPA/M^2
    h = 1e-3

    def f(m_sq):
        return quartic_integral_value(
            RegulatedQuarticIntegral(m_sq=m_sq)).real

    third = (f(1 + 2 * h) - 2 * f(1 + h) + 2 * f(1 - h)
             - f(1 - 2 * h)) / (2 * h ** 3)
    assert third == pytest.approx(3.16629e-3, rel=1e-5)
    assert third == pytest.approx(KAPPA, rel=1e-6)
