import dataclasses
import math

import mpmath
import pytest

from rrm_lab.constants import DEFAULT_CONSTANTS
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.self_energy import (
    delta_mu_off_shell,
    fix_on_shell,
    mass_increment,
    sigma_coefficients,
    zeta_row,
    zeta_table,
)

C = DEFAULT_CONSTANTS

# pinned-alpha regression values, 12 digits, computed once with the
# bracketed solver and cross-checked by bisection
ZETA_FROZEN = {
    0.0625: (1.546093577652e-4, 6.656420197551e-6,
             8.063288898137e-5, 3.208028758846e-5),
    0.25: (7.446540286532e-4, 2.662568079020e-5,
           3.856398547217e-4, 1.408080980131e-4),
    1.0: (3.773719656222e-3, 1.065027231608e-4,
          1.940111189691e-3, 6.339648411648e-4),
}


def test_on_shell_coefficients_at_mu2_equal_m():
    co = sigma_coefficients(1.0, 1.0, 1.0, C)
    assert co.a == pytest.approx(2.0 * C.alpha / math.pi, rel=1e-15)
    assert co.b == pytest.approx(-3.0 * C.alpha / (4.0 * math.pi),
                                 rel=1e-15)
    assert co.a == pytest.approx(4.645639239499e-3, rel=1e-12)
    assert co.b == pytest.approx(-1.742114714812e-3, rel=1e-12)


def test_mass_increment_on_shell_mu2_equal_m():
    assert mass_increment(1.0, 1.0, 1.0, C) == pytest.approx(
        2.9035245247e-3, rel=1e-10)
    # scales linearly with the mass
    assert mass_increment(4.0, 2.0, 2.0, C) == pytest.approx(
        2.0 * mass_increment(1.0, 1.0, 1.0, C), rel=1e-14)


def test_fix_on_shell():
    fix = fix_on_shell(C.electron_mass, C)
    assert fix.mu2 / C.electron_mass == pytest.approx(
        math.exp(-5.0 / 6.0), rel=1e-15)
    assert fix.mu2 == pytest.approx(0.2220792282, rel=1e-9)
    assert fix.z2 == pytest.approx(1.0 / (1.0 + C.alpha / (3.0 * math.pi)),
                                   rel=1e-15)
    assert fix.z2 == pytest.approx(0.999226325829, rel=1e-12)
    # the fixed point really is a zero of the increment
    residual = mass_increment(C.electron_mass ** 2, C.electron_mass,
                              fix.mu2, C)
    assert abs(residual) <= 1e-12 * C.electron_mass


def test_domain_validation():
    with pytest.raises(ValidationError):
        sigma_coefficients(0.0, 1.0, 1.0, C)
    with pytest.raises(ValidationError):
        sigma_coefficients(1.5, 1.0, 1.0, C)
    with pytest.raises(ValidationError):
        sigma_coefficients(0.5, -1.0, 1.0, C)
    with pytest.raises(ValidationError):
        mass_increment(0.5, 1.0, 0.0, C)


def test_off_shell_increment_is_finite_and_negative():
    d = mass_increment(0.99, 1.0, math.exp(-5.0 / 6.0), C)
    assert d < 0.0
    assert abs(d) < 1e-3


def test_delta_mu_off_shell_frozen():
    assert delta_mu_off_shell(1e-4, 1.0, C) == pytest.approx(
        -1.1268959312e-6, rel=1e-10)


def test_delta_mu_domain():
    with pytest.raises(ValidationError):
        delta_mu_off_shell(0.0, 1.0, C)
    with pytest.raises(ValidationError):
        delta_mu_off_shell(0.1, 1.0, C)
    with pytest.raises(ValidationError):
        delta_mu_off_shell(0.01, -1.0, C)


@pytest.mark.parametrize("ratio", sorted(ZETA_FROZEN))
def test_zeta_row_frozen(ratio):
    row = zeta_row(ratio, C)
    s, v, mean, geo = ZETA_FROZEN[ratio]
    assert row.zeta_s == pytest.approx(s, rel=1e-11)
    assert row.zeta_v == pytest.approx(v, rel=1e-11)
    assert row.zeta_sv_mean == pytest.approx(mean, rel=1e-11)
    assert row.zeta_sv_geo == pytest.approx(geo, rel=1e-11)
    assert row.minus_log_s == pytest.approx(-math.log(s), rel=1e-10)


def test_zeta_scheme_identities_exact():
    row = zeta_row(0.25, C)
    assert row.zeta_sv_mean == (row.zeta_s + row.zeta_v) / 2.0
    assert row.zeta_sv_geo == math.sqrt(row.zeta_s * row.zeta_v)


def test_zeta_virial_closed_form():
    assert zeta_row(0.25, C).zeta_v == pytest.approx(
        2.0 * C.alpha ** 2 / 4.0, rel=1e-15, abs=0)
    assert zeta_row(1.0, C).zeta_v == pytest.approx(2.0 * C.alpha ** 2,
                                                    rel=1e-15, abs=0)


def test_zeta_solver_residual():
    norm = (C.alpha / (4.0 * math.pi)) / (1.0 + C.alpha / (3.0 * math.pi))
    for z, n in ((1, 1), (1, 2), (1, 4)):
        zeta = zeta_row((z * z) / (n * n), C).zeta_s
        lhs = norm * (-zeta + 2.0 * zeta * math.log(zeta))
        rhs = -(z * z) * C.alpha ** 2 / (2.0 * n * n)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_zeta_solver_out_of_bracket():
    # at alpha = 0.5 the root lies above zeta = 0.099, the upper end of the
    # old Newton bracket and of the small-zeta domain that replaced it
    with pytest.raises(NumericsError) as err:
        zeta_row(1.0, dataclasses.replace(C, alpha=0.5))
    assert str(err.value) == ("alpha = 0.5 is so large that the zeta root "
                              "for Z^2/n^2 = 1.0 lies above 0.099, the end "
                              "of the small-zeta domain")


def test_zeta_table_layout():
    rows = zeta_table((0.0625, 0.25, 1.0), C)
    assert len(rows) == 3
    assert rows[0].z_sq_over_n_sq == 0.0625
    assert rows[2].z_sq_over_n_sq == 1.0


def test_zeta_row_validation():
    with pytest.raises(ValidationError):
        zeta_row(0.0, C)
    with pytest.raises(ValidationError):
        zeta_row(1.5, C)


def _sigma_mp(p_sq, m, mu2):
    """A and B at 60 digits from the same closed forms."""
    with mpmath.workdps(60):
        p_sq, m, mu2, alpha = (mpmath.mpf(v)
                               for v in (p_sq, m, mu2, C.alpha))
        m_sq = m * m
        log_scale = mpmath.log(m / mu2)
        off = (m_sq - p_sq) / p_sq
        log_off = mpmath.log((m_sq - p_sq) / m_sq)
        a = alpha / mpmath.pi * m * (2 - 2 * log_scale + off * log_off)
        b = alpha / (4 * mpmath.pi) * (
            2 * log_scale - 3 - off * (1 + (m_sq + p_sq) / p_sq * log_off))
        return float(a), float(b)


@pytest.mark.parametrize("k", range(1, 16))
def test_sigma_coefficients_near_shell_match_mpmath(k):
    # p^2 = m^2 (1 - 10^-k): the (m^2 - p^2) log terms shrink toward the
    # shell without losing digits
    m = C.electron_mass
    for mu2 in (m, fix_on_shell(m, C).mu2):
        p_sq = m * m * (1.0 - 10.0 ** -k)
        co = sigma_coefficients(p_sq, m, mu2, C)
        a, b = _sigma_mp(p_sq, m, mu2)
        assert co.a == pytest.approx(a, rel=2e-14, abs=0)
        assert co.b == pytest.approx(b, rel=2e-14, abs=0)


def test_zeta_slope_underflow_names_alpha():
    # alpha = 1e-300: Newton's slope norm e^u (2u + 1) once underflowed to
    # 0 here. The root needs no slope now, but zeta_v = 2 r alpha^2
    # underflows, and the error names alpha and Z^2/n^2
    with pytest.raises(NumericsError) as err:
        zeta_row(1.0, dataclasses.replace(C, alpha=1e-300))
    assert str(err.value) == ("alpha = 1e-300 and Z^2/n^2 = 1.0 put the "
                              "zeta schemes outside the float range")


@pytest.mark.parametrize("alpha,ratio", [
    # 1e-200 and 1e-160 once ran 100 Newton steps on a bracket with no root
    (1e-200, 1.0), (1e-160, 1.0),
    # zeta_s zeta_v underflows though zeta_v alone does not
    (1e-103, 1.0),
    # k = pi r alpha (1 + alpha/3 pi) underflows, and W is not taken
    (1e-320, 1.0), (C.alpha, 1e-310),
])
def test_zeta_float_range_names_alpha_and_ratio(alpha, ratio):
    with pytest.raises(NumericsError) as err:
        zeta_row(ratio, dataclasses.replace(C, alpha=alpha))
    assert str(err.value) == (f"alpha = {alpha!r} and Z^2/n^2 = {ratio} put "
                              "the zeta schemes outside the float range")


@pytest.mark.parametrize("alpha", [0.1, 10.0])
def test_zeta_root_above_domain_names_alpha(alpha):
    with pytest.raises(NumericsError) as err:
        zeta_row(1.0, dataclasses.replace(C, alpha=alpha))
    assert str(err.value) == (f"alpha = {alpha!r} is so large that the zeta "
                              "root for Z^2/n^2 = 1.0 lies above 0.099, the "
                              "end of the small-zeta domain")


def _zeta_s_mp(ratio, alpha):
    # norm zeta (2 ln zeta - 1) = -ratio alpha^2 / 2 with zeta = e^(1/2 + v)
    # is v e^v = -pi r alpha (1 + alpha/3 pi)/sqrt(e); the small root is the
    # W_{-1} branch
    with mpmath.workdps(50):
        r, a = mpmath.mpf(ratio), mpmath.mpf(alpha)
        k = -mpmath.pi * r * a * (1 + a / (3 * mpmath.pi)) / mpmath.sqrt(
            mpmath.e)
        return mpmath.exp(mpmath.mpf(0.5) + mpmath.lambertw(k, -1).real)


@pytest.mark.parametrize("alpha", [C.alpha, 1e-9, 1e-3, 0.05])
def test_zeta_row_matches_lambert_w(alpha):
    # Z^2/n^2 = 1/n^2, n = 1..400. With alpha = 1e-9 the root falls below
    # the old bracket's lower end 1e-12 from n = 11 on; it has no lower end
    constants = dataclasses.replace(C, alpha=alpha)
    for n in range(1, 401):
        ratio = 1.0 / (n * n)
        assert zeta_row(ratio, constants).zeta_s == pytest.approx(
            float(_zeta_s_mp(ratio, alpha)), rel=1e-15, abs=0), n


@pytest.mark.parametrize("alpha", [1e-100, 1e-12])
def test_zeta_row_below_the_old_bracket(alpha):
    # the bracket [1e-12, 0.099] refused these; the root lies below 1e-12
    constants = dataclasses.replace(C, alpha=alpha)
    for n in (1, 2, 10):
        ratio = 1.0 / (n * n)
        ref = _zeta_s_mp(ratio, alpha)
        assert ref < 1e-12
        assert zeta_row(ratio, constants).zeta_s == pytest.approx(
            float(ref), rel=1e-15, abs=0), n
