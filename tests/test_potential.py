import cmath
import dataclasses
import math

import pytest
from hypothesis import example, given, strategies as st

from rrm_lab import potential, regulator, self_energy
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.potential import (
    PotentialParams,
    mass_squared,
    one_loop_potential,
    phi_broken,
    potential_derivative,
    scheme_for,
    sector_report,
    ssb_scheme,
    symmetric_scheme,
    tree_potential,
    two_phase_table,
)
from rrm_lab.regulator import (
    RegulatedQuarticIntegral,
    principal_log_msq,
    quartic_integral_value,
)

KAPPA = 1.0 / (2.0 * (4.0 * math.pi) ** 2)


def closed_forms_ssb(sigma, lam):
    """Independent closed forms for both Table-II columns."""
    phi1 = math.sqrt(6.0 * sigma / lam)
    broken = {
        "phi": phi1,
        "v": 0.0 + 0.0j,
        "d1": 0.0 + 0.0j,
        "d2": complex(2.0 * sigma),
        "d3": complex(lam * phi1 * (1.0 + 3.0 * KAPPA * lam)),
        "d4": complex(lam * (1.0 + 9.0 * KAPPA * lam)),
    }
    ln2 = math.log(2.0)
    origin = {
        "phi": 0.0,
        "v": (3.0 * sigma ** 2 / (2.0 * lam)
              - KAPPA * sigma ** 2 * complex(3.75 + ln2 / 2.0,
                                             -math.pi / 2.0)),
        "d1": 0.0 + 0.0j,
        "d2": -sigma * (1.0 - KAPPA * lam * complex(3.0 + ln2, -math.pi)),
        "d3": 0.0 + 0.0j,
        "d4": lam * (1.0 - 3.0 * KAPPA * lam * complex(ln2, -math.pi)),
    }
    return broken, origin


def assert_complex_close(got, want, scale, rel=1e-10):
    got, want = complex(got), complex(want)
    tol = rel * max(abs(want), scale)
    assert abs(got - want) <= tol, f"{got} != {want} (tol {tol})"


@pytest.mark.parametrize("sigma,lam", [(1.0, 0.5), (0.25, 1.0)])
def test_two_phase_table_against_closed_forms(sigma, lam):
    p = PotentialParams(sigma=sigma, lam=lam)
    broken, origin = two_phase_table(p, ssb_scheme(p))
    want_b, want_o = closed_forms_ssb(sigma, lam)
    for key in ("phi", "v", "d1", "d2", "d3", "d4"):
        assert_complex_close(getattr(broken, key), want_b[key],
                             scale=sigma ** 2)
        assert_complex_close(getattr(origin, key), want_o[key],
                             scale=sigma ** 2)


def test_phi_broken():
    p = PotentialParams(sigma=1.0, lam=0.5)
    assert phi_broken(p) == math.sqrt(12.0)


def test_mass_squared():
    p = PotentialParams(sigma=1.0, lam=0.5)
    assert mass_squared(0.0, p) == -1.0
    assert mass_squared(phi_broken(p), p) == pytest.approx(2.0, rel=1e-14)


def test_tree_potential_minimum():
    p = PotentialParams(sigma=1.0, lam=0.5)
    phi1 = phi_broken(p)
    assert tree_potential(phi1, p) == pytest.approx(-3.0 * p.sigma ** 2
                                                    / (2.0 * p.lam),
                                                    rel=1e-14)


def test_ssb_scheme_constants():
    p = PotentialParams(sigma=1.0, lam=1.0)
    c = ssb_scheme(p)
    assert c.c1 == complex(-math.log(2.0))
    assert c.c2 == 2.0
    assert c.c3 == pytest.approx(-1.0 + (4.0 * math.pi) ** 2 * 3.0,
                                 rel=1e-14)
    assert c.c3 == pytest.approx(472.74, abs=5e-3)


def test_symmetric_scheme_constants():
    p = PotentialParams(sigma=1.0, lam=1.0)
    c = symmetric_scheme(p)
    assert c.c1 == complex(-math.log(1.0), -math.pi)
    assert c.c2 == -1.0
    assert c.c3 == -0.25


def test_symmetric_sector_origin_conditions():
    for sigma, lam in ((1.0, 1.0), (0.25, 1.0), (2.0, 0.3)):
        p = PotentialParams(sigma=sigma, lam=lam)
        c = symmetric_scheme(p)
        v0 = one_loop_potential(0.0, p, c)
        assert abs(v0) <= 1e-15 * sigma ** 2
        assert potential_derivative(0.0, 1, p, c) == 0.0
        assert potential_derivative(0.0, 3, p, c) == 0.0
        d2 = potential_derivative(0.0, 2, p, c)
        assert_complex_close(d2, complex(-sigma), scale=sigma, rel=1e-14)
        d4 = potential_derivative(0.0, 4, p, c)
        assert_complex_close(d4, complex(lam), scale=lam, rel=1e-14)


def test_lambda_renormalized_matches_fourth_derivative():
    p = PotentialParams(sigma=1.0, lam=0.5)
    c = ssb_scheme(p)
    # criterion 8's closed form: lambda_R = lam (1 + 9 lam / 2 (4 pi)^2)
    d4 = potential_derivative(phi_broken(p), 4, p, c)
    assert d4.real == pytest.approx(p.lam * (1.0 + 9.0 * KAPPA * p.lam),
                                    rel=1e-13)
    assert d4.imag == 0.0


def test_ssb_origin_imaginary_part_sign():
    for sigma, lam in ((1.0, 0.5), (0.25, 1.0), (3.0, 2.0)):
        p = PotentialParams(sigma=sigma, lam=lam)
        v0 = one_loop_potential(0.0, p, ssb_scheme(p))
        assert v0.imag > 0.0
        assert v0.imag == pytest.approx(KAPPA * sigma ** 2 * math.pi / 2.0,
                                        rel=1e-12)


def test_mass_shell_singularity_reported():
    p = PotentialParams(sigma=1.0, lam=0.5)
    phi_sing = math.sqrt(2.0 * p.sigma / p.lam)
    with pytest.raises(ValidationError) as err:
        one_loop_potential(phi_sing, p, ssb_scheme(p))
    assert "2" in str(err.value)   # reports the +/- singular field values


def test_scheme_for_dispatch():
    p = PotentialParams(sigma=1.0, lam=0.5)
    assert scheme_for("ssb", p) == ssb_scheme(p)
    assert scheme_for("symmetric", p) == symmetric_scheme(p)
    with pytest.raises(ValidationError):
        scheme_for("other", p)


def test_params_validation():
    with pytest.raises(ValidationError):
        PotentialParams(sigma=-1.0, lam=0.5)
    with pytest.raises(ValidationError):
        PotentialParams(sigma=1.0, lam=0.0)


def test_derivative_order_validation():
    p = PotentialParams(sigma=1.0, lam=0.5)
    with pytest.raises(ValidationError):
        potential_derivative(1.0, 5, p, ssb_scheme(p))
    with pytest.raises(ValidationError):
        potential_derivative(1.0, 0, p, ssb_scheme(p))


def test_sector_report_bundles_everything():
    p = PotentialParams(sigma=1.0, lam=0.5)
    c = ssb_scheme(p)
    rep = sector_report(1.0, p, c)
    assert rep.phi == 1.0
    assert rep.v == one_loop_potential(1.0, p, c)
    assert rep.d3 == potential_derivative(1.0, 3, p, c)


def test_complex_region_below_singularity():
    # M^2 < 0 inside the hump: potential picks up an imaginary part
    p = PotentialParams(sigma=1.0, lam=0.5)
    v = one_loop_potential(1.0, p, ssb_scheme(p))
    assert v.imag != 0.0
    assert cmath.isfinite(v)


def test_ssb_constant_overflow_names_sigma_and_lambda():
    # c3 = 3 (4 pi)^2 sigma^2/lambda - sigma^2 is inf for a tiny lambda
    with pytest.raises(ValidationError) as err:
        ssb_scheme(PotentialParams(sigma=1.0, lam=1e-307))
    assert "sigma = 1.0" in str(err.value)
    assert "lambda = 1e-307" in str(err.value)


def _bits(z):
    return z.real.hex(), z.imag.hex()


@given(sigma=st.floats(1e-3, 1e3), lam=st.floats(1e-3, 1e2),
       x=st.floats(0.0, 3.0), sector=st.sampled_from(("ssb", "symmetric")))
@example(sigma=1.0, lam=0.5, x=0.5, sector="ssb")        # M^2 < 0
@example(sigma=1.0, lam=0.5, x=2.0, sector="ssb")        # M^2 > 0
@example(sigma=2.0, lam=1.5, x=0.0, sector="symmetric")  # M^2 < 0
@example(sigma=2.0, lam=1.5, x=1.5, sector="symmetric")  # M^2 > 0
def test_potential_is_tree_plus_quartic_integral_bit_for_bit(sigma, lam, x,
                                                             sector):
    # phi = x sqrt(2 sigma/lambda): M^2 < 0 for x < 1, M^2 > 0 above
    p = PotentialParams(sigma=sigma, lam=lam)
    c = scheme_for(sector, p)
    phi = x * math.sqrt(2.0 * sigma / lam)
    m2 = mass_squared(phi, p)
    if m2 == 0.0:
        return
    want = tree_potential(phi, p) + quartic_integral_value(
        RegulatedQuarticIntegral(m_sq=m2, c1=c.c1, c2=c.c2, c3=c.c3))
    assert _bits(one_loop_potential(phi, p, c)) == _bits(want)


def test_potential_errors_unchanged():
    p = PotentialParams(sigma=1.0, lam=0.5)
    c = ssb_scheme(p)
    with pytest.raises(ValidationError) as err:
        one_loop_potential(2.0, p, c)                # M^2(2) = 0
    assert str(err.value) == ("M^2(phi) vanishes at phi = +/-2; the loop "
                              "term is singular there")
    for field in ("c1", "c2", "c3"):
        bad = dataclasses.replace(c, **{field: math.nan})
        with pytest.raises(ValidationError) as err:
            one_loop_potential(1.0, p, bad)
        assert str(err.value) == "integration constants must be finite"


# ------------------------------------------- sector_report, one chain per phi

def _single_pieces(phi, p, c):
    # v, then d1..d4, each from its own call
    pieces = {"phi": phi, "v": one_loop_potential(phi, p, c)}
    for k in (1, 2, 3, 4):
        pieces[f"d{k}"] = potential_derivative(phi, k, p, c)
    return pieces


def _outcome(make):
    # the fields as bits, or the type of the first error
    try:
        pieces = make()
    except Exception as exc:
        return type(exc)
    return {k: v if k == "phi" else _bits(v) for k, v in pieces.items()}


def _fused_and_single(phi, p, c):
    return (_outcome(lambda: vars(sector_report(phi, p, c))),
            _outcome(lambda: _single_pieces(phi, p, c)))


def _special_phis(p):
    edge = math.sqrt(2.0 * p.sigma / p.lam)    # M^2 = 0 up to rounding
    below, above = edge, edge
    phis = [0.0, phi_broken(p), edge, 1e3, 1e77, 1e80]
    for _ in range(2):
        below, above = math.nextafter(below, 0.0), math.nextafter(above,
                                                                  math.inf)
        phis += [below, above]
    return phis


@pytest.mark.parametrize("sector", ["ssb", "symmetric"])
@pytest.mark.parametrize("sigma,lam", [
    (1.0, 0.5),       # the edge is exactly phi = 2, M^2 = 0 there
    (0.25, 1.0), (3.7, 1e-3), (1e-6, 1e3), (1e6, 1e-6),
    (1e-300, 1.0),    # 1/M^4 divides by zero near phi = 0
])
def test_sector_report_is_the_single_piece_calls(sigma, lam, sector):
    p = PotentialParams(sigma=sigma, lam=lam)
    c = scheme_for(sector, p)
    for phi in _special_phis(p):
        fused, single = _fused_and_single(phi, p, c)
        assert fused == single


@given(sigma=st.floats(1e-6, 1e6), lam=st.floats(1e-6, 1e3),
       phi=st.floats(0.0, 1e80), sector=st.sampled_from(("ssb", "symmetric")))
@example(sigma=1.0, lam=1.0, phi=1e80, sector="ssb")     # v overflows
@example(sigma=1.0, lam=1.0, phi=1e77, sector="ssb")     # bracket overflows
def test_sector_report_is_the_single_piece_calls_anywhere(sigma, lam, phi,
                                                          sector):
    p = PotentialParams(sigma=sigma, lam=lam)
    c = scheme_for(sector, p)
    fused, single = _fused_and_single(phi, p, c)
    assert fused == single


def test_sector_report_takes_one_log_per_phi(monkeypatch):
    # a 40-phi task, as the library benchmark runs it; the log is reached
    # as potential.principal_log_msq and regulator.principal_log_msq
    calls = []

    def counting(m_sq):
        calls.append(m_sq)
        return principal_log_msq(m_sq)
    monkeypatch.setattr(potential, "principal_log_msq", counting)
    monkeypatch.setattr(regulator, "principal_log_msq", counting)
    p = PotentialParams(sigma=1.7, lam=0.9)
    c = ssb_scheme(p)
    for k in range(40):
        sector_report(0.125 * k, p, c)
    assert len(calls) == 40


def test_float_range_error_names_phi_sigma_and_lambda():
    p = PotentialParams(sigma=1.0, lam=1.0)
    c = ssb_scheme(p)
    at = ("sigma = 1.0 and lambda = 1.0 put the potential outside the float "
          "range")
    for call, phi in ((lambda x: one_loop_potential(x, p, c), 1e100),
                      (lambda x: potential_derivative(x, 4, p, c), 1e80),
                      (lambda x: sector_report(x, p, c), 1e80),
                      # phi^4 is finite, but the loop bracket overflows; the
                      # potential was (inf+nanj)
                      (lambda x: one_loop_potential(x, p, c), 1e77),
                      (lambda x: sector_report(x, p, c), 1e77)):
        with pytest.raises(NumericsError) as err:
            call(phi)
        assert str(err.value) == f"phi = {phi!r}, {at}"
        assert isinstance(err.value.__cause__, OverflowError)
    tiny = PotentialParams(sigma=1e-300, lam=1e300)   # M^4 underflows to 0
    with pytest.raises(NumericsError) as err:
        two_phase_table(tiny, ssb_scheme(tiny))
    assert str(err.value) == ("phi = 0.0, sigma = 1e-300 and lambda = 1e+300 "
                              "put the potential outside the float range")
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    huge = PotentialParams(sigma=1e200, lam=1.0)      # sigma^2 overflows
    for scheme in (ssb_scheme, symmetric_scheme):
        with pytest.raises(NumericsError) as err:
            scheme(huge)
        assert str(err.value) == ("sigma = 1e+200 and lambda = 1.0 put the "
                                  "potential outside the float range")


def test_overflowing_derivative_names_phi_sigma_and_lambda():
    # kl lam^3 phi^4 overflows to inf before g3 = -1/M^4 scales it back;
    # d4 was (-inf+0j), while d1..d3 are finite
    p = PotentialParams(sigma=4e-262, lam=1e74)
    c = ssb_scheme(p)
    message = ("phi = 5000000000000.0, sigma = 4e-262 and lambda = 1e+74 "
               "put the potential outside the float range")
    for k in (1, 2, 3):
        assert cmath.isfinite(potential_derivative(5e12, k, p, c))
    for call in (lambda: potential_derivative(5e12, 4, p, c),
                 lambda: sector_report(5e12, p, c)):
        with pytest.raises(NumericsError) as err:
            call()
        assert str(err.value) == message
        assert isinstance(err.value.__cause__, OverflowError)


def test_finite_derivatives_whose_sum_overflows_are_returned(monkeypatch):
    # sector_report tests the sum of d1..d4 first. With M^2 = 1 and a log
    # of 1.6e306, d4 = 1.5e308 and d3 = 3e307 are finite and V is too,
    # but d3 + d4 overflows
    monkeypatch.setattr(potential, "principal_log_msq",
                        lambda m_sq: complex(1.6e306))
    p = PotentialParams(sigma=1.0, lam=100.0)
    rep = sector_report(0.2, p, ssb_scheme(p))
    assert cmath.isfinite(rep.v)
    ds = (rep.d1, rep.d2, rep.d3, rep.d4)
    assert all(map(cmath.isfinite, ds))
    assert not cmath.isfinite(sum(ds))


# ------------------------ kernel records are still their frozen dataclasses

_SSB = PotentialParams(sigma=1.0, lam=0.5)


@pytest.mark.parametrize("make", [
    lambda: sector_report(0.5, _SSB, ssb_scheme(_SSB)),       # M^2 < 0
    lambda: sector_report(3.0, _SSB, symmetric_scheme(_SSB)),
    lambda: self_energy.zeta_row(0.25),
], ids=["SectorReport-ssb", "SectorReport-symmetric", "ZetaRow"])
def test_kernel_record_is_its_constructor_built_twin(make):
    got = make()
    cls = type(got)
    names = [f.name for f in dataclasses.fields(cls)]
    twin = cls(*(getattr(got, name) for name in names))
    assert list(vars(got)) == names
    assert dataclasses.fields(got) == dataclasses.fields(twin)
    assert dataclasses.astuple(got) == dataclasses.astuple(twin)
    assert got == twin
    assert hash(got) == hash(twin)
    assert repr(got) == repr(twin)
    moved = dataclasses.replace(got, **{names[1]: 7.0})
    assert type(moved) is cls
    assert dataclasses.astuple(moved)[1] == 7.0
    assert dataclasses.replace(got) == got
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, 0.0)
    assert got == twin
