import math
import random
from fractions import Fraction

import mpmath
import pytest

from rrm_lab.constants import (
    DEFAULT_CONSTANTS,
    FermionSpecies,
    ParticleTable,
    default_particle_table,
)
from rrm_lab.errors import NumericsError, ValidationError
from rrm_lab.qed import (
    BetaModel,
    CouplingCurve,
    _loop_shape,
    beta_total,
    evolve_alpha,
    fit_light_quarks,
    landau_solution,
    loop_integral,
)

C = DEFAULT_CONSTANTS
ALPHA0 = 1.0 / 137.03599
M_E = C.electron_mass * 1e-3   # GeV


def default_model():
    return BetaModel(default_particle_table())


def electron_model():
    # one species of unit weight N_c Q^2: beta_total is its beta alone
    return BetaModel(ParticleTable((FermionSpecies("e", M_E, Fraction(-1),
                                                   1),)))


def test_beta_vanishes_at_zero_momentum():
    assert beta_total(ALPHA0, 0.0, electron_model()) == 0.0


def test_beta_positive_above_threshold():
    assert beta_total(ALPHA0, 1.0, electron_model()) > 0.0


def test_beta_small_momentum_suppression():
    # deep below threshold h gives the x^2/5 suppression; the next term of
    # its series is -(3/14) x^2 of the first
    x = 1e-2
    b = beta_total(ALPHA0, x * M_E, electron_model())
    lead = (2.0 * ALPHA0 ** 2 / (3.0 * math.pi)) * x * x / 5.0
    assert b == pytest.approx(lead, rel=1e-4, abs=0)


def test_beta_total_frozen_at_start():
    # the exact (2 alpha^2 / 3 pi) sum_f N_c Q_f^2 h(Q/m_f) at Q = 1e-6 GeV,
    # summed at 50 digits
    b = beta_total(ALPHA0, 1e-6, default_model())
    with mpmath.workdps(50):
        total = mpmath.fsum(
            (mpmath.mpf(sp.charge_weight.numerator)
             / sp.charge_weight.denominator)
            * mpmath.mpf(_loop_shape_mp(1e-6 / sp.mass))
            for sp in default_particle_table())
        ref = float(2 * mpmath.mpf(ALPHA0) ** 2 / (3 * mpmath.pi) * total)
    assert b == pytest.approx(ref, rel=1e-13, abs=0)
    assert b == pytest.approx(8.71008481003382e-12, rel=1e-13, abs=0)
    assert b < 1e-11


def test_series_matches_closed_form_at_crossover():
    # h's series and closed form meet at x = 1 without a step: evaluate on
    # both sides of the electron's switch
    m = default_model()
    lo = beta_total(ALPHA0, M_E * (1.0 - 1e-9), m)
    hi = beta_total(ALPHA0, M_E * (1.0 + 1e-9), m)
    assert lo == pytest.approx(hi, rel=1e-8, abs=0)


def test_evolve_alpha_frozen_endpoint():
    curve = evolve_alpha(C.m_z, default_model(), constants=C)
    q, a = curve.samples[-1]
    assert q == pytest.approx(C.m_z, rel=1e-12)
    assert 1.0 / a == pytest.approx(128.165357949408, rel=1e-10)


def test_evolve_alpha_starts_at_thomson_limit():
    curve = evolve_alpha(C.m_z, default_model(), constants=C)
    q0, a0 = curve.samples[0]
    assert q0 == pytest.approx(1e-6, rel=1e-12)
    assert a0 == ALPHA0


def test_evolve_alpha_monotone_in_q():
    curve = evolve_alpha(C.m_z, default_model(), steps=40, constants=C)
    alphas = [a for _, a in curve.samples]
    assert all(b >= a for a, b in zip(alphas, alphas[1:]))


def test_evolve_alpha_steps_control():
    curve = evolve_alpha(10.0, default_model(), steps=17, constants=C)
    assert len(curve.samples) == 17


def test_curve_samples_are_the_exact_running():
    # no sample is interpolated: a run that ends at a sample's Q ends on
    # the same alpha, bit for bit, and alpha at Q = 1 GeV lies in between
    curve = evolve_alpha(C.m_z, default_model(), steps=200, constants=C)
    for q, a in curve.samples[1::40]:
        assert evolve_alpha(q, default_model(), steps=2,
                            constants=C).samples[-1] == (q, a)
    a_mid = evolve_alpha(1.0, default_model(), steps=2,
                         constants=C).samples[-1][1]
    assert ALPHA0 < a_mid < curve.samples[-1][1]


def test_curve_requires_increasing_q():
    with pytest.raises(ValidationError):
        CouplingCurve(samples=((1.0, 0.007), (1.0, 0.008)))


def test_landau_solution_frozen():
    a = landau_solution(10.0, M_E, ALPHA0)
    assert a == pytest.approx(7.410754753903e-3, rel=1e-10)


def test_landau_pole_reported():
    with pytest.raises(NumericsError):
        landau_solution(1e281, M_E, ALPHA0)


def test_fit_light_quarks_frozen():
    fit = fit_light_quarks(default_model(), 128.89, C)
    assert fit.scale_factor == pytest.approx(5.514985945244, rel=1e-4)
    assert abs(fit.achieved_inverse_alpha - 128.89) < 1e-3
    assert fit.iterations >= 1


def test_fit_unreachable_target():
    with pytest.raises(NumericsError) as err:
        fit_light_quarks(default_model(), 200.0, C)
    assert "range" in str(err.value)


def test_evolve_rejects_bad_qmax():
    with pytest.raises(ValidationError):
        evolve_alpha(-1.0, default_model(), constants=C)


def _loop_integral_mp(x):
    """H(x) from its closed form at 80 digits, where the cancellation near
    x -> 0 (4/x^2 against the asinh term) costs nothing."""
    with mpmath.workdps(80):
        x = mpmath.mpf(x)
        inv_sq = 4 / x ** 2
        return float((-mpmath.mpf(5) / 3 + inv_sq + 2 * (1 - inv_sq / 2)
                      * mpmath.sqrt(1 + inv_sq) * mpmath.asinh(x / 2)) / 2)


def _loop_shape_mp(x):
    """h(x) from its closed form at 80 digits."""
    with mpmath.workdps(80):
        x = mpmath.mpf(x)
        return float(1 - (6 / x ** 2) * (1 - 4 * mpmath.asinh(x / 2)
                                         / (x * mpmath.sqrt(x ** 2 + 4))))


def test_loop_integral_matches_mpmath():
    # h and H on both sides of their series switch (x = 1) and around 0.5,
    # the small-x series deep down, the closed forms up to 1e8
    rng = random.Random(11)
    xs = [1e-6, 1e-3, 0.3, 0.4999999, 0.5, 0.5000001, 0.9999999, 1.0,
          1.0000001, 2.0, 91.1876 / 0.000511, 1e8]
    xs += [10.0 ** rng.uniform(-6.0, 8.0) for _ in range(200)]
    for x in xs:
        assert loop_integral(x) == pytest.approx(_loop_integral_mp(x),
                                                 rel=1e-14, abs=0), x
        assert _loop_shape(x) == pytest.approx(_loop_shape_mp(x),
                                               rel=2e-14, abs=0), x


def test_loop_integral_limits():
    assert loop_integral(0.0) == 0.0
    assert loop_integral(1e-4) == pytest.approx(1e-9, rel=1e-8)
    assert loop_integral(1e8) == pytest.approx(math.log(1e8) - 5.0 / 6.0,
                                               rel=1e-15)
    with pytest.raises(ValidationError):
        loop_integral(-1.0)
    with pytest.raises(ValidationError):
        loop_integral(math.nan)


def test_fit_slope_matches_difference_quotient():
    # the fit's Newton slope is exact: compare 1/alpha(M_Z) over a small
    # step in ln(scale) with the light-quark h-sum it uses
    from dataclasses import replace

    from rrm_lab.constants import ParticleTable
    from rrm_lab.qed import Q_START_GEV
    light = ("u", "d", "s")
    u, du = math.log(5.5), 1e-5

    def inverse_alpha(scale):
        table = ParticleTable(tuple(
            replace(sp, mass=sp.mass * scale) if sp.name in light else sp
            for sp in default_particle_table()))
        return 1.0 / evolve_alpha(C.m_z, BetaModel(table), steps=2,
                                  constants=C).samples[-1][1]

    quotient = (inverse_alpha(math.exp(u + du))
                - inverse_alpha(math.exp(u - du))) / (2 * du)
    slope = sum(
        (2.0 / (3.0 * math.pi)) * float(sp.charge_weight)
        * (_loop_shape(C.m_z / (5.5 * sp.mass))
           - _loop_shape(Q_START_GEV / (5.5 * sp.mass)))
        for sp in default_particle_table() if sp.name in light)
    assert quotient == pytest.approx(slope, rel=1e-6)
    fit = fit_light_quarks(default_model(), 128.89, C)
    assert fit.achieved_inverse_alpha == pytest.approx(128.89, rel=1e-13)
    assert inverse_alpha(fit.scale_factor) == pytest.approx(128.89,
                                                            rel=1e-13)


def test_evolve_alpha_default_grid_keeps_both_ends():
    curve = evolve_alpha(C.m_z, default_model(), constants=C)
    qs = [q for q, _ in curve.samples]
    assert len(qs) == 101
    assert qs[0] == 1e-6 and qs[-1] == C.m_z
    ratios = [b / a for a, b in zip(qs, qs[1:])]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-12)


def test_evolve_alpha_landau_pole_reported():
    # 1/alpha reaches zero near 1e35 GeV for the full table
    with pytest.raises(NumericsError):
        evolve_alpha(1e40, default_model(), constants=C)
