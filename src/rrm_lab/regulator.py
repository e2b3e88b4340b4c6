"""Regulated closed forms of divergent one-loop integrals, with quadrature
oracles that verify the differentiate-then-reintegrate identities.

The method: a divergent integral is differentiated with respect to its
mass-square parameter until convergent, evaluated, then reintegrated. Each
integration step introduces one arbitrary constant; the constants are fixed
later by physics, never by a cutoff. The closed forms here keep those
constants as explicit fields.

Conventions. The closed forms carry the -i/(4pi)^2 prefactor of the
original (Minkowski) loop integrals; the oracles evaluate the real, positive
Euclidean radial integral by one Gauss-Kronrod panel. For a negative
mass-square the logarithm is taken on the principal branch,
ln M^2 = ln|M^2| + i*pi.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import NumericsError, ValidationError

FOUR_PI_SQ = (4.0 * math.pi) ** 2          # (4 pi)^2 = 157.91...
KAPPA = 1.0 / (2.0 * FOUR_PI_SQ)           # 1/(2 (4 pi)^2), quartic prefactor

# M^2 range of the oracles: (k^2+M^2)^3 overflows above 1e98, and below
# 1e-104 the quadrature loses digits unnoticed, then divides by zero
ORACLE_MSQ_MIN, ORACLE_MSQ_MAX = 1e-90, 1e90

# the bound on the panel's error estimate, relative and absolute
_REL_TOL, _ABS_TOL = 1e-10, 1e-12


def principal_log_msq(m_sq: float) -> complex:
    """ln M^2 on the principal branch; M^2 = 0 is outside the domain."""
    if not math.isfinite(m_sq):
        raise ValidationError("mass-square must be finite")
    if m_sq == 0:
        raise ValidationError("mass-square must be nonzero")
    if m_sq > 0:
        return complex(math.log(m_sq), 0.0)
    return complex(math.log(-m_sq), math.pi)


@dataclass(frozen=True)
class RegulatedLogIntegral:
    """Logarithmically divergent integral, one arbitrary constant C1.

    The conventional identification is C1 = -ln(mu2^2) for a sliding
    scale mu2, but C1 is stored as a plain number; nothing downstream
    assumes the identification.
    """

    m_sq: float
    c1: float = 0.0


@dataclass(frozen=True)
class RegulatedQuarticIntegral:
    """Quartically divergent integral, three arbitrary constants.

    c1 is dimensionless (a log of a mass-square), c2 carries mass^2,
    c3 carries mass^4. m_sq may be negative; the value is then complex.
    """

    m_sq: float
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0


def log_integral_value(i: RegulatedLogIntegral) -> complex:
    """Closed form (-i/(4 pi)^2) (ln M^2 + C1) for M^2 > 0."""
    if not 0.0 < i.m_sq < math.inf:
        raise ValidationError(
            "log integral needs finite M^2 > 0; branch handling for negative "
            "mass-square belongs to the consumer"
        )
    if not cmath.isfinite(i.c1):
        raise ValidationError("integration constant c1 must be finite")
    return -1j / FOUR_PI_SQ * (math.log(i.m_sq) + i.c1)


def quartic_integral_value(i: RegulatedQuarticIntegral) -> complex:
    """Closed form of the reintegrated quartically divergent integral.

    value = (1/(2(4pi)^2)) { (M^4/2)(ln M^2 - 1/2) - M^4/2
                             + C1 M^4/2 + C2 M^2 + C3 }

    Real for M^2 > 0 and real constants; complex for M^2 < 0 through the
    principal branch of the logarithm.
    """
    try:
        return _quartic_value(i.m_sq, principal_log_msq(i.m_sq),
                              i.c1, i.c2, i.c3)
    except OverflowError as exc:
        raise NumericsError(
            f"M^2 = {i.m_sq!r}, c1 = {i.c1!r}, c2 = {i.c2!r} and "
            f"c3 = {i.c3!r} put the quartic integral outside the float "
            "range") from exc


def _quartic_value(m_sq: float, log_m2: complex, c1, c2, c3) -> complex:
    # the closed form on plain numbers and a ln M^2 already taken, so that
    # the potential builds no record and shares one log with its derivatives
    if not (cmath.isfinite(c1) and cmath.isfinite(c2)
            and cmath.isfinite(c3)):
        raise ValidationError("integration constants must be finite")
    m4 = m_sq * m_sq
    bracket = (
        0.5 * m4 * (log_m2 - 0.5)
        - 0.5 * m4
        + 0.5 * c1 * m4
        + c2 * m_sq
        + c3
    )
    if not cmath.isfinite(bracket):
        # float * and + overflow without raising; the callers name inputs
        raise OverflowError("the quartic closed form overflows")
    return KAPPA * bracket


# Gauss-Kronrod 10/21 rule as in QUADPACK's qk21 (Piessens et al. 1983):
# Kronrod abscissae on [0, 1] in descending order, the odd positions being
# the 10-point Gauss nodes, then the centre; the weights follow the same
# order, and _GAUSS_WEIGHTS belong to the Gauss nodes _KRONROD_NODES[1::2].
_KRONROD_NODES = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
)
_KRONROD_WEIGHTS = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_WEIGHTS = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _kronrod_panel(f, a: float, b: float):
    """(integral, error estimate) of f on [a, b] by the 21-point rule.

    Sums in qk21's order and estimates the error the way it does: the
    Kronrod-Gauss difference, scaled by the spread of f about its mean
    (resasc), and never below 50 eps times the integral of |f|.
    """
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f_centre = f(centre)
    gauss = 0.0
    kronrod = _KRONROD_WEIGHTS[10] * f_centre
    abs_sum = abs(kronrod)
    pairs = [None] * 10
    for j in (*range(1, 10, 2), *range(0, 10, 2)):
        offset = half * _KRONROD_NODES[j]
        f_lo, f_hi = f(centre - offset), f(centre + offset)
        pairs[j] = (f_lo, f_hi)
        if j % 2:
            gauss += _GAUSS_WEIGHTS[j // 2] * (f_lo + f_hi)
        kronrod += _KRONROD_WEIGHTS[j] * (f_lo + f_hi)
        abs_sum += _KRONROD_WEIGHTS[j] * (abs(f_lo) + abs(f_hi))
    mean = 0.5 * kronrod
    spread = _KRONROD_WEIGHTS[10] * abs(f_centre - mean)
    for j in range(10):
        f_lo, f_hi = pairs[j]
        spread += _KRONROD_WEIGHTS[j] * (abs(f_lo - mean) + abs(f_hi - mean))
    result = kronrod * half
    abs_sum *= half
    spread *= half
    error = abs((kronrod - gauss) * half)
    if spread != 0.0 and error != 0.0:
        error = spread * min(1.0, (200.0 * error / spread) ** 1.5)
    if abs_sum > _TINY / (50.0 * _EPS):
        error = max(50.0 * _EPS * abs_sum, error)
    return result, error


def _euclidean_cube_integral(m_sq: float) -> float:
    """int d^4k/(2 pi)^4 (k^2+M^2)^-3 = (2 pi^2/(2 pi)^4) int_0^inf
    k^3/(k^2+M^2)^3 dk for M^2 in [ORACLE_MSQ_MIN, ORACLE_MSQ_MAX], by one
    Kronrod panel over k = sqrt(M^2) tan(theta), theta in [0, pi/2).

    The mapped integrand is sin^3 cos / M^2 at every M^2, so the error
    estimate sits at its 50 eps floor, where halving the panel cannot lower
    it; an estimate above _REL_TOL or _ABS_TOL is a NumericsError.
    """
    if not ORACLE_MSQ_MIN <= m_sq <= ORACLE_MSQ_MAX:
        raise ValidationError(
            f"oracle needs M^2 in [{ORACLE_MSQ_MIN:g}, {ORACLE_MSQ_MAX:g}]")
    prefactor = (2.0 * math.pi ** 2) / (2.0 * math.pi) ** 4
    scale = math.sqrt(m_sq)

    def mapped(theta):
        t = math.tan(theta)
        k = scale * t
        # dk = scale * sec^2(theta) dtheta
        return k ** 3 / (k * k + m_sq) ** 3 * scale * (1.0 + t * t)

    value, error = _kronrod_panel(mapped, 0.0, 0.5 * math.pi)
    tol = max(_ABS_TOL, _REL_TOL * abs(value))
    if error > tol:
        raise NumericsError(
            f"quadrature error estimate {error:.3e} exceeds the tolerance "
            f"{tol:.3e}")
    return prefactor * value


def log_derivative_oracle(m_sq: float) -> float:
    """Numeric value of the once-differentiated log integral.

    Evaluates 2 (2 pi^2 / (2 pi)^4) * int_0^inf k^3/(k^2+M^2)^3 dk and
    returns it; the closed form is 1/(16 pi^2 M^2).
    """
    return 2.0 * _euclidean_cube_integral(m_sq)


def quartic_third_derivative_oracle(m_sq: float) -> float:
    """Numeric value of the thrice-differentiated quartic integral.

    Evaluates the Euclidean integral int d^4k/(2 pi)^4 (k^2+M^2)^-3 as a
    radial quadrature; the closed form is 1/(2 (4 pi)^2 M^2).
    """
    return _euclidean_cube_integral(m_sq)


def log_derivative_closed_form(m_sq: float) -> float:
    if not 0.0 < m_sq < math.inf:
        raise ValidationError("closed form needs finite M^2 > 0")
    return 1.0 / (16.0 * math.pi ** 2 * m_sq)


def quartic_third_derivative_closed_form(m_sq: float) -> float:
    if not 0.0 < m_sq < math.inf:
        raise ValidationError("closed form needs finite M^2 > 0")
    return 1.0 / (2.0 * FOUR_PI_SQ * m_sq)
