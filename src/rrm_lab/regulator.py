"""Regulated closed forms of divergent one-loop integrals, with quadrature
oracles that verify the differentiate-then-reintegrate identities.

The method: a divergent integral is differentiated with respect to its
mass-square parameter until convergent, evaluated, then reintegrated. Each
integration step introduces one arbitrary constant; the constants are fixed
later by physics, never by a cutoff. The closed forms here keep those
constants as explicit fields.

Conventions. The closed forms carry the -i/(4pi)^2 prefactor of the
original (Minkowski) loop integrals; the oracles evaluate the Euclidean
radial integrals, which are real and positive. For a negative mass-square
the logarithm is taken on the principal branch, ln M^2 = ln|M^2| + i*pi.
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
from dataclasses import dataclass

from .errors import NumericsError, ValidationError

FOUR_PI_SQ = (4.0 * math.pi) ** 2          # (4 pi)^2 = 157.91...
KAPPA = 1.0 / (2.0 * FOUR_PI_SQ)           # 1/(2 (4 pi)^2), quartic prefactor

# evaluations one oracle may spend; each Kronrod panel costs 21
MAX_EVALS = 10000

# M^2 range of the oracles: (k^2+M^2)^3 overflows above 1e98, and below
# 1e-104 the quadrature loses digits unnoticed, then divides by zero
ORACLE_MSQ_MIN, ORACLE_MSQ_MAX = 1e-90, 1e90


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


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.rel_tol < math.inf
                and 0.0 < self.abs_tol < math.inf):
            raise ValidationError(
                "quadrature tolerances must be positive and finite")


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
    m2 = i.m_sq
    log_m2 = principal_log_msq(m2)
    if not (cmath.isfinite(i.c1) and cmath.isfinite(i.c2)
            and cmath.isfinite(i.c3)):
        raise ValidationError("integration constants must be finite")
    m4 = m2 * m2
    bracket = (
        0.5 * m4 * (log_m2 - 0.5)
        - 0.5 * m4
        + 0.5 * i.c1 * m4
        + i.c2 * m2
        + i.c3
    )
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


def _radial_quadrature(integrand, m_sq: float, spec: QuadratureSpec) -> float:
    """Integrate integrand(k) over k in [0, inf) via k = sqrt(M^2) tan(theta).

    The compact image [0, pi/2) keeps the tail exact. Globally adaptive:
    the panel with the largest error estimate is halved until the summed
    estimate meets the tolerance; each panel costs 21 evaluations, and
    running out of MAX_EVALS first is a NumericsError. One panel
    converges for the oracle integrands at every M^2 tried.
    """
    scale = math.sqrt(m_sq)

    def mapped(theta):
        t = math.tan(theta)
        k = scale * t
        # dk = scale * sec^2(theta) dtheta
        return integrand(k) * scale * (1.0 + t * t)

    value, error = _kronrod_panel(mapped, 0.0, 0.5 * math.pi)
    panels = [(-error, 0.0, 0.5 * math.pi, value)]
    evals = 21
    while error > max(spec.abs_tol, spec.rel_tol * abs(value)):
        if evals + 42 > MAX_EVALS:
            raise NumericsError(
                f"quadrature failed to converge in {MAX_EVALS} "
                f"evaluations: estimated error {error:.3e}"
            )
        _, a, b, _ = heapq.heappop(panels)
        mid = 0.5 * (a + b)
        for lo, hi in ((a, mid), (mid, b)):
            part, part_err = _kronrod_panel(mapped, lo, hi)
            heapq.heappush(panels, (-part_err, lo, hi, part))
        evals += 42
        value = math.fsum(p[3] for p in panels)
        error = math.fsum(-p[0] for p in panels)
    return value


def _euclidean_cube_integral(m_sq: float, spec: QuadratureSpec) -> float:
    """int d^4k/(2 pi)^4 (k^2+M^2)^-3 = (2 pi^2/(2 pi)^4) int_0^inf
    k^3/(k^2+M^2)^3 dk by radial quadrature, for M^2 in [ORACLE_MSQ_MIN,
    ORACLE_MSQ_MAX]; both oracles evaluate it."""
    if not ORACLE_MSQ_MIN <= m_sq <= ORACLE_MSQ_MAX:
        raise ValidationError(
            f"oracle needs M^2 in [{ORACLE_MSQ_MIN:g}, {ORACLE_MSQ_MAX:g}]")
    prefactor = (2.0 * math.pi ** 2) / (2.0 * math.pi) ** 4

    def integrand(k):
        return k ** 3 / (k * k + m_sq) ** 3

    return prefactor * _radial_quadrature(integrand, m_sq, spec)


def log_derivative_oracle(m_sq: float,
                          spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Numeric value of the once-differentiated log integral.

    Evaluates 2 (2 pi^2 / (2 pi)^4) * int_0^inf k^3/(k^2+M^2)^3 dk and
    returns it; the closed form is 1/(16 pi^2 M^2).
    """
    return 2.0 * _euclidean_cube_integral(m_sq, spec)


def quartic_third_derivative_oracle(
        m_sq: float, spec: QuadratureSpec = QuadratureSpec()) -> float:
    """Numeric value of the thrice-differentiated quartic integral.

    Evaluates the Euclidean integral int d^4k/(2 pi)^4 (k^2+M^2)^-3 as a
    radial quadrature; the closed form is 1/(2 (4 pi)^2 M^2).
    """
    return _euclidean_cube_integral(m_sq, spec)


def log_derivative_closed_form(m_sq: float) -> float:
    if not 0.0 < m_sq < math.inf:
        raise ValidationError("closed form needs finite M^2 > 0")
    return 1.0 / (16.0 * math.pi ** 2 * m_sq)


def quartic_third_derivative_closed_form(m_sq: float) -> float:
    if not 0.0 < m_sq < math.inf:
        raise ValidationError("closed form needs finite M^2 > 0")
    return 1.0 / (2.0 * FOUR_PI_SQ * m_sq)
