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

import math
from dataclasses import dataclass

from .errors import NumericsError, ValidationError

FOUR_PI_SQ = (4.0 * math.pi) ** 2          # (4 pi)^2 = 157.91...
KAPPA = 1.0 / (2.0 * FOUR_PI_SQ)           # 1/(2 (4 pi)^2), quartic prefactor


def principal_log_msq(m_sq: float) -> complex:
    """ln M^2 on the principal branch; M^2 = 0 is outside the domain."""
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
    max_evals: int = 10000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValidationError("quadrature tolerances must be positive")
        if self.max_evals < 21:
            raise ValidationError("max_evals too small for one panel")


DEFAULT_QUADRATURE = QuadratureSpec()


def log_integral_value(i: RegulatedLogIntegral) -> complex:
    """Closed form (-i/(4 pi)^2) (ln M^2 + C1) for M^2 > 0."""
    if i.m_sq <= 0:
        raise ValidationError(
            "log integral needs M^2 > 0; branch handling for negative "
            "mass-square belongs to the consumer"
        )
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
    m4 = m2 * m2
    bracket = (
        0.5 * m4 * (log_m2 - 0.5)
        - 0.5 * m4
        + 0.5 * i.c1 * m4
        + i.c2 * m2
        + i.c3
    )
    return KAPPA * bracket


def _radial_quadrature(integrand, m_sq: float, spec: QuadratureSpec) -> float:
    """Integrate integrand(k) over k in [0, inf) via k = sqrt(M^2) tan(theta).

    The compact image [0, pi/2) keeps the tail exact and lets quad meet
    tight tolerances in a handful of panels.
    """
    from scipy.integrate import quad

    scale = math.sqrt(m_sq)

    def mapped(theta):
        t = math.tan(theta)
        k = scale * t
        # dk = scale * sec^2(theta) dtheta
        return integrand(k) * scale * (1.0 + t * t)

    limit = max(1, spec.max_evals // 21)   # 21-point panels inside quad
    value, abserr, info = quad(
        mapped, 0.0, 0.5 * math.pi,
        epsabs=spec.abs_tol, epsrel=spec.rel_tol,
        limit=limit, full_output=1,
    )[:3]
    if abserr > max(spec.abs_tol, spec.rel_tol * abs(value)) * 10.0:
        raise NumericsError(
            f"quadrature failed to converge: estimated error {abserr:.3e}"
        )
    if info["neval"] > spec.max_evals:
        raise NumericsError(
            f"quadrature exceeded {spec.max_evals} evaluations"
        )
    return value


def _euclidean_cube_integral(m_sq: float, spec: QuadratureSpec) -> float:
    """int d^4k/(2 pi)^4 (k^2+M^2)^-3 = (2 pi^2/(2 pi)^4) int_0^inf
    k^3/(k^2+M^2)^3 dk by radial quadrature; both oracles evaluate it."""
    prefactor = (2.0 * math.pi ** 2) / (2.0 * math.pi) ** 4

    def integrand(k):
        return k ** 3 / (k * k + m_sq) ** 3

    return prefactor * _radial_quadrature(integrand, m_sq, spec)


def log_derivative_oracle(m_sq: float,
                          spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Numeric value of the once-differentiated log integral.

    Evaluates 2 (2 pi^2 / (2 pi)^4) * int_0^inf k^3/(k^2+M^2)^3 dk and
    returns it; the closed form is 1/(16 pi^2 M^2).
    """
    if m_sq <= 0:
        raise ValidationError("oracle needs M^2 > 0")
    return 2.0 * _euclidean_cube_integral(m_sq, spec)


def quartic_third_derivative_oracle(
        m_sq: float, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> float:
    """Numeric value of the thrice-differentiated quartic integral.

    Evaluates the Euclidean integral int d^4k/(2 pi)^4 (k^2+M^2)^-3 as a
    radial quadrature; the closed form is 1/(2 (4 pi)^2 M^2).
    """
    if m_sq <= 0:
        raise ValidationError("oracle needs M^2 > 0")
    return _euclidean_cube_integral(m_sq, spec)


def log_derivative_closed_form(m_sq: float) -> float:
    if m_sq <= 0:
        raise ValidationError("closed form needs M^2 > 0")
    return 1.0 / (16.0 * math.pi ** 2 * m_sq)


def quartic_third_derivative_closed_form(m_sq: float) -> float:
    if m_sq <= 0:
        raise ValidationError("closed form needs M^2 > 0")
    return 1.0 / (2.0 * FOUR_PI_SQ * m_sq)
