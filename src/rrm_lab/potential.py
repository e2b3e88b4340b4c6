"""Quartic-scalar effective potential at one loop, two constant sectors.

Tree potential V0 = -sigma phi^2/2 + lambda phi^4/24 with sigma > 0, plus
the regulated vacuum loop evaluated at the field-dependent mass-square
M^2(phi) = -sigma + lambda phi^2 / 2. The three reintegration constants
are fixed in two inequivalent ways:

  ssb:        c1 = -ln(2 sigma), c2 = 2 sigma,
              c3 = -sigma^2 + (4 pi)^2 3 sigma^2 / lambda
              (broken vacuum at phi1 = sqrt(6 sigma/lambda), V(phi1) = 0,
              curvature 2 sigma there)
  symmetric:  c1 = -ln sigma - i pi, c2 = -sigma, c3 = -sigma^2/4
              (phi = 0 semistable: V = V' = V''' = 0, V'' = -sigma,
              V'''' = lambda)

M^2 is negative below |phi| = sqrt(2 sigma/lambda), so values are complex
there; the imaginary part rides on the principal log branch.

Derivatives through fourth order are closed forms via the chain rule in
M^2; they are exact, not finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError
from .regulator import (
    FOUR_PI_SQ,
    KAPPA,
    RegulatedQuarticIntegral,
    principal_log_msq,
    quartic_integral_value,
)


@dataclass(frozen=True)
class PotentialParams:
    sigma: float     # GeV^2, wrong-sign mass term
    lam: float       # dimensionless quartic coupling

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:
            raise ValidationError("sigma must be positive and finite")
        if not 0.0 < self.lam < math.inf:
            raise ValidationError("lambda must be positive and finite")


@dataclass(frozen=True)
class SchemeConstants:
    c1: complex       # dimensionless, -ln(mass^2) convention
    c2: float         # GeV^2
    c3: float         # GeV^4


@dataclass(frozen=True)
class SectorReport:
    phi: float
    v: complex
    d1: complex
    d2: complex
    d3: complex
    d4: complex


def phi_broken(p: PotentialParams) -> float:
    """Field value of the broken vacuum, sqrt(6 sigma / lambda)."""
    return math.sqrt(6.0 * p.sigma / p.lam)


def mass_squared(phi: float, p: PotentialParams) -> float:
    return -p.sigma + 0.5 * p.lam * phi * phi


def tree_potential(phi: float, p: PotentialParams) -> float:
    return -0.5 * p.sigma * phi * phi + p.lam * phi ** 4 / 24.0


def ssb_scheme(p: PotentialParams) -> SchemeConstants:
    return SchemeConstants(
        c1=complex(-math.log(2.0 * p.sigma)),
        c2=2.0 * p.sigma,
        c3=-p.sigma ** 2 + FOUR_PI_SQ * 3.0 * p.sigma ** 2 / p.lam,
    )


def symmetric_scheme(p: PotentialParams) -> SchemeConstants:
    # -ln(-sigma) on the same principal branch as the loop integral
    return SchemeConstants(
        c1=complex(-math.log(p.sigma), -math.pi),
        c2=-p.sigma,
        c3=-0.25 * p.sigma ** 2,
    )


def scheme_for(sector: str, p: PotentialParams) -> SchemeConstants:
    if sector == "ssb":
        return ssb_scheme(p)
    if sector == "symmetric":
        return symmetric_scheme(p)
    raise ValidationError(f"unknown sector '{sector}'")


def _check_mass_squared(phi: float, p: PotentialParams) -> float:
    m2 = mass_squared(phi, p)
    if m2 == 0.0:
        edge = math.sqrt(2.0 * p.sigma / p.lam)
        raise ValidationError(
            f"M^2(phi) vanishes at phi = +/-{edge:.12g}; the loop term is "
            "singular there"
        )
    return m2


def one_loop_potential(phi: float, p: PotentialParams,
                       c: SchemeConstants) -> complex:
    """Tree plus regulated vacuum loop at M^2(phi)."""
    m2 = _check_mass_squared(phi, p)
    loop = quartic_integral_value(
        RegulatedQuarticIntegral(m_sq=m2, c1=c.c1, c2=c.c2, c3=c.c3)
    )
    return tree_potential(phi, p) + loop


def _g_chain(m2: float, c: SchemeConstants):
    # g and its first three M^2 derivatives; g is the once-integrated loop
    log_m2 = principal_log_msq(m2)
    g0 = m2 * log_m2 - m2 + c.c1 * m2 + c.c2
    g1 = log_m2 + c.c1
    g2 = 1.0 / m2
    g3 = -1.0 / (m2 * m2)
    return g0, g1, g2, g3


def potential_derivative(phi: float, order: int, p: PotentialParams,
                         c: SchemeConstants) -> complex:
    """Closed-form d^order V / d phi^order, order 1..4."""
    if order not in (1, 2, 3, 4):
        raise ValidationError("derivative order must be 1..4")
    m2 = _check_mass_squared(phi, p)
    lam, sigma = p.lam, p.sigma
    g0, g1, g2, g3 = _g_chain(m2, c)
    kl = KAPPA * lam
    if order == 1:
        return -sigma * phi + lam * phi ** 3 / 6.0 + kl * phi * g0
    if order == 2:
        return (-sigma + 0.5 * lam * phi * phi
                + kl * g0 + kl * lam * phi * phi * g1)
    if order == 3:
        return (lam * phi + 3.0 * kl * lam * phi * g1
                + kl * lam ** 2 * phi ** 3 * g2)
    return (lam + 3.0 * kl * lam * g1
            + 6.0 * kl * lam ** 2 * phi * phi * g2
            + kl * lam ** 3 * phi ** 4 * g3)


def lambda_renormalized(p: PotentialParams) -> float:
    """Quartic coupling including its one-loop correction."""
    return p.lam * (1.0 + 9.0 * p.lam / (2.0 * FOUR_PI_SQ))


def sector_report(phi: float, p: PotentialParams,
                  c: SchemeConstants) -> SectorReport:
    return SectorReport(
        phi=phi,
        v=one_loop_potential(phi, p, c),
        d1=potential_derivative(phi, 1, p, c),
        d2=potential_derivative(phi, 2, p, c),
        d3=potential_derivative(phi, 3, p, c),
        d4=potential_derivative(phi, 4, p, c),
    )


def two_phase_table(p: PotentialParams, c: SchemeConstants):
    """Reports at the broken vacuum and at the origin, in that order."""
    return sector_report(phi_broken(p), p, c), sector_report(0.0, p, c)
