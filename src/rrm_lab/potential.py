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
M^2; they are exact, not finite differences. sector_report computes V and
all four in one pass: one M^2, one ln M^2, one chain g0..g3 and each power
of phi and lambda once per field value, bit for bit the per-order values
of potential_derivative. An OverflowError or ZeroDivisionError on the way,
or a derivative that overflows to inf or nan, becomes a NumericsError
naming phi, sigma and lambda.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NumericsError, ValidationError, _record
from .regulator import (
    FOUR_PI_SQ,
    KAPPA,
    _quartic_value,
    principal_log_msq,
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


def _outside_float_range(p: PotentialParams, phi=None) -> NumericsError:
    at = "" if phi is None else f"phi = {phi!r}, "
    return NumericsError(f"{at}sigma = {p.sigma!r} and lambda = {p.lam!r} "
                         "put the potential outside the float range")


def ssb_scheme(p: PotentialParams) -> SchemeConstants:
    try:
        c3 = -p.sigma ** 2 + FOUR_PI_SQ * 3.0 * p.sigma ** 2 / p.lam
    except OverflowError as exc:  # sigma^2
        raise _outside_float_range(p) from exc
    if not math.isfinite(c3):  # lambda small against sigma^2
        raise ValidationError(
            f"sigma = {p.sigma!r} and lambda = {p.lam!r} put the ssb "
            "constant c3 = 3 (4 pi)^2 sigma^2/lambda - sigma^2 outside the "
            "float range"
        )
    return SchemeConstants(
        c1=complex(-math.log(2.0 * p.sigma)),
        c2=2.0 * p.sigma,
        c3=c3,
    )


def symmetric_scheme(p: PotentialParams) -> SchemeConstants:
    # -ln(-sigma) on the same principal branch as the loop integral
    try:
        return SchemeConstants(
            c1=complex(-math.log(p.sigma), -math.pi),
            c2=-p.sigma,
            c3=-0.25 * p.sigma ** 2,
        )
    except OverflowError as exc:  # sigma^2
        raise _outside_float_range(p) from exc


def scheme_for(sector: str, p: PotentialParams) -> SchemeConstants:
    if sector == "ssb":
        return ssb_scheme(p)
    if sector == "symmetric":
        return symmetric_scheme(p)
    raise ValidationError(f"unknown sector '{sector}'")


def _vanishing_mass(p: PotentialParams) -> ValidationError:
    edge = math.sqrt(2.0 * p.sigma / p.lam)
    return ValidationError(f"M^2(phi) vanishes at phi = +/-{edge:.12g}; the "
                           "loop term is singular there")


def _check_mass_squared(phi: float, p: PotentialParams) -> float:
    m2 = mass_squared(phi, p)
    if m2 == 0.0:
        raise _vanishing_mass(p)
    return m2


def one_loop_potential(phi: float, p: PotentialParams,
                       c: SchemeConstants) -> complex:
    """Tree plus regulated vacuum loop at M^2(phi)."""
    try:
        m2 = _check_mass_squared(phi, p)
        return tree_potential(phi, p) + _quartic_value(
            m2, principal_log_msq(m2), c.c1, c.c2, c.c3)
    except ArithmeticError as exc:  # phi ** 4
        raise _outside_float_range(p, phi) from exc


def _g_chain(m2: float, log_m2: complex, c: SchemeConstants):
    # g and its first three M^2 derivatives; g is the once-integrated loop
    g0 = m2 * log_m2 - m2 + c.c1 * m2 + c.c2
    g1 = log_m2 + c.c1
    g2 = 1.0 / m2
    g3 = -1.0 / (m2 * m2)
    return g0, g1, g2, g3


def _derivative(phi: float, order: int, p: PotentialParams, g) -> complex:
    # d^order V / d phi^order from the chain g of _g_chain at M^2(phi)
    lam, sigma = p.lam, p.sigma
    g0, g1, g2, g3 = g
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


def potential_derivative(phi: float, order: int, p: PotentialParams,
                         c: SchemeConstants) -> complex:
    """Closed-form d^order V / d phi^order, order 1..4."""
    if order not in (1, 2, 3, 4):
        raise ValidationError("derivative order must be 1..4")
    try:
        m2 = _check_mass_squared(phi, p)
        d = _derivative(phi, order, p, _g_chain(m2, principal_log_msq(m2), c))
        if not cmath.isfinite(d):
            raise OverflowError  # float * overflows without raising
    except ArithmeticError as exc:  # phi ** n, lam ** n, 1/M^4
        raise _outside_float_range(p, phi) from exc
    return d


def lambda_renormalized(p: PotentialParams) -> float:
    """Quartic coupling including its one-loop correction."""
    return p.lam * (1.0 + 9.0 * p.lam / (2.0 * FOUR_PI_SQ))


def sector_report(phi: float, p: PotentialParams,
                  c: SchemeConstants) -> SectorReport:
    """V and d1..d4 in one pass. Each sum keeps the operation order of
    tree_potential, one_loop_potential and _derivative, so every value is
    theirs bit for bit; the first piece to fail, in that order, raises as
    its single-piece call would."""
    sigma, lam = p.sigma, p.lam
    try:
        m2 = -sigma + 0.5 * lam * phi * phi    # mass_squared
        if m2 == 0.0:
            raise _vanishing_mass(p)
        phi4 = phi ** 4                        # fails before the log
        tree = -0.5 * sigma * phi * phi + lam * phi4 / 24.0
        log_m2 = principal_log_msq(m2)
        c1 = c.c1
        v = tree + _quartic_value(m2, log_m2, c1, c.c2, c.c3)
        # the chain of _g_chain, inline
        g0 = m2 * log_m2 - m2 + c1 * m2 + c.c2
        g1 = log_m2 + c1
        g2 = 1.0 / m2
        g3 = -1.0 / (m2 * m2)
        phi3, lam2 = phi ** 3, lam ** 2
        kl = KAPPA * lam
        kl3 = 3.0 * kl * lam
        # d2 opens with -sigma + 0.5 lam phi phi, which is m2
        d1 = -sigma * phi + lam * phi3 / 6.0 + kl * phi * g0
        d2 = m2 + kl * g0 + kl * lam * phi * phi * g1
        d3 = lam * phi + kl3 * phi * g1 + kl * lam2 * phi3 * g2
        d4 = (lam + kl3 * g1 + 6.0 * kl * lam2 * phi * phi * g2
              + kl * lam ** 3 * phi4 * g3)
        # one sum is finite only if every term is; test the terms only
        # when it is not, since finite terms may overflow it
        if not (cmath.isfinite(d1 + d2 + d3 + d4)
                or all(map(cmath.isfinite, (d1, d2, d3, d4)))):
            raise OverflowError  # float * overflows without raising
    except ArithmeticError as exc:
        raise _outside_float_range(p, phi) from exc
    return _record(SectorReport, {"phi": phi, "v": v, "d1": d1, "d2": d2,
                                  "d3": d3, "d4": d4})


def two_phase_table(p: PotentialParams, c: SchemeConstants):
    """Reports at the broken vacuum and at the origin, in that order."""
    return sector_report(phi_broken(p), p, c), sector_report(0.0, p, c)
