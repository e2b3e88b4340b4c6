"""One-loop electron self-energy and off-mass-shell parameters.

The self-energy Sigma(p) = A + B*pslash is reduced to two coefficients
A(p^2, m, mu2) and B(p^2, m, mu2) after regularization; the sliding scale
mu2 enters through the single arbitrary constant of the log-divergent
integral. On-shell reconfirmation of the mass (delta_m = 0) fixes mu2 and
the wave-function factor Z2. Off the mass shell, p^2 = mu^2 (1 - zeta)
defines a small parameter zeta; four bracketing schemes for zeta are
computed per table row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import NumericsError, ValidationError

# root bracket for the scalar-scheme zeta; f is monotone on it
_ZETA_LO = 1e-12
_ZETA_HI = 0.099
# Newton stops once a step in u = ln zeta is below this; from the upper
# end, the lowest root in the bracket takes about 30 steps. The step cap is
# a guard only: PhysicalConstants refuses a non-finite alpha, and no finite
# alpha or ratio is known to reach it
_ZETA_UTOL = 1e-14
_ZETA_MAX_STEPS = 100


@dataclass(frozen=True)
class SigmaCoefficients:
    a: float   # same unit as the mass argument
    b: float   # dimensionless


@dataclass(frozen=True)
class MassRenormalization:
    z2: float
    mu2: float


@dataclass(frozen=True)
class ZetaRow:
    z_sq_over_n_sq: float
    zeta_s: float
    zeta_v: float
    zeta_sv_mean: float
    zeta_sv_geo: float
    minus_log_s: float
    minus_log_v: float
    minus_log_sv_mean: float
    minus_log_sv_geo: float


def _check_domain(p_sq: float, m: float, mu2: float):
    if not 0.0 < m < math.inf:
        raise ValidationError("mass must be positive and finite")
    if not 0.0 < mu2 < math.inf:
        raise ValidationError("mu2 must be positive and finite")
    if not p_sq > 0:
        raise ValidationError("p^2 must be positive (bound-state region)")
    if p_sq > m * m:
        raise ValidationError(
            "p^2 above the mass shell is outside the supported domain"
        )


def sigma_coefficients(p_sq: float, m: float, mu2: float,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS
                       ) -> SigmaCoefficients:
    """Coefficients A and B of the reduced self-energy.

    The (m^2 - p^2) log terms vanish on shell; that limit is taken
    analytically rather than numerically (x ln x -> 0).
    """
    _check_domain(p_sq, m, mu2)
    alpha = constants.alpha
    m_sq = m * m
    log_scale = math.log(m / mu2)
    if p_sq == m_sq:
        a = (alpha / math.pi) * m * (2.0 - 2.0 * log_scale)
        b = (alpha / (4.0 * math.pi)) * (2.0 * log_scale - 3.0)
        return SigmaCoefficients(a, b)
    off = (m_sq - p_sq) / p_sq
    log_off = math.log((m_sq - p_sq) / m_sq)
    a = (alpha / math.pi) * m * (2.0 - 2.0 * log_scale + off * log_off)
    b = (alpha / (4.0 * math.pi)) * (
        2.0 * log_scale - 3.0
        - off * (1.0 + ((m_sq + p_sq) / p_sq) * log_off)
    )
    return SigmaCoefficients(a, b)


def mass_increment(p_sq: float, m: float, mu2: float,
                   constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Mass increment delta_m.

    On the mass shell the closed form (alpha m / 4 pi)(5 - 6 ln(m/mu2))
    applies; it equals A + m B there, with no 1/(1 - B) factor. Off shell
    the general (A + m B)/(1 - B) is used. The difference between the two
    conventions at the shell is of second order in alpha.
    """
    _check_domain(p_sq, m, mu2)
    if p_sq == m * m:
        alpha = constants.alpha
        return (alpha * m / (4.0 * math.pi)) * (5.0 - 6.0 * math.log(m / mu2))
    coeff = sigma_coefficients(p_sq, m, mu2, constants)
    denom = 1.0 - coeff.b
    if denom == 0.0:
        raise NumericsError("B = 1 makes the mass increment singular")
    return (coeff.a + m * coeff.b) / denom


def fix_on_shell(m: float,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS
                 ) -> MassRenormalization:
    """Fix mu2 by requiring delta_m = 0 on the mass shell.

    The zero of 5 - 6 ln(m/mu2) is mu2 = m e^(-5/6), and the wave-function
    factor follows as Z2 = 1/(1 + alpha/3 pi).
    """
    if not 0.0 < m < math.inf:
        raise ValidationError("mass must be positive and finite")
    alpha = constants.alpha
    mu2 = m * math.exp(-5.0 / 6.0)
    z2 = 1.0 / (1.0 + alpha / (3.0 * math.pi))
    return MassRenormalization(z2=z2, mu2=mu2)


def delta_mu_off_shell(zeta: float, mu: float,
                       constants: PhysicalConstants = DEFAULT_CONSTANTS
                       ) -> float:
    """Leading off-shell mass shift for p^2 = mu^2 (1 - zeta).

    Valid only in the small-zeta regime; zeta >= 0.1 is rejected rather
    than extrapolated.
    """
    if not 0.0 < mu < math.inf:
        raise ValidationError("reduced mass must be positive and finite")
    if not 0.0 < zeta < 0.1:
        raise ValidationError("zeta must lie in (0, 0.1)")
    alpha = constants.alpha
    return (alpha * mu / (4.0 * math.pi)) * (
        -zeta + 2.0 * zeta * math.log(zeta)
    ) / (1.0 + alpha / (3.0 * math.pi))


def _zeta_scalar_from_ratio(ratio: float, alpha: float) -> float:
    # Solve (alpha/4pi)(-z + 2 z ln z)/(1 + alpha/3pi) = -ratio alpha^2 / 2
    # for z = e^u; in u the left side is norm e^u (2u - 1), with derivative
    # norm e^u (2u + 1) < 0 and curvature norm e^u (2u + 3) < 0 on the
    # bracket. Newton's method started at the upper end of a decreasing,
    # concave residual stays right of the root and descends to it
    # monotonically, so no bracketing safeguard is needed.
    rhs = -0.5 * ratio * alpha * alpha
    norm = (alpha / (4.0 * math.pi)) / (1.0 + alpha / (3.0 * math.pi))

    def residual(u):
        return norm * math.exp(u) * (2.0 * u - 1.0) - rhs

    lo, hi = math.log(_ZETA_LO), math.log(_ZETA_HI)
    # compare signs: the product of the two residuals can underflow to 0.
    # The residual falls in u, so a root below the bracket leaves both ends
    # negative and one above it leaves both positive
    r_lo, r_hi = residual(lo), residual(hi)
    if (r_lo < 0 and r_hi < 0) or (r_lo > 0 and r_hi > 0):
        side, edge = ("small", "below") if r_lo < 0 else ("large", "above")
        raise NumericsError(
            f"alpha = {alpha!r} is so {side} that the zeta root for "
            f"Z^2/n^2 = {ratio} lies {edge} the bracket "
            f"[{_ZETA_LO}, {_ZETA_HI}]")
    u = hi
    for _ in range(_ZETA_MAX_STEPS):
        slope = norm * math.exp(u) * (2.0 * u + 1.0)
        if slope == 0.0:
            raise NumericsError(
                f"alpha = {alpha!r} is so small that the Newton slope of "
                f"the zeta root underflows to 0 (Z^2/n^2 = {ratio})")
        step = residual(u) / slope
        u -= step
        if abs(step) < _ZETA_UTOL:
            return math.exp(u)
    raise NumericsError(
        f"zeta root not converged in {_ZETA_MAX_STEPS} Newton steps "
        f"(Z^2/n^2 = {ratio})"
    )


def zeta_row(ratio, constants: PhysicalConstants = DEFAULT_CONSTANTS
             ) -> ZetaRow:
    """All four schemes for one value of Z^2/n^2."""
    r = float(ratio)
    if not 0.0 < r <= 1.0:
        raise ValidationError("Z^2/n^2 must lie in (0, 1]")
    alpha = constants.alpha
    zs = _zeta_scalar_from_ratio(r, alpha)
    zv = 2.0 * r * alpha * alpha
    mean = 0.5 * (zs + zv)
    geo = math.sqrt(zs * zv)
    return ZetaRow(
        z_sq_over_n_sq=r,
        zeta_s=zs, zeta_v=zv, zeta_sv_mean=mean, zeta_sv_geo=geo,
        minus_log_s=-math.log(zs), minus_log_v=-math.log(zv),
        minus_log_sv_mean=-math.log(mean), minus_log_sv_geo=-math.log(geo),
    )


def zeta_table(rows, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """ZetaRow for each requested Z^2/n^2 value, order preserved."""
    return [zeta_row(r, constants) for r in rows]
