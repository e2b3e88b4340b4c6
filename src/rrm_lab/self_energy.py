"""One-loop electron self-energy and off-mass-shell parameters.

The self-energy Sigma(p) = A + B*pslash is reduced to two coefficients
A(p^2, m, mu2) and B(p^2, m, mu2) after regularization; the sliding scale
mu2 enters through the single arbitrary constant of the log-divergent
integral. On-shell reconfirmation of the mass (delta_m = 0) fixes mu2 and
the wave-function factor Z2. Off the mass shell, p^2 = mu^2 (1 - zeta)
defines a small parameter zeta; four bracketing schemes for zeta are
computed per table row.

The scalar scheme's condition (alpha/4 pi)(2 zeta ln zeta - zeta)/(1 +
alpha/3 pi) = -r alpha^2/2, r = Z^2/n^2, has the closed-form root
zeta_s = -k/W_{-1}(-k/sqrt(e)), k = pi r alpha (1 + alpha/3 pi) (Corless et
al., Adv. Comput. Math. 5 (1996) 329). A root above 0.099, where the
small-zeta expansion ends, or a k or zeta_s zeta_v that is not a normal
float, is a NumericsError naming alpha and Z^2/n^2. zeta_row fills its
ZetaRow by one dict update (errors._record), not field by field.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import NumericsError, ValidationError, _record

# the small-zeta expansion holds up to this scalar-scheme zeta, where
# k = zeta (1/2 - ln zeta), rising in zeta, reaches _K_MAX
_ZETA_HI = 0.099
_K_MAX = _ZETA_HI * (0.5 - math.log(_ZETA_HI))
_SQRT_E = math.sqrt(math.e)


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


def _lambert_w_lower(x: float) -> float:
    # W_{-1}(x) for x in [-0.169, 0), where zeta_s <= 0.099: from the
    # asymptotic start l1 - l2 + l2/l1 of Corless et al., three Halley steps
    # on w e^w = x reach 1 ulp
    l1 = math.log(-x)
    l2 = math.log(-l1)
    w = l1 - l2 + l2 / l1
    for _ in range(3):
        e = math.exp(w)
        f = w * e - x
        w -= f / (e * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return w


def zeta_row(ratio, constants: PhysicalConstants = DEFAULT_CONSTANTS
             ) -> ZetaRow:
    """All four schemes for one value of Z^2/n^2."""
    r = float(ratio)
    if not 0.0 < r <= 1.0:
        raise ValidationError("Z^2/n^2 must lie in (0, 1]")
    alpha = constants.alpha
    # with zeta = e^(1/2 + w) the scalar condition is w e^w = -k/sqrt(e)
    k = math.pi * r * alpha * (1.0 + alpha / (3.0 * math.pi))
    if k > _K_MAX:
        raise NumericsError(
            f"alpha = {alpha!r} is so large that the zeta root for "
            f"Z^2/n^2 = {r} lies above {_ZETA_HI}, the end of the "
            "small-zeta domain")
    # W is taken of a normal k only. zs zv lies below each factor except
    # near the domain's end, so a normal product means a normal zs and zv
    zs = (-k / _lambert_w_lower(-k / _SQRT_E)
          if k >= sys.float_info.min else 0.0)
    zv = 2.0 * r * alpha * alpha
    if zs * zv < sys.float_info.min:
        raise NumericsError(f"alpha = {alpha!r} and Z^2/n^2 = {r} put the "
                            "zeta schemes outside the float range")
    mean = 0.5 * (zs + zv)
    geo = math.sqrt(zs * zv)
    return _record(ZetaRow, {
        "z_sq_over_n_sq": r,
        "zeta_s": zs, "zeta_v": zv, "zeta_sv_mean": mean, "zeta_sv_geo": geo,
        "minus_log_s": -math.log(zs), "minus_log_v": -math.log(zv),
        "minus_log_sv_mean": -math.log(mean),
        "minus_log_sv_geo": -math.log(geo)})


def zeta_table(rows, constants: PhysicalConstants = DEFAULT_CONSTANTS):
    """ZetaRow for each requested Z^2/n^2 value, order preserved."""
    return [zeta_row(r, constants) for r in rows]
