"""Hydrogenlike level arithmetic: reduced-mass Dirac energies, the
noncovariant radiative coefficients, the p^4 level shift, and the
assembled 2S-2P splitting.

Masses are in MeV throughout this module (atomic scale); frequencies leave
in Hz. The radiative piece runs on the renormalized momentum-quartic
coefficient b2r; the vacuum-polarization and nuclear-size terms are
external inputs with defaults rederived here (see uehling_2s_shift).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import DEFAULT_CONSTANTS, PhysicalConstants
from .errors import NumericsError, ValidationError

# external additive terms for the 2S-2P assembly, MHz
DEFAULT_VP_MHZ = -27.13        # Uehling 2S shift, see uehling_2s_shift
DEFAULT_NUCLEAR_MHZ = 0.10     # proton size effect, borrowed value

CONVENTIONS = ("standard_2l", "alt_3l")
COEFFICIENT_MODES = ("formula", "frozen_constant")

_B2R_FROZEN = 1.99808


@dataclass(frozen=True)
class AtomConfig:
    z: int
    nuclear_mass: float     # MeV
    n: int
    l: int
    j: float

    def __post_init__(self):
        if not 1 <= self.z < math.inf:
            raise ValidationError("Z must be at least 1")
        if not 0.0 < self.nuclear_mass < math.inf:
            raise ValidationError("nuclear mass must be positive and finite")
        if not 1 <= self.n < math.inf:
            raise ValidationError("n must be at least 1")
        if not 0 <= self.l < self.n:
            raise ValidationError("l must satisfy 0 <= l < n")
        if not (self.j > 0 and abs(abs(self.j - self.l) - 0.5) <= 1e-12):
            raise ValidationError("j must be l +/- 1/2 and positive")


@dataclass(frozen=True)
class RadiativeCoefficients:
    b2: float      # MeV^-3
    b1p: float     # MeV^-1
    b2p: float     # MeV^-3
    beta: float    # dimensionless mass-shift ratio
    b2r: float     # MeV^-3, renormalized coefficient


@dataclass(frozen=True)
class TransitionReport:
    baseline: float                # Hz
    radiative: float               # Hz
    vacuum_polarization: float     # Hz
    nuclear_size: float            # Hz
    total: float                   # Hz


def _outside_float_range(names_values: str, what: str) -> NumericsError:
    return NumericsError(f"{names_values} put the {what} outside the float "
                         "range")


def reduced_mass(m_e: float, m_n: float) -> float:
    if not (0.0 < m_e < math.inf and 0.0 < m_n < math.inf):
        raise ValidationError("masses must be positive and finite")
    product = m_e * m_n
    mu = product / (m_e + m_n)
    # a product or mu below the normal range keeps only some of its digits
    if not (sys.float_info.min <= product < math.inf
            and mu >= sys.float_info.min):
        raise _outside_float_range(f"m_e = {m_e!r} and m_n = {m_n!r} MeV",
                                   "reduced mass m_e m_n / (m_e + m_n)")
    return mu


def bohr_binding(z: int, n: int, mu: float,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Nonrelativistic binding energy Z^2 alpha^2 mu / 2 n^2 (positive)."""
    if not (1 <= z < math.inf and 1 <= n < math.inf):
        raise ValidationError("Z and n must be at least 1")
    if not 0.0 < mu < math.inf:
        raise ValidationError("mass must be positive and finite")
    alpha = constants.alpha
    return (z * z) * alpha * alpha * mu / (2.0 * n * n)


def rde_level(cfg: AtomConfig,
              constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Dirac point-nucleus level with the reduced mass, in MeV.

    E = mu ([1 + (Z alpha / (n - delta_j))^2]^(-1/2) - 1), negative for
    bound states; delta_j = (j + 1/2) - sqrt((j + 1/2)^2 - (Z alpha)^2).
    """
    alpha = constants.alpha
    z_alpha = cfg.z * alpha
    kappa = cfg.j + 0.5
    if z_alpha >= kappa:
        raise ValidationError(
            f"Z alpha = {z_alpha:.6g} reaches the j + 1/2 = {kappa} bound; "
            "the point-nucleus level collapses"
        )
    mu = reduced_mass(constants.electron_mass, cfg.nuclear_mass)
    # both differences cancel for small Z alpha; each is rewritten over
    # a sum of the square root and the term it was subtracted from
    z_sq = z_alpha * z_alpha
    delta_j = z_sq / (kappa + math.sqrt(kappa * kappa - z_sq))
    ratio = z_alpha / (cfg.n - delta_j)
    r_sq = ratio * ratio
    s = math.sqrt(1.0 + r_sq)
    return -mu * r_sq / (s * (1.0 + s))


def _mev_to_hz(e_mev: float, constants: PhysicalConstants) -> float:
    return e_mev * 1e6 * constants.ev_to_hz


_ATOMS = {"H": "proton_mass", "D": "deuteron_mass"}


def rde_transition_1s2s(atom: str,
                        constants: PhysicalConstants = DEFAULT_CONSTANTS
                        ) -> float:
    """1S-2S interval in Hz for hydrogen or deuterium."""
    if atom not in _ATOMS:
        raise ValidationError("atom must be 'H' or 'D'")
    m_n = getattr(constants, _ATOMS[atom])
    e1 = rde_level(AtomConfig(z=1, nuclear_mass=m_n, n=1, l=0, j=0.5),
                   constants)
    e2 = rde_level(AtomConfig(z=1, nuclear_mass=m_n, n=2, l=0, j=0.5),
                   constants)
    return _mev_to_hz(e2 - e1, constants)


def radiative_coefficients(mu: float, g: float, mode: str,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS
                           ) -> RadiativeCoefficients:
    """Momentum-expansion coefficients of the noncovariant self-energy.

    b1 and b0' vanish by the constants-fixing choices, so no field holds
    them; the surviving quartic coefficients combine with the mass-shift
    ratio beta into the renormalized b2r. Two b2r modes: the assembled formula,
    and a frozen reference constant; they differ by 1.5 percent and are
    never silently mixed.
    """
    if not (0.0 < mu < math.inf and 0.0 < g < math.inf):
        raise ValidationError("mass and g factor must be positive and finite")
    if mode not in COEFFICIENT_MODES:
        raise ValidationError(f"mode must be one of {COEFFICIENT_MODES}")
    alpha = constants.alpha
    try:
        g_sq_4 = 0.25 * g * g
        mu3 = mu ** 3
        angular = 4.0 * math.log(2.0) / 3.0 + 2.0
        b2 = -2.0 * alpha / (15.0 * math.pi * mu3)
        b1p = g_sq_4 * (alpha / (math.pi * mu)) * angular
        b2p = -g_sq_4 * alpha / (15.0 * math.pi * mu3)
        beta = (g * g * alpha / (2.0 * math.pi)) * angular
        if mode == "formula":
            b2r = b2 + b2p + (3.0 * beta + 3.0 * beta ** 2 + beta ** 3) \
                / (8.0 * mu3)
        else:
            b2r = _B2R_FROZEN * alpha / (math.pi * mu3)
        result = RadiativeCoefficients(b2, b1p, b2p, beta, b2r)
        if not all(map(math.isfinite, vars(result).values())):
            # float * and / overflow to inf without raising (g^2, or
            # 1/mu^3 of a subnormal mu^3)
            raise OverflowError
    except ArithmeticError as exc:  # mu ** 3, or 1/mu^3 of mu^3 = 0
        raise _outside_float_range(f"mu = {mu!r} MeV and g = {g!r}",
                                   "radiative coefficients") from exc
    return result


def _bracket(n: int, l: int, convention: str) -> float:
    if convention == "standard_2l":
        den = 2 * l + 1
    elif convention == "alt_3l":
        den = 3 * l + 1
    else:
        raise ValidationError(f"convention must be one of {CONVENTIONS}")
    return 8.0 * n / den - 3.0


def p4_level_shift(cfg: AtomConfig, mu_obs: float, b2r: float,
                   convention: str = "standard_2l",
                   constants: PhysicalConstants = DEFAULT_CONSTANTS
                   ) -> float:
    """Radiative p^4 shift of one level, in MeV.

    shift = [8n/(2l+1) - 3] b2r (Z alpha)^4 mu_obs^4 / n^4, with the
    alternative 3l+1 denominator kept selectable.
    """
    if not 0.0 < mu_obs < math.inf:
        raise ValidationError("mass must be positive and finite")
    alpha = constants.alpha
    z_alpha = cfg.z * alpha
    bracket = _bracket(cfg.n, cfg.l, convention)
    try:
        shift = bracket * b2r * z_alpha ** 4 * mu_obs ** 4 / cfg.n ** 4
        if not math.isfinite(shift):
            raise OverflowError  # a product overflowed, or inf met 0
    except ArithmeticError as exc:  # mu_obs ** 4 or z_alpha ** 4
        raise _outside_float_range(
            f"Z = {cfg.z!r}, mu_obs = {mu_obs!r} MeV and b2r = {b2r!r}",
            "p^4 level shift") from exc
    return shift


def lamb_2s_2p(mu_obs: float, b2r: float,
               vp_mhz: float = DEFAULT_VP_MHZ,
               nuclear_mhz: float = DEFAULT_NUCLEAR_MHZ,
               convention: str = "standard_2l",
               constants: PhysicalConstants = DEFAULT_CONSTANTS
               ) -> TransitionReport:
    """Assemble the 2S(1/2)-2P(1/2) splitting of hydrogen.

    The point-nucleus baseline cancels exactly (same n and j); what
    remains is the radiative p^4 difference plus the two external terms.
    """
    if not (math.isfinite(vp_mhz) and math.isfinite(nuclear_mhz)):
        raise ValidationError("external terms must be finite")
    m_p = constants.proton_mass
    cfg_2s = AtomConfig(z=1, nuclear_mass=m_p, n=2, l=0, j=0.5)
    cfg_2p = AtomConfig(z=1, nuclear_mass=m_p, n=2, l=1, j=0.5)
    baseline = _mev_to_hz(
        rde_level(cfg_2s, constants) - rde_level(cfg_2p, constants),
        constants,
    )
    radiative = _mev_to_hz(
        p4_level_shift(cfg_2s, mu_obs, b2r, convention, constants)
        - p4_level_shift(cfg_2p, mu_obs, b2r, convention, constants),
        constants,
    )
    vp = vp_mhz * 1e6
    nuclear = nuclear_mhz * 1e6
    return TransitionReport(
        baseline=baseline,
        radiative=radiative,
        vacuum_polarization=vp,
        nuclear_size=nuclear,
        total=baseline + radiative + vp + nuclear,
    )


def uehling_2s_shift(mass_mev: float,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS
                     ) -> float:
    """Standard vacuum-polarization 2S shift, -alpha^5 m / 30 pi, in MHz.

    Evaluated with the electron mass this gives -27.13 MHz, the default
    vacuum-polarization input of the 2S-2P assembly. alpha^5, the shift
    in MeV or the shift in MHz outside the normal float range is a
    NumericsError naming m and alpha.
    """
    if not 0.0 < mass_mev < math.inf:
        raise ValidationError("mass must be positive and finite")
    alpha = constants.alpha
    try:
        alpha5 = alpha ** 5
        shift_mev = -alpha5 * mass_mev / (30.0 * math.pi)
        shift = _mev_to_hz(shift_mev, constants) / 1e6
        # float * overflows to inf without raising, and a subnormal step
        # keeps only some of its digits
        if not (min(alpha5, -shift_mev) >= sys.float_info.min
                and sys.float_info.min <= -shift < math.inf):
            raise OverflowError
    except ArithmeticError as exc:  # alpha ** 5
        raise _outside_float_range(
            f"m = {mass_mev!r} MeV and alpha = {alpha!r}",
            "Uehling 2S shift") from exc
    return shift
