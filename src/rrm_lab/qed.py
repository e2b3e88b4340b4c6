"""Mass-dependent QED beta function and the running of alpha.

A single fermion of mass m contributes a closed-form beta that vanishes
like Q^2/m^2 far below threshold and saturates at 2 alpha^2 / 3 pi far
above it. The full beta sums the contributions of the nine charged
fermions with exact color/charge weights w_f = N_c Q_f^2.

The running itself needs no integrator. d(1/alpha)/d ln Q is minus the
loop shape h(Q/m) per unit weight, so integrating back once gives the
exact loop function H(x) = int_0^x h(u)/u du, and

    1/alpha(Q) = 1/alpha0 - (2/3 pi) sum_f N_c Q_f^2 [H(Q/m_f) - H(Q_0/m_f)]

with the constant fixed at the Thomson limit Q_0 (Peskin & Schroeder 7.5).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .constants import (
    DEFAULT_CONSTANTS,
    MAX_SAMPLES,
    ParticleTable,
    PhysicalConstants,
)
from .errors import NumericsError, ValidationError

# Thomson-limit anchor: the boundary condition holds at Q -> 0; below this
# the total beta is ~1e-11 and alpha is frozen
Q_START_GEV = 1e-6

# samples on a curve when no step count is given: log-spaced, both ends kept
DEFAULT_SAMPLES = 101

# h and H switch from their Taylor series to their closed forms here: H's
# closed form cancels to ~6e-14 relative near x = 0.5 and 4e-15 at x = 1,
# h's to ~6e-15 just above 1, while below 1 both series stay within 1e-15
# in <= 26 terms
_SERIES_X = 1.0

# 1/alpha falls by this much per e-fold of Q per unit N_c Q_f^2 far above
# every threshold
_QED_SLOPE = 2.0 / (3.0 * math.pi)

_MAX_ROOT_STEPS = 100


@dataclass(frozen=True)
class BetaModel:
    """The particle table that drives the beta function."""

    table: ParticleTable


@dataclass(frozen=True)
class CouplingCurve:
    """Monotone-Q samples of a running coupling."""

    samples: tuple       # ((q_gev, alpha), ...)

    def __post_init__(self):
        qs = [q for q, _ in self.samples]
        if any(b <= a for a, b in zip(qs, qs[1:])):
            raise ValidationError("curve Q values must be strictly increasing")


@dataclass(frozen=True)
class FitResult:
    scale_factor: float
    achieved_inverse_alpha: float
    iterations: int


def _loop_series(x: float, integrated: bool) -> float:
    """The Taylor series h(x) = sum c_n x^(2n), or H = sum c_n x^(2n)/(2n)
    when integrated; c_1 = 1/5 and c_{n+1} = -c_n (n+2) / (2 (2n+5)), so
    the terms shrink by about x^2/4."""
    x_sq = x * x
    c = 0.2
    power = x_sq
    total = 0.0
    for n in range(1, 60):
        term = c * power / (2 * n) if integrated else c * power
        total += term
        if abs(term) <= 1e-17 * total:
            break
        c *= -(n + 2) / (2.0 * (2 * n + 5))
        power *= x_sq
    return total


def _loop_shape(x: float) -> float:
    """Fermion-loop factor h(x) = x dH/dx, x = Q/m: h -> x^2/5 for small x
    and -> 1 for large x. Above x = 1 it is

        h = 1 - (6/x^2) [1 - 4 asinh(x/2) / (x sqrt(x^2 + 4))];

    below, that form cancels and the Taylor series is summed instead.
    """
    if x < _SERIES_X:
        return _loop_series(x, integrated=False)
    g = 1.0 - 4.0 * math.asinh(0.5 * x) / (x * math.sqrt(x * x + 4.0))
    return 1.0 - (6.0 / (x * x)) * g


def loop_integral(x: float) -> float:
    """The reintegrated loop H(x) = int_0^x h(u)/u du, x = Q/m.

    H -> x^2/10 for small x and ln x - 5/6 for large x. Above x = 1 it is

        H = (1/2) [-5/3 + 4/x^2 + 2 (1 - 2/x^2) sqrt(1 + 4/x^2) asinh(x/2)];

    below, that form cancels, so the Taylor series of h is integrated term
    by term instead.
    """
    if not 0.0 <= x < math.inf:
        raise ValidationError("loop_integral needs finite x >= 0")
    if x < _SERIES_X:
        return _loop_series(x, integrated=True)
    inv_sq = 4.0 / (x * x)
    return 0.5 * (-5.0 / 3.0 + inv_sq + 2.0 * (1.0 - 0.5 * inv_sq)
                  * math.sqrt(1.0 + inv_sq) * math.asinh(0.5 * x))


def beta_total(alpha: float, q: float, model: BetaModel) -> float:
    """Q d alpha/dQ of the exact running: (2 alpha^2/3 pi) sum w_f h(Q/m_f)."""
    if not 0.0 < alpha < math.inf:
        raise ValidationError("alpha must be positive and finite")
    if not 0.0 <= q < math.inf:
        raise ValidationError("Q must be nonnegative and finite")
    return _QED_SLOPE * alpha * alpha * sum(
        float(sp.charge_weight) * _loop_shape(q / sp.mass)
        for sp in model.table)


def _log_ratio(a: float, b: float) -> float:
    """ln(a/b) for positive a and b, also where a/b is not a normal float."""
    ratio = a / b
    if sys.float_info.min <= ratio < math.inf:
        return math.log(ratio)
    return math.log(a) - math.log(b)


def _log_grid(q_lo: float, q_hi: float, n: int) -> list:
    """n points evenly spaced in ln Q from q_lo to q_hi, both ends exact."""
    if not 2 <= n <= MAX_SAMPLES:
        raise ValidationError(f"steps must lie in [2, {MAX_SAMPLES}]")
    t_lo = math.log(q_lo)
    step = (math.log(q_hi) - t_lo) / (n - 1)
    return [q_lo, *(math.exp(t_lo + i * step) for i in range(1, n - 1)),
            q_hi]


def _increasing_root(f, lo: float, hi: float, tol: float = 1e-14) -> float:
    """Root of an increasing f on [lo, hi], with f(lo) < 0 <= f(hi).

    f(u) returns (value, slope). Newton steps start from lo; a step that
    would leave the shrinking bracket is replaced by bisection. Stops once
    a step is below tol (relative to |u|, at least 1).
    """
    u = lo
    for _ in range(_MAX_ROOT_STEPS):
        value, slope = f(u)
        if value == 0.0:
            return u
        if value < 0.0:
            lo = u
        else:
            hi = u
        nxt = u - value / slope
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - u) <= tol * max(1.0, abs(u)):
            return nxt
        u = nxt
    raise NumericsError(f"root search did not converge in "
                        f"{_MAX_ROOT_STEPS} steps")


def evolve_alpha(q_max: float, model: BetaModel, steps: int = None,
                 constants: PhysicalConstants = DEFAULT_CONSTANTS
                 ) -> CouplingCurve:
    """Run alpha up from the Thomson limit to q_max.

    The curve holds `steps` log-spaced samples from Q_START_GEV to q_max,
    DEFAULT_SAMPLES when steps is None; each is the exact running.
    """
    if not 0.0 < q_max < math.inf:
        raise ValidationError("q_max must be positive and finite")
    alpha0 = constants.alpha
    if q_max <= Q_START_GEV:
        # below every mass the coupling is frozen at the boundary value
        return CouplingCurve(((q_max, alpha0),))
    grid = _log_grid(Q_START_GEV, q_max,
                    DEFAULT_SAMPLES if steps is None else steps)
    terms = [(float(sp.charge_weight), sp.mass,
              loop_integral(Q_START_GEV / sp.mass)) for sp in model.table]
    samples = []
    for q in grid:
        fall = _QED_SLOPE * sum(w * (loop_integral(q / m) - h0)
                                for w, m, h0 in terms)
        denom = 1.0 - alpha0 * fall
        if denom <= 0.0:
            raise NumericsError(
                f"1/alpha reaches zero below Q = {q:.6g} GeV (Landau pole)"
            )
        samples.append((q, alpha0 / denom))
    return CouplingCurve(tuple(samples))


def landau_solution(q: float, m: float, alpha0: float) -> float:
    """Massless one-loop closed form with its pole guarded."""
    if not all(0.0 < v < math.inf for v in (q, m, alpha0)):
        raise ValidationError("q, m, alpha0 must be positive and finite")
    denom = 1.0 - (2.0 * alpha0 / (3.0 * math.pi)) * _log_ratio(q, m)
    if denom <= 0.0:
        # the pole lies at or below q, but exp alone can overflow
        pole = math.exp(math.log(m) + 3.0 * math.pi / (2.0 * alpha0))
        raise NumericsError(
            f"massless running diverges at the pole scale {pole:.6g} GeV"
        )
    return alpha0 / denom


def fit_light_quarks(model: BetaModel, target_inverse_alpha: float,
                     constants: PhysicalConstants = DEFAULT_CONSTANTS
                     ) -> FitResult:
    """Fit a common scale on the three light-quark masses.

    1/alpha at the Z mass matches the target; leptons and heavy quarks
    stay fixed. With u = ln(scale), 1/alpha(M_Z) rises with u at the exact
    rate (2/3 pi) sum_{u,d,s} N_c Q_f^2 [h(M_Z/sm) - h(Q_0/sm)] > 0
    (heavier quarks run less), so Newton's method in u on the scale
    bracket [1e-3, 1e3] finds the one root. `iterations` counts the
    evaluations of 1/alpha(M_Z).
    """
    q_z = constants.m_z
    light, heavy = [], []
    for sp in model.table:
        group = light if sp.name in ("u", "d", "s") else heavy
        group.append((float(sp.charge_weight), sp.mass))
    fixed = 1.0 / constants.alpha - _QED_SLOPE * sum(
        w * (loop_integral(q_z / m) - loop_integral(Q_START_GEV / m))
        for w, m in heavy)
    evaluations = 0

    def inverse_alpha(u):
        # 1/alpha(M_Z) and its u-derivative with the light masses scaled
        nonlocal evaluations
        evaluations += 1
        scale = math.exp(u)
        value, slope = fixed, 0.0
        for w, m in light:
            x_z, x_0 = q_z / (scale * m), Q_START_GEV / (scale * m)
            value -= _QED_SLOPE * w * (loop_integral(x_z)
                                       - loop_integral(x_0))
            slope += _QED_SLOPE * w * (_loop_shape(x_z) - _loop_shape(x_0))
        return value, slope

    def residual(u):
        value, slope = inverse_alpha(u)
        return value - target_inverse_alpha, slope

    lo_u, hi_u = math.log(1e-3), math.log(1e3)
    ia_lo = inverse_alpha(lo_u)[0]
    ia_hi = inverse_alpha(hi_u)[0]
    if not ia_lo <= target_inverse_alpha <= ia_hi:
        raise NumericsError(
            f"target 1/alpha = {target_inverse_alpha} outside the reachable "
            f"range [{ia_lo:.6f}, {ia_hi:.6f}] for light-quark scales in "
            "[1e-3, 1e3]"
        )
    u = (lo_u if ia_lo == target_inverse_alpha
         else _increasing_root(residual, lo_u, hi_u))
    return FitResult(scale_factor=math.exp(u),
                     achieved_inverse_alpha=inverse_alpha(u)[0],
                     iterations=evaluations)
