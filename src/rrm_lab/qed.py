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
The fermion sum and its slope sum_f w_f h(Q/m_f) are written once, as
_loop_sum and _shape_sum; qcd runs alpha_s through the same two.
"""

from __future__ import annotations

import math
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

_ROOT_TOL, _MAX_ROOT_STEPS = 1e-14, 100


@dataclass(frozen=True)
class BetaModel:
    """The particle table that drives the beta function."""

    table: ParticleTable


@dataclass(frozen=True)
class CouplingCurve:
    """Monotone-Q samples of a running coupling."""

    samples: tuple       # ((q_gev, alpha), ...)


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


def _loop_sum(terms, q: float) -> float:
    """sum w [H(q/m) - H_ref] over (weight, mass, H_ref) terms."""
    return sum(w * (loop_integral(q / m) - h_ref) for w, m, h_ref in terms)


def _shape_sum(terms, q: float) -> float:
    """sum w h(q/m), the slope of _loop_sum in ln q."""
    return sum(w * _loop_shape(q / m) for w, m, _ in terms)


def beta_total(alpha: float, q: float, model: BetaModel) -> float:
    """Q d alpha/dQ of the exact running: (2 alpha^2/3 pi) sum w_f h(Q/m_f)."""
    if not 0.0 < alpha < math.inf:
        raise ValidationError("alpha must be positive and finite")
    if not 0.0 <= q < math.inf:
        raise ValidationError("Q must be nonnegative and finite")
    return _QED_SLOPE * alpha * alpha * _shape_sum(
        [(float(sp.charge_weight), sp.mass, None) for sp in model.table], q)


def _log_grid(q_lo: float, q_hi: float, steps: int) -> list:
    """`steps` points (DEFAULT_SAMPLES when None) evenly spaced in ln Q from
    q_lo to q_hi, both ends exact; only q_hi when q_hi <= q_lo. The step
    count is checked first, so it is checked in that case too."""
    n = DEFAULT_SAMPLES if steps is None else steps
    if not 2 <= n <= MAX_SAMPLES:
        raise ValidationError(f"steps must lie in [2, {MAX_SAMPLES}]")
    if q_hi <= q_lo:
        return [q_hi]
    t_lo = math.log(q_lo)
    step = (math.log(q_hi) - t_lo) / (n - 1)
    grid = [q_lo, *(math.exp(t_lo + i * step) for i in range(1, n - 1)),
            q_hi]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValidationError(
            f"steps = {n} log-spaced values of Q from {q_lo!r} to {q_hi!r} "
            "GeV are not distinct; use fewer --steps or a wider range"
        )
    return grid


def _increasing_root(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi], with f(lo) < 0 <= f(hi).

    f(u) returns (value, slope). Newton steps start from lo; a step that
    would leave the shrinking bracket is replaced by bisection. Stops once
    a step is below _ROOT_TOL (relative to |u|, at least 1).
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
        if abs(nxt - u) <= _ROOT_TOL * max(1.0, abs(u)):
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
    grid = _log_grid(Q_START_GEV, q_max, steps)
    if q_max <= Q_START_GEV:
        # below every mass the coupling is frozen at the boundary value
        return CouplingCurve(((q_max, alpha0),))
    terms = [(float(sp.charge_weight), sp.mass,
              loop_integral(Q_START_GEV / sp.mass)) for sp in model.table]
    samples = []
    for q in grid:
        fall = _QED_SLOPE * _loop_sum(terms, q)
        denom = 1.0 - alpha0 * fall
        if denom <= 0.0:
            raise NumericsError(
                f"1/alpha reaches zero below Q = {q:.6g} GeV (Landau pole)"
            )
        samples.append((q, alpha0 / denom))
    return CouplingCurve(tuple(samples))


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
    light = [(float(sp.charge_weight), sp.mass) for sp in model.table
             if sp.name in ("u", "d", "s")]
    heavy = [(float(sp.charge_weight), sp.mass,
              loop_integral(Q_START_GEV / sp.mass)) for sp in model.table
             if sp.name not in ("u", "d", "s")]
    fixed = 1.0 / constants.alpha - _QED_SLOPE * _loop_sum(heavy, q_z)
    evaluations = 0

    def inverse_alpha(u):
        # 1/alpha(M_Z) and its u-derivative with the light masses scaled;
        # their reference H moves with u, and running them through _loop_sum
        # took `qed fit --target 128.89` from 9 evaluations to 7
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
