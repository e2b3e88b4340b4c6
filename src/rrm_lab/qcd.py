"""Strong-coupling running: the standard one-loop scale scheme, the
mu-anchored solution and its inversion, a quark-mass-retaining evolution
model, and hadronization-threshold arithmetic.

The mass-retaining beta keeps every quark's loop factor alive instead of
truncating to an active-flavor count:

    Q d alpha_s / dQ = -(alpha_s^2 / 2 pi) [ 11 - (2/3) sum_q F(Q, m_q) ]

with F the same fermion-loop shape as in the electromagnetic beta
(F -> 1 for Q >> m, F -> Q^2/5m^2 for Q << m). The quark sums are qed's
_loop_sum (the running, reintegrated with the loop function H) and
_shape_sum (its slope), each quark with weight 1. The model's probed
flavor is only checked to be a quark; the beta always sums all quarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import (
    DEFAULT_CONSTANTS,
    ParticleTable,
    PhysicalConstants,
    _log_ratio,
)
from .errors import NumericsError, ValidationError

HBARC_GEV_FM = 0.19733        # hbar c in GeV fm

# evolution guard: report blow-up once the coupling passes 4 pi
ALPHA_S_GUARD = 4.0 * math.pi


@dataclass(frozen=True)
class QcdScheme:
    n_f: int
    lambda_gev: float

    def __post_init__(self):
        beta0_for(self.n_f)       # checks n_f
        if not 0.0 < self.lambda_gev < math.inf:
            raise ValidationError("lambda must be positive and finite")


def beta0_for(n_f: int) -> float:
    if not 3 <= n_f <= 6:
        raise ValidationError("n_f must lie in [3, 6]")
    return 11.0 - 2.0 * n_f / 3.0


def make_scheme(n_f: int, lambda_gev: float) -> QcdScheme:
    return QcdScheme(n_f=n_f, lambda_gev=lambda_gev)


@dataclass(frozen=True)
class MassiveQcdModel:
    table: ParticleTable          # quarks drive the beta; leptons ignored
    alpha_s_mz: float
    flavor: str

    def __post_init__(self):
        if not 0.0 < self.alpha_s_mz < 1.0:
            raise ValidationError("alpha_s anchor must lie in (0, 1)")
        names = {s.name for s in self.table.quarks()}
        if self.flavor not in names:
            raise ValidationError(
                f"flavor '{self.flavor}' not among quarks {sorted(names)}"
            )


@dataclass(frozen=True)
class ThresholdEstimate:
    lambda_i: float       # GeV
    alpha_max: float
    length_scale: float   # fm
    energy: float         # GeV


@dataclass(frozen=True)
class MassiveEvolution:
    curve: CouplingCurve
    lambda_peak: float    # None: the massive curve has no interior maximum
    alpha_max: float      # None: the massive curve has no interior maximum


def lambda_qcd(alpha_s_mz: float, n_f: int,
               constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Divergence scale of the one-loop coupling anchored at the Z mass."""
    if not 0.0 < alpha_s_mz < 1.0:
        raise ValidationError("alpha_s(M_Z) must lie in (0, 1)")
    return constants.m_z_strong * math.exp(
        -2.0 * math.pi / (alpha_s_mz * beta0_for(n_f))
    )


def alpha_s_lambda(q: float, scheme: QcdScheme) -> float:
    """One-loop coupling in the scale form, 2 pi / (beta0 ln(Q/Lambda))."""
    if not math.isfinite(q):
        raise ValidationError("Q must be finite")
    if q <= scheme.lambda_gev:
        raise NumericsError(
            f"coupling diverges at and below Lambda = "
            f"{scheme.lambda_gev:.6g} GeV (infrared confinement)"
        )
    return 2.0 * math.pi / (beta0_for(scheme.n_f)
                            * _log_ratio(q, scheme.lambda_gev))


def alpha_s_mu(q: float, mu: float, alpha_mu: float, n_f: int) -> float:
    """One-loop coupling anchored at (mu, alpha_mu)."""
    if not (0.0 < q < math.inf and 0.0 < mu < math.inf):
        raise ValidationError("Q and mu must be positive and finite")
    if not 0.0 < alpha_mu < math.inf:
        raise ValidationError("alpha_s(mu) must be positive and finite")
    denom = 1.0 + alpha_mu * (beta0_for(n_f) / (2.0 * math.pi)) \
        * _log_ratio(q, mu)
    if denom <= 0.0:
        raise NumericsError(
            f"pole crossed: anchored form has nonpositive denominator "
            f"{denom:.6g} at Q = {q:.6g} GeV"
        )
    return alpha_mu / denom


def evolve_alpha_s_massive(model: MassiveQcdModel, q_min: float,
                           steps: int = None,
                           constants: PhysicalConstants = DEFAULT_CONSTANTS
                           ) -> MassiveEvolution:
    """Run alpha_s down from the Z-mass anchor to q_min, exactly.

    Integrating the beta once in ln Q with the loop function H gives

        1/alpha_s(Q) = 1/alpha_s(M_Z) + (1/2 pi) [11 ln(Q/M_Z)
                       - (2/3) sum_q (H(Q/m_q) - H(M_Z/m_q))].

    The curve holds `steps` log-spaced samples from q_min to M_Z (qed's
    DEFAULT_SAMPLES when None), ascending in Q. If the coupling passes
    4 pi above q_min, the error names the Q where it does. The bracket
    11 - (2/3) sum_q h is at least 7, so alpha_s falls monotonically in Q
    and lambda_peak/alpha_max are always None.
    """
    # the loop kernels live in qed; only this evolution loads them
    from .qed import (
        CouplingCurve,
        _increasing_root,
        _log_grid,
        _loop_sum,
        _shape_sum,
        loop_integral,
    )
    if not q_min > 0:
        raise ValidationError("q_min must be positive")
    m_z = constants.m_z_strong
    if q_min >= m_z:
        raise ValidationError("q_min must lie below the Z mass anchor")
    grid = _log_grid(q_min, m_z, steps)    # a bad count is input, not numerics
    anchor = model.alpha_s_mz
    # every quark loop with weight 1, its H fixed at the anchor
    quarks = [(1.0, sp.mass, loop_integral(m_z / sp.mass))
              for sp in model.table.quarks()]
    rate = anchor / (2.0 * math.pi)

    def denominator(q):
        # alpha_s(Q) = anchor / denominator(Q); exactly 1 at the anchor
        return 1.0 + rate * (11.0 * _log_ratio(q, m_z)
                             - (2.0 / 3.0) * _loop_sum(quarks, q))

    floor = anchor / ALPHA_S_GUARD      # denominator where alpha_s = 4 pi
    if denominator(q_min) < floor:
        def excess(t):
            # denominator rises with ln Q at rate * (11 - (2/3) sum h) > 0
            q = math.exp(t)
            slope = rate * (11.0 - (2.0 / 3.0) * _shape_sum(quarks, q))
            return denominator(q) - floor, slope
        last_q = math.exp(_increasing_root(excess, math.log(q_min),
                                           math.log(m_z)))
        raise NumericsError(
            f"coupling exceeded 4 pi before reaching q_min; last valid "
            f"Q = {last_q:.12g} GeV"
        )
    samples = tuple((q, anchor / denominator(q)) for q in grid)
    return MassiveEvolution(curve=CouplingCurve(samples), lambda_peak=None,
                            alpha_max=None)


def hadronization_threshold(lambda_i: float, alpha_max: float
                            ) -> ThresholdEstimate:
    """Length and energy scales from a divergence scale and a peak coupling.

    length = hbar c / Lambda in fm; energy = alpha_max * Lambda, both exact
    products of the inputs.
    """
    if not (0.0 < lambda_i < math.inf and 0.0 < alpha_max < math.inf):
        raise ValidationError(
            "lambda_i and alpha_max must be positive and finite")
    return ThresholdEstimate(
        lambda_i=lambda_i,
        alpha_max=alpha_max,
        length_scale=HBARC_GEV_FM / lambda_i,
        energy=alpha_max * lambda_i,
    )
