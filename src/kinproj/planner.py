"""Step-size planning for projective and telescopic projective integration.

The inner step follows the fastest collisional decay rate (epsilon over the
peak collision frequency), the outer step follows the transport CFL limit,
and the extrapolation factors fill the gap, spread geometrically over one or
more nesting levels with the coarsest level absorbing the residual. Every
plan is built by `plan_from_factors` from its inner step, K and factors.
"""

import math

from .errors import ConfigurationError, InfeasiblePlanError
from .integrators import FORWARD_EULER, IntegratorPlan


def plan_levels(h0, h_target, factor):
    """Levels needed so factor^L spans h_target/h0 (round half up, minimum 1)."""
    if not (h0 > 0 and h_target > 0):
        raise ConfigurationError("step sizes must be positive")
    if not factor > 1:
        raise ConfigurationError(f"representative factor must exceed 1, got {factor}")
    if h_target <= h0:
        return 0
    raw = math.log(h_target / h0) / math.log(factor)
    return max(1, math.floor(raw + 0.5))


def adapt_M(h0, h_target, K, levels):
    """Extrapolation factors per level whose product lands exactly on h_target.

    Levels 0..L-2 take the uniform geometric factor (h_target/h0)^(1/L); the
    coarsest level is then solved from the product constraint, so rounding is
    absorbed there (deterministic: coarsest level perturbed first).
    """
    if levels != int(levels) or levels < 1:
        raise ConfigurationError(f"levels must be a positive integer, got {levels}")
    levels = int(levels)
    if K != int(K) or K < 0:
        raise ConfigurationError(f"K must be a nonnegative integer, got {K}")
    K = int(K)
    if not (h0 > 0 and h_target > 0):
        raise ConfigurationError("step sizes must be positive")
    ratio = h_target / h0
    if ratio < 1.0:
        raise InfeasiblePlanError(f"target step {h_target} is below the inner step {h0}")
    phi = ratio ** (1.0 / levels)
    if phi < (K + 1) * (1.0 - 1e-12):
        raise InfeasiblePlanError(
            f"uniform factor {phi} is below K+1 = {K + 1}; no nonnegative extrapolation exists"
        )
    ms = [max(0.0, phi - (K + 1)) for _ in range(levels - 1)]
    prod = 1.0
    for m in ms:
        prod *= m + K + 1
    m_last = ratio / prod - (K + 1)
    if m_last < 0.0:
        if m_last < -1e-9:
            raise InfeasiblePlanError(
                f"coarsest level would need M = {m_last}; layout infeasible"
            )
        m_last = 0.0
    ms.append(m_last)
    return tuple(ms)


def plan_from_factors(h0, K, M, outer_tableau=FORWARD_EULER):
    """Validated plan with h[l+1] = (M[l] + K + 1) * h[l]; M = () is plain stepping."""
    h = [h0]
    for m in M:
        h.append((m + K + 1) * h[-1])
    return IntegratorPlan(h, (K,) * len(M), M, outer_tableau)


def speedup(plan):
    """Work ratio vs plain inner stepping: prod (M_l + K_l + 1) / (K_l + 1)."""
    s = 1.0
    for l in range(plan.levels):
        s *= (plan.M[l] + plan.K[l] + 1.0) / (plan.K[l] + 1.0)
    return s
