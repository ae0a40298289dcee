"""Step-size planning for projective and telescopic projective integration.

The inner step is epsilon for every collision model, whatever its peak
collision frequency (`scenarios_cli.resolve_run`), the outer step follows the
transport CFL limit, and the extrapolation factors fill the gap, spread
geometrically over one or more nesting levels with the coarsest level
absorbing the residual. No spectrum is read; planning from the collision
spectrum is ROADMAP.md item 3.
`integrators.IntegratorPlan(h0, K, M, tableau)` builds the ladder itself.
"""

import math

from .errors import ConfigurationError, InfeasiblePlanError


def plan_levels(h0, h_target, factor):
    """Levels so factor^L spans h_target/h0: rounded half up and at least 1,
    or 0 when h_target <= h0."""
    if not (0 < h0 < math.inf and 0 < h_target < math.inf):
        raise ConfigurationError("step sizes must be positive and finite")
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


def speedup(plan):
    """Work ratio vs plain inner stepping: prod (M_l + K_l + 1) / (K_l + 1)."""
    s = 1.0
    for l in range(plan.levels):
        s *= (plan.M[l] + plan.K[l] + 1.0) / (plan.K[l] + 1.0)
    return s
