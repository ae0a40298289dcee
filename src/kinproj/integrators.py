"""Projective and telescopic projective explicit time integrators.

A projective step damps the stiff transient with K+1 inner forward-Euler
steps of size h0, then extrapolates the chord of the last inner pair across
the remaining outer interval. The telescopic variant nests that construction
with one step at every level: a level-l step is a tableau step whose stage
slopes are chords of K+1 level-(l-1) steps, and at level 0 a plain one.
Inner levels use forward Euler, the outermost may carry an explicit
Runge-Kutta tableau, and M only sets the step ratios.
"""

import numpy as np

from .collision_bgk import bgk_rhs
from .collision_boltzmann import SpectralPlan, boltzmann_rhs
from .errors import ConfigurationError, StepRejectionError
from .phase_space import DistributionField
from .transport_weno import bind, transport_rhs


class RKTableau:
    """Explicit Runge-Kutta tableau (a strictly lower triangular); the nodes
    c are the row sums of a, so the first is 0."""

    def __init__(self, a, b):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        s = self.b.size
        if self.a.shape != (s, s):
            raise ConfigurationError("tableau arrays have inconsistent shapes")
        if np.any(np.triu(self.a) != 0.0):
            raise ConfigurationError("tableau must be explicit (strictly lower triangular)")
        if abs(self.b.sum() - 1.0) > 1e-12:
            raise ConfigurationError("tableau weights b must sum to 1")
        self.c = self.a.sum(axis=1)
        if np.any(self.c[1:] == 0.0):
            # projective stage seeding divides by c_s
            raise ConfigurationError("stages with c = 0 beyond the first are not supported")
        if np.any(self.c < 0.0) or np.any(self.c > 1.0) or np.any(self.b < 0.0):
            raise ConfigurationError("tableau nodes and weights must lie in [0, 1]")
        self.stages = s


FORWARD_EULER = RKTableau([[0.0]], [1.0])
CLASSIC_RK4 = RKTableau(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
)


def _ensure_finite(values):
    arr = np.asarray(values)
    with np.errstate(over="ignore", invalid="ignore"):  # a finite sum clears every entry
        if np.isfinite(arr.sum()):
            return
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise StepRejectionError(f"non-finite right-hand side at state index {idx}", index=idx)


def _rk(slope, state, h, lead, tableau):
    """One explicit Runge-Kutta step of size h: the one stage loop.

    slope(y) returns (end, k), the state its evaluation reached and the slope
    there; base is the first stage's end. Stage s starts at
    base + (c_s*h - lead) * sum_l (a_{s,l}/c_s) k_l and the step ends at
    base + (h - lead) * sum_s b_s k_s, adding one term at a time. A plain step
    has lead = 0, end = y and k = rhs(y); a projective stage takes k as the
    chord of a damped sweep of length lead.

    Each slope is a new array that the loop owns, retired at its last use:
    right after the last stage start that reads it (its last nonzero
    a_{s,l}), and after every lower slope, it is scaled and added to in its
    own memory and becomes the running sum, or is dropped when b_l = 0. So
    every product and sum is the one the formulas above spell out, in their
    order (a + b is formed as b + a), the sum ends in the newest slope's
    memory, and a classic RK4 step holds only the base, the running sum and
    one stage start while a slope is evaluated. A stage start is summed in
    place in its first term. The states handed to slope are never written to.
    """
    slopes = {}  # index -> slope, for the slopes not yet retired
    base, slopes[0] = slope(state)
    out = base
    for s in range(1, tableau.stages):
        c = tableau.c[s]
        terms = ((w / c) * slopes[l] for l, w in enumerate(tableau.a[s, :s]) if w != 0.0)
        y = next(terms)
        for t in terms:
            y += t
        y *= c * h - lead
        y += base
        out = _retire(slopes, tableau.a[s + 1 :], tableau.b, h - lead, out)
        slopes[s] = slope(y)[1]
        del y  # freed before the next stage start is formed
    return _retire(slopes, tableau.a[tableau.stages :], tableau.b, h - lead, out)


def _retire(slopes, readers, b, span, out):
    """Add span * b_l * k_l to the sum out for each slope l, in ascending
    order, until one that a row of readers reads; returns the new sum.

    A retired slope leaves slopes, its memory holding the sum (or freed
    when b_l = 0).
    """
    for l in list(slopes):
        if readers[:, l].any():
            break
        if b[l] != 0.0:
            slopes[l] *= span * b[l]
            slopes[l] += out
            out = slopes[l]
        del slopes[l]
    return out


def rk_step(rhs, state, h, tableau):
    """One explicit Runge-Kutta step of size h with the given tableau.

    rhs must return a new array (or a scalar) on every call: the step
    forms its sums in the results' memory.
    """
    if not h > 0:
        raise ConfigurationError(f"step size must be positive, got {h}")

    def slope(y):
        k = rhs(y)
        _ensure_finite(k)
        return y, k

    return _rk(slope, state, h, 0.0, tableau)


class IntegratorPlan:
    """Nested step-size ladder h[l+1] = (M[l] + K[l] + 1) * h[l] from h[0] = h0.

    A level-(l+1) step's stage slopes are chords of K[l]+1 damped level-l
    steps; M[l] only sets the step ratio, so the stepping reads h and K.
    M is real-valued. levels = len(M); zero levels is plain tableau stepping
    with h0.
    """

    def __init__(self, h0, K, M, outer_tableau=FORWARD_EULER):
        if any(k != int(k) or k < 0 for k in K):
            raise ConfigurationError(f"inner-step counts must be integers >= 0, got {K}")
        self.K = tuple(int(k) for k in K)
        self.M = tuple(float(m) for m in M)
        self.levels = len(self.M)
        if len(self.K) != self.levels:
            raise ConfigurationError("K and M must have one entry per level")
        if any(m < 0 for m in self.M):
            raise ConfigurationError(f"extrapolation factors must be >= 0, got {self.M}")
        h = [float(h0)]
        for k, m in zip(self.K, self.M):
            h.append((m + k + 1) * h[-1])
        self.h = tuple(h)
        if any(not 0 < x < np.inf for x in self.h):
            raise ConfigurationError(f"step sizes must be positive and finite, got {self.h}")
        self.outer_tableau = outer_tableau


def _step(rhs, state, plan, level, counts, h, tableau):
    """One step of size h at `level`: a plain tableau step at level 0, else
    `_rk` on the chords of damped sweeps one level down, lead = (K+1)*h_in."""
    counts[level] += 1
    if level == 0:
        return rk_step(rhs, state, h, tableau)
    lead = (plan.K[level - 1] + 1) * plan.h[level - 1]
    if not h >= lead:
        raise ConfigurationError(f"step size {h} is shorter than its damping sweep {lead}")
    return _rk(lambda y: _damped_sweep(rhs, y, plan, level - 1, counts), state, h, lead, tableau)


def _damped_sweep(rhs, state, plan, level, counts):
    """K[level]+1 forward-Euler steps at `level`; returns (last state, last chord slope)."""
    cur = state
    for _ in range(plan.K[level] + 1):
        prev = cur
        cur = _step(rhs, cur, plan, level, counts, plan.h[level], FORWARD_EULER)
    if plan.K[level] >= 1 and isinstance(prev, np.ndarray):
        # prev is a state the sweep made and is done with
        chord = np.subtract(cur, prev, out=prev)
    else:
        chord = cur - prev
    chord /= plan.h[level]
    return cur, chord


def telescopic_step(rhs, state, plan, counts=None, h=None):
    """One outermost step of size h (default plan.h[-1]) with the plan's tableau.

    Each stage's slope is the chord of a damped sweep of K+1 steps one level
    down, extrapolated across the rest of the step (projective Runge-Kutta,
    Lafitte, Lejon and Samaey 2016); each inner level takes the same step
    with forward Euler. A shorter h lands a leftover; h must be at least
    the top damping sweep.

    counts, if given, is a list indexed by level (innermost first) that gains
    one for every step started at that level, so a rejected step is counted.
    rhs must return a new array on every call, and a state the step hands
    to rhs may later hold a chord, so an rhs that keeps its input copies it.
    """
    if counts is None:
        counts = [0] * (plan.levels + 1)
    return _step(rhs, state, plan, plan.levels, counts,
                 plan.h[-1] if h is None else h, plan.outer_tableau)


def rhs_total(field, transport, collision):
    """Semidiscrete right-hand side: the collision term minus v . grad_x f.

    transport is the bound WENO transport (transport_weno.bind), or None for
    none. collision is a (term, epsilon) pair: term is a SpectralPlan for the
    spectral Boltzmann term, else a BGK term's name ("bgk" or "bgk-rho"). The
    collision term is a new array, and the transport subtracts its fluxes
    from it in place.
    """
    term, epsilon = collision
    if isinstance(term, SpectralPlan):
        out = boltzmann_rhs(field, term, epsilon)
    else:
        out = bgk_rhs(field, term, epsilon)
    if transport is not None:
        transport_rhs(field, transport, out)
    return out


def make_rhs(sgrid, vgrid, weno_k, collision):
    """Bind grids and operators into an array -> array RHS (see rhs_total).

    collision is the (term, epsilon) pair rhs_total takes, for every model.
    weno_k is the WENO order index, or None for no transport; the transport
    is bound to the grids once, which rejects grids its stencil does not fit.
    The closure reuses the transport's work buffers on every call, so use
    one closure per thread; each call returns a new array.
    """
    transport = None if weno_k is None else bind(sgrid, vgrid, weno_k)

    def rhs(values):
        return rhs_total(DistributionField(values, sgrid, vgrid), transport, collision)

    return rhs
