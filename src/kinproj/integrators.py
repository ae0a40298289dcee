"""Projective and telescopic projective explicit time integrators.

A projective step damps the stiff transient with K+1 inner forward-Euler
steps of size h0, then extrapolates the chord of the last inner pair across
the remaining outer interval. The telescopic variant nests that construction:
a level-l step is K+1 level-(l-1) steps plus a chord extrapolation, with
forward Euler at level 0. The outermost level may carry an explicit
Runge-Kutta tableau whose stage slopes are chords of damped inner sweeps.
"""

import numpy as np

from .collision_bgk import BgkConfig, bgk_rhs
from .collision_boltzmann import boltzmann_rhs
from .errors import ConfigurationError, StepRejectionError
from .phase_space import DistributionField
from .transport_weno import IDEAL_WEIGHTS, transport_rhs


class RKTableau:
    """Explicit Runge-Kutta tableau (a strictly lower triangular)."""

    def __init__(self, a, b, c):
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float)
        s = self.b.size
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ConfigurationError("tableau arrays have inconsistent shapes")
        if np.any(np.triu(self.a) != 0.0):
            raise ConfigurationError("tableau must be explicit (strictly lower triangular)")
        if abs(self.b.sum() - 1.0) > 1e-12:
            raise ConfigurationError("tableau weights b must sum to 1")
        if np.abs(self.a.sum(axis=1) - self.c).max() > 1e-12:
            raise ConfigurationError("tableau row sums must equal the nodes c")
        if self.c[0] != 0.0:
            raise ConfigurationError("the first stage must sit at c = 0")
        if np.any(self.c[1:] == 0.0):
            # projective stage seeding divides by c_s
            raise ConfigurationError("stages with c = 0 beyond the first are not supported")
        if np.any(self.c < 0.0) or np.any(self.c > 1.0) or np.any(self.b < 0.0):
            raise ConfigurationError("tableau nodes and weights must lie in [0, 1]")
        self.stages = s


FORWARD_EULER = RKTableau([[0.0]], [1.0], [0.0])
CLASSIC_RK4 = RKTableau(
    [
        [0.0, 0.0, 0.0, 0.0],
        [0.5, 0.0, 0.0, 0.0],
        [0.0, 0.5, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ],
    [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    [0.0, 0.5, 0.5, 1.0],
)


def _ensure_finite(values):
    arr = np.asarray(values)
    if np.isfinite(arr.sum()):
        return
    bad = np.argwhere(~np.isfinite(arr))
    if bad.size:
        idx = tuple(int(i) for i in bad[0])
        raise StepRejectionError(f"non-finite right-hand side at state index {idx}", index=idx)
    raise StepRejectionError("non-finite reduction over right-hand side")


def _rk(slope, state, h, lead, tableau):
    """One explicit Runge-Kutta step of size h: the one stage loop.

    slope(y) returns (end, k), the state its evaluation reached and the slope
    there; base is the first stage's end. Stage s starts at
    base + (c_s*h - lead) * sum_l (a_{s,l}/c_s) k_l and the step ends at
    base + (h - lead) * sum_s b_s k_s, adding one term at a time. A plain step
    has lead = 0, end = y and k = rhs(y); a projective stage takes k as the
    chord of a damped sweep of length lead.

    Each slope is a new array that the loop owns. A stage start is summed
    in place in its first term, and the step's sum moves through the
    weighted slopes, each scaled and added to in its own memory after its
    last use, so the result is the last of them. The states handed to
    slope are never written to. Every product and sum is the one the
    formulas above spell out, in their order (a + b is formed as b + a).

    Ending in the newest slope keeps the top of the heap in use: summing
    into the first slope instead let the allocator give back the memory
    above it after every step and fault it in again on the next, 3.5 times
    the minor faults of the bubble2d_bgk benchmark.
    """
    base, k = slope(state)
    slopes = [k]
    for s in range(1, tableau.stages):
        c = tableau.c[s]
        terms = ((w / c) * kl for w, kl in zip(tableau.a[s], slopes) if w != 0.0)
        y = next(terms)
        for t in terms:
            y += t
        y *= c * h - lead
        y += base
        slopes.append(slope(y)[1])
    out = base
    for w, k in zip(tableau.b, slopes):
        if w != 0.0:
            k *= (h - lead) * w
            k += out
            out = k
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

    K[l] counts the inner steps (minus the seed step) and M[l] the chord
    extrapolation factor used to jump the rest of a level-(l+1) step. M is
    real-valued. levels = len(M); zero levels is plain tableau stepping with h0.
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


def _damped_sweep(rhs, state, plan, level, counts):
    """K[level]+1 steps at `level`; returns (last state, last chord slope)."""
    prev = state
    cur = state
    for _ in range(plan.K[level] + 1):
        prev = cur
        cur = _level_step(rhs, cur, plan, level, counts)
    chord = cur - prev
    chord /= plan.h[level]
    return cur, chord


def _level_step(rhs, state, plan, level, counts):
    """One step of size plan.h[level]; inner levels extrapolate the chord."""
    counts[level] += 1
    if level == 0:
        return rk_step(rhs, state, plan.h[0], FORWARD_EULER)
    cur, chord = _damped_sweep(rhs, state, plan, level - 1, counts)
    chord *= plan.M[level - 1] * plan.h[level - 1]
    chord += cur
    return chord


def telescopic_step(rhs, state, plan, counts=None, h=None):
    """One outermost step of size h (default plan.h[-1]), applying the plan's tableau.

    Each stage runs a damped sweep of K+1 steps one level down and takes its
    chord as the stage slope; `_rk` combines them with lead = (K+1)*h_in, so
    the extrapolation covers the rest of the outer step (projective
    Runge-Kutta, Lafitte, Lejon and Samaey 2016). A shorter h, at least the
    sweep, lands a leftover; M[-1] is never read.

    counts, if given, is a list indexed by level (innermost first) that gains
    one for every step started at that level, so a rejected step is counted.
    """
    L = plan.levels
    tb = plan.outer_tableau
    h = plan.h[-1] if h is None else h
    if counts is None:
        counts = [0] * (L + 1)
    counts[L] += 1
    if L == 0:
        return rk_step(rhs, state, h, tb)
    lead = (plan.K[L - 1] + 1) * plan.h[L - 1]
    return _rk(lambda y: _damped_sweep(rhs, y, plan, L - 1, counts),
               state, h, lead, tb)


def rhs_total(field, weno_k, collision, work):
    """Semidiscrete right-hand side: the collision term minus v . grad_x f.

    weno_k is the WENO order index, or None for no transport. collision is a
    BgkConfig or a (SpectralPlan, epsilon) pair. work is the dict of
    transport work buffers (see transport_weno). The collision term is a
    new array, and the transport subtracts its fluxes from it in place.
    """
    if isinstance(collision, BgkConfig):
        out = bgk_rhs(field, collision)
    else:
        plan, epsilon = collision
        out = boltzmann_rhs(field, plan, epsilon)
    if weno_k is not None:
        transport_rhs(field, weno_k, work, out)
    return out


def make_rhs(sgrid, vgrid, weno_k, collision):
    """Bind grids and operators into an array -> array RHS (see rhs_total),
    checking once that the transport stencil fits the grids.

    The closure owns the transport work buffers and the grid layout and
    reuses them on every call, so use one closure per thread; each call
    returns a new array.
    """
    if weno_k is not None:
        if weno_k not in IDEAL_WEIGHTS:
            raise ConfigurationError(f"unsupported reconstruction order k={weno_k}")
        if vgrid.dv < sgrid.dx_dims:
            raise ConfigurationError("velocity dimension must cover every transported axis")
        for a, n in enumerate(sgrid.counts):
            if n < 2 * weno_k - 1:
                raise ConfigurationError(f"axis {a}: {n} cells < stencil width {2 * weno_k - 1}")
    work = {}

    def rhs(values):
        return rhs_total(DistributionField(values, sgrid, vgrid), weno_k, collision, work)

    return rhs
