"""Upwind finite-difference WENO discretization of the transport term -v.grad_x f.

Each velocity node advects with its constant speed component, so upwinding is
a sign split per node: positive speeds take the left-biased interface value,
negative speeds the right-biased (mirrored) one. The conservative interface
difference telescopes, so periodic transport conserves mass to roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

# ideal (smooth-data) stencil weights d_l; stencil l reaches l cells left of center
IDEAL_WEIGHTS = {
    1: (1.0,),
    2: (2.0 / 3.0, 1.0 / 3.0),
    3: (3.0 / 10.0, 6.0 / 10.0, 1.0 / 10.0),
}

# regularization of the nonlinear weights d_l / (DELTA + beta_l)^2, inside the
# robust range [1e-7, 1e-5]
DELTA = 1e-6

_K1312 = 13.0 / 12.0

# values per block of transport lines (see transport_rhs)
_BLOCK_POINTS = 8192


@dataclass
class WenoConfig:
    k: int = 2

    def __post_init__(self):
        if self.k not in IDEAL_WEIGHTS:
            raise ConfigurationError(f"unsupported reconstruction order k={self.k}")


def _betas(k, P, n):
    """Smoothness indicators of the n windows P[i : i + 2k - 1] along axis 0.

    Window i is centered on P[i + k - 1]. Sub-expressions that the stencils
    share up to a shift are formed once over P and sliced.
    """
    if k == 1:
        return (np.zeros_like(P[:n]),)
    if k == 2:
        sq = (P[:-1] - P[1:]) ** 2
        return (sq[1 : n + 1], sq[:n])
    curv = _K1312 * (P[:-2] - 2 * P[1:-1] + P[2:]) ** 2
    P3, P4 = 3 * P, 4 * P
    b0 = curv[2 : n + 2] + 0.25 * (P3[2 : n + 2] - P4[3 : n + 3] + P[4 : n + 4]) ** 2
    b1 = curv[1 : n + 1] + 0.25 * (P[1 : n + 1] - P[3 : n + 3]) ** 2
    b2 = curv[:n] + 0.25 * (P[:n] - P4[1 : n + 1] + P3[2 : n + 2]) ** 2
    return (b0, b1, b2)


def _candidates(k, P, n):
    """Per-stencil values at the right edge of each window's center cell."""
    if k == 1:
        return (P[:n],)
    if k == 2:
        H = 0.5 * P
        return (H[1 : n + 1] + H[2 : n + 2], 1.5 * P[1 : n + 1] - H[:n])
    P2, P5 = 2 * P, 5 * P
    p0 = (P2[2 : n + 2] + P5[3 : n + 3] - P[4 : n + 4]) / 6.0
    p1 = (-P[1 : n + 1] + P5[2 : n + 2] + P2[3 : n + 3]) / 6.0
    p2 = (P2[:n] - 7 * P[1 : n + 1] + 11 * P[2 : n + 2]) / 6.0
    return (p0, p1, p2)


def _reconstruct_left(k, P, n):
    """Left-biased WENO values for the n windows P[i : i + 2k - 1]."""
    d = IDEAL_WEIGHTS[k]
    betas = _betas(k, P, n)
    alphas = [d[l] / (DELTA + betas[l]) ** 2 for l in range(k)]
    total = sum(alphas)
    ps = _candidates(k, P, n)
    return sum(a * p for a, p in zip(alphas, ps)) / total


def _pad(sub, k, boundary):
    if boundary == "periodic":
        return np.concatenate([sub[-k:], sub, sub[:k]], axis=0)
    lo = np.repeat(sub[:1], k, axis=0)
    hi = np.repeat(sub[-1:], k, axis=0)
    return np.concatenate([lo, sub, hi], axis=0)


def transport_rhs(field, cfg):
    """-v.grad_x f with upwind WENO interface fluxes, all spatial axes.

    A negative speed v is the speed |v| on the mirrored axis, and the
    right-biased reconstruction is the left-biased one of the mirrored
    window. So the negative-speed half is reversed along the transported
    axis and both halves go through one left-biased pass; sign flips are
    exact, so this is bit-for-bit the two-sided upwind scheme. Lines along
    the axis are independent and are reconstructed in blocks of about
    ``_BLOCK_POINTS`` values that keep the stencil temporaries in cache.
    """
    sg, vg = field.sgrid, field.vgrid
    if vg.dv < sg.dx_dims:
        raise ConfigurationError("velocity dimension must cover every transported axis")
    f = field.values
    out = np.zeros_like(f)
    for a in range(sg.dx_dims):
        if sg.counts[a] < 2 * cfg.k - 1:
            raise ConfigurationError(
                f"axis {a}: {sg.counts[a]} cells < stencil width {2 * cfg.k - 1}"
            )
        va = sg.dx_dims + a  # array axis of the matching velocity component
        speeds = vg.axes[a]
        n_neg = int(np.searchsorted(speeds, 0.0))
        h = sg.spacings[a]
        fa = np.moveaxis(f, a, 0)
        oa = np.moveaxis(out, a, 0)
        neg = tuple(slice(0, n_neg) if i == va else slice(None) for i in range(fa.ndim))
        pos = tuple(slice(n_neg, None) if i == va else slice(None) for i in range(fa.ndim))
        lines = np.concatenate([fa[neg][::-1], fa[pos]], axis=va)
        o_neg, o_pos = oa[neg][::-1], oa[pos]  # output views, laid out as lines
        w = np.abs(speeds).reshape([-1 if i == va else 1 for i in range(fa.ndim)])
        # blocks cut a transverse axis other than va (none in 1D/1V: one block)
        bax = next((i for i in range(1, fa.ndim) if i != va), None)
        n_b = 1 if bax is None else lines.shape[bax]
        step = max(1, _BLOCK_POINTS * n_b // lines.size)
        for j in range(0, n_b, step):
            blk = tuple(slice(j, j + step) if i == bax else slice(None) for i in range(fa.ndim))
            P = _pad(lines[blk], cfg.k, sg.boundaries[a])
            fhat = _reconstruct_left(cfg.k, P, P.shape[0] - 2 * cfg.k + 1)
            flux = w * (fhat[1:] - fhat[:-1]) / h
            o_neg[blk] -= flux[neg]
            o_pos[blk] -= flux[pos]
    return out
