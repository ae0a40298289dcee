"""Upwind finite-difference WENO discretization of the transport term -v.grad_x f.

Each velocity node advects with its constant speed component, so upwinding is
a sign split per node: positive speeds take the left-biased interface value,
negative speeds the right-biased (mirrored) one. The conservative interface
difference telescopes, so periodic transport conserves mass to roundoff.
The scheme fits grids with a velocity component for every spatial axis and
at least 2k - 1 cells on each, k a key of IDEAL_WEIGHTS (`check_stencil`).

The padded lines, smoothness indicators, weights, candidates and fluxes live
in work buffers of one block's size, kept in a plain dict that the caller
owns and passes to every call: `integrators.make_rhs` makes one per RHS
closure, so a closure is not safe to share between threads. Buffers are
keyed by name and shape, so each axis and a ragged last block get their own.
Reusing them keeps the memory warm from one call to the next instead of
returning it to the operating system and faulting it in again. The same dict
keeps the per-axis layout of the grids (index tuples, block slices, |v| at
each block's shape), built on the first call. The fluxes are subtracted from
the caller's output array, or from a new one: Runge-Kutta stages keep earlier
slopes and the Jacobian probe subtracts two consecutive results, so the
output must never alias a buffer. Every operation runs in the order of the
plain array formulas in the comments, so the result is the same bit for bit.

The buffers and |v| arrays start on a 64-byte boundary (`empty_aligned`).
numpy starts arrays of 8,192 values and more 16 or 48 bytes past one, and
there a subtract or multiply into a third array took 5.1-5.3 against 3.0 us
for 8,192 values, and 15.5-16.3 against 6.8 us for 25,600 (AVX-512 Xeon,
numpy 2.4); in-place ops and divides lose little. The right-hand sides stay
plain arrays: 64 bytes larger than the stepping's own arrays of that size,
they fragmented the heap and added 5 MiB to the peak memory of some runs.
"""

import math

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

# values per block of transport lines (see transport_rhs). With aligned buffers,
# 4,096 / 16,384 beat 8,192 in 1-3 / 7 of 10 alternating pairs of calls on the
# bubble2d_bgk grid and in 3-4 / 1-4 on the dsod2d_spectral grid: 8,192 stays.
_BLOCK_POINTS = 8192


def check_stencil(sgrid, vgrid, k):
    """Reject grids that the order-k scheme does not fit; `integrators.make_rhs`
    calls this once per closure."""
    if k not in IDEAL_WEIGHTS:
        raise ConfigurationError(f"unsupported reconstruction order k={k}")
    if vgrid.dv < sgrid.dx_dims:
        raise ConfigurationError("velocity dimension must cover every transported axis")
    for a, n in enumerate(sgrid.counts):
        if n < 2 * k - 1:
            raise ConfigurationError(f"axis {a}: {n} cells < stencil width {2 * k - 1}")


def empty_aligned(shape):
    """A new float64 array of this shape tuple on a 64-byte boundary: a view
    into a larger np.empty, as in pyfftw."""
    raw = np.empty(8 * math.prod(shape) + 64, dtype=np.uint8)
    return raw[-raw.ctypes.data % 64 :][: raw.size - 64].view(np.float64).reshape(shape)


def _buf(work, name, shape):
    """The work array `name` of this shape, allocated on first use."""
    arr = work.get((name, shape))
    if arr is None:
        arr = work[(name, shape)] = empty_aligned(shape)
    return arr


def _betas(k, P, n, work):
    """Smoothness indicators of the n windows P[i : i + 2k - 1] along axis 0.

    Window i is centered on P[i + k - 1]. Sub-expressions that the stencils
    share up to a shift are formed once over P and sliced. The results are
    work buffers, overwritten by the next call.
    """
    shape = (n,) + P.shape[1:]
    if k == 1:
        b = _buf(work, "b0", shape)
        b.fill(0.0)
        return (b,)
    if k == 2:
        sq = _buf(work, "sq", (n + 1,) + P.shape[1:])
        np.subtract(P[: n + 1], P[1 : n + 2], out=sq)
        np.square(sq, out=sq)
        return (sq[1 : n + 1], sq[:n])
    # curv = 13/12 (P[i] - 2 P[i+1] + P[i+2])^2
    curv = _buf(work, "curv", (n + 2,) + P.shape[1:])
    np.multiply(2, P[1 : n + 3], out=curv)
    np.subtract(P[: n + 2], curv, out=curv)
    np.add(curv, P[2 : n + 4], out=curv)
    np.square(curv, out=curv)
    np.multiply(_K1312, curv, out=curv)
    P3 = np.multiply(3, P, out=_buf(work, "P3", P.shape))
    P4 = np.multiply(4, P, out=_buf(work, "P4", P.shape))
    b0, b1, b2 = (_buf(work, f"b{l}", shape) for l in range(3))
    # b0 = curv[2:] + 1/4 (3 P[2:] - 4 P[3:] + P[4:])^2
    np.subtract(P3[2 : n + 2], P4[3 : n + 3], out=b0)
    np.add(b0, P[4 : n + 4], out=b0)
    # b1 = curv[1:] + 1/4 (P[1:] - P[3:])^2
    np.subtract(P[1 : n + 1], P[3 : n + 3], out=b1)
    # b2 = curv + 1/4 (P - 4 P[1:] + 3 P[2:])^2
    np.subtract(P[:n], P4[1 : n + 1], out=b2)
    np.add(b2, P3[2 : n + 2], out=b2)
    for b, c in ((b0, 2), (b1, 1), (b2, 0)):
        np.square(b, out=b)
        np.multiply(0.25, b, out=b)
        np.add(curv[c : c + n], b, out=b)
    return (b0, b1, b2)


def _candidates(k, P, n, work):
    """Per-stencil values at the right edge of each window's center cell."""
    if k == 1:
        return (P[:n],)
    shape = (n,) + P.shape[1:]
    if k == 2:
        half = _buf(work, "half", (n + 2,) + P.shape[1:])
        np.multiply(0.5, P[: n + 2], out=half)
        p0, p1 = _buf(work, "p0", shape), _buf(work, "p1", shape)
        np.add(half[1 : n + 1], half[2 : n + 2], out=p0)
        np.multiply(1.5, P[1 : n + 1], out=p1)
        np.subtract(p1, half[:n], out=p1)
        return (p0, p1)
    P2 = np.multiply(2, P, out=_buf(work, "P2", P.shape))
    P5 = np.multiply(5, P, out=_buf(work, "P5", P.shape))
    u = _buf(work, "u", shape)
    p0, p1, p2 = (_buf(work, f"p{l}", shape) for l in range(3))
    # p0 = (2 P[2:] + 5 P[3:] - P[4:]) / 6
    np.add(P2[2 : n + 2], P5[3 : n + 3], out=p0)
    np.subtract(p0, P[4 : n + 4], out=p0)
    # p1 = (-P[1:] + 5 P[2:] + 2 P[3:]) / 6; b - a is bitwise (-a) + b
    np.subtract(P5[2 : n + 2], P[1 : n + 1], out=p1)
    np.add(p1, P2[3 : n + 3], out=p1)
    # p2 = (2 P - 7 P[1:] + 11 P[2:]) / 6
    np.multiply(7, P[1 : n + 1], out=u)
    np.subtract(P2[:n], u, out=p2)
    np.multiply(11, P[2 : n + 2], out=u)
    np.add(p2, u, out=p2)
    for p in (p0, p1, p2):
        np.divide(p, 6.0, out=p)
    return (p0, p1, p2)


def _reconstruct_left(k, P, n, work):
    """Left-biased WENO values for the n windows P[i : i + 2k - 1].

    The result is a work buffer, overwritten by the next call.
    """
    d = IDEAL_WEIGHTS[k]
    betas = _betas(k, P, n, work)
    shape = betas[0].shape
    # (DELTA + beta_l)^2 in the betas' memory, then d_l / (DELTA + beta_l)^2;
    # the WENO3 betas are row shifts of the n + 1 rows of "sq", squared once
    for b in (_buf(work, "sq", (n + 1,) + shape[1:]),) if k == 2 else betas:
        np.add(DELTA, b, out=b)
        np.square(b, out=b)
    alphas = [np.divide(d[l], b, out=_buf(work, f"a{l}", shape)) for l, b in enumerate(betas)]
    total = alphas[0]
    for a in alphas[1:]:
        total = np.add(total, a, out=_buf(work, "total", shape))
    ps = _candidates(k, P, n, work)
    num = np.multiply(alphas[0], ps[0], out=_buf(work, "num", shape))
    for a, p in zip(alphas[1:], ps[1:]):
        np.multiply(a, p, out=a)
        np.add(num, a, out=num)
    return np.divide(num, total, out=num)


def _fill_ghosts(P, k, boundary):
    """Write the k ghost cells at each end of the padded lines P in place."""
    n = P.shape[0] - 2 * k
    if boundary == "periodic":
        P[:k] = P[n : n + k]
        P[n + k :] = P[k : 2 * k]
    else:
        P[:k] = P[k]
        P[n + k :] = P[n + k - 1]


def _layout(work, sg, vg, shape):
    """Per-axis layout of a field of this shape on these grids.

    One entry per transported axis: the axis order that brings it to the
    front, its spacing and boundary, the index tuples of the negative- and
    positive-speed halves, and each block's slice tuple with |v| at the
    block's full shape (one aligned array per distinct shape, so that
    scaling the fluxes is no broadcast). It depends on nothing but the grids,
    so it is built once and kept in ``work`` under ("layout", shape); other
    grids of the same shape rebuild it.
    """
    lay = work.get(("layout", shape))
    if lay is not None and lay[0] is sg and lay[1] is vg:
        return lay[2]
    ndim = len(shape)
    axes = []
    for a in range(sg.dx_dims):
        va = sg.dx_dims + a  # array axis of the matching velocity component
        order = (a,) + tuple(i for i in range(ndim) if i != a)  # np.moveaxis(., a, 0)
        ashape = tuple(shape[i] for i in order)
        speeds = vg.axes[a]
        n_neg = int(np.searchsorted(speeds, 0.0))
        neg = tuple(slice(0, n_neg) if i == va else slice(None) for i in range(ndim))
        pos = tuple(slice(n_neg, None) if i == va else slice(None) for i in range(ndim))
        v = speeds.reshape([-1 if i == va else 1 for i in range(ndim)])
        # blocks cut a transverse axis other than va (none in 1D/1V: one block)
        bax = next((i for i in range(1, ndim) if i != va), None)
        n_b = 1 if bax is None else ashape[bax]
        step = max(1, _BLOCK_POINTS * n_b // math.prod(ashape))
        blocks, full = [], {}
        for j in range(0, n_b, step):
            bshape = tuple(min(step, n_b - j) if i == bax else s for i, s in enumerate(ashape))
            if bshape not in full:
                full[bshape] = np.abs(v, out=empty_aligned(bshape))
            blocks.append((tuple(slice(j, j + step) if i == bax else slice(None)
                                 for i in range(ndim)), full[bshape]))
        axes.append((order, sg.spacings[a], sg.boundaries[a], neg, pos, blocks))
    work[("layout", shape)] = (sg, vg, axes)
    return axes


def transport_rhs(field, k, work, out=None):
    """-v.grad_x f with upwind WENO interface fluxes of order index k (a key
    of IDEAL_WEIGHTS), all spatial axes, subtracted from ``out``.

    A negative speed v is the speed |v| on the mirrored axis, and the
    right-biased reconstruction is the left-biased one of the mirrored
    window. So the negative-speed half is reversed along the transported
    axis and both halves go through one left-biased pass; sign flips are
    exact, so this is bit-for-bit the two-sided upwind scheme. Lines along
    the axis are independent and are reconstructed in blocks of about
    ``_BLOCK_POINTS`` values that keep the stencil temporaries in cache.

    ``work`` is the caller's dict of work buffers and grid layouts (see the
    module notes). ``out`` is an array of the field's shape that the fluxes
    are subtracted from in place, and is returned; without it the fluxes
    are subtracted from a new array of zeros. The grids are ones that
    `check_stencil` accepts.
    """
    f = field.values
    if out is None:
        out = empty_aligned(f.shape)
        out.fill(0.0)
    for order, h, boundary, neg, pos, blocks in _layout(work, field.sgrid, field.vgrid, f.shape):
        fa, oa = f.transpose(order), out.transpose(order)
        N = fa.shape[0]
        for blk, w in blocks:
            fb, ob = fa[blk], oa[blk]
            # padded lines: the negative-speed half mirrored, then ghost cells
            P = _buf(work, "P", (N + 2 * k,) + fb.shape[1:])
            lines = P[k : N + k]
            lines[neg] = fb[neg][::-1]
            lines[pos] = fb[pos]
            _fill_ghosts(P, k, boundary)
            fhat = _reconstruct_left(k, P, N + 1, work)
            flux = _buf(work, "flux", fb.shape)
            np.subtract(fhat[1:], fhat[:-1], out=flux)
            np.multiply(w, flux, out=flux)
            np.divide(flux, h, out=flux)
            # back to the field's layout, then one subtraction: a ufunc over
            # the two half views (one of them reversed) allocates buffers for
            # them, more than a field's size on the sod_1d1d grid
            dflux = _buf(work, "dflux", fb.shape)
            dflux[neg] = flux[neg][::-1]
            dflux[pos] = flux[pos]
            np.subtract(ob, dflux, out=ob)
    return out
