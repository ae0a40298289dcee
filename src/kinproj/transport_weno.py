"""Upwind finite-difference WENO discretization of the transport term -v.grad_x f.

Each velocity node advects with its constant speed component, so upwinding is
a sign split per node: positive speeds take the left-biased interface value,
negative speeds the right-biased (mirrored) one. The conservative interface
difference telescopes, so periodic transport conserves mass to roundoff.
The scheme fits grids with a velocity component for every spatial axis and
at least 2k - 1 cells on each, k a key of IDEAL_WEIGHTS (`bind`).

The kernel works on the differences D_j = P_{j+1} - P_j of the padded lines
P. Window i (P_i .. P_{i+2k-2}) has centre c = i + k - 1 and left-biased
interface value fhat_i = P_c + g_i / c_k, c_k = 1, 2, 6 for k = 1, 2, 3, so
c_k (fhat_{i+1} - fhat_i) = c_k D_c + g_{i+1} - g_i, and the layout's |v|
columns carry 1 / (c_k h):

- k = 1: g = 0, in `transport_rhs` itself.
- k = 2 (`_weno3`): s_j = (DELTA + D_j^2)^2, the weight of stencil 0 in
  ratio form omega_i = s_i / (s_i + (d_1/d_0) s_{i+1}), and
  g_i = D_i + omega_i (D_{i+1} - D_i).
- k = 3 (`_weno5`): with E_j = D_{j+1} - D_j, the indicators times 4 are
  4 beta_0 = 13/3 E_c^2 + (E_c - 2 D_c)^2, 4 beta_1 = 13/3 E_{c-1}^2 +
  (D_{c-1} + D_c)^2 and 4 beta_2 = 13/3 E_{c-2}^2 + (E_{c-2} + 2 D_{c-1})^2;
  a_l = d_l / (4 DELTA + 4 beta_l)^2 and g_i = sum a_l q_l / sum a_l over
  q_l = 6 (p_l - P_c) = 4 D_c - D_{c+1}, D_{c-1} + 2 D_c, 5 D_{c-1} - 2 D_{c-2}.

These are the Jiang-Shu weights and candidates of the cell-value form, equal
up to roundoff. Per block, k = 1 / 2 / 3 take 2 / 14 / 40 ufunc calls with
0 / 1 / 4 divides, against 8 / 18 / 54 calls with 3 / 4 / 8 divides in the
cell-value form with the weights' quotient and a divide by h.

The padded lines, differences, indicators, weights, candidates and fluxes
live in work buffers of one block's size, keyed by name and shape (so each
axis and a ragged last block get their own); a function takes from the dict
only buffers it writes in that call. `bind` returns the dict empty, with the
grids' per-axis layout, and `integrators.make_rhs` binds once per RHS
closure, so a closure is not safe to share between threads. Reused, the
buffers stay warm instead of being returned to the operating system and
faulted in again. The fluxes are subtracted from the caller's output array:
Runge-Kutta stages keep earlier slopes and the Jacobian probe subtracts two
consecutive results, so the output must never alias a buffer. Every
operation runs in the order of the plain array formulas in the comments, so
the result is the same bit for bit.

The buffers and |v| arrays start on a 64-byte boundary (`empty_aligned`): at
numpy's own placement, 16 or 48 bytes past one, a two-input ufunc into a
third array ran at 42-59% of that speed (AVX-512 Xeon, numpy 2.4). The
right-hand sides stay plain arrays: aligned, they fragmented the heap and
added 5 MiB to the peak memory of some runs.
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

# c_k: the kernel forms c_k times the interface values' differences
_SCALE = {1: 1.0, 2: 2.0, 3: 6.0}

# values per block of transport lines (see bind). With the difference form,
# 4,096 / 16,384 beat 8,192 in 1 / 7 of 10 alternating rounds of calls on
# the bubble2d_bgk grid and in 5 / 9 on the dsod2d_spectral grid: 8,192 stays.
# Blocks cut one cell axis only; cutting bubble2d_bgk's x-axis blocks (25,600
# values) to 6,400 along a velocity axis as well was slower in 9 of 10 pairs.
_BLOCK_POINTS = 8192


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


def _weno3(D, n, work):
    """g_i = 2 (fhat_i - P_c) of the n left-biased order-3 windows from the
    differences D (module notes), as a work buffer."""
    d = IDEAL_WEIGHTS[2]
    # s_j = (DELTA + D_j^2)^2 over the n + 1 rows the windows share
    s = np.square(D[: n + 1], out=_buf(work, "s", (n + 1,) + D.shape[1:]))
    np.add(DELTA, s, out=s)
    np.square(s, out=s)
    # omega_i = s_i / (s_i + (d_1/d_0) s_{i+1}), g_i = D_i + omega_i (D_{i+1} - D_i)
    om = np.multiply(d[1] / d[0], s[1:], out=_buf(work, "om", s[:n].shape))
    np.add(s[:n], om, out=om)
    np.divide(s[:n], om, out=om)
    g = np.subtract(D[1 : n + 1], D[:n], out=_buf(work, "g", om.shape))
    np.multiply(om, g, out=g)
    return np.add(D[:n], g, out=g)


def _weno5(D, n, work):
    """g_i = 6 (fhat_i - P_c) of the n left-biased order-5 windows from the
    differences D (module notes), as a work buffer."""
    d = IDEAL_WEIGHTS[3]
    rest = D.shape[1:]
    E = np.subtract(D[1 : n + 3], D[: n + 2], out=_buf(work, "E", (n + 2,) + rest))
    curv = np.square(E, out=_buf(work, "curv", E.shape))
    np.multiply(13.0 / 3.0, curv, out=curv)
    D2 = np.multiply(2.0, D[: n + 2], out=_buf(work, "D2", E.shape))
    a0, a1, a2 = (_buf(work, f"a{l}", (n,) + rest) for l in range(3))
    np.subtract(E[2:], D2[2:], out=a0)  # E_c - 2 D_c
    np.add(D[1 : n + 1], D[2 : n + 2], out=a1)  # D_{c-1} + D_c
    np.add(E[:n], D2[1 : n + 1], out=a2)  # E_{c-2} + 2 D_{c-1}
    # 4 beta_l = 13/3 E^2 + (.)^2, then a_l = d_l / (4 DELTA + 4 beta_l)^2
    for l, (a, c) in enumerate(((a0, 2), (a1, 1), (a2, 0))):
        np.square(a, out=a)
        np.add(curv[c : c + n], a, out=a)
        np.add(4 * DELTA, a, out=a)
        np.square(a, out=a)
        np.divide(d[l], a, out=a)
    q0, q1, q2 = (_buf(work, f"q{l}", a0.shape) for l in range(3))
    np.multiply(4.0, D[2 : n + 2], out=q0)
    np.subtract(q0, D[3 : n + 3], out=q0)  # 4 D_c - D_{c+1}
    np.add(D[1 : n + 1], D2[2:], out=q1)  # D_{c-1} + 2 D_c
    np.multiply(5.0, D[1 : n + 1], out=q2)
    np.subtract(q2, D2[:n], out=q2)  # 5 D_{c-1} - 2 D_{c-2}
    total = np.add(a0, a1, out=_buf(work, "total", a0.shape))
    np.add(total, a2, out=total)
    num = np.multiply(a0, q0, out=q0)
    for a, q in ((a1, q1), (a2, q2)):
        np.multiply(a, q, out=q)
        np.add(num, q, out=num)
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


def bind(sgrid, vgrid, k):
    """The order-k transport on these grids, as `transport_rhs` takes it:
    (k, the per-axis layout, an empty dict of work buffers).

    Rejects grids that the scheme does not fit; `integrators.make_rhs`
    calls this once per closure. The layout has one entry per transported
    axis: the axis order that brings it to the front, its boundary, the
    index tuples of the negative- and positive-speed halves, and each
    block's slice tuple with |v| / (c_k h) at the block's full shape (one
    aligned array per distinct shape: no broadcast).
    """
    if not isinstance(k, int) or k not in IDEAL_WEIGHTS:
        raise ConfigurationError(f"unsupported reconstruction order k={k}")
    if vgrid.dv < sgrid.dx_dims:
        raise ConfigurationError("velocity dimension must cover every transported axis")
    for a, n in enumerate(sgrid.counts):
        if n < 2 * k - 1:
            raise ConfigurationError(f"axis {a}: {n} cells < stencil width {2 * k - 1}")
    shape = sgrid.counts + vgrid.counts
    ndim = len(shape)
    axes = []
    for a in range(sgrid.dx_dims):
        va = sgrid.dx_dims + a  # array axis of the matching velocity component
        order = (a,) + tuple(i for i in range(ndim) if i != a)  # np.moveaxis(., a, 0)
        ashape = tuple(shape[i] for i in order)
        speeds = vgrid.axes[a]
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
                np.divide(full[bshape], _SCALE[k] * sgrid.spacings[a], out=full[bshape])
            blocks.append((tuple(slice(j, j + step) if i == bax else slice(None)
                                 for i in range(ndim)), full[bshape]))
        axes.append((order, sgrid.boundaries[a], neg, pos, blocks))
    return k, axes, {}


def transport_rhs(field, transport, out):
    """-v.grad_x f with upwind WENO interface fluxes on all spatial axes,
    subtracted from ``out`` in place; returns ``out``.

    ``transport`` is what `bind` returned for the field's grids, and its
    work buffers are reused on every call (see the module notes). ``out`` is
    an array of the field's shape. A negative speed v is the speed |v| on
    the mirrored axis, and the right-biased reconstruction is the
    left-biased one of the mirrored window. So the negative-speed half is
    reversed along the transported axis and both halves go through one
    left-biased pass; sign flips are exact, so this is bit-for-bit the
    two-sided upwind scheme. Lines along the axis are independent and are
    reconstructed in blocks of about ``_BLOCK_POINTS`` values that keep the
    stencil temporaries in cache.
    """
    k, axes, work = transport
    f = field.values
    for order, boundary, neg, pos, blocks in axes:
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
            D = np.subtract(P[1:], P[:-1], out=_buf(work, "D", (N + 2 * k - 1,) + fb.shape[1:]))
            # w (c_k D_c + g_{i+1} - g_i) with w = |v| / (c_k h)
            Dc = D[k - 1 : N + k - 1]
            flux = _buf(work, "flux", fb.shape)
            if k == 1:
                np.multiply(w, Dc, out=flux)
            else:
                g = (_weno3 if k == 2 else _weno5)(D, N + 1, work)
                np.subtract(g[1:], g[:-1], out=flux)
                np.multiply(_SCALE[k], Dc, out=Dc)
                np.add(Dc, flux, out=flux)
                np.multiply(w, flux, out=flux)
            # back to the field's layout, then one subtraction: a ufunc over
            # the two half views (one of them reversed) allocates buffers for
            # them, more than a field's size on the sod_1d1d grid
            dflux = _buf(work, "dflux", fb.shape)
            dflux[neg] = flux[neg][::-1]
            dflux[pos] = flux[pos]
            np.subtract(ob, dflux, out=ob)
    return out
