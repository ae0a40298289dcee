import numpy as np
import pytest

from kinproj.errors import ConfigurationError
from kinproj.integrators import make_rhs
from kinproj.phase_space import DistributionField, SpatialGrid, VelocityGrid
from kinproj.scenarios_cli import initial_field, resolve_run
from kinproj.transport_weno import (
    _SCALE,
    DELTA,
    IDEAL_WEIGHTS,
    _weno3,
    _weno5,
    bind,
    empty_aligned,
    transport_rhs,
)


# ---- reference kernel: the plain array formulas of the difference form (see
# the transport_weno module notes) on D = P[1:] - P[:-1], each step a new
# array, and whole lines at once (no blocks). transport_rhs must agree bit
# for bit. The k = 3 indicators are 4 beta_l.

def ref_betas(k, D, n):
    if k == 2:
        sq = D[: n + 1] ** 2
        return (sq[1:], sq[:n])
    E = D[1:] - D[:-1]
    curv = 13.0 / 3.0 * E**2
    D2 = 2 * D
    b0 = curv[2 : n + 2] + (E[2 : n + 2] - D2[2 : n + 2]) ** 2
    b1 = curv[1 : n + 1] + (D[1 : n + 1] + D[2 : n + 2]) ** 2
    b2 = curv[:n] + (E[:n] + D2[1 : n + 1]) ** 2
    return (b0, b1, b2)


def ref_candidates(k, D, n):
    if k == 2:
        return (D[1 : n + 1], D[:n])
    return (4 * D[2 : n + 2] - D[3 : n + 3], D[1 : n + 1] + 2 * D[2 : n + 2],
            5 * D[1 : n + 1] - 2 * D[:n])


def ref_reconstruct_left(k, D, n):
    d = IDEAL_WEIGHTS[k]
    b, q = ref_betas(k, D, n), ref_candidates(k, D, n)
    if k == 2:
        s0, s1 = ((DELTA + x) ** 2 for x in b)
        om = s1 / (s1 + d[1] / d[0] * s0)
        return q[1] + om * (q[0] - q[1])
    a = [d[l] / (4 * DELTA + x) ** 2 for l, x in enumerate(b)]
    return (a[0] * q[0] + a[1] * q[1] + a[2] * q[2]) / (a[0] + a[1] + a[2])


def ref_flux(P, k, v, h):
    """|v| (fhat_{i+1} - fhat_i) / h of padded lines P, in the difference form."""
    N = P.shape[0] - 2 * k
    D = P[1:] - P[:-1]
    Dc = D[k - 1 : N + k - 1]
    w = np.abs(v) / (_SCALE[k] * h)
    if k == 1:
        return w * Dc
    g = ref_reconstruct_left(k, D, N + 1)
    return w * (_SCALE[k] * Dc + (g[1:] - g[:-1]))


# ---- the quotient form on the cell values that the kernel used before the
# difference form, verbatim: the weights d_l / (DELTA + beta_l)^2 over their
# sum and the candidate values p_l themselves. It agrees to roundoff.

_K1312 = 13.0 / 12.0


def quotient_betas(k, P, n):
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


def quotient_candidates(k, P, n):
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


def quotient_reconstruct_left(k, P, n):
    d = IDEAL_WEIGHTS[k]
    alphas = [d[l] / (DELTA + b) ** 2 for l, b in enumerate(quotient_betas(k, P, n))]
    return sum(a * p for a, p in zip(alphas, quotient_candidates(k, P, n))) / sum(alphas)


def quotient_flux(P, k, v, h):
    fhat = quotient_reconstruct_left(k, P, P.shape[0] - 2 * k + 1)
    return np.abs(v) * (fhat[1:] - fhat[:-1]) / h


def ref_pad(sub, k, boundary):
    if boundary == "periodic":
        return np.concatenate([sub[-k:], sub, sub[:k]], axis=0)
    lo = np.repeat(sub[:1], k, axis=0)
    hi = np.repeat(sub[-1:], k, axis=0)
    return np.concatenate([lo, sub, hi], axis=0)


def ref_transport(field, k, flux_of=ref_flux):
    sg, vg = field.sgrid, field.vgrid
    f = field.values
    out = np.zeros_like(f)
    for a in range(sg.dx_dims):
        va = sg.dx_dims + a
        speeds = vg.axes[a]
        n_neg = int(np.searchsorted(speeds, 0.0))
        fa = np.moveaxis(f, a, 0)
        oa = np.moveaxis(out, a, 0)
        neg = tuple(slice(0, n_neg) if i == va else slice(None) for i in range(fa.ndim))
        pos = tuple(slice(n_neg, None) if i == va else slice(None) for i in range(fa.ndim))
        lines = np.concatenate([fa[neg][::-1], fa[pos]], axis=va)
        P = ref_pad(lines, k, sg.boundaries[a])
        v = speeds.reshape([-1 if i == va else 1 for i in range(fa.ndim)])
        flux = flux_of(P, k, v, sg.spacings[a])
        oa[neg][::-1] -= flux[neg]
        oa[pos] -= flux[pos]
    return out


# (lower, upper, cells, boundaries, dv, velocity nodes); the last 2D grid cuts
# both axes into several blocks with a shorter last one
REFERENCE_GRIDS = [
    ((0.0,), (1.0,), (30,), "periodic", 1, (11,)),
    ((0.0,), (1.0,), (30,), "outflow", 1, (12,)),
    ((0.0,), (1.0,), (20,), "outflow", 2, (8, 6)),
    ((0.0,), (1.0,), (20,), "periodic", 2, (7, 6)),
    ((0.0, 0.0), (1.0, 2.0), (9, 7), ("outflow", "periodic"), 2, (6, 4)),
    ((0.0, 0.0), (1.0, 1.0), (24, 22), ("periodic", "outflow"), 2, (8, 8)),
]


def reference_field(grid, seed):
    lower, upper, counts, boundaries, dv, vcounts = grid
    sg = SpatialGrid(lower, upper, counts, boundaries)
    vg = VelocityGrid(dv, 4.0, vcounts)
    f = np.random.default_rng(seed).uniform(0.0, 1.0, sg.counts + vg.counts)
    f[f < 0.2] = 0.0  # flat stretches give exact zeros and zero fluxes
    return DistributionField(f, sg, vg)


def assert_bitwise(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def transport(fld, k):
    """The order-k transport of fld alone: bound to its grids, from zeros."""
    return transport_rhs(fld, bind(fld.sgrid, fld.vgrid, k), np.zeros(fld.values.shape))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_transport_matches_reference_bitwise(grid, k):
    fld = reference_field(grid, 11)
    assert_bitwise(transport(fld, k), ref_transport(fld, k))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_transport_matches_quotient_form(grid, k):
    fld = reference_field(grid, 11)
    quot = ref_transport(fld, k, quotient_flux)
    # measured: at most 5.6e-16 of max|quot| over these 18 cases (grid 2, k = 2)
    bound = 1e-15 * np.max(np.abs(quot))
    assert np.max(np.abs(transport(fld, k) - quot)) <= bound


def test_reference_grid_has_ragged_blocks():
    # work buffers are keyed by (name, shape): on the last reference grid each
    # axis pads full blocks and a shorter last one
    fld = reference_field(REFERENCE_GRIDS[-1], 0)
    _, _, work = bound = bind(fld.sgrid, fld.vgrid, 2)
    transport_rhs(fld, bound, np.zeros(fld.values.shape))
    padded = sorted(key[1] for key in work if key[0] == "P")
    assert [shape[:2] for shape in padded] == [(26, 4), (26, 5), (28, 2), (28, 5)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_reused_work_matches_fresh(k):
    # a second call on one bound transport, as in one RHS closure
    for grid in REFERENCE_GRIDS:
        f = reference_field(grid, 1)
        bound = bind(f.sgrid, f.vgrid, k)
        first = transport_rhs(f, bound, np.zeros(f.values.shape))
        kept = first.copy()
        g = reference_field(grid, 2)
        second = transport_rhs(g, bound, np.zeros(g.values.shape))
        assert_bitwise(second, transport(g, k))
        assert_bitwise(first, kept)


def test_empty_aligned_shapes():
    for shape in ((), (0,), (3, 0, 2), (1,), (7, 5)):
        a = empty_aligned(shape)
        assert a.shape == shape and a.dtype == np.float64
        assert a.ctypes.data % 64 == 0


@pytest.mark.parametrize("k", [1, 2, 3])
def test_work_arrays_are_aligned(k):
    fld = reference_field(REFERENCE_GRIDS[-1], 3)
    _, axes, work = bound = bind(fld.sgrid, fld.vgrid, k)
    transport_rhs(fld, bound, np.zeros(fld.values.shape))
    # every block's |v| and every work buffer
    arrays = [w for *_, blocks in axes for _, w in blocks] + list(work.values())
    assert len(arrays) > 10
    assert all(a.ctypes.data % 64 == 0 for a in arrays)


@pytest.mark.parametrize("scenario,collision", [("sod_1d2v", "bgk"), ("double_sod_2d", "boltzmann")])
def test_rhs_does_not_depend_on_input_alignment(scenario, collision):
    run = resolve_run(scenario, "desk", collision=collision)
    f = initial_field(run)
    f *= np.random.default_rng(4).uniform(0.9, 1.1, f.shape)  # not at equilibrium
    skewed = np.empty(f.size + 1)[1:].reshape(f.shape)  # 8 bytes off f's alignment
    skewed[...] = f
    assert skewed.ctypes.data % 64 != f.ctypes.data % 64
    assert_bitwise(run.rhs(skewed), run.rhs(f))


def sine_field(N, k, nv=2):
    sg = SpatialGrid((0.0,), (1.0,), N, "periodic")
    vg = VelocityGrid(1, 2.0, nv)  # nodes at -1, +1 for nv=2
    x = sg.centers[0]
    f = np.tile(np.sin(2 * np.pi * x)[:, None], (1, nv))
    return DistributionField(f, sg, vg), x


def column(window, side="left"):
    """A 2k-1 window of cell values as a (2k-1, 1) array; side="right"
    mirrors it, so the left-biased kernel gives the right-biased value."""
    w = np.asarray(window, dtype=float)
    return (w[::-1] if side == "right" else w)[:, None]


def betas(k, window):
    """The beta_l of this window by the reference formulas, which the kernel
    matches bit for bit; they form 4 beta_l for k = 3."""
    if k == 1:
        return (0.0,)  # one stencil: no indicator
    scale = 4.0 if k == 3 else 1.0
    return tuple(b.item() / scale for b in ref_betas(k, np.diff(column(window), axis=0), 1))


def reconstruct(k, window, side):
    """P_c + g / c_k, with the kernel's g of this window."""
    P = column(window, side)
    g = 0.0 if k == 1 else (_weno3 if k == 2 else _weno5)(np.diff(P, axis=0), 1, {}).item()
    return P[k - 1, 0].item() + g / _SCALE[k]


def weights(k, window):
    """The convex weights omega_l the kernel gives this window."""
    d = IDEAL_WEIGHTS[k]
    alphas = np.array([d[l] / (DELTA + b) ** 2 for l, b in enumerate(betas(k, window))])
    return alphas / alphas.sum()


def test_ideal_weights():
    assert IDEAL_WEIGHTS[1] == (1.0,)
    assert IDEAL_WEIGHTS[2] == (2 / 3, 1 / 3)
    assert IDEAL_WEIGHTS[3] == (0.3, 0.6, 0.1)
    for k in (1, 2, 3):
        # exact up to the 1-ulp representation error of the rational weights
        assert sum(IDEAL_WEIGHTS[k]) == pytest.approx(1.0, abs=2.3e-16)


def test_smoothness_indicators_constant_window():
    b = betas(2, (5.0, 5.0, 5.0))
    assert b == (0.0, 0.0)


def test_smoothness_indicators_k2_example():
    assert betas(2, (0.0, 1.0, 3.0)) == (4.0, 1.0)


def test_smoothness_indicators_k3_linear_window():
    b = betas(3, (0.0, 1.0, 2.0, 3.0, 4.0))
    assert b == (1.0, 1.0, 1.0)


def test_smoothness_indicators_nonnegative_random():
    rng = np.random.default_rng(5)
    for k in (1, 2, 3):
        for _ in range(50):
            b = betas(k, rng.normal(size=2 * k - 1))
            assert all(x >= 0 for x in b)


def test_reconstruct_constant_window():
    for k in (1, 2, 3):
        assert reconstruct(k, [1.0] * (2 * k - 1), "left") == 1.0
        assert reconstruct(k, [2.37] * (2 * k - 1), "right") == pytest.approx(
            2.37, rel=1e-14
        )


def test_reconstruct_linear_window_exact():
    # linear data: every candidate stencil gives the same interface value
    for k in (2, 3):
        window = [float(j) for j in range(2 * k - 1)]  # slope 1, center value k-1
        left = reconstruct(k, window, "left")
        right = reconstruct(k, window, "right")
        assert left == pytest.approx(k - 1 + 0.5, rel=1e-14)
        assert right == pytest.approx(k - 1 - 0.5, rel=1e-14)


def test_jump_window_suppresses_discontinuous_stencil():
    om = weights(2, (0.0, 0.0, 1.0))
    # stencil 0 spans the jump; its weight collapses to O(delta^2)
    assert om[0] <= 3.0 * DELTA**2
    assert om[1] >= 1.0 - 3.0 * DELTA**2
    val = reconstruct(2, (0.0, 0.0, 1.0), "left")
    assert abs(val) <= 1e-11  # dominated by the smooth one-sided stencil


def test_weights_are_convex():
    rng = np.random.default_rng(17)
    for k in (1, 2, 3):
        for _ in range(60):
            om = weights(k, rng.normal(size=2 * k - 1))
            assert np.all(om > 0)
            assert abs(om.sum() - 1.0) <= 1e-14


def test_weights_approach_ideal_on_smooth_data():
    d = np.array(IDEAL_WEIGHTS[2])

    def maxdev(dx):
        dev = 0.0
        for x0 in np.arange(0.05, 0.95, 0.013):
            w = [np.sin(2 * np.pi * (x0 + s * dx)) for s in (-1, 0, 1)]
            dev = max(dev, np.max(np.abs(weights(2, w) - d)))
        return dev

    assert maxdev(8e-5) / maxdev(4e-5) >= 4.0


def test_transport_constant_field_is_zero():
    vg = VelocityGrid(2, 4.0, 6)
    for boundaries in (("periodic", "outflow"), ("outflow", "periodic")):
        sg = SpatialGrid((0.0, 0.0), (1.0, 1.0), (8, 8), boundaries)
        f = np.full(sg.counts + vg.counts, 0.7)
        for k in (1, 2, 3):
            r = transport(DistributionField(f, sg, vg), k)
            assert np.all(r == 0.0)


@pytest.mark.parametrize("k,pair,floor", [(1, (64, 128), 0.9), (3, (32, 64), 4.5)])
def test_transport_observed_order(k, pair, floor):
    errs = []
    for N in pair:
        fld, x = sine_field(N, k)
        r = transport(fld, k)
        exact = -2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.mean(np.abs(r[:, 1] - exact)))
    assert np.log2(errs[0] / errs[1]) >= floor


def test_transport_upwind_mirror_symmetry():
    # v = -1 node advects the mirrored way: rhs = +2 pi cos for sin data
    fld, x = sine_field(128, 2)
    r = transport(fld, 2)
    exact = 2 * np.pi * np.cos(2 * np.pi * x)
    assert np.mean(np.abs(r[:, 0] - exact)) <= 5e-3


def test_transport_conserves_mass_periodic():
    sg = SpatialGrid((0.0,), (1.0,), 40, "periodic")
    vg = VelocityGrid(1, 8.0, 16)
    x = sg.centers[0]
    rng = np.random.default_rng(2)
    prof = 1.0 + 0.5 * np.sin(2 * np.pi * x) + 0.2 * np.cos(4 * np.pi * x)
    f = prof[:, None] * rng.uniform(0.5, 1.0, vg.counts)[None, :]
    r = transport(DistributionField(f, sg, vg), 3)
    for j in range(vg.counts[0]):
        scale = np.sum(np.abs(r[:, j])) + 1e-300
        assert abs(np.sum(r[:, j])) / scale <= 1e-12
    # one explicit-Euler step preserves total mass
    f2 = f + 1e-3 * r
    assert np.sum(f2) == pytest.approx(np.sum(f), rel=1e-12)


def test_upwind_stencil_dependence():
    sg = SpatialGrid((0.0,), (1.0,), 30, "periodic")
    vg = VelocityGrid(1, 2.0, 2)  # nodes -1, +1
    rng = np.random.default_rng(9)
    f = rng.uniform(0.5, 1.5, sg.counts + vg.counts)
    k = 2
    base = transport(DistributionField(f, sg, vg), k)
    i = 12
    g = f.copy()
    g[i + k + 1 :, 1] += 10.0  # strictly right of the positive-speed stencil at i
    pos = transport(DistributionField(g, sg, vg), k)
    assert pos[i, 1] == base[i, 1]
    g2 = f.copy()
    g2[: i - k, 0] += 10.0  # strictly left of the negative-speed stencil at i
    neg = transport(DistributionField(g2, sg, vg), k)
    assert neg[i, 0] == base[i, 0]


def test_outflow_boundary_linear_profile():
    sg = SpatialGrid((0.0,), (1.0,), 32, "outflow")
    vg = VelocityGrid(1, 2.0, 2)
    x = sg.centers[0]
    f = np.tile((2.0 + 3.0 * x)[:, None], (1, 2))
    for k in (2, 3):
        r = transport(DistributionField(f, sg, vg), k)
        # interior cells see exact linear reconstruction: rhs = -v * slope
        interior = slice(3, -3)
        np.testing.assert_allclose(r[interior, 1], -3.0, rtol=1e-12)
        np.testing.assert_allclose(r[interior, 0], 3.0, rtol=1e-12)
        assert np.all(np.isfinite(r))


def test_transport_axis_pairing_2d():
    # field constant along y: y-transport must vanish, x-transport matches 1D
    sgx = SpatialGrid((0.0,), (1.0,), 32, "periodic")
    sg = SpatialGrid((0.0, 0.0), (1.0, 1.0), (32, 6), ("periodic", "periodic"))
    vg = VelocityGrid(2, 2.0, 4)
    x = sgx.centers[0]
    base = np.sin(2 * np.pi * x)
    rng = np.random.default_rng(4)
    vmod = rng.uniform(0.5, 1.0, vg.counts)
    f2 = base[:, None, None, None] * np.ones(6)[None, :, None, None] * vmod
    r2 = transport(DistributionField(f2, sg, vg), 2)
    for iy in range(1, 6):
        np.testing.assert_array_equal(r2[:, iy], r2[:, 0])
    # against an explicitly assembled 1D/2V equivalent
    sg1 = SpatialGrid((0.0,), (1.0,), 32, "periodic")
    f1 = base[:, None, None] * vmod
    r1 = transport(DistributionField(f1, sg1, vg), 2)
    np.testing.assert_allclose(r2[:, 0], r1, rtol=1e-13, atol=1e-16)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        make_rhs(SpatialGrid((0.0,), (1.0,), 8, "periodic"), VelocityGrid(1, 2.0, 2), 4,
                 ("bgk", 1.0))
    bgk = ("bgk", 1.0)
    sg = SpatialGrid((0.0,), (1.0,), 3, "periodic")
    vg = VelocityGrid(1, 2.0, 2)
    with pytest.raises(ConfigurationError, match="3 cells < stencil width 5"):
        make_rhs(sg, vg, 3, bgk)
    make_rhs(sg, vg, 2, bgk)  # three cells hold the k = 2 stencil
    with pytest.raises(ConfigurationError, match="unsupported reconstruction order k=2.0"):
        make_rhs(sg, vg, 2.0, bgk)  # an order is an int, not a whole float
    sg2 = SpatialGrid((0.0, 0.0), (1.0, 1.0), (8, 8), "periodic")
    with pytest.raises(ConfigurationError, match="velocity dimension"):
        make_rhs(sg2, vg, 2, bgk)  # no velocity component along y
    make_rhs(sg2, vg, None, bgk)  # without transport the grids are not checked
