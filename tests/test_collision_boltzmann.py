import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kinproj.collision_boltzmann import (
    DEFAULT_B0,
    LAMBDA,
    SpectralPlan,
    boltzmann_q,
    boltzmann_rhs,
    phi_profile,
)
from kinproj.errors import ConfigurationError, StepRejectionError
from kinproj.integrators import make_rhs
from kinproj.phase_space import DistributionField, SpatialGrid, VelocityGrid, maxwellian
from kinproj.spectrum_probe import jacobian_probe, spectrum


def direct_q(n, half_width, n_theta, b0, s):
    """O(N^4 N_theta) scatter-sum reference for the mod-N bilinear form.

    Builds the full beta(l, m) = B(l, m) - B(m, m) coupling table from the
    angular profile directly and accumulates Q_hat_k = sum_{l+m=k mod N}
    beta(l, m) F_l F_m with an explicit index scatter. Deliberately shares no
    code with the realization under test.
    """
    lam = 2.0 / (3.0 + math.sqrt(2.0))
    radius = lam * math.pi
    freq = np.fft.fftfreq(n, 1.0 / n)
    lxf = np.repeat(freq, n)  # pairs with s.ravel() row-major order
    lyf = np.tile(freq, n)
    bmat = np.zeros((n * n, n * n))
    for p in range(1, n_theta + 1):
        th = math.pi * p / n_theta
        a = 2.0 * radius * np.sinc(radius * (lxf * math.cos(th) + lyf * math.sin(th)) / math.pi)
        ap = 2.0 * radius * np.sinc(radius * (-lxf * math.sin(th) + lyf * math.cos(th)) / math.pi)
        bmat += np.outer(a, ap)
    bmat *= math.pi / n_theta
    beta = bmat - np.diag(bmat)[None, :]
    coef = (np.fft.fft2(s) / (n * n)).ravel()
    pair = beta * np.outer(coef, coef)
    kx = (lxf[:, None] + lxf[None, :]).astype(int) % n
    ky = (lyf[:, None] + lyf[None, :]).astype(int) % n
    qhat = np.zeros((n, n), dtype=complex)
    np.add.at(qhat, (kx, ky), pair)
    scale = 2.0 * b0 * (half_width / math.pi) ** 2
    return scale * (n * n * np.fft.ifft2(qhat)).real


def test_profile_constants():
    assert LAMBDA == pytest.approx(2.0 / (3.0 + math.sqrt(2.0)), rel=1e-15)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    assert plan.radius == pytest.approx(LAMBDA * math.pi, rel=1e-15)
    assert plan.scale == pytest.approx(2.0 * DEFAULT_B0 * (8.0 / math.pi) ** 2, rel=1e-15)
    r = plan.radius
    assert phi_profile(r, 0.0) == 2.0 * r
    # first zero of sin(R s)/s at s = pi/R, analytic closed form elsewhere
    assert phi_profile(r, math.pi / r) == pytest.approx(0.0, abs=1e-12 * 2 * r)
    s = 1.7
    assert phi_profile(r, s) == pytest.approx(2.0 * math.sin(r * s) / s, rel=1e-13)


def test_plan_tables():
    for n_theta in (2, 4, 8):
        plan = SpectralPlan(VelocityGrid(2, 8.0, 16), n_theta=n_theta)
        two_r = 2.0 * plan.radius
        half = n_theta // 2
        assert len(plan.tables) == n_theta
        assert plan.pairs == [(p, p + half) for p in range(half)]
        # the quarter turn of angle p is the table of angle p + N_theta/2:
        # alpha'_p = phi(l . e_{theta_p + pi/2}), which the plan does not build
        n = plan.modes
        freq = np.fft.fftfreq(n, 1.0 / n)
        for p in range(n_theta):
            th = math.pi * p / n_theta + math.pi / 2
            turned = phi_profile(plan.radius,
                                 freq[:, None] * math.cos(th) + freq[None, :] * math.sin(th))
            assert np.abs(turned - plan.tables[(p + half) % n_theta]).max() <= 1e-14 * two_r
        # the zero mode sees phi(0) = 2R from every angle
        assert_allclose(plan.tables[:, 0, 0], two_r, rtol=1e-15)
        assert plan.bhat_diag[0, 0] == pytest.approx(math.pi * two_r**2, rel=1e-14)
        # evenness of the profile: table invariant under l -> -l away from the
        # Nyquist row/column, where -l has no representable counterpart
        mask = np.ones((n, n), dtype=bool)
        mask[n // 2, :] = False
        mask[:, n // 2] = False
        for a in plan.tables:
            rolled = np.roll(a[::-1, ::-1], (1, 1), axis=(0, 1))
            assert_allclose(rolled[mask], a[mask], rtol=1e-14)


def test_zero_slice_is_exactly_zero():
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    q = boltzmann_q(plan, np.zeros((16, 16)))
    assert np.all(q == 0.0)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_matches_direct_quadrature(n):
    # direct_q builds alpha' from the quarter turn itself, at angles 1 .. N_theta
    for n_theta in (2, 4, 8):
        plan = SpectralPlan(VelocityGrid(2, 8.0, n), n_theta=n_theta)
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            s = rng.uniform(0.1, 1.1, size=(n, n))
            fast = boltzmann_q(plan, s)
            ref = direct_q(n, 8.0, n_theta, DEFAULT_B0, s)
            assert np.abs(fast - ref).max() <= 1e-12 * np.abs(ref).max()


def test_bilinear_scaling():
    # off-equilibrium slice so q is O(1) and the relative bound is meaningful
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32))
    vg = VelocityGrid(2, 8.0, 32)
    f = 0.6 * maxwellian(vg, 1.0, [1.2, -0.4], 0.9) + 0.4 * maxwellian(vg, 0.8, [-1.0, 0.6], 1.3)
    q = boltzmann_q(plan, f)
    # power-of-two amplitude commutes exactly through transforms and products
    assert np.array_equal(boltzmann_q(plan, 2.0 * f), 4.0 * q)
    qa = boltzmann_q(plan, 0.37 * f)
    assert np.abs(qa - 0.37**2 * q).max() <= 1e-12 * np.abs(q).max()


def complex_q(plan, s):
    """Q_N of one slice through numpy's complex FFTs and the full tables,
    odd Nyquist parts included; the real kernel must agree to roundoff."""
    g = np.fft.fft2(s)
    x = [np.fft.ifft2(t * g) for t in plan.tables]
    gain = plan.weight_theta * sum(x[i] * x[j] for i, j in plan.pairs)
    loss = s * np.fft.ifft2(plan.bhat_diag * g)
    return plan.scale * (gain - loss).real


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("n_theta", [4, 8])
def test_matches_complex_reference(n, n_theta):
    # random slices carry Nyquist content, where the tables' odd parts
    # contribute at 1e-3 of |Q|; the two-Maxwellian slice is smooth but far
    # from equilibrium (at a Maxwellian max|Q| is itself roundoff)
    plan = SpectralPlan(VelocityGrid(2, 8.0, n), n_theta=n_theta)
    vg = VelocityGrid(2, 8.0, n)
    rng = np.random.default_rng(40 + n + n_theta)
    two = 0.6 * maxwellian(vg, 1.0, [1.2, -0.4], 0.9) + 0.4 * maxwellian(vg, 0.8, [-1.0, 0.6], 1.3)
    slices = np.concatenate([rng.uniform(0.1, 1.1, size=(4, n, n)), two[None]])
    q = boltzmann_q(plan, slices)
    for s, qs in zip(slices, q):
        ref = complex_q(plan, s)
        assert np.abs(qs - ref).max() <= 1e-13 * np.abs(ref).max()


def test_loss_tracks_density():
    # with b0 = 1/(2 pi) the untruncated loss is rho * f; the truncated
    # multiplier agrees at quadrature level (measured 5.7e-3 and 1.0e-3)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32))
    vg = VelocityGrid(2, 8.0, 32)
    for rho, u, t in [(1.0, [0.0, 0.0], 1.0), (1.3, [0.5, -0.3], 0.7)]:
        f = maxwellian(vg, rho, u, t)
        loss = plan.scale * f * np.fft.ifft2(plan.bhat_diag * np.fft.fft2(f)).real
        rho_q = vg.weight * f.sum()
        assert np.abs(loss - rho_q * f).max() <= 1e-2 * np.abs(rho_q * f).max()


def test_collision_invariants():
    # moments {1, v, |v|^2} of Q vanish (measured <= 3e-9 relative at J=32)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32))
    vg = VelocityGrid(2, 8.0, 32)
    cases = [
        0.6 * maxwellian(vg, 1.0, [1.2, -0.4], 0.9) + 0.4 * maxwellian(vg, 0.8, [-1.0, 0.6], 1.3),
        maxwellian(vg, 1.3, [0.5, -0.3], 0.8),
    ]
    psis = [np.ones(vg.n_nodes), vg.nodes[:, 0], vg.nodes[:, 1], vg.speed2]
    for f in cases:
        flat = boltzmann_q(plan, f).ravel()
        for psi in psis:
            num = abs(vg.weight * flat @ psi)
            den = vg.weight * np.abs(flat) @ np.abs(psi) + 1e-300
            assert num / den <= 1e-6


def test_equilibrium_annihilation():
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32), n_theta=4)
    vg = VelocityGrid(2, 8.0, 32)
    q = boltzmann_q(plan, maxwellian(vg, 1.0, [0.0, 0.0], 1.0))
    assert np.abs(q).max() <= 1e-5  # measured 6.9e-12


def test_annihilation_sharpens_with_resolution():
    vg = VelocityGrid(2, 8.0, 64)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 64))
    q = boltzmann_q(plan, maxwellian(vg, 1.3, [0.5, -0.3], 0.8))
    assert np.abs(q).max() <= 1e-6


def test_batch_matches_loop():
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    rng = np.random.default_rng(9)
    batch = rng.uniform(0.1, 1.1, size=(2, 3, 16, 16))
    qb = boltzmann_q(plan, batch)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(qb[i, j], boltzmann_q(plan, batch[i, j]))
    # 70 slices run as kernel blocks of 32, 32 and 6 at J = 16 (8,192-node
    # blocks): every slice is bit-identical to its own call, and a second
    # call to the first
    many = rng.uniform(0.1, 1.1, size=(70, 16, 16))
    qm = boltzmann_q(plan, many)
    assert np.array_equal(qm, boltzmann_q(plan, many))
    for k in range(70):
        assert np.array_equal(qm[k], boltzmann_q(plan, many[k]))


def test_ragged_blocks_match_loop_at_j32():
    # 19 slices run as kernel blocks of 8, 8 and 3 at J = 32, where the
    # Nyquist-line products have their own row counts
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32))
    many = np.random.default_rng(11).uniform(0.1, 1.1, size=(19, 32, 32))
    qm = boltzmann_q(plan, many)
    for k in range(19):
        assert np.array_equal(qm[k], boltzmann_q(plan, many[k]))


def test_rhs_epsilon_scaling():
    vg = VelocityGrid(2, 8.0, 16)
    sg = SpatialGrid([0.0], [1.0], [2], "periodic")
    rng = np.random.default_rng(3)
    field = DistributionField(rng.uniform(0.1, 1.1, size=(2, 16, 16)), sg, vg)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    base = boltzmann_rhs(field, plan, 1.0)
    assert np.array_equal(boltzmann_rhs(field, plan, 0.25), 4.0 * base)
    small = boltzmann_rhs(field, plan, 1e-3)
    assert_allclose(small * 1e-3, base, rtol=5e-16, atol=0.0)


def test_rhs_vanishes_at_sampled_maxwellians():
    # on the desk grid the raw operator does not annihilate Maxwellians; the
    # steady-state-preserving right-hand side must, by >= 100x (measured
    # 9.6e-7 vs 3.6e-4 for the cooled double-Sod state, 1.0e-11 vs 6.5e-6
    # at rho = T = 1)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    vg = VelocityGrid(2, 8.0, 16)
    states = [(0.565, (0.35, 0.35), 0.57), (1.0, (0.0, 0.0), 1.0),
              (0.125, (0.0, 0.0), 0.8), (1.0, (0.5, -0.3), 1.2)]
    rho = np.array([s[0] for s in states])
    u = np.array([s[1] for s in states])
    t = np.array([s[2] for s in states])
    f = maxwellian(vg, rho, u, t)
    sg = SpatialGrid([0.0], [1.0], [len(states)], "periodic")
    rhs = np.abs(boltzmann_rhs(DistributionField(f, sg, vg), plan, 1.0)).max(axis=(1, 2))
    raw = np.abs(boltzmann_q(plan, f)).max(axis=(1, 2))
    assert np.all(100.0 * rhs <= raw)


def test_linearization_margin_at_cooled_maxwellian():
    # guard for the double-Sod desk run (acceptance 12): on the J = 16 grid
    # the linearization keeps a weakly unstable aliasing mode; measured top
    # real part 3.28e-3 for the right-hand side (1.14e-3 for raw Q_N)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    vg = VelocityGrid(2, 8.0, 16)
    sg = SpatialGrid([0.0], [1.0], [1], "periodic")
    f = maxwellian(vg, np.array([0.565]), np.array([[0.35, 0.35]]), np.array([0.57]))
    probe = jacobian_probe(lambda v: boltzmann_rhs(DistributionField(v, sg, vg), plan, 1.0), f)
    assert spectrum(probe).eigenvalues.real.max() <= 4e-3


def test_rhs_rejects_non_positive_temperature():
    # the offending cell is named by its spatial index tuple, on 1D and 2D grids
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    vg = VelocityGrid(2, 8.0, 16)
    cooling = 0.002 * (vg.speed2.reshape(16, 16) > 25.0)  # rho > 0, T < 0
    sg = SpatialGrid([0.0], [1.0], [2], "periodic")
    f = np.stack([maxwellian(vg, 1.0, [0.0, 0.0], 1.0)] * 2)
    f[1] -= cooling
    with pytest.raises(StepRejectionError, match=r"cell \(1,\)") as exc:
        boltzmann_rhs(DistributionField(f, sg, vg), plan, 1.0)
    assert exc.value.index == (1,)
    sg2 = SpatialGrid([0.0, 0.0], [1.0, 1.0], [2, 3], "periodic")
    f2 = np.broadcast_to(maxwellian(vg, 1.0, [0.0, 0.0], 1.0), (2, 3, 16, 16)).copy()
    f2[1, 2] -= cooling
    with pytest.raises(StepRejectionError, match=r"cell \(1, 2\)") as exc:
        boltzmann_rhs(DistributionField(f2, sg2, vg), plan, 1.0)
    assert exc.value.index == (1, 2)


def test_configuration_errors():
    with pytest.raises(ConfigurationError):
        SpectralPlan(VelocityGrid(2, 8.0, 15))  # odd
    with pytest.raises(ConfigurationError):
        SpectralPlan(VelocityGrid(2, 8.0, 4))  # too small
    with pytest.raises(ConfigurationError):
        SpectralPlan(VelocityGrid(2, 8.0, 16), n_theta=0)
    for n_theta in (1, 3):  # odd: no angle has its quarter turn among the angles
        with pytest.raises(ConfigurationError, match="n_theta must be a whole number, even"):
            SpectralPlan(VelocityGrid(2, 8.0, 16), n_theta=n_theta)
    with pytest.raises(ConfigurationError, match="n_theta must be a whole number"):
        SpectralPlan(VelocityGrid(2, 8.0, 16), n_theta=4.5)  # not truncated to 4
    with pytest.raises(ConfigurationError):
        SpectralPlan(VelocityGrid(1, 8.0, 16))  # 1V
    with pytest.raises(ConfigurationError):
        SpectralPlan(VelocityGrid(2, 8.0, (16, 32)))  # not square
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    with pytest.raises(ConfigurationError):
        boltzmann_q(plan, np.ones((16, 8)))
    sg = SpatialGrid([0.0], [1.0], [2], "periodic")
    vg1 = VelocityGrid(1, 8.0, 16)
    f1 = DistributionField(np.ones((2, 16)), sg, vg1)
    with pytest.raises(ConfigurationError):
        boltzmann_rhs(f1, plan, 1.0)
    vg32 = VelocityGrid(2, 8.0, 32)
    f32 = DistributionField(np.ones((2, 32, 32)), sg, vg32)
    with pytest.raises(ConfigurationError):
        boltzmann_rhs(f32, plan, 1.0)
    for half_width in (6.0, 8.00004):  # the second is within np.isclose of 8.0
        fhw = DistributionField(np.ones((2, 16, 16)), sg, VelocityGrid(2, half_width, 16))
        with pytest.raises(ConfigurationError, match="does not match"):
            boltzmann_rhs(fhw, plan, 1.0)
    vg16 = VelocityGrid(2, 8.0, 16)
    f = DistributionField(np.ones((2, 16, 16)), sg, vg16)
    with pytest.raises(ConfigurationError):
        boltzmann_rhs(f, plan, 0.0)


@pytest.mark.parametrize("epsilon", [np.inf, np.nan, -1.0])
def test_rhs_requires_finite_epsilon(epsilon):
    # an infinite epsilon would give an all-zero collision term, which
    # bgk_rhs rejects for BGK
    vg = VelocityGrid(2, 8.0, 16)
    sg = SpatialGrid([0.0], [1.0], [1], "periodic")
    rhs = make_rhs(sg, vg, None, (SpectralPlan(VelocityGrid(2, 8.0, 16)), epsilon))
    with pytest.raises(ConfigurationError, match="positive and finite"):
        rhs(maxwellian(vg, 1.0, [0.0, 0.0], 1.0)[None])
