import math
import tracemalloc

import numpy as np
import pytest

from kinproj.collision_bgk import bgk_rhs
from kinproj.collision_boltzmann import SpectralPlan, boltzmann_rhs
from kinproj.errors import ConfigurationError, StepRejectionError
from kinproj.integrators import (
    CLASSIC_RK4,
    FORWARD_EULER,
    IntegratorPlan,
    RKTableau,
    rhs_total,
    rk_step,
    telescopic_step,
)
from kinproj.phase_space import DistributionField, SpatialGrid, VelocityGrid, maxwellian
from kinproj.scenarios_cli import initial_field, resolve_run
from kinproj.transport_weno import bind, transport_rhs

MIDPOINT_RK2 = RKTableau([[0.0, 0.0], [0.5, 0.0]], [0.0, 1.0])


def one_level(dt_inner, K, dt_outer, tableau=FORWARD_EULER):
    """Projective plan: K+1 inner steps of dt_inner, chord across dt_outer."""
    return IntegratorPlan(dt_inner, (K,), (dt_outer / dt_inner - (K + 1),), tableau)


def test_tableau_validation():
    assert FORWARD_EULER.stages == 1
    assert MIDPOINT_RK2.stages == 2
    assert CLASSIC_RK4.stages == 4
    assert np.array_equal(CLASSIC_RK4.c, [0.0, 0.5, 0.5, 1.0])  # the row sums of a
    with pytest.raises(ConfigurationError):
        RKTableau([[0.0]], [0.9])  # weights do not sum to 1
    with pytest.raises(ConfigurationError):
        RKTableau([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])  # c=0 reused
    with pytest.raises(ConfigurationError):
        RKTableau([[0.0, 0.5], [0.5, 0.0]], [0.0, 1.0])  # not explicit
    with pytest.raises(ConfigurationError):
        RKTableau([[0.0, 0.0], [1.5, 0.0]], [0.0, 1.0])  # c > 1


def test_forward_euler_scalar():
    assert rk_step(lambda u: -u, 1.0, 0.1, FORWARD_EULER) == 0.9
    # annihilation at the stability-polynomial root
    assert rk_step(lambda u: (-1.0 / 0.1) * u, 1.0, 0.1, FORWARD_EULER) == 0.0
    with pytest.raises(ConfigurationError):
        rk_step(lambda u: -u, 1.0, 0.0, FORWARD_EULER)
    with pytest.raises(ConfigurationError):
        rk_step(lambda u: -u, 1.0, -0.1, FORWARD_EULER)


def test_forward_euler_zero_rhs_identity():
    rng = np.random.default_rng(0)
    state = rng.uniform(0.5, 1.5, size=(3, 4))
    out = rk_step(lambda u: np.zeros_like(u), state, 0.2, FORWARD_EULER)
    assert np.array_equal(out, state)


def test_rk4_scalar_stability_polynomial():
    # sum_{n<=4} (-0.1)^n / n! = 0.9048375 exactly in decimal
    assert rk_step(lambda u: -u, 1.0, 0.1, CLASSIC_RK4) == pytest.approx(0.9048375, rel=1e-14)


def test_rk4_matches_matrix_polynomial():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(8, 8))
    u0 = rng.normal(size=8)
    h = 0.05
    acc = np.eye(8)
    p = np.eye(8)
    for n in range(1, 5):
        p = p @ (h * a) / n
        acc = acc + p
    ref = acc @ u0
    got = rk_step(lambda v: a @ v, u0, h, CLASSIC_RK4)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_rk_step_zero_rhs_identity():
    rng = np.random.default_rng(1)
    state = rng.uniform(0.5, 1.5, size=(3, 4))
    out = rk_step(lambda u: np.zeros_like(u), state, 0.3, CLASSIC_RK4)
    assert np.array_equal(out, state)


def ref_rk_step(rhs, state, h, tableau):
    """The plain explicit Runge-Kutta loop, kept as a reference for `_rk`."""
    slopes = []
    for s in range(tableau.stages):
        y = state
        for l in range(s):
            w = tableau.a[s, l]
            if w != 0.0:
                y = y + (h * w) * slopes[l]
        slopes.append(rhs(y))
    out = state
    for s in range(tableau.stages):
        w = tableau.b[s]
        if w != 0.0:
            out = out + (h * w) * slopes[s]
    return out


KUTTA_RK3 = RKTableau(
    [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
    [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
)


def test_rk_step_matches_reference_loop():
    # one nonzero weight per row, equal to c_s: the chord form is bit for bit
    # the plain loop; two weights in a row reassociate the stage sum
    rng = np.random.default_rng(13)
    state = rng.uniform(0.5, 1.5, size=(4, 6))
    rhs = lambda u: np.sin(3.0 * u) - 0.7 * u * u
    for tableau in (FORWARD_EULER, MIDPOINT_RK2, CLASSIC_RK4):
        assert np.array_equal(rk_step(rhs, state, 0.07, tableau),
                              ref_rk_step(rhs, state, 0.07, tableau))
        assert rk_step(rhs, 0.9, 0.07, tableau) == ref_rk_step(rhs, 0.9, 0.07, tableau)
    np.testing.assert_allclose(rk_step(rhs, state, 0.07, KUTTA_RK3),
                               ref_rk_step(rhs, state, 0.07, KUTTA_RK3), rtol=1e-14, atol=0)
    assert rk_step(rhs, 0.9, 0.07, KUTTA_RK3) == pytest.approx(
        ref_rk_step(rhs, 0.9, 0.07, KUTTA_RK3), rel=1e-14)


def test_plan_validation():
    plan = IntegratorPlan(1e-5, (2,), (397.0,), CLASSIC_RK4)
    assert plan.levels == 1
    assert plan.h == (1e-5, 4e-3)
    assert IntegratorPlan(0.05, (), ()).h == (0.05,)
    with pytest.raises(ConfigurationError):
        IntegratorPlan(1e-5, (2,), (-1.0,))
    with pytest.raises(ConfigurationError):
        IntegratorPlan(1e-5, (2.5,), (396.5,))  # non-integer K
    with pytest.raises(ConfigurationError):
        IntegratorPlan(-1e-5, (2,), (397.0,))
    with pytest.raises(ConfigurationError):
        IntegratorPlan(1e-5, (2, 2), (397.0,))
    with pytest.raises(ConfigurationError, match="finite"):
        IntegratorPlan(1e-5, (2,), (math.inf,))
    with pytest.raises(ConfigurationError, match="finite"):
        IntegratorPlan(math.nan, (), ())


def test_projective_feasibility():
    with pytest.raises(ConfigurationError):
        one_level(0.1, 2, 0.2)  # 0.2 < 3 * 0.1
    # equality is allowed: M = 0 degenerates to the damped sweep alone
    out = telescopic_step(lambda u: -u, 1.0, one_level(0.1, 2, 0.30000000000000004))
    assert math.isfinite(out)


def test_pfe_dahlquist_annihilation():
    # lambda*dt = -1 zeroes every inner iterate after the first step
    dt = 0.25
    out = telescopic_step(lambda u: (-1.0 / dt) * u, 1.0, one_level(dt, 2, 12 * dt))
    assert out == 0.0


def test_pfe_amplification_matches_closed_form():
    rng = np.random.default_rng(42)
    for _ in range(200):
        dt_in = 10 ** rng.uniform(-4, -1)
        k = int(rng.integers(0, 9))
        m = rng.uniform(0.0, 50.0)
        z = -1.0 + rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        lam = z / dt_in
        dt_out = (m + k + 1) * dt_in
        got = telescopic_step(lambda u: lam * u, 1.0 + 0.0j, one_level(dt_in, k, dt_out))
        m_eff = dt_out / dt_in - (k + 1)
        oracle = (1 + z) ** k * (1 + z + m_eff * z)
        assert abs(got - oracle) <= 1e-14 * max(1.0, abs(oracle))


def test_projective_zero_rhs_identity():
    rng = np.random.default_rng(2)
    state = rng.uniform(0.5, 1.5, size=(3, 4))
    out = telescopic_step(lambda u: np.zeros_like(u), state, one_level(1e-3, 2, 1e-1, CLASSIC_RK4))
    assert np.array_equal(out, state)


def test_telescopic_zero_factors_is_forward_euler():
    rng = np.random.default_rng(6)
    state = rng.uniform(0.5, 1.5, size=(4, 6))
    rhs = lambda u: -u + 0.3 * u * u
    h = 1e-3
    plan = IntegratorPlan(h, (0, 0), (0.0, 0.0), FORWARD_EULER)
    x = state
    y = state
    for _ in range(5):
        x = telescopic_step(rhs, x, plan)
        y = rk_step(rhs, y, h, FORWARD_EULER)
    assert np.array_equal(x, y)


def test_telescopic_zero_rhs_identity():
    plan = IntegratorPlan(1e-4, (3, 3), (36.0, 16.0), CLASSIC_RK4)
    state = np.full((3, 5), 1.3)
    out = telescopic_step(lambda u: np.zeros_like(u), state, plan)
    assert np.array_equal(out, state)


def test_telescopic_level0_is_plain_tableau_step():
    rng = np.random.default_rng(7)
    state = rng.uniform(0.5, 1.5, size=(3,))
    rhs = lambda u: np.sin(u)
    plan = IntegratorPlan(0.05, (), (), CLASSIC_RK4)
    assert np.array_equal(telescopic_step(rhs, state, plan), rk_step(rhs, state, 0.05, CLASSIC_RK4))


def test_benchmark_two_level_layout():
    plan = IntegratorPlan(1e-5, (6, 6), (14.24, 11.83), CLASSIC_RK4)
    assert plan.h[2] == pytest.approx(21.24 * 18.83 * 1e-5, rel=1e-12)
    assert plan.h[2] == pytest.approx(3.9995e-3, rel=1e-5)  # product to 5 digits
    assert plan.h[2] == pytest.approx(0.4 * 0.01, rel=2e-4)


def test_time_bookkeeping_random_plans():
    # u' = 1 advances exactly one outer step of simulated time, and a landing
    # step of any length from the top damping sweep up to the outer step
    # advances exactly that length
    rng = np.random.default_rng(3)
    landing = np.random.default_rng(4)
    tableaus = [FORWARD_EULER, MIDPOINT_RK2, CLASSIC_RK4]
    for _ in range(20):
        levels = int(rng.integers(1, 4))
        h0 = 10 ** rng.uniform(-6, -3)
        ks, ms = [], []
        for _ in range(levels):
            ks.append(int(rng.integers(0, 5)))
            ms.append(rng.uniform(0.0, 20.0))
        plan = IntegratorPlan(h0, ks, ms, tableaus[int(rng.integers(0, 3))])
        u = telescopic_step(lambda x: 1.0, 0.0, plan)
        assert abs(u - plan.h[-1]) <= 1e-12 * plan.h[-1]
        h = landing.uniform((ks[-1] + 1) * plan.h[-2], plan.h[-1])
        u = telescopic_step(lambda x: 1.0, 0.0, plan, h=h)
        assert abs(u - h) <= 1e-12 * h


def test_telescopic_amplification_matches_recursion():
    # a level-l step of u' = lam*u multiplies by a_l, where a_0 = 1 + z and
    # a_l = a^K (a + (h_l/h_{l-1} - K - 1)(a - 1)) with a = a_{l-1}, K = K[l-1]
    rng = np.random.default_rng(21)
    for _ in range(1000):
        levels = int(rng.integers(2, 4))
        h0 = 10 ** rng.uniform(-4, -1)
        ks = [int(k) for k in rng.integers(0, 6, size=levels)]
        plan = IntegratorPlan(h0, ks, rng.uniform(0.0, 20.0, size=levels))
        z = -1.0 + rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        lam = z / h0
        a = 1.0 + z
        for l, k in enumerate(ks, start=1):
            a = a**k * (a + (plan.h[l] / plan.h[l - 1] - k - 1) * (a - 1.0))
        got = telescopic_step(lambda u: lam * u, 1.0 + 0.0j, plan)
        assert abs(got - a) <= 1e-13 * max(1.0, abs(a))


@pytest.mark.parametrize("levels", [1, 2])
def test_telescopic_step_rejects_step_shorter_than_sweep(levels):
    plan = IntegratorPlan(1e-3, (2,) * levels, (4.0,) * levels)
    lead = 3 * plan.h[-2]
    assert math.isfinite(telescopic_step(lambda u: -u, 1.0, plan, h=lead))
    for h in (lead / 2, 0.0, -0.1, math.nan):
        with pytest.raises(ConfigurationError, match="damping sweep"):
            telescopic_step(lambda u: -u, 1.0, plan, h=h)


def test_prk4_temporal_order():
    # affine decay toward 1; inner step small enough that the chord bias sits
    # below the finest outer error (measured EOCs 4.12 / 4.00 / 4.00)
    t_end = 0.4
    exact = 1.0 - math.exp(-t_end)
    errs = []
    for dt_out in (0.2, 0.1, 0.05, 0.025):
        u = 0.0
        for _ in range(round(t_end / dt_out)):
            u = telescopic_step(lambda x: 1.0 - x, u, one_level(1e-9, 2, dt_out, CLASSIC_RK4))
        errs.append(abs(u - exact))
    for i in range(3):
        assert math.log2(errs[i] / errs[i + 1]) >= 3.8


def test_step_rejection_on_non_finite():
    def bad_rhs(u):
        out = np.zeros_like(u)
        out[1, 2] = np.nan
        return out

    state = np.ones((3, 4))
    with pytest.raises(StepRejectionError, match=r"state index \(1, 2\)") as exc:
        rk_step(bad_rhs, state, 0.1, FORWARD_EULER)
    assert exc.value.index == (1, 2)
    with pytest.raises(StepRejectionError):
        rk_step(bad_rhs, state, 0.1, CLASSIC_RK4)
    plan = IntegratorPlan(0.01, (1,), (3.0,), FORWARD_EULER)
    with pytest.raises(StepRejectionError):
        telescopic_step(bad_rhs, state, plan)


def test_rhs_returns_a_new_array_each_call():
    # rk_step keeps earlier stage slopes and jacobian_probe subtracts two
    # consecutive results, so a result must survive the next call
    run = resolve_run("sod_1d1d")
    f = initial_field(run)
    g = f * np.random.default_rng(3).uniform(0.9, 1.1, f.shape)
    r1 = run.rhs(f)
    r1c = r1.copy()
    r2 = run.rhs(g)
    assert np.array_equal(r1, r1c)
    assert r2 is not r1
    assert not np.shares_memory(r1, r2)


def warm_peak(call):
    """Peak traced allocation of a second call, the first having warmed it."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def allocation_budget(f):
    # the one field-sized array a warmed call makes is its result (the BGK
    # Maxwellian, which the transport subtracts from); numpy adds a buffer
    # of at most np.getbufsize() values for a broadcast operand of a ufunc
    # (about f.nbytes on this 100 x 80 grid), and the moments are per cell
    return 1.25 * f.nbytes + 8 * np.getbufsize()


def test_rhs_allocation_budget():
    # a warmed closure reuses its transport buffers and grid layout
    run = resolve_run("sod_1d1d")
    f = initial_field(run)
    assert warm_peak(lambda: run.rhs(f)) <= allocation_budget(f)
    # the spectral term holds its result, the Maxwellian M_N[f] and one kernel
    # block's spectra: Q_N(M_N[f]) is subtracted block by block (2.39 fields)
    run = resolve_run("double_sod_2d", preset="desk")
    f = initial_field(run)
    assert warm_peak(lambda: run.rhs(f)) <= 2.5 * f.nbytes


def test_forward_euler_allocation_budget():
    # the step's new state is the RHS result, scaled and shifted in place
    run = resolve_run("sod_1d1d")
    f = initial_field(run)
    step = lambda: rk_step(run.rhs, f, 1e-6, FORWARD_EULER)
    assert warm_peak(step) <= allocation_budget(f)


@pytest.mark.parametrize("K,M,fields", [((2,), (10.0,), 5.1), ((3, 3), (4.0, 5.0), 6.1)])
def test_telescopic_step_retires_fields_at_last_use(K, M, fields):
    # an RK4 stage holds the base, the running sum and its start, and each
    # level of the sweep below it one state besides the RHS result: 5.02
    # fields for prk4 and 6.02 for two-level tprk4
    u = np.random.default_rng(14).uniform(0.5, 1.5, size=(64, 256))
    plan = IntegratorPlan(1e-3, K, M, CLASSIC_RK4)
    assert warm_peak(lambda: telescopic_step(lambda y: -y, u, plan)) <= fields * u.nbytes


def test_rhs_total_uniform_maxwellian_vanishes():
    vg = VelocityGrid(1, 8.0, 64)
    sg = SpatialGrid([0.0], [1.0], [8], "periodic")
    slice_m = maxwellian(vg, 1.0, [0.0], 1.0)
    field = DistributionField(np.broadcast_to(slice_m, (8, 64)).copy(), sg, vg)
    bgk = ("bgk", 1.0)
    total = rhs_total(field, bind(sg, vg, 2), bgk)
    assert np.abs(total).max() <= 1e-6


def test_rhs_total_boltzmann_assembly():
    vg = VelocityGrid(2, 8.0, 16)
    sg = SpatialGrid([0.0], [1.0], [4], "periodic")
    rng = np.random.default_rng(10)
    values = rng.uniform(0.5, 1.0, size=(4, 16, 16))
    field = DistributionField(values, sg, vg)
    plan = SpectralPlan(VelocityGrid(2, 8.0, 16))
    total = rhs_total(field, bind(sg, vg, 2), (plan, 0.5))
    # the collision term is the output the transport subtracts its fluxes from
    manual = transport_rhs(field, bind(sg, vg, 2), boltzmann_rhs(field, plan, 0.5))
    assert np.array_equal(total, manual)
    fluxes = transport_rhs(field, bind(sg, vg, 2), np.zeros(values.shape))
    summed = fluxes + boltzmann_rhs(field, plan, 0.5)
    assert np.abs(total - summed).max() <= 1e-14 * np.abs(summed).max()


def test_rhs_total_collision_only():
    # every model is one (term, epsilon) pair, handed to its operator as is
    sg = SpatialGrid([0.0], [1.0], [4], "periodic")
    rng = np.random.default_rng(12)
    fields = [DistributionField(rng.uniform(0.5, 1.0, size=(4,) + vg.counts), sg, vg)
              for vg in (VelocityGrid(1, 8.0, 32), VelocityGrid(2, 8.0, 16))]
    for field in fields:
        for term in ("bgk", "bgk-rho"):
            assert np.array_equal(rhs_total(field, None, (term, 0.1)), bgk_rhs(field, term, 0.1))
    field, plan = fields[1], SpectralPlan(fields[1].vgrid)
    assert np.array_equal(rhs_total(field, None, (plan, 0.1)), boltzmann_rhs(field, plan, 0.1))
    with pytest.raises(ConfigurationError, match="BGK term must be one of"):
        rhs_total(field, None, ("boltzmann", 0.1))  # a name, not a SpectralPlan
