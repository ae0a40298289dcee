"""End-to-end acceptance gate: one test per shipped claim, one summary line each.

Two criteria carry documented honest failures (see the README and
CHANGES.md): criterion 3's heat-flux clause (the stated telescopic plan's
extrapolated output carries a partly damped fast transient, on top of a
floor of about 1.2e-1 at the shock and contact that more damping does not
remove) and criterion 7 (equilibrium annihilation at the extreme corners of
the sampled state box exceeds the bound on the mandated V=8, J=32 grid for
both operators). Everything else is expected to pass, and within each
failing test the passing clauses are asserted first.
"""
import math
import time

import numpy as np
import pytest

from conftest import ACCEPTANCE
from test_collision_boltzmann import direct_q
from test_spectrum_probe import build_linearized_bgk
from kinproj.collision_bgk import BgkConfig, bgk_rhs
from kinproj.errors import DiagnosticError, StepRejectionError
from kinproj.collision_boltzmann import DEFAULT_B0, SpectralPlan, boltzmann_q
from kinproj.integrators import (
    CLASSIC_RK4,
    FORWARD_EULER,
    IntegratorPlan,
    make_rhs,
    rk_step,
    telescopic_step,
)
from kinproj.phase_space import (
    DistributionField,
    SpatialGrid,
    VelocityGrid,
    heat_flux,
    maxwellian,
    moments,
)
from kinproj.planner import plan_levels, speedup
from kinproj.scenarios_cli import initial_field, resolve_run, run_simulation
from kinproj.spectrum_probe import jacobian_probe, spectrum
from kinproj.transport_weno import bind, transport_rhs


def record(num, ok, detail):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    ACCEPTANCE.append(line)
    return ok


def load_snapshot(path):
    return np.loadtxt(path, delimiter=",", skiprows=2)


def density_front(sgrid, rho, level=1.5):
    """x of the first downward crossing of rho=level along the y midline."""
    rho = np.asarray(rho)
    x = sgrid.centers[0]
    line = rho if rho.ndim == 1 else rho[:, rho.shape[1] // 2]
    for i in range(line.size - 1):
        if line[i] >= level > line[i + 1]:
            s = (line[i] - level) / (line[i] - line[i + 1])
            return float(x[i] + s * (x[i + 1] - x[i]))
    raise DiagnosticError(f"no downward rho={level} crossing on the midline")


def test_density_front_interpolation():
    sg = SpatialGrid(0.0, 1.0, (10,), "outflow")
    rho = np.array([2.0, 2.0, 2.0, 1.75, 1.25, 1.0, 1.0, 1.0, 2.5, 1.0])
    # crossing between cells 3 (1.75) and 4 (1.25): midpoint of x=0.35, 0.45
    assert density_front(sg, rho) == pytest.approx(0.4, abs=1e-12)
    with pytest.raises(DiagnosticError):
        density_front(sg, np.ones(10))


def test_acceptance_01_speedup_figures():
    cases = [
        (2, (397.0,), 133.3),
        (6, (14.24, 11.83), 8.2),
        (4, (14.24, 11.83), 13.0),
        (3, (86.0,), 22.5),
        (3, (6.66, 4.80), 5.9),
    ]
    devs = [abs(speedup(IntegratorPlan(1e-5, (k,) * len(ms), ms, CLASSIC_RK4)) - fig)
            for k, ms, fig in cases]
    ok = max(devs) <= 0.1
    record(1, ok, f"five ladder speedups within 0.1 (worst dev {max(devs):.3f})")
    assert ok


def test_acceptance_02_plan_consistency():
    plan = IntegratorPlan(1e-5, (6, 6), (14.24, 11.83), CLASSIC_RK4)
    dev = abs(plan.h[2] - 0.4 * 0.01) / (0.4 * 0.01)
    levels = plan_levels(1e-5, 4e-3, 20.0)
    ok = dev <= 1e-3 and levels == 2
    record(2, ok, f"step-ratio product dev {dev:.2e} (<=1e-3), level count {levels} (==2)")
    assert dev <= 1e-3
    assert levels == 2


@pytest.mark.slow
def test_acceptance_03_sod_method_equivalence(tmp_path):
    t0 = time.perf_counter()
    run_simulation(resolve_run("sod_1d1d", integrator="tprk4", collision="bgk-rho",
                               K=6, M=(14.24, 11.83), snapshots=2), tmp_path / "tpi")
    run_simulation(resolve_run("sod_1d1d", integrator="rk4", collision="bgk-rho",
                               cfl=5.0e-4, snapshots=2), tmp_path / "ref")
    elapsed = time.perf_counter() - t0
    a = load_snapshot(tmp_path / "tpi" / "snapshot_001.csv")
    b = load_snapshot(tmp_path / "ref" / "snapshot_001.csv")
    rel = lambda i: np.sum(np.abs(a[:, i] - b[:, i])) / np.sum(np.abs(b[:, i]))
    drho, du, dT, dq = rel(1), rel(2), rel(3), rel(4)
    ok = drho <= 2e-2 and du <= 2e-2 and dT <= 2e-2 and dq <= 5e-2 and elapsed <= 600
    record(3, ok, f"rel L1: rho {drho:.1e} u {du:.1e} T {dT:.1e} (<=2e-2), "
                  f"heat flux {dq:.1e} (<=5e-2), {elapsed:.0f}s")
    assert elapsed <= 600
    assert drho <= 2e-2
    assert du <= 2e-2
    assert dT <= 2e-2
    # documented honest failure: the extrapolated output state carries a
    # partly damped fast transient (ending on the inner steps gives 1.2e-1),
    # and a floor of about 1.2e-1 at the shock and contact remains that more
    # damping does not remove
    assert dq <= 5e-2


def test_acceptance_04_limit_sharpening(tmp_path):
    t0 = time.perf_counter()
    run_simulation(resolve_run("sod_1d1d", integrator="prk4", epsilon=1e-6,
                               nx=(400,), snapshots=2), tmp_path / "ref")
    rho_ref = load_snapshot(tmp_path / "ref" / "snapshot_001.csv")[:, 1]
    rho_ref = rho_ref.reshape(100, 4).mean(axis=1)
    dists = []
    for eps, integ, cfl in ((1e-1, "rk4", 0.1), (1e-2, "rk4", 0.1),
                            (1e-5, "prk4", None)):
        out = tmp_path / f"eps{eps:g}"
        run_simulation(resolve_run("sod_1d1d", integrator=integ, epsilon=eps,
                                   cfl=cfl, snapshots=2), out)
        rho = load_snapshot(out / "snapshot_001.csv")[:, 1]
        dists.append(np.sum(np.abs(rho - rho_ref)) * 0.01)
    elapsed = time.perf_counter() - t0
    ok = dists[0] > dists[1] > dists[2] and elapsed <= 900
    record(4, ok, "L1(rho) to the small-epsilon reference decreases with epsilon: "
                  + " > ".join(f"{d:.2e}" for d in dists) + f", {elapsed:.0f}s")
    assert elapsed <= 900
    assert dists[0] > dists[1] > dists[2]


def test_acceptance_05_collision_model_ordering(tmp_path):
    t0 = time.perf_counter()
    rho = {}
    for tag, coll in (("spectral", "boltzmann"), ("rho", "bgk-rho"), ("one", "bgk")):
        out = tmp_path / tag
        run_simulation(resolve_run("sod_1d2v", preset="desk", integrator="rk4",
                                   epsilon=1e-2, cfl=0.1, snapshots=2,
                                   collision=coll), out)
        rho[tag] = load_snapshot(out / "snapshot_001.csv")[:, 1]
    elapsed = time.perf_counter() - t0
    d_rho = np.sum(np.abs(rho["rho"] - rho["spectral"]))
    d_one = np.sum(np.abs(rho["one"] - rho["spectral"]))
    ok = d_rho < d_one and elapsed <= 1200
    record(5, ok, f"L1(rho) to the spectral-collision run: density-scaled rate "
                  f"{d_rho:.3f} < constant rate {d_one:.3f}, {elapsed:.0f}s")
    assert elapsed <= 1200
    assert d_rho < d_one


def test_acceptance_06_fast_spectral_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (8, 16):
        plan = SpectralPlan(VelocityGrid(2, 8.0, n), n_theta=4)
        rng = np.random.default_rng(600 + n)
        for _ in range(10):
            s = rng.uniform(0.1, 1.1, size=(n, n))
            fast = boltzmann_q(plan, s)
            ref = direct_q(n, 8.0, 4, DEFAULT_B0, s)
            worst = max(worst, np.abs(fast - ref).max() / np.abs(ref).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed <= 60
    record(6, ok, f"20 slices vs direct scatter sum, worst rel {worst:.2e} "
                  f"(<=1e-10), {elapsed:.1f}s")
    assert elapsed <= 60
    assert worst <= 1e-10


def test_acceptance_07_equilibrium_annihilation():
    vg = VelocityGrid(2, 8.0, (32, 32))
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32), n_theta=8)
    states = [(r, (s, 0.0), T) for r in (0.1, 1.0, 2.0) for s in (0.0, 1.0, 2.0)
              for T in (0.25, 1.0, 2.0)]
    rng = np.random.default_rng(7)
    for _ in range(20):
        ang = rng.uniform(0, 2 * np.pi)
        spd = rng.uniform(0.0, 2.0)
        states.append((rng.uniform(0.1, 2.0),
                       (spd * np.cos(ang), spd * np.sin(ang)),
                       rng.uniform(0.25, 2.0)))
    worst_g = worst_b = 0.0
    arg_g = arg_b = None
    for rho, u, T in states:
        f = maxwellian(vg, np.float64(rho), np.array(u), np.float64(T))
        mom = moments(vg, f)
        dg = np.abs(maxwellian(vg, mom.rho, mom.u, mom.T) - f).max()
        db = np.abs(boltzmann_q(plan, f)).max()
        if dg > worst_g:
            worst_g, arg_g = dg, (rho, u, T)
        if db > worst_b:
            worst_b, arg_b = db, (rho, u, T)
    ok = worst_g <= 1e-5 and worst_b <= 1e-5
    record(7, ok, f"scaled residual at Maxwellians (<=1e-5): relaxation "
                  f"{worst_g:.2e} at {arg_g}, spectral {worst_b:.2e} at {arg_b}")
    # documented honest failure at the box corners: tail truncation at the
    # velocity-box edge (relaxation) and one-node-per-thermal-width aliasing
    # (spectral); both collapse with a larger box resp. finer grid
    assert worst_g <= 1e-5
    assert worst_b <= 1e-5


def test_acceptance_08_collision_conservation():
    vg = VelocityGrid(2, 8.0, (32, 32))
    sg = SpatialGrid((0.0,), (1.0,), (2,), "periodic")
    plan = SpectralPlan(VelocityGrid(2, 8.0, 32), n_theta=8)
    f = np.stack([
        maxwellian(vg, 1.0, [0.5, -0.3], 1.2) + maxwellian(vg, 0.6, [-0.8, 0.2], 0.8),
        maxwellian(vg, 1.4, [0.0, 0.9], 1.0) + maxwellian(vg, 0.3, [0.7, 0.4], 1.4),
    ])
    w = vg.weight
    vx, vy = vg.node_component(0), vg.node_component(1)
    e = vg.speed2.reshape(vg.counts)
    rhs_b = np.stack([boltzmann_q(plan, f[i]) for i in range(2)])
    rhs_g = bgk_rhs(DistributionField(f, sg, vg), BgkConfig("constant", 1.0))
    worst = 0.0
    for q in (rhs_g, rhs_b):
        for i in range(2):
            for phi in (np.ones(vg.counts), vx, vy, e):
                num = abs(np.sum(w * phi * q[i]))
                den = np.sum(w * np.abs(phi) * np.abs(q[i])) + 1e-300
                worst = max(worst, num / den)
    ok = worst <= 1e-6
    record(8, ok, f"mass/momentum/energy moments of both collision right-hand "
                  f"sides vanish, worst rel {worst:.2e} (<=1e-6)")
    assert ok


def test_acceptance_09_transport_order():
    def l1_err(N, k):
        sg = SpatialGrid((0.0,), (1.0,), N, "periodic")
        vg = VelocityGrid(1, 2.0, 2)
        x = sg.centers[0]
        f = np.tile(np.sin(2 * np.pi * x)[:, None], (1, 2))
        r = transport_rhs(DistributionField(f, sg, vg), bind(sg, vg, k), np.zeros(f.shape))
        return np.mean(np.abs(r[:, 1] + 2 * np.pi * np.cos(2 * np.pi * x)))

    o2 = math.log2(l1_err(256, 2) / l1_err(512, 2))
    o3 = math.log2(l1_err(32, 3) / l1_err(64, 3))
    ok = o2 >= 2.7 and o3 >= 4.5
    record(9, ok, f"observed advection order k=2: {o2:.2f} (>=2.7), "
                  f"k=3: {o3:.2f} (>=4.5)")
    assert o2 >= 2.7
    assert o3 >= 4.5


def test_acceptance_10_projective_amplification():
    rng = np.random.default_rng(1042)
    worst = 0.0
    for _ in range(1000):
        dt_in = 10 ** rng.uniform(-4, -1)
        k = int(rng.integers(0, 9))
        m = rng.uniform(0.0, 50.0)
        z = -1.0 + rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        lam = z / dt_in
        plan = IntegratorPlan(dt_in, (k,), (m,), FORWARD_EULER)
        got = telescopic_step(lambda u: lam * u, 1.0 + 0.0j, plan)
        oracle = (1 + z) ** k * (1 + z + m * z)
        worst = max(worst, abs(got - oracle) / max(1.0, abs(oracle)))
    ok = worst <= 1e-14
    record(10, ok, f"1000 scalar draws vs stability-polynomial oracle, "
                   f"worst {worst:.2e} (<=1e-14)")
    assert ok


def test_acceptance_11_spectrum_clusters():
    t0 = time.perf_counter()
    eps = 1e-3
    rep = spectrum(build_linearized_bgk(VelocityGrid(2, 8.0, (16, 16)), eps))
    eig = rep.eigenvalues
    dist = np.minimum(np.abs(eig), np.abs(eig + 1.0 / eps)).max()
    kernel = int(np.count_nonzero(np.abs(eig) <= 1e-3 / eps))
    vg = VelocityGrid(1, 8.0, (16,))
    sg = SpatialGrid(0.0, 1.0, (8,), "periodic")
    f = np.broadcast_to(maxwellian(vg, 1.0, np.zeros(1), 1.0), (8, 16)).copy()
    rhs = make_rhs(sg, vg, 2, BgkConfig("constant", eps))
    gap = spectrum(jacobian_probe(rhs, f)).gap_ratio
    elapsed = time.perf_counter() - t0
    ok = dist <= 1e-3 / eps and kernel == 4 and gap >= 10.0 and elapsed <= 120
    record(11, ok, f"collision eigenvalues within {1e-3 / eps:g} of {{0, -1/eps}} "
                   f"(worst {dist:.2e}), kernel x{kernel} (==4), transport-on "
                   f"gap ratio {gap:.1f} (>=10), {elapsed:.0f}s")
    assert elapsed <= 120
    assert dist <= 1e-3 / eps
    assert kernel == 4
    assert gap >= 10.0


@pytest.mark.slow
def test_acceptance_12_desk_scale_structure(tmp_path):
    t0 = time.perf_counter()
    status = {}
    for name in ("shock_bubble", "kelvin_helmholtz", "double_sod_2d"):
        try:
            man = run_simulation(resolve_run(name, preset="desk"), tmp_path / name)
            status[name] = man["status"]
        except StepRejectionError as exc:
            status[name] = f"rejected ({exc})"

    run = resolve_run("double_sod_2d", preset="desk")
    f = initial_field(run)
    for _ in range(50):
        f = rk_step(run.rhs, f, run.plan.h[0], FORWARD_EULER)
    mom = moments(run.vgrid, f)
    q = heat_flux(run.vgrid, f, mom)
    sym = max(np.abs(mom.rho - mom.rho.T).max(),
              np.abs(mom.u[..., 0] - mom.u[..., 1].T).max(),
              np.abs(mom.T - mom.T.T).max(),
              np.abs(q[..., 0] - q[..., 1].T).max())

    sb = resolve_run("shock_bubble", preset="desk")
    fronts = []
    for i in (1, 2):  # the t=0.2 and t=0.4 snapshots
        data = load_snapshot(tmp_path / "shock_bubble" / f"snapshot_{i:03d}.csv")
        fronts.append(density_front(sb.sgrid, data[:, 2].reshape(sb.sgrid.counts)))
    elapsed = time.perf_counter() - t0
    ok = (all(s == "completed" for s in status.values())
          and sym <= 1e-6 and fronts[1] > fronts[0])
    record(12, ok, f"desk smoke runs {status}, diagonal-reflection deviation "
                   f"after 50 steps {sym:.1e} (<=1e-6), density front "
                   f"{fronts[0]:.2f} -> {fronts[1]:.2f} (rightward), {elapsed:.0f}s")
    # the double-Sod completion is asserted last: on its desk velocity grid
    # the raw spectral operator does not vanish at Maxwellians, and the run
    # completes only because the collision right-hand side subtracts the
    # operator at the local Maxwellian (steady-state-preserving form)
    assert status["shock_bubble"] == "completed"
    assert status["kelvin_helmholtz"] == "completed"
    assert sym <= 1e-6
    assert fronts[1] > fronts[0]
    assert status["double_sod_2d"] == "completed"
