"""Correctness checks of one workload run, against references made apart.

Every reference here is computed by the benchmark itself (oracles.py) or is
a property the method must keep; nothing is compared with a stored copy of
earlier output, and nothing is imported from the repository's tests. The
Riemann data are read off the run's own t = 0 snapshot, so the checks keep
working if the scenario data are corrected.
"""

import math

import numpy as np

from oracles import carleman_q, discrete_maxwellian, riemann_sample

# Relative L1 bounds against the exact Euler solution with gamma = (dv+2)/dv.
# Measured on the first version of this benchmark: sod1d 1.5e-2 / 4.0e-2 /
# 3.0e-2 for (rho, u, T); with the wrong gamma = 2 the same run scores
# 7.1e-2 / 2.9e-1 / 1.7e-1. bubble2d at t = 0.2: 2.7e-2 / 8.1e-2 / 5.9e-2;
# with gamma = 5/3 it scores 5.0e-2 / 1.1e-1 / 7.4e-2.
RIEMANN_BOUNDS = {
    "sod1d_tprk4": (3e-2, 8e-2, 6e-2),
    "bubble2d_bgk": (3.5e-2, 1e-1, 7e-2),
}
# time of the bubble snapshot compared with the 1D solution: the shock has
# not yet met the waves sent out by the bubble
BUBBLE_RIEMANN_T = 0.2
# the bubble reaches as far as its density differs from the right state by
# this share at t = 0, widened by the right state's sound speed times t
BUBBLE_EDGE = 1e-3
# mirror and diagonal symmetries hold to roundoff (3e-11 and 2.5e-14 seen)
SYMMETRY_BOUND = 1e-9
# total-mass drift: 1.9e-11 (sod1d, uniform states at both outflow ends)
# and 1.4e-8 (dsod2d, whose quadrants touch the outflow boundaries)
MASS_BOUNDS = {"sod1d_tprk4": 1e-9, "dsod2d_spectral": 1e-6}
# fast spectral operator against the scatter sum, as acceptance criterion 6
SPECTRAL_BOUND = 1e-10
SPECTRAL_CELLS = 3  # drawn from the most and from the least relaxed cells


def read_snapshot(path, counts):
    """(t, {column: array shaped like the spatial grid}) of one CSV snapshot."""
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().split()
        names = fh.readline().strip().split(",")
    t = float(next(h for h in head if h.startswith("t="))[2:])
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    shape = tuple(counts) if len(counts) == 2 else (counts[0], 1)
    return t, {n: data[:, i].reshape(shape) for i, n in enumerate(names)}


class Report:
    def __init__(self):
        self.items = []

    def add(self, name, value, bound):
        value = float(value)
        ok = bool(math.isfinite(value) and value <= bound)
        self.items.append({"name": name, "value": value, "bound": bound, "ok": ok})


def _rel_l1(a, b):
    b = np.broadcast_to(b, a.shape)
    return float(np.sum(np.abs(a - b)) / np.sum(np.abs(b)))


def _riemann(report, snap0, snap, t, gamma, bounds, edge=None):
    """Compare (rho, u_x, T) with the exact 1D solution along x."""
    x = snap0["x"][:, 0]
    rho0 = snap0["rho"]
    jump = int(np.argmax(np.any(rho0 != rho0[:1], axis=1)))
    x0 = 0.5 * (x[jump - 1] + x[jump])

    def state(i):
        rho = rho0[i].mean()
        return rho, snap0["ux"][i].mean(), rho * snap0["T"][i].mean()

    left, right = state(0), state(jump)
    cols = np.ones(x.size, dtype=bool)
    if edge is not None:
        far = np.any(np.abs(rho0 - right[0]) > edge * right[0], axis=1)
        far[:jump + 1] = False
        reach = x[np.argmax(far)] - math.sqrt(gamma * right[2] / right[0]) * t
        cols = x < reach
    rho, u, p = riemann_sample(left, right, gamma, (x[cols] - x0) / t)
    got = [snap["rho"][cols], snap["ux"][cols], snap["T"][cols]]
    for name, g, ref, bound in zip(("rho", "u", "T"), got, (rho, u, p / rho), bounds):
        report.add(f"riemann.{name}_rel_l1", _rel_l1(g, ref[:, None]), bound)


def _y_mirror(snap):
    dev = 0.0
    for name in ("rho", "T"):
        a = snap[name]
        dev = max(dev, np.abs(a - a[:, ::-1]).max() / np.abs(a).max())
    ux, uy = snap["ux"], snap["uy"]
    scale = max(np.abs(ux).max(), np.abs(uy).max())
    dev = max(dev, np.abs(ux - ux[:, ::-1]).max() / scale,
              np.abs(uy + uy[:, ::-1]).max() / scale)
    return dev


def _diagonal(snap):
    dev = max(np.abs(snap[n] - snap[n].T).max() / np.abs(snap[n]).max()
              for n in ("rho", "T"))
    ux, uy = snap["ux"], snap["uy"]
    scale = max(np.abs(ux).max(), np.abs(uy).max())
    return max(dev, np.abs(ux - uy.T).max() / scale)


def _spectral(report, run, state, seed):
    """Fast Q_N and RHS against the Carleman sum on seeded sample cells."""
    from kinproj.collision_boltzmann import boltzmann_q, boltzmann_rhs
    from kinproj.phase_space import DistributionField, SpatialGrid

    plan, epsilon = run.collision
    V = run.vgrid.half_width
    cells = state.reshape((-1,) + run.vgrid.counts)
    # rank cells by their distance from their own Maxwellian, so the draw
    # covers both the fronts and the relaxed quadrants
    dist = np.array([np.abs(c - discrete_maxwellian(c, V)).max() / np.abs(c).max()
                     for c in cells])
    order = np.argsort(-dist, kind="stable")
    top = max(SPECTRAL_CELLS, order.size // 10)
    rng = np.random.default_rng(seed)
    pick = np.concatenate([rng.choice(order[:top], SPECTRAL_CELLS, replace=False),
                           rng.choice(order[top:], SPECTRAL_CELLS, replace=False)])
    sample = cells[pick]
    field = DistributionField(sample, SpatialGrid(0.0, 1.0, (pick.size,), "periodic"),
                              run.vgrid)
    rhs = boltzmann_rhs(field, plan, epsilon)
    worst_q = worst_rhs = 0.0
    for i, f in enumerate(sample):
        qf = carleman_q(f, V, plan.n_theta)
        qm = carleman_q(discrete_maxwellian(f, V), V, plan.n_theta)
        size = np.abs(qf).max()
        worst_q = max(worst_q, np.abs(boltzmann_q(plan, f) - qf).max() / size)
        # Q_N(f) - Q_N(M) cancels near equilibrium: scale by |Q_N(f)|
        worst_rhs = max(worst_rhs, np.abs(epsilon * rhs[i] - (qf - qm)).max() / size)
    report.add("spectral.q_vs_carleman", worst_q, SPECTRAL_BOUND)
    report.add("spectral.rhs_vs_carleman", worst_rhs, SPECTRAL_BOUND)


def check(workload, run, out_dir, manifest, rhs_evals, last_state, seed):
    """All checks of one finished (or rejected) operation, as a Report."""
    report = Report()
    report.add("status_not_completed", manifest.get("status") != "completed", 0)
    report.add("rhs_evals_vs_manifest", abs(rhs_evals - manifest["steps_per_level"][0]), 0)
    counts = manifest["spatial"]["counts"]
    snaps = [read_snapshot(out_dir / s["file"], counts) for s in manifest["snapshots"]]
    bad = sum(int(np.count_nonzero(~np.isfinite(col))) for _, snap in snaps for col in snap.values())
    bad += int(np.count_nonzero(~np.isfinite(last_state)))
    report.add("non_finite_values", bad, 0)
    report.add("non_positive_rho_or_T",
               sum(int(np.count_nonzero(~(s["rho"] > 0)) + np.count_nonzero(~(s["T"] > 0)))
                   for _, s in snaps), 0)
    if len(snaps) < 2:
        return report
    first = snaps[0][1]
    gamma = (run.vgrid.dv + 2.0) / run.vgrid.dv
    if workload in MASS_BOUNDS:
        mass0 = first["rho"].sum()
        drift = max(abs(s["rho"].sum() - mass0) for _, s in snaps) / mass0
        report.add("mass_drift_rel", drift, MASS_BOUNDS[workload])
    if workload == "sod1d_tprk4":
        t, last = snaps[-1]
        _riemann(report, first, last, t, gamma, RIEMANN_BOUNDS[workload])
    elif workload == "bubble2d_bgk":
        t, snap = min(snaps, key=lambda ts: abs(ts[0] - BUBBLE_RIEMANN_T))
        _riemann(report, first, snap, t, gamma, RIEMANN_BOUNDS[workload], edge=BUBBLE_EDGE)
        report.add("symmetry.y_mirror", max(_y_mirror(s) for _, s in snaps), SYMMETRY_BOUND)
    elif workload == "dsod2d_spectral":
        report.add("symmetry.diagonal", _diagonal(snaps[-1][1]), SYMMETRY_BOUND)
        _spectral(report, run, last_state, seed)
    return report
