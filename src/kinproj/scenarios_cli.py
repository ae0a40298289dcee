"""Benchmark scenario catalogue, simulation driver, and command-line front end.

Scenarios carry the physical setup (domain, initial states, collision model)
plus reference integrator settings. The driver resolves overrides into grids
and an integrator plan, advances between snapshot times with exact remainder
landing, and writes round-trip-exact CSV snapshots plus a JSON manifest.
`describe` builds the one description of a resolved run: `plan` prints it
with predicted steps per level, and the manifest is it plus the measured
snapshots, steps per level, wall time, peak resident memory and status.
"""

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .collision_bgk import BGK_TERMS
from .collision_boltzmann import SpectralPlan
from .errors import ConfigurationError, DiagnosticError, StepRejectionError
from .integrators import IntegratorPlan, make_rhs, rk_step, telescopic_step
from .phase_space import (SpatialGrid, VelocityGrid, check_state, derived, heat_flux,
                          maxwellian, moments)
from .planner import INTEGRATORS, ladder, speedup
from .spectrum_probe import probe_run, write_spectrum_csv

COLLISIONS = BGK_TERMS + ("boltzmann",)
PRESETS = ("paper", "desk")

# resolved step below this fraction of a full step counts as already landed
_REMAINDER_TOL = 1e-9


@dataclass
class Scenario:
    """Physical setup and reference solver settings for one benchmark."""

    name: str
    lower: tuple
    upper: tuple
    counts: tuple
    boundaries: tuple
    dv: int
    half_width: float
    vcounts: tuple
    initial: object  # (*cell-center meshes) -> (rho, u, T)
    collision: str
    epsilon: float
    t_end: float
    integrator: str
    K: int
    cfl: float
    weno_k: int
    desk_counts: tuple
    desk_vcounts: tuple
    # Tuned per-level extrapolation factors, for runs whose collision spectrum
    # fills a band (loss rate ~ rho/epsilon with rho spanning a decade) rather
    # than clustering at one rate. A geometric split of the step ratio leaves
    # mid-band modes outside every level's stability region, so these cannot
    # be re-derived from the grid; None means the planner derives M.
    M: tuple = None


def _sod_states(x, dv):
    left = x < 0.5
    rho = np.where(left, 1.0, 0.125)
    T = np.where(left, 1.0, 0.25)
    return rho, np.zeros(x.shape + (dv,)), T


def _shock_bubble_states(x, y):
    left = x <= -1.0
    r2 = (x - 0.5) ** 2 + y**2
    rho = np.where(left, 16.0 / 7.0, 1.0 + 1.5 * np.exp(-16.0 * r2))
    u = np.zeros(x.shape + (2,))
    u[..., 0] = np.where(left, math.sqrt(5.0 / 3.0) * 7.0 / 16.0, 0.0)
    T = np.where(left, 133.0 / 64.0, 1.0)
    return rho, u, T


def _shear_layer_states(x, y):
    top = y >= 0.0
    rho = np.where(top, 1.0, 2.0)
    u = np.zeros(x.shape + (2,))
    u[..., 0] = np.where(top, 0.5, -0.5)
    u[..., 1] = 0.01 * np.sin(4.0 * np.pi * x)
    return rho, u, np.ones_like(rho)


def _double_sod_states(x, y):
    rho = np.where(x * y <= 0.0, 0.1, 1.0)
    return rho, np.zeros(x.shape + (2,)), np.ones_like(rho)


def catalogue():
    """The five built-in benchmark scenarios at paper resolution."""
    return [
        Scenario(
            name="sod_1d1d",
            lower=(0.0,), upper=(1.0,), counts=(100,), boundaries=("outflow",),
            dv=1, half_width=8.0, vcounts=(80,),
            initial=lambda x: _sod_states(x, 1),
            collision="bgk", epsilon=1e-5, t_end=0.15,
            integrator="prk4", K=2, cfl=0.4, weno_k=3,
            desk_counts=(100,), desk_vcounts=(80,),
        ),
        Scenario(
            name="sod_1d2v",
            lower=(0.0,), upper=(1.0,), counts=(100,), boundaries=("outflow",),
            dv=2, half_width=8.0, vcounts=(32, 32),
            initial=lambda x: _sod_states(x, 2),
            collision="bgk", epsilon=1e-5, t_end=0.15,
            integrator="prk4", K=2, cfl=0.4, weno_k=2,
            desk_counts=(100,), desk_vcounts=(16, 16),
        ),
        Scenario(
            name="shock_bubble",
            lower=(-2.0, -1.0), upper=(3.0, 1.0), counts=(200, 25),
            boundaries=("outflow", "periodic"),
            dv=2, half_width=10.0, vcounts=(30, 30),
            initial=_shock_bubble_states,
            collision="bgk", epsilon=1e-5, t_end=0.8,
            integrator="prk4", K=2, cfl=0.4, weno_k=2,
            desk_counts=(100, 13), desk_vcounts=(16, 16),
        ),
        Scenario(
            name="kelvin_helmholtz",
            lower=(-0.5, -0.5), upper=(0.5, 0.5), counts=(100, 100),
            boundaries=("periodic", "outflow"),
            dv=2, half_width=8.0, vcounts=(30, 30),
            initial=_shear_layer_states,
            collision="bgk", epsilon=5e-5, t_end=1.6,
            integrator="prk4", K=3, cfl=0.45, weno_k=2,
            desk_counts=(50, 50), desk_vcounts=(16, 16),
        ),
        Scenario(
            name="double_sod_2d",
            lower=(-0.5, -0.5), upper=(0.5, 0.5), counts=(64, 64),
            boundaries=("outflow", "outflow"),
            dv=2, half_width=8.0, vcounts=(32, 32),
            initial=_double_sod_states,
            collision="boltzmann", epsilon=5e-5, t_end=0.16,
            integrator="tprk4", K=3, cfl=0.3, weno_k=2,
            desk_counts=(32, 32), desk_vcounts=(16, 16),
            M=(6.66, 4.80),
        ),
    ]


def get_scenario(name):
    for scen in catalogue():
        if scen.name == name:
            return scen
    known = ", ".join(s.name for s in catalogue())
    raise ConfigurationError(f"unknown scenario {name!r} (have: {known})")


@dataclass
class ResolvedRun:
    """Grids, operators, and stepping plan for one configured run."""

    scenario: Scenario
    sgrid: SpatialGrid
    vgrid: VelocityGrid
    weno_k: int
    collision_name: str
    collision: object
    integrator: str
    plan: IntegratorPlan  # zero levels for the plain fe/rk4 integrators
    epsilon: float
    t_end: float
    snapshot_times: tuple
    rhs: object
    preset: str


def resolve_run(name, preset="paper", integrator=None, collision=None,
                epsilon=None, weno_k=None, levels=None, K=None, h0=None,
                cfl=None, M=None, t_end=None, snapshots=None, nx=None,
                nv=None, half_width=None):
    """Merge CLI/config overrides onto a scenario and build the run pieces."""
    scen = get_scenario(name)
    if preset not in PRESETS:
        raise ConfigurationError(f"preset must be one of {PRESETS}, got {preset!r}")
    desk = preset == "desk"
    counts = (scen.desk_counts if desk else scen.counts) if nx is None else tuple(nx)
    vcounts = (scen.desk_vcounts if desk else scen.vcounts) if nv is None else tuple(nv)
    sgrid = SpatialGrid(scen.lower, scen.upper, counts, scen.boundaries)
    vgrid = VelocityGrid(scen.dv, scen.half_width if half_width is None else half_width, vcounts)

    epsilon = scen.epsilon if epsilon is None else float(epsilon)
    if not 0 < epsilon < math.inf:
        raise ConfigurationError(f"epsilon must be positive and finite, got {epsilon}")
    collision_name = scen.collision if collision is None else collision
    if collision_name not in COLLISIONS:
        raise ConfigurationError(f"collision must be one of {COLLISIONS}, got {collision_name!r}")
    coll = (SpectralPlan(vgrid) if collision_name == "boltzmann" else collision_name, epsilon)

    integ = scen.integrator if integrator is None else integrator
    if integ not in INTEGRATORS:
        raise ConfigurationError(f"integrator must be one of {tuple(INTEGRATORS)}, got {integ!r}")
    t_end = scen.t_end if t_end is None else float(t_end)
    if not 0 <= t_end < math.inf:
        raise ConfigurationError(f"end time must be non-negative and finite, got {t_end}")
    n_snap = 5 if snapshots is None else snapshots
    if t_end == 0.0:
        snap_times = (0.0,)
    else:
        if not (n_snap >= 2 and n_snap % 1 == 0):
            raise ConfigurationError(
                f"snapshots must be a whole number >= 2 when t_end > 0, got {n_snap}")
        snap_times = tuple(np.linspace(0.0, t_end, int(n_snap)))

    dx_min = min(sgrid.spacings)
    K_ = scen.K if K is None else K
    h0_ = epsilon if h0 is None else float(h0)
    if not 0 < h0_ < math.inf:  # min() below would drop a NaN
        raise ConfigurationError(f"inner step must be positive and finite, got {h0_}")
    C = scen.cfl if cfl is None else cfl
    if INTEGRATORS[integ][1] == 0:
        # resolved explicit step: the inner scale, or exactly cfl * dx
        h0_ = min(0.1 * dx_min, h0_) if cfl is None else cfl * dx_min
    elif scen.M is not None and integ == scen.integrator and M is None and levels is None:
        # the scenario's tuned factors, or their level count under other knobs
        tuned = K is None and h0 is None and cfl is None
        M, levels = (scen.M, None) if tuned else (None, len(scen.M))
    plan = ladder(integ, h0_, C * dx_min, K_, levels, M)

    weno_k = scen.weno_k if weno_k is None else weno_k
    rhs = make_rhs(sgrid, vgrid, weno_k, coll)
    return ResolvedRun(
        scenario=scen, sgrid=sgrid, vgrid=vgrid, weno_k=weno_k,
        collision_name=collision_name, collision=coll, integrator=integ,
        plan=plan, epsilon=epsilon, t_end=t_end,
        snapshot_times=snap_times, rhs=rhs, preset=preset,
    )


def initial_field(run):
    """Maxwellian of the scenario's initial macroscopic fields."""
    mesh = np.meshgrid(*run.sgrid.centers, indexing="ij")
    rho, u, T = run.scenario.initial(*mesh)
    return maxwellian(run.vgrid, rho, u, T)


def _advance(rhs, f, duration, plan, counts):
    """Advance f by duration on the plan's ladder, landing exactly on its end,
    and yield the state after each step.

    Whole top-level steps come first. A leftover at least as long as the top
    damping sweep takes one top step of that length, which keeps every lower
    level as planned. A shorter leftover is advanced on the ladder one level
    down, with plain chords as inside a step, and at level 0 by one step of
    the plan's tableau. A caller that rebinds its state to each yielded one
    holds no state that the next step does not start from.
    """
    while True:
        dt = plan.h[-1]
        n = int(math.floor(duration / dt * (1.0 + 1e-12)))
        for _ in range(n):
            f = telescopic_step(rhs, f, plan, counts)
            yield f
        rem = duration - n * dt
        if rem <= _REMAINDER_TOL * dt:
            return
        if plan.levels == 0:
            counts[0] += 1
            yield rk_step(rhs, f, rem, plan.outer_tableau)
            return
        if rem >= (plan.K[-1] + 1) * plan.h[-2] * (1.0 + 1e-12):
            yield telescopic_step(rhs, f, plan, counts, rem)
            return
        duration, plan = rem, IntegratorPlan(plan.h[0], plan.K[:-1], plan.M[:-1])


def write_snapshot(path, t, name, sgrid, vgrid, values):
    """Moment-field CSV: 17-significant-digit text, one row per cell."""
    mom = moments(vgrid, values)
    check_state(mom)  # a state the next RHS call would reject is not written
    q = heat_flux(vgrid, values, mom)
    P, E, Ma = derived(mom)
    mesh = np.meshgrid(*sgrid.centers, indexing="ij")
    names = ["x", "y"][: sgrid.dx_dims] + ["rho"]
    cols = [m.ravel() for m in mesh] + [mom.rho.ravel()]
    names += ["ux", "uy"][: vgrid.dv] + ["T"]
    cols += [mom.u[..., d].ravel() for d in range(vgrid.dv)] + [mom.T.ravel()]
    names += ["qx", "qy"][: vgrid.dv] + ["P", "E", "Ma"]
    cols += [q[..., d].ravel() for d in range(vgrid.dv)]
    cols += [P.ravel(), E.ravel(), Ma.ravel()]
    table = np.column_stack(cols)
    lines = [f"# t={t:.17g} scenario={name}", ",".join(names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in table]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def run_simulation(run, out_dir):
    """Integrate to t_end, writing snapshots and a manifest under out_dir."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    f = initial_field(run)
    counts = [0] * (run.plan.levels + 1)
    snap_files = []

    def snap(i, t, state):
        fname = f"snapshot_{i:03d}.csv"
        write_snapshot(out / fname, t, run.scenario.name, run.sgrid, run.vgrid, state)
        snap_files.append({"file": fname, "t": t})

    snap(0, run.snapshot_times[0], f)
    status, error = "completed", None
    try:
        for i in range(1, len(run.snapshot_times)):
            # f follows every step, so the interval's first state is freed
            for f in _advance(run.rhs, f, run.snapshot_times[i] - run.snapshot_times[i - 1],
                              run.plan, counts):
                pass
            snap(i, run.snapshot_times[i], f)
    except StepRejectionError as exc:
        status, error = "rejected", exc

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB; bytes on macOS
    manifest = describe(run)
    manifest.update(snapshots=snap_files, steps_per_level=counts,
                    wall_time_s=time.perf_counter() - started,
                    peak_rss_mib=peak_rss / (2**20 if sys.platform == "darwin" else 2**10),
                    status=status)
    if error is not None:
        manifest["error"] = str(error)
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    if error is not None:
        raise error
    return manifest


def describe(run):
    """The resolved run as manifest.json records it before the first step.
    Every ladder is one h/K/M record with its speedup (one h and 1.0 for
    plain fe/rk4); the integrator names the tableau."""
    plan = run.plan
    return {
        "scenario": run.scenario.name,
        "preset": run.preset,
        "integrator": run.integrator,
        "collision": run.collision_name,
        "epsilon": run.epsilon,
        "weno_k": run.weno_k,
        "spatial": {
            "lower": list(run.sgrid.lower),
            "upper": list(run.sgrid.upper),
            "counts": list(run.sgrid.counts),
            "boundaries": list(run.sgrid.boundaries),
            "spacings": list(run.sgrid.spacings),
        },
        "velocity": {
            "dv": run.vgrid.dv,
            "half_width": run.vgrid.half_width,
            "counts": list(run.vgrid.counts),
        },
        "plan": {"h": list(plan.h), "K": list(plan.K), "M": list(plan.M)},
        "speedup": speedup(plan),
        "t_end": run.t_end,
        "snapshot_times": list(run.snapshot_times),
    }


# -------------------------------------------------------------- CLI plumbing

def _ints(text):
    return tuple(int(part) for part in text.split(","))


def _floats(text):
    return tuple(float(part) for part in text.split(","))


# every run option once: config-file key -> argparse keywords; the flag is
# --key with dashes, dest is the key unless given, unset means resolve_run's default
_RUN_OPTIONS = {
    "scenario": {},
    "preset": {"choices": PRESETS},
    "integrator": {"choices": INTEGRATORS},
    "collision": {"choices": COLLISIONS},
    "epsilon": {"type": float},
    "k": {"type": int, "dest": "weno_k", "help": "WENO order index"},
    "levels": {"type": int},
    "K": {"type": int, "help": "inner relaxation steps per level"},
    "h0": {"type": float, "help": "innermost step (default epsilon)"},
    "cfl": {"type": float, "help": "outer step = cfl * min dx"},
    "M": {"type": _floats, "help": "explicit extrapolation factors"},
    "t_end": {"type": float},
    "snapshots": {"type": int},
    "nx": {"type": _ints, "help": "spatial cells per axis"},
    "nv": {"type": _ints, "help": "velocity nodes per axis"},
    "half_width": {"type": float},
    "out": {"help": "output directory"},
}


def load_config(path):
    """Flat key=value file, every value non-empty; '#' starts a comment, blank lines skipped."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, not UTF-8, ...
        raise ConfigurationError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value")
        if key not in _RUN_OPTIONS:
            raise ConfigurationError(f"{path}:{lineno}: unknown key {key!r}")
        opt = _RUN_OPTIONS[key]
        try:
            values[opt.get("dest", key)] = opt.get("type", str)(val)
        except ValueError as exc:
            raise ConfigurationError(f"{path}:{lineno}: {exc}") from None
    return values


def _add_run_options(p, out=True):
    for key, opt in _RUN_OPTIONS.items():
        if key != "out" or out:
            p.add_argument("--" + key.replace("_", "-"), **opt)
    p.add_argument("--config", help="key=value defaults file")


def _resolved_from_args(args):
    """resolve_run on the command line over the config file over its defaults."""
    opts = load_config(args.config) if args.config else {}
    for key, opt in _RUN_OPTIONS.items():
        dest = opt.get("dest", key)
        if getattr(args, dest, None) is not None:
            opts[dest] = getattr(args, dest)
    scenario = opts.pop("scenario", None)
    out = opts.pop("out", None)
    if out:  # the output directory, or its nearest existing ancestor, must be a directory
        near = next(p for p in (Path(out), *Path(out).parents) if p.exists())
        if not near.is_dir():
            raise ConfigurationError(f"output directory {out}: {near} is not a directory")
    if not scenario:
        raise ConfigurationError("no scenario given (use --scenario or a config file)")
    return resolve_run(scenario, **opts), out


def _cmd_run(args):
    run, out = _resolved_from_args(args)
    if not out:
        raise ConfigurationError("no output directory given (use --out)")
    manifest = run_simulation(run, out)
    print(f"{run.scenario.name}: {manifest['status']} to t={run.t_end:g} "
          f"({len(manifest['snapshots'])} snapshots, "
          f"{manifest['wall_time_s']:.2f}s) -> {out}")
    return 0


def _cmd_plan(args):
    run, _ = _resolved_from_args(args)
    # the run's own stepping on a scalar no-op RHS predicts its steps per level
    counts = [0] * (run.plan.levels + 1)
    times = run.snapshot_times
    for i in range(1, len(times)):
        for _ in _advance(lambda y: 0.0, 0.0, times[i] - times[i - 1], run.plan, counts):
            pass
    print(json.dumps(describe(run) | {"steps_per_level": counts}, indent=2))
    return 0


def _cmd_spectrum(args):
    run, out = _resolved_from_args(args)
    for cell, mom, report in probe_run(run, initial_field(run)):
        lam = report.eigenvalues * run.epsilon
        print(f"cell {cell}: rho {mom.rho:.6g}, T {mom.T:.6g}\n"
              f"  eigenvalues {lam.size} ({report.slow.size} slow, {report.fast.size} fast), "
              f"gap ratio {report.gap_ratio:.6g}\n  Re(lambda*eps) in [{lam.real.min():.6g}, "
              f"{lam.real.max():.6g}], max |Im(lambda*eps)| {np.abs(lam.imag).max():.6g}")
        if out:
            Path(out).mkdir(parents=True, exist_ok=True)
            write_spectrum_csv(Path(out) / f"spectrum_{'_'.join(map(str, cell))}.csv", report)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kinproj",
        description="Projective integration benchmarks for stiff kinetic equations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="integrate a scenario and write snapshots")
    _add_run_options(p_run)
    p_run.set_defaults(func=_cmd_run)
    p_plan = sub.add_parser("plan", help="print the resolved plan without running")
    _add_run_options(p_plan, out=False)
    p_plan.set_defaults(func=_cmd_plan)
    p_spec = sub.add_parser("spectrum", help="probe the run's collision spectrum at sampled cells")
    _add_run_options(p_spec)
    p_spec.set_defaults(func=_cmd_spectrum)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, DiagnosticError) as exc:  # includes infeasible plans
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepRejectionError as exc:
        print(f"step rejected: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
