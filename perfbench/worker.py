"""One benchmark operation in a fresh process; `run.py` starts it.

    python3 perfbench/worker.py MODE WORKLOAD SEED OUT_DIR [TRACE_FILE]

MODE is `setup` (time the set-up and stop at the first RHS call), `run`
(one untraced workload run plus its checks) or `trace` (the same with spans
at every layer boundary, written to TRACE_FILE). The set-up clock starts
before numpy is imported and stops at the first RHS call, so it covers
`resolve_run` and everything `run_simulation` does before integrating (its
`initial_field` call and the t = 0 snapshot). The last line of standard
output is one JSON object.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import resolve  # noqa: E402  (imports nothing heavy)


class SetupDone(Exception):
    """Raised at the first RHS call of a set-up-only process."""


class RhsCounter:
    """Counts RHS evaluations and keeps the time of the first one.

    It also keeps a reference to the last state handed to the RHS (within
    the final outer step), which the spectral oracle checks sample. With
    `setup_only` the first call raises SetupDone instead of evaluating.
    """

    def __init__(self, rhs, setup_only=False):
        self.rhs = rhs
        self.setup_only = setup_only
        self.calls = 0
        self.first = None
        self.last_state = None

    def __call__(self, values):
        if self.first is None:
            self.first = time.perf_counter()
            if self.setup_only:
                raise SetupDone
        self.calls += 1
        self.last_state = values
        return self.rhs(values)


def layer_metrics(tracer, run, counter, snapshot_bytes):
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    tot = tracer.totals()

    def get(name):
        return tot.get(name, (0, 0.0, 0.0))

    def per_point(seconds, calls):
        return seconds / (calls * points) * 1e9 if calls else 0.0

    cells = math.prod(run.sgrid.counts)
    points = cells * run.vgrid.n_nodes
    steps = [get("telescopic_step"), get("rk_step")]
    rhs_calls, rhs_total, _ = get("rhs")
    operators = sum(get(n)[1] for n in ("transport_rhs", "bgk_rhs", "boltzmann_rhs"))
    h0 = run.plan.h[0] if run.plan is not None else run.dt
    tr_calls, tr_total, _ = get("transport_rhs")
    bgk_calls, _, bgk_self = get("bgk_rhs")
    mom_calls, mom_total, _ = get("moments")
    mxw_calls, mxw_total, _ = get("local_maxwellian")
    sp_calls, sp_total, sp_self = get("boltzmann_rhs")
    if run.collision_name == "boltzmann":
        plan = run.collision[0]
        # J x J 2D transforms per call: Q_N is evaluated at f and at M_N[f],
        # each with one forward, one per distinct table and one loss inverse
        passes = 2 * (len(plan.tables) + 2) * cells
        # two 1D passes per transform, each reading and writing complex128
        nbytes = passes * 2 * 2 * 16 * plan.modes**2
    else:
        passes = nbytes = 0
    return {
        "integrators.outer_steps": (sum(s[0] for s in steps), "count"),
        "integrators.measured_speedup": (run.t_end / h0 / counter.calls, "x"),
        "integrators.self_s": (sum(s[2] for s in steps), "s"),
        "integrators.rhs_ms": (rhs_total / rhs_calls * 1e3, "ms"),
        "integrators.rhs_self_s": (rhs_total - operators, "s"),
        "transport_weno.calls": (tr_calls, "count"),
        "transport_weno.total_s": (tr_total, "s"),
        "transport_weno.ns_per_point": (per_point(tr_total, tr_calls), "ns"),
        "collision_bgk.self_s": (bgk_self, "s"),
        "collision_bgk.ns_per_point": (per_point(bgk_self, bgk_calls), "ns"),
        "phase_space.moments.total_s": (mom_total, "s"),
        "phase_space.moments.ns_per_point": (per_point(mom_total, mom_calls), "ns"),
        "phase_space.local_maxwellian.total_s": (mxw_total, "s"),
        "phase_space.local_maxwellian.ns_per_point": (per_point(mxw_total, mxw_calls), "ns"),
        "collision_boltzmann.calls": (sp_calls, "count"),
        "collision_boltzmann.ms_per_call": (sp_total / sp_calls * 1e3 if sp_calls else 0.0, "ms"),
        "collision_boltzmann.self_s": (sp_self, "s"),
        "collision_boltzmann.fft_passes_per_call": (passes, "count"),
        "collision_boltzmann.bytes_per_call_computed": (nbytes, "B"),
        "scenarios_cli.write_snapshot.total_s": (get("write_snapshot")[1], "s"),
        "scenarios_cli.snapshot_bytes": (snapshot_bytes, "B"),
    }


def main(argv):
    mode, workload, seed, out_dir = argv[1], argv[2], int(argv[3]), Path(argv[4])
    import numpy as np  # part of the timed set-up
    from kinproj import scenarios_cli
    from kinproj.errors import StepRejectionError

    t = time.perf_counter()
    run = resolve(scenarios_cli, workload)
    result = {"resolve_run_s": time.perf_counter() - t}
    counter = RhsCounter(run.rhs, setup_only=mode == "setup")
    run.rhs = counter
    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        run.rhs = tracer.wrap("rhs", counter)
    try:
        scenarios_cli.run_simulation(run, out_dir)
    except StepRejectionError as exc:  # the manifest is written first
        result["error"] = str(exc)
    except SetupDone:
        pass
    done = time.perf_counter()
    # a run is only rejected inside an RHS-driven step, so first is set
    first = counter.first or done
    result["setup_s"] = first - T_START
    if mode == "setup":
        print(json.dumps(result))
        return 0
    result["wall_s"] = done - first
    result["rhs_evals"] = counter.calls
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    result["status"] = manifest["status"]
    if tracer is not None:
        tracer.restore()
        tracer.write(argv[5])
        nbytes = sum((out_dir / s["file"]).stat().st_size for s in manifest["snapshots"])
        result["layers"] = layer_metrics(tracer, run, counter, nbytes)
        result["initial_field_s"] = tracer.totals()["initial_field"][1]

    from checks import check

    last = counter.last_state if counter.last_state is not None else np.zeros(0)
    result["checks"] = check(workload, run, out_dir, manifest, counter.calls, last, seed).items
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
