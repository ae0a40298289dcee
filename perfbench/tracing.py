"""Spans at kinproj's layer boundaries, recorded from outside the program.

The tracer replaces public functions by module attribute, so a caller that
looks the name up in its own module at call time (as every call below does)
reaches the wrapper. Each call records a span [name, start, end, parent] and
the spans stay in memory until the run has ended. Nothing under `src/` is
changed, and every attribute is put back by `restore`.
"""

import functools
import importlib
import json
import time

# (module, function): the module named is the caller, and the function's
# name is the span's name
BOUNDARIES = (
    ("scenarios_cli", "initial_field"),
    ("scenarios_cli", "telescopic_step"),
    ("scenarios_cli", "rk_step"),
    ("scenarios_cli", "write_snapshot"),
    ("integrators", "rhs_total"),
    ("integrators", "transport_rhs"),
    ("integrators", "bgk_rhs"),
    ("integrators", "boltzmann_rhs"),
    ("collision_bgk", "moments"),
    ("collision_bgk", "local_maxwellian"),
    ("collision_boltzmann", "moments"),
    ("collision_boltzmann", "local_maxwellian"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self):
        """Wrap every boundary of BOUNDARIES; `restore` undoes it."""
        for mod_name, attr in BOUNDARIES:
            module = importlib.import_module(f"kinproj.{mod_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(attr, original))

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def totals(self):
        """name -> (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start - child[i]))
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
