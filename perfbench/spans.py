"""Per-layer tracing from outside the package: wrap module attributes.

``Tracer.install()`` replaces each traced function, in every ``aia`` module
that holds a reference to it, with a wrapper that records a span
(name, parent span, start, end). Functions are imported by name across the
package (``from .numkit import integrate_ode``), so patching only the
defining module would miss most calls. ``uninstall()`` puts the originals
back, so untraced runs execute the unmodified package.

A span's self time is its duration minus the durations of its direct child
spans. Counters ride the same wrappers: solver rhs evaluations are read
from the ``solve_ivp`` result that ``numkit`` already receives, and the
optimizer's objective is wrapped to count evaluations.

Spans are kept in memory and summarised when the run ends. Pool workers
are forked and would keep their spans, so traced runs are serial.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# Layer -> traced public functions. Functions the sweep rows call per row or
# per optimizer step are traced; helpers called per rhs evaluation are not,
# since a wrapper there would cost more than the helper.
TRACED = {
    "numkit": ["integrate_ode", "minimize_scalar", "find_root_bracketed",
               "fit_power_law"],
    "lz_closed": ["evolve_schrodinger", "adiabatic_state", "adiabatic_first_order",
                  "switching_times", "aia_state", "state_distance",
                  "aia_distance_grid", "optimize_dtau"],
    "tfi": ["evolve_register", "adiabatic_register", "switching_times_tfi",
            "aia_register", "register_distance", "aia_distance_grid",
            "optimize_dtau_tfi"],
    "lindblad_open": ["evolve_master", "adiabatic_state_open", "switching_times_open",
                      "aia_state_open", "trace_distance", "aia_distance_grid",
                      "optimize_dtau_open"],
    "intertwiner": ["closeness_bound_check", "exact_propagator", "full_intertwiner",
                    "superop_trace_norm_distance", "cptp_diagnostics"],
    "sweeps": ["run_sweep"],
    # the config parser lives in sweeps; the CLI is the layer that calls it
    "cli": ["main", "load_config"],
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self.modules = [m for name, m in sorted(sys.modules.items())
                        if name == package.__name__ or name.startswith(package.__name__ + ".")]
        self.spans = []      # [name, parent index, start, end]
        self.counts = Counter()
        self._stack = []
        self._patched = []   # (module, attribute, original)

    # -- wrappers ---------------------------------------------------------
    def _span(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(args, kwargs)
            idx = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = time.perf_counter()
            if name == "sweeps.run_sweep":
                self.counts["sweeps.rows"] += len(result[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _minimize_hook(self, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        def hook(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            f, f_grid = bound.arguments["f"], bound.arguments.get("f_grid")

            def f_counted(x):
                counts["numkit.minimize_scalar.f_evals"] += 1
                return f(x)

            bound.arguments["f"] = f_counted
            if f_grid is not None:
                def grid_counted(xs):
                    counts["numkit.minimize_scalar.grid_points"] += len(xs)
                    return f_grid(xs)
                bound.arguments["f_grid"] = grid_counted
            return bound.args, bound.kwargs
        return hook

    def _points_hook(self, key):
        counts = self.counts

        def hook(args, kwargs):
            counts[key] += len(args[1])
            return args, kwargs
        return hook

    def _solve_ivp(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["numkit.integrate_ode.rhs_evals"] += int(sol.nfev)
            return sol
        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / remove -------------------------------------------------
    def _patch_everywhere(self, original, replacement):
        for mod in self.modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = self.package
        for layer, names in TRACED.items():
            mod = getattr(pkg, layer)
            for fname in names:
                fn = getattr(mod, fname)
                name = f"{layer}.{fname}"
                hook = None
                if name == "numkit.minimize_scalar":
                    hook = self._minimize_hook(fn)
                elif name == "tfi.aia_distance_grid":
                    hook = self._points_hook("tfi.aia_distance_grid.points")
                self._patch_everywhere(fn, self._span(name, fn, hook))
        numkit = pkg.numkit
        self._patch_everywhere(numkit.solve_ivp, self._solve_ivp(numkit.solve_ivp))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- summary ----------------------------------------------------------
    def summary(self):
        """{metric: value}: inclusive '.s', '.self_s' and '.calls' per traced
        function, plus the counters. Nested calls of the same function count
        once in '.s'."""
        incl = defaultdict(float)
        child = defaultdict(float)
        calls = Counter()
        for name, parent, t0, t1 in self.spans:
            if t1 is None:
                raise RuntimeError(f"span {name} never closed")
            if parent >= 0:
                child[parent] += t1 - t0
        selfs = defaultdict(float)
        for i, (name, parent, t0, t1) in enumerate(self.spans):
            calls[name] += 1
            selfs[name] += (t1 - t0) - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                incl[name] += t1 - t0
        out = {}
        for layer, names in TRACED.items():
            for fname in names:
                name = f"{layer}.{fname}"
                out[f"{name}.s"] = incl[name]
                out[f"{name}.self_s"] = selfs[name]
                out[f"{name}.calls"] = calls[name]
        for key in ("numkit.integrate_ode.rhs_evals", "numkit.minimize_scalar.f_evals",
                    "numkit.minimize_scalar.grid_points", "tfi.aia_distance_grid.points",
                    "sweeps.rows"):
            out[key] = self.counts[key]
        return out
