"""Spans around fdprof's layer boundaries, installed from outside the package.

Each module of fdprof binds the functions it calls into its own namespace
(`cli` imports `solve_origin_profile`, `integrate` imports `picard_f_origin`,
...), so a name is patched in the module that calls it.  Spans are kept in
memory as tuples and aggregated or written out after the run.  The source
tree is not modified; `Tracer.uninstall` restores every patched name.
"""
from __future__ import annotations

import contextlib
import itertools
import math
import os
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "localsolve", "profile", "kernels", "integrate", "inversion",
          "analysis")

# (module, attribute, span name, layer).  The span name says which layer
# boundary was crossed; the module says where the name is looked up.
BOUNDARIES = (
    ("cli", "solve_origin_profile", "integrate.solve", "integrate"),
    ("cli", "solve_farfield_profile", "integrate.solve", "integrate"),
    ("cli", "build_report", "analysis.report", "analysis"),
    ("cli", "fside_nodes", "inversion.fside_nodes", "inversion"),
    ("cli", "invert_pointwise", "inversion.invert", "inversion"),
    ("cli", "write_profile_csv", "cli.write_csv", "cli"),
    ("cli", "write_json", "cli.write_json", "cli"),
    ("cli", "_read_profile_csv", "cli.read_csv", "cli"),
    ("integrate", "picard_f_origin", "localsolve.picard", "localsolve"),
    ("integrate", "picard_g_origin", "localsolve.picard", "localsolve"),
    ("integrate", "continue_profile", "integrate.continue", "integrate"),
    ("integrate", "thin_local_nodes", "profile.thin", "profile"),
    ("kernels", "integrate_flux_system", "kernels.dp5", "kernels"),
    ("analysis", "solve_origin_profile", "integrate.probe", "integrate"),
    ("analysis", "find_anomalous_beta", "analysis.search", "analysis"),
    ("analysis", "ode_residual", "analysis.residual", "analysis"),
    ("analysis", "asymptotic_limits", "analysis.limits", "analysis"),
    ("analysis", "verify_inequalities", "analysis.inequalities", "analysis"),
    ("analysis", "classify_decay", "analysis.decay", "analysis"),
    ("analysis", "classify_shape", "analysis.shape", "analysis"),
    ("analysis", "fside_samples", "inversion.fside_samples", "inversion"),
)


def _count_picard(tracer, out, args):
    p, boundary = args[0], args[1]
    eps0 = min(1.0, boundary ** ((p.m - 1.0) / 2.0))
    tracer.count("localsolve.calls", 1)
    tracer.count("localsolve.grid_nodes", len(out.grid))
    tracer.count("localsolve.iterations", out.iterations)
    tracer.count("localsolve.halvings", round(math.log2(eps0 / out.eps)))


def _count_thin(tracer, out, args):
    tracer.count("profile.offered", len(args[0]))
    tracer.count("profile.kept", len(out))


def _count_steps(tracer, out, args):
    tracer.count("kernels.accepted_steps", len(out[0]) - 1)


def _count_residual(tracer, out, args):
    tracer.count("analysis.residual_nodes", len(args[0].r))


def _count_rows(tracer, out, args):
    tracer.count("cli.rows_read", len(out[1]))


def _count_written(tracer, out, args):
    tracer.count("cli.bytes_written", os.path.getsize(args[0]))


COUNTERS = {
    "picard_f_origin": _count_picard,
    "picard_g_origin": _count_picard,
    "thin_local_nodes": _count_thin,
    "integrate_flux_system": _count_steps,
    "ode_residual": _count_residual,
    "_read_profile_csv": _count_rows,
    "write_profile_csv": _count_written,
    "write_json": _count_written,
}


class Tracer:
    """Collects spans (id, parent, op, name, layer, start_ns, end_ns, error).

    The parent of a span is the innermost open span of the same thread, so
    spans opened in sweep worker threads nest correctly.  Counts are summed
    per operation id.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    def _state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack, st.op = [], None
        return st

    @contextlib.contextmanager
    def operation(self, op_id, name="cli.main", layer="cli"):
        """Root span of one operation; every span below it carries op_id."""
        st = self._state()
        outer = st.op
        st.op = op_id
        try:
            with self.span(name, layer):
                yield
        finally:
            st.op = outer

    @contextlib.contextmanager
    def span(self, name, layer):
        st = self._state()
        sid = next(self._ids)
        parent = st.stack[-1] if st.stack else None
        st.stack.append(sid)
        err = None
        t0 = time.perf_counter_ns()
        try:
            yield
        except BaseException as e:
            err = type(e).__name__
            raise
        finally:
            t1 = time.perf_counter_ns()
            st.stack.pop()
            self.spans.append((sid, parent, st.op, name, layer, t0, t1, err))

    def count(self, key, value):
        self.counts[self._state().op][key] += value

    def wrap(self, module, attr, name, layer, after=None):
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name, layer):
                out = orig(*args, **kwargs)
            if after is not None:
                after(self, out, args)
            return out

        traced.__wrapped__ = orig
        setattr(module, attr, traced)
        self._patches.append((module, attr, orig))

    def install(self, modules):
        """Patch every boundary in BOUNDARIES; `modules` maps names to modules."""
        for mod, attr, name, layer in BOUNDARIES:
            self.wrap(modules[mod], attr, name, layer, COUNTERS.get(attr))

    def uninstall(self):
        while self._patches:
            module, attr, orig = self._patches.pop()
            setattr(module, attr, orig)

    def self_times(self):
        """{op: {span name: self ns}} and {op: root duration ns}.

        Self time is a span's duration minus the durations of its children;
        children run inside their parent on the same thread, so they never
        overlap each other.
        """
        child_ns = defaultdict(int)
        for sid, parent, op, name, layer, t0, t1, err in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        by_op = defaultdict(lambda: defaultdict(int))
        root_ns = {}
        for sid, parent, op, name, layer, t0, t1, err in self.spans:
            by_op[op][(layer, name)] += (t1 - t0) - child_ns[sid]
            if parent is None:
                root_ns[op] = t1 - t0
        return by_op, root_ns

    def dump(self):
        """Spans as JSON-ready rows, for writing out after the run."""
        return [{"id": sid, "parent": parent, "op": op, "name": name,
                 "layer": layer, "start_ns": t0, "end_ns": t1, "error": err}
                for sid, parent, op, name, layer, t0, t1, err in self.spans]
