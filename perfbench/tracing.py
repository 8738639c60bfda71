"""Span tracing for the step benchmark, from outside the program.

The program is not changed.  A Tracer replaces the public entry points
of each layer with wrappers that record a span per call:

- the module-level names irksolve.stepper imports (fov_upper_bound,
  the spectral functions, shifted_operator, build_inner_preconditioner
  and the Krylov solve);
- the apply/solve methods of the spatial operator, the mass, the
  shifted operators and the inner preconditioners set-up builds, and
  the forcing function;
- the stepper's assemble_rhs_z and solve_factors.

A span is (trace, span, parent, name, start_ns, end_ns, ok).  All spans
of one step share its trace id (1, 2, ...); set-up k uses -(k+1).  Spans
are kept in memory as one flat int64 array and written out at the end.
Every patch is undone by unpatch(), so an untraced phase runs the
program's own methods.
"""

from array import array
import time

import numpy as np

import irksolve.stepper as stepper_module

FIELDS = ("trace", "span", "parent", "name", "start_ns", "end_ns", "ok")

# module-level names irksolve.stepper imports, traced during set-up
SETUP_HOOKS = (
    ("fov_upper_bound", "linop.fov"),
    ("spectral_decompose", "spectral.setup"),
    ("adjugate_row_polynomials", "spectral.setup"),
    ("factor_list", "spectral.setup"),
    ("shifted_operator", "linop.shift"),
    ("build_inner_preconditioner", "linop.factorize"),
)

_MISSING = object()


class Tracer:
    def __init__(self):
        self.names = []
        self._index = {}
        self.trace_id = 0
        self._stack = [0]
        self._next_span = 1
        self._records = array("q")
        self._saved = []
        self._built = {}   # id -> (span name, object) from the latest set-up

    def wrap(self, name, fn, ok=None):
        """fn, recording one span per call; ok(result) marks a span
        failed without an exception (an unconverged Krylov report)."""
        idx = self._index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        clock = time.perf_counter_ns
        stack = self._stack
        records = self._records

        def traced(*args, **kwargs):
            sid = self._next_span
            self._next_span = sid + 1
            parent = stack[-1]
            stack.append(sid)
            good = 0
            start = clock()
            try:
                out = fn(*args, **kwargs)
                good = 1 if ok is None else int(bool(ok(out)))
                return out
            finally:
                end = clock()
                stack.pop()
                records.extend((self.trace_id, sid, parent, idx, start, end, good))

        return traced

    def patch(self, obj, attr, name, ok=None, keep=False):
        """Replace obj.attr by its traced form; keep=True remembers the
        objects it returns for hook_steps."""
        fn = getattr(obj, attr)
        if keep:
            fn = self._keeping(fn, name)
        self._saved.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, self.wrap(name, fn, ok))

    def unpatch(self):
        for obj, attr, old in reversed(self._saved):
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
        self._saved.clear()

    # -- set-up ----------------------------------------------------------

    def begin_setup(self, k):
        """Trace set-up k: hook the names irksolve.stepper imports and
        remember the operators and preconditioners it builds."""
        self.trace_id = -(k + 1)
        self._built.clear()
        for attr, name in SETUP_HOOKS:
            self.patch(stepper_module, attr, name,
                       keep=name in ("linop.shift", "linop.factorize"))

    def _keeping(self, fn, name):
        def build(*args, **kwargs):
            obj = fn(*args, **kwargs)
            self._built[id(obj)] = (name, obj)
            return obj
        return build

    # -- steps -----------------------------------------------------------

    def next_step(self):
        """Give the spans of the next step a new trace id."""
        self.trace_id = max(self.trace_id, 0) + 1

    def hook_steps(self, stepper):
        """Trace the per-step layers of a stepper built by a traced set-up."""
        problem = stepper.problem
        self.patch(stepper_module, "solve", "krylov.solve",
                   ok=lambda out: out[1].converged)
        self.patch(stepper, "assemble_rhs_z", "stepper.rhs")
        self.patch(stepper, "solve_factors", "stepper.factors")
        self.patch(problem.L, "apply", "linop.L_apply")
        if not problem.M.is_identity:
            self.patch(problem.M, "apply", "linop.M_apply")
            self.patch(problem.M, "solve", "linop.M_solve")
        if problem.forcing is not None:
            self.patch(problem, "forcing", "spatial.forcing")
        for name, obj in self._built.values():
            span = "linop.op_apply" if name == "linop.shift" else "linop.precond_apply"
            self.patch(obj, "apply", span)

    # -- output ----------------------------------------------------------

    def table(self):
        return np.frombuffer(self._records, dtype=np.int64).reshape(-1, len(FIELDS))

    def write_csv(self, path):
        rows = self.table()
        with open(path, "w") as fh:
            fh.write(",".join(FIELDS) + "\n")
            for lo in range(0, len(rows), 1 << 16):  # bounded memory
                for r in rows[lo:lo + (1 << 16)].tolist():
                    r[3] = self.names[r[3]]
                    fh.write(",".join(map(str, r)) + "\n")


def _sums(names, idx, values, mask):
    out = np.bincount(idx[mask], weights=values[mask], minlength=len(names))
    return {n: float(out[i]) for i, n in enumerate(names)}


def layer_metrics(tracer, integrations):
    """Per-layer numbers from the spans.

    Set-up layers: seconds per set-up, the median over the traced
    set-ups.  Step layers: seconds and calls per completed step, over
    the traced steps.  Self time is a span's duration minus that of its
    direct children.  krylov.failed_solves is per traced integration.
    """
    t = tracer.table()
    names = tracer.names
    trace, sid, parent, idx, ok = t[:, 0], t[:, 1], t[:, 2], t[:, 3], t[:, 6]
    dur = (t[:, 5] - t[:, 4]) * 1e-9
    row = np.zeros(int(sid.max()) + 1, dtype=np.int64)
    row[sid] = np.arange(len(t))
    child = np.zeros(len(t))
    has_parent = parent > 0
    np.add.at(child, row[parent[has_parent]], dur[has_parent])
    own = dur - child

    def named(n):
        return idx == names.index(n) if n in names else np.zeros(len(t), bool)

    setup_ids = sorted(set(trace[trace < 0].tolist()))
    per_setup = [(_sums(names, idx, dur, trace == k), _sums(names, idx, own, trace == k))
                 for k in setup_ids]

    def setup_median(n, self_time=False):
        return float(np.median([s[1 if self_time else 0].get(n, 0.0) for s in per_setup]))

    root = named("stepper.advance")
    done = np.isin(trace, trace[root & (ok == 1)])
    steps = max(int(np.count_nonzero(root & done)), 1)
    tot = _sums(names, idx, dur, done)
    tot_own = _sums(names, idx, own, done)
    calls = _sums(names, idx, np.ones(len(t)), done)

    def per_step(n, source=tot):
        return source.get(n, 0.0) / steps

    m = {
        "spatial.build_s": setup_median("spatial.build", self_time=True),
        "linop.fov_s": setup_median("linop.fov"),
        "linop.shift_s": setup_median("linop.shift"),
        "linop.factorize_s": setup_median("linop.factorize"),
        "stepper.init_s": setup_median("stepper.init", self_time=True),
        "tableaux.build_s": setup_median("tableaux.build"),
        "spectral.setup_s": setup_median("spectral.setup"),
        "spatial.forcing_s": per_step("spatial.forcing"),
        "spatial.forcing_calls": per_step("spatial.forcing", calls),
        "linop.precond_apply_s": per_step("linop.precond_apply"),
        "linop.op_apply_s": per_step("linop.op_apply"),
        "linop.op_applies": per_step("linop.op_apply", calls),
        "linop.L_apply_s": per_step("linop.L_apply"),
        "linop.L_applies": per_step("linop.L_apply", calls),
        "linop.M_solve_s": per_step("linop.M_solve"),
        "linop.M_solves": per_step("linop.M_solve", calls),
        "linop.M_apply_s": per_step("linop.M_apply"),
        "linop.M_applies": per_step("linop.M_apply", calls),
        "krylov.solve_s": per_step("krylov.solve"),
        "krylov.solves": per_step("krylov.solve", calls),
        "krylov.self_s": per_step("krylov.solve", tot_own),
        "krylov.failed_solves": float(np.count_nonzero(
            named("krylov.solve") & (ok == 0) & (trace > 0))) / integrations,
        "stepper.rhs_s": per_step("stepper.rhs"),
        "stepper.factors_s": per_step("stepper.factors"),
        "stepper.update_s": per_step("stepper.advance", tot_own),
        "trace.covered_frac": 1.0 - tot_own.get("stepper.advance", 0.0)
        / max(tot.get("stepper.advance", 0.0), 1e-300),
    }
    return m
