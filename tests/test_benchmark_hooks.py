"""The step benchmark's tracer finds the names it hooks.

perfbench/tracing.py patches names in irksolve.stepper and methods of
the objects a stepper builds.  A rename in the package would silently
leave a layer untraced (or fail only under `run.py --trace 1`), so this
drives one traced set-up and one traced step, as run.py does, and
checks that the step's layers show up as spans.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from irksolve.krylov import KrylovConfig
from irksolve.linop import IdentityMass
from irksolve.spatial import (GridSpec, build_fd_mms, build_fem_diffusion_1d,
                              build_upwind_advection)
from irksolve.stepper import IRKStepper, LinearProblem
from irksolve.tableaux import build_tableau

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(PERFBENCH))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # leave the benchmark's tree as it is
    try:
        import tracing
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return tracing


def _forced(problem):
    """problem with a smooth forcing added."""
    x = GridSpec(dim=1, n=problem.n).points_1d()
    return LinearProblem(problem.M, problem.L,
                         forcing=lambda t: np.cos(t) * np.sin(np.pi * x))


CASES = {
    # circulant 2D operator with forcing: the inner solve is the FFT
    "mms2d": (lambda: build_fd_mms(GridSpec(dim=2, n=16)), ("gauss", 2)),
    # FEM mass, CG: the FFT solve, and the pair as one multiplier, so no
    # mass solve without forcing
    "fem1d": (lambda: build_fem_diffusion_1d(GridSpec(dim=1, n=32)),
              ("gauss", 3)),
    # FEM mass with forcing: one mass solve per pair in the rhs
    "fem1d-forced": (lambda: _forced(build_fem_diffusion_1d(
        GridSpec(dim=1, n=32))), ("gauss", 3)),
    # circulant 1D operator, two pairs and a real factor: the FFT again
    "upwind1d": (lambda: LinearProblem(
        IdentityMass(32), build_upwind_advection(GridSpec(dim=1, n=32), 1.0)),
        ("lobattoIIIC", 5)),
}


def _traced_step(tracing, build_problem, scheme):
    """One traced set-up and one traced step, as run.py drives them:
    (tracer, problem, the step's Krylov reports)."""
    tracer = tracing.Tracer()
    tracer.begin_setup(0)
    try:
        problem = build_problem()
        stepper = IRKStepper(build_tableau(*scheme), problem, 0.05,
                             outer_cfg=KrylovConfig(rel_tol=1e-10))
    finally:
        tracer.unpatch()
    tracer.hook_steps(stepper)
    try:
        advance = tracer.wrap("stepper.advance", stepper.advance)
        tracer.next_step()
        u0 = np.random.default_rng(1).standard_normal(problem.n)
        _u, reports = advance(u0, 0.0)
    finally:
        tracer.unpatch()
    return tracer, problem, reports


@pytest.mark.parametrize("case", sorted(CASES))
def test_traced_step_has_every_layer(tracing, case):
    tracer, problem, reports = _traced_step(tracing, *CASES[case])
    spans = {tracer.names[i] for i in tracer.table()[:, 3]}
    expected = {"linop.shift", "linop.factorize", "spectral.setup",
                "linop.fov", "stepper.advance", "stepper.rhs",
                "stepper.factors", "krylov.solve", "linop.L_apply",
                "linop.op_apply", "linop.precond_apply"}
    if not problem.M.is_identity:
        expected.add("linop.M_apply")
    if problem.forcing is not None:
        expected.add("spatial.forcing")
        if not problem.M.is_identity:
            expected.add("linop.M_solve")
    assert expected <= spans
    assert ("linop.M_solve" in spans) == ("linop.M_solve" in expected)
    layers = tracing.layer_metrics(tracer, 1)
    assert layers["linop.precond_apply_s"] > 0.0
    assert layers["stepper.rhs_s"] > 0.0
    assert sum(r.preconditioner_applications for r in reports) > 0


@pytest.mark.parametrize("scheme", [("gauss", 2), ("radauIIA", 3)])
def test_fft_step_traces_one_precond_apply_per_iteration(tracing, scheme):
    # on the FFT path every GMRES iteration, pair or real factor, goes
    # through the traced apply of the inner solve exactly once
    build_problem, _scheme = CASES["mms2d"]
    tracer, _problem, reports = _traced_step(tracing, build_problem, scheme)
    t = tracer.table()
    step = t[t[:, 0] > 0]
    spans = np.count_nonzero(
        step[:, 3] == tracer.names.index("linop.precond_apply"))
    assert spans == sum(r.iterations for r in reports)


def test_second_setup_of_a_scheme_still_traces_its_layers(tracing):
    # the second set-up of a scheme takes its tableau and spectral data
    # from the caches, but still calls the names the tracer hooks, so
    # the set-up layer rows stay defined for every set-up
    build_problem, scheme = CASES["upwind1d"]
    tracer = tracing.Tracer()
    for k in range(2):
        tracer.begin_setup(k)
        try:
            IRKStepper(build_tableau(*scheme), build_problem(), 0.05)
        finally:
            tracer.unpatch()
    t = tracer.table()
    for k in range(2):
        spans = {tracer.names[i] for i in t[t[:, 0] == -(k + 1), 3]}
        assert {"spectral.setup", "linop.shift"} <= spans, k


def test_setup_hooks_and_stepper_placeholders_agree(tracing):
    # every hooked name exists in irksolve.stepper, and a name kept there
    # only as a None placeholder for a hook goes when its hook entry goes
    import irksolve.stepper as stepper_module
    hooked = {attr for attr, _name in tracing.SETUP_HOOKS}
    assert hooked <= set(vars(stepper_module))
    placeholders = {attr for attr, value in vars(stepper_module).items()
                    if value is None and not attr.startswith("__")}
    assert placeholders <= hooked
