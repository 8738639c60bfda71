"""What a run loads: scipy.sparse.linalg (SuperLU, ARPACK) only at the
four calls that use it, so a circulant run with the exact solve, with
M = I or the periodic FEM mass, never does.  Each check runs in a fresh
interpreter, since this test process loaded the module long ago."""

import os
from pathlib import Path
import subprocess
import sys

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULE = "scipy.sparse.linalg"


def _fresh(code):
    """stdout of code run by a new interpreter, with src ahead of the
    inherited PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_circulant_runs_never_load_sparse_linalg():
    code = f"""
import contextlib, io, sys
import irksolve
from irksolve import (GridSpec, IRKStepper, advance_oracle, build_fd_mms,
                      build_tableau, cli)
from irksolve.spatial import build_fem_diffusion_1d
from irksolve.experiments import ExperimentSpec, build_problem

def loaded():
    print({MODULE!r} in sys.modules)

loaded()
grid = GridSpec(dim=2, n=16)
prob = build_fd_mms(grid)
IRKStepper(build_tableau("gauss", 2), prob, 2 * grid.h).advance(
    prob.exact_solution(0.0), 0.0)
loaded()
advance_oracle(build_tableau("radauIIA", 5), prob, prob.exact_solution(0.0),
               0.0, 2 * grid.h)
loaded()
spec = ExperimentSpec(problem="advect1d-upwind", family="lobattoIIIC",
                      stages=5, grids=(64,))
prob, u, grid = build_problem(spec, 64)
IRKStepper(build_tableau("lobattoIIIC", 5), prob,
           spec.dt_ratio * grid.h).advance(u, 0.0)
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["run", "--problem", "advdiff2d", "--family", "gauss",
                     "--stages", "2", "--grids", "8,16", "--tf", "0.25"])
assert code == 0
loaded()
grid = GridSpec(dim=1, n=64)
prob = build_fem_diffusion_1d(grid)
u = prob.exact_solution(0.0)
IRKStepper(build_tableau("gauss", 3), prob, 2 * grid.h).advance(u, 0.0)
advance_oracle(build_tableau("radauIIA", 3), prob, u, 0.0, 2 * grid.h)
print({MODULE!r} in sys.modules or "scipy.linalg" in sys.modules)
"""
    assert _fresh(code) == ["False"] * 6


#: one call per place that imports scipy.sparse.linalg, each setting
#: result: _sparse_lu (a mass with no stencil, and its shifts),
#: GaussSeidel, the Lanczos branch of fov_upper_bound and
#: advance_oracle's LU, which a circulant L with M = I or a periodic
#: mass never reaches
_CALLS = {
    "fem1d-step": """
from irksolve import IRKStepper, SparseMass, build_tableau
from irksolve.experiments import ExperimentSpec, build_problem
from irksolve.stepper import LinearProblem
spec = ExperimentSpec(problem="diffusion1d-fem", family="gauss", stages=3,
                      grids=(64,))
fem, u, grid = build_problem(spec, 64)
prob = LinearProblem(SparseMass(fem.M.mat), fem.L)
result, _ = IRKStepper(build_tableau("gauss", 3), prob,
                       spec.dt_ratio * grid.h).advance(u, 0.0)
""",
    "gs1-solve": """
import numpy as np
from irksolve import GridSpec, build_fd_mms
from irksolve.linop import (build_inner_preconditioner, parse_inner,
                            shifted_operator)
prob = build_fd_mms(GridSpec(dim=1, n=64))
kind, params = parse_inner("gs:1")
P = build_inner_preconditioner(kind, shifted_operator(2.0, 1e-3, prob.M,
                                                      prob.L), **params)
result = P.apply(np.random.default_rng(5).standard_normal(prob.n))
""",
    "lanczos-fov": """
from irksolve import GridSpec
from irksolve.linop import DENSE_LIMIT, SparseOperator, fov_upper_bound
from irksolve.spatial import build_advdiff
L = SparseOperator(build_advdiff(GridSpec(dim=2, n=40), (0.85, 1.0),
                                 (0.3, 0.25), 4).mat)
assert L.n > DENSE_LIMIT
result = fov_upper_bound(L)
""",
    "oracle-step": """
from irksolve import GridSpec, SparseOperator, build_fd_mms, build_tableau
from irksolve.stepper import LinearProblem, advance_oracle
mms = build_fd_mms(GridSpec(dim=1, n=64))
prob = LinearProblem(mms.M, SparseOperator(mms.L.mat), mms.forcing)
result = advance_oracle(build_tableau("gauss", 2), prob,
                        mms.exact_solution(0.0), 0.0, 0.0625)
""",
}


@pytest.mark.parametrize("name", sorted(_CALLS))
def test_each_call_site_loads_sparse_linalg_on_first_use(name):
    code = (f"import sys\nimport numpy as np\nimport irksolve\n"
            f"print({MODULE!r} in sys.modules)\n{_CALLS[name]}\n"
            f"print({MODULE!r} in sys.modules)\n"
            "print(np.asarray(result, dtype=float).tobytes().hex())\n")
    before, after, data = _fresh(code)
    assert (before, after) == ("False", "True")
    namespace = {}
    exec(_CALLS[name], namespace)  # here the module is loaded already
    got = np.frombuffer(bytes.fromhex(data))
    want = np.asarray(namespace["result"], dtype=float).reshape(-1)
    assert np.array_equal(got, want)
