"""Golden iteration and preconditioner-application counts, one case per
solve path.  A change that keeps the algorithm (same Krylov iterations,
same preconditioner applications) must leave every number here as it
is; a change that alters the algorithm updates them on purpose.

Per factor: (mean_outer_iters, total_precond_apps).  GMRES applies the
preconditioner once per iteration; the conjugate-pair preconditioner
P M P is two inner applications, and gs:2 is two leaf sweeps each.
"""

import pytest

from irksolve.experiments import ExperimentSpec, run_convergence
from irksolve.krylov import KrylovConfig

ADV = dict(problem="advdiff1d", grids=(16,))
# 2D periodic grid: the exact inner solve is the FFT
ADV2D = dict(problem="advdiff2d", grids=(16,))

GOLDEN = {
    # IRK, GMRES outer, FFT inner: 8 steps x 5 x 2
    "irk-gmres-exact": (dict(ADV, family="gauss", stages=2),
                        [(5.0, 80)]),
    # IRK, CG outer on the symmetric FEM pair and the real factor.
    # Gauss-3 is not pinned here: R(inf) = -1 keeps rounding noise from
    # decaying, its state-relative target falls below that noise, and
    # its pair count moves with the last bits of u0 (31 to 33 iterations
    # over 16 steps when u0 is scaled by 1 +- 1e-15 .. 2e-13)
    "irk-cg-fem": (dict(problem="diffusion1d-fem", family="radauIIA",
                        stages=3, grids=(32,),
                        krylov=KrylovConfig(rel_tol=1e-10)),
                   [(1.0, 32), (1.0, 16)]),
    # IRK, GMRES outer, sparse-LU inner (the FEM mass): the pair's image
    # comes from the sandwich P M P, the real factor's from the LU
    "irk-gmres-lu-fem": (dict(problem="diffusion1d-fem", family="gauss",
                              stages=2, grids=(32,),
                              krylov=KrylovConfig(method="gmres",
                                                  rel_tol=1e-10)),
                         [(1.3125, 42)]),
    "irk-gmres-lu-fem-radau": (dict(problem="diffusion1d-fem",
                                    family="radauIIA", stages=3,
                                    grids=(32,),
                                    krylov=KrylovConfig(method="gmres",
                                                        rel_tol=1e-10)),
                               [(1.0, 32), (1.0, 16)]),
    # IRK, CG outer on the FEM pair alone
    "irk-cg-fem-pair": (dict(problem="diffusion1d-fem", family="gauss",
                             stages=2, grids=(32,)),
                        [(1.8125, 58)]),
    # IRK, GMRES outer, two Gauss-Seidel sweeps per inner application
    "irk-gs2": (dict(ADV, family="gauss", stages=2, inner="gs:2"),
                [(16.0, 512)]),
    # IRK, GMRES outer around an inner GMRES (counts inner iterations).
    # An inner GMRES stopped at 1e-2 can take one iteration more or less
    # when its input rounds differently, so this total moves with the
    # rounding of the RHS assembly; the outer count does not.
    "irk-krylov": (dict(ADV, family="gauss", stages=2, inner="krylov:1e-2"),
                   [(7.375, 731)]),
    # SDIRK: two chained real solves with one operator
    "sdirk": (dict(ADV, family="sdirk2l", stages=2), [(1.0, 8), (1.0, 8)]),
    "gsl": (dict(ADV, family="gauss", stages=2, integrator="gsl"),
            [(5.0, 80)]),
    "ld": (dict(ADV, family="gauss", stages=2, integrator="ld"),
           [(5.0, 80)]),
    # IRK, GMRES outer, FFT inner squared into the pair preconditioner
    "fft-gauss": (dict(ADV2D, family="gauss", stages=2), [(8.0, 128)]),
    # a pair and a real factor
    "fft-radau": (dict(ADV2D, family="radauIIA", stages=3),
                  [(11.0, 176), (1.0, 8)]),
    # gamma = eta, so delta = 0
    "fft-eta": (dict(ADV2D, family="gauss", stages=2, gamma_mode="eta"),
                [(11.0, 176)]),
    "fft-sdirk": (dict(ADV2D, family="sdirk2l", stages=2),
                  [(1.0, 8), (1.0, 8)]),
    # one combine per restart cycle
    "fft-restart2": (dict(ADV2D, family="gauss", stages=2,
                          krylov=KrylovConfig(method="gmres", restart=2)),
                     [(8.0, 128)]),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_counts(case):
    kw, expected = GOLDEN[case]
    (rec,), _orders = run_convergence(ExperimentSpec(**kw))
    assert all(f.converged for f in rec.factors)
    got = [(f.mean_outer_iters, f.total_precond_apps) for f in rec.factors]
    assert got == expected
