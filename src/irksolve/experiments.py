"""Reproducible experiment drivers emitting CSV.

Convergence studies against manufactured solutions, mesh-robustness
sweeps, optimal-shift versus naive-shift comparisons on the hyperbolic
problem, inner-iteration trade-off sweeps, and baseline comparisons
against SDIRK (run by IRKStepper, like every tableau) and
block-preconditioned stage solves.  Every driver runs its cases
through one case runner, which counts every Krylov solve of every step,
the failed one included, and returns the record with the final state.
All drivers are deterministic: a fixed spec produces a byte-identical
CSV.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .krylov import KrylovConfig
from .stepper import (GAMMA_MODES, BlockStepper, FactorSolveFailure,
                      IRKStepper, LinearProblem)
from .spatial import (GridSpec, build_fd_mms, build_fem_diffusion_1d,
                      build_upwind_advection)
from .linop import INNER_SOLVES, IdentityMass, parse_inner
from .tableaux import SDIRK_BASELINES, build_tableau, canonical_family

__all__ = [
    "ExperimentSpec",
    "RunRecord",
    "FactorStat",
    "CSV_HEADER",
    "run_convergence",
    "run_gamma_comparison",
    "run_inner_sweep",
    "run_baseline_comparison",
    "records_to_csv",
]

CSV_HEADER = ("family,stages,gamma_mode,nx,dt,steps,err_linf,err_l2,"
              "factor_index,eta,beta,gamma,mean_outer_iters,"
              "total_precond_apps,converged")


def _exact_start(prob):
    return prob, prob.exact_solution(0.0)


def _upwind_pulse(grid, spec):
    """Unit-speed upwind advection of a square pulse: broadband data, so
    outer Krylov iterations see the whole preconditioned spectrum rather
    than a few low modes."""
    L = build_upwind_advection(grid, 1.0)
    u0 = np.where(np.abs(grid.points_1d() + 0.3) <= 0.35, 1.0, 0.0)
    return LinearProblem(IdentityMass(grid.size), L), u0


def _fd_mms(grid, spec):
    return _exact_start(build_fd_mms(grid, fd_order=spec.fd_order))


#: problem name -> (grid dimension, builder(grid, spec) -> (problem, u0))
_PROBLEMS = {
    "advdiff1d": (1, _fd_mms),
    "advdiff2d": (2, _fd_mms),
    "advect1d-upwind": (1, _upwind_pulse),
    "diffusion1d-fem": (1, lambda grid, spec:
                        _exact_start(build_fem_diffusion_1d(grid))),
}
PROBLEMS = tuple(_PROBLEMS)
INTEGRATORS = ("irk", "gsl", "ld")


@dataclass(frozen=True)
class ExperimentSpec:
    problem: str
    family: str
    stages: int
    grids: tuple
    dt_ratio: float = 2.0          # dt = dt_ratio * h
    t_final: float = 2.0
    fd_order: int = 4
    krylov: KrylovConfig = field(default_factory=KrylovConfig)
    # exact | jacobi:k | gs:k (gauss-seidel:k) | krylov:tol[:maxit]: the
    # spec linop.parse_inner reads, with every spelling of INNER_SOLVES
    inner: str = "exact"
    gamma_mode: str = "gamma_star"  # gamma_star | eta
    integrator: str = "irk"        # irk (any tableau) | gsl | ld

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"choose from {PROBLEMS}")
        grids = tuple(int(n) for n in self.grids)
        if not grids:
            raise ValueError("grid list must not be empty")
        if any(b <= a for a, b in zip(grids, grids[1:])):
            raise ValueError("grid list must be strictly increasing")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "family",
                           build_tableau(self.family, self.stages).family)
        for name in ("t_final", "dt_ratio"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value}")
        parse_inner(self.inner)
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}; "
                             f"choose from {INTEGRATORS} (SDIRK tableaux "
                             f"run with integrator 'irk')")
        if self.gamma_mode not in GAMMA_MODES:
            raise ValueError(f"unknown gamma_mode {self.gamma_mode!r}; "
                             f"choose from {GAMMA_MODES}")
        if self.gamma_mode != "gamma_star" and self.integrator != "irk":
            raise ValueError(f"gamma_mode {self.gamma_mode!r} needs "
                             f"integrator 'irk': {self.integrator} takes none")


@dataclass
class FactorStat:
    index: int
    eta: float
    beta: float
    gamma: float
    mean_outer_iters: float
    total_precond_apps: int
    converged: bool


@dataclass
class RunRecord:
    family: str
    stages: int
    gamma_mode: str
    nx: int
    dt: float
    steps: int
    err_linf: float
    err_l2: float
    factors: list


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def records_to_csv(records, header=True) -> str:
    """Flatten RunRecords to the CSV contract: one row per (grid, factor)."""
    lines = [CSV_HEADER] if header else []
    for r in records:
        for f in r.factors:
            lines.append(",".join(_fmt(v) for v in (
                r.family, r.stages, r.gamma_mode, r.nx, r.dt, r.steps,
                r.err_linf, r.err_l2, f.index, f.eta, f.beta, f.gamma,
                f.mean_outer_iters, f.total_precond_apps, f.converged)))
    return "\n".join(lines) + "\n"


def build_problem(spec: ExperimentSpec, n: int):
    """Returns (problem, u0, grid) for one grid size."""
    dim, build = _PROBLEMS[spec.problem]
    grid = GridSpec(dim=dim, n=n)
    return *build(grid, spec), grid


def _integrate_one(spec: ExperimentSpec, n: int):
    """Run one (grid, integrator) case; returns (RunRecord, final state).

    Every Krylov solve is counted, the failed one included: each step's
    reports go to one list per factor, and the record's counts are read
    from those lists.  A solve that does not converge is recorded on its
    factor, not raised, and ends the run at the last state reached.
    Errors are computed only when every solve converged."""
    prob, u, grid = build_problem(spec, n)
    dt = spec.dt_ratio * grid.h
    steps = max(1, round(spec.t_final / dt))
    kind, params = parse_inner(spec.inner)
    tab = build_tableau(spec.family, spec.stages)

    common = dict(outer_cfg=spec.krylov, inner_kind=kind, inner_params=params)
    if spec.integrator == "irk":
        st = IRKStepper(tab, prob, dt, gamma_mode=spec.gamma_mode, **common)
    else:
        st = BlockStepper(tab, prob, dt, variant=spec.integrator, **common)
    summary = st.factor_summary()

    solves = [[] for _ in summary]
    tn = 0.0
    for _ in range(steps):
        try:
            u, reports = st.advance(u, tn)
        except FactorSolveFailure as exc:
            reports = exc.reports
        for done, rep in zip(solves, reports):
            done.append(rep)
        if not reports[-1].converged:
            break
        tn += dt

    factors = [FactorStat(
        index=idx, eta=eta, beta=beta, gamma=gamma,
        mean_outer_iters=(sum(r.iterations for r in done) / len(done)
                          if done else math.nan),
        total_precond_apps=sum(r.preconditioner_applications for r in done),
        converged=all(r.converged for r in done))
        for (idx, eta, beta, gamma), done in zip(summary, solves)]
    err_linf = err_l2 = math.nan
    if all(f.converged for f in factors) and prob.exact_solution is not None:
        e = u - prob.exact_solution(tn)
        err_linf = float(np.max(np.abs(e)))
        err_l2 = float(np.sqrt(grid.h ** grid.dim * np.sum(e * e)))
    rec = RunRecord(family=spec.family, stages=spec.stages,
                    gamma_mode=spec.gamma_mode, nx=n, dt=dt, steps=steps,
                    err_linf=err_linf, err_l2=err_l2, factors=factors)
    return rec, u


def observed_orders(records):
    """log(e_coarse/e_fine)/log(dt_coarse/dt_fine) between consecutive
    grids, for both error norms."""
    out = []
    for a, b in zip(records, records[1:]):
        denom = np.log(a.dt / b.dt)
        o_inf = float(np.log(a.err_linf / b.err_linf) / denom)
        o_l2 = float(np.log(a.err_l2 / b.err_l2) / denom)
        out.append((a.nx, b.nx, o_inf, o_l2))
    return out


def run_convergence(spec: ExperimentSpec):
    """Integrate on each grid; returns (records, orders).  Refinement
    halts at the first grid with a non-converged solve.  Orders are
    taken between the records with finite errors: a record's errors are
    nan when a solve failed or the problem has no exact solution."""
    records = []
    for n in spec.grids:
        rec, _u = _integrate_one(spec, n)
        records.append(rec)
        if not all(f.converged for f in rec.factors):
            break
    ok = [r for r in records if np.isfinite([r.err_linf, r.err_l2]).all()]
    return records, observed_orders(ok)


def run_gamma_comparison(spec: ExperimentSpec):
    """Identical integrations with the optimal and the naive shift;
    returns (records, speedups) with one speedup row per (grid, factor):
    (nx, factor_index, eta, beta, iters_eta, iters_gamma_star, ratio)."""
    rec_eta = [_integrate_one(replace(spec, gamma_mode="eta"), n)[0]
               for n in spec.grids]
    rec_gs = [_integrate_one(replace(spec, gamma_mode="gamma_star"), n)[0]
              for n in spec.grids]
    speedups = []
    for re_, rg in zip(rec_eta, rec_gs):
        for fe, fg in zip(re_.factors, rg.factors):
            ratio = (fe.mean_outer_iters / fg.mean_outer_iters
                     if fg.mean_outer_iters else float("nan"))
            speedups.append((re_.nx, fe.index, fe.eta, fe.beta,
                             fe.mean_outer_iters, fg.mean_outer_iters,
                             float(ratio)))
    return rec_eta + rec_gs, speedups


def run_inner_sweep(spec: ExperimentSpec, sweep):
    """Re-run the integration with k = sweep[i] sweeps per preconditioner
    application, for an inner kind whose first parameter is sweeps.
    Non-convergence is a recorded outcome (rows are never fatal)."""
    kind, _ = parse_inner(spec.inner)
    if list(INNER_SOLVES[kind].params)[:1] != ["sweeps"]:
        raise ValueError("inner sweep needs a relaxation inner kind")
    records = []
    for k in sweep:
        s = replace(spec, inner=f"{kind}:{int(k)}")
        records.append((int(k), _integrate_one(s, spec.grids[-1])[0]))
    return records


def run_baseline_comparison(spec: ExperimentSpec, sdirk_family: str = "SDIRK2L"):
    """IRK (this framework), GSL, LD on spec's tableau plus an SDIRK
    baseline, all on the same problem.  Returns rows (name, record,
    apps_per_step_per_stage, final_solution) named irk, gsl, ld, sdirk.

    IRK/GSL/LD compute the same discrete update, so their final
    solutions agree to solver tolerance; the SDIRK baseline is a
    different discretization and is reported for cost only.
    """
    fam = canonical_family(sdirk_family)
    if fam not in SDIRK_BASELINES:
        raise ValueError(f"{fam} is not an SDIRK baseline; choose from "
                         f"{', '.join(SDIRK_BASELINES)}")
    cases = [(integ, replace(spec, integrator=integ)) for integ in INTEGRATORS]
    cases.append(("sdirk", replace(spec, integrator="irk", family=fam,
                                   stages=SDIRK_BASELINES[fam])))
    rows = []
    for name, case in cases:
        rec, u = _integrate_one(case, spec.grids[-1])
        total = sum(f.total_precond_apps for f in rec.factors)
        rows.append((name, rec, total / rec.steps / rec.stages, u))
    return rows
