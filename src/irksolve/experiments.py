"""Reproducible experiment drivers emitting CSV.

Convergence studies against manufactured solutions, mesh-robustness
sweeps, optimal-shift versus naive-shift comparisons on the hyperbolic
problem, inner-iteration trade-off sweeps, and baseline comparisons
against SDIRK (run by IRKStepper, like every tableau) and
block-preconditioned stage solves.  All drivers are deterministic: a
fixed spec produces a byte-identical CSV.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .krylov import KrylovConfig
from .stepper import (GAMMA_MODES, BlockStepper, FactorSolveFailure,
                      IRKStepper, LinearProblem)
from .spatial import (GridSpec, build_fd_mms, build_fem_diffusion_1d,
                      build_upwind_advection)
from .linop import IdentityMass
from .tableaux import SUPPORTED_TABLEAUX, build_tableau, canonical_family

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

PROBLEMS = ("advdiff1d", "advdiff2d", "advect1d-upwind", "diffusion1d-fem")
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
    inner: str = "exact"           # exact | jacobi:k | gs:k | krylov:tol
    gamma_mode: str = "gamma_star"  # gamma_star | eta
    integrator: str = "irk"        # irk (any tableau) | gsl | ld

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; "
                             f"choose from {PROBLEMS}")
        grids = tuple(int(n) for n in self.grids)
        if any(b <= a for a, b in zip(grids, grids[1:])):
            raise ValueError("grid list must be strictly increasing")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "family",
                           build_tableau(self.family, self.stages).family)
        if self.t_final <= 0:
            raise ValueError("t_final must be positive")
        if self.dt_ratio <= 0:
            raise ValueError("dt_ratio must be positive")
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


_RELAXATION = (("sweeps", int),)
_KRYLOV = (("tol", float), ("maxit", int))

#: lower-case spec name -> (kind, the spec's positional parameters)
_INNER_SPECS = {
    "exact": ("exact", ()),
    "jacobi": ("jacobi", _RELAXATION),
    "gs": ("gauss_seidel", _RELAXATION),
    "gauss_seidel": ("gauss_seidel", _RELAXATION),
    "gauss-seidel": ("gauss_seidel", _RELAXATION),
    "krylov": ("inner_krylov", _KRYLOV),
    "inner_krylov": ("inner_krylov", _KRYLOV),
    "inner-krylov": ("inner_krylov", _KRYLOV),
}


def parse_inner(spec: str, dim=None):
    """Map an inner-preconditioner spec 'name[:p1[:p2]]' to (kind,
    params), the arguments of linop.build_inner_preconditioner.

    This is the one reader of the spec.  The name is case-insensitive;
    the positional parameters are sweeps for jacobi and gs, and tol and
    maxit for krylov; one left out takes the constructor's default, and
    one more than the kind takes is a ValueError.  'exact' is an exact
    solve chosen from the operator's structure (see
    linop.build_inner_preconditioner).  dim is ignored; it is kept only
    because the benchmark workloads still pass it.
    """
    name, *args = spec.split(":")
    try:
        kind, fields = _INNER_SPECS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown inner preconditioner spec {spec!r}") from None
    if len(args) > len(fields):
        raise ValueError(f"inner preconditioner spec {spec!r} takes at most "
                         f"{len(fields)} parameter(s)")
    return kind, {key: cast(a) for (key, cast), a in zip(fields, args)}


def build_problem(spec: ExperimentSpec, n: int):
    """Returns (problem, u0, dim) for one grid size."""
    if spec.problem == "advdiff1d":
        grid = GridSpec(dim=1, n=n)
        prob = build_fd_mms(grid, fd_order=spec.fd_order)
        return prob, prob.exact_solution(0.0), 1
    if spec.problem == "advdiff2d":
        grid = GridSpec(dim=2, n=n)
        prob = build_fd_mms(grid, fd_order=spec.fd_order)
        return prob, prob.exact_solution(0.0), 2
    if spec.problem == "advect1d-upwind":
        grid = GridSpec(dim=1, n=n)
        L = build_upwind_advection(grid, 1.0)
        prob = LinearProblem(IdentityMass(grid.size), L)
        # square pulse: broadband data, so outer Krylov iterations see
        # the whole preconditioned spectrum rather than a few low modes
        x = grid.points_1d()
        u0 = np.where(np.abs(x + 0.3) <= 0.35, 1.0, 0.0)
        return prob, u0, 1
    if spec.problem == "diffusion1d-fem":
        grid = GridSpec(dim=1, n=n)
        prob = build_fem_diffusion_1d(grid)
        return prob, prob.exact_solution(0.0), 1
    raise ValueError(spec.problem)


def _steps_for(spec: ExperimentSpec, h: float):
    dt = spec.dt_ratio * h
    steps = max(1, round(spec.t_final / dt))
    return dt, steps


def _errors(u, prob, t, h, dim):
    if prob.exact_solution is None:
        return float("nan"), float("nan")
    e = u - prob.exact_solution(t)
    return float(np.max(np.abs(e))), float(np.sqrt(h ** dim * np.sum(e * e)))


def _integrate_one(spec: ExperimentSpec, n: int, return_solution=False):
    """Run one (grid, integrator) case; returns a RunRecord (and the
    final solution vector when requested).  Solver non-convergence is
    recorded on the failing factor, not raised."""
    prob, u, dim = build_problem(spec, n)
    h = 2.0 / n
    dt, steps = _steps_for(spec, h)
    kind, params = parse_inner(spec.inner)
    tab = build_tableau(spec.family, spec.stages)

    common = dict(outer_cfg=spec.krylov, inner_kind=kind, inner_params=params)
    if spec.integrator == "irk":
        st = IRKStepper(tab, prob, dt, gamma_mode=spec.gamma_mode, **common)
    else:
        st = BlockStepper(tab, prob, dt, variant=spec.integrator, **common)
    summary = st.factor_summary()

    nfac = len(summary)
    iters = np.zeros(nfac)
    apps = np.zeros(nfac, dtype=int)
    done_steps = np.zeros(nfac, dtype=int)
    converged = [True] * nfac
    tn = 0.0
    for _ in range(steps):
        try:
            u, reports = st.advance(u, tn)
        except FactorSolveFailure as exc:
            converged[exc.factor_index] = False
            iters[exc.factor_index] += exc.report.iterations
            apps[exc.factor_index] += exc.report.preconditioner_applications
            done_steps[exc.factor_index] += 1
            break
        for i, rep in enumerate(reports):
            iters[i] += rep.iterations
            apps[i] += rep.preconditioner_applications
            done_steps[i] += 1
        tn += dt

    err_linf, err_l2 = (_errors(u, prob, tn, h, dim)
                        if all(converged) else (float("nan"), float("nan")))
    factors = []
    for i, (idx, eta, beta, gamma) in enumerate(summary):
        mean_it = iters[i] / done_steps[i] if done_steps[i] else float("nan")
        factors.append(FactorStat(index=idx, eta=eta, beta=beta, gamma=gamma,
                                  mean_outer_iters=float(mean_it),
                                  total_precond_apps=int(apps[i]),
                                  converged=converged[i]))
    rec = RunRecord(family=spec.family, stages=spec.stages,
                    gamma_mode=spec.gamma_mode, nx=n, dt=dt, steps=steps,
                    err_linf=err_linf, err_l2=err_l2, factors=factors)
    return (rec, u) if return_solution else rec


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
    halts at the first grid with a non-converged solve."""
    records = []
    for n in spec.grids:
        rec = _integrate_one(spec, n)
        records.append(rec)
        if not all(f.converged for f in rec.factors):
            break
    ok = [r for r in records if all(f.converged for f in r.factors)]
    return records, observed_orders(ok)


def run_gamma_comparison(spec: ExperimentSpec):
    """Identical integrations with the optimal and the naive shift;
    returns (records, speedups) with one speedup row per (grid, factor):
    (nx, factor_index, eta, beta, iters_eta, iters_gamma_star, ratio)."""
    rec_eta = [_integrate_one(replace(spec, gamma_mode="eta"), n)
               for n in spec.grids]
    rec_gs = [_integrate_one(replace(spec, gamma_mode="gamma_star"), n)
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
    """Re-run the integration with k = sweep[i] relaxation sweeps per
    preconditioner application.  Non-convergence is a recorded outcome
    (rows are never fatal)."""
    kind, _ = parse_inner(spec.inner)
    if kind not in ("jacobi", "gauss_seidel"):
        raise ValueError("inner sweep needs a relaxation inner kind")
    records = []
    for k in sweep:
        s = replace(spec, inner=f"{kind}:{int(k)}")
        records.append((int(k), _integrate_one(s, spec.grids[-1])))
    return records


def _sdirk_baselines() -> dict:
    """{family: s} for the SDIRK baselines: the families with one
    supported tableau (s stages), and that tableau lower triangular."""
    families = [fam for fam, _s in SUPPORTED_TABLEAUX]
    return {fam: s for fam, s in SUPPORTED_TABLEAUX
            if families.count(fam) == 1
            and build_tableau(fam, s).is_lower_triangular}


def run_baseline_comparison(spec: ExperimentSpec, sdirk_family: str = "SDIRK2L"):
    """IRK (this framework), GSL, LD on spec's tableau plus an SDIRK
    baseline, all on the same problem.  Returns rows (name, record,
    apps_per_step_per_stage, final_solution) named irk, gsl, ld, sdirk.

    IRK/GSL/LD compute the same discrete update, so their final
    solutions agree to solver tolerance; the SDIRK baseline is a
    different discretization and is reported for cost only.
    """
    fam, baselines = canonical_family(sdirk_family), _sdirk_baselines()
    if fam not in baselines:
        raise ValueError(f"{fam} is not an SDIRK baseline; choose from "
                         f"{', '.join(baselines)}")
    cases = [(integ, replace(spec, integrator=integ)) for integ in INTEGRATORS]
    cases.append(("sdirk", replace(spec, integrator="irk", family=fam,
                                   stages=baselines[fam])))
    rows = []
    for name, case in cases:
        rec, u = _integrate_one(case, spec.grids[-1], return_solution=True)
        total = sum(f.total_precond_apps for f in rec.factors)
        rows.append((name, rec, total / rec.steps / rec.stages, u))
    return rows
