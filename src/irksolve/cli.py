"""Command-line front end.

Subcommands: tableau, spectrum, cond, run, compare-gamma, inner-sweep,
baseline.  Every run first echoes its fully resolved configuration as
'#'-prefixed comment lines; re-feeding the echoed flags reproduces the
output verbatim.  Exit codes: 0 success, 1 solver non-convergence,
2 invalid arguments.
"""

import argparse
import math
import sys

import numpy as np

from . import conditioning as cond_mod
from .experiments import (CSV_HEADER, PROBLEMS, ExperimentSpec,
                          records_to_csv, run_baseline_comparison,
                          run_convergence, run_gamma_comparison,
                          run_inner_sweep)
from .krylov import KrylovConfig
from .spectral import factor_list, spectral_decompose
from .tableaux import build_tableau, validate_tableau

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _f(x: float) -> str:
    return repr(float(x))


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="irksolve",
                                description="IRK integration with "
                                "conjugate-pair preconditioning")
    sub = p.add_subparsers(dest="command", required=True)

    def add_scheme_flags(sp):
        sp.add_argument("--family", required=True,
                        help="gauss | radauIIA | lobattoIIIC | sdirk2l | "
                             "sdirk3l | backwardEuler")
        sp.add_argument("--stages", type=int, required=True)

    def add_output(sp):
        sp.add_argument("-o", "--output", default=None,
                        help="write to file instead of stdout")

    sp = sub.add_parser("tableau", help="print a Butcher tableau and its "
                                        "validation residuals")
    add_scheme_flags(sp)
    sp.add_argument("--csv", action="store_true")
    add_output(sp)

    sp = sub.add_parser("spectrum", help="per-factor eigenvalues, optimal "
                                         "shifts and condition-number bounds")
    add_scheme_flags(sp)
    sp.add_argument("--csv", action="store_true")
    add_output(sp)

    sp = sub.add_parser("cond", help="condition-number verification")
    add_scheme_flags(sp)
    sp.add_argument("--mode", choices=("tight", "random", "scan", "optimality"),
                    default="tight")
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--size", type=int, default=32)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--gamma-points", type=int, default=20)
    add_output(sp)

    def add_run_flags(sp, default_problem, default_ratio):
        sp.add_argument("--problem", choices=PROBLEMS, default=default_problem)
        add_scheme_flags(sp)
        sp.add_argument("--grids", default="32",
                        help="comma-separated grid sizes, e.g. 16,32,64")
        sp.add_argument("--order-space", type=int, default=4, choices=(2, 4))
        sp.add_argument("--tf", type=float, default=2.0)
        sp.add_argument("--dt-ratio", type=float, default=default_ratio,
                        help="dt = ratio * h")
        sp.add_argument("--krylov", default="auto",
                        choices=("auto", "cg", "gmres"))
        sp.add_argument("--tol", type=float, default=1e-12)
        sp.add_argument("--restart", type=int, default=30)
        sp.add_argument("--max-iters", type=int, default=2000)
        sp.add_argument("--inner", default="exact",
                        help="exact | jacobi:k | gs:k | krylov:tol[:maxit]")
        add_output(sp)

    sp = sub.add_parser("run", help="convergence / robustness study")
    add_run_flags(sp, "advdiff2d", 2.0)
    sp.add_argument("--gamma-mode", choices=("gamma_star", "eta"),
                    default="gamma_star")
    sp.add_argument("--integrator", choices=("irk", "sdirk", "gsl", "ld"),
                    default="irk")

    sp = sub.add_parser("compare-gamma",
                        help="optimal vs naive preconditioner shift")
    add_run_flags(sp, "advect1d-upwind", 8.0)

    sp = sub.add_parser("inner-sweep",
                        help="outer cost vs inner relaxation sweeps")
    add_run_flags(sp, "advdiff1d", 2.0)
    sp.add_argument("--sweep", default="1,2,3,5",
                    help="comma-separated sweep counts")

    sp = sub.add_parser("baseline",
                        help="IRK vs GSL/LD/SDIRK preconditioner cost")
    add_run_flags(sp, "advdiff1d", 2.0)
    sp.add_argument("--sdirk-family", default="sdirk2l")

    return p


def _echo_run_flags(args, extra=()):
    toks = [args.command,
            "--problem", args.problem,
            "--family", args.family,
            "--stages", str(args.stages),
            "--grids", ",".join(str(g) for g in args.grid_list),
            "--order-space", str(args.order_space),
            "--tf", _f(args.tf),
            "--dt-ratio", _f(args.dt_ratio),
            "--krylov", args.krylov,
            "--tol", _f(args.tol),
            "--restart", str(args.restart),
            "--max-iters", str(args.max_iters),
            "--inner", args.inner]
    toks += list(extra)
    return toks


def _spec_from_args(args, **overrides):
    cfg = KrylovConfig(method=args.krylov, rel_tol=args.tol,
                       max_iters=args.max_iters, restart=args.restart)
    kw = dict(problem=args.problem, family=args.family, stages=args.stages,
              grids=tuple(args.grid_list), dt_ratio=args.dt_ratio,
              t_final=args.tf, fd_order=args.order_space, krylov=cfg,
              inner=args.inner)
    kw.update(overrides)
    return ExperimentSpec(**kw)


class _Out:
    """Standard output, or the -o file, opened at the first line written.
    Each command checks its scheme and builds its spec (which reads
    --inner) before its echo line, so a usage error found there leaves
    no output and no file."""

    def __init__(self, path):
        self._path = path
        self._fh = None if path else sys.stdout

    def line(self, s=""):
        if self._fh is None:
            self._fh = open(self._path, "w")
        self._fh.write(s + "\n")

    def done(self):
        if self._path and self._fh is not None:
            self._fh.close()


def _emit_echo(out, toks):
    out.line("# cmd: " + " ".join(toks))


# ----------------------------------------------------------------------
# subcommand implementations

def _cmd_tableau(args, out):
    t = build_tableau(args.family, args.stages)
    _emit_echo(out, ["tableau", "--family", args.family, "--stages",
                     str(args.stages)] + (["--csv"] if args.csv else []))
    rep = validate_tableau(t)
    if args.csv:
        out.line("i,j,a_ij")
        for i in range(t.s):
            for j in range(t.s):
                out.line(f"{i},{j},{_f(t.A0[i, j])}")
        out.line("i,b_i,c_i")
        for i in range(t.s):
            out.line(f"{i},{_f(t.b0[i])},{_f(t.c0[i])}")
    else:
        out.line(f"{t.family}  stages={t.s}  order={t.order}")
        width = 22
        out.line("A0:")
        for row in t.A0:
            out.line("  " + "".join(f"{v:>{width}.15g}" for v in row))
        out.line("b0:")
        out.line("  " + "".join(f"{v:>{width}.15g}" for v in t.b0))
        out.line("c0:")
        out.line("  " + "".join(f"{v:>{width}.15g}" for v in t.c0))
        out.line("validation:")
        for name, res, tol, ok in rep.checks:
            out.line(f"  {name:<28s} residual={res:.3e}  tol={tol:.0e}  "
                     f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_SOLVER


def _cmd_spectrum(args, out):
    t = build_tableau(args.family, args.stages)
    _emit_echo(out, ["spectrum", "--family", args.family, "--stages",
                     str(args.stages)] + (["--csv"] if args.csv else []))
    factors = factor_list(spectral_decompose(t))
    if args.csv:
        out.line("factor,eta,beta,gamma_star,kappa_bound")
        for i, f in enumerate(factors):
            out.line(f"{i},{_f(f.eta)},{_f(f.beta)},{_f(f.gamma_star)},"
                     f"{_f(f.kappa_bound)}")
    else:
        out.line(f"{t.family}({t.s}): {len(factors)} factor(s)")
        for i, f in enumerate(factors):
            kind = "real" if f.is_real else "conjugate pair"
            out.line(f"  [{i}] {kind:<14s} eta={f.eta:.6f} beta={f.beta:.6f} "
                     f"gamma*={f.gamma_star:.6f} kappa_bound={f.kappa_bound:.4f}")
    return EXIT_OK


def _cmd_cond(args, out):
    counts = {"random": (("--trials", args.trials), ("--size", args.size)),
              "optimality": (("--gamma-points", args.gamma_points),)}
    for flag, value in counts.get(args.mode, ()):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    t = build_tableau(args.family, args.stages)
    _emit_echo(out, ["cond", "--family", args.family, "--stages",
                     str(args.stages), "--mode", args.mode,
                     "--trials", str(args.trials), "--size", str(args.size),
                     "--seed", str(args.seed),
                     "--gamma-points", str(args.gamma_points)])
    factors = factor_list(spectral_decompose(t))
    out.line("factor,eta,beta,gamma,kappa_measured,kappa_bound")

    def emit(i, eta, beta, gamma, km, kb):
        out.line(f"{i},{_f(eta)},{_f(beta)},{_f(gamma)},{_f(km)},{_f(kb)}")

    rng = np.random.default_rng(args.seed)
    for i, f in enumerate(factors):
        eta, beta = f.eta, f.beta
        gs = math.hypot(eta, beta)
        if args.mode == "tight":
            L = cond_mod.tightness_matrix(eta, beta)
            r = cond_mod.compute_kappa(L, eta, beta)
            emit(i, eta, beta, r.gamma, r.kappa_measured, r.kappa_bound)
        elif args.mode == "random":
            worst = 0.0
            for _ in range(args.trials):
                L = cond_mod.random_stable_matrix(args.size, rng,
                                                  scale=1.0 + gs)
                r = cond_mod.compute_kappa(L, eta, beta)
                worst = max(worst, r.kappa_measured)
            emit(i, eta, beta, gs, worst, math.sqrt(1 + (beta / eta) ** 2))
        elif args.mode == "scan":
            xi = np.concatenate([[0.0], np.geomspace(1e-3 * gs, 50 * gs, 400),
                                 [gs]])
            H = cond_mod.h_scan(gs, gs, eta, beta, xi)
            est = float(np.sqrt(H.max() / H.min()))
            emit(i, eta, beta, gs, est, math.sqrt(1 + (beta / eta) ** 2))
        else:  # optimality
            grid = gs * np.linspace(0.5, 1.5, args.gamma_points)
            for row in cond_mod.optimality_probe(eta, beta, grid):
                emit(i, eta, beta, row["gamma"],
                     math.sqrt(row["lower_bound_kappa2"]),
                     math.sqrt(row["kappa2_opt"]))
    return EXIT_OK


def _records_exit(records):
    ok = all(f.converged for r in records for f in r.factors)
    return EXIT_OK if ok else EXIT_SOLVER


def _cmd_run(args, out):
    spec = _spec_from_args(args, gamma_mode=args.gamma_mode,
                           integrator=args.integrator)
    toks = _echo_run_flags(args, ["--gamma-mode", args.gamma_mode,
                                  "--integrator", args.integrator])
    _emit_echo(out, toks)
    records, orders = run_convergence(spec)
    for (na, nb, o_inf, o_l2) in orders:
        out.line(f"# observed_order {na}->{nb}: linf={o_inf:.4f} l2={o_l2:.4f}")
    out.line(records_to_csv(records).rstrip("\n"))
    return _records_exit(records)


def _cmd_compare_gamma(args, out):
    spec = _spec_from_args(args)
    _emit_echo(out, _echo_run_flags(args))
    records, speedups = run_gamma_comparison(spec)
    for (nx, idx, eta, beta, it_e, it_g, ratio) in speedups:
        out.line(f"# speedup nx={nx} factor={idx} eta={eta:.4f} "
                 f"beta={beta:.4f} iters_eta={it_e:.2f} "
                 f"iters_gamma_star={it_g:.2f} ratio={ratio:.3f}")
    out.line(records_to_csv(records).rstrip("\n"))
    return _records_exit(records)


def _cmd_inner_sweep(args, out):
    spec = _spec_from_args(args)
    sweep = [int(k) for k in args.sweep.split(",")]
    toks = _echo_run_flags(args, ["--sweep", args.sweep])
    _emit_echo(out, toks)
    rows = run_inner_sweep(spec, sweep)
    for k, rec in rows:
        total = sum(f.total_precond_apps for f in rec.factors)
        ok = all(f.converged for f in rec.factors)
        out.line(f"# sweep k={k} converged={int(ok)} total_precond_apps={total}")
    out.line(records_to_csv([rec for _, rec in rows]).rstrip("\n"))
    return EXIT_OK  # recorded non-convergence is an expected outcome here


def _cmd_baseline(args, out):
    spec = _spec_from_args(args)
    toks = _echo_run_flags(args, ["--sdirk-family", args.sdirk_family])
    _emit_echo(out, toks)
    rows = run_baseline_comparison(spec, sdirk_family=args.sdirk_family)
    u_irk = rows[0][3]
    for name, rec, per_stage, u in rows:
        drift = (float(np.linalg.norm(u - u_irk)
                       / max(np.linalg.norm(u_irk), 1e-300))
                 if name in ("gsl", "ld") else float("nan"))
        out.line(f"# integrator={name} apps_per_step_per_stage={per_stage:.3f}"
                 f" rel_diff_vs_irk={drift:.3e}")
    out.line(CSV_HEADER)
    for name, rec, _ps, _u in rows:
        out.line(f"# integrator={name}")
        out.line(records_to_csv([rec], header=False).rstrip("\n"))
    return _records_exit([r for _, r, _, _ in rows])


_DISPATCH = {
    "tableau": _cmd_tableau,
    "spectrum": _cmd_spectrum,
    "cond": _cmd_cond,
    "run": _cmd_run,
    "compare-gamma": _cmd_compare_gamma,
    "inner-sweep": _cmd_inner_sweep,
    "baseline": _cmd_baseline,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    if hasattr(args, "grids"):
        try:
            args.grid_list = [int(g) for g in str(args.grids).split(",")]
        except ValueError:
            print(f"invalid --grids value {args.grids!r}", file=sys.stderr)
            return EXIT_USAGE

    out = _Out(getattr(args, "output", None))
    try:
        return _DISPATCH[args.command](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # solver-level failures
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    finally:
        out.done()


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
