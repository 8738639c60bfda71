"""Command-line front end.

Subcommands: tableau, spectrum, cond, run, compare-gamma, inner-sweep,
baseline.  Each command collects its output lines; `main` writes them
once, after the command returns, behind a '# cmd:' echo line built from
the subcommand's own argparse definitions (every flag but -o, in
definition order), so re-feeding the echo reproduces the output
verbatim.  Stdout, or the -o file (opened only at that write), gets
nothing unless the command finishes.  Exit codes: 0 success, 1 solver
non-convergence or failure (FieldOfValuesViolation, DefectiveTableau),
2 invalid arguments (any other ValueError) or an unwritable -o file.
"""

import argparse
import math
import sys

import numpy as np

from . import conditioning as cond_mod
from .experiments import (CSV_HEADER, GAMMA_MODES, PROBLEMS,
                          ExperimentSpec, records_to_csv,
                          run_baseline_comparison, run_convergence,
                          run_gamma_comparison, run_inner_sweep)
from .krylov import KrylovConfig
from .linop import INNER_SOLVES, FieldOfValuesViolation
from .spectral import DefectiveTableau, factor_list, spectral_decompose
from .tableaux import SUPPORTED_TABLEAUX, build_tableau, validate_tableau

EXIT_OK = 0
EXIT_SOLVER = 1
EXIT_USAGE = 2


def _f(x: float) -> str:
    return repr(float(x))


def _int_list(text: str) -> list[int]:
    try:
        return [int(k) for k in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None


def _build_parser():
    """The parser, and per subcommand the actions its flags define, in
    definition order."""
    p = argparse.ArgumentParser(prog="irksolve",
                                description="IRK integration with "
                                "conjugate-pair preconditioning")
    sub = p.add_subparsers(dest="command", required=True)
    actions = {}

    def command(name, help):
        sp = sub.add_parser(name, help=help)
        defined = actions[name] = []

        def flag(*names, **kw):
            defined.append(sp.add_argument(*names, **kw))
        return flag

    def add_scheme_flags(flag):
        flag("--family", required=True,
             help=" | ".join(dict.fromkeys(f for f, _ in SUPPORTED_TABLEAUX)))
        flag("--stages", type=int, required=True)

    def add_output(flag):
        flag("-o", "--output", default=None,
             help="write to file instead of stdout")

    for name, help in (("tableau", "print a Butcher tableau and its "
                                   "validation residuals"),
                       ("spectrum", "per-factor eigenvalues, optimal "
                                    "shifts and condition-number bounds")):
        flag = command(name, help)
        add_scheme_flags(flag)
        flag("--csv", action="store_true")
        add_output(flag)

    flag = command("cond", "condition-number verification")
    add_scheme_flags(flag)
    flag("--mode", choices=("tight", "random", "scan", "optimality"),
         default="tight")
    flag("--trials", type=int, default=20)
    flag("--size", type=int, default=32)
    flag("--seed", type=int, default=0)
    flag("--gamma-points", type=int, default=20)
    add_output(flag)

    def run_command(name, help, default_problem, default_ratio):
        flag = command(name, help)
        flag("--problem", choices=PROBLEMS, default=default_problem)
        add_scheme_flags(flag)
        flag("--grids", type=_int_list, default="32",
             help="comma-separated grid sizes, e.g. 16,32,64")
        flag("--order-space", type=int, default=4, choices=(2, 4))
        flag("--tf", type=float, default=2.0)
        flag("--dt-ratio", type=float, default=default_ratio,
             help="dt = ratio * h")
        flag("--krylov", default="auto", choices=("auto", "cg", "gmres"))
        flag("--tol", type=float, default=1e-12)
        flag("--restart", type=int, default=30)
        flag("--max-iters", type=int, default=2000)
        flag("--inner", default="exact", help=" | ".join(
            "/".join((kind, *row.spellings))
            + "".join(f"[:{p}]" for p in row.params)
            for kind, row in INNER_SOLVES.items()))
        add_output(flag)
        return flag

    flag = run_command("run", "convergence / robustness study",
                       "advdiff2d", 2.0)
    flag("--gamma-mode", choices=GAMMA_MODES, default="gamma_star")
    flag("--integrator", default="irk",  # ExperimentSpec checks it
         help="how the stage system is solved: irk (every tableau, SDIRK "
              "included) | gsl | ld (block-preconditioned GMRES on the "
              "stage system); --family chooses the scheme")

    run_command("compare-gamma", "optimal vs naive preconditioner shift",
                "advect1d-upwind", 8.0)

    flag = run_command("inner-sweep", "outer cost vs inner relaxation sweeps",
                       "advdiff1d", 2.0)
    flag("--sweep", type=_int_list, default="1,2,3,5",
         help="comma-separated sweep counts")

    flag = run_command("baseline", "IRK vs GSL/LD/SDIRK preconditioner cost",
                       "advdiff1d", 2.0)
    flag("--sdirk-family", default="sdirk2l")

    return p, actions


def _echo(args, actions) -> str:
    """The '# cmd:' line: every flag of the subcommand but -o, so that
    parsing it back gives the same namespace."""
    toks = [args.command]
    for a in actions:
        value = getattr(args, a.dest)
        if a.nargs == 0:  # store_true: written only when set
            toks += a.option_strings if value else []
        elif a.dest != "output":
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            toks += [a.option_strings[0],
                     repr(value) if isinstance(value, float) else str(value)]
    return "# cmd: " + " ".join(toks)


def _spec_from_args(args, **overrides):
    cfg = KrylovConfig(method=args.krylov, rel_tol=args.tol,
                       max_iters=args.max_iters, restart=args.restart)
    kw = dict(problem=args.problem, family=args.family, stages=args.stages,
              grids=tuple(args.grids), dt_ratio=args.dt_ratio,
              t_final=args.tf, fd_order=args.order_space, krylov=cfg,
              inner=args.inner)
    kw.update(overrides)
    return ExperimentSpec(**kw)


# ----------------------------------------------------------------------
# subcommand implementations

def _cmd_tableau(args, out):
    t = build_tableau(args.family, args.stages)
    rep = validate_tableau(t)
    if args.csv:
        out.append("i,j,a_ij")
        for i in range(t.s):
            for j in range(t.s):
                out.append(f"{i},{j},{_f(t.A0[i, j])}")
        out.append("i,b_i,c_i")
        for i in range(t.s):
            out.append(f"{i},{_f(t.b0[i])},{_f(t.c0[i])}")
    else:
        out.append(f"{t.family}  stages={t.s}  order={t.order}")
        width = 22
        out.append("A0:")
        for row in t.A0:
            out.append("  " + "".join(f"{v:>{width}.15g}" for v in row))
        out.append("b0:")
        out.append("  " + "".join(f"{v:>{width}.15g}" for v in t.b0))
        out.append("c0:")
        out.append("  " + "".join(f"{v:>{width}.15g}" for v in t.c0))
        out.append("validation:")
        for name, res, tol, ok in rep.checks:
            out.append(f"  {name:<28s} residual={res:.3e}  tol={tol:.0e}  "
                       f"{'pass' if ok else 'FAIL'}")
    return EXIT_OK if rep.passed else EXIT_SOLVER


def _cmd_spectrum(args, out):
    t = build_tableau(args.family, args.stages)
    factors = factor_list(spectral_decompose(t))
    if args.csv:
        out.append("factor,eta,beta,gamma_star,kappa_bound")
        for i, f in enumerate(factors):
            out.append(f"{i},{_f(f.eta)},{_f(f.beta)},{_f(f.gamma_star)},"
                       f"{_f(f.kappa_bound)}")
    else:
        out.append(f"{t.family}({t.s}): {len(factors)} factor(s)")
        for i, f in enumerate(factors):
            kind = "real" if f.is_real else "conjugate pair"
            out.append(f"  [{i}] {kind:<14s} eta={f.eta:.6f} beta={f.beta:.6f} "
                       f"gamma*={f.gamma_star:.6f} kappa_bound={f.kappa_bound:.4f}")
    return EXIT_OK


def _cmd_cond(args, out):
    counts = {"random": (("--trials", args.trials), ("--size", args.size)),
              "optimality": (("--gamma-points", args.gamma_points),)}
    for flag, value in counts.get(args.mode, ()):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    t = build_tableau(args.family, args.stages)
    factors = factor_list(spectral_decompose(t))
    out.append("factor,eta,beta,gamma,kappa_measured,kappa_bound")

    def emit(i, eta, beta, gamma, km, kb):
        out.append(f"{i},{_f(eta)},{_f(beta)},{_f(gamma)},{_f(km)},{_f(kb)}")

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
    records, orders = run_convergence(spec)
    for (na, nb, o_inf, o_l2) in orders:
        out.append(f"# observed_order {na}->{nb}: linf={o_inf:.4f} l2={o_l2:.4f}")
    out.append(records_to_csv(records).rstrip("\n"))
    return _records_exit(records)


def _cmd_compare_gamma(args, out):
    records, speedups = run_gamma_comparison(_spec_from_args(args))
    for (nx, idx, eta, beta, it_e, it_g, ratio) in speedups:
        out.append(f"# speedup nx={nx} factor={idx} eta={eta:.4f} "
                   f"beta={beta:.4f} iters_eta={it_e:.2f} "
                   f"iters_gamma_star={it_g:.2f} ratio={ratio:.3f}")
    out.append(records_to_csv(records).rstrip("\n"))
    return _records_exit(records)


def _cmd_inner_sweep(args, out):
    rows = run_inner_sweep(_spec_from_args(args), args.sweep)
    for k, rec in rows:
        total = sum(f.total_precond_apps for f in rec.factors)
        ok = all(f.converged for f in rec.factors)
        out.append(f"# sweep k={k} converged={int(ok)} total_precond_apps={total}")
    out.append(records_to_csv([rec for _, rec in rows]).rstrip("\n"))
    return EXIT_OK  # recorded non-convergence is an expected outcome here


def _cmd_baseline(args, out):
    rows = run_baseline_comparison(_spec_from_args(args),
                                   sdirk_family=args.sdirk_family)
    _irk, rec_irk, _ps, u_irk = rows[0]
    for name, rec, per_stage, u in rows:
        drift = float("nan")  # unless both runs converged every solve
        if name in ("gsl", "ld") and _records_exit([rec_irk, rec]) == EXIT_OK:
            drift = float(np.linalg.norm(u - u_irk)
                          / max(np.linalg.norm(u_irk), 1e-300))
        out.append(f"# integrator={name} apps_per_step_per_stage={per_stage:.3f}"
                   f" rel_diff_vs_irk={drift:.3e}")
    out.append(CSV_HEADER)
    for name, rec, _ps, _u in rows:
        out.append(f"# integrator={name}")
        out.append(records_to_csv([rec], header=False).rstrip("\n"))
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
    parser, actions = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK

    lines = [_echo(args, actions[args.command])]
    try:
        code = _DISPATCH[args.command](args, lines)
    except Exception as exc:  # a ValueError is a usage error, unless typed
        usage = isinstance(exc, ValueError) and not isinstance(
            exc, (FieldOfValuesViolation, DefectiveTableau))
        print(f"error: {exc}" if usage else f"solver failure: {exc}",
              file=sys.stderr)
        return EXIT_USAGE if usage else EXIT_SOLVER

    text = "\n".join(lines) + "\n"
    try:
        if args.output is None:
            sys.stdout.write(text)
        else:
            with open(args.output, "w") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"error: cannot write output file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
