import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from irksolve import experiments
from irksolve.cli import _build_parser, main
from irksolve.experiments import CSV_HEADER, ExperimentSpec
from irksolve.linop import IdentityMass, SparseOperator, parse_inner
from irksolve.spectral import DefectiveTableau
from irksolve.stepper import LinearProblem
from irksolve.tableaux import SUPPORTED_TABLEAUX


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_tableau_text(capsys):
    code, out = run_cli(capsys, ["tableau", "--family", "gauss",
                                 "--stages", "2"])
    assert code == 0
    assert out.startswith("# cmd: tableau")
    assert "order=4" in out
    assert "pass" in out and "FAIL" not in out


def test_unknown_flag_exits_2(capsys):
    assert main(["tableau", "--family", "gauss", "--stages", "2",
                 "--bogus"]) == 2


def test_unknown_family_exits_2(capsys):
    code, _ = run_cli(capsys, ["tableau", "--family", "nope", "--stages", "2"])
    assert code == 2


def test_unsupported_stage_count_exits_2(capsys):
    code, _ = run_cli(capsys, ["tableau", "--family", "gauss",
                               "--stages", "9"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--grids", "16,x"],
    ["inner-sweep", "--sweep", "1,,3"],
])
def test_malformed_integer_list_exits_2(capsys, argv):
    code = main(argv + ["--family", "gauss", "--stages", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "expected comma-separated integers, got" in captured.err


def test_spectrum_csv(capsys):
    code, out = run_cli(capsys, ["spectrum", "--family", "gauss",
                                 "--stages", "2", "--csv"])
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert lines[0] == "factor,eta,beta,gamma_star,kappa_bound"
    vals = lines[1].split(",")
    assert float(vals[4]) == pytest.approx(1.1547005383792515, rel=1e-12)


def test_cond_tight_lobatto2(capsys):
    code, out = run_cli(capsys, ["cond", "--family", "lobattoIIIC",
                                 "--stages", "2", "--mode", "tight"])
    assert code == 0
    row = [l for l in out.splitlines() if not l.startswith(("#", "factor"))][0]
    _i, _eta, _beta, _gamma, km, kb = row.split(",")
    assert float(km) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert float(kb) == pytest.approx(np.sqrt(2.0), abs=1e-8)
    assert float(km) == pytest.approx(float(kb), abs=1e-8)


def test_run_produces_contract_csv(capsys):
    code, out = run_cli(capsys, ["run", "--problem", "advdiff1d",
                                 "--family", "gauss", "--stages", "2",
                                 "--grids", "16,32", "--tf", "0.5"])
    assert code == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == CSV_HEADER
    assert len(data) == 3  # header + one factor row per grid
    assert any(l.startswith("# observed_order") for l in lines)


# One argv per subcommand and the exact echo it prints.  Between them
# they set a non-default float, int and comma list, and --csv.
ECHOES = {
    "tableau": ("tableau --family radau --stages 2 --csv",
                "tableau --family radau --stages 2 --csv"),
    "spectrum": ("spectrum --family gauss --stages 4 --csv",
                 "spectrum --family gauss --stages 4 --csv"),
    "cond": ("cond --family lobattoIIIC --stages 2 --mode random --trials 3 "
             "--size 8 --seed 5",
             "cond --family lobattoIIIC --stages 2 --mode random --trials 3 "
             "--size 8 --seed 5 --gamma-points 20"),
    "run": ("run --problem advdiff1d --family gauss --stages 2 --grids 16,32 "
            "--tf 0.25",
            "run --problem advdiff1d --family gauss --stages 2 --grids 16,32 "
            "--order-space 4 --tf 0.25 --dt-ratio 2.0 --krylov auto "
            "--tol 1e-12 --restart 30 --max-iters 2000 --inner exact "
            "--gamma-mode gamma_star --integrator irk"),
    "compare-gamma": ("compare-gamma --family lobattoIIIC --stages 3 "
                      "--grids 16 --tf 0.1",
                      "compare-gamma --problem advect1d-upwind "
                      "--family lobattoIIIC --stages 3 --grids 16 "
                      "--order-space 4 --tf 0.1 --dt-ratio 8.0 "
                      "--krylov auto --tol 1e-12 --restart 30 "
                      "--max-iters 2000 --inner exact"),
    "inner-sweep": ("inner-sweep --family gauss --stages 2 --grids 24 "
                    "--tf 0.1 --inner gs --sweep 1,2 --tol 1e-10",
                    "inner-sweep --problem advdiff1d --family gauss "
                    "--stages 2 --grids 24 --order-space 4 --tf 0.1 "
                    "--dt-ratio 2.0 --krylov auto --tol 1e-10 --restart 30 "
                    "--max-iters 2000 --inner gs --sweep 1,2"),
    "baseline": ("baseline --family gauss --stages 2 --grids 16 --tf 0.1 "
                 "--order-space 2",
                 "baseline --problem advdiff1d --family gauss --stages 2 "
                 "--grids 16 --order-space 2 --tf 0.1 --dt-ratio 2.0 "
                 "--krylov auto --tol 1e-12 --restart 30 --max-iters 2000 "
                 "--inner exact --sdirk-family sdirk2l"),
}


@pytest.mark.parametrize("command", ECHOES)
def test_echo_line_is_unchanged(capsys, command):
    argv, echo = ECHOES[command]
    _code, out = run_cli(capsys, argv.split())
    assert out.splitlines()[0] == "# cmd: " + echo


@pytest.mark.parametrize("command", ECHOES)
def test_echo_parses_back_to_the_same_namespace(capsys, command):
    argv, _echo = ECHOES[command]
    _code, out = run_cli(capsys, argv.split())
    parser, _actions = _build_parser()
    echoed = out.splitlines()[0][len("# cmd: "):].split()
    assert parser.parse_args(echoed) == parser.parse_args(argv.split())


@pytest.mark.parametrize("command", ECHOES)
def test_run_roundtrip_reproduces_output(capsys, command):
    code, out1 = run_cli(capsys, ECHOES[command][0].split())
    assert code == 0
    echoed = out1.splitlines()[0]
    assert echoed.startswith("# cmd: ")
    argv2 = echoed[len("# cmd: "):].split()
    code2, out2 = run_cli(capsys, argv2)
    assert code2 == 0
    assert out2 == out1


@pytest.mark.parametrize("inner", ["splu", "exact_sparse_lu"])
def test_forced_sparse_lu_spec_is_gone(capsys, inner):
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "16", "--tf", "0.25",
                 "--inner", inner])
    assert code == 2
    assert repr(inner) in capsys.readouterr().err


@pytest.mark.parametrize("inner, param, cast, bad", [
    ("gs:two", "sweeps", "int", "two"),
    ("gs:2.5", "sweeps", "int", "2.5"),
    ("krylov:abc", "tol", "float", "abc"),
    ("krylov:1e-2:x", "maxit", "int", "x"),
])
def test_bad_inner_parameter_names_spec_and_parameter(capsys, inner, param,
                                                      cast, bad):
    # used to print only the bare cast error, e.g. "invalid literal for
    # int() with base 10: 'two'"
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "16", "--tf", "0.25",
                 "--inner", inner])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: inner preconditioner spec {inner!r}: parameter {param} "
        f"must be {cast}, got {bad!r}\n")


RUN_SPLU =["run", "--problem", "advdiff2d", "--family", "gauss",
            "--stages", "2", "--grids", "32", "--tf", "0.25",
            "--inner", "splu"]


SMALL_1D = ["--family", "gauss", "--stages", "2", "--grids", "16",
            "--tf", "0.1"]
USAGE_ERRORS = [
    RUN_SPLU,
    ["run", "--problem", "advdiff2d", "--family", "gauss",
     "--stages", "9", "--grids", "32", "--tf", "0.25"],
    ["inner-sweep"] + SMALL_1D + ["--inner", "exact"],
    ["inner-sweep"] + SMALL_1D + ["--inner", "gs", "--sweep", "0,1"],
    ["baseline"] + SMALL_1D + ["--sdirk-family", "gauss"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--inner", "jacobi:0"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--krylov", "cg"],
    # SDIRK tableaux run on the default integrator
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--integrator", "sdirk"],
    # the block stepper takes no shift: its eta rows equaled gamma_star's
    ["run", "--problem", "advdiff1d", "--family", "gauss", "--stages", "2",
     "--grids", "16", "--tf", "0.25", "--integrator", "gsl",
     "--gamma-mode", "eta"],
    # CG with a Gauss-Seidel inner solve used to run 2000 iterations
    ["run", "--problem", "diffusion1d-fem"] + SMALL_1D
    + ["--krylov", "cg", "--inner", "gs:2"],
    # a target at or above ||b|| was met by x = 0 in 0 iterations
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--tol", "inf"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--tol", "1"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--tol", "nan"],
    # non-finite times used to exit 1 as solver failures
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--tf", "inf"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--tf", "nan"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--dt-ratio", "inf"],
    ["run", "--problem", "advdiff1d"] + SMALL_1D + ["--dt-ratio", "nan"],
]


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_writes_no_output(capsys, argv):
    # the "# cmd:" echo used to go out before checks made by the drivers
    # and the preconditioner constructors
    code, out = run_cli(capsys, argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_error_leaves_no_echo_in_output_file(tmp_path, capsys, argv):
    path = tmp_path / "out.csv"
    code = main(argv + ["-o", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not path.exists()


def test_solver_failure_writes_no_output(capsys, monkeypatch):
    def fail(spec):
        raise RuntimeError("boom")
    monkeypatch.setattr("irksolve.cli.run_convergence", fail)
    code = main(["run", "--problem", "advdiff1d"] + SMALL_1D)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "solver failure: boom\n"
    assert captured.out == ""


@pytest.mark.parametrize("inner", ["exact:7", "gs:2:9"])
def test_surplus_inner_parameter_exits_2(capsys, inner):
    code, out = run_cli(capsys, ["run", "--problem", "advdiff1d",
                                 "--family", "gauss", "--stages", "2",
                                 "--grids", "16", "--inner", inner])
    assert code == 2
    assert out == ""


def test_run_nonconvergence_exits_1(capsys):
    with pytest.warns(UserWarning, match="not diagonally dominant"):
        code, out = run_cli(capsys, ["run", "--problem", "advdiff1d",
                                     "--family", "gauss", "--stages", "3",
                                     "--grids", "48", "--tf", "0.25",
                                     "--inner", "gs:1", "--max-iters", "50",
                                     "--tol", "1e-12"])
    assert code == 1
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert any(l.endswith(",0") for l in data[1:])  # non-converged row


def test_compare_gamma_emits_speedups(capsys):
    code, out = run_cli(capsys, ["compare-gamma", "--family", "radauIIA",
                                 "--stages", "3", "--grids", "64",
                                 "--tf", "1.0"])
    assert code == 0
    assert any(l.startswith("# speedup") for l in out.splitlines())
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert data[0] == CSV_HEADER
    modes = {l.split(",")[2] for l in data[1:]}
    assert modes == {"eta", "gamma_star"}


def test_inner_sweep_cli(capsys):
    code, out = run_cli(capsys, ["inner-sweep", "--family", "gauss",
                                 "--stages", "2", "--grids", "32",
                                 "--tf", "0.25", "--inner", "gs",
                                 "--sweep", "2,5", "--tol", "1e-10"])
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("# sweep")) == 2


@pytest.mark.filterwarnings("ignore:.*not diagonally dominant")
def test_inner_sweep_reads_every_gauss_seidel_spelling(capsys):
    # the sweep takes its relaxation kind from the one spec reader, so
    # each spelling "run" accepts gives the rows of "gs"
    rows = {}
    for inner in ("gs", "Gauss-Seidel", "GS:2"):
        code, out = run_cli(capsys, ["inner-sweep", "--family", "gauss",
                                     "--stages", "3", "--grids", "48",
                                     "--tf", "0.25", "--inner", inner,
                                     "--sweep", "1,2", "--tol", "1e-10"])
        assert code == 0
        rows[inner] = [l for l in out.splitlines()
                       if not l.startswith("# cmd:")]
    assert rows["Gauss-Seidel"] == rows["gs"]
    assert rows["GS:2"] == rows["gs"]


def test_baseline_cli(capsys):
    code, out = run_cli(capsys, ["baseline", "--family", "gauss",
                                 "--stages", "2", "--grids", "24",
                                 "--tf", "0.25"])
    assert code == 0
    tags = [l for l in out.splitlines() if l.startswith("# integrator=")]
    assert len(tags) >= 8  # summary + per-block tags for 4 integrators


def _baseline_drifts(out):
    """integrator -> the rel_diff_vs_irk that baseline prints for it."""
    tags = [l.split() for l in out.splitlines()
            if l.startswith("# integrator=") and "rel_diff_vs_irk=" in l]
    return {t[1].split("=")[1]: float(t[3].split("=")[1]) for t in tags}


def test_baseline_reports_no_difference_for_failed_runs(capsys):
    # at --max-iters 4 every run of the README example fails at step 1,
    # so the final states are not the same update: no difference
    code, out = run_cli(capsys, ["baseline", "--family", "gauss",
                                 "--stages", "2", "--grids", "32",
                                 "--tf", "0.5", "--max-iters", "4"])
    assert code == 1
    assert all(np.isnan(d) for d in _baseline_drifts(out).values())


def test_baseline_block_runs_below_the_floor_converge(capsys):
    # a --tol under every solve's floor: the block runs stop at it and
    # agree with IRK
    code, out = run_cli(capsys, ["baseline", "--problem", "diffusion1d-fem",
                                 "--family", "gauss", "--stages", "2",
                                 "--grids", "64", "--tf", "0.5",
                                 "--dt-ratio", "8", "--tol", "1e-15"])
    assert code == 0
    drifts = _baseline_drifts(out)
    assert drifts["gsl"] < 1e-11 and drifts["ld"] < 1e-11


def test_output_file(tmp_path, capsys):
    path = tmp_path / "out.csv"
    code = main(["spectrum", "--family", "gauss", "--stages", "3",
                 "--csv", "-o", str(path)])
    assert code == 0
    text = path.read_text()
    assert text.startswith("# cmd: spectrum")
    assert "factor,eta,beta,gamma_star,kappa_bound" in text


def test_module_entry_point_writes_output_file(tmp_path, capsys):
    # console entry point and the real -o write, end to end
    argv = ["spectrum", "--family", "gauss", "--stages", "2", "--csv"]
    _code, expected = run_cli(capsys, argv)
    path = tmp_path / "spectrum.csv"
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "irksolve.cli", *argv,
                           "-o", str(path)],
                          capture_output=True, env=env, check=False)
    assert proc.returncode == 0
    assert proc.stdout == b""
    assert path.read_bytes() == expected.encode()


def test_fem_gauss3_run_exits_0(capsys):
    # used to exit 1 on a spurious "p^T A p ~ 0" CG breakdown
    code, out = run_cli(capsys, ["run", "--problem", "diffusion1d-fem",
                                 "--family", "gauss", "--stages", "3",
                                 "--grids", "64"])
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert all(l.endswith(",1") for l in data[1:])


def test_unwritable_output_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "out.csv"
    code = main(["spectrum", "--family", "gauss", "--stages", "3",
                 "-o", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("inner", ["jacobi:0", "gs:-2"])
def test_relaxation_without_sweeps_exits_2(capsys, inner):
    # used to exit 0 with total_precond_apps 0 or negative
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "32", "--inner", inner,
                 "--tol", "1e-6"])
    err = capsys.readouterr().err
    assert code == 2
    assert "at least one sweep" in err


def test_zero_dt_ratio_exits_2(capsys):
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "16", "--dt-ratio", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: dt_ratio")


def test_non_sdirk_baseline_family_exits_2(capsys):
    code = main(["baseline", "--family", "gauss", "--stages", "2",
                 "--grids", "16", "--tf", "0.1", "--sdirk-family", "gauss"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SDIRK2L" in err and "SDIRK3L" in err


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "advdiff1d", "--family", "sdirk2l", "--stages", "2",
     "--grids", "16", "--tf", "0.1"],
    ["baseline", "--family", "gauss", "--stages", "2", "--grids", "16",
     "--tf", "0.1"],
])
def test_csv_cells_are_plain_floats(capsys, argv):
    # numpy scalars in the SDIRK summary were written as np.float64(...)
    code, out = run_cli(capsys, argv)
    assert code == 0
    data = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(data) > 1
    assert not any("np." in l for l in data)


@pytest.mark.parametrize("max_iters", ["0", "-3"])
def test_nonpositive_max_iters_exits_2(capsys, max_iters):
    # used to exit 1 with 0 iterations and converged 0
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "16", "--max-iters", max_iters])
    err = capsys.readouterr().err
    assert code == 2
    assert "max_iters" in err


def test_fgmres_is_not_a_krylov_choice(capsys):
    code = main(["run", "--problem", "advdiff1d", "--family", "gauss",
                 "--stages", "2", "--grids", "16", "--krylov", "fgmres"])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--trials", "0"), ("--trials", "-2"),
                                        ("--size", "0")])
def test_cond_random_rejects_empty_draws(capsys, flag, value):
    # --trials 0 printed kappa_measured 0.0, below its floor of 1
    code = main(["cond", "--family", "gauss", "--stages", "2",
                 "--mode", "random", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {flag} must be >= 1")
    assert captured.out == ""


@pytest.mark.parametrize("value", ["0", "-3"])
def test_cond_optimality_rejects_empty_gamma_grid(capsys, value):
    # --gamma-points 0 printed the header and no rows with exit 0
    code = main(["cond", "--family", "gauss", "--stages", "2",
                 "--mode", "optimality", "--gamma-points", value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        f"error: --gamma-points must be >= 1, got {value}")
    assert captured.out == ""


def test_cond_optimality_one_gamma_point(capsys):
    code, out = run_cli(capsys, ["cond", "--family", "gauss", "--stages",
                                 "2", "--mode", "optimality",
                                 "--gamma-points", "1"])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "factor,eta,beta,gamma,kappa_measured,kappa_bound"
    assert len(rows) == 2


def test_cond_scan_reaches_the_bound_at_gamma_star(capsys):
    # one row per factor, each at gamma*; on the xi scan the ratio of
    # H's extremes meets sqrt(1 + beta^2/eta^2)
    code, out = run_cli(capsys, ["cond", "--family", "gauss", "--stages",
                                 "3", "--mode", "scan"])
    assert code == 0
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows[0] == "factor,eta,beta,gamma,kappa_measured,kappa_bound"
    vals = [[float(v) for v in row.split(",")] for row in rows[1:]]
    assert [int(v[0]) for v in vals] == [0, 1]
    for _i, eta, beta, gamma, measured, bound in vals:
        assert gamma == pytest.approx(np.hypot(eta, beta), rel=1e-15)
        assert measured == pytest.approx(bound, abs=1e-12)
    assert vals[0][4] == pytest.approx(1.382093251650143, abs=1e-12)


@pytest.mark.parametrize("family,stages", SUPPORTED_TABLEAUX)
def test_triangular_spectrum_matches_run_factor_columns(capsys, family,
                                                        stages):
    # spectrum used to take the eigenvalues of a defective A0^{-1} from
    # eigvals, off in the 8th digit, while run solved with 1/a_ii.  For
    # every tableau, the factors and their order in spectrum are those
    # of run's solve records
    scheme = ["--family", family, "--stages", str(stages)]
    _code, out = run_cli(capsys, ["spectrum", "--csv"] + scheme)
    spectrum = [l.split(",")[1:4] for l in out.splitlines()[2:]]
    code, out = run_cli(capsys, ["run", "--problem", "advdiff1d", "--grids",
                                 "16", "--tf", "0.1"] + scheme)
    assert code == 0
    rows = [l.split(",") for l in out.splitlines()
            if not l.startswith("#")][1:]
    assert [r[9:12] for r in rows] == spectrum


def test_run_without_exact_solution_prints_no_order_line(capsys):
    # advect1d-upwind has no exact solution, so its errors are nan and
    # an order between them would read "linf=nan l2=nan"
    code, out = run_cli(capsys, ["run", "--problem", "advect1d-upwind",
                                 "--family", "gauss", "--stages", "2",
                                 "--grids", "32,64", "--tf", "0.1"])
    assert code == 0
    lines = out.splitlines()
    assert not any(l.startswith("# observed_order") for l in lines)
    data = [l for l in lines if not l.startswith("#")]
    assert data[0] == CSV_HEADER and len(data) == 3
    assert all(l.split(",")[6:8] == ["nan", "nan"] for l in data[1:])


def _unstable_problem(grid, spec):
    # L = +I: W(L) = {1}, outside the left half plane
    L = SparseOperator(sp.identity(grid.size, format="csr"))
    return LinearProblem(IdentityMass(grid.size), L), np.ones(grid.size)


def _expect_solver_failure(capsys, argv):
    # a typed failure is a ValueError for library callers, but exits 1
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("solver failure: ")
    assert captured.out == ""


def test_field_of_values_violation_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(experiments._PROBLEMS, "advdiff1d",
                        (1, _unstable_problem))
    _expect_solver_failure(capsys, ["run", "--problem", "advdiff1d"]
                           + SMALL_1D)


def test_defective_tableau_exits_1(capsys, monkeypatch):
    def defective(tableau):
        raise DefectiveTableau("eigenvector matrix condition 1e+20 > 1e4")
    monkeypatch.setattr("irksolve.cli.spectral_decompose", defective)
    _expect_solver_failure(capsys, ["spectrum", "--family", "gauss",
                                    "--stages", "2"])


def test_empty_grid_list_is_rejected():
    # every driver reads spec.grids: inner-sweep and baseline take the
    # last grid, and a convergence study of no grid returns no rows
    with pytest.raises(ValueError, match="grid list must not be empty"):
        ExperimentSpec(problem="advdiff1d", family="gauss", stages=2,
                       grids=())


def _readme_cli_examples():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(l) for l in block.splitlines()
            if l.startswith("irksolve ")]


def test_every_readme_cli_example_parses():
    # a flag or an --inner spelling renamed under the README fails here
    examples = _readme_cli_examples()
    assert len(examples) == 8
    parser, _actions = _build_parser()
    for argv in examples:
        args = parser.parse_args(argv[1:])
        if hasattr(args, "inner"):
            parse_inner(args.inner)
