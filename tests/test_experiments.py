import numpy as np
import pytest

from irksolve.experiments import (CSV_HEADER, ExperimentSpec, parse_inner,
                                  records_to_csv, run_baseline_comparison,
                                  run_convergence, run_gamma_comparison,
                                  run_inner_sweep)
from irksolve.krylov import KrylovConfig

TIGHT = KrylovConfig(method="auto", rel_tol=1e-12, max_iters=3000)


def small_spec(**kw):
    base = dict(problem="advdiff1d", family="gauss", stages=2,
                grids=(16, 32), t_final=0.5, krylov=TIGHT)
    base.update(kw)
    return ExperimentSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(grids=(32, 16))
    with pytest.raises(ValueError):
        small_spec(t_final=-1.0)
    with pytest.raises(ValueError):
        small_spec(problem="no-such")


def test_parse_inner():
    assert parse_inner("exact", 1) == ("exact", {})
    assert parse_inner("exact", 2) == ("exact", {})
    assert parse_inner("gs:3", 1) == ("gauss_seidel", {"sweeps": 3})
    for spec in ("GS:3", "Gauss-Seidel:3", "gauss_seidel:3"):
        assert parse_inner(spec) == ("gauss_seidel", {"sweeps": 3})
    # a parameter left out takes the constructor's default
    assert parse_inner("gs") == ("gauss_seidel", {})
    assert parse_inner("krylov:1e-3") == ("inner_krylov", {"tol": 1e-3})
    assert parse_inner("jacobi:2", 2) == ("jacobi", {"sweeps": 2})
    assert parse_inner("krylov:1e-4:60", 1) == ("inner_krylov",
                                                {"tol": 1e-4, "maxit": 60})


def test_exact_banded_spelling_is_gone():
    for spec in ("exact_banded", "exact-banded", "splu", "exact_sparse_lu",
                 "exact-sparse-lu"):
        with pytest.raises(ValueError, match="unknown inner"):
            parse_inner(spec)


def test_csv_header_exact():
    assert CSV_HEADER == ("family,stages,gamma_mode,nx,dt,steps,err_linf,"
                          "err_l2,factor_index,eta,beta,gamma,"
                          "mean_outer_iters,total_precond_apps,converged")


def test_convergence_records_and_orders():
    records, orders = run_convergence(small_spec())
    assert len(records) == 2
    for rec in records:
        assert rec.steps * rec.dt == pytest.approx(0.5, abs=1e-12)
        assert all(f.converged for f in rec.factors)
        assert np.isfinite(rec.err_linf) and np.isfinite(rec.err_l2)
    (na, nb, o_inf, o_l2) = orders[0]
    assert (na, nb) == (16, 32)
    assert abs(o_inf - 4.0) < 0.5  # Gauss-2 + 4th-order space
    assert abs(o_l2 - 4.0) < 0.5


def test_csv_determinism():
    a, _ = run_convergence(small_spec())
    b, _ = run_convergence(small_spec())
    assert records_to_csv(a) == records_to_csv(b)
    assert records_to_csv(a).splitlines()[0] == CSV_HEADER


def test_gamma_comparison_on_upwind():
    spec = small_spec(problem="advect1d-upwind", family="radauIIA", stages=3,
                      grids=(64,), dt_ratio=8.0, t_final=2.0)
    records, speedups = run_gamma_comparison(spec)
    assert {r.gamma_mode for r in records} == {"eta", "gamma_star"}
    for (_nx, _idx, eta, beta, it_e, it_g, ratio) in speedups:
        assert it_g <= it_e + 1e-9
        if beta == 0.0:
            assert ratio == pytest.approx(1.0)  # gamma* = eta exactly
    hard = [row for row in speedups if row[3] > row[2]]
    assert hard and any(row[6] > 1.0 for row in hard)


def test_inner_sweep_records_failures():
    spec = small_spec(problem="advdiff1d", family="gauss", stages=3,
                      grids=(48,), t_final=0.25, inner="gs:1",
                      krylov=KrylovConfig(method="gmres", rel_tol=1e-10,
                                          max_iters=300, restart=30))
    rows = run_inner_sweep(spec, [1, 5])
    ks = [k for k, _ in rows]
    assert ks == [1, 5]
    rec5 = rows[1][1]
    assert all(f.converged for f in rec5.factors)
    # k = 1 may fail; either way it must be recorded, never raised
    rec1 = rows[0][1]
    assert len(rec1.factors) == len(rec5.factors)


def test_inner_sweep_needs_relaxation():
    with pytest.raises(ValueError):
        run_inner_sweep(small_spec(inner="exact"), [1, 2])


def test_baseline_s1_all_methods_coincide():
    spec = small_spec(problem="advdiff1d", family="backwardEuler", stages=1,
                      grids=(24,), t_final=0.25)
    rows = run_baseline_comparison(spec, sdirk_family="backwardEuler")
    names = [name for name, *_ in rows]
    assert names == ["irk", "gsl", "ld", "sdirk"]
    u_ref = rows[0][3]
    for _name, rec, _ps, u in rows:
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)
        assert all(f.converged for f in rec.factors)


def test_baseline_same_update_agreement_and_counts():
    spec = small_spec(problem="advdiff1d", family="gauss", stages=2,
                      grids=(32,), t_final=0.25)
    rows = run_baseline_comparison(spec, sdirk_family="sdirk2l")
    by_name = {name: (rec, ps, u) for name, rec, ps, u in rows}
    u_irk = by_name["irk"][2]
    tol = spec.krylov.rel_tol
    for name in ("gsl", "ld"):
        u = by_name[name][2]
        assert (np.linalg.norm(u - u_irk)
                <= 10 * tol * np.linalg.norm(u_irk) + 1e-13)
    for name, (_rec, per_stage, _u) in by_name.items():
        assert per_stage > 0
