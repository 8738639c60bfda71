import numpy as np
import pytest
import scipy.sparse as sp

import irksolve
from irksolve import krylov, linop
from irksolve.krylov import (DimensionMismatch, KrylovConfig,
                             NonFiniteResidual, Preconditioner, _norm,
                             resolve_method, solve)
from irksolve.linop import (GaussSeidel, IdentityMass, LinearOperator,
                            SparseOperator, build_inner_preconditioner,
                            shifted_operator)
from irksolve.spatial import (GridSpec, build_advdiff, build_fd_mms,
                              build_fem_diffusion_1d)
from irksolve.stepper import IRKStepper, LinearProblem, _StageSystem
from irksolve.tableaux import build_tableau

rng = np.random.default_rng(5)


def spd_tridiag(n):
    main = 2.0 + np.arange(n) * 0.01
    off = -0.7 * np.ones(n - 1)
    return SparseOperator(sp.diags([off, main, off], [-1, 0, 1], format="csr"))


def test_identity_converges_in_one_iteration():
    op = SparseOperator(sp.identity(20, format="csr"))
    b = rng.standard_normal(20)
    for method in ("cg", "gmres"):
        x, rep = solve(op, b, None, KrylovConfig(method=method, rel_tol=1e-12))
        assert rep.converged and rep.iterations == 1
        assert np.allclose(x, b, atol=1e-12)


def test_solve_resolves_auto():
    # solve used to raise "unknown Krylov method 'auto'": no
    # preconditioner counts as not exact, so auto is GMRES
    op = SparseOperator(sp.identity(4, format="csr"))
    x, rep = solve(op, np.ones(4), None, KrylovConfig(method="auto"))
    assert rep.converged and rep.iterations == 1
    assert np.array_equal(x, np.ones(4))


@pytest.mark.parametrize("method", ["AUTO", "Gmres", "bogus"])
def test_config_rejects_unknown_method(method):
    # "AUTO" used to construct and fail at the first solve, and "Gmres"
    # to run, since solve lowercased the name and resolve_method did not
    with pytest.raises(ValueError, match="unknown Krylov method"):
        KrylovConfig(method=method)


def test_cg_refuses_nonsymmetric_preconditioner():
    # forward Gauss-Seidel is not symmetric: CG used to run to max_iters
    op = spd_tridiag(16)
    pc = GaussSeidel(op, sweeps=2)
    with pytest.raises(ValueError, match="preconditioner not marked"):
        solve(op, rng.standard_normal(16), pc, KrylovConfig(method="cg"))
    assert pc.applications == 0


def test_exactly_preconditioned_spd_one_iteration():
    op = spd_tridiag(16)
    pc = build_inner_preconditioner("exact", op)
    b = rng.standard_normal(16)
    x, rep = solve(op, b, pc, KrylovConfig(method="cg", rel_tol=1e-12))
    assert rep.converged and rep.iterations == 1
    assert np.linalg.norm(op.apply(x) - b) < 1e-12 * np.linalg.norm(b)


def test_cg_iteration_bound_on_quadratic_factor():
    # Gauss-2 quadratic factor on 1D diffusion: kappa(P_gamma*) <= 1.1547,
    # so CG on the preconditioned pair sits far below the Chebyshev bound
    # for kappa_b = 1.1547^2 (~25 iterations at tol 1e-12).
    grid = GridSpec(dim=1, n=128)
    prob = LinearProblem(IdentityMass(128), build_advdiff(grid, 0.0, 1.0, 2))
    st = IRKStepper(build_tableau("gauss", 2), prob, dt=2 * grid.h,
                    outer_cfg=KrylovConfig(method="cg", rel_tol=1e-12))
    op, pc = st.solves[0].op, st.solves[0].precond
    b = prob.M.apply(rng.standard_normal(128))
    x, rep = solve(op, b, pc, st.outer_cfg)
    assert rep.converged
    assert rep.iterations <= 25
    assert np.linalg.norm(op.apply(x) - b) <= 1e-12 * np.linalg.norm(b)


def test_gmres_history_monotone():
    n = 60
    A = rng.standard_normal((n, n))
    A = -(A @ A.T) - 0.5 * np.eye(n)
    op = SparseOperator(sp.csr_matrix(A))
    b = rng.standard_normal(n)
    x, rep = solve(op, b, None, KrylovConfig(method="gmres", rel_tol=1e-10,
                                             restart=12, max_iters=500))
    assert rep.converged
    h = rep.residual_history
    assert all(h[i + 1] <= h[i] * (1.0 + 1e-9) + 1e-300 for i in range(len(h) - 1))


def test_max_iters_returns_best_iterate_unconverged():
    op = spd_tridiag(200)
    b = rng.standard_normal(200)
    x, rep = solve(op, b, None, KrylovConfig(method="gmres", rel_tol=1e-14,
                                             restart=5, max_iters=3))
    assert not rep.converged
    assert rep.iterations == 3
    assert np.linalg.norm(op.apply(x) - b) < np.linalg.norm(b)  # progress


def test_cg_symmetry_probe_rejects_nonsymmetric():
    n = 30
    A = rng.standard_normal((n, n)) - 3 * np.eye(n)
    op = SparseOperator(sp.csr_matrix(A))
    with pytest.raises(ValueError):
        solve(op, rng.standard_normal(n), None, KrylovConfig(method="cg"))


def test_preconditioner_application_count():
    op = spd_tridiag(64)
    pc = build_inner_preconditioner("gauss_seidel", op, sweeps=2)
    b = rng.standard_normal(64)
    _x, rep = solve(op, b, pc, KrylovConfig(method="gmres", rel_tol=1e-10,
                                            restart=30, max_iters=200))
    assert rep.converged
    # one application (two leaf sweeps) per iteration, none to rebuild x
    assert rep.preconditioner_applications == 2 * rep.iterations


def test_zero_rhs():
    op = spd_tridiag(10)
    x, rep = solve(op, np.zeros(10), None, KrylovConfig(method="gmres"))
    assert rep.converged and rep.iterations == 0
    assert np.all(x == 0)


def test_fgmres_with_variable_preconditioner():
    grid = GridSpec(dim=1, n=96)
    L = build_advdiff(grid, 0.3, 1.0, 2)
    op = shifted_operator(2.0, 0.08, IdentityMass(96), L)
    pc = build_inner_preconditioner("inner_krylov", op, tol=1e-2, maxit=50)
    b = rng.standard_normal(96)
    x, rep = solve(op, b, pc, KrylovConfig(method="gmres", rel_tol=1e-11,
                                           restart=30, max_iters=300))
    assert rep.converged
    assert np.linalg.norm(op.apply(x) - b) <= 1e-11 * np.linalg.norm(b) * 2
    assert rep.preconditioner_applications > rep.iterations  # inner loop counted


def test_cg_breakdown_on_indefinite():
    from irksolve.krylov import Breakdown
    op = SparseOperator(sp.diags([1.0, -1.0], 0, format="csr"))
    b = np.array([1.0, 1.0])
    with pytest.raises(Breakdown):
        solve(op, b, None, KrylovConfig(method="cg", rel_tol=1e-12))


def test_cg_breakdown_tests_are_scale_invariant():
    # an absolute threshold on p^T A p mistakes a tiny right-hand side
    # for a breakdown
    op = spd_tridiag(40)
    b = rng.standard_normal(40)
    x1, rep1 = solve(op, b, None, KrylovConfig(method="cg", rel_tol=1e-10))
    x2, rep2 = solve(op, 1e-20 * b, None,
                     KrylovConfig(method="cg", rel_tol=1e-10))
    assert rep1.converged and rep2.converged
    assert rep2.iterations == rep1.iterations
    assert np.allclose(x2, 1e-20 * x1, rtol=1e-8, atol=0.0)


class _CountingOperator(SparseOperator):
    def __init__(self, mat):
        super().__init__(mat)
        self.applies = 0

    def apply(self, v):
        self.applies += 1
        return super().apply(v)


def test_cg_applies_operator_once_per_iteration_plus_true_residual():
    op = _CountingOperator(spd_tridiag(32).mat)
    _x, rep = solve(op, rng.standard_normal(32), None,
                    KrylovConfig(method="cg", rel_tol=1e-10))
    assert rep.converged
    assert op.applies == rep.iterations + 1


def test_cg_refused_on_matrix_free_operator():
    prob = build_fem_diffusion_1d(GridSpec(dim=1, n=5))
    op = _StageSystem(build_tableau("gauss", 2), prob, 0.1)
    assert not op.symmetric
    with pytest.raises(ValueError):
        solve(op, rng.standard_normal(10), None, KrylovConfig(method="cg"))


class _NaNPreconditioner(Preconditioner):
    def apply(self, v):
        self._count += 1
        return np.full_like(v, np.nan)


@pytest.mark.parametrize("method", ["cg", "gmres"])
def test_nonfinite_preconditioner_stops_at_first_iteration(method):
    op = spd_tridiag(50)
    pc = _NaNPreconditioner(50)
    with pytest.raises(NonFiniteResidual):
        solve(op, rng.standard_normal(50), pc,
              KrylovConfig(method=method, max_iters=2000))
    assert pc.applications == 1


def test_resolve_method():
    sym = spd_tridiag(8)
    nonsym = SparseOperator(sp.csr_matrix(rng.standard_normal((8, 8))))
    exact = build_inner_preconditioner("exact", sym)
    relax = build_inner_preconditioner("jacobi", sym)
    inner = build_inner_preconditioner("inner_krylov", sym)
    auto = KrylovConfig(method="auto", rel_tol=1e-9, max_iters=7, restart=5)
    assert resolve_method(auto, sym, exact) == "cg"
    assert resolve_method(auto, nonsym, exact) == "gmres"
    assert resolve_method(auto, sym, relax) == "gmres"
    assert resolve_method(auto, sym, inner) == "gmres"
    assert resolve_method(None, sym, exact) == "cg"
    assert resolve_method(auto, sym, None) == "gmres"
    explicit = KrylovConfig(method="gmres", rel_tol=1e-9)
    assert resolve_method(explicit, sym, exact) == "gmres"


def test_none_and_the_default_config_are_one_policy():
    # KrylovConfig() is auto, as cfg None is: on an SPD operator with an
    # exact preconditioner both run CG, and a stepper passes the
    # caller's config on as it is
    op = spd_tridiag(30)
    P = build_inner_preconditioner("exact", op)
    b = rng.standard_normal(30)
    assert KrylovConfig().method == "auto"
    assert resolve_method(KrylovConfig(), op, P) == "cg"
    x0, rep0 = solve(op, b, P, None)
    x1, rep1 = solve(op, b, P, KrylovConfig())
    assert np.array_equal(x0, x1) and rep0 == rep1
    grid = GridSpec(dim=1, n=16)
    prob = LinearProblem(IdentityMass(16), build_advdiff(grid, 1.0, 0.1))
    cfg = KrylovConfig(rel_tol=1e-9)
    st = IRKStepper(build_tableau("gauss", 2), prob, 0.1, outer_cfg=cfg)
    assert st.outer_cfg is cfg


@pytest.mark.parametrize("method", ["cg", "gmres"])
def test_no_preconditioner_is_the_identity(method):
    # solve takes precond None as Preconditioner(n), the identity, which
    # linop re-exports; it counts no application
    op = spd_tridiag(30)
    b = np.random.default_rng(41).standard_normal(30)
    cfg = KrylovConfig(method=method, rel_tol=1e-10, restart=4)
    identity = Preconditioner(op.n)
    x0, rep0 = solve(op, b, None, cfg)
    x1, rep1 = solve(op, b, identity, cfg)
    assert np.array_equal(x0, x1) and rep0 == rep1
    assert rep1.converged and rep1.iterations > 4
    assert rep1.preconditioner_applications == 0 == identity.applications
    assert linop.Preconditioner is Preconditioner


def _count_precond_calls(pc):
    calls = {"apply": 0, "apply_with_image": 0}
    for name in calls:
        def counted(*args, _fn=getattr(pc, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        setattr(pc, name, counted)
    return calls


def test_gmres_takes_the_image_only_from_a_solve_of_its_operator():
    # GMRES calls apply_with_image once per iteration when op is
    # precond.op (the sparse LU in 1D, the FFT in 2D), and apply, then
    # op, for an inexact preconditioner or an exact solve of another
    # operator; apply_with_image goes through apply, so either way each
    # iteration is one apply call
    b = np.random.default_rng(42).standard_normal(64)
    ops = [spd_tridiag(64), shifted_operator(
        2.0, 0.1, IdentityMass(64),
        build_advdiff(GridSpec(dim=2, n=8), (0.85, 1.0), (0.3, 0.25), 4))]
    gmres = KrylovConfig(method="gmres", rel_tol=1e-10, restart=4)
    for op in ops:
        other = SparseOperator(op.mat + 0.5 * sp.identity(op.n))
        exact = build_inner_preconditioner("exact", op)
        assert exact.op is op
        for pc, image in ((exact, True),
                          (build_inner_preconditioner("jacobi", op), False),
                          (build_inner_preconditioner("exact", other), False)):
            calls = _count_precond_calls(pc)
            _x, rep = solve(op, b, pc, gmres)
            assert rep.converged
            assert calls == {"apply": rep.iterations,
                             "apply_with_image": rep.iterations if image
                             else 0}


def test_scale_sets_the_target():
    # rel_tol scales the norm the caller passes, ||b|| by default
    op = spd_tridiag(30)
    b = rng.standard_normal(30)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-6)
    _x, rep = solve(op, b, None, cfg)
    assert rep.target == 1e-6 * np.linalg.norm(b)
    x, rep = solve(op, b, None, cfg, 1e-3)
    assert rep.target == 1e-9 and rep.converged
    assert np.linalg.norm(b - op.apply(x)) <= 1e-9


class _NoFloor(LinearOperator):
    """op's apply with norm 0: a solve on it has no residual floor."""
    norm = 0.0

    def __init__(self, op):
        super().__init__(op.n)
        self.apply = op.apply


@pytest.mark.parametrize("method", ["cg", "gmres"])
def test_target_below_the_floor_stops_at_the_floor(method):
    # a target no double-precision solve can certify: the solve stops
    # at eps ||op|| ||x||, converged and flagged floor-limited.  With a
    # zero norm there is no floor, and it fails
    op = spd_tridiag(40)
    b = rng.standard_normal(40)
    cfg = KrylovConfig(method=method, rel_tol=1e-20, max_iters=200)
    x, rep = solve(op, b, None, cfg)
    floor = np.finfo(float).eps * op.norm * np.linalg.norm(x)
    assert rep.converged and rep.floor_limited
    assert rep.target < floor and rep.final_residual <= floor
    assert rep.final_residual == pytest.approx(
        np.linalg.norm(b - op.apply(x)), rel=1e-12)
    free = _NoFloor(op)
    if method == "gmres":
        _x, rep = solve(free, b, None, cfg)
        assert not rep.converged and not rep.floor_limited


def test_target_above_the_floor_is_not_floor_limited():
    op = spd_tridiag(40)
    _x, rep = solve(op, rng.standard_normal(40), None,
                    KrylovConfig(method="cg", rel_tol=1e-8))
    assert rep.converged and not rep.floor_limited


def test_norm_is_numpy_norm_bit_for_bit():
    gen = np.random.default_rng(23)
    vectors = [np.zeros(7)] + [scale * gen.standard_normal(n)
                               for n in (1, 2, 17, 1000, 4097)
                               for scale in (1e-150, 1.0, 1e150)]
    for v in vectors:
        assert _norm(v) == np.linalg.norm(v)


def test_rhs_of_another_size_is_a_dimension_mismatch():
    # the one size-mismatch error, a ValueError, shared with linop
    assert DimensionMismatch is linop.DimensionMismatch \
        is irksolve.DimensionMismatch
    assert issubclass(DimensionMismatch, ValueError)
    with pytest.raises(DimensionMismatch, match="rhs dim 9 != operator dim 10"):
        solve(spd_tridiag(10), np.ones(9), None)


def test_restart_must_be_positive():
    with pytest.raises(ValueError, match="restart must be >= 1"):
        KrylovConfig(restart=0)


def test_rhs_must_be_a_real_vector():
    # a column (n, 1) reached the operator and failed in numpy; a complex
    # rhs was cast to real with only a ComplexWarning
    op = spd_tridiag(10)
    with pytest.raises(DimensionMismatch, match=r"got shape \(10, 1\)"):
        solve(op, np.ones((10, 1)), None)
    with pytest.raises(ValueError, match="complex rhs"):
        solve(op, np.ones(10) + 1j, None)
    x, rep = solve(op, np.ones(10, dtype=int), None,
                   KrylovConfig(method="gmres"))
    assert x.dtype == float and rep.converged


@pytest.mark.parametrize("field", ["max_iters", "restart"])
@pytest.mark.parametrize("value", [2.5, 3.0, True, "3"])
def test_iteration_counts_must_be_integers(field, value):
    # restart=2.5 failed inside GMRES with a TypeError, and max_iters=2.5
    # ran 3 iterations
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        KrylovConfig(**{field: value})
    assert getattr(KrylovConfig(**{field: np.int64(3)}), field) == 3


# ----------------------------------------------------------------------
# the GMRES cycle works in place on one basis array; the list-based cycle
# below, with a fresh vector per basis vector and per Gram-Schmidt update
# and the directions stacked for combine, is its reference, bit for bit

def _reference_gmres(op, precond, cfg, rep, x, r, beta, stop):
    image = op is precond.op
    m = cfg.restart
    V = [(precond.forward(r) if image else r) / beta]
    Z = []
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta

    j = 0
    while j < m and rep.iterations < cfg.max_iters:
        if image:
            z, w = precond.apply_with_image(V[j], np.empty_like(V[j]))
        else:
            z = precond.apply(V[j])
            w = op.apply(z)
        Z.append(z)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = _norm(w)
        col = np.linalg.norm(H[:j + 2, j])

        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom <= krylov.BREAKDOWN_TOL * col:
            raise krylov.Breakdown("Hessenberg column vanished in GMRES")
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        rep.iterations += 1
        res = krylov._finite(float(abs(g[j + 1])))
        rep.residual_history.append(res)

        happy = H[j + 1, j] <= krylov.BREAKDOWN_TOL * col
        if not happy:
            V.append(w / H[j + 1, j])
        j += 1
        if res <= stop or happy:
            break

    y = np.zeros(j)
    for i in range(j - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1:j] @ y[i + 1:j]) / H[i, i]
    if image:
        return x + precond.combine(Z, y)
    return x + np.array(Z).T @ y


def _both_cycles(monkeypatch, run):
    """run() under the in-place cycle and under the reference; run builds
    its own preconditioners, so their counts start at zero each time."""
    out = run()
    with monkeypatch.context() as m:
        m.setattr(krylov, "_gmres", _reference_gmres)
        ref = run()
    return out, ref


def _assert_same_solves(out, ref):
    # reports compare field by field: residual histories, iterations and
    # applications exactly
    (x, reps), (x_ref, reps_ref) = out, ref
    assert np.array_equal(x, x_ref)
    assert reps == reps_ref


def _steps(tab, prob, dt, cfg, inner="exact"):
    def run():
        kind, params = linop.parse_inner(inner)
        st = IRKStepper(tab, prob, dt, outer_cfg=cfg, inner_kind=kind,
                        inner_params=params)
        u, reps = np.sin(np.arange(prob.n) * 0.37), []
        for k in range(2):
            u, step = st.advance(u, k * dt)
            reps += step
        return u, reps
    return run


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
@pytest.mark.parametrize("scheme", [("lobattoIIIC", 5), ("gauss", 3),
                                    ("SDIRK4L", 5)])
@pytest.mark.parametrize("restart", [2, 30])
def test_gmres_cycle_matches_the_reference_on_the_fft_path(
        monkeypatch, dim, n, scheme, restart):
    # FFT pairs and real factors (whose image is the direction itself,
    # a happy breakdown after one iteration) and an SDIRK chain
    grid = GridSpec(dim=dim, n=n)
    prob = build_fd_mms(grid, fd_order=4)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-10, restart=restart)
    out, ref = _both_cycles(monkeypatch, _steps(build_tableau(*scheme),
                                                prob, 8 * grid.h, cfg))
    _assert_same_solves(out, ref)
    if scheme[0] != "SDIRK4L":  # whose every stage is a real factor
        assert max(rep.iterations for rep in out[1]) > 2


@pytest.mark.parametrize("inner", ["jacobi", "gs:2", "krylov:1e-2"])
@pytest.mark.parametrize("restart", [2, 30])
def test_gmres_cycle_matches_the_reference_with_inexact_inner_solves(
        monkeypatch, inner, restart):
    # the path that applies op after P, and a nested GMRES inside P
    grid = GridSpec(dim=1, n=24)
    prob = build_fd_mms(grid, fd_order=2)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-10, restart=restart)
    out, ref = _both_cycles(monkeypatch, _steps(build_tableau("gauss", 2),
                                                prob, 2 * grid.h, cfg,
                                                inner))
    _assert_same_solves(out, ref)


@pytest.mark.parametrize("restart", [2, 30])
def test_gmres_cycle_matches_the_reference_on_the_lu_sandwich(
        monkeypatch, restart):
    # fem: a pair's image from P M P with the sparse LU, and the LU's own
    # image (the base class's) on the real factor
    grid = GridSpec(dim=1, n=64)
    prob = build_fem_diffusion_1d(grid)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-10, restart=restart)
    out, ref = _both_cycles(monkeypatch, _steps(build_tableau("gauss", 3),
                                                prob, 2 * grid.h, cfg))
    _assert_same_solves(out, ref)


def test_gmres_cycle_matches_the_reference_on_a_happy_breakdown(
        monkeypatch):
    # two distinct eigenvalues: the Krylov space is invariant after two
    # iterations; with no preconditioner the directions are the basis
    # vectors themselves
    op = SparseOperator(sp.diags(np.repeat([1.0, 2.0], 20), format="csr"))
    b = np.random.default_rng(43).standard_normal(40)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-14)

    def run():
        x, rep = solve(op, b, None, cfg)
        return x, [rep]

    out, ref = _both_cycles(monkeypatch, run)
    _assert_same_solves(out, ref)
    assert out[1][0].iterations == 2 and out[1][0].converged


def test_gmres_cycle_matches_the_reference_with_an_exact_lu(monkeypatch):
    # op is precond.op on a sparse LU: the base class's image, written
    # into out, is the direction's basis vector, a happy breakdown
    op = SparseOperator(spd_tridiag(40).mat + sp.diags(np.full(39, 0.3), 1))
    b = np.random.default_rng(44).standard_normal(40)
    cfg = KrylovConfig(method="gmres", rel_tol=1e-12, restart=3)

    def run():
        pc = build_inner_preconditioner("exact", op)
        assert pc.op is op
        x, rep = solve(op, b, pc, cfg)
        return x, [rep]

    out, ref = _both_cycles(monkeypatch, run)
    _assert_same_solves(out, ref)
    assert out[1][0].iterations == 1 and out[1][0].converged
