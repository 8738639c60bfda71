import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from irksolve.linop import (DENSE_LIMIT, ComposedOperator, ExactFFT,
                            ExactSparseLU, FactorizationFailure, GaussSeidel,
                            IdentityMass, Jacobi, SparseMass, SparseOperator,
                            build_inner_preconditioner, fov_upper_bound,
                            shifted_operator)
from irksolve import spatial
from irksolve.spatial import (GridSpec, build_advdiff, build_fem_diffusion_1d,
                              build_fem_mass_1d, build_upwind_advection)

rng = np.random.default_rng(11)


def test_apply_is_linear():
    grid = GridSpec(dim=1, n=32)
    ops = [build_advdiff(grid, 0.7, 0.2, 4),
           build_upwind_advection(grid, 1.3),
           shifted_operator(2.0, 0.1, IdentityMass(32),
                            build_advdiff(grid, 0.7, 0.2, 2))]
    for op in ops:
        u = rng.standard_normal(op.n)
        v = rng.standard_normal(op.n)
        a, b = 0.37, -1.91
        lhs = op.apply(a * u + b * v)
        rhs = a * op.apply(u) + b * op.apply(v)
        scale = max(np.linalg.norm(lhs), 1.0)
        assert np.linalg.norm(lhs - rhs) < 1e-12 * scale


def test_shifted_operator_trivial_cases():
    n = 16
    M = IdentityMass(n)
    L = SparseOperator(sp.random(n, n, density=0.3, random_state=1))
    op = shifted_operator(1.0, 0.0, M, L)
    v = rng.standard_normal(n)
    assert np.allclose(op.apply(v), v)

    D2 = spatial._derivative(n, 0.5, 2, 2).mat
    op = shifted_operator(2.0, 0.1, M, SparseOperator(D2))
    ref = 2.0 * np.eye(n) - 0.1 * D2.toarray()
    assert np.max(np.abs(op.to_dense() - ref)) < 1e-14


def test_exact_lu_residual_gauss2_shift():
    # gamma* = 2 sqrt(3) shift of 1D diffusion, N = 64
    grid = GridSpec(dim=1, n=64)
    L = build_advdiff(grid, 0.0, 1.0, 2)
    op = shifted_operator(2.0 * np.sqrt(3.0), 0.05, IdentityMass(64), L)
    pc = ExactSparseLU(op)
    v = rng.standard_normal(64)
    x = pc.apply(v)
    assert np.linalg.norm(op.apply(x) - v) < 1e-12 * np.linalg.norm(v)


def test_exact_matches_dense_solve():
    for n in (32, 128):
        grid = GridSpec(dim=1, n=n)
        L = build_advdiff(grid, 0.4, 0.8, 4)
        op = shifted_operator(1.7, 0.02, IdentityMass(n), L)
        dense = op.to_dense()
        v = rng.standard_normal(n)
        ref = np.linalg.solve(dense, v)
        pc = build_inner_preconditioner("exact", op)
        assert np.linalg.norm(pc.apply(v) - ref) < 1e-10 * np.linalg.norm(ref)


def test_exact_banded_kind_is_gone():
    # nor the forced sparse LU ("exact" picks the solve), nor any spec
    # alias: linop.parse_inner resolves those to canonical kinds
    op = SparseOperator(sp.identity(8, format="csr"))
    for kind in ("exact_banded", "exact-banded", "exact_sparse_lu", "gs",
                 "Gauss_Seidel", "inner-krylov"):
        with pytest.raises(ValueError, match="unknown preconditioner kind"):
            build_inner_preconditioner(kind, op)


def test_jacobi_on_identity():
    op = SparseOperator(sp.identity(8, format="csr"))
    pc = build_inner_preconditioner("jacobi", op, sweeps=1)
    v = rng.standard_normal(8)
    assert np.allclose(pc.apply(v), v)
    assert pc.applications == 1


def test_relaxation_counts_sweeps():
    grid = GridSpec(dim=1, n=32)
    op = shifted_operator(3.0, 0.05, IdentityMass(32),
                          build_advdiff(grid, 0.0, 1.0, 2))
    pc = build_inner_preconditioner("gauss_seidel", op, sweeps=3)
    pc.apply(rng.standard_normal(32))
    pc.apply(rng.standard_normal(32))
    assert pc.applications == 6


def test_relaxation_needs_a_sweep():
    op = SparseOperator(sp.identity(8, format="csr"))
    for cls in (Jacobi, GaussSeidel):
        for sweeps in (0, -2):
            with pytest.raises(ValueError, match="at least one sweep"):
                cls(op, sweeps=sweeps)


def test_inner_krylov_residual_reduction():
    grid = GridSpec(dim=2, n=16)
    L = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 2)
    op = shifted_operator(2.5, 0.1, IdentityMass(grid.size), L)
    pc = build_inner_preconditioner("inner_krylov", op, tol=1e-10,
                                    maxit=500)
    v = rng.standard_normal(op.n)
    x = pc.apply(v)
    assert np.linalg.norm(op.apply(x) - v) <= 1e-10 * np.linalg.norm(v) * 10


def test_inner_krylov_rejects_a_bad_tolerance_when_built():
    op = shifted_operator(2.5, 0.1, IdentityMass(8),
                          SparseOperator(-sp.identity(8, format="csr")))
    for params in ({"tol": -1}, {"tol": 0.0}, {"tol": 1.0},
                   {"tol": float("nan")}, {"maxit": 0}):
        with pytest.raises(ValueError):
            build_inner_preconditioner("inner_krylov", op, **params)


def test_factorization_failure_on_singular():
    op = SparseOperator(sp.csr_matrix(np.zeros((4, 4))))
    with pytest.raises(FactorizationFailure):
        build_inner_preconditioner("exact", op)


def test_mass_factorization_failure():
    # exactly singular, then a 1e-15 pivot against a unit row sum
    for diag in ([1.0, 1.0, 0.0], [1.0, 1.0, 1e-15]):
        with pytest.raises(FactorizationFailure):
            SparseMass(sp.diags(diag))
    with pytest.raises(FactorizationFailure):
        SparseMass(sp.csr_matrix(np.ones((3, 3))))


def test_fov_skew_and_negative_identity():
    n = 24
    K = rng.standard_normal((n, n))
    skew = SparseOperator(sp.csr_matrix(K - K.T))
    assert abs(fov_upper_bound(skew)) < 1e-12
    neg = SparseOperator(-sp.identity(n, format="csr"))
    assert fov_upper_bound(neg) == pytest.approx(-1.0, abs=1e-12)


def test_fov_upwind_nonpositive():
    grid = GridSpec(dim=1, n=64)
    assert fov_upper_bound(build_upwind_advection(grid, 1.0)) <= 1e-12


def test_fov_lanczos_path_matches_dense():
    grid = GridSpec(dim=2, n=40)  # N = 1600 > DENSE_LIMIT
    # the bare matrix, without the symbol that would bypass Lanczos
    L = SparseOperator(build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4).mat)
    assert L.n > DENSE_LIMIT
    val = fov_upper_bound(L)
    A = L.to_dense()
    ref = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
    assert val == pytest.approx(ref, abs=1e-8)
    assert val <= 1e-8


def test_mass_inverse_contract():
    grid = GridSpec(dim=1, n=64)
    M = build_fem_mass_1d(grid)
    v = rng.standard_normal(64)
    assert np.linalg.norm(M.apply(M.solve(v)) - v) < 1e-12 * np.linalg.norm(v)
    assert np.linalg.norm(M.solve(M.apply(v)) - v) < 1e-12 * np.linalg.norm(v)


def test_zero_operator():
    z = SparseOperator(sp.csr_matrix((5, 5)))
    assert np.all(z.apply(np.ones(5)) == 0)
    assert z.symmetric
    assert z.norm == 0.0
    assert fov_upper_bound(z) == 0.0


def test_dimension_mismatch():
    from irksolve.linop import DimensionMismatch
    grid = GridSpec(dim=1, n=16)
    L = build_advdiff(grid, 0.5, 0.5, 2)
    with pytest.raises(DimensionMismatch):
        shifted_operator(1.0, 0.1, IdentityMass(8), L)


def test_matrix_free_shifted_operator():
    # no assembled form on L: the shift must compose matrix-free
    from irksolve.linop import ComposedOperator
    n = 20
    A = rng.standard_normal((n, n))
    A = -(A @ A.T)
    L = ComposedOperator(n, lambda v: A @ v)
    assert L.mat is None
    op = shifted_operator(2.5, 0.1, IdentityMass(n), L)
    assert op.mat is None
    v = rng.standard_normal(n)
    ref = 2.5 * v - 0.1 * (A @ v)
    assert np.allclose(op.apply(v), ref, atol=1e-13)
    # linearity holds for the composed apply as well
    u = rng.standard_normal(n)
    lhs = op.apply(0.3 * u - 1.7 * v)
    rhs = 0.3 * op.apply(u) - 1.7 * op.apply(v)
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(np.linalg.norm(lhs), 1.0)
    assert np.max(np.abs(op.to_dense() - (2.5 * np.eye(n) - 0.1 * A))) < 1e-12
    # dense fallback of the fov bound on the matrix-free L itself
    assert fov_upper_bound(L) <= 1e-12


def test_fov_failure_is_the_package_eigen_failure():
    import irksolve
    from irksolve.linop import ComposedOperator

    assert irksolve.EigenFailure is irksolve.linop.EigenFailure
    op = ComposedOperator(1025, lambda v: -v)
    with pytest.raises(irksolve.EigenFailure):
        fov_upper_bound(op)


def test_symmetry_flags():
    n = 16
    sym = SparseOperator(spatial._derivative(n, 2.0 / n, 2, 2).mat)
    adv = build_upwind_advection(GridSpec(dim=1, n=n), 1.0)
    fem = build_fem_mass_1d(GridSpec(dim=1, n=n))
    assert sym.symmetric and fem.symmetric and IdentityMass(n).symmetric
    assert not adv.symmetric
    assert shifted_operator(1.5, 0.1, fem, sym).symmetric
    assert not shifted_operator(1.5, 0.1, fem, adv).symmetric


# ----------------------------------------------------------------------
# Circulant operators

def test_circulant_symmetry_from_the_symbol_matches_the_transpose_test():
    shipped = []
    for dim in (1, 2):
        grid = GridSpec(dim=dim, n=12)
        for order in (2, 4):
            for adv in (0.0, 0.85):
                for diff in (0.0, 0.3):
                    shipped.append(build_advdiff(grid, adv, diff, order))
    grid = GridSpec(dim=1, n=12)
    shipped += [build_upwind_advection(grid, a) for a in (1.3, -1.3)]
    shipped.append(build_fem_diffusion_1d(grid).L)
    flags = [L.symmetric for L in shipped]
    assert flags == [SparseOperator(L.mat).symmetric for L in shipped]
    assert any(flags) and not all(flags)


def test_exact_fft_residual():
    # the FFT solve is exact on every grid, an odd size included, and so
    # is its squared form for the Gauss-2 pair eta +- i beta: the image
    # that apply_with_image gives is the pair operator's apply of the solve
    eta, beta = 3.0, np.sqrt(3.0)
    gamma = np.hypot(eta, beta)
    delta = gamma - eta
    for dim, n in ((1, 16), (1, 33), (2, 16), (2, 33)):
        grid = GridSpec(dim=dim, n=n)
        L = build_advdiff(grid, (0.85, 1.0)[:dim], (0.3, 0.25)[:dim], 4)
        M, dt = IdentityMass(grid.size), 2 * grid.h
        op = shifted_operator(gamma, dt, M, L)
        pc = ExactFFT(op)
        v = rng.standard_normal(op.n)
        x = pc.apply(v)
        assert pc.applications == 1
        assert np.linalg.norm(op.apply(x) - v) <= 1e-13 * np.linalg.norm(v)
        A_eta = shifted_operator(eta, dt, M, L)
        pair = ComposedOperator(
            op.n, lambda u: A_eta.apply(A_eta.apply(u)) + beta ** 2 * u)
        sq = ExactFFT(op).square(pair, delta, delta ** 2 + beta ** 2)
        vh, w = sq.apply_with_image(v)
        z = sq.combine([vh], np.ones(1))
        assert sq.op is pair and sq.applications == 2
        assert np.linalg.norm(z - sq.apply(v)) <= 1e-13 * np.linalg.norm(z)
        assert np.linalg.norm(w - pair.apply(z)) <= 1e-13 * np.linalg.norm(w)


def test_zero_mode_raises_factorization_failure():
    # gamma = 0 leaves the constant mode of L in the null space
    for grid in (GridSpec(dim=1, n=16), GridSpec(dim=2, n=16)):
        L = build_advdiff(grid, (0.85, 1.0)[:grid.dim],
                          (0.3, 0.25)[:grid.dim], 4)
        op = shifted_operator(0.0, 0.1, IdentityMass(grid.size), L)
        with pytest.raises(FactorizationFailure):
            build_inner_preconditioner("exact", op)


def test_symbol_fov_matches_dense():
    for n in (6, 9, 12):
        grid = GridSpec(dim=2, n=n)
        for adv, diff in (((0.85, 1.0), (0.3, 0.25)), ((1.0, -2.0), (0.0, 0.0))):
            L = build_advdiff(grid, adv, diff, 2)
            S = 0.5 * (L.to_dense() + L.to_dense().T)
            assert fov_upper_bound(L) == pytest.approx(
                np.linalg.eigvalsh(S)[-1], abs=1e-12)


def test_exact_kind_follows_the_operator():
    # every circulant shift gets the FFT solve, in 1D as in 2D
    for dim in (1, 2):
        grid = GridSpec(dim=dim, n=16)
        L = build_advdiff(grid, 0.5, 0.5, 2)
        op = shifted_operator(2.0, 0.1, IdentityMass(grid.size), L)
        assert type(build_inner_preconditioner("exact", op)) is ExactFFT
    # a circulant L with a non-identity mass is not circulant-shifted
    grid = GridSpec(dim=1, n=16)
    prob = build_fem_diffusion_1d(grid)
    op = shifted_operator(2.0, 0.1, prob.M, prob.L)
    assert type(op) is SparseOperator
    assert type(build_inner_preconditioner("exact", op)) is ExactSparseLU


def test_operator_norms():
    # a circulant's norm is its exact 2-norm, an assembled matrix's its
    # infinity-norm, and the FEM mass's Gershgorin bound on ||M^{-1}||
    # is 3/h
    grid = GridSpec(dim=1, n=24)
    L = build_advdiff(grid, 0.7, 0.2, 4)
    assert L.norm == pytest.approx(np.linalg.norm(L.to_dense(), 2),
                                   rel=1e-12)
    A = SparseOperator(sp.csr_matrix(rng.standard_normal((9, 9))))
    assert A.norm == pytest.approx(np.linalg.norm(A.to_dense(), np.inf),
                                   rel=1e-14)
    M = build_fem_mass_1d(grid)
    assert M.inv_norm == pytest.approx(3.0 / grid.h, rel=1e-12)
    assert M.inv_norm >= np.linalg.norm(np.linalg.inv(M.to_dense()), 2)
    assert IdentityMass(4).norm == IdentityMass(4).inv_norm == 1.0
    assert SparseOperator(sp.csr_matrix((5, 5))).norm == 0.0
    # no bound for a mass that is not diagonally dominant
    spd = np.full((3, 3), 0.6) + 0.4 * np.eye(3)
    assert SparseMass(sp.csr_matrix(spd)).inv_norm == 0.0


def test_relaxation_warning_names_the_shift_at_the_caller():
    # each non-dominant shift warns with its worst row and ratio, so two
    # shifts built on one line give two warnings under the once-per-
    # location filter, both reported at that line and not in linop.py
    grid = GridSpec(dim=1, n=48)
    M, L = build_fem_mass_1d(grid), build_advdiff(grid, 1.0, 0.02, 4)
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("default")
        for gamma in (1.0, 2.0):
            build_inner_preconditioner(
                "gauss_seidel", shifted_operator(gamma, 2 * grid.h, M, L))
    assert len(rec) == 2
    assert str(rec[0].message) != str(rec[1].message)
    for r in rec:
        assert "not diagonally dominant (row " in str(r.message)
        assert r.filename == __file__
