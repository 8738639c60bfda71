import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from irksolve.linop import (DENSE_LIMIT, CirculantOperator,
                            DimensionMismatch, ExactFFT, ExactSparseLU,
                            FactorizationFailure, GaussSeidel, IdentityMass,
                            Jacobi, SparseMass, SparseOperator,
                            _QuadraticSystem, _abs_row_sums,
                            build_inner_preconditioner, canonical_stencil,
                            fov_upper_bound, shifted_operator, stencil_matrix)
from irksolve import linop, spatial
from irksolve.krylov import _norm
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
    assert np.max(np.abs(op.mat.toarray() - ref)) < 1e-14


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
        dense = op.mat.toarray()
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


@pytest.mark.parametrize("kind", sorted(linop.INNER_SOLVES))
def test_inner_solves_need_an_assembled_matrix(kind):
    # the one way in to the inner solves rejects, by type, any operator
    # that is not a SparseOperator, with LinearProblem's error
    from irksolve.stepper import _StageSystem
    from irksolve.tableaux import build_tableau
    prob = build_fem_diffusion_1d(GridSpec(dim=1, n=4))
    op = _StageSystem(build_tableau("gauss", 2), prob, 0.1)
    with pytest.raises(TypeError, match="assembled"):
        build_inner_preconditioner(kind, op)


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
    A = L.mat.toarray()
    ref = np.linalg.eigvalsh(0.5 * (A + A.T))[-1]
    assert val == pytest.approx(ref, abs=1e-8)
    assert val <= 1e-8


def test_fov_lanczos_bound_is_deterministic():
    # Lanczos starts from a seeded vector, so the certificate of one
    # operator is one float, call after call
    grid = GridSpec(dim=2, n=40)
    mat = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4).mat
    assert mat.shape[0] > DENSE_LIMIT
    bounds = {fov_upper_bound(SparseOperator(mat)) for _ in range(3)}
    assert len(bounds) == 1


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
    # a stencil offset needs one integer per grid axis
    with pytest.raises(DimensionMismatch, match="shape"):
        CirculantOperator({(0, 1): 1.0}, np.ones(16))
    with pytest.raises(DimensionMismatch, match="expected square matrix"):
        SparseOperator(sp.csr_matrix(np.ones((3, 4))))


def test_fov_failure_is_the_package_eigen_failure(monkeypatch):
    # an ARPACK failure on an assembled L beyond DENSE_LIMIT comes out
    # as the package's EigenFailure, chained to the ARPACK error
    import irksolve
    import scipy.sparse.linalg as spla

    def no_convergence(*args, **kwargs):
        raise spla.ArpackNoConvergence("no convergence", np.empty(0),
                                       np.empty((0, 0)))

    assert irksolve.EigenFailure is irksolve.linop.EigenFailure
    L = SparseOperator(-sp.identity(DENSE_LIMIT + 1, format="csr"))
    monkeypatch.setattr(spla, "eigsh", no_convergence)
    with pytest.raises(irksolve.EigenFailure) as info:
        fov_upper_bound(L)
    assert isinstance(info.value.__cause__, spla.ArpackNoConvergence)


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
    # that apply_with_image gives of forward(v) is the forward image of
    # the pair operator's apply of the solve
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
        pair = _QuadraticSystem(A_eta, IdentityMass(op.n), beta)
        sq = ExactFFT(op).square(pair, delta, delta ** 2 + beta ** 2, M)
        vh = sq.forward(v)
        d, w = sq.apply_with_image(vh, np.empty_like(vh))
        z = sq.combine([d], np.ones(1))
        assert sq.op is pair and sq.applications == 2
        assert np.linalg.norm(z - sq.apply(v)) <= 1e-13 * np.linalg.norm(z)
        ref = sq.forward(pair.apply(z))
        assert np.linalg.norm(w - ref) <= 1e-13 * np.linalg.norm(w)


def test_exact_fft_forward_is_an_isometry():
    # the weighted half-spectrum keeps real dot products and norms on
    # every grid: the constant and the alternating vector lie on the
    # k = 0 and (for even n) Nyquist planes of the last axis, weighted 1
    for dim, n in ((1, 16), (1, 33), (2, 16), (2, 33)):
        grid = GridSpec(dim=dim, n=n)
        L = build_advdiff(grid, (0.85, 1.0)[:dim], (0.3, 0.25)[:dim], 4)
        pc = ExactFFT(shifted_operator(2.0, 2 * grid.h,
                                       IdentityMass(grid.size), L))
        alternating = (-1.0) ** np.indices((n,) * dim).sum(axis=0).ravel()
        vectors = [*rng.standard_normal((2, grid.size)),
                   np.ones(grid.size), alternating]
        for u in vectors:
            fu = pc.forward(u)
            assert abs(_norm(fu) - _norm(u)) <= 1e-14 * _norm(u)
            for v in vectors:
                tol = 1e-14 * _norm(u) * _norm(v)
                assert abs(fu @ pc.forward(v) - u @ v) <= tol, (dim, n)


def test_exact_fft_combine_follows_square():
    # combine is irfftn(sum_j y_j d_j * inv / weights) with the inverse
    # symbol of the moment: its back-multiplier, built on first use, is
    # rebuilt after square, bit for bit the formula either way
    eta, beta = 3.0, np.sqrt(3.0)
    gamma = np.hypot(eta, beta)
    for dim, n in ((1, 16), (1, 33), (2, 16), (2, 33)):
        grid = GridSpec(dim=dim, n=n)
        L = build_advdiff(grid, (0.85, 1.0)[:dim], (0.3, 0.25)[:dim], 4)
        op = shifted_operator(gamma, 2 * grid.h, IdentityMass(grid.size), L)
        shape = op.symbol.shape
        inv = 1.0 / op.symbol[..., :shape[-1] // 2 + 1]
        D = rng.standard_normal((3, 2 * inv.size))
        y = rng.standard_normal(3)

        def formula(inv):
            vh = (y @ D).view(np.complex128).reshape(inv.shape)
            return np.fft.irfftn(vh * (inv / linop._half_weights(shape)),
                                 s=shape, axes=tuple(range(dim))).ravel()

        pc = ExactFFT(op)
        assert np.array_equal(pc.combine(D, y), formula(inv))
        pc.square(op, gamma - eta, beta ** 2 + (gamma - eta) ** 2,
                  IdentityMass(op.n))
        assert np.array_equal(pc.combine(D, y), formula(inv ** 2))
        assert np.array_equal(pc.combine(list(D), y), formula(inv ** 2))


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
            S = 0.5 * (L.mat.toarray() + L.mat.toarray().T)
            assert fov_upper_bound(L) == pytest.approx(
                np.linalg.eigvalsh(S)[-1], abs=1e-12)


def test_exact_kind_follows_the_operator():
    # every circulant shift gets the FFT solve, in 1D as in 2D
    for dim in (1, 2):
        grid = GridSpec(dim=dim, n=16)
        L = build_advdiff(grid, 0.5, 0.5, 2)
        op = shifted_operator(2.0, 0.1, IdentityMass(grid.size), L)
        assert type(build_inner_preconditioner("exact", op)) is ExactFFT
    # and so does a circulant L with the periodic FEM mass, whose shift
    # is circulant too; the same mass as a bare matrix gets the LU
    grid = GridSpec(dim=1, n=16)
    prob = build_fem_diffusion_1d(grid)
    op = shifted_operator(2.0, 0.1, prob.M, prob.L)
    assert type(op) is CirculantOperator
    assert type(build_inner_preconditioner("exact", op)) is ExactFFT
    op = shifted_operator(2.0, 0.1, SparseMass(prob.M.mat), prob.L)
    assert type(op) is SparseOperator
    assert type(build_inner_preconditioner("exact", op)) is ExactSparseLU


def test_operator_norms():
    # a circulant's norm is its exact 2-norm, an assembled matrix's its
    # infinity-norm, and the FEM mass's Gershgorin bound on ||M^{-1}||
    # is 3/h
    grid = GridSpec(dim=1, n=24)
    L = build_advdiff(grid, 0.7, 0.2, 4)
    assert L.norm == pytest.approx(np.linalg.norm(L.mat.toarray(), 2),
                                   rel=1e-12)
    A = SparseOperator(sp.csr_matrix(rng.standard_normal((9, 9))))
    assert A.norm == pytest.approx(np.linalg.norm(A.mat.toarray(), np.inf),
                                   rel=1e-14)
    M = build_fem_mass_1d(grid)
    assert M.inv_norm == pytest.approx(3.0 / grid.h, rel=1e-12)
    assert M.inv_norm >= np.linalg.norm(np.linalg.inv(M.mat.toarray()), 2)
    assert IdentityMass(4).norm == IdentityMass(4).inv_norm == 1.0
    assert SparseOperator(sp.csr_matrix((5, 5))).norm == 0.0
    # 1 / lambda_min for a mass that is not diagonally dominant: its
    # eigenvalues are 0.4, 0.4 and 2.2
    spd = np.full((3, 3), 0.6) + 0.4 * np.eye(3)
    assert SparseMass(sp.csr_matrix(spd)).inv_norm == pytest.approx(2.5)


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


# ----------------------------------------------------------------------
# The kernel apply: one csr_matvec call on the operator's own arrays

def _fem1d_solves():
    """The fem1d benchmark's problem and its factor solves, (real, pair):
    Gauss-3 on FEM diffusion, n = 256, dt = 2h."""
    from irksolve.stepper import IRKStepper
    from irksolve.tableaux import build_tableau
    grid = GridSpec(dim=1, n=256)
    problem = build_fem_diffusion_1d(grid)
    solves = IRKStepper(build_tableau("gauss", 3), problem, 2 * grid.h).solves
    real, = [s for s in solves if s.factor.is_real]
    pair, = [s for s in solves if not s.factor.is_real]
    return problem, (real, pair)


def _shipped_operators():
    ops = {}
    for dim, n in ((1, 64), (2, 12)):
        for order in (2, 4):
            ops[f"advdiff{dim}d-o{order}"] = build_advdiff(
                GridSpec(dim=dim, n=n), 0.7, 0.2, order)
    ops["upwind"] = build_upwind_advection(GridSpec(dim=1, n=64), 1.3)
    problem, solves = _fem1d_solves()
    ops["fem-mass"] = problem.M
    ops["fem-L"] = problem.L
    ops["fem1d-real-shift"] = solves[0].op
    ops["fem1d-pair-shift"] = solves[1].op.A_eta
    return ops


def _same_csr(A, B):
    """The same CSR arrays, index dtypes included."""
    return all(getattr(A, p).dtype == getattr(B, p).dtype
               and np.array_equal(getattr(A, p), getattr(B, p))
               for p in ("data", "indices", "indptr"))


def test_apply_is_mat_times_v_bit_for_bit_on_every_shipped_operator():
    for name, op in _shipped_operators().items():
        assert isinstance(op, SparseOperator), name
        assert op.mat.dtype == np.float64, name
        v = rng.standard_normal(op.n)
        y = op.apply(v)
        assert y.dtype == np.float64, name
        assert np.array_equal(y, op.mat @ v), name


def test_circulant_shift_is_scipys_difference_bit_for_bit():
    # the shift's stencil gives the arrays of scipy's g I - dt L, index
    # dtypes included; g = 0 drops the diagonal wherever it cancels
    for name, L in _shipped_operators().items():
        if not isinstance(L, CirculantOperator):
            continue
        for g, dt in ((2.0, 0.1), (0.0, 0.05), (np.sqrt(3.0), 2.0 / 64)):
            ref = g * sp.identity(L.n, format="csr") - dt * L.mat
            shift = shifted_operator(g, dt, IdentityMass(L.n), L)
            got = shift.mat
            assert _same_csr(got, ref), (name, g)
            # one read-only index pattern per set of offsets on a grid
            assert not got.indices.flags.writeable
            assert np.shares_memory(got.indices, L.mat.indices) == (
                shift.stencil.keys() == L.stencil.keys()), (name, g)


def _recorded_shifts(monkeypatch, build):
    """The (gamma, dt, M, L) of every shifted_operator call build makes
    through irksolve.stepper, and the shifts built."""
    calls = []

    def shift(*args):
        calls.append((args, shifted_operator(*args)))
        return calls[-1][1]
    monkeypatch.setattr("irksolve.stepper.shifted_operator", shift)
    build()
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("n", [4, 16, 256])
def test_mass_shift_is_scipys_difference_bit_for_bit(monkeypatch, n):
    # the FEM shifts gamma M - dt L of both steppers, circulants
    # combined from the two stencils: scipy's arrays, symmetry and LU
    # solve; their norm is the symbol's largest modulus, the exact
    # 2-norm, not scipy's infinity-norm; n = 4 is the smallest grid,
    # where half the rows wrap round it
    from irksolve.stepper import BlockStepper, IRKStepper
    from irksolve.tableaux import build_tableau
    grid = GridSpec(dim=1, n=n)
    prob = build_fem_diffusion_1d(grid)
    v = rng.standard_normal(n)
    calls = []
    for scheme in (("gauss", 3), ("lobattoIIIC", 5)):
        tab = build_tableau(*scheme)
        calls += _recorded_shifts(monkeypatch, lambda: IRKStepper(
            tab, prob, 2 * grid.h))
        for variant in ("GSL", "LD"):
            calls += _recorded_shifts(monkeypatch, lambda: BlockStepper(
                tab, prob, 2 * grid.h, variant=variant))
    assert len({args[0] for args, _ in calls}) >= 8
    for (gamma, dt, M, L), op in calls:
        ref = SparseOperator(gamma * M.mat - dt * L.mat)
        assert type(op) is CirculantOperator
        assert _same_csr(op.mat, ref.mat), gamma
        assert op.norm == float(np.abs(op.symbol).max()), gamma
        assert op.norm == pytest.approx(
            np.linalg.norm(ref.mat.toarray(), 2), rel=1e-12), gamma
        assert op.symmetric == ref.symmetric is True
        assert np.array_equal(ExactSparseLU(op).apply(v),
                              ExactSparseLU(ref).apply(v)), gamma


def test_mass_shift_sums_the_offsets_that_meet():
    # the fourth-order +-2 offsets meet at n = 4, after the mass's +-1
    grid = GridSpec(dim=1, n=4)
    M, L = build_fem_mass_1d(grid), build_advdiff(grid, 0.7, 0.2, 4)
    for gamma, dt in ((1.3, 0.1), (0.0, 0.5)):
        op = shifted_operator(gamma, dt, M, L)
        assert _same_csr(op.mat, gamma * M.mat - dt * L.mat)


@pytest.mark.parametrize("stencil, shape", [
    ({(-1,): 1.0, (0,): 4.0, (1,): 1.0}, (6,)),
    ({(-1,): 1.0, (0,): 4.0, (1,): 1.0 + 1e-13}, (6,)),
    ({(-1,): 1.0, (0,): 4.0, (1,): 1.0 + 1e-11}, (6,)),
    ({(0,): 4.0, (2,): 1.0}, (6,)),
    ({(0,): 4.0, (3,): 0.5}, (6,)),         # n/2 is its own opposite
    ({(0,): 4.0, (-2,): 1.0, (2,): 1.0}, (4,)),
    ({(0, 0): 5.0, (0, 1): 1.0, (1, 0): 1.0, (-1, 0): 1.0}, (4, 5)),
    ({(0, 0): 5.0, (1, -1): 1.0, (-1, 1): 1.0}, (4, 5)),
])
def test_stencil_mass_symmetry_is_the_matrix_test(stencil, shape):
    M = SparseMass.from_stencil(stencil, shape)
    assert M.stencil == canonical_stencil(stencil, shape)
    assert M.grid == shape
    assert _same_csr(M.mat, stencil_matrix(stencil, shape))
    assert M.symmetric == SparseMass(M.mat).symmetric


@pytest.mark.parametrize("stencil", [
    {(1,): 2.0, (-1,): 3.0, (0,): 1.0},     # offsets not in sorted order
    {(5,): 2.0, (0,): 1.0},                 # an offset beyond the grid
    [((1,), 2.0), ((-5,), 0.5), ((0,), 0.0), ((2,), 1.0)],
])
def test_stencil_matrix_canonicalizes_any_stencil(stencil):
    n = 6
    pairs = stencil.items() if isinstance(stencil, dict) else stencil
    dense = np.zeros((n, n))
    for (o,), c in pairs:
        for i in range(n):
            dense[i, (i + o) % n] += c
    got = stencil_matrix(stencil, (n,))
    assert _same_csr(got, sp.csr_matrix(dense))
    assert got.has_sorted_indices and got.has_canonical_format


def test_quadratic_system_apply_is_the_scipy_formula_bit_for_bit():
    # with a mass that keeps no stencil the pair applies in real space
    problem, _solves = _fem1d_solves()
    M = SparseMass(problem.M.mat)
    Q = _QuadraticSystem(shifted_operator(1.3, 2.0 / 256, M, problem.L),
                         M, 0.8)
    A = Q.A_eta.mat
    v = rng.standard_normal(Q.n)
    ref = A @ M.solve(A @ v) + Q._b2 * (M.mat @ v)
    assert np.array_equal(Q.apply(v), ref)


def test_quadratic_system_with_a_periodic_mass_is_its_multiplier():
    # a circulant A_eta and the FEM mass: A_eta, then one FFT round trip
    # of the multiplier a_eta / m + beta^2 m / a_eta, the scipy formula
    # to rounding, and its norm is the largest modulus of a_eta^2 / m
    # + beta^2 m, the 2-norm.  On the smooth vectors that fem1d's pair
    # solves return it rounds as the real-space product does, 0.002 eps
    # ||op|| ||v|| from it, where the multiplier a_eta^2 / m + beta^2 m
    # on v itself is 0.19 to 0.39 off and stalls pair solves at the
    # residual floor
    from irksolve.krylov import EPS
    problem, solves = _fem1d_solves()
    Q, M = solves[1].op, problem.M
    assert isinstance(Q.A_eta, CirculantOperator)
    A, lu = Q.A_eta.mat, SparseMass(M.mat)

    def ref(v):
        return A @ lu.solve(A @ v) + Q._b2 * (M.mat @ v)
    for v in (rng.standard_normal(Q.n), np.ones(Q.n),
              (-1.0) ** np.arange(Q.n)):
        assert np.linalg.norm(Q.apply(v) - ref(v)) \
            <= 1e-13 * np.linalg.norm(ref(v))
    x = GridSpec(dim=1, n=Q.n).points_1d()
    for phi in np.linspace(0.0, 6.0, 7):
        v = np.sin(np.pi * x + phi)
        assert np.linalg.norm(Q.apply(v) - ref(v)) \
            <= 0.05 * EPS * Q.norm * np.linalg.norm(v), phi
    a, m = Q.A_eta.symbol, M.symbol
    assert Q.norm == pytest.approx(np.abs(a * a / m + Q._b2 * m).max(),
                                   rel=1e-14)
    dense = A.toarray() @ np.linalg.solve(M.mat.toarray(), A.toarray()) \
        + Q._b2 * M.mat.toarray()
    assert Q.norm == pytest.approx(np.linalg.norm(dense, 2), rel=1e-12)


def _hand_built():
    """CSR matrices scipy keeps as given: unsorted column indices,
    duplicate entries (summed by the product), empty rows, int64 index
    arrays."""
    data = np.array([2.0, -1.0, 0.5, 3.0, 1.5, -4.0, 0.25])
    indices = np.array([3, 0, 0, 2, 1, 3, 3])
    indptr = np.array([0, 3, 3, 5, 5, 7])     # rows 1 and 3 are empty
    mats = {"unsorted-duplicates-empty": sp.csr_matrix(
        (data, indices, indptr), shape=(5, 5))}
    wide = sp.csr_matrix((data, indices, indptr), shape=(5, 5))
    wide.indices, wide.indptr = indices.astype(np.int64), indptr.astype(np.int64)
    mats["int64-indices"] = wide
    return mats


def test_apply_matches_scipy_on_hand_built_csr():
    for name, mat in _hand_built().items():
        assert not mat.has_sorted_indices, name
        assert not mat.has_canonical_format, name
        op = SparseOperator(mat)
        if name == "int64-indices":
            assert op.mat.indices.dtype == op.mat.indptr.dtype == np.int64
        v = rng.standard_normal(5)
        y = op.apply(v)
        assert np.array_equal(y, mat @ v), name
        assert y[1] == y[3] == 0.0, name
        # duplicates are added, not dropped: the dense product (which
        # sums them first, so in another order) agrees to rounding
        assert np.allclose(y, mat.toarray() @ v, rtol=0, atol=1e-14), name


@pytest.mark.parametrize("shape", [(31,), (33,), (32, 1), (1, 32), ()])
def test_apply_rejects_a_wrong_shape_before_the_kernel(monkeypatch, shape):
    # the kernel checks no bounds: a short v would be read past its end
    calls = []
    monkeypatch.setattr(linop, "csr_matvec",
                        lambda *args: calls.append(args))
    op = build_advdiff(GridSpec(dim=1, n=32), 0.7, 0.2, 2)
    with pytest.raises(DimensionMismatch, match=str(shape)):
        op.apply(np.ones(shape))
    assert calls == []


def test_complex_input_raises_and_never_drops_the_imaginary_part():
    op = build_advdiff(GridSpec(dim=1, n=16), 0.7, 0.2, 2)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # a ComplexWarning would fail too
        with pytest.raises(ValueError):
            op.apply(v)
    # a complex matrix is rejected when the operator is built, and so is
    # a circulant's complex stencil coefficient, before any assembly
    with pytest.raises(ValueError, match="real"):
        SparseOperator(sp.identity(4, dtype=complex, format="csr"))
    with pytest.raises(ValueError, match="real"):
        CirculantOperator({(0,): 2.0, (1,): 1j}, np.ones(4))


def test_integer_matrix_or_vector_gives_a_float_result():
    ints = sp.csr_matrix(np.array([[2, -1, 0], [0, 3, 1], [1, 0, -2]]))
    assert ints.dtype.kind == "i"
    op = SparseOperator(ints)
    assert op.mat.dtype == np.float64
    v = np.array([0.5, -1.25, 2.0])
    assert op.apply(v).dtype == np.float64
    assert np.array_equal(op.apply(v), ints.toarray() @ v)
    k = np.array([1, 2, 3])
    assert op.apply(k).dtype == np.float64
    assert np.array_equal(op.apply(k), ints.toarray() @ k.astype(float))
    # integer stencil coefficients: a float64 matrix, the product of the
    # same integer matrix
    circ = CirculantOperator({(0,): 2, (1,): -1, (3,): 1}, np.ones(3))
    assert circ.mat.dtype == np.float64
    wrapped = SparseOperator(sp.csr_matrix(np.array(
        [[3, -1, 0], [0, 3, -1], [-1, 0, 3]])))
    assert np.array_equal(circ.mat.toarray(), wrapped.mat.toarray())
    assert np.array_equal(circ.apply(k), wrapped.apply(k))


def _awkward_csr():
    """CSR matrices with explicit zeros (one row holds nothing else),
    duplicates that cancel or add, empty rows, unsorted indices, and
    none stored at all."""
    data = np.array([0.0, 1.5, -2.0, 1.5, -1.5, 0.25, 3.0, 0.0, -0.75, 0.75])
    indices = np.array([2, 0, 3, 0, 0, 1, 1, 3, 2, 2])
    indptr = np.array([0, 1, 5, 5, 8, 10, 10])
    return {"zeros-duplicates-empty": sp.csr_matrix(
                (data, indices, indptr), shape=(6, 4)),
            "explicit-zeros-only": sp.csr_matrix(
                (np.zeros(3), np.array([0, 1, 2]), np.array([0, 2, 2, 3])),
                shape=(3, 3)),
            "empty": sp.csr_matrix((4, 4))}


def test_row_sums_and_norms_are_scipys_bit_for_bit():
    # a csr_matvec over |data| and ones adds a row of three or more
    # entries in another order, and differs in the last bits on
    # advdiff1d-o4, advdiff2d and the FEM mass, so the row sums stay
    # scipy's; duplicates are summed in place first, as scipy's abs does
    ops = _shipped_operators()
    ops.update({k: SparseOperator(m) for k, m in _hand_built().items()})
    for name, op in ops.items():
        sums = np.abs(op.mat.copy()).sum(axis=1).A1
        got = _abs_row_sums(op.mat)
        assert got.dtype == sums.dtype and np.array_equal(got, sums), name
        assert op.mat.has_canonical_format, name
        if not isinstance(op, CirculantOperator):   # its norm is the 2-norm
            assert op.norm == float(sums.max()), name
    for name, mat in _awkward_csr().items():
        sums = np.abs(mat.copy()).sum(axis=1).A1
        assert np.array_equal(_abs_row_sums(mat), sums), name
        assert mat.has_canonical_format, name
        if mat.shape[0] == mat.shape[1]:
            assert SparseOperator(mat).norm == float(sums.max(initial=0.0))
    M = ops["fem-mass"]
    gap = np.min(2.0 * M.mat.diagonal() - np.abs(M.mat).sum(axis=1).A1)
    assert M.inv_norm == 1.0 / float(gap)


# ----------------------------------------------------------------------
# Periodic masses: symbol, FFT solve, inverse norm

def test_stencil_mass_solves_by_fft_and_factors_nothing(monkeypatch):
    # the FEM mass keeps its symbol, the eigenvalues of its matrix, and
    # solves by one real FFT round trip: no LU at construction or solve
    monkeypatch.setattr(linop, "_sparse_lu", None)
    for n in (4, 15, 64):
        grid = GridSpec(dim=1, n=n)
        M = build_fem_mass_1d(grid)
        assert M.symbol.shape == (n,)
        theta = 2.0 * np.pi * np.arange(n) / n
        want = grid.h / 6.0 * (4.0 + 2.0 * np.cos(theta))
        assert np.allclose(M.symbol, want, rtol=1e-14, atol=0.0)
        v = rng.standard_normal(n)
        ref = np.linalg.solve(M.mat.toarray(), v)
        assert np.linalg.norm(M.solve(v) - ref) <= 1e-13 * np.linalg.norm(ref)
    # a 2-D stencil's symbol is its matrix's spectrum too
    M = SparseMass.from_stencil({(0, 0): 5.0, (1, -1): 1.0, (-1, 1): 1.0},
                                (4, 5))
    assert np.allclose(np.sort(M.symbol.real.ravel()),
                       np.linalg.eigvalsh(M.mat.toarray()), atol=1e-13)


def test_singular_stencil_mass_is_a_factorization_failure():
    # a zero mode, as an LU's zero pivot
    with pytest.raises(FactorizationFailure):
        SparseMass.from_stencil({(-1,): 1.0, (0,): 2.0, (1,): 1.0}, (8,))


def test_stencil_mass_inverse_norm_comes_from_its_symbol(monkeypatch):
    # Gershgorin's gap 2 - 2.4 is negative for 1 + 0.3 (S + S^-1 + S^2
    # + S^-2), an SPD mass: the bound is 1 / min |m_k|, exact, with no
    # eigensolve (the P1 mass keeps its Gershgorin value, 3/h:
    # test_operator_norms)
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    monkeypatch.setattr(linop, "_lanczos_max", None)
    stencil = {(0,): 1.0, (1,): 0.3, (-1,): 0.3, (2,): 0.3, (-2,): 0.3}
    M = SparseMass.from_stencil(stencil, (16,))
    assert M.inv_norm == 1.0 / float(np.abs(M.symbol).min())
    monkeypatch.undo()
    want = 1.0 / np.linalg.eigvalsh(M.mat.toarray())[0]
    assert M.inv_norm == pytest.approx(want, rel=1e-12)
    assert SparseMass(M.mat).inv_norm == pytest.approx(want, rel=1e-12)


def test_lanczos_tolerance_per_use(monkeypatch):
    # the W(L) certificate asks ARPACK for 1e-12; ||M^{-1}|| of a mass
    # beyond DENSE_LIMIT, which only scales a residual floor, for 1e-3,
    # and is raised by that much so that it stays an upper bound
    tols = []
    lanczos = linop._lanczos_max

    def recording(A, n, tol):
        tols.append(tol)
        return lanczos(A, n, tol)
    monkeypatch.setattr(linop, "_lanczos_max", recording)
    n = DENSE_LIMIT + 8
    fov_upper_bound(SparseOperator(-sp.identity(n, format="csr")
                                   + 0.5 * sp.eye(n, k=1)))
    # 1 + 0.3 (S + S^-1 + S^2 + S^-2), not diagonally dominant, SPD
    mat = sp.diags([1.0, 0.3, 0.3, 0.3, 0.3], [0, 1, -1, 2, -2],
                   shape=(n, n), format="csr")
    M = SparseMass(mat)
    want = 1.0 / np.linalg.eigvalsh(mat.toarray())[0]
    assert want <= M.inv_norm <= want * (1.0 + 1e-3)
    assert tols == [1e-12, 1e-3]


@pytest.mark.parametrize("n", [255, 256, 1000, 1024])
def test_one_axis_transforms_are_rfftn_bit_for_bit(n):
    # a 1-D grid transforms by rfft / irfft, with rfftn's bits
    v = rng.standard_normal(n)
    vh = linop._rfft(v, (n,))
    assert np.array_equal(vh, np.fft.rfftn(v))
    wh = vh * (0.3 + 1.7j)
    assert np.array_equal(linop._irfft(wh, (n,)),
                          np.fft.irfftn(wh, s=(n,), axes=(0,)))


def test_exact_fft_squares_with_the_mass():
    # P M P with the FEM mass is the multiplier m inv^2: two solves
    # around a mass apply, and its GMRES image is the pair operator's
    eta, beta, dt = 3.0, np.sqrt(3.0), 2.0 / 64
    gamma = np.hypot(eta, beta)
    delta = gamma - eta
    prob = build_fem_diffusion_1d(GridSpec(dim=1, n=64))
    M, L = prob.M, prob.L
    P = ExactFFT(shifted_operator(gamma, dt, M, L))
    v = rng.standard_normal(64)
    ref = P.apply(M.apply(P.apply(v)))
    pair = _QuadraticSystem(shifted_operator(eta, dt, M, L), M, beta)
    sq = P.square(pair, delta, delta ** 2 + beta ** 2, M)
    assert np.linalg.norm(sq.apply(v) - ref) <= 1e-13 * np.linalg.norm(ref)
    vh = sq.forward(v)
    d, w = sq.apply_with_image(vh, np.empty_like(vh))
    z = sq.combine([d], np.ones(1))
    assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(w - sq.forward(pair.apply(z))) \
        <= 1e-12 * np.linalg.norm(w)
