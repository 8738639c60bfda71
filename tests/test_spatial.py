import numpy as np
import pytest
import scipy.sparse as sp

from irksolve.linop import fov_upper_bound
from irksolve.spatial import (DIFF_X, DIFF_Y, GridSpec, UnsupportedOrder,
                              build_advdiff, build_fd_mms,
                              build_fem_diffusion_1d, build_fem_mass_1d,
                              build_upwind_advection, d1_matrix, d2_matrix,
                              mms_solution, mms_source)

rng = np.random.default_rng(31)


def test_second_order_d2_stencil_rows():
    n, h = 8, 0.25
    D2 = d2_matrix(n, h, 2).toarray()
    row = D2[3]
    assert row[2] == pytest.approx(1.0 / h ** 2)
    assert row[3] == pytest.approx(-2.0 / h ** 2)
    assert row[4] == pytest.approx(1.0 / h ** 2)
    assert D2[0, n - 1] == pytest.approx(1.0 / h ** 2)  # periodic wrap


def test_fourth_order_d2_stencil_taylor_oracle():
    # Taylor oracle: sum c_o o^k = 0 for k in {0,1,3}, = 2 for k = 2, and
    # the h^4 accuracy condition sum c_o o^4 = 0
    n, h = 12, 1.0
    row = d2_matrix(n, h, 4).toarray()[5]
    offsets = np.arange(n) - 5
    offsets = np.where(offsets > n // 2, offsets - n, offsets)
    for k, want in [(0, 0.0), (1, 0.0), (2, 2.0), (3, 0.0), (4, 0.0)]:
        assert np.dot(row, offsets.astype(float) ** k) == pytest.approx(
            want, abs=1e-12), k
    expected = np.array([-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])
    got = [row[(5 + o) % n] for o in (-2, -1, 0, 1, 2)]
    assert got == pytest.approx(expected, abs=1e-14)


def test_fourth_order_d1_is_skew():
    D1 = d1_matrix(16, 0.125, 4)
    assert abs(D1 + D1.T).max() < 1e-14


def test_eigenvalues_match_fourier_symbol():
    n = 32
    grid = GridSpec(dim=1, n=n)
    for order in (2, 4):
        L = build_advdiff(grid, 0.85, 0.3, order)
        sym = L.symbol
        ev = np.linalg.eigvals(L.to_dense())
        # multiset match (conjugate pairs may sort differently)
        dists = np.abs(ev[:, None] - sym[None, :])
        assert np.max(dists.min(axis=1)) < 1e-9
        assert np.max(dists.min(axis=0)) < 1e-9


def test_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        build_advdiff(GridSpec(dim=1, n=8), 1.0, 1.0, 6)


def test_upwind_stencil_and_sign():
    grid = GridSpec(dim=1, n=8)
    h = grid.h
    L = build_upwind_advection(grid, 1.0).to_dense()
    # L u ~ -a u_x: row i has +a/h at i-1 and -a/h at i
    assert L[3, 2] == pytest.approx(1.0 / h)
    assert L[3, 3] == pytest.approx(-1.0 / h)
    # smooth profile advects with the right sign
    x = grid.points_1d()
    u = np.sin(np.pi * x)
    assert np.allclose(L @ u, -np.pi * np.cos(np.pi * x), atol=np.pi ** 2 * h)


def test_upwind_symmetric_part_nonpositive():
    grid = GridSpec(dim=1, n=64)
    L = build_upwind_advection(grid, 1.0)
    S = 0.5 * (L.to_dense() + L.to_dense().T)
    assert np.linalg.eigvalsh(S)[-1] <= 1e-12


def test_upwind_spectrum_imaginary_dominant():
    # the regime where the optimal shift matters: a large share of the
    # spectrum hugs the imaginary axis (|Im| > |Re|), reaching close to
    # the full a/h imaginary extent.  (The ratio of global maxima is
    # exactly 0.5 for this stencil: |Im| peaks at theta = pi/2 but |Re|
    # peaks at the fully damped theta = pi mode.)
    for n in (32, 64):
        grid = GridSpec(dim=1, n=n)
        ev = np.linalg.eigvals(build_upwind_advection(grid, 1.0).to_dense())
        dom = np.abs(ev.imag) > np.abs(ev.real) + 1e-12
        assert dom.sum() >= n // 3
        assert np.abs(ev.imag[dom]).max() > 0.9 / grid.h
        assert np.max(np.abs(ev.imag)) / np.max(np.abs(ev.real)) == \
            pytest.approx(0.5, abs=1e-6)


def test_mms_initial_condition_matches_formula():
    grid = GridSpec(dim=2, n=16)
    prob = build_fd_mms(grid, 4)
    X, Y = grid.meshgrid()
    ref = (np.sin(np.pi / 2 * (X - 1)) ** 4
           * np.sin(np.pi / 2 * (Y - 1)) ** 4).reshape(-1)
    assert np.allclose(prob.exact_solution(0.0), ref, atol=1e-14)


def test_mms_decay_factor_at_t2():
    # amplitude decays by exp(-(0.3 + 0.25) t): recompute the profile
    # independently at t = 2 and divide out
    grid = GridSpec(dim=2, n=16)
    prob = build_fd_mms(grid, 4)
    X, Y = grid.meshgrid()
    t = 2.0
    profile = (np.sin(np.pi / 2 * (X - 1 - 0.85 * t)) ** 4
               * np.sin(np.pi / 2 * (Y - 1 - t)) ** 4).reshape(-1)
    u2 = prob.exact_solution(t)
    mask = profile > 1e-3
    assert np.allclose(u2[mask] / profile[mask], np.exp(-1.1), atol=1e-12)
    assert DIFF_X + DIFF_Y == pytest.approx(0.55)


def test_mms_sparse_meshgrid_is_bit_identical_to_dense():
    # build_fd_mms broadcasts per-axis factors; every value must equal
    # the pointwise formula evaluated on the dense meshgrid, bit for bit
    ts = [0.0, 2.0] + list(np.random.default_rng(3).uniform(0, 2, 6))
    for dim in (1, 2):
        for n in (5, 16, 17, 64):
            grid = GridSpec(dim=dim, n=n)
            prob = build_fd_mms(grid, 4)
            X = grid.meshgrid()
            for t in ts:
                assert np.array_equal(prob.exact_solution(t),
                                      mms_solution(X, t).reshape(-1))
                assert np.array_equal(prob.forcing(t),
                                      mms_source(X, t).reshape(-1))


def test_advdiff_is_the_kronecker_sum_bit_for_bit():
    def same(A, B):
        return (np.array_equal(A.data, B.data)
                and np.array_equal(A.indices, B.indices)
                and np.array_equal(A.indptr, B.indptr))

    for n in (5, 16):
        h = 2.0 / n
        for order in (2, 4):
            def axis(a, d):
                return -a * d1_matrix(n, h, order) + d * d2_matrix(n, h, order)

            L1 = build_advdiff(GridSpec(dim=1, n=n), 0.85, 0.3, order).mat
            assert same(L1, sp.csr_matrix(axis(0.85, 0.3)))
            eye = sp.identity(n, format="csr")
            L2 = build_advdiff(GridSpec(dim=2, n=n), (0.85, 1.0),
                               (0.3, 0.25), order).mat
            assert same(L2, sp.kron(axis(0.85, 0.3), eye, format="csr")
                        + sp.kron(eye, axis(1.0, 0.25), format="csr"))


def test_mms_residual_invariant():
    r = np.random.default_rng(77)
    for dim in (1, 2):
        prob = build_fd_mms(GridSpec(dim=dim, n=16), 4)
        xs = r.uniform(-1, 1, size=20)
        ys = r.uniform(-1, 1, size=20)
        ts = r.uniform(0, 2, size=20)
        res = prob.residual_fn(xs, ys, ts)
        assert np.max(np.abs(res)) < 1e-6


def test_fd_operators_converge_at_nominal_order():
    # apply L_h to samples of a smooth u and compare with the analytic
    # L u; observed order within 0.3 of nominal
    def u(x):
        return np.exp(np.sin(np.pi * x))

    def lu(x, a, d):
        up = np.pi * np.cos(np.pi * x) * u(x)
        upp = (np.pi ** 2 * (-np.sin(np.pi * x))
               + np.pi ** 2 * np.cos(np.pi * x) ** 2) * u(x)
        return -a * up + d * upp

    for order in (2, 4):
        errs = []
        for n in (16, 32, 64, 128):
            grid = GridSpec(dim=1, n=n)
            x = grid.points_1d()
            L = build_advdiff(grid, 0.85, 0.3, order)
            errs.append(np.max(np.abs(L.apply(u(x)) - lu(x, 0.85, 0.3))))
        rates = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
        assert abs(rates[-1] - order) < 0.3, (order, rates)


def test_fem_mass_row_sums_and_spd():
    grid = GridSpec(dim=1, n=32)
    M = build_fem_mass_1d(grid)
    assert np.allclose(M.mat.sum(axis=1), grid.h, atol=1e-15)
    assert np.linalg.eigvalsh(M.to_dense()).min() > 0


def shipped_operators():
    ops = []
    g1 = GridSpec(dim=1, n=48)
    g2 = GridSpec(dim=2, n=12)
    for order in (2, 4):
        ops.append(build_advdiff(g1, 0.85, 0.3, order))
        ops.append(build_advdiff(g2, (0.85, 1.0), (0.3, 0.25), order))
    ops.append(build_upwind_advection(g1, 1.0))
    ops.append(build_upwind_advection(g1, -0.6))
    ops.append(build_fem_diffusion_1d(g1).L)
    return ops


def test_all_shipped_operators_left_half_plane():
    for op in shipped_operators():
        assert fov_upper_bound(op) <= 1e-12


def test_shipped_operators_match_their_symbol():
    # mat @ v against the FFT apply of the symbol
    for L in shipped_operators():
        v = rng.standard_normal(L.n)
        ref = np.fft.ifftn(L.symbol * np.fft.fftn(v.reshape(L.symbol.shape)))
        scale = np.max(np.abs(ref))
        assert np.max(np.abs(ref.imag)) < 1e-12 * scale
        assert np.max(np.abs(L.apply(v) - ref.real.reshape(-1))) < 1e-12 * scale


def test_fem_diffusion_exact_discrete_decay():
    grid = GridSpec(dim=1, n=32)
    prob = build_fem_diffusion_1d(grid, diff=1.0)
    u0 = prob.exact_solution(0.0)
    # M^{-1} L u0 = -mu u0 for the discrete eigenpair (skip sin zeros)
    mask = np.abs(u0) > 1e-8
    ratio = prob.M.solve(prob.L.apply(u0))[mask] / u0[mask]
    assert np.allclose(ratio, ratio[0], atol=1e-9)
    t = 0.37
    decay = prob.exact_solution(t)[5] / u0[5]
    assert decay == pytest.approx(np.exp(ratio[0] * t), rel=1e-9)


def test_grid_invariants():
    g = GridSpec(dim=1, n=10)
    assert g.h * g.n == pytest.approx(2.0)
    with pytest.raises(ValueError):
        GridSpec(dim=3, n=8)
    with pytest.raises(ValueError):
        GridSpec(dim=1, n=2)
