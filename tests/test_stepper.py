import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from irksolve.conditioning import random_stable_matrix
from irksolve.krylov import KrylovConfig
from irksolve.linop import (ExactFFT, IdentityMass, SparseOperator,
                            ZeroOperator, build_inner_preconditioner,
                            shifted_operator)
from irksolve.spatial import (GridSpec, build_advdiff,
                              build_fem_diffusion_1d, build_fem_mass_1d)
from irksolve.spectral import spectral_decompose
from irksolve.stepper import (BlockStepper, FactorSolveFailure, IRKStepper,
                              LinearProblem, SDIRKStepper,
                              _SandwichPreconditioner, advance_oracle)
from irksolve.tableaux import SUPPORTED_TABLEAUX, build_tableau

rng = np.random.default_rng(2024)
TIGHT = KrylovConfig(method="auto", rel_tol=1e-13, max_iters=4000)


def random_problem(n, seed, scale=2.0, forcing=True):
    r = np.random.default_rng(seed)
    L = SparseOperator(sp.csr_matrix(random_stable_matrix(n, r, scale=scale)))
    if forcing:
        v0 = r.standard_normal(n)
        v1 = r.standard_normal(n)

        def f(t):
            return np.cos(1.3 * t) * v0 + np.sin(0.7 * t) * v1
    else:
        f = None
    return LinearProblem(IdentityMass(n), L, forcing=f)


def stability_function(tableau, z):
    s = tableau.s
    return 1.0 + z * tableau.b0 @ np.linalg.solve(
        np.eye(s) - z * tableau.A0, np.ones(s))


def test_zero_rhs_zero_operator():
    n = 6
    prob = LinearProblem(IdentityMass(n), ZeroOperator(n))
    st = IRKStepper(build_tableau("gauss", 2), prob, dt=0.5, outer_cfg=TIGHT)
    u = rng.standard_normal(n)
    z = st.assemble_rhs_z(np.zeros(n), 0.0)
    assert np.all(z == 0)
    u1, _ = st.advance(u, 0.0)
    assert np.allclose(u1, u, atol=1e-14)


def test_backward_euler_rhs_assembly():
    n = 5
    prob = random_problem(n, seed=1)
    st = IRKStepper(build_tableau("backwardEuler", 1), prob, dt=0.3,
                    outer_cfg=TIGHT)
    u = rng.standard_normal(n)
    z = st.assemble_rhs_z(u, 0.4)
    ref = prob.forcing(0.4 + 0.3) + prob.L.apply(u)
    assert np.linalg.norm(z - ref) < 1e-13 * np.linalg.norm(ref)


def _stage_forcing(n, r):
    """A forcing with an independent random vector per stage time."""
    fvals = {}

    def forcing(time):
        key = round(time, 12)
        if key not in fvals:
            fvals[key] = r.standard_normal(n)
        return fvals[key]

    return forcing


def _rhs_oracle_error(fam, s, mass):
    """Relative error of assemble_rhs_z against the dense oracle on a
    random 8x8 L with stage-dependent forcing."""
    n = 8
    t = build_tableau(fam, s)
    r = np.random.default_rng(3)
    Lm = random_stable_matrix(n, r, scale=1.5)
    M = build_fem_mass_1d(GridSpec(dim=1, n=n)) if mass == "fem" \
        else IdentityMass(n)
    forcing = _stage_forcing(n, r)
    prob = LinearProblem(M, SparseOperator(sp.csr_matrix(Lm)),
                         forcing=forcing)
    dt = 0.37
    u = r.standard_normal(n)
    st = IRKStepper(t, prob, dt, outer_cfg=TIGHT)
    z = st.assemble_rhs_z(u, 0.0)

    # dense oracle: (b^T A0^{-1} x I) adj(M_s) (I x M^{-1}) f, the
    # adjugate being det(M_s) M_s^{-1} with the ring determinant
    # P_s(Lhat) assembled from the eigenvalue factors
    Md = M.to_dense()
    B = np.linalg.inv(t.A0)
    Lhat = dt * np.linalg.solve(Md, Lm)
    Ms = np.kron(B, np.eye(n)) - np.kron(np.eye(s), Lhat)
    D = np.eye(n, dtype=complex)
    for lam in np.linalg.eigvals(B):
        D = D @ (lam * np.eye(n) - Lhat)
    D = D.real
    Lu = Lm @ u
    g = np.concatenate([np.linalg.solve(Md, forcing(dt * c) + Lu)
                        for c in t.c0])
    z_oracle = (np.kron(t.b0 @ B, np.eye(n)) @ np.kron(np.eye(s), D)
                @ np.linalg.solve(Ms, g))
    return np.linalg.norm(z - z_oracle) / np.linalg.norm(z_oracle)


def test_rhs_assembly_matches_kronecker_oracle():
    # every tableau, identity and FEM mass
    errors = {(fam, s, mass): _rhs_oracle_error(fam, s, mass)
              for fam, s in SUPPORTED_TABLEAUX
              for mass in ("identity", "fem")}
    assert max(errors.values()) < 1e-10, errors


@pytest.mark.parametrize("mass", ["identity", "fem"])
@pytest.mark.parametrize("fam,s", [("gauss", 1), ("gauss", 3),
                                   ("radauIIA", 5), ("lobattoIIIC", 4)])
def test_rhs_assembly_costs_s_mass_solves_and_s_L_applies(fam, s, mass):
    n = 12
    r = np.random.default_rng(5)
    M = build_fem_mass_1d(GridSpec(dim=1, n=n)) if mass == "fem" \
        else IdentityMass(n)
    L = SparseOperator(sp.csr_matrix(random_stable_matrix(n, r)))
    prob = LinearProblem(M, L, forcing=_stage_forcing(n, r))
    st = IRKStepper(build_tableau(fam, s), prob, 0.2, outer_cfg=TIGHT)
    calls = {"solve": 0, "apply": 0}

    def counting(obj, name):
        fn = getattr(obj, name)

        def counted(v):
            calls[name] += 1
            return fn(v)
        setattr(obj, name, counted)

    counting(M, "solve")
    counting(L, "apply")
    st.assemble_rhs_z(r.standard_normal(n), 0.1)
    assert calls == {"solve": s, "apply": s}


def test_pair_preconditioner_squares_the_fft_solve():
    # P I P in one FFT round trip equals two solves, and counts as two
    grid = GridSpec(dim=2, n=24)
    M = IdentityMass(grid.size)
    L = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4)
    P = build_inner_preconditioner("exact", shifted_operator(2.3, 0.1, M, L))
    assert isinstance(P, ExactFFT)
    pair = _SandwichPreconditioner(P, M)
    v = np.random.default_rng(11).standard_normal(grid.size)
    twice = P.apply(P.apply(v))
    before = pair.applications
    fused = pair.apply(v)
    assert pair.applications - before == 2
    assert np.linalg.norm(fused - twice) <= 1e-13 * np.linalg.norm(twice)


def test_fft_apply_gives_both_powers_from_one_forward_transform(monkeypatch):
    grid = GridSpec(dim=2, n=12)
    M = IdentityMass(grid.size)
    L = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4)
    P = build_inner_preconditioner("exact", shifted_operator(1.7, 0.2, M, L))
    v = np.random.default_rng(12).standard_normal(grid.size)
    once, twice = P.apply(v), P.apply(v, power=2)
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    before = P.applications
    Pv, PPv = P.apply(v, power=(1, 2))
    assert P.applications - before == 2
    assert calls == {"rfftn": 1, "irfftn": 2}
    assert np.array_equal(Pv, once) and np.array_equal(PPv, twice)


def _image_setup(label):
    """(problem, grid) for an exact inner solve: the sparse LU in 1D with
    identity or FEM mass, the FFT in 2D."""
    if label == "fft-identity":
        g = GridSpec(dim=2, n=16)
        L = build_advdiff(g, (0.85, 1.0), (0.3, 0.25), 4)
        return LinearProblem(IdentityMass(g.size), L), g
    g = GridSpec(dim=1, n=48)
    M = build_fem_mass_1d(g) if label == "lu-fem" else IdentityMass(g.size)
    return LinearProblem(M, build_advdiff(g, 1.0, 0.02, 4)), g


def _count_op_applies(ops):
    calls = {}
    for op in set(ops):
        calls[op] = 0

        def counted(x, _op=op, _fn=op.apply):
            calls[_op] += 1
            return _fn(x)
        op.apply = counted
    return calls


@pytest.mark.parametrize("label", ["lu-identity", "lu-fem", "fft-identity"])
def test_exact_inner_image_matches_operator_apply(label):
    # M Q_eta (P M P v) = v - 2 delta M P v + (delta^2 + beta^2) M P M P v
    # for a pair and A_eta P v = v for a real factor, with no operator
    # apply; the bound is fixed by the mass: rounding in M and M^{-1}
    prob, grid = _image_setup(label)
    bound = 1e-9 if label == "lu-fem" else 1e-12
    v = np.random.default_rng(31).standard_normal(prob.n)
    errors = {}
    for fam, s in SUPPORTED_TABLEAUX:
        tab = build_tableau(fam, s)
        for mode in ("gamma_star", "eta"):
            for ratio in (2, 32):
                st = IRKStepper(tab, prob, ratio * grid.h, gamma_mode=mode)
                for idx, (_f, _g, op, pc) in enumerate(st._solvers):
                    calls = _count_op_applies([op])
                    z, w = pc.apply_with_image(v, op)
                    assert calls[op] == 0, (fam, s, mode, ratio, idx)
                    ref = op.apply(z)
                    errors[fam, s, mode, ratio, idx] = \
                        np.linalg.norm(w - ref) / np.linalg.norm(ref)
    assert max(errors.values()) <= bound, max(errors.items(),
                                              key=lambda kv: kv[1])


@pytest.mark.parametrize("label", ["lu-identity", "lu-fem", "fft-identity"])
def test_exact_inner_solve_applies_its_operator_once(label):
    # the true residual at exit is the only operator apply.  A gs:2 inner
    # solve still applies the operator once per iteration and at exit;
    # on a real factor or an SDIRK stage the GS sweeps are built on that
    # same operator, and the second sweep applies it once more
    prob, grid = _image_setup(label)
    u = np.random.default_rng(32).standard_normal(prob.n)
    gmres = KrylovConfig(method="gmres", rel_tol=1e-10)
    for inner, params in (("exact", {}), ("gauss_seidel", {"sweeps": 2})):
        per_iter = {"pair": 0, "real": 0} if inner == "exact" \
            else {"pair": 1, "real": 2}
        for tab in (build_tableau("gauss", 2), build_tableau("radauIIA", 3),
                    build_tableau("lobattoIIIC", 5)):
            st = IRKStepper(tab, prob, 2 * grid.h, outer_cfg=gmres,
                            inner_kind=inner, inner_params=params)
            calls = _count_op_applies([op for _f, _g, op, _pc in st._solvers])
            _u, reps = st.advance(u, 0.0)
            for (f, _g, op, _pc), rep in zip(st._solvers, reps):
                assert rep.converged and rep.iterations < gmres.restart
                k = per_iter["real" if f.is_real else "pair"]
                assert calls[op] == 1 + k * rep.iterations, (tab.family, f)
        sd = SDIRKStepper(build_tableau("sdirk3l", 3), prob, 2 * grid.h,
                          outer_cfg=gmres, inner_kind=inner,
                          inner_params=params)
        calls = _count_op_applies([op for op, _pc in sd._stages])
        _u, reps = sd.advance(u, 0.0)
        assert all(r.converged and r.iterations < gmres.restart for r in reps)
        assert sum(calls.values()) == sum(1 + per_iter["real"] * r.iterations
                                          for r in reps)


def test_mismatched_inner_solve_applies_the_operator():
    # an exact inner solve built for another operator than the factor's
    # gives no identity, and the image comes from op.apply: on a real
    # factor any other operator, on a pair another dt or another L.  For
    # a pair, another gamma is no mismatch: the identity holds for every
    # exact (gamma M - dt L)^{-1}, with delta = gamma - eta read from the
    # two operators, so it is still taken and still exact
    prob, grid = _image_setup("fft-identity")
    M, L, dt = prob.M, prob.L, 2 * grid.h
    st = IRKStepper(build_tableau("radauIIA", 3), prob, dt)
    (pair, _g, op, _pc), (_real, _g2, op_real, _pc2) = st._solvers
    v = np.random.default_rng(33).standard_normal(prob.n)
    gamma = pair.gamma_star
    shifted = shifted_operator(gamma + 0.5, dt, M, L)
    other_dt = shifted_operator(gamma, 1.5 * dt, M, L)
    other_L = shifted_operator(gamma, dt, M, SparseOperator(0.5 * L.mat))
    cases = [(op_real, build_inner_preconditioner("exact", A), 1)
             for A in (shifted, other_dt, other_L)]
    cases += [(op, _SandwichPreconditioner(
        build_inner_preconditioner("exact", A), M), int(A is not shifted))
        for A in (shifted, other_dt, other_L)]
    for target, pc, applies in cases:
        calls = _count_op_applies([target])
        z, w = pc.apply_with_image(v, target)
        assert calls[target] == applies
        ref = target.apply(z)
        assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)
        if applies:
            assert np.array_equal(w, ref)


def test_solve_factors_zero_operator_scaling():
    # L = 0: y = z / P_s(0) = z / det(A0^{-1})
    n = 4
    prob = LinearProblem(IdentityMass(n), ZeroOperator(n))
    for fam, s in [("gauss", 2), ("radauIIA", 3)]:
        t = build_tableau(fam, s)
        st = IRKStepper(t, prob, dt=0.2, outer_cfg=TIGHT)
        z = rng.standard_normal(n)
        y, _ = st.solve_factors(z)
        det = np.linalg.det(np.linalg.inv(t.A0))
        assert np.linalg.norm(y - z / det) < 1e-11 * np.linalg.norm(z / det)


def test_dahlquist_matches_stability_function():
    lam, dt = -1.0, 0.1
    t = build_tableau("gauss", 2)
    prob = LinearProblem(IdentityMass(1),
                         SparseOperator(sp.csr_matrix([[lam]])))
    st = IRKStepper(t, prob, dt, outer_cfg=TIGHT)
    u1, _ = st.advance(np.array([1.0]), 0.0)
    R = stability_function(t, lam * dt)
    assert u1[0] == pytest.approx(R, rel=1e-12)
    # and the oracle agrees with the closed form too
    uo = advance_oracle(t, prob, np.array([1.0]), 0.0, dt)
    assert uo[0] == pytest.approx(R, rel=1e-12)


def test_oracle_backward_euler_closed_form():
    prob = LinearProblem(IdentityMass(1),
                         SparseOperator(sp.csr_matrix([[-1.0]])))
    t = build_tableau("backwardEuler", 1)
    u = advance_oracle(t, prob, np.array([1.0]), 0.0, 0.25)
    assert u[0] == pytest.approx(1.0 / 1.25, rel=1e-14)


def test_oracle_gauss2_a_stability_stiff():
    lam = -1.0e6
    prob = LinearProblem(IdentityMass(1),
                         SparseOperator(sp.csr_matrix([[lam]])))
    t = build_tableau("gauss", 2)
    u = advance_oracle(t, prob, np.array([1.0]), 0.0, 1.0)
    assert abs(u[0]) < 1.0
    assert u[0] == pytest.approx(stability_function(t, lam), rel=1e-9)


def test_polynomial_forcing_exact_integration():
    # u' = f(t) with cubic f: one Gauss-2 step is exact (2s-1 = 3)
    n = 1
    coeffs = np.array([0.3, -1.2, 0.5, 2.0])  # ascending

    def f(t):
        return np.array([np.polyval(coeffs[::-1], t)])

    prob = LinearProblem(IdentityMass(n), ZeroOperator(n), forcing=f)
    t = build_tableau("gauss", 2)
    dt, t0 = 0.7, 0.3
    st = IRKStepper(t, prob, dt, outer_cfg=TIGHT)
    u1, _ = st.advance(np.array([0.1]), t0)
    anti = np.concatenate([[0.0], coeffs / np.arange(1, 5)])
    exact = 0.1 + np.polyval(anti[::-1], t0 + dt) - np.polyval(anti[::-1], t0)
    assert u1[0] == pytest.approx(exact, abs=1e-12)


def test_rotation_block_quadratic_solve():
    # L = dt-scaled rotation: solving Q_eta equals the exact rational
    # inverse evaluated at the eigenvalues +-i*omega
    om, dt = 1.9, 0.8
    Lm = np.array([[0.0, om], [-om, 0.0]])
    prob = LinearProblem(IdentityMass(2), SparseOperator(sp.csr_matrix(Lm)))
    t = build_tableau("gauss", 2)
    st = IRKStepper(t, prob, dt, outer_cfg=TIGHT)
    sd = spectral_decompose(t)
    eta, beta = sd.pairs[0].eta, sd.pairs[0].beta
    z = rng.standard_normal(2)
    y, _ = st.solve_factors(z)
    xi = om * dt  # Lhat has eigenvalues +- i xi
    q = (eta - 1j * xi) ** 2 + beta ** 2   # scalar symbol at eigenvalue i*xi
    # closed form: Q^{-1} = Re/Im structure of 1/q acting on the block
    Lhat = dt * Lm
    Q = ((eta * np.eye(2) - Lhat) @ (eta * np.eye(2) - Lhat)
         + beta ** 2 * np.eye(2))
    ref = np.linalg.solve(Q, z)
    assert np.linalg.norm(y - ref) < 1e-11 * np.linalg.norm(ref)
    # eigen-symbol cross-check: |eigs of Q| equal |q|
    assert np.sort(np.abs(np.linalg.eigvals(Q))) == pytest.approx(
        [abs(q), abs(q)], rel=1e-12)


@pytest.mark.parametrize("fam,s", [("Gauss", 1), ("Gauss", 3), ("Gauss", 5),
                                   ("RadauIIA", 2), ("RadauIIA", 5),
                                   ("LobattoIIIC", 3), ("LobattoIIIC", 4),
                                   ("SDIRK2L", 2), ("SDIRK3L", 3),
                                   ("BackwardEuler", 1)])
def test_oracle_equivalence_identity_mass(fam, s):
    n = 16
    prob = random_problem(n, seed=100 + s)
    tab = build_tableau(fam, s)
    st = IRKStepper(tab, prob, dt=0.21, outer_cfg=TIGHT)
    u = np.random.default_rng(s).standard_normal(n)
    uo = u.copy()
    tn = 0.0
    for _ in range(5):
        u, _ = st.advance(u, tn)
        uo = advance_oracle(tab, prob, uo, tn, 0.21)
        tn += 0.21
    assert np.linalg.norm(u - uo) < 1e-9 * np.linalg.norm(uo)


def test_oracle_equivalence_fem_mass():
    n = 24
    grid = GridSpec(dim=1, n=n)
    M = build_fem_mass_1d(grid)
    r = np.random.default_rng(9)
    L = SparseOperator(sp.csr_matrix(random_stable_matrix(n, r, scale=1.0)))
    v0 = r.standard_normal(n)
    prob = LinearProblem(M, L, forcing=lambda t: np.sin(t) * v0)
    for fam, s in [("Gauss", 2), ("RadauIIA", 3), ("LobattoIIIC", 2)]:
        tab = build_tableau(fam, s)
        st = IRKStepper(tab, prob, dt=0.15, outer_cfg=TIGHT)
        u = r.standard_normal(n)
        uo = u.copy()
        tn = 0.0
        for _ in range(5):
            u, _ = st.advance(u, tn)
            uo = advance_oracle(tab, prob, uo, tn, 0.15)
            tn += 0.15
        assert np.linalg.norm(u - uo) < 1e-9 * np.linalg.norm(uo), (fam, s)


def test_linearity_in_initial_data():
    n = 10
    prob = random_problem(n, seed=4, forcing=False)
    st = IRKStepper(build_tableau("radauIIA", 3), prob, dt=0.11,
                    outer_cfg=TIGHT)
    u = rng.standard_normal(n)
    a = -2.35
    u1, _ = st.advance(u, 0.0)
    u1s, _ = st.advance(a * u, 0.0)
    assert np.linalg.norm(u1s - a * u1) < 1e-12 * np.linalg.norm(a * u1)


def test_gamma_mode_switches_preconditioner_shift():
    n = 8
    prob = random_problem(n, seed=6, forcing=False)
    t = build_tableau("gauss", 2)
    sd = spectral_decompose(t)
    st_g = IRKStepper(t, prob, dt=0.1, gamma_mode="gamma_star")
    st_e = IRKStepper(t, prob, dt=0.1, gamma_mode="eta")
    (_i, _e, _b, gamma_g), = st_g.factor_summary()
    (_i, _e, _b, gamma_e), = st_e.factor_summary()
    assert gamma_g == pytest.approx(sd.pairs[0].gamma_star, rel=1e-14)
    assert gamma_e == pytest.approx(sd.pairs[0].eta, rel=1e-14)


def test_no_stage_storage():
    # stepper retains no (s, N)-sized state and the advance working set
    # does not grow with s beyond the fixed Horner workspace
    n = 200_000
    ones = np.ones(n)
    prob = LinearProblem(IdentityMass(n), ZeroOperator(n),
                         forcing=lambda t: ones)
    u = np.zeros(n)

    peaks = {}
    for s in (2, 5):
        st = IRKStepper(build_tableau("gauss", s), prob, dt=0.1,
                        outer_cfg=KrylovConfig(method="gmres", rel_tol=1e-10,
                                               restart=5))
        tracemalloc.start()
        st.advance(u, 0.0)
        _cur, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[s] = peak
        for attr in vars(st).values():
            assert not (isinstance(attr, np.ndarray) and attr.size >= st.tableau.s * n)
    # allow a few extra N-vectors of slack, nothing like (s2-s1)*N growth
    assert peaks[5] - peaks[2] < 6 * n * 8


def test_dt_must_be_positive():
    prob = random_problem(4, seed=8)
    with pytest.raises(ValueError):
        IRKStepper(build_tableau("gauss", 2), prob, dt=0.0)


def test_sdirk_advance_matches_oracle():
    n = 12
    prob = random_problem(n, seed=12)
    u = rng.standard_normal(n)
    for fam, s in [("BackwardEuler", 1), ("SDIRK2L", 2), ("SDIRK3L", 3)]:
        tab = build_tableau(fam, s)
        ua, _ = SDIRKStepper(tab, prob, 0.2, outer_cfg=TIGHT).advance(u, 0.0)
        uo = advance_oracle(tab, prob, u, 0.0, 0.2)
        assert np.linalg.norm(ua - uo) < 1e-11 * np.linalg.norm(uo), fam


def test_sdirk_advance_rejects_full_tableau():
    prob = random_problem(4, seed=13)
    with pytest.raises(ValueError):
        SDIRKStepper(build_tableau("gauss", 2), prob, 0.1).advance(
            np.zeros(4), 0.0)


def test_block_prec_advance_matches_oracle():
    n = 16
    prob = random_problem(n, seed=14)
    u = rng.standard_normal(n)
    tab = build_tableau("gauss", 2)
    uo = advance_oracle(tab, prob, u, 0.0, 0.18)
    for variant in ("GSL", "LD"):
        ub, reps = BlockStepper(tab, prob, 0.18, variant=variant,
                                outer_cfg=TIGHT).advance(u, 0.0)
        assert np.linalg.norm(ub - uo) < 1e-10 * np.linalg.norm(uo)
        assert reps[0].iterations > 0
        assert reps[0].preconditioner_applications > 0


def test_block_prec_s1_equals_backward_euler():
    n = 8
    prob = random_problem(n, seed=15)
    u = rng.standard_normal(n)
    tab = build_tableau("backwardEuler", 1)
    ub, _ = BlockStepper(tab, prob, 0.3, outer_cfg=TIGHT).advance(u, 0.0)
    uo = advance_oracle(tab, prob, u, 0.0, 0.3)
    assert np.linalg.norm(ub - uo) < 1e-11 * np.linalg.norm(uo)


def test_factor_solve_failure_carries_report():
    n = 32
    prob = random_problem(n, seed=16, scale=40.0, forcing=False)
    # non-dominant operator + relaxation: warned about, not rejected
    with pytest.warns(UserWarning, match="diagonally dominant"):
        st = IRKStepper(build_tableau("gauss", 2), prob, dt=1.0,
                        outer_cfg=KrylovConfig(method="gmres", rel_tol=1e-13,
                                               max_iters=2),
                        inner_kind="jacobi", inner_params={"sweeps": 1})
    with pytest.raises(FactorSolveFailure) as exc:
        st.advance(rng.standard_normal(n), 0.0)
    assert exc.value.factor_index == 0
    assert exc.value.report.iterations == 2


def test_baseline_steppers_match_oracle_over_steps_at_each_dt():
    # each stepper factors once for its own dt and reuses that every step
    n = 12
    prob = random_problem(n, seed=17)
    u0 = rng.standard_normal(n)
    sdirk, gauss = build_tableau("SDIRK2L", 2), build_tableau("gauss", 2)
    for dt in (0.1, 0.2):
        steppers = [SDIRKStepper(sdirk, prob, dt, outer_cfg=TIGHT)]
        steppers += [BlockStepper(gauss, prob, dt, outer_cfg=TIGHT, variant=v)
                     for v in ("GSL", "LD")]
        for st in steppers:
            u, uo, tn = u0.copy(), u0.copy(), 0.0
            for _ in range(3):
                u, _ = st.advance(u, tn)
                uo = advance_oracle(st.tableau, prob, uo, tn, dt)
                tn += dt
            assert np.linalg.norm(u - uo) < 1e-10 * np.linalg.norm(uo)


def test_fem_gauss3_completes_where_cg_broke_down():
    # Gauss-3 on 1D FEM diffusion at n=256 used to stop part-way: once
    # |u| decays, an absolute CG breakdown threshold fires, and on this
    # phase the recurrence residual met the target while the true
    # residual did not
    grid = GridSpec(dim=1, n=256)
    prob = build_fem_diffusion_1d(grid)
    dt = 2 * grid.h
    st = IRKStepper(build_tableau("gauss", 3), prob, dt,
                    outer_cfg=KrylovConfig(method="auto", rel_tol=1e-10),
                    inner_kind="exact")
    assert st.outer_cfg.method == "cg"
    phi = np.random.default_rng(17).uniform(0.0, 2.0 * np.pi)
    x = grid.points_1d()
    u = np.sin(np.pi * x + phi)
    tn = 0.0
    for _ in range(128):
        u, _ = st.advance(u, tn)
        tn += dt
    # the pi-mode decays at the discrete rate lambda_K / lambda_M
    c = np.cos(np.pi * grid.h)
    mu = (2.0 - 2.0 * c) / grid.h / ((grid.h / 6.0) * (4.0 + 2.0 * c))
    exact = np.exp(-mu * tn) * np.sin(np.pi * x + phi)
    assert np.max(np.abs(u - exact)) <= 1e-6 * np.max(np.abs(exact))
