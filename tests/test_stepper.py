import contextlib
import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import irksolve
from irksolve import linop, tableaux
from irksolve.conditioning import random_stable_matrix
from irksolve.experiments import PROBLEMS, ExperimentSpec, build_problem
from irksolve.krylov import (DimensionMismatch, KrylovConfig,
                             Preconditioner, resolve_method, solve)
from irksolve.linop import (ExactFFT,
                            FieldOfValuesViolation, IdentityMass, SparseMass,
                            SparseOperator, _QuadraticSystem,
                            build_inner_preconditioner, pair_system,
                            shifted_operator)
from irksolve.spatial import (GridSpec, build_advdiff, build_fd_mms,
                              build_fem_diffusion_1d, build_fem_mass_1d,
                              build_upwind_advection)
from irksolve.spectral import spectral_decompose
from irksolve.stepper import (BlockStepper, FactorSolveFailure, IRKStepper,
                              LinearProblem, SingularSystem, _advance_fourier,
                              _advance_lu, _StageSystem, advance_oracle)
from irksolve.tableaux import (SUPPORTED_TABLEAUX, ButcherTableau,
                               build_tableau)

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
    prob = LinearProblem(IdentityMass(n),
                         SparseOperator(sp.csr_matrix((n, n))))
    st = IRKStepper(build_tableau("gauss", 2), prob, dt=0.5, outer_cfg=TIGHT)
    u = rng.standard_normal(n)
    rhs, scale = st.assemble_rhs_z(np.zeros(n), 0.0)
    assert scale == 0.0 and all(np.all(b == 0) for b in rhs)
    u1, _ = st.advance(u, 0.0)
    assert np.allclose(u1, u, atol=1e-14)


def test_backward_euler_rhs_assembly():
    # (M - dt L) u_{n+1} = M u_n + dt f(t_n + dt): one solve, R(inf) = 0
    n = 5
    prob = random_problem(n, seed=1)
    st = IRKStepper(build_tableau("backwardEuler", 1), prob, dt=0.3,
                    outer_cfg=TIGHT)
    u = rng.standard_normal(n)
    (b,), scale = st.assemble_rhs_z(u, 0.4)
    ref = u + 0.3 * prob.forcing(0.4 + 0.3)
    assert np.linalg.norm(b - ref) < 1e-13 * np.linalg.norm(ref)
    assert scale == pytest.approx(
        np.linalg.norm(u) + 0.3 * np.linalg.norm(prob.forcing(0.7)),
        rel=1e-14)


def _stage_forcing(n, r):
    """A forcing with an independent random vector per stage time."""
    fvals = {}

    def forcing(time):
        key = round(time, 12)
        if key not in fvals:
            fvals[key] = r.standard_normal(n)
        return fvals[key]

    return forcing


def _problem_with_stage_forcing(n, mass, r):
    M = build_fem_mass_1d(GridSpec(dim=1, n=n)) if mass == "fem" \
        else IdentityMass(n)
    L = SparseOperator(sp.csr_matrix(random_stable_matrix(n, r, scale=1.5)))
    return LinearProblem(M, L, forcing=_stage_forcing(n, r))


def _columns(op):
    """The dense matrix of op, one apply per column: a pair's M Q_eta
    is matrix-free."""
    return np.column_stack([op.apply(e) for e in np.eye(op.n)])


def _dense_factor_solves(st, rhs):
    """sum_j y_j from dense solves of each factor's operator (chained
    solves: y_j from rhs_j + M y_{j-1}, and the last y_j)."""
    Md = st.problem.M.mat.toarray()
    y = np.zeros(st.problem.n)
    for sv, b in zip(st.solves, rhs):
        x = np.linalg.solve(_columns(sv.op),
                            b + (Md @ y if st._chained else 0))
        y = x if st._chained else y + x
    return y


def _rhs_oracle_error(fam, s, mass):
    """Relative error of the step that assemble_rhs_z's right-hand
    sides give, with every factor solved densely, against the dense
    stage-system oracle, on a random 8x8 L with stage-dependent
    forcing."""
    n = 8
    t = build_tableau(fam, s)
    r = np.random.default_rng(3)
    prob = _problem_with_stage_forcing(n, mass, r)
    dt = 0.37
    u = r.standard_normal(n)
    st = IRKStepper(t, prob, dt, outer_cfg=TIGHT)
    rhs, _scale = st.assemble_rhs_z(u, 0.0)
    got = st._r_inf * u + _dense_factor_solves(st, rhs)
    want = advance_oracle(t, prob, u, 0.0, dt)
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def test_rhs_assembly_matches_kronecker_oracle():
    # every tableau, identity and FEM mass
    errors = {(fam, s, mass): _rhs_oracle_error(fam, s, mass)
              for fam, s in SUPPORTED_TABLEAUX
              for mass in ("identity", "fem")}
    assert max(errors.values()) < 1e-10, errors


def _counting(obj, name, calls, key):
    fn = getattr(obj, name)

    def counted(*args):
        calls[key] += 1
        return fn(*args)
    setattr(obj, name, counted)


@pytest.mark.parametrize("mass", ["identity", "fem"])
@pytest.mark.parametrize("fam,s", [("gauss", 1), ("gauss", 3),
                                   ("radauIIA", 5), ("lobattoIIIC", 4)])
def test_rhs_assembly_cost(fam, s, mass):
    # s forcing evaluations and one M apply, and per pair one L apply
    # and, with forcing, one M solve (the identity mass's solve returns
    # its input)
    n = 12
    r = np.random.default_rng(5)
    prob = _problem_with_stage_forcing(n, mass, r)
    st = IRKStepper(build_tableau(fam, s), prob, 0.2, outer_cfg=TIGHT)
    pairs = sum(not sv.factor.is_real for sv in st.solves)
    calls = dict.fromkeys(("forcing", "M_apply", "M_solve", "L_apply"), 0)
    _counting(prob, "forcing", calls, "forcing")
    _counting(prob.M, "apply", calls, "M_apply")
    _counting(prob.M, "solve", calls, "M_solve")
    _counting(prob.L, "apply", calls, "L_apply")
    u = r.standard_normal(n)
    st.assemble_rhs_z(u, 0.1)
    assert calls == {"forcing": s, "M_apply": 1, "M_solve": pairs,
                     "L_apply": pairs}
    prob.forcing = None
    calls.update(dict.fromkeys(calls, 0))
    st.assemble_rhs_z(u, 0.1)
    assert calls == {"forcing": 0, "M_apply": 1, "M_solve": 0,
                     "L_apply": pairs}


def test_pair_preconditioner_squares_the_fft_solve():
    # P I P in one FFT round trip equals two solves, counts as two, and
    # square makes the solve exact for the pair operator it is given
    grid = GridSpec(dim=2, n=24)
    M = IdentityMass(grid.size)
    L = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4)
    P = build_inner_preconditioner("exact", shifted_operator(2.3, 0.1, M, L))
    assert isinstance(P, ExactFFT)
    v = np.random.default_rng(11).standard_normal(grid.size)
    twice = P.apply(P.apply(v))
    eta, beta = 1.3, 0.8
    pair_op = _QuadraticSystem(shifted_operator(eta, 0.1, M, L), M, beta)
    delta = 2.3 - eta
    pair = P.square(pair_op, delta, delta * delta + beta * beta, M)
    assert pair is P and pair.op is pair_op
    before = pair.applications
    fused = pair.apply(v)
    assert pair.applications - before == 2
    assert np.linalg.norm(fused - twice) <= 1e-13 * np.linalg.norm(twice)
    vh = pair.forward(v)
    d, w = pair.apply_with_image(vh, np.empty_like(vh))
    ref = pair.forward(pair_op.apply(pair.combine([d], np.ones(1))))
    assert np.linalg.norm(w - ref) <= 1e-12 * np.linalg.norm(ref)


def _count_ffts(monkeypatch):
    """Counts of np.fft.rfftn and np.fft.irfftn calls from here on."""
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        fn = getattr(np.fft, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


def test_fft_direction_takes_no_fft(monkeypatch):
    # GMRES's direction is the weighted half-spectrum of v, which
    # forward makes in one rfftn: its image costs no FFT on a pair or a
    # real factor, and combine maps it back to P^2 v (P v) in one irfftn
    grid = GridSpec(dim=2, n=12)
    prob = LinearProblem(IdentityMass(grid.size),
                         build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4))
    st = IRKStepper(build_tableau("radauIIA", 3), prob, 0.2)
    v = np.random.default_rng(12).standard_normal(grid.size)
    cases = [(sv.op, sv.precond, sv.precond.apply(v),
              2 - int(sv.factor.is_real)) for sv in st.solves]
    assert [apps for *_rest, apps in cases] == [2, 1]
    calls = _count_ffts(monkeypatch)
    for op, pc, ref, apps in cases:
        before = pc.applications
        calls.update(rfftn=0, irfftn=0)
        vh = pc.forward(v)
        assert calls == {"rfftn": 1, "irfftn": 0}
        d, _w = pc.apply_with_image(vh, np.empty_like(vh))
        assert pc.applications - before == apps
        assert calls == {"rfftn": 1, "irfftn": 0}
        z = pc.combine([d], np.ones(1))
        assert calls == {"rfftn": 1, "irfftn": 1}
        assert np.linalg.norm(z - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("restart", [30, 2])
@pytest.mark.parametrize("scheme", [("gauss", 2), ("radauIIA", 3)])
def test_fft_gmres_step_transform_budget(monkeypatch, scheme, restart):
    # one advdiff2d step, exact FFT inner solve, GMRES: one rfftn per
    # restart cycle for its residual's forward image, one irfftn per
    # restart cycle for the update, and none per iteration on a pair or
    # a real factor
    prob = build_fd_mms(GridSpec(dim=2, n=16))
    gmres = KrylovConfig(method="gmres", rel_tol=1e-10, restart=restart)
    st = IRKStepper(build_tableau(*scheme), prob, 0.25, outer_cfg=gmres)
    u = prob.exact_solution(0.0)
    calls = _count_ffts(monkeypatch)
    _u, reps = st.advance(u, 0.0)
    iters = [r.iterations for r in reps]
    cycles = sum(-(-n // restart) for n in iters)
    assert all(r.converged for r in reps)
    assert restart == 30 or cycles > len(reps)
    assert calls == {"rfftn": cycles, "irfftn": cycles}


class _RealSpaceSolve(Preconditioner):
    """An exact solve without its op, so GMRES runs in real space: it
    applies the solve, then the operator, every iteration."""

    def __init__(self, pc):
        super().__init__(pc.n)
        self._pc = pc

    @property
    def applications(self):
        return self._pc.applications

    def apply(self, v):
        return self._pc.apply(v)


@pytest.mark.parametrize("restart", [30, 2])
@pytest.mark.parametrize("dim,n", [(1, 15), (1, 16), (2, 15), (2, 16)])
def test_fft_spectral_gmres_matches_the_real_space_path(dim, n, restart):
    # GMRES on the weighted half-spectrum of the FFT solve takes the
    # iterations and applications that GMRES in real space takes with
    # the same solve, and the same step to rounding; both meet the
    # exact step in Fourier space to the solver tolerance
    grid = GridSpec(dim=dim, n=n)
    L = build_advdiff(grid, (0.85, 1.0)[:dim], (0.3, 0.25)[:dim], 4)
    prob = LinearProblem(IdentityMass(grid.size), L)
    u = np.random.default_rng(100 * dim + n).standard_normal(grid.size)
    dt = 8 * grid.h
    gmres = KrylovConfig(method="gmres", rel_tol=1e-12, restart=restart)
    for scheme in [("gauss", 2), ("radauIIA", 3), ("lobattoIIIC", 5),
                   ("sdirk2l", 2)]:
        tab = build_tableau(*scheme)
        st = IRKStepper(tab, prob, dt, outer_cfg=gmres)
        assert all(sv.precond.op is sv.op for sv in st.solves)
        spectral, reps = st.advance(u, 0.0)
        wrapped = {id(sv.precond): _RealSpaceSolve(sv.precond)
                   for sv in st.solves}
        st.solves = [sv._replace(precond=wrapped[id(sv.precond)])
                     for sv in st.solves]
        real, real_reps = st.advance(u, 0.0)
        counts = [(r.iterations, r.preconditioner_applications)
                  for r in reps]
        assert counts == [(r.iterations, r.preconditioner_applications)
                          for r in real_reps], scheme
        assert np.linalg.norm(spectral - real) <= 1e-12 * np.linalg.norm(real)
        want = advance_oracle(tab, prob, u, 0.0, dt)
        for got in (spectral, real):
            err = np.linalg.norm(got - want) / np.linalg.norm(u)
            assert err <= 1e-11, (scheme, err)


#: the exact inner solves: the sparse LU in 1D with identity or FEM
#: mass, the FFT in 2D with the identity and in 1D with the FEM mass
EXACT_LABELS = ["lu-identity", "lu-fem", "fft-identity", "fft-fem"]


def _image_setup(label):
    """(problem, grid) for the exact inner solve of label.  The LU
    labels see the circulant's matrix alone (with the identity) or the
    FEM mass as a bare matrix, since a circulant shift gets the FFT."""
    if label == "fft-identity":
        g = GridSpec(dim=2, n=16)
        L = build_advdiff(g, (0.85, 1.0), (0.3, 0.25), 4)
        return LinearProblem(IdentityMass(g.size), L), g
    g = GridSpec(dim=1, n=48)
    L = build_advdiff(g, 1.0, 0.02, 4)
    if label == "fft-fem":
        return LinearProblem(build_fem_mass_1d(g), L), g
    if label == "lu-fem":
        return LinearProblem(SparseMass(build_fem_mass_1d(g).mat), L), g
    return LinearProblem(IdentityMass(g.size), SparseOperator(L.mat)), g


def _gs_warning(expected):
    """Expect Gauss-Seidel's dominance warning when expected, else none."""
    if not expected:
        return contextlib.nullcontext()
    return pytest.warns(UserWarning, match="not diagonally dominant")


def _count_op_applies(ops):
    calls = {}
    for op in set(ops):
        calls[op] = 0

        def counted(x, _op=op, _fn=op.apply):
            calls[_op] += 1
            return _fn(x)
        op.apply = counted
    return calls


@pytest.mark.parametrize("label", EXACT_LABELS)
def test_exact_inner_image_matches_operator_apply(label):
    # M Q_eta (P M P v) = v - 2 delta M P v + (delta^2 + beta^2) M P M P v
    # for a pair and A_eta P v = v for a real factor or an SDIRK stage,
    # with no operator apply, in forward's representation (the weighted
    # half-spectrum for the FFT); the bound is fixed by the mass:
    # rounding in M and M^{-1}, or in the multipliers m inv and
    # a_eta^2 / m + beta^2 m
    prob, grid = _image_setup(label)
    bound = 1e-9 if label.endswith("fem") else 1e-12
    v = np.random.default_rng(31).standard_normal(prob.n)
    cases = {}
    for ratio in (2, 32):
        dt = ratio * grid.h
        for fam, s in SUPPORTED_TABLEAUX:
            tab = build_tableau(fam, s)
            for mode in ("gamma_star", "eta"):
                st = IRKStepper(tab, prob, dt, gamma_mode=mode)
                for idx, sv in enumerate(st.solves):
                    cases[fam, s, mode, ratio, idx] = (sv.op, sv.precond)
    errors = {}
    for key, (op, pc) in cases.items():
        calls = _count_op_applies([op])
        vh = pc.forward(v)
        d, w = pc.apply_with_image(vh, np.empty_like(vh))
        assert calls[op] == 0, key
        z = pc.combine([d], np.ones(1))
        ref = pc.forward(op.apply(z))
        errors[key] = np.linalg.norm(w - ref) / np.linalg.norm(ref)
    assert max(errors.values()) <= bound, max(errors.items(),
                                              key=lambda kv: kv[1])


@pytest.mark.parametrize("scheme", [("sdirk2l", 2), ("sdirk3l", 3)])
def test_chained_solves_share_one_operator_and_preconditioner(scheme):
    # each chained record reuses the first one's operator and
    # preconditioner objects, with its own weights
    prob, grid = _image_setup("lu-fem")
    st = IRKStepper(build_tableau(*scheme), prob, 2 * grid.h)
    first = st.solves[0]
    assert st._chained and len(st.solves) == scheme[1]
    for sv in st.solves[1:]:
        assert sv.op is first.op and sv.precond is first.precond
        assert (sv.factor, sv.gamma, sv.kappa) == \
            (first.factor, first.gamma, first.kappa)


@pytest.mark.parametrize("label", EXACT_LABELS)
def test_exact_inner_solve_applies_its_operator_once(label):
    # the true residual at exit is the only operator apply.  A gs:2 inner
    # solve still applies the operator once per iteration and at exit;
    # on a real factor or an SDIRK stage the GS sweeps are built on that
    # same operator, and the second sweep applies it once more.  The
    # sweeps warn on a shift that is not diagonally dominant: each one
    # with the FEM mass, and the SDIRK stage's in 2D
    prob, grid = _image_setup(label)
    u = np.random.default_rng(32).standard_normal(prob.n)
    gmres = KrylovConfig(method="gmres", rel_tol=1e-10)
    for inner, params in (("exact", {}), ("gauss_seidel", {"sweeps": 2})):
        gs = inner == "gauss_seidel"
        per_iter = {"pair": 0, "real": 0} if inner == "exact" \
            else {"pair": 1, "real": 2}
        for tab in (build_tableau("gauss", 2), build_tableau("radauIIA", 3),
                    build_tableau("lobattoIIIC", 5)):
            with _gs_warning(gs and label.endswith("fem")):
                st = IRKStepper(tab, prob, 2 * grid.h, outer_cfg=gmres,
                                inner_kind=inner, inner_params=params)
            calls = _count_op_applies([sv.op for sv in st.solves])
            _u, reps = st.advance(u, 0.0)
            for sv, rep in zip(st.solves, reps):
                assert rep.converged and rep.iterations < gmres.restart
                k = per_iter["real" if sv.factor.is_real else "pair"]
                assert calls[sv.op] == 1 + k * rep.iterations, \
                    (tab.family, sv.factor)
        # the three chained SDIRK solves share one operator
        with _gs_warning(gs and label != "lu-identity"):
            sd = IRKStepper(build_tableau("sdirk3l", 3), prob, 2 * grid.h,
                            outer_cfg=gmres, inner_kind=inner,
                            inner_params=params)
        calls = _count_op_applies([sv.op for sv in sd.solves])
        _u, reps = sd.advance(u, 0.0)
        assert all(r.converged and r.iterations < gmres.restart for r in reps)
        assert sum(calls.values()) == sum(1 + per_iter["real"] * r.iterations
                                          for r in reps)


def _mismatched_cases(label):
    """(operator, exact preconditioner whose op is another operator)
    pairs for the exact inner solve of label."""
    prob, grid = _image_setup(label)
    M, L, dt = prob.M, prob.L, 2 * grid.h
    st = IRKStepper(build_tableau("radauIIA", 3), prob, dt)
    (pair, gamma, op, pc), (real, _g, op_real, pc_real) = \
        [sv[:4] for sv in st.solves]
    twin_real = shifted_operator(real.eta, dt, M, L)
    twin_pair = _QuadraticSystem(shifted_operator(pair.eta, dt, M, L), M,
                                 pair.beta)
    other_dt = shifted_operator(gamma, 1.5 * dt, M, L)
    other_L = shifted_operator(gamma, dt, M, SparseOperator(0.5 * L.mat))
    cases = [(target, pc_real) for target in (twin_real, op, other_dt)]
    cases += [(op_real, build_inner_preconditioner("exact", A))
              for A in (twin_real, shifted_operator(gamma, dt, M, L),
                        other_dt, other_L)]
    for target in (twin_pair, op_real, other_dt):
        inner = build_inner_preconditioner(
            "exact", shifted_operator(gamma, dt, M, L))
        cases.append((target, pair_system(op.A_eta, inner, M, pair.beta,
                                          gamma - pair.eta)[1]))
    return cases + [(twin_pair, pc)]


def test_mismatched_inner_solve_applies_the_operator():
    # an exact preconditioner (sparse LU, FFT or pair) gives GMRES the
    # image without applying the operator only for its own op.  One
    # GMRES iteration on any other operator applies it twice, once for
    # the image and once for the true residual, also on one equal in
    # value to op that shifted_operator built separately with the same
    # gamma, dt, M and L; the Givens estimate then equals the true
    # residual, so the image was that operator's
    one = KrylovConfig(method="gmres", max_iters=1)
    for label in EXACT_LABELS:
        cases = _mismatched_cases(label)
        b = np.random.default_rng(33).standard_normal(cases[0][0].n)
        for target, p in cases:
            assert p.exact and p.op is not target
            calls = _count_op_applies([target])
            _x, rep = solve(target, b, p, one)
            assert rep.iterations == 1 and calls[target] == 2, label
            estimate = rep.residual_history[-1]
            assert abs(estimate - rep.final_residual) <= \
                1e-9 * np.linalg.norm(b), label


@pytest.mark.parametrize("label", EXACT_LABELS)
def test_exact_solve_of_another_operator_still_converges(label):
    # GMRES on A_eta preconditioned with an exact solve of A_gamma: the
    # image comes from A_eta.apply, so the solve is a correct one
    prob, grid = _image_setup(label)
    M, L, dt = prob.M, prob.L, 2 * grid.h
    pair = spectral_decompose(build_tableau("gauss", 2)).pairs[0]
    A_eta = shifted_operator(pair.eta, dt, M, L)
    P = build_inner_preconditioner(
        "exact", shifted_operator(pair.gamma_star, dt, M, L))
    b = np.random.default_rng(34).standard_normal(prob.n)
    x, rep = solve(A_eta, b, P, KrylovConfig(method="gmres", rel_tol=1e-10))
    assert rep.converged and rep.iterations > 1
    assert rep.final_residual == np.linalg.norm(b - A_eta.apply(x))


def test_solve_factors_zero_operator_scaling():
    # L = 0: a real factor divides its rhs by eta, a pair by
    # eta^2 + beta^2, and the answers add up; chained (SDIRK) solves
    # divide the running sum by eta once per stage
    n = 4
    prob = LinearProblem(IdentityMass(n),
                         SparseOperator(sp.csr_matrix((n, n))))
    for fam, s in [("gauss", 2), ("radauIIA", 3), ("sdirk3l", 3)]:
        st = IRKStepper(build_tableau(fam, s), prob, dt=0.2, outer_cfg=TIGHT)
        rhs = [rng.standard_normal(n) for _ in st.solves]
        y, _ = st.solve_factors(rhs, 1.0)
        ref = np.zeros(n)
        for sv, b in zip(st.solves, rhs):
            f = sv.factor
            q = f.eta if f.is_real else f.eta ** 2 + f.beta ** 2
            ref = (b + ref) / q if st._chained else ref + b / q
        assert np.linalg.norm(y - ref) < 1e-11 * np.linalg.norm(ref), fam


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


#: where advance_oracle's LU branch is the less accurate side: on
#: SDIRK4L (entries up to 7.8 in A0) at n = 1024 it is 4.2e-12 from a
#: 40-digit solve of each mode's system, the Fourier branch 1.1e-14
_ORACLE_TOL = {("SDIRK4L", 5): 1e-11}


@pytest.mark.parametrize("dim,n", [(1, 40), (2, 12), (1, 1024)])
def test_symbol_oracle_equals_dense_oracle(dim, n):
    # every tableau, on the forced MMS problem, from random data
    prob = build_fd_mms(GridSpec(dim=dim, n=n))
    u = np.random.default_rng(dim).standard_normal(prob.n)
    dt = 4 * 2.0 / n
    errors = {}
    for fam, s in SUPPORTED_TABLEAUX:
        tab = build_tableau(fam, s)
        want = _advance_lu(tab, prob, u, 0.3, dt)
        got = _advance_fourier(tab, prob, u, 0.3, dt)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        if err > _ORACLE_TOL.get((fam, s), 1e-12):
            errors[fam, s] = err
    assert not errors, errors


def test_oracle_takes_the_fourier_branch_exactly_when_m_and_l_have_symbols():
    # bit for bit the mode-by-mode solve on a circulant L with M = I or
    # a periodic mass (the FEM mass), and the stage-system LU on every
    # other problem: the same L as a plain sparse matrix, or the FEM
    # mass as one
    fd = build_fd_mms(GridSpec(dim=1, n=40))
    upwind = GridSpec(dim=1, n=256)
    fem = build_fem_diffusion_1d(GridSpec(dim=1, n=32))
    cases = [(fd, _advance_fourier),
             (build_fd_mms(GridSpec(dim=2, n=12)), _advance_fourier),
             (LinearProblem(IdentityMass(upwind.size),
                            build_upwind_advection(upwind, 1.0)),
              _advance_fourier),
             (fem, _advance_fourier),
             (LinearProblem(SparseMass(fem.M.mat), fem.L), _advance_lu),
             (LinearProblem(fd.M, SparseOperator(fd.L.mat), fd.forcing),
              _advance_lu),
             (random_problem(12, seed=5), _advance_lu)]
    for prob, branch in cases:
        u = np.random.default_rng(prob.n).standard_normal(prob.n)
        dt = 0.1
        for fam, s in SUPPORTED_TABLEAUX:
            tab = build_tableau(fam, s)
            got = advance_oracle(tab, prob, u, 0.3, dt)
            want = branch(tab, prob, u, 0.3, dt)
            assert got.tobytes() == want.tobytes(), (branch, prob.n, fam, s)


@pytest.mark.parametrize("forced", [False, True])
def test_fourier_oracle_with_the_fem_mass_equals_the_lu(forced):
    # every tableau on diffusion1d-fem at its dt, from random data:
    # (m I - dt lambda A0) k = lambda u_hat + f_hat per mode against the
    # stage system's LU, with and without forcing, to 1e-12 relative
    # (SDIRK4L, 9.8e-13 here, to _ORACLE_TOL's 1e-11)
    spec = ExperimentSpec(problem="diffusion1d-fem", family="gauss",
                          stages=2, grids=(64,))
    prob, _u0, grid = build_problem(spec, 64)
    if forced:
        x = grid.points_1d()
        prob = LinearProblem(prob.M, prob.L,
                             forcing=lambda t: np.cos(3 * t) * x * (1 - x))
    u = np.random.default_rng(64).standard_normal(prob.n)
    dt = spec.dt_ratio * grid.h
    errors = {}
    for fam, s in SUPPORTED_TABLEAUX:
        tab = build_tableau(fam, s)
        want = _advance_lu(tab, prob, u, 0.3, dt)
        got = _advance_fourier(tab, prob, u, 0.3, dt)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        if err > _ORACLE_TOL.get((fam, s), 1e-12):
            errors[fam, s] = err
    assert not errors, errors


@pytest.mark.parametrize("phi, steps", [(6.172650603105037, 12),
                                        (4.424323982240343, 21)])
def test_fem_pair_solves_do_not_stall_at_the_floor(phi, steps):
    # fem1d's configuration: Gauss-3, n = 256, dt = 2h, CG at rel_tol
    # 1e-10, from u0 = sin(pi x + phi).  The pair operator's rounding of
    # the true residual stays under the residual floor, so no step
    # raises FactorSolveFailure; the multiplier a_eta^2 / m + beta^2 m
    # on v itself stalls these phases in a pair solve at steps 10 and
    # 19, just above the floor
    grid = GridSpec(dim=1, n=256)
    prob = build_fem_diffusion_1d(grid)
    st = IRKStepper(build_tableau("gauss", 3), prob, 2 * grid.h,
                    outer_cfg=KrylovConfig(rel_tol=1e-10))
    u, t = np.sin(np.pi * grid.points_1d() + phi), 0.0
    for _ in range(steps):
        u, reps = st.advance(u, t)
        t += st.dt
    assert all(r.converged for r in reps)


def test_gmres_fem_step_matches_the_oracle():
    # GMRES on the FEM pair and real factors, the FFT solve squared with
    # the mass's symbol, one step of each tableau against advance_oracle
    grid = GridSpec(dim=1, n=64)
    prob = build_fem_diffusion_1d(grid)
    u = np.random.default_rng(5).standard_normal(prob.n)
    gmres = KrylovConfig(method="gmres", rel_tol=1e-12)
    errors = {}
    for fam, s in SUPPORTED_TABLEAUX:
        tab = build_tableau(fam, s)
        st = IRKStepper(tab, prob, 2 * grid.h, outer_cfg=gmres)
        got, reps = st.advance(u, 0.0)
        assert all(r.converged for r in reps), (fam, s)
        want = advance_oracle(tab, prob, u, 0.0, 2 * grid.h)
        errors[fam, s] = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert max(errors.values()) <= 1e-10, errors


def test_oracle_matches_irk_on_fem_diffusion_at_n_2048():
    # N s = 6144 to 10240: one step of diffusion1d-fem, a size the
    # stage system reaches only through its sparse LU
    cfg = KrylovConfig(rel_tol=1e-13)
    errors = {}
    for fam, s in [("Gauss", 3), ("RadauIIA", 3), ("LobattoIIIC", 5)]:
        spec = ExperimentSpec(problem="diffusion1d-fem", family=fam,
                              stages=s, grids=(2048,))
        prob, u, grid = build_problem(spec, 2048)
        tab, dt = build_tableau(fam, s), spec.dt_ratio * grid.h
        got, _reps = IRKStepper(tab, prob, dt, outer_cfg=cfg).advance(u, 0.0)
        want = advance_oracle(tab, prob, u, 0.0, dt)
        errors[fam, s] = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert max(errors.values()) < 1e-9, errors


def test_linear_problem_rejects_a_matrix_free_operator():
    # every L is assembled: a matrix-free L, such as a stage system, is
    # a TypeError at construction
    stages = _StageSystem(build_tableau("gauss", 2), random_problem(6, 1), 0.1)
    with pytest.raises(TypeError, match="assembled"):
        LinearProblem(IdentityMass(12), stages)


def test_linear_problem_rejects_a_mass_without_a_matrix():
    class LumpedMass(linop.MassOperator):
        def apply(self, v):
            return 2.0 * v

        def solve(self, v):
            return 0.5 * v

    n = 8
    with pytest.raises(TypeError, match="assembled"):
        LinearProblem(LumpedMass(n),
                      SparseOperator(-sp.identity(n, format="csr")))


def test_linear_problem_builds_no_lazy_matrix():
    # the check reads types alone: a circulant L and the identity mass
    # keep their matrices unbuilt, as a circulant run with the FFT solve
    # never builds them
    grid = GridSpec(dim=2, n=16)
    L = build_advdiff(grid, (0.85, 1.0), (0.3, 0.25), 4)
    M = IdentityMass(grid.size)
    LinearProblem(M, L)
    assert "mat" not in vars(L) and "mat" not in vars(M)


def test_oracle_singular_stage_system_raises():
    # 1 - dt a lambda = 0 for a = -1, lambda = -1, dt = 1
    tab = ButcherTableau("singular", 1, [[-1.0]], [1.0], [0.0], 1)
    prob = LinearProblem(IdentityMass(1),
                         SparseOperator(sp.csr_matrix([[-1.0]])))
    with pytest.raises(SingularSystem):
        advance_oracle(tab, prob, np.array([1.0]), 0.0, 1.0)


ROUGH_TOL = 1e-10


@pytest.mark.parametrize("ratio", [2, 32])
@pytest.mark.parametrize("dim,n", [(1, 512), (1, 1024), (1, 2048), (1, 4096),
                                   (2, 128)])
def test_rough_data_step_is_accurate_to_rel_tol(dim, n, ratio):
    # one step of fourth-order advection-diffusion from N(0,1) data, for
    # every Gauss, Radau IIA and Lobatto IIIC tableau, against the exact
    # step in Fourier space.  The error is measured in the norm of the
    # data: the factor targets are relative to the state the step starts
    # from, and the L-stable schemes damp this data up to 100-fold
    grid = GridSpec(dim=dim, n=n)
    L = build_advdiff(grid, (0.85, 1.0)[:dim], (0.3, 0.25)[:dim], 4)
    prob = LinearProblem(IdentityMass(grid.size), L)
    u = np.random.default_rng(n + ratio).standard_normal(grid.size)
    dt = ratio * grid.h
    cfg = KrylovConfig(method="auto", rel_tol=ROUGH_TOL)
    errors = {}
    for fam in ("Gauss", "RadauIIA", "LobattoIIIC"):
        for s in tableaux._FAMILY_RANGE[fam]:
            tab = build_tableau(fam, s)
            got, _reps = IRKStepper(tab, prob, dt,
                                    outer_cfg=cfg).advance(u, 0.0)
            want = advance_oracle(tab, prob, u, 0.0, dt)
            errors[fam, s] = np.linalg.norm(got - want) / np.linalg.norm(u)
    assert max(errors.values()) <= ROUGH_TOL, errors


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

    prob = LinearProblem(IdentityMass(n),
                         SparseOperator(sp.csr_matrix((n, n))), forcing=f)
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
    # a scale far above ||z||: the target is rel_tol ||z||
    y, _ = st.solve_factors([z], 1e3 * np.linalg.norm(z))
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


@pytest.mark.parametrize("dim, scheme", [(2, ("gauss", 2)),
                                         (2, ("radauIIA", 3)),
                                         (1, ("gauss", 2))])
def test_setup_assembles_what_the_step_applies_and_no_more(monkeypatch, dim,
                                                           scheme):
    # the step applies L and each factor's op (a pair's through its
    # A_eta): their matrices exist when the constructor returns, so no
    # assembly moves into the first step.  A shift that only the FFT
    # solves never holds one, in 1D as in 2D
    shifts = []

    def recording(*args):
        shifts.append(shifted_operator(*args))
        return shifts[-1]
    monkeypatch.setattr("irksolve.stepper.shifted_operator", recording)
    grid = GridSpec(dim=dim, n=12)
    prob = build_fd_mms(grid)
    st = IRKStepper(build_tableau(*scheme), prob, 2 * grid.h)
    applied = [prob.L] + [sv.op if sv.factor.is_real else sv.op.A_eta
                          for sv in st.solves]
    assert all(vars(op).get("mat") is not None for op in applied)
    unapplied = [op for op in shifts if all(op is not a for a in applied)]
    assert len(unapplied) == 1
    st.advance(prob.exact_solution(0.0), 0.0)
    assert "mat" not in vars(unapplied[0])



@pytest.mark.parametrize("scheme, grid, build", [
    (("gauss", 2), GridSpec(dim=2, n=16), build_fd_mms),
    (("lobattoIIIC", 5), GridSpec(dim=1, n=64), lambda grid: LinearProblem(
        IdentityMass(grid.size), build_upwind_advection(grid, 1.0))),
])
def test_circulant_setup_assembles_from_stencils_with_no_sparse_arithmetic(
        monkeypatch, scheme, grid, build):
    # the spatial build and the stepper's set-up combine stencils, not
    # sparse matrices: scipy's sparse sum, difference and COO conversion
    # stay uncalled, L and every A_eta are assembled before the
    # constructor returns, and each pair's A_gamma, which only the FFT
    # solves, never is.  perfbench/tracing.py patches shifted_operator
    # and build_inner_preconditioner in irksolve.stepper, so the stepper
    # must look both up there
    import scipy.sparse._coo as coo_module
    import scipy.sparse._sparsetools as sparsetools
    calls = []

    def recorder(name):
        kernel = getattr(sparsetools, name)

        def record(*args):
            calls.append(name)
            return kernel(*args)
        return record
    for name in ("csr_plus_csr", "csr_minus_csr", "coo_tocsr"):
        monkeypatch.setattr(sparsetools, name, recorder(name))
    monkeypatch.setattr(coo_module, "coo_tocsr", sparsetools.coo_tocsr)
    shifts, inner = [], []

    def shift(*args):
        shifts.append(shifted_operator(*args))
        return shifts[-1]

    def build_inner(*args, **kwargs):
        inner.append(build_inner_preconditioner(*args, **kwargs))
        return inner[-1]
    monkeypatch.setattr("irksolve.stepper.shifted_operator", shift)
    monkeypatch.setattr("irksolve.stepper.build_inner_preconditioner",
                        build_inner)
    prob = build(grid)
    st = IRKStepper(build_tableau(*scheme), prob, 2 * grid.h)
    assert calls == []
    assert len(inner) == len(st.solves)
    applied = [prob.L] + [sv.op if sv.factor.is_real else sv.op.A_eta
                          for sv in st.solves]
    assert all("mat" in vars(op) for op in applied)
    fft_only = [op for op in shifts if all(op is not a for a in applied)]
    assert len(fft_only) == sum(not sv.factor.is_real for sv in st.solves)
    st.advance(np.ones(prob.n), 0.0)
    assert not any("mat" in vars(op) for op in fft_only)
    assert calls == []
    # the recorders see the kernels when they are called
    prob.L.mat - prob.L.mat + prob.L.mat
    sp.coo_matrix(prob.L.mat).tocsr()
    assert calls == ["csr_minus_csr", "csr_plus_csr", "coo_tocsr"]



def test_block_stepper_assembles_l_before_its_first_step():
    # a circulant's matrix is assembled on first use, and the stage
    # system applies L in every product
    prob = build_fd_mms(GridSpec(dim=1, n=16))
    BlockStepper(build_tableau("gauss", 2), prob, 0.125)
    assert "mat" in vars(prob.L)


SETUP_PROBLEMS = {
    "advdiff1d": lambda: build_fd_mms(GridSpec(dim=1, n=16)),
    "advect1d-upwind": lambda: LinearProblem(
        IdentityMass(16), build_upwind_advection(GridSpec(dim=1, n=16), 1.0)),
    "advdiff2d": lambda: build_fd_mms(GridSpec(dim=2, n=12)),
    "diffusion1d-fem": lambda: build_fem_diffusion_1d(GridSpec(dim=1, n=16)),
}


@pytest.mark.parametrize("problem", sorted(SETUP_PROBLEMS))
def test_circulant_setup_factors_nothing(monkeypatch, problem):
    # a circulant L with M = I or the periodic FEM mass gets the FFT for
    # every exact solve, in 1D as in 2D: each shift is circulant, its
    # symbol gamma m - dt lambda, so neither stepper's set-up (nor the
    # mass) calls the sparse LU
    prob = SETUP_PROBLEMS[problem]()
    factored = []
    sparse_lu = linop._sparse_lu

    def recording(mat):
        factored.append(mat)
        return sparse_lu(mat)
    monkeypatch.setattr(linop, "_sparse_lu", recording)
    st = IRKStepper(build_tableau("lobattoIIIC", 5), prob, 0.1)
    assert {type(sv.precond) for sv in st.solves} == {ExactFFT}
    BlockStepper(build_tableau("radauIIA", 3), prob, 0.1)
    prob.M.solve(np.ones(prob.n))
    assert factored == []


def test_fem_setup_does_no_sparse_arithmetic(monkeypatch):
    # the FEM mass keeps its stencil and symbol: its symmetry comes from
    # it, every shift gamma M - dt L is a circulant combined from the
    # two, solved by FFT, and norms come from symbols or sum rows
    # without building |M|, so neither stepper's set-up (nor the
    # problem's build) reaches scipy's sparse products, sums,
    # differences, abs or row sums
    from scipy.sparse import _base, _compressed, _data

    def forbidden(*args, **kwargs):
        raise AssertionError("sparse arithmetic in set-up")
    for cls, name in ((_compressed._cs_matrix, "_binopt"),
                      (_data._data_matrix, "_mul_scalar"),
                      (_data._data_matrix, "__abs__"),
                      (_compressed._cs_matrix, "sum"),
                      (_base._spbase, "sum")):
        monkeypatch.setattr(cls, name, forbidden)
    prob = build_fem_diffusion_1d(GridSpec(dim=1, n=32))
    for scheme in (("gauss", 3), ("lobattoIIIC", 5)):
        st = IRKStepper(build_tableau(*scheme), prob, 0.1)
        assert all(type(sv.precond) is ExactFFT for sv in st.solves)
        for variant in ("GSL", "LD"):
            BlockStepper(build_tableau(*scheme), prob, 0.1, variant=variant)
    # the guards are live
    M = prob.M.mat
    for arithmetic in (lambda: 2.0 * M, lambda: M - M, lambda: abs(M),
                       lambda: M.sum(axis=1)):
        with pytest.raises(AssertionError, match="sparse arithmetic"):
            arithmetic()


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


def test_steppers_of_one_tableau_share_its_weights():
    # two steppers of one tableau read one SpectralData; a copy of the
    # tableau is decomposed anew, to the same weights bit for bit
    prob = random_problem(8, seed=6, forcing=False)
    t = build_tableau("lobattoIIIC", 5)
    steppers = [IRKStepper(tab, prob, dt=0.1)
                for tab in (t, t, dataclasses.replace(t))]
    for sv, *others in zip(*(st.solves for st in steppers)):
        for other in others:
            assert (other.factor, other.gamma, other.kappa) == \
                (sv.factor, sv.gamma, sv.kappa)
            for name in ("a", "d", "xc", "xe"):
                assert np.array_equal(getattr(other, name),
                                      getattr(sv, name)), name


def test_no_stage_storage():
    # stepper retains no (s, N)-sized state and the advance working set
    # does not grow with s beyond the fixed Horner workspace
    n = 200_000
    ones = np.ones(n)
    prob = LinearProblem(IdentityMass(n),
                         SparseOperator(sp.csr_matrix((n, n))),
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


@pytest.mark.parametrize("dt", [0.0, -0.1, np.nan, np.inf])
@pytest.mark.parametrize("family,stepper", [("gauss", IRKStepper),
                                            ("gauss", BlockStepper)])
def test_every_stepper_rejects_nonpositive_dt(family, stepper, dt):
    # GSL used to step backward in time for dt < 0, and a NaN or
    # infinite dt failed later as a FactorizationFailure
    prob = build_fd_mms(GridSpec(1, 16))
    with pytest.raises(ValueError, match="dt must be positive"):
        stepper(build_tableau(family, 2), prob, dt)


def test_sdirk_advance_matches_oracle():
    n = 12
    prob = random_problem(n, seed=12)
    u = rng.standard_normal(n)
    for fam, s in [("BackwardEuler", 1), ("SDIRK2L", 2), ("SDIRK3L", 3)]:
        tab = build_tableau(fam, s)
        ua, _ = IRKStepper(tab, prob, 0.2, outer_cfg=TIGHT).advance(u, 0.0)
        uo = advance_oracle(tab, prob, u, 0.0, 0.2)
        assert np.linalg.norm(ua - uo) < 1e-11 * np.linalg.norm(uo), fam


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


@pytest.mark.parametrize("variant", ["GSL", "LD"])
def test_block_solves_stop_at_the_residual_floor(variant):
    # at rel_tol 1e-15 the FEM stage system's target from the smooth
    # exact start lies below eps ||op|| ||k||: the block solve stops at
    # that floor, converged and flagged, with the exact step.  Without a
    # norm on the stage system GMRES stalled above its target and the
    # step failed.  Rough random data has a larger rhs, which puts its
    # target about at the floor (flagged on some seeds, not on others),
    # so there only convergence and the step are checked
    grid = GridSpec(dim=1, n=64)
    prob = build_fem_diffusion_1d(grid)
    tab, dt = build_tableau("gauss", 2), 8 * grid.h
    st = BlockStepper(tab, prob, dt, variant=variant,
                      outer_cfg=KrylovConfig(rel_tol=1e-15))
    smooth = prob.exact_solution(0.0)
    rough = np.random.default_rng(37).standard_normal(grid.size)
    for u in (smooth, rough):
        want = advance_oracle(tab, prob, u, 0.0, dt)
        got, (rep,) = st.advance(u, 0.0)
        assert rep.converged and (rep.floor_limited or u is rough)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_stage_system_norm_bounds_its_matrix():
    # with both norms infinity-norms (L a plain SparseOperator, M a
    # SparseMass), ||M|| + dt ||A0||_inf ||L|| bounds the stage matrix's,
    # and the matrix-free product is the assembled one
    n = 12
    r = np.random.default_rng(8)
    prob = _problem_with_stage_forcing(n, "fem", r)
    assert type(prob.L) is SparseOperator and type(prob.M) is SparseMass
    for fam, s in SUPPORTED_TABLEAUX:
        system = _StageSystem(build_tableau(fam, s), prob, 0.3)
        dense = float(abs(system.mat).sum(axis=1).max())
        assert system.norm >= dense * (1 - 1e-14), fam
        v = r.standard_normal(system.n)
        assert np.allclose(system.apply(v), system.mat @ v, rtol=0,
                           atol=1e-13 * system.norm * np.linalg.norm(v))


def test_block_prec_builds_each_stage_its_own_inner_solve():
    # Gauss-2's diagonal entries differ in the last bits; each stage is
    # solved with its own shift 1 / T_ii, not the first stage's
    grid = GridSpec(dim=1, n=32)
    prob = build_fd_mms(grid)
    tab, dt = build_tableau("gauss", 2), 0.125
    T = np.tril(tab.A0)
    inner = BlockStepper(tab, prob, dt, variant="GSL")._precond._inner
    assert inner[0] is not inner[1]
    for i, pc in enumerate(inner):
        assert isinstance(pc, ExactFFT)
        assert np.array_equal(pc.op.symbol,
                              1.0 / T[i, i] - dt * prob.L.symbol)


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
    assert exc.value.reports[-1] is exc.value.report
    assert len(exc.value.reports) == exc.value.factor_index + 1
    # the block baseline has one stage-system solve per step
    block = BlockStepper(build_tableau("gauss", 2), prob, dt=1.0,
                         outer_cfg=KrylovConfig(max_iters=2))
    with pytest.raises(FactorSolveFailure) as exc:
        block.advance(rng.standard_normal(n), 0.0)
    assert exc.value.factor_index == 0
    assert len(exc.value.reports) == 1
    assert exc.value.reports[0] is exc.value.report
    assert exc.value.report.iterations == 2


def test_baseline_steppers_match_oracle_over_steps_at_each_dt():
    # each stepper factors once for its own dt and reuses that every step
    n = 12
    prob = random_problem(n, seed=17)
    u0 = rng.standard_normal(n)
    sdirk, gauss = build_tableau("SDIRK2L", 2), build_tableau("gauss", 2)
    for dt in (0.1, 0.2):
        steppers = [IRKStepper(sdirk, prob, dt, outer_cfg=TIGHT)]
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
    assert all(resolve_method(st.outer_cfg, sv.op, sv.precond) == "cg"
               for sv in st.solves)
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


@pytest.mark.parametrize("label", EXACT_LABELS)
def test_pair_operator_norm(label):
    # exact from the symbol for the FFT pair, a bound from the parts
    # otherwise; either way at least the 2-norm of M Q_eta
    prob, grid = _image_setup(label)
    st = IRKStepper(build_tableau("radauIIA", 3), prob, 2 * grid.h)
    op = st.solves[0].op
    dense = np.linalg.norm(_columns(op), 2)
    if label.startswith("fft"):
        assert op.norm == pytest.approx(dense, rel=1e-12)
    else:
        assert op.norm >= dense * (1 - 1e-12)


def test_wl_certificate_rejects_a_growing_operator():
    # the paper's bound assumes W(L) <= 0; the violation has its own type,
    # a ValueError, so the CLI still exits with code 2
    assert irksolve.FieldOfValuesViolation is FieldOfValuesViolation
    assert issubclass(FieldOfValuesViolation, ValueError)
    with pytest.raises(FieldOfValuesViolation,
                       match=r"max Re W\(L\) = 1.000e\+00 > tolerance"):
        LinearProblem(IdentityMass(8), SparseOperator(sp.identity(8)))


def test_wl_certificate_accepts_skew_and_every_shipped_problem():
    K = np.random.default_rng(41).standard_normal((12, 12))
    LinearProblem(IdentityMass(12), SparseOperator(sp.csr_matrix(K - K.T)))
    for name in PROBLEMS:
        build_problem(ExperimentSpec(problem=name, family="gauss", stages=2,
                                     grids=(16,)), 16)


def test_wl_certificate_tolerance_is_relative_to_the_norm():
    # L + eps I has the certificate eps exactly, and its tolerance is
    # 1e-8 max(1, ||L + eps I||) with ||L + eps I|| = ||L|| - eps here.
    # 0.75 also tells the norm from the largest entry, ||L|| / 2 here
    grid = GridSpec(dim=1, n=64)
    M = IdentityMass(grid.size)
    L = build_upwind_advection(grid, 1.0)
    unit = 1e-8 * max(1.0, L.norm)
    for frac in (0.5, 0.75):
        LinearProblem(M, shifted_operator(frac * unit, -1.0, M, L))
    with pytest.raises(FieldOfValuesViolation):
        LinearProblem(M, shifted_operator(2.0 * unit, -1.0, M, L))


def test_problem_sizes_must_agree():
    L = build_advdiff(GridSpec(1, 16), 1.0, 0.1, 4)
    with pytest.raises(DimensionMismatch, match="mass dim 8 != operator"):
        LinearProblem(IdentityMass(8), L)


@pytest.mark.parametrize("make,match", [
    (lambda tab, prob: IRKStepper(tab, prob, 0.1, gamma_mode="x"),
     "unknown gamma_mode"),
    (lambda tab, prob: BlockStepper(tab, prob, 0.1, variant="x"),
     "unknown block preconditioner variant"),
])
def test_steppers_reject_an_unknown_mode(make, match):
    with pytest.raises(ValueError, match=match):
        make(build_tableau("gauss", 2), random_problem(8, seed=3))


def test_ld_stops_at_a_zero_pivot():
    # a nonsingular A0 with a_11 = 0: the pivot-free LDU that LD takes
    # its block-triangular preconditioner from has no first pivot
    tab = ButcherTableau("zeroPivot", 2, [[0.0, 0.5], [0.5, 0.5]],
                         [0.5, 0.5], [0.5, 1.0], 1)
    with pytest.raises(SingularSystem, match="zero pivot"):
        BlockStepper(tab, random_problem(8, seed=4), 0.1, variant="ld")


def _gll_fem(n, p):
    """(mass, stiffness) CSR matrices of periodic degree-p Lagrange
    elements on the Gauss-Lobatto-Legendre nodes, n elements on [-1, 1]
    (N = n p), integrated exactly: an SPD mass, not diagonally dominant
    at p = 4."""
    leg = np.polynomial.legendre
    interior = leg.legroots(leg.legder([0] * p + [1]))
    nodes = np.concatenate([[-1.0], np.sort(interior), [1.0]])
    xq, wq = leg.leggauss(p + 1)
    coef = np.linalg.inv(np.vander(nodes, p + 1, increasing=True))
    phi = np.vander(xq, p + 1, increasing=True) @ coef
    dphi = np.vander(xq, p, increasing=True) * np.arange(1, p + 1) \
        @ coef[1:]
    h = 2.0 / n
    Me = (phi.T * wq) @ phi * (h / 2)
    Ke = (dphi.T * wq) @ dphi * (2 / h)
    N = n * p
    M, K = np.zeros((N, N)), np.zeros((N, N))
    for e in range(n):
        idx = np.ix_(*[np.arange(e * p, e * p + p + 1) % N] * 2)
        M[idx] += Me
        K[idx] += Ke
    return sp.csr_matrix(M), sp.csr_matrix(K)


@pytest.mark.parametrize("elements", [32, 300])
def test_mass_inverse_norm_without_diagonal_dominance(elements):
    # a degree-4 GLL mass is not diagonally dominant, so inv_norm is
    # 1 / lambda_min: dense at N = 128; at N = 1200, beyond DENSE_LIMIT,
    # by Lanczos to 1e-3, raised by 1e-3 so that it bounds it from above
    mat, _ = _gll_fem(elements, 4)
    M = SparseMass(mat)
    assert np.min(2.0 * mat.diagonal() - np.abs(mat).sum(axis=1).A1) < 0.0
    assert (M.n > linop.DENSE_LIMIT) == (elements == 300)
    want = 1.0 / np.linalg.eigvalsh(mat.toarray())[0]
    if M.n <= linop.DENSE_LIMIT:
        assert M.inv_norm == pytest.approx(want, rel=1e-10)
    else:
        assert want <= M.inv_norm <= want * (1.0 + 1e-3)


def test_pair_with_a_non_dominant_mass_solves_to_its_residual_floor():
    # the degree-4 GLL mass bounds ||M^{-1}|| by 1 / lambda_min, not 0,
    # so a pair system's norm gives the residual a floor: Gauss-3 at
    # rel_tol 1e-12 stops there, where with no floor it chased a target
    # below rounding and failed (final residual 4.1e-12, target 2.3e-12)
    mat, K = _gll_fem(32, 4)
    M = SparseMass(mat)
    assert M.inv_norm == pytest.approx(259.8, rel=1e-3)
    prob = LinearProblem(M, SparseOperator(-K))
    u = np.random.default_rng(0).standard_normal(prob.n)
    tab, dt = build_tableau("gauss", 3), (2.0 / 32) / 8
    st = IRKStepper(tab, prob, dt, outer_cfg=KrylovConfig(rel_tol=1e-12))
    assert all(sv.op.norm > 0.0 for sv in st.solves)
    got, reps = st.advance(u, 0.0)
    assert all(rep.converged for rep in reps)
    assert reps[0].floor_limited
    want = advance_oracle(tab, prob, u, 0.0, dt)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)
