"""The IRK time stepper.

One step works entirely on N-vectors (no stage storage):

1. assemble z = sum_i R_i(Lhat) (M^{-1} f_i) from the adjugate-row
   polynomials, with f_i = f(t_n + c_i dt) + L u_n.  Regrouped as
   z = sum_k Lhat^k M^{-1} w_k with w_k = sum_i R[i, k] f_i, it is one
   Horner pass in mass form: s forcing evaluations, s M solves and s L
   applies (L u_n included) per step;
2. solve P_s(Lhat) y = z one real factor at a time: each conjugate pair
   is the quadratic M Q_eta y = M z solved by an outer Krylov iteration
   preconditioned with P M P, where P approximates the backward-Euler
   matrix (gamma M - dt L)^{-1} and gamma is the pair's optimal shift
   sqrt(eta^2 + beta^2) (or eta, for comparison runs); real eigenvalues
   contribute a single shifted solve.  Per iteration: one preconditioner
   application (for a pair, two inner applications; with the FFT inner
   solve and M = I, one round trip of the squared solve) and the image
   of its result under the operator.  An exact preconditioner is built
   with the factor's operator as its op, so GMRES takes that image from
   the inner solves (for a pair, v - 2 delta M P v + c M P M P v with
   delta = gamma - eta and c = delta^2 + beta^2, both passed in when it
   is built; for a real factor, v), and the operator is applied only
   for the true residual, at restarts and at exit.  With the FFT inner
   solve and M = I, GMRES keeps its directions on the half-spectrum: an
   iteration costs one rfftn and one irfftn on a pair and one rfftn on
   a real factor, plus one irfftn per restart cycle for the update.  CG
   and every other inner solve apply the operator every iteration (for
   a pair, two applies of eta M - dt L and one M solve);
3. update u_{n+1} = u_n + dt * y.

A dense direct-solve oracle over the full stage system is provided as
the reference, along with SDIRK and block-preconditioned (GSL / LD)
baseline steppers for iteration-count comparisons.  All three steppers
share one protocol: factor once at construction for a fixed dt, then
advance(u, t) -> (u, reports) per step, with factor_summary() naming
the rows of the reports.
"""

import math

import numpy as np

from .krylov import KrylovConfig, KrylovReport, resolve_method, solve
from .linop import (ComposedOperator, ExactFFT, LinearOperator,
                    MassOperator, Preconditioner, build_inner_preconditioner,
                    fov_upper_bound, shifted_operator)
from .spectral import (adjugate_row_polynomials, factor_list,
                       spectral_decompose)
from .tableaux import ButcherTableau

__all__ = [
    "LinearProblem",
    "IRKStepper",
    "SDIRKStepper",
    "BlockStepper",
    "advance_oracle",
    "FactorSolveFailure",
    "SingularSystem",
]


class FactorSolveFailure(RuntimeError):
    """An outer Krylov solve for one factor did not converge."""

    def __init__(self, factor_index: int, report: KrylovReport):
        super().__init__(f"factor {factor_index} did not converge "
                         f"(final residual {report.final_residual:.3e} "
                         f"after {report.iterations} iterations)")
        self.factor_index = factor_index
        self.report = report


class SingularSystem(RuntimeError):
    """Dense stage system is singular."""


class LinearProblem:
    """Method-of-lines system M u'(t) = L u + f(t).

    forcing maps t to an N-vector (None for f = 0); exact_solution, when
    available, maps t to the exact grid solution.  The left-half-plane
    condition W(L) <= 0 is verified once at construction.
    """

    def __init__(self, M: MassOperator, L: LinearOperator, forcing=None,
                 exact_solution=None):
        if M.n != L.n:
            raise ValueError(f"mass dim {M.n} != operator dim {L.n}")
        self.M = M
        self.L = L
        self.forcing = forcing
        self.exact_solution = exact_solution
        self.n = L.n
        scale = 1.0
        if L.mat is not None and L.mat.nnz:
            scale = max(1.0, float(np.max(np.abs(L.mat.data))))
        bound = fov_upper_bound(L)
        if bound > 1e-8 * scale:
            raise ValueError(
                f"spatial operator violates W(L) <= 0: "
                f"max Re W(L) = {bound:.3e}")

    def stage_rhs(self, t_stage: float, Lu_n: np.ndarray) -> np.ndarray:
        """f_i = f(t_stage) + L u_n, with L u_n computed once per step."""
        if self.forcing is None:
            return Lu_n.copy()
        return self.forcing(t_stage) + Lu_n


class _QuadraticSystem(LinearOperator):
    """Matrix-free M Q_eta = (eta M - dt L) M^{-1} (eta M - dt L) + beta^2 M;
    one mass solve per application."""

    def __init__(self, A_eta: LinearOperator, M: MassOperator, beta: float):
        super().__init__(A_eta.n)
        self.A_eta = A_eta
        self.M = M
        self._b2 = beta * beta
        self.symmetric = A_eta.symmetric and M.symmetric

    def apply(self, v):
        w = self.A_eta.apply(self.M.solve(self.A_eta.apply(v)))
        return w + self._b2 * self.M.apply(v)


class _SandwichPreconditioner(Preconditioner):
    """P M P, the conjugate-pair preconditioner for op = M Q_eta.  With
    exact P = (gamma M - dt L)^{-1} the preconditioned operator is
    exactly the P_gamma of the condition-number theory, and this is an
    exact solve for op.

    With that exact P, eta M - dt L = P^{-1} - delta M for
    delta = gamma - eta, so the operator image of a direction is
    M Q_eta (P M P v) = v - 2 delta M P v + c M P M P v with
    c = delta^2 + beta^2: apply_with_image gives it from the two inner
    solves and no operator apply.
    """

    def __init__(self, P: Preconditioner, op: LinearOperator,
                 M: MassOperator, delta: float, c: float):
        super().__init__(P.n)
        self._P = P
        self._M = M
        self._delta = delta
        self._c = c
        self.op = op if P.exact else None

    @property
    def applications(self):
        return self._P.applications

    def apply(self, v):
        return self._P.apply(self._M.apply(self._P.apply(v)))

    def apply_with_image(self, v, op):
        if op is not self.op:
            return super().apply_with_image(v, op)
        MPv = self._M.apply(self._P.apply(v))
        z = self._P.apply(MPv)
        return z, v - 2.0 * self._delta * MPv + self._c * self._M.apply(z)


def _pair_preconditioner(P, op, M, delta, c):
    """The conjugate-pair preconditioner P M P for op: an FFT solve
    squared in place when M = I, else the sandwich around P."""
    if isinstance(P, ExactFFT) and M.is_identity:
        return P.square(op, delta, c)
    return _SandwichPreconditioner(P, op, M, delta, c)


class IRKStepper:
    """Advances M u' = L u + f with a fully implicit RK scheme, solving
    the stage problem by sequential conjugate-pair factor solves.

    gamma_mode selects the preconditioner shift for quadratic factors:
    "gamma_star" (optimal, default) or "eta" (the naive choice, kept for
    comparison experiments).  Per-factor preconditioners are factored
    once at construction and reused every step.
    """

    def __init__(self, tableau: ButcherTableau, problem: LinearProblem,
                 dt: float, outer_cfg: KrylovConfig | None = None,
                 inner_kind: str = "exact",
                 inner_params: dict | None = None,
                 gamma_mode: str = "gamma_star"):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if gamma_mode not in ("gamma_star", "eta"):
            raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
        self.tableau = tableau
        self.problem = problem
        self.dt = float(dt)
        self.gamma_mode = gamma_mode
        self.factors = factor_list(spectral_decompose(tableau))
        self.R = adjugate_row_polynomials(tableau)

        params = dict(inner_params or {})
        M, L = problem.M, problem.L
        self._solvers = []
        for f in self.factors:
            gamma = f.gamma_star if gamma_mode == "gamma_star" else f.eta
            A_eta = shifted_operator(f.eta, self.dt, M, L)
            A_gamma = A_eta if gamma == f.eta else \
                shifted_operator(gamma, self.dt, M, L)
            inner = build_inner_preconditioner(inner_kind, A_gamma,
                                               **params)
            if f.is_real:
                op = A_eta
                precond = inner
            else:
                op = _QuadraticSystem(A_eta, M, f.beta)
                delta = gamma - f.eta
                precond = _pair_preconditioner(
                    inner, op, M, delta, delta * delta + f.beta * f.beta)
            self._solvers.append((f, gamma, op, precond))
        # every factor has the same inner kind and is symmetric exactly
        # when the problem is, so the last one resolves "auto" for all
        self.outer_cfg = resolve_method(outer_cfg, op, precond)

    # -- algorithm stages ------------------------------------------------

    def assemble_rhs_z(self, u_n: np.ndarray, t_n: float) -> np.ndarray:
        """z = sum_i R_i(Lhat)(M^{-1} f_i) = sum_k Lhat^k M^{-1} w_k with
        w_k = sum_i R[i, k] f_i, by one Horner pass in mass form:
        z <- M^{-1} w_{s-1}, then z <- M^{-1}(dt L z + w_k).  s mass
        solves and s L applies, L u_n included."""
        t = self.tableau
        prob = self.problem
        Lu_n = prob.L.apply(u_n)
        F = np.array([prob.stage_rhs(t_n + self.dt * c, Lu_n) for c in t.c0])
        W = self.R.T @ F
        z = prob.M.solve(W[-1])
        for w_k in W[-2::-1]:
            z = prob.M.solve(self.dt * prob.L.apply(z) + w_k)
        return z

    def solve_factors(self, z: np.ndarray):
        """y = P_s(Lhat)^{-1} z: each factor fully converged before the
        next, quadratic pairs via M Q_eta y = M z."""
        reports = []
        cur = z
        for idx, (_f, _gamma, op, precond) in enumerate(self._solvers):
            rhs = self.problem.M.apply(cur)
            y, rep = solve(op, rhs, precond, self.outer_cfg)
            reports.append(rep)
            if not rep.converged:
                raise FactorSolveFailure(idx, rep)
            cur = y
        return cur, reports

    def advance(self, u_n: np.ndarray, t_n: float):
        """One step: returns (u_{n+1}, per-factor Krylov reports)."""
        z = self.assemble_rhs_z(u_n, t_n)
        y, reports = self.solve_factors(z)
        return u_n + self.dt * y, reports

    def factor_summary(self):
        """(index, eta, beta, gamma) per factor, in solve order."""
        return [(idx, f.eta, f.beta, gamma)
                for idx, (f, gamma, _op, _pc) in enumerate(self._solvers)]


# ----------------------------------------------------------------------
# Reference and baseline steppers

def advance_oracle(tableau: ButcherTableau, problem: LinearProblem,
                   u_n: np.ndarray, t_n: float, dt: float) -> np.ndarray:
    """Dense direct solve of the full (N s x N s) stage system, then the
    standard update u + dt * sum b_i k_i.  Reference for equivalence
    tests; no preconditioning, no iteration."""
    s = tableau.s
    n = problem.n
    if n * s > 4096:
        raise ValueError(f"dense oracle limited to N*s <= 4096, got {n * s}")
    Md = problem.M.to_dense()
    Ld = problem.L.to_dense()
    sys = np.kron(np.eye(s), Md) - dt * np.kron(tableau.A0, Ld)
    Lu = Ld @ u_n
    rhs = np.concatenate([problem.stage_rhs(t_n + dt * c, Lu)
                          for c in tableau.c0])
    try:
        k = np.linalg.solve(sys, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(str(exc)) from exc
    k = k.reshape(s, n)
    return u_n + dt * (tableau.b0 @ k)


def _stage_solvers(diagonal, problem: LinearProblem, dt: float,
                   inner_kind: str, inner_params: dict | None):
    """(operator, inner preconditioner) for each entry d of diagonal, one
    pair built per distinct d: the stage equation (M - dt d L) x = r is
    run as ((1/d) M - dt L) x = r / d, so it reuses the backward-Euler
    preconditioner machinery with gamma = 1/d."""
    built = {}
    for d in diagonal:
        key = round(d, 14)
        if key not in built:
            op = shifted_operator(1.0 / d, dt, problem.M, problem.L)
            built[key] = (op, build_inner_preconditioner(
                inner_kind, op, **(inner_params or {})))
    return [built[round(d, 14)] for d in diagonal]


class SDIRKStepper:
    """Stage-by-stage substitution for lower-triangular A0: each stage is
    one shifted solve (M - dt a_ii L) k_i = f_i + dt sum_{j<i} a_ij L k_j.
    Reports one Krylov solve per stage."""

    def __init__(self, tableau: ButcherTableau, problem: LinearProblem,
                 dt: float, outer_cfg: KrylovConfig | None = None,
                 inner_kind: str = "exact",
                 inner_params: dict | None = None):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if not tableau.is_lower_triangular:
            raise ValueError(f"{tableau.family} is not diagonally implicit")
        self.tableau = tableau
        self.problem = problem
        self.dt = float(dt)
        self._stages = _stage_solvers(np.diag(tableau.A0), problem, self.dt,
                                      inner_kind, inner_params)
        self.outer_cfg = resolve_method(outer_cfg, *self._stages[0])

    def advance(self, u_n: np.ndarray, t_n: float):
        """One step: returns (u_{n+1}, per-stage Krylov reports)."""
        tab, prob, dt = self.tableau, self.problem, self.dt
        Lu_n = prob.L.apply(u_n)
        Lk = []
        update = np.zeros(prob.n)
        reports = []
        for i, (op, pc) in enumerate(self._stages):
            rhs = prob.stage_rhs(t_n + dt * tab.c0[i], Lu_n)
            if i:
                rhs = rhs + dt * sum(tab.A0[i, j] * Lk[j] for j in range(i))
            k_i, rep = solve(op, rhs / tab.A0[i, i], pc, self.outer_cfg)
            reports.append(rep)
            if not rep.converged:
                raise FactorSolveFailure(i, rep)
            if i + 1 < tab.s:
                Lk.append(prob.L.apply(k_i))
            update += tab.b0[i] * k_i
        return u_n + dt * update, reports

    def factor_summary(self):
        """(index, 1/a_ii, 0, 1/a_ii) per stage: each stage is a real
        backward-Euler solve with shift 1/a_ii."""
        return [(i, 1.0 / a, 0.0, 1.0 / a)
                for i, a in enumerate(np.diag(self.tableau.A0))]


class _BlockTriangularPreconditioner(Preconditioner):
    """Forward substitution with (I x M - dt T x L) for lower-triangular
    T, diagonal blocks applied via per-stage inner preconditioners."""

    def __init__(self, T, problem, dt, inner_kind, inner_params):
        s = T.shape[0]
        super().__init__(s * problem.n)
        self._T = T
        self._p = problem
        self._dt = dt
        self._inner = [pc for _op, pc in _stage_solvers(
            np.diag(T), problem, dt, inner_kind, inner_params)]

    @property
    def applications(self):
        return sum(pc.applications for pc in set(self._inner))

    def apply(self, v):
        s, n = self._T.shape[0], self._p.n
        R = v.reshape(s, n)
        X = np.zeros_like(R)
        LX = np.zeros_like(R)
        for i in range(s):
            r = R[i].copy()
            for j in range(i):
                r += self._dt * self._T[i, j] * LX[j]
            # (M - dt T_ii L) x = r  solved as ((1/T_ii) M - dt L) x = r/T_ii
            X[i] = self._inner[i].apply(r / self._T[i, i])
            if i + 1 < s:
                LX[i] = self._p.L.apply(X[i])
        return X.reshape(-1)


def _ldu_lower(A: np.ndarray) -> np.ndarray:
    """The L*D part of the (pivot-free) LDU factorization of A."""
    s = A.shape[0]
    U = A.astype(float).copy()
    Lo = np.eye(s)
    for k in range(s):
        piv = U[k, k]
        if piv == 0.0:
            raise SingularSystem("zero pivot in LDU of A0")
        for i in range(k + 1, s):
            m = U[i, k] / piv
            Lo[i, k] = m
            U[i] -= m * U[k]
    return Lo @ np.diag(np.diag(U))


class BlockStepper:
    """Baseline: GMRES on the full stage system, preconditioned by a
    block lower-triangular splitting of A0 (GSL keeps the lower triangle
    of A0; LD uses the L*D part of its LDU factorization).  Reports one
    Krylov solve per step."""

    def __init__(self, tableau: ButcherTableau, problem: LinearProblem,
                 dt: float, outer_cfg: KrylovConfig | None = None,
                 inner_kind: str = "exact",
                 inner_params: dict | None = None, variant: str = "GSL"):
        if dt <= 0:
            raise ValueError("dt must be positive")
        variant = variant.upper()
        if variant not in ("GSL", "LD"):
            raise ValueError(f"unknown block preconditioner variant {variant!r}")
        self.tableau = tableau
        self.problem = problem
        self.dt = float(dt)
        T = np.tril(tableau.A0) if variant == "GSL" else _ldu_lower(tableau.A0)
        self._op = ComposedOperator(tableau.s * problem.n, self._stage_system)
        self._precond = _BlockTriangularPreconditioner(
            T, problem, self.dt, inner_kind, inner_params)
        self.outer_cfg = resolve_method(outer_cfg, self._op, self._precond)

    def _stage_system(self, v):
        """(I x M - dt A0 x L) v, for v the stacked stages."""
        A0, prob = self.tableau.A0, self.problem
        K = v.reshape(A0.shape[0], prob.n)
        LK = np.array([prob.L.apply(k) for k in K])
        return np.concatenate([prob.M.apply(k) - self.dt * (a @ LK)
                               for k, a in zip(K, A0)])

    def advance(self, u_n: np.ndarray, t_n: float):
        """One step: returns (u_{n+1}, [the stage-system Krylov report])."""
        tab, prob, dt = self.tableau, self.problem, self.dt
        Lu_n = prob.L.apply(u_n)
        rhs = np.concatenate([prob.stage_rhs(t_n + dt * c, Lu_n)
                              for c in tab.c0])
        k, rep = solve(self._op, rhs, self._precond, self.outer_cfg)
        if not rep.converged:
            raise FactorSolveFailure(0, rep)
        K = k.reshape(tab.s, prob.n)
        return u_n + dt * (tab.b0 @ K), [rep]

    def factor_summary(self):
        """One row for the single stage-system solve; it has no
        (eta, beta, gamma)."""
        return [(0, math.nan, math.nan, math.nan)]
