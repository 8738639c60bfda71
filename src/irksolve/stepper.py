"""The IRK time stepper.

One step is the partial-fraction form of the stage problem, with the
weights of spectral.spectral_decompose: u_{n+1} = R(inf) u_n
+ sum_j y_j, one independent real solve per eigenvalue pair or real
eigenvalue of A0^{-1}, each kept as one FactorSolve record, and no
stage storage:

1. assemble each factor's right-hand side from u_n and the forcing
   values F = [f(t_n + c_i dt)] alone: w_j = c_j M u_n + dt e_j F for a
   real factor, and for a conjugate pair the real form of its complex
   solve, eta Re w_j + beta Im w_j - dt L x_j with
   x_j = Re(c_j) u_n + M^{-1} Re(dt e_j F).  s forcing evaluations and
   one M apply per step, plus one L apply per pair and, with forcing
   and a mass matrix, one M solve per pair;
2. solve each factor to rel_tol * min(||rhs_j||, kappa_j s_n), with
   s_n = ||M u_n|| + dt ||F|| and kappa_j = eta^2 for a pair, eta for a
   real factor, the bound 1/kappa_j on the norm of the factor's inverse
   when W(L) <= 0; so the error of y_j is relative to the state, however
   much dt L amplifies rough data in rhs_j.  Each conjugate pair is the
   quadratic M Q_eta y = rhs solved by an outer Krylov iteration
   preconditioned with P M P, where P approximates the backward-Euler
   matrix (gamma M - dt L)^{-1} and gamma is the pair's optimal shift
   sqrt(eta^2 + beta^2) (or eta, for comparison runs); a real eigenvalue
   is a single shifted solve.  Per iteration: one preconditioner
   application (for a pair, two inner applications; with the FFT inner
   solve and M = I, one round trip of the squared solve) and the image
   of its result under the operator.  An exact preconditioner is built
   with the factor's operator as its op, so GMRES, which checks
   op is precond.op once per restart cycle, takes that image from the
   inner solves (for a pair, v - 2 delta M P v + c M P M P v with
   delta = gamma - eta and c = delta^2 + beta^2, both passed in when it
   is built; for a real factor, v), and the operator is applied only
   for the true residual, at restarts and at exit.  With the FFT inner
   solve and M = I, GMRES keeps its directions on the half-spectrum: an
   iteration costs one rfftn and one irfftn on a pair and one rfftn on
   a real factor, plus one irfftn per restart cycle for the update.  CG
   and every other inner solve apply the operator every iteration (for
   a pair, two applies of eta M - dt L and one M solve).  An SDIRK
   tableau's A0^{-1} is defective: its s solves share one operator and
   are chained, each adding M times the previous answer to its rhs;
3. update u_{n+1} = R(inf) u_n + sum_j y_j.

A dense direct-solve oracle over the full stage system and an exact
Fourier-symbol oracle for circulant problems are provided as
references, along with a block-preconditioned (GSL / LD) baseline
stepper for iteration-count comparisons; SDIRK baselines are
IRKStepper runs of their tableaux.  Both steppers share one protocol:
factor once at construction for a fixed dt, then
advance(u, t) -> (u, reports) per step, with factor_summary() naming
the rows of the reports.  Both pass the caller's outer_cfg to every
krylov.solve unchanged, and solve picks CG or GMRES for each solve.
"""

from collections import namedtuple
from functools import cached_property
import math

import numpy as np

from .krylov import KrylovConfig, KrylovReport, Preconditioner, solve
from .linop import (CirculantOperator, ComposedOperator, ExactFFT,
                    LinearOperator, MassOperator, build_inner_preconditioner,
                    fov_upper_bound, shifted_operator)
# adjugate_row_polynomials is no longer called: perfbench/tracing.py
# still looks the name up in this module
from .spectral import (adjugate_row_polynomials, factor_list,  # noqa: F401
                       spectral_decompose)
from .tableaux import ButcherTableau

__all__ = [
    "LinearProblem",
    "IRKStepper",
    "BlockStepper",
    "advance_oracle",
    "advance_symbol",
    "FactorSolveFailure",
    "SingularSystem",
]


GAMMA_MODES = ("gamma_star", "eta")


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

    @cached_property
    def norm(self) -> float:
        """Exact from the symbol for a circulant A_eta with M = I, else
        the bound ||A_eta||^2 ||M^{-1}|| + beta^2 ||M|| (0 when
        ||M^{-1}|| has none)."""
        A, M = self.A_eta, self.M
        if isinstance(A, CirculantOperator) and M.is_identity:
            return float(np.abs(A.symbol ** 2 + self._b2).max())
        if not M.inv_norm:
            return 0.0
        return A.norm ** 2 * M.inv_norm + self._b2 * M.norm

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
    solves and no operator apply.  GMRES calls it only on op; on any
    other operator it takes apply(v) and applies that operator.
    """

    def __init__(self, P: Preconditioner, op: LinearOperator,
                 M: MassOperator, delta: float, c: float):
        super().__init__(P.n)
        self._P = P
        self._M = M
        self._delta = delta
        self._c = c
        self.op = op if P.exact else None
        self.symmetric = P.symmetric

    @property
    def applications(self):
        return self._P.applications

    def apply(self, v):
        return self._P.apply(self._M.apply(self._P.apply(v)))

    def apply_with_image(self, v):
        MPv = self._M.apply(self._P.apply(v))
        z = self._P.apply(MPv)
        return z, v - 2.0 * self._delta * MPv + self._c * self._M.apply(z)


def _pair_preconditioner(P, op, M, delta, c):
    """The conjugate-pair preconditioner P M P for op: an FFT solve
    squared in place when M = I, else the sandwich around P."""
    if isinstance(P, ExactFFT) and M.is_identity:
        return P.square(op, delta, c)
    return _SandwichPreconditioner(P, op, M, delta, c)


def _accumulate(out, coeffs, vectors):
    """out += sum_i coeffs[i] vectors[i], one N-vector at a time."""
    for a, v in zip(coeffs, vectors):
        out += a * v
    return out


#: one factor solve: the Factor, its preconditioner shift gamma, the
#: operator and preconditioner, kappa (when W(L) <= 0, 1/kappa bounds the
#: norm of the factor's inverse: (eta - Z)^{-1} has norm at most 1/eta)
#: and the weights of rhs = a M u_n + d F, less dt L x with
#: x = xc u_n + M^{-1} xe F for a pair (see assemble_rhs_z)
FactorSolve = namedtuple("FactorSolve",
                         "factor gamma op precond kappa a d xc xe")


class IRKStepper:
    """Advances M u' = L u + f with a fully implicit RK scheme in the
    partial-fraction form: one independent solve per factor (for an
    SDIRK tableau, s chained solves with one operator), summed.

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
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if gamma_mode not in GAMMA_MODES:
            raise ValueError(f"unknown gamma_mode {gamma_mode!r}")
        self.tableau = tableau
        self.problem = problem
        self.dt = float(dt)
        self.gamma_mode = gamma_mode
        sd = spectral_decompose(tableau)
        self._r_inf = sd.r_inf
        self._chained = sd.chained
        params = dict(inner_params or {})
        M, L = problem.M, problem.L
        self.solves = []
        for f, c, e in zip(factor_list(sd), sd.c, self.dt * sd.E):
            if f.is_real:
                w = dict(a=c.real, d=e.real, xc=None, xe=None)
            else:
                w = dict(a=f.eta * c.real + f.beta * c.imag,
                         d=f.eta * e.real + f.beta * e.imag,
                         xc=c.real, xe=e.real)
            if self._chained and self.solves:
                # the chained solves share one operator: only w changes
                self.solves.append(self.solves[0]._replace(**w))
                continue
            gamma = f.gamma_star if gamma_mode == "gamma_star" else f.eta
            A_eta = shifted_operator(f.eta, self.dt, M, L)
            # every step applies A_eta, so it is assembled here and not in
            # the first step; a circulant A_gamma only the FFT solves never is
            A_eta.mat
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
            kappa = f.eta if f.is_real else f.eta * f.eta
            self.solves.append(FactorSolve(f, gamma, op, precond, kappa, **w))
        self.outer_cfg = outer_cfg

    # -- algorithm stages ------------------------------------------------

    def assemble_rhs_z(self, u_n: np.ndarray, t_n: float):
        """(rhs, scale): the right-hand side of each factor's solve, in
        solve order, and the state scale ||M u_n|| + dt ||F|| that the
        targets are relative to, F = [f(t_n + c_i dt)]_i.

        With w = c M u_n + dt e F, a real factor gets w.  A pair solves
        Re (A + i beta M)^{-1} w = (M Q_eta)^{-1} (A M^{-1} Re w
        + beta Im w), A = eta M - dt L, so it gets
        eta Re w + beta Im w - dt L x with x = M^{-1} Re w
        = Re(c) u_n + M^{-1} Re(dt e F).  s forcing evaluations and one
        M apply, and per pair one L apply and, with forcing, one M
        solve."""
        prob = self.problem
        M = prob.M
        Mu = M.apply(u_n)
        scale = float(np.linalg.norm(Mu))
        F = []
        if prob.forcing is not None:
            F = [prob.forcing(t_n + self.dt * c) for c in self.tableau.c0]
            scale += self.dt * math.sqrt(sum(f @ f for f in F))
        rhs = []
        for sv in self.solves:
            b = _accumulate(sv.a * Mu, sv.d, F)
            if sv.xc is not None:
                x = sv.xc * u_n
                if F:
                    x += M.solve(_accumulate(sv.xe[0] * F[0], sv.xe[1:],
                                             F[1:]))
                Lx = prob.L.apply(x)
                Lx *= self.dt
                b -= Lx
            rhs.append(b)
        return rhs, scale

    def solve_factors(self, rhs, scale: float):
        """y = sum_j y_j, each y_j solved from rhs[j] to rel_tol times
        min(||rhs_j||, kappa_j scale), kappa_j = eta^2 for a pair and
        eta for a real factor.  Chained solves add M y_{j-1} to rhs[j],
        and y is the last y_j."""
        reports = []
        y = None
        for idx, (sv, b) in enumerate(zip(self.solves, rhs)):
            if self._chained and idx:
                b = b + self.problem.M.apply(y)
            x, rep = solve(sv.op, b, sv.precond, self.outer_cfg,
                           min(float(np.linalg.norm(b)), sv.kappa * scale))
            reports.append(rep)
            if not rep.converged:
                raise FactorSolveFailure(idx, rep)
            if y is None or self._chained:
                y = x
            else:
                y += x
        return y, reports

    def advance(self, u_n: np.ndarray, t_n: float):
        """One step: returns (u_{n+1}, per-factor Krylov reports)."""
        rhs, scale = self.assemble_rhs_z(u_n, t_n)
        y, reports = self.solve_factors(rhs, scale)
        y += self._r_inf * u_n
        return y, reports

    def factor_summary(self):
        """(index, eta, beta, gamma) per factor, in solve order."""
        return [(idx, sv.factor.eta, sv.factor.beta, sv.gamma)
                for idx, sv in enumerate(self.solves)]


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


def advance_symbol(tableau: ButcherTableau, problem: LinearProblem,
                   u_n: np.ndarray, t_n: float, dt: float) -> np.ndarray:
    """The exact step of a circulant problem with M = I, mode by mode:
    with lambda the symbol of L, (I - dt lambda A0) k = f_hat_i
    + lambda u_hat is solved for every Fourier mode in one batched solve,
    and u + dt b^T k is transformed back.  Reference at any n and in 2D,
    where advance_oracle's dense system is out of reach."""
    L = problem.L
    if not (isinstance(L, CirculantOperator) and problem.M.is_identity):
        raise ValueError("advance_symbol needs a circulant L and M = I")
    shape, axes = L.symbol.shape, tuple(range(L.symbol.ndim))

    def fft(v):
        return np.fft.fftn(v.reshape(shape), axes=axes).reshape(-1)

    lam = L.symbol.reshape(-1)
    u_hat = fft(u_n)
    rhs = np.repeat((lam * u_hat)[:, None], tableau.s, axis=1)
    if problem.forcing is not None:
        for i, c in enumerate(tableau.c0):
            rhs[:, i] += fft(problem.forcing(t_n + dt * c))
    system = np.eye(tableau.s) - dt * lam[:, None, None] * tableau.A0
    k = np.linalg.solve(system, rhs[..., None])[..., 0]
    step = np.fft.ifftn((u_hat + dt * (k @ tableau.b0)).reshape(shape),
                        axes=axes)
    return step.real.reshape(-1)


class _BlockTriangularPreconditioner(Preconditioner):
    """Forward substitution with (I x M - dt T x L) for lower-triangular
    T, diagonal blocks applied via per-stage inner preconditioners."""

    def __init__(self, T, problem, dt, inner_kind, inner_params):
        s = T.shape[0]
        super().__init__(s * problem.n)
        self._T = T
        self._p = problem
        self._dt = dt
        # (M - dt T_ii L) x = r is solved as ((1/T_ii) M - dt L) x
        # = r / T_ii, one inner solve per distinct T_ii
        built = {}
        for d in np.diag(T):
            key = round(d, 14)
            if key not in built:
                built[key] = build_inner_preconditioner(
                    inner_kind,
                    shifted_operator(1.0 / d, dt, problem.M, problem.L),
                    **(inner_params or {}))
        self._inner = [built[round(d, 14)] for d in np.diag(T)]

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
        if not 0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt}")
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
        self.outer_cfg = outer_cfg

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
