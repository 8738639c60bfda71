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
   application (for a pair, two inner applications) and the image of
   its result under the operator.  An exact preconditioner is built
   with the factor's operator as its op, so GMRES takes that image from
   the inner solves (linop.pair_system gives the details for a pair)
   and applies the operator only for the true residual; CG and every
   other inner solve apply it every iteration.  The exact inner solve
   of a circulant L with M = I or a periodic mass (the FEM mass) is the
   FFT, in 1D as in 2D: set-up factors nothing, a pair's P M P is one
   Fourier multiplier, and GMRES runs each restart cycle on the weighted
   half-spectrum, so an iteration costs no FFT and a cycle one rfftn
   and one irfftn.  An SDIRK tableau's A0^{-1} is defective: its s
   solves share one operator and are chained, each adding M times the
   previous answer to its rhs;
3. update u_{n+1} = R(inf) u_n + sum_j y_j.

advance_oracle is the one exact reference step: mode by mode for a
circulant L with M = I or a periodic mass, one sparse LU of the full
stage system for any other problem.  A block-preconditioned (GSL / LD)
baseline stepper serves iteration-count comparisons; SDIRK baselines
are IRKStepper runs of their tableaux.  The stage system has one
owner, _StageSystem, that the LU and the block baselines share; it
states its norm, so block solves stop at the floor.
Both steppers share one protocol: factor once at construction for a
fixed dt, then advance(u, t) -> (u, reports) per step, with
factor_summary() naming the rows of the reports.  Both pass the
caller's outer_cfg to every krylov.solve unchanged, and solve picks CG
or GMRES for each solve.  The LU imports scipy.sparse.linalg on its
first call, as linop's factorizations do, so importing the steppers
loads no SuperLU.
"""

from collections import namedtuple
from functools import cached_property
import math

import numpy as np
import scipy.sparse as sp

from .krylov import KrylovConfig, Preconditioner, _norm, solve
from .linop import (DimensionMismatch,
                    FieldOfValuesViolation, IdentityMass, LinearOperator,
                    MassOperator, SparseMass, SparseOperator,
                    _mass_symbol, build_inner_preconditioner,
                    fov_upper_bound, pair_system, shifted_operator)
from .spectral import factor_list, spectral_decompose
from .tableaux import ButcherTableau

# read only by perfbench/tracing.py SETUP_HOOKS; goes with that hook
# entry (ROADMAP item 2)
adjugate_row_polynomials = None

__all__ = [
    "LinearProblem",
    "IRKStepper",
    "BlockStepper",
    "advance_oracle",
    "FactorSolveFailure",
    "SingularSystem",
]


GAMMA_MODES = ("gamma_star", "eta")


class FactorSolveFailure(RuntimeError):
    """An outer Krylov solve for one factor did not converge.  reports
    holds the step's Krylov reports in solve order, up to and including
    the failed one: report = reports[-1], of factor factor_index."""

    def __init__(self, reports):
        self.reports = reports
        self.factor_index = len(reports) - 1
        self.report = report = reports[-1]
        super().__init__(f"factor {self.factor_index} did not converge "
                         f"(final residual {report.final_residual:.3e} "
                         f"after {report.iterations} iterations)")


class SingularSystem(RuntimeError):
    """Stage system, or the LDU of A0, is singular."""


class LinearProblem:
    """Method-of-lines system M u'(t) = L u + f(t).

    L is a SparseOperator (a circulant is one) and M an IdentityMass or
    a SparseMass, so both are assembled; a TypeError otherwise, from
    their types alone, so no lazy matrix is built.  forcing maps t to an
    N-vector (None for f = 0); exact_solution, when available, maps t to
    the exact grid solution.  The left-half-plane condition W(L) <= 0 is
    verified once at construction.
    """

    def __init__(self, M: MassOperator, L: SparseOperator, forcing=None,
                 exact_solution=None):
        if not (isinstance(L, SparseOperator)
                and isinstance(M, (IdentityMass, SparseMass))):
            raise TypeError("L and M must be assembled: got L a "
                            f"{type(L).__name__}, M a {type(M).__name__}")
        if M.n != L.n:
            raise DimensionMismatch(f"mass dim {M.n} != operator dim {L.n}")
        self.M = M
        self.L = L
        self.forcing = forcing
        self.exact_solution = exact_solution
        self.n = L.n
        bound = fov_upper_bound(L)
        tol = 1e-8 * max(1.0, L.norm)
        if bound > tol:
            raise FieldOfValuesViolation(
                f"spatial operator violates W(L) <= 0: max Re W(L) = "
                f"{bound:.3e} > tolerance {tol:.3e} = 1e-8 max(1, ||L||)")


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
            if self._chained and self.solves:
                # the chained solves are real and share one operator
                self.solves.append(self.solves[0]._replace(a=c.real, d=e.real))
                continue
            gamma = f.gamma_star if gamma_mode == "gamma_star" else f.eta
            A_eta = shifted_operator(f.eta, self.dt, M, L)
            # every step applies A_eta, and a pair's rhs applies L, so
            # their matrices are assembled here (a circulant's from its
            # stencil), not in the first step; a circulant A_gamma only
            # the FFT solves never is
            A_eta.mat
            A_gamma = A_eta if gamma == f.eta else \
                shifted_operator(gamma, self.dt, M, L)
            inner = build_inner_preconditioner(inner_kind, A_gamma,
                                               **params)
            if f.is_real:
                sv = FactorSolve(f, gamma, A_eta, inner, f.eta,
                                 c.real, e.real, None, None)
            else:
                L.mat
                op, precond = pair_system(A_eta, inner, M, f.beta,
                                          gamma - f.eta)
                sv = FactorSolve(f, gamma, op, precond, f.eta * f.eta,
                                 f.eta * c.real + f.beta * c.imag,
                                 f.eta * e.real + f.beta * e.imag,
                                 c.real, e.real)
            self.solves.append(sv)
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
        scale = _norm(Mu)
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
                           min(_norm(b), sv.kappa * scale))
            reports.append(rep)
            if not rep.converged:
                raise FactorSolveFailure(reports)
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

class _StageSystem(LinearOperator):
    """The stage system (I x M - dt A0 x L) k = [f(t_n + c_i dt) + L u_n]_i
    on the s N stacked stages, and the update u_n + dt b^T k.  apply is
    matrix-free; only the LU reads mat."""

    def __init__(self, tableau: ButcherTableau, problem: LinearProblem, dt):
        super().__init__(tableau.s * problem.n)
        self.tableau, self.problem, self.dt = tableau, problem, dt

    def rhs(self, u_n, t_n):
        f, Lu_n = self.problem.forcing, self.problem.L.apply(u_n)
        if f is None:
            return np.tile(Lu_n, self.tableau.s)
        return np.concatenate([f(t_n + self.dt * c) + Lu_n
                               for c in self.tableau.c0])

    def apply(self, v):
        K = v.reshape(self.tableau.s, -1)
        LK = np.array([self.problem.L.apply(k) for k in K])
        return np.concatenate([self.problem.M.apply(k) - self.dt * (a @ LK)
                               for k, a in zip(K, self.tableau.A0)])

    @cached_property
    def mat(self):
        return sp.kron(sp.identity(self.tableau.s), self.problem.M.mat) \
            - self.dt * sp.kron(self.tableau.A0, self.problem.L.mat)

    @cached_property
    def norm(self) -> float:
        """The bound ||M|| + dt ||A0||_inf ||L|| from the parts' norms."""
        A0_inf = float(np.abs(self.tableau.A0).sum(axis=1).max())
        return self.problem.M.norm + self.dt * A0_inf * self.problem.L.norm

    def update(self, u_n, k):
        tab = self.tableau
        return u_n + self.dt * (tab.b0 @ k.reshape(tab.s, self.problem.n))


def advance_oracle(tableau: ButcherTableau, problem: LinearProblem,
                   u_n: np.ndarray, t_n: float, dt: float) -> np.ndarray:
    """The exact step u_n + dt sum_i b_i k_i, k solving the stage system
    (I x M - dt A0 x L) k = [f(t_n + c_i dt) + L u_n]_i, at any size:
    mode by mode for a circulant L with M = I or a periodic mass on its
    grid, else by one sparse LU.  Against a 40-digit solve on SDIRK4L
    (forced MMS, n = 1024, dt = 4h) the first is 1.1e-14 off (relative
    2-norm), the LU 4.2e-12."""
    if _mass_symbol(problem.M, problem.L) is not None:
        return _advance_fourier(tableau, problem, u_n, t_n, dt)
    return _advance_lu(tableau, problem, u_n, t_n, dt)


def _advance_lu(tableau, problem, u_n, t_n, dt):
    """advance_oracle by one sparse LU of the (N s x N s) stage matrix."""
    system = _StageSystem(tableau, problem, dt)
    import scipy.sparse.linalg as spla
    try:
        lu = spla.splu(sp.csc_matrix(system.mat))
    except RuntimeError as exc:
        raise SingularSystem(str(exc)) from exc
    return system.update(u_n, lu.solve(system.rhs(u_n, t_n)))


def _advance_fourier(tableau, problem, u_n, t_n, dt):
    """advance_oracle of a circulant L with M = I or a periodic mass on
    its grid: (m I - dt lambda A0) k = f_hat_i + lambda u_hat for every
    mode, lambda the symbol of L and m that of M (1 for M = I), in one
    batched solve, then u + dt b^T k transformed back.  Forming the rhs
    as _StageSystem does moves SDIRK4L at n = 1024 by 2.8e-12."""
    L = problem.L
    shape, axes = L.symbol.shape, tuple(range(L.symbol.ndim))

    def fft(v):
        return np.fft.fftn(v.reshape(shape), axes=axes).reshape(-1)

    lam = L.symbol.reshape(-1)
    u_hat = fft(u_n)
    rhs = np.repeat((lam * u_hat)[:, None], tableau.s, axis=1)
    if problem.forcing is not None:
        for i, c in enumerate(tableau.c0):
            rhs[:, i] += fft(problem.forcing(t_n + dt * c))
    m = np.reshape(_mass_symbol(problem.M, L), (-1, 1, 1))
    system = m * np.eye(tableau.s) - dt * lam[:, None, None] * tableau.A0
    k = np.linalg.solve(system, rhs[..., None])[..., 0]
    step = np.fft.ifftn((u_hat + dt * (k @ tableau.b0)).reshape(shape),
                        axes=axes)
    return step.real.reshape(-1)


class _BlockTriangularPreconditioner(Preconditioner):
    """Forward substitution with (I x M - dt T x L) for lower-triangular
    T, diagonal blocks applied via per-stage inner preconditioners."""

    def __init__(self, T, system, inner_kind, inner_params):
        super().__init__(system.n)
        self._T, self._system = T, system
        prob = system.problem
        # (M - dt T_ii L) x = r is solved as ((1/T_ii) M - dt L) x
        # = r / T_ii, one inner solve per stage
        self._inner = [build_inner_preconditioner(
            inner_kind, shifted_operator(1.0 / d, system.dt, prob.M, prob.L),
            **(inner_params or {})) for d in np.diag(T)]

    @property
    def applications(self):
        return sum(pc.applications for pc in self._inner)

    def apply(self, v):
        s, dt, L = self._T.shape[0], self._system.dt, self._system.problem.L
        R = v.reshape(s, -1)
        X = np.zeros_like(R)
        LX = np.zeros_like(R)
        for i in range(s):
            r = R[i].copy()
            for j in range(i):
                r += dt * self._T[i, j] * LX[j]
            X[i] = self._inner[i].apply(r / self._T[i, i])
            if i + 1 < s:
                LX[i] = L.apply(X[i])
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
        self.tableau, self.problem, self.dt = tableau, problem, float(dt)
        T = np.tril(tableau.A0) if variant == "GSL" else _ldu_lower(tableau.A0)
        problem.L.mat   # every stage-system product applies L: assembled here
        self._system = _StageSystem(tableau, problem, self.dt)
        self._precond = _BlockTriangularPreconditioner(
            T, self._system, inner_kind, inner_params)
        self.outer_cfg = outer_cfg

    def advance(self, u_n: np.ndarray, t_n: float):
        """One step: returns (u_{n+1}, [the stage-system Krylov report])."""
        k, rep = solve(self._system, self._system.rhs(u_n, t_n),
                       self._precond, self.outer_cfg)
        if not rep.converged:
            raise FactorSolveFailure([rep])
        return self._system.update(u_n, k), [rep]

    def factor_summary(self):
        """One row for the single stage-system solve; it has no
        (eta, beta, gamma)."""
        return [(0, math.nan, math.nan, math.nan)]
