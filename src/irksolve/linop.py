"""Operators, masses, inner preconditioners, and all facts of a shift
gamma*M - dt*L: structure, norm, exact solve, pair system, W(L) bound.

The scaled operator Lhat = dt * M^{-1} L is never formed; every
polynomial evaluation composes M.solve with L.apply.  Inner
preconditioners approximate (gamma*M - dt*L)^{-1}.  They implement
krylov.Preconditioner, re-exported here, and carry its application
counter so Krylov reports can account for every preconditioner
application, including those inside inner iterations.  An exact one
names the operator it solves as its op, and GMRES on that op takes the
image of each direction from the solve instead of applying the
operator.  A circulant operator also carries its Fourier symbol, which
gives its exact solve (by FFT, on any grid), an exact field-of-values
certificate, its symmetry, its norm and the pivot scale of that solve,
so no circulant is factored.  A circulant's matrix is assembled only
when something applies it: the shift that only the FFT solves never is.
A shift is circulant only when M = I.

A conjugate pair eta +- i beta is the real system M Q_eta
= (eta M - dt L) M^{-1} (eta M - dt L) + beta^2 M, preconditioned by
P M P for P ~ (gamma M - dt L)^{-1}; pair_system builds both.  With P
exact, eta M - dt L = P^{-1} - delta M for delta = gamma - eta, so
GMRES takes the image M Q_eta (P M P v) = v - 2 delta M P v
+ c M P M P v, c = delta^2 + beta^2, from the two inner solves: on
vectors in the sandwich, and in ExactFFT.square (M = I) as the
multiplier c inv^2 - 2 delta inv of the inverse symbol inv.
"""

from collections import namedtuple
from functools import cached_property
import sys
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .krylov import KrylovConfig, Preconditioner, solve

__all__ = [
    "LinearOperator",
    "SparseOperator",
    "CirculantOperator",
    "MassOperator",
    "IdentityMass",
    "SparseMass",
    "shifted_operator",
    "build_inner_preconditioner",
    "pair_system",
    "fov_upper_bound",
    "Preconditioner",
    "DimensionMismatch",
    "FactorizationFailure",
    "EigenFailure",
    "FieldOfValuesViolation",
]


class DimensionMismatch(ValueError):
    """Operator/vector dimensions do not agree."""


class FactorizationFailure(RuntimeError):
    """LU factorization hit a (near-)zero pivot."""


class EigenFailure(RuntimeError):
    """An eigensolve failed or could not be run."""


class FieldOfValuesViolation(ValueError):
    """max Re W(L) > 1e-8 max(1, ||L||), LinearProblem's tolerance."""


class LinearOperator:
    """Square linear operator of dimension n.

    Subclasses implement apply(v); mat is the assembled sparse form when
    one exists (None for purely matrix-free operators).  symmetric is
    decided once per operator: from the matrix, from the symbol of a
    circulant, from the parts of a composite operator, False for a
    matrix-free one.  norm is ||op||, the one scale of krylov.solve's
    residual floor, the exact solve's pivot check and the W(L) <= 0
    tolerance: the infinity-norm of an assembled matrix, the exact
    2-norm of a circulant, a bound built from the parts of a composite
    operator, and 0 (no floor) when nothing is known.
    """

    symmetric = False
    norm = 0.0
    mat = None

    def __init__(self, n: int):
        self.n = int(n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        if self.mat is not None:
            return np.asarray(self.mat.todense())
        return np.column_stack([self.apply(e) for e in np.eye(self.n)])


class SparseOperator(LinearOperator):
    """Operator backed by an assembled scipy sparse matrix."""

    def __init__(self, mat):
        mat = sp.csr_matrix(mat)
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {mat.shape}")
        super().__init__(mat.shape[0])
        self.mat = mat

    @cached_property
    def symmetric(self) -> bool:
        """mat == mat^T to 1e-12 relative, tested on first use."""
        d = self.mat - self.mat.T
        if d.nnz == 0:
            return True
        scale = np.max(np.abs(self.mat.data))
        return bool(np.max(np.abs(d.data)) <= 1e-12 * scale)

    @cached_property
    def norm(self) -> float:
        """The infinity-norm, the largest absolute row sum."""
        return float(_abs_row_sums(self.mat).max(initial=0.0))

    def apply(self, v):
        return self.mat @ v


def _abs_row_sums(mat):
    """sum_j |m_ij| for each row i of a sparse matrix."""
    return np.abs(mat).sum(axis=1).A1


class CirculantOperator(SparseOperator):
    """Periodic operator on a grid: the matrix plus its eigenvalues, the
    symbol, in numpy FFT order with the grid's shape.  The grid vector
    is flattened in C order, so mat acts as ifftn(symbol * fftn(v)).  A
    circulant is normal, so its field of values is the convex hull of
    the symbol; symmetry and norm come from the symbol too.

    mat is the assembled matrix, or a function that assembles it: then
    it is assembled on first use (an apply, a factorization), so an
    operator that only the FFT solves never holds one."""

    def __init__(self, mat, symbol):
        self.symbol = np.asarray(symbol, dtype=complex)
        if callable(mat):
            LinearOperator.__init__(self, self.symbol.size)
            self._assemble = mat
        else:
            super().__init__(mat)
        if self.symbol.size != self.n:
            raise DimensionMismatch(
                f"symbol of shape {self.symbol.shape} for dimension {self.n}")

    @cached_property
    def mat(self):
        """The matrix, assembled on first use."""
        return sp.csr_matrix(self._assemble())

    @cached_property
    def symmetric(self) -> bool:
        """A real circulant is symmetric exactly when its symbol is
        real: here to 1e-12 of the symbol's largest modulus."""
        return bool(np.abs(self.symbol.imag).max() <= 1e-12 * self.norm)

    @cached_property
    def norm(self) -> float:
        """The 2-norm, exactly: the largest modulus of the symbol."""
        return float(np.abs(self.symbol).max())


class ComposedOperator(LinearOperator):
    """Matrix-free wrapper around a callable."""

    def __init__(self, n: int, fn):
        super().__init__(n)
        self._fn = fn

    def apply(self, v):
        return self._fn(v)


# ----------------------------------------------------------------------
# Mass operators

class MassOperator(LinearOperator):
    """Mass matrix with an exact solve.  inv_norm bounds ||M^{-1}||, 0
    when no bound is known."""

    inv_norm = 0.0
    is_identity = False

    def solve(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityMass(MassOperator):
    symmetric = True
    norm = 1.0
    inv_norm = 1.0
    is_identity = True

    def __init__(self, n: int):
        super().__init__(n)
        self.mat = sp.identity(n, format="csr")

    def apply(self, v):
        return v

    def solve(self, v):
        return v


def _sparse_lu(op):
    """SuperLU factorization of op's matrix with its defaults: COLAMD
    column ordering and partial pivoting.  Raises FactorizationFailure
    for an exactly singular matrix and for a pivot at most 1e-14 of
    op.norm."""
    try:
        lu = spla.splu(sp.csc_matrix(op.mat))
    except RuntimeError as exc:
        raise FactorizationFailure(str(exc)) from exc
    _check_pivots(np.abs(lu.U.diagonal()), op.norm)
    return lu


def _check_pivots(pivots, scale):
    """FactorizationFailure when the smallest pivot (LU diagonal or
    symbol modulus) is at most 1e-14 of scale, the operator's norm."""
    if pivots.min() <= 1e-14 * scale:
        raise FactorizationFailure(
            f"near-zero pivot {pivots.min():.3e} (scale {scale:.3e})")


class SparseMass(SparseOperator, MassOperator):
    """Assembled sparse SPD mass matrix; solve via one exact sparse LU."""

    def __init__(self, mat):
        super().__init__(mat)
        self._lu = _sparse_lu(self)

    @cached_property
    def inv_norm(self) -> float:
        """1 / min_i (2 m_ii - sum_j |m_ij|), the Gershgorin bound on
        ||M^{-1}|| for an SPD M (3/h for the linear-FEM mass); 0 when
        M is not diagonally dominant."""
        gap = float(np.min(2.0 * self.mat.diagonal()
                           - _abs_row_sums(self.mat)))
        return 1.0 / gap if gap > 0.0 else 0.0

    def solve(self, v):
        return self._lu.solve(v)


# ----------------------------------------------------------------------

def shifted_operator(gamma: float, dt: float, M: MassOperator,
                     L: LinearOperator) -> LinearOperator:
    """The backward-Euler-type operator gamma*M - dt*L.

    Circulant when L is and M is the identity, with its matrix
    assembled on first use; assembled sparse when both inputs expose a
    sparse form, composed matrix-free otherwise; symmetric when M and L
    are.
    """
    if M.n != L.n:
        raise DimensionMismatch(f"mass dim {M.n} != operator dim {L.n}")
    if isinstance(L, CirculantOperator) and M.is_identity:
        op = CirculantOperator(lambda: gamma * M.mat - dt * L.mat,
                               gamma - dt * L.symbol)
    elif M.mat is not None and L.mat is not None:
        op = SparseOperator(gamma * M.mat - dt * L.mat)
    else:
        op = ComposedOperator(L.n, lambda v: gamma * M.apply(v) - dt * L.apply(v))
    op.symmetric = M.symmetric and L.symmetric
    return op


# ----------------------------------------------------------------------
# Inner preconditioners

class ExactSparseLU(Preconditioner):
    """Exact solve through one sparse LU of the assembled operator."""

    def __init__(self, op: LinearOperator):
        super().__init__(op.n)
        if op.mat is None:
            raise FactorizationFailure("exact factorization needs an assembled matrix")
        self.op = op
        self._lu = _sparse_lu(op)

    def apply(self, v):
        self._count += 1
        return self._lu.solve(v)


class ExactFFT(Preconditioner):
    """Exact solve of a circulant operator on any grid by two real
    FFTs: the inverse symbol is kept on the rfftn half-spectrum.

    square makes it a pair's P^2 (module docstring): one round trip,
    not two, per outer iteration, counted as two applications.

    GMRES on op keeps its directions on the half-spectrum:
    apply_with_image returns the direction vh = rfftn(v) with its image
    under op, and combine maps sum_j y_j vh_j back by one irfftn per
    restart cycle.  A GMRES iteration then costs one rfftn and one
    irfftn on a pair, and one rfftn on a real factor or an SDIRK stage.

    It reads only op's symbol and norm, so op's matrix is not assembled
    for it.
    """

    def __init__(self, op: CirculantOperator):
        super().__init__(op.n)
        _check_pivots(np.abs(op.symbol), op.norm)
        self.op = op
        self._shape = op.symbol.shape
        self._axes = tuple(range(op.symbol.ndim))
        self._inv = 1.0 / op.symbol[..., :self._shape[-1] // 2 + 1]
        self._image = None
        self._apps = 1

    def square(self, pair_op: LinearOperator, delta: float, c: float):
        """Make this solve of gamma - dt L the pair preconditioner P^2
        for pair_op = (op - delta)^2 + c - delta^2, delta = gamma - eta."""
        self._image = c * self._inv ** 2 - 2.0 * delta * self._inv
        self._inv = self._inv ** 2
        self._apps = 2
        self.op = pair_op
        return self

    def _irfftn(self, vh):
        return np.fft.irfftn(vh, s=self._shape, axes=self._axes).reshape(-1)

    def apply(self, v, image=False):
        """The solve of v in one rfftn/irfftn round trip.  With image,
        GMRES's direction of it instead, so that every application is
        one apply call: (vh, w) for vh = rfftn(v) and w its image under
        op, v itself with no irfftn unless squared."""
        self._count += self._apps
        vh = np.fft.rfftn(v.reshape(self._shape))
        if not image:
            return self._irfftn(vh * self._inv)
        if self._image is None:
            return vh, v
        return vh, v + self._irfftn(vh * self._image)

    def apply_with_image(self, v):
        return self.apply(v, image=True)

    def combine(self, D, y):
        """sum_j y_j z_j in one irfftn from the half-spectra D of the
        v_j."""
        return self._irfftn(self._inv * np.tensordot(y, D, 1))


def _warn_at_caller(message):
    """Warn at the first frame outside this module: the solve's builder."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


class _Relaxation(Preconditioner):
    """k sweeps x <- x + B (v - A x) from a zero initial guess, where the
    subclass's _sweep applies B, an approximate inverse of the assembled
    operator A."""

    def __init__(self, op: LinearOperator, sweeps: int = 1):
        super().__init__(op.n)
        if op.mat is None:
            raise ValueError(f"{self.kind} needs an assembled matrix")
        self.sweeps = int(sweeps)
        if self.sweeps < 1:
            raise ValueError(f"{self.kind} needs at least one sweep, "
                             f"got {self.sweeps}")
        self._op = op
        d = np.abs(op.mat.diagonal())
        off = _abs_row_sums(op.mat) - d
        bad = np.flatnonzero(d < off - 1e-14 * (d + off))
        if bad.size:
            i = bad[np.argmin(d[bad] / off[bad])]
            _warn_at_caller(
                f"{self.kind}: operator is not diagonally dominant (row {i}: "
                f"|a_ii| / sum_j!=i |a_ij| = {d[i] / off[i]:.6g}); "
                "relaxation may be a weak preconditioner")

    def _sweep(self, r):
        raise NotImplementedError

    def apply(self, v):
        self._count += self.sweeps
        x = self._sweep(v)
        for _ in range(self.sweeps - 1):
            x = x + self._sweep(v - self._op.apply(x))
        return x


class Jacobi(_Relaxation):
    """k weighted-Jacobi sweeps (weight 1)."""

    kind = "jacobi"

    def __init__(self, op: LinearOperator, sweeps: int = 1):
        super().__init__(op, sweeps)
        self._dinv = 1.0 / op.mat.diagonal()

    def _sweep(self, r):
        return self._dinv * r


class GaussSeidel(_Relaxation):
    """k forward Gauss-Seidel sweeps."""

    kind = "gauss_seidel"
    symmetric = False

    def __init__(self, op: LinearOperator, sweeps: int = 1):
        super().__init__(op, sweeps)
        self._lower = sp.csr_matrix(sp.tril(op.mat, k=0))

    def _sweep(self, r):
        return spla.spsolve_triangular(self._lower, r, lower=True)


class InnerKrylov(Preconditioner):
    """Unpreconditioned GMRES run to a fixed tolerance, a preconditioner
    that changes between applications; each inner iteration counts as
    one application."""

    symmetric = False

    def __init__(self, op: LinearOperator, tol: float = 1e-2,
                 maxit: int = 100):
        super().__init__(op.n)
        op.mat  # applied by every application: assembled now
        self._op = op
        self._cfg = KrylovConfig(method="gmres", rel_tol=float(tol),
                                 max_iters=int(maxit), restart=int(maxit))

    def apply(self, v):
        x, rep = solve(self._op, v, None, self._cfg)
        self._count += rep.iterations
        return x


def _exact(op: LinearOperator) -> Preconditioner:
    """The FFT solve when op is circulant, on any number of grid axes;
    the sparse LU otherwise."""
    return (ExactFFT if isinstance(op, CirculantOperator) else ExactSparseLU)(op)


#: One kind of inner solve: build(op, **params) makes it, params maps
#: its positional spec parameters, in order, to their casts, and
#: spellings are its other (lower-case) spec names.
InnerSolve = namedtuple("InnerSolve", "build params spellings")

#: canonical kind -> its row; a new inner solve is one class and one row
INNER_SOLVES = {
    "exact": InnerSolve(_exact, {}, ()),
    "jacobi": InnerSolve(Jacobi, {"sweeps": int}, ()),
    "gauss_seidel": InnerSolve(GaussSeidel, {"sweeps": int},
                               ("gs", "gauss-seidel")),
    "inner_krylov": InnerSolve(InnerKrylov, {"tol": float, "maxit": int},
                               ("krylov", "inner-krylov")),
}


def parse_inner(spec: str, dim=None):
    """Map an inner-solve spec 'name[:p1[:p2]]' to (kind, params), the
    arguments of build_inner_preconditioner: the one reader of the spec.

    name is a kind of INNER_SOLVES or one of its spellings, in any case,
    and the parameters are the row's, in order: one left out takes the
    builder's default, one too many is a ValueError.  dim is ignored; it
    is kept only because the benchmark workloads still pass it.
    """
    name, *args = spec.split(":")
    kind = next((k for k, row in INNER_SOLVES.items()
                 if name.lower() in (k, *row.spellings)), None)
    if kind is None:
        raise ValueError(f"unknown inner preconditioner spec {spec!r}")
    fields = INNER_SOLVES[kind].params
    if len(args) > len(fields):
        raise ValueError(f"inner preconditioner spec {spec!r} takes at most "
                         f"{len(fields)} parameter(s)")
    return kind, {key: fields[key](a) for key, a in zip(fields, args)}


def build_inner_preconditioner(kind: str, op: LinearOperator,
                               **params) -> Preconditioner:
    """The inner solve of kind, a key of INNER_SOLVES (what parse_inner
    resolves a spec to), for op; params go to the row's builder."""
    if kind not in INNER_SOLVES:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    return INNER_SOLVES[kind].build(op, **params)


# ----------------------------------------------------------------------

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
        """Exact from the symbol for a circulant A_eta (so M = I), else
        the bound ||A_eta||^2 ||M^{-1}|| + beta^2 ||M|| (0 when
        ||M^{-1}|| has none)."""
        A, M = self.A_eta, self.M
        if isinstance(A, CirculantOperator):
            return float(np.abs(A.symbol ** 2 + self._b2).max())
        if not M.inv_norm:
            return 0.0
        return A.norm ** 2 * M.inv_norm + self._b2 * M.norm

    def apply(self, v):
        w = self.A_eta.apply(self.M.solve(self.A_eta.apply(v)))
        return w + self._b2 * self.M.apply(v)


class _SandwichPreconditioner(Preconditioner):
    """P M P, the conjugate-pair preconditioner for op = M Q_eta: with
    an exact P, an exact solve of op (the P_gamma of the condition-number
    theory), whose apply_with_image gives the module docstring's image."""

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


def pair_system(A_eta: LinearOperator, P: Preconditioner, M: MassOperator,
                beta: float, delta: float):
    """(M Q_eta, P M P) for the pair eta +- i beta, A_eta = eta M - dt L
    and P a solve of gamma M - dt L, delta = gamma - eta: an FFT solve
    (so M = I) squared in place, any other P wrapped."""
    op = _QuadraticSystem(A_eta, M, beta)
    c = delta * delta + beta * beta
    if isinstance(P, ExactFFT):
        return op, P.square(op, delta, c)
    return op, _SandwichPreconditioner(P, op, M, delta, c)


# ----------------------------------------------------------------------

#: largest dimension for which fov_upper_bound takes a dense eigensolve
DENSE_LIMIT = 1024


def fov_upper_bound(L: LinearOperator) -> float:
    """max Re W(L) for real L: the largest eigenvalue of (L + L^T)/2.

    Nonpositive return certifies that the field of values lies in the
    closed left half plane.  A circulant is normal, so the value is the
    largest real part of its symbol, exactly.  Otherwise a dense solve
    of L.to_dense() up to DENSE_LIMIT, assembled or matrix-free; beyond
    that, Lanczos on the assembled symmetric part, shifted positive so
    the ARPACK relative tolerance is meaningful when the true answer is
    0, and EigenFailure for a matrix-free L.
    """
    if isinstance(L, CirculantOperator):
        return float(np.max(L.symbol.real))
    if L.n <= DENSE_LIMIT:
        A = L.to_dense()
        return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    if L.mat is None:
        raise EigenFailure(
            f"matrix-free operator of dim {L.n} > {DENSE_LIMIT}: "
            "no sparse symmetric part available")
    S = (L.mat + L.mat.T) * 0.5
    shift = float(np.abs(S).sum(axis=1).max())  # >= rho(S)
    if shift == 0.0:
        return 0.0
    try:
        val = spla.eigsh(S + shift * sp.identity(L.n), k=1, which="LA",
                         maxiter=10000, tol=1e-12,
                         return_eigenvectors=False)
    except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
        raise EigenFailure(str(exc)) from exc
    return float(val[0]) - shift
