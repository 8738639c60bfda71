"""Operator, mass-matrix and inner-preconditioner abstractions.

The scaled operator Lhat = dt * M^{-1} L is never formed; every
polynomial evaluation composes M.solve with L.apply.  Inner
preconditioners approximate (gamma*M - dt*L)^{-1} and carry an
application counter so Krylov reports can account for every
preconditioner application, including those inside inner iterations.
A circulant operator also carries its Fourier symbol, which gives an
exact FFT solve and an exact field-of-values certificate.
"""

from functools import cached_property
import warnings

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "LinearOperator",
    "SparseOperator",
    "CirculantOperator",
    "ZeroOperator",
    "MassOperator",
    "IdentityMass",
    "SparseMass",
    "shifted_operator",
    "build_inner_preconditioner",
    "fov_upper_bound",
    "Preconditioner",
    "DimensionMismatch",
    "FactorizationFailure",
    "EigenFailure",
]


class DimensionMismatch(ValueError):
    """Operator/vector dimensions do not agree."""


class FactorizationFailure(RuntimeError):
    """LU factorization hit a (near-)zero pivot."""


class EigenFailure(RuntimeError):
    """An eigensolve failed or could not be run."""


class LinearOperator:
    """Square linear operator of dimension n.

    Subclasses implement apply(v); mat is the assembled sparse form when
    one exists (None for purely matrix-free operators).  symmetric is
    decided once per operator: from the matrix, from the parts of a
    composite operator, False for a matrix-free one.
    """

    symmetric = False

    def __init__(self, n: int):
        self.n = int(n)
        self.mat = None

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

    def apply(self, v):
        return self.mat @ v


class CirculantOperator(SparseOperator):
    """Periodic operator on a grid: the assembled matrix plus its
    eigenvalues, the symbol, in numpy FFT order with the grid's shape.
    The grid vector is flattened in C order, so mat acts as
    ifftn(symbol * fftn(v)).  A circulant is normal, so its field of
    values is the convex hull of the symbol."""

    def __init__(self, mat, symbol):
        super().__init__(mat)
        self.symbol = np.asarray(symbol, dtype=complex)
        if self.symbol.size != self.n:
            raise DimensionMismatch(
                f"symbol of shape {self.symbol.shape} for dimension {self.n}")


class ZeroOperator(LinearOperator):
    symmetric = True

    def __init__(self, n: int):
        super().__init__(n)
        self.mat = sp.csr_matrix((n, n))

    def apply(self, v):
        return np.zeros_like(v)


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
    """Mass matrix with an exact solve."""

    def solve(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @property
    def is_identity(self) -> bool:
        return False


class IdentityMass(MassOperator):
    symmetric = True

    def __init__(self, n: int):
        super().__init__(n)
        self.mat = sp.identity(n, format="csr")

    def apply(self, v):
        return v

    def solve(self, v):
        return v

    @property
    def is_identity(self):
        return True


def _sparse_lu(mat):
    """SuperLU factorization of mat with its defaults: COLAMD column
    ordering and partial pivoting.  Raises FactorizationFailure for an
    exactly singular matrix and for a pivot below 1e-14 of the largest
    absolute row sum."""
    A = sp.csc_matrix(mat)
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise FactorizationFailure(str(exc)) from exc
    _check_pivots(np.abs(lu.U.diagonal()), A)
    return lu


def _check_pivots(pivots, mat):
    """FactorizationFailure when the smallest pivot (LU diagonal or
    symbol modulus) is at most 1e-14 of the largest absolute row sum."""
    row_norm = np.abs(mat).sum(axis=1).max()
    if pivots.min() <= 1e-14 * row_norm:
        raise FactorizationFailure(
            f"near-zero pivot {pivots.min():.3e} (row norm {row_norm:.3e})")


class SparseMass(SparseOperator, MassOperator):
    """Assembled sparse SPD mass matrix; solve via one exact sparse LU."""

    def __init__(self, mat):
        super().__init__(mat)
        self._lu = _sparse_lu(self.mat)

    def solve(self, v):
        return self._lu.solve(v)


# ----------------------------------------------------------------------

def shifted_operator(gamma: float, dt: float, M: MassOperator,
                     L: LinearOperator) -> LinearOperator:
    """The backward-Euler-type operator gamma*M - dt*L.

    Circulant when L is and M is the identity, assembled sparse when
    both inputs expose a sparse form, composed matrix-free otherwise;
    symmetric when M and L are.
    """
    if M.n != L.n:
        raise DimensionMismatch(f"mass dim {M.n} != operator dim {L.n}")
    if isinstance(L, CirculantOperator) and M.is_identity:
        op = CirculantOperator(gamma * M.mat - dt * L.mat,
                               gamma - dt * L.symbol)
    elif M.mat is not None and L.mat is not None:
        op = SparseOperator(gamma * M.mat - dt * L.mat)
    else:
        op = ComposedOperator(L.n, lambda v: gamma * M.apply(v) - dt * L.apply(v))
    op.symmetric = M.symmetric and L.symmetric
    return op


# ----------------------------------------------------------------------
# Inner preconditioners

class Preconditioner:
    """Approximation of op^{-1} with a leaf application counter.  exact
    marks one built on exact solves, so SPD for an SPD operator."""

    kind = "abstract"
    exact = False

    def __init__(self, n: int):
        self.n = n
        self._count = 0

    @property
    def applications(self) -> int:
        return self._count

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ExactSparseLU(Preconditioner):
    """Exact solve through one sparse LU of the assembled operator."""

    kind = "exact_sparse_lu"
    exact = True

    def __init__(self, op: LinearOperator):
        super().__init__(op.n)
        if op.mat is None:
            raise FactorizationFailure("exact factorization needs an assembled matrix")
        self._lu = _sparse_lu(op.mat)

    def apply(self, v):
        self._count += 1
        return self._lu.solve(v)


class ExactFFT(Preconditioner):
    """Exact solve of a circulant operator by two real FFTs: the
    inverse symbol is kept on the rfftn half-spectrum."""

    kind = "exact_fft"
    exact = True

    def __init__(self, op: CirculantOperator):
        super().__init__(op.n)
        _check_pivots(np.abs(op.symbol), op.mat)
        self._shape = op.symbol.shape
        self._axes = tuple(range(op.symbol.ndim))
        self._inv = 1.0 / op.symbol[..., :self._shape[-1] // 2 + 1]

    def apply(self, v):
        self._count += 1
        w = np.fft.rfftn(v.reshape(self._shape)) * self._inv
        return np.fft.irfftn(w, s=self._shape, axes=self._axes).reshape(-1)


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
        off = np.abs(op.mat).sum(axis=1).A1 - d
        if np.any(d < off - 1e-14 * (d + off)):
            warnings.warn(f"{self.kind}: operator is not diagonally dominant; "
                          "relaxation may be a weak preconditioner", stacklevel=3)

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

    def __init__(self, op: LinearOperator, sweeps: int = 1):
        super().__init__(op, sweeps)
        self._lower = sp.csr_matrix(sp.tril(op.mat, k=0))

    def _sweep(self, r):
        return spla.spsolve_triangular(self._lower, r, lower=True)


class InnerKrylov(Preconditioner):
    """GMRES run to a fixed tolerance as a preconditioner that changes
    between applications, optionally accelerating a relaxation
    preconditioner.  Leaf application counts delegate to the wrapped
    preconditioner."""

    kind = "inner_krylov"

    def __init__(self, op: LinearOperator, tol: float = 1e-2,
                 maxit: int = 100, base: Preconditioner | None = None):
        super().__init__(op.n)
        self._op = op
        self.tol = float(tol)
        self.maxit = int(maxit)
        self.base = base

    @property
    def applications(self):
        return self.base.applications if self.base is not None else self._count

    def apply(self, v):
        # local import: krylov depends on this module for the counter protocol
        from .krylov import KrylovConfig, solve

        cfg = KrylovConfig(method="gmres", rel_tol=self.tol,
                           max_iters=self.maxit, restart=self.maxit)
        x, rep = solve(self._op, v, self.base, cfg)
        if self.base is None:
            self._count += rep.iterations
        return x


def build_inner_preconditioner(kind: str, op: LinearOperator,
                               **params) -> Preconditioner:
    """Build a preconditioner of the requested kind for op.

    kind: exact | exact_sparse_lu | jacobi | gauss_seidel | inner_krylov.
    exact is an FFT solve when op is circulant on more than one grid
    axis, where the LU's fill grows superlinearly, and the sparse LU
    otherwise: a 1D periodic banded LU is O(n) per solve and beats two
    FFTs.  exact_sparse_lu always takes the LU.  Relaxation kinds take
    sweeps=k >= 1; inner_krylov takes tol, maxit and an optional base
    preconditioner.
    """
    key = kind.replace("-", "_").lower()
    if key == "exact" and isinstance(op, CirculantOperator) \
            and op.symbol.ndim > 1:
        return ExactFFT(op)
    if key in ("exact", "exact_sparse_lu"):
        return ExactSparseLU(op)
    if key == "jacobi":
        return Jacobi(op, sweeps=params.get("sweeps", 1))
    if key in ("gauss_seidel", "gs"):
        return GaussSeidel(op, sweeps=params.get("sweeps", 1))
    if key == "inner_krylov":
        return InnerKrylov(op, tol=params.get("tol", 1e-2),
                           maxit=params.get("maxit", 100),
                           base=params.get("base"))
    raise ValueError(f"unknown preconditioner kind {kind!r}")


# ----------------------------------------------------------------------

def fov_upper_bound(L: LinearOperator, dense_limit: int = 1024) -> float:
    """max Re W(L) for real L: the largest eigenvalue of (L + L^T)/2.

    Nonpositive return certifies that the field of values lies in the
    closed left half plane.  A circulant is normal, so the value is the
    largest real part of its symbol, exactly.  Otherwise a dense solve
    up to dense_limit; beyond that, Lanczos on the assembled symmetric
    part, shifted positive so the ARPACK relative tolerance is
    meaningful when the true answer is 0.
    """
    if isinstance(L, CirculantOperator):
        return float(np.max(L.symbol.real))
    if L.mat is not None:
        S = (L.mat + L.mat.T) * 0.5
        scale = np.max(np.abs(S.data)) if S.nnz else 0.0
        if scale == 0.0:
            return 0.0
        if L.n <= dense_limit:
            return float(np.linalg.eigvalsh(np.asarray(S.todense()))[-1])
        shift = float(np.abs(S).sum(axis=1).max())  # >= rho(S)
        try:
            val = spla.eigsh(S + shift * sp.identity(L.n), k=1, which="LA",
                             maxiter=10000, tol=1e-12,
                             return_eigenvectors=False)
        except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
            raise EigenFailure(str(exc)) from exc
        return float(val[0]) - shift
    if L.n > dense_limit:
        raise EigenFailure(
            f"matrix-free operator of dim {L.n} > {dense_limit}: "
            "no sparse symmetric part available")
    A = L.to_dense()
    return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
