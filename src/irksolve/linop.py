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
so no circulant is factored.  A circulant holds its stencil, one
coefficient per offset (one offset per grid axis), and its matrix is
assembled from the stencil by stencil_matrix only when something
applies it: the shift that only the FFT solves never is.  A periodic
mass (the FEM mass) keeps its stencil too.  With a circulant L and M = I
or such a mass, the shift's stencil is combined from M's and L's; it is
circulant only when M = I, and assembled by stencil_matrix otherwise.
Symmetry comes from the symbol or the stencil, and row sums are added
without building |M|, so set-up does no sparse-matrix arithmetic on
these operators.

An assembled matrix is a float64 CSR matrix, and its apply is one call
of scipy's csr_matvec kernel on the operator's own arrays: the kernel
that mat @ v reaches, without scipy's per-call dispatch.
scipy.sparse.linalg (SuperLU, ARPACK) is imported only inside the sparse
LU, the Gauss-Seidel solve and the Lanczos bounds (on W(L), and on
||M^{-1}|| of a mass already factored), so a circulant run with the FFT
solve never loads it.

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
from functools import cached_property, lru_cache
import math
import sys
import warnings

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .krylov import DimensionMismatch, KrylovConfig, Preconditioner, solve

__all__ = [
    "LinearOperator",
    "SparseOperator",
    "CirculantOperator",
    "canonical_stencil",
    "stencil_matrix",
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


class FactorizationFailure(RuntimeError):
    """LU factorization hit a (near-)zero pivot."""


class EigenFailure(RuntimeError):
    """An eigensolve failed or could not be run."""


class FieldOfValuesViolation(ValueError):
    """max Re W(L) > 1e-8 max(1, ||L||), LinearProblem's tolerance."""


class LinearOperator:
    """Square linear operator of dimension n.

    Subclasses implement apply(v).  Every L, M and shift is assembled,
    with its matrix as mat; only the pair system M Q_eta and
    BlockStepper's ComposedOperator are matrix-free, with no mat.
    symmetric is decided once per operator: from the matrix, from the
    symbol of a circulant, from the parts of a composite operator, False
    for a composed one.  norm is ||op||, the one scale of krylov.solve's
    residual floor, the exact solve's pivot check and the W(L) <= 0
    tolerance: the infinity-norm of an assembled matrix, the exact
    2-norm of a circulant, a bound built from the parts of a composite
    operator, and 0 (no floor) when nothing is known.
    """

    symmetric = False
    norm = 0.0

    def __init__(self, n: int):
        self.n = int(n)

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


def _real_csr(mat):
    """mat as a float64 CSR matrix; a complex one is a ValueError."""
    mat = sp.csr_matrix(mat)
    if mat.dtype.kind == "c":
        raise ValueError(f"operator matrix must be real, got {mat.dtype}")
    return mat.astype(np.float64, copy=False)


class SparseOperator(LinearOperator):
    """Operator backed by an assembled sparse matrix, kept as float64
    CSR."""

    def __init__(self, mat):
        mat = _real_csr(mat)
        if mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"expected square matrix, got {mat.shape}")
        super().__init__(mat.shape[0])
        self.mat = mat

    @cached_property
    def symmetric(self) -> bool:
        """mat == mat^T to 1e-12 relative, tested on first use."""
        return _skew_is_small((self.mat - self.mat.T).data, self.mat.data)

    @cached_property
    def norm(self) -> float:
        """The infinity-norm, the largest absolute row sum."""
        return float(_abs_row_sums(self.mat).max(initial=0.0))

    def apply(self, v):
        """mat @ v by one csr_matvec call.  The kernel checks no bounds,
        so v must have shape (n,); a complex v makes it raise."""
        n = self.n
        if v.shape != (n,):
            raise DimensionMismatch(
                f"vector of shape {v.shape} for dimension {n}")
        y = np.zeros(n)
        mat = self.mat
        csr_matvec(n, n, mat.indptr, mat.indices, mat.data, v, y)
        return y


def _skew_is_small(skew, entries) -> bool:
    """The symmetry test: the entries of mat - mat^T are at most 1e-12
    of the largest entry of mat in modulus (none at all passes)."""
    skew = np.abs(skew)
    return not skew.size or bool(skew.max() <= 1e-12 * np.abs(entries).max())


def _abs_row_sums(mat):
    """sum_j |m_ij| for each row i of a CSR matrix, bit for bit what
    scipy's abs(mat).sum(axis=1) computes, without building |mat|:
    duplicates are summed in place first, as abs does, then one
    np.add.reduceat over |data| adds each nonempty row.  csr_matvec on
    |data| and ones adds a row of three or more entries in another
    order, which would move norm and inv_norm in the last bits."""
    mat.sum_duplicates()
    sums = np.zeros(mat.shape[0])
    rows = np.flatnonzero(np.diff(mat.indptr))
    sums[rows] = np.add.reduceat(np.abs(mat.data), mat.indptr[rows])
    return sums


class CirculantOperator(SparseOperator):
    """Periodic operator on a grid: its stencil plus its eigenvalues, the
    symbol, in numpy FFT order with the grid's shape.  The grid vector
    is flattened in C order, so mat acts as ifftn(symbol * fftn(v)).  A
    circulant is normal, so its field of values is the convex hull of
    the symbol; symmetry and norm come from the symbol too.

    stencil maps an offset, one integer per grid axis, to its
    coefficient; (offset, coefficient) pairs are taken too.  It is kept
    in canonical_stencil's form, and mat is assembled from it by
    stencil_matrix on first use (an apply, a factorization), so an
    operator that only the FFT solves never holds one."""

    def __init__(self, stencil, symbol):
        self.symbol = np.asarray(symbol, dtype=complex)
        LinearOperator.__init__(self, self.symbol.size)
        self.stencil = canonical_stencil(stencil, self.symbol.shape)

    @cached_property
    def mat(self):
        """The matrix, assembled from the stencil on first use."""
        return _stencil_csr(self.stencil, self.symbol.shape)

    @cached_property
    def symmetric(self) -> bool:
        """A real circulant is symmetric exactly when its symbol is
        real: here to 1e-12 of the symbol's largest modulus."""
        return bool(np.abs(self.symbol.imag).max() <= 1e-12 * self.norm)

    @cached_property
    def norm(self) -> float:
        """The 2-norm, exactly: the largest modulus of the symbol."""
        return float(np.abs(self.symbol).max())


def _reduced(offset, shape):
    """offset, one integer per grid axis, reduced modulo the grid to its
    representative nearest zero."""
    return tuple((int(o) + n // 2) % n - n // 2 for o, n in zip(offset, shape))


def canonical_stencil(stencil, shape) -> dict:
    """The canonical form of a stencil on a periodic grid of the given
    shape: each offset reduced modulo the grid to its representative
    nearest zero, the coefficients of offsets that meet summed in order,
    exact zeros dropped, the offsets sorted and every coefficient a
    float.  stencil maps an offset, one integer per grid axis, to its
    coefficient, or is a sequence of (offset, coefficient) pairs; a
    complex coefficient is a ValueError."""
    summed = {}
    pairs = stencil.items() if hasattr(stencil, "items") else stencil
    for offset, c in pairs:
        if len(offset) != len(shape):
            raise DimensionMismatch(
                f"offset {offset} on a grid of shape {shape}")
        key = _reduced(offset, shape)
        summed[key] = summed[key] + c if key in summed else c
    keys = sorted(k for k, c in summed.items() if c != 0)
    coeffs = np.array([summed[k] for k in keys])
    if coeffs.dtype.kind == "c":
        raise ValueError(f"stencil must be real, got {coeffs.dtype}")
    return dict(zip(keys, coeffs.astype(np.float64).tolist()))


def stencil_matrix(stencil, shape) -> sp.csr_matrix:
    """The float64 CSR matrix of a stencil, in any form canonical_stencil
    takes, on a periodic grid of the given shape, flattened in C order:
    row i holds c in the column of grid point i + o, modulo the grid,
    for each offset o -> c.  These are the arrays scipy's sparse sums
    and products give for the same matrix, int32 indices included.  The
    index arrays are _pattern's, shared with every matrix of the same
    offsets; only data is the matrix's own."""
    return _stencil_csr(canonical_stencil(stencil, shape), shape)


def _stencil_csr(stencil, shape):
    """stencil_matrix of a stencil already in canonical form."""
    indices, indptr, rows, order = _pattern(tuple(stencil), tuple(shape))
    coeffs = np.fromiter(stencil.values(), np.float64, len(stencil))
    data = np.tile(coeffs, (indptr.size - 1, 1))
    data[rows] = coeffs[order]
    return sp.csr_matrix((data.reshape(-1), indices, indptr),
                         shape=(indptr.size - 1,) * 2)


@lru_cache(maxsize=8)
def _pattern(offsets, shape):
    """(indices, indptr, rows, order), read-only, of the CSR matrix of
    sorted, reduced offsets on a grid: every row holds one entry per
    offset, in the offsets' order, which is column order in each row
    whose stencil stays inside the grid; only the rows that wrap round
    it are sorted, row j of order being the sort of rows[j].  Kept per
    process, so L and every circulant shift of it with the same offsets,
    at any dt and in any tableau, share one pattern."""
    size, k = math.prod(shape), len(offsets)
    idx = np.int32 if size * k < 2 ** 31 else np.int64
    offsets = np.array(offsets, dtype=idx).reshape(k, len(shape))
    cols, wraps, stride = np.zeros(k, dtype=idx), False, size
    for a, n in enumerate(shape):
        stride //= n
        o, i = offsets[:, a], np.arange(n, dtype=idx)
        along = [n if j == a else 1 for j in range(len(shape))]
        cols = cols + ((i[:, None] + o) % n * stride).reshape(along + [k])
        wraps = wraps | ((i + o.min(initial=0) < 0)
                         | (i + o.max(initial=0) >= n)).reshape(along)
    cols = cols.reshape(size, k)
    rows = np.flatnonzero(wraps)
    order = np.argsort(cols[rows], axis=1)
    cols[rows] = np.take_along_axis(cols[rows], order, axis=1)
    out = (cols.reshape(-1), k * np.arange(size + 1, dtype=idx), rows, order)
    for a in out:
        a.flags.writeable = False
    return out


class ComposedOperator(LinearOperator):
    """Matrix-free wrapper around a callable: BlockStepper's stage operator."""

    def __init__(self, n: int, fn):
        super().__init__(n)
        self._fn = fn

    def apply(self, v):
        return self._fn(v)


# ----------------------------------------------------------------------
# Mass operators

class MassOperator(LinearOperator):
    """Mass matrix with an exact solve.  inv_norm bounds ||M^{-1}||.  A
    periodic mass keeps its canonical stencil and the shape of its grid;
    stencil and grid are None for any other."""

    is_identity = False
    stencil = grid = None

    def solve(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class IdentityMass(MassOperator):
    symmetric = True
    norm = 1.0
    inv_norm = 1.0
    is_identity = True

    @cached_property
    def mat(self):
        """The identity as CSR, built on first use: the stage-system
        oracle and a shift with a non-circulant L read it, a circulant
        shift never does."""
        return sp.identity(self.n, format="csr")

    def apply(self, v):
        return v

    def solve(self, v):
        return v


def _sparse_lu(op):
    """SuperLU factorization of op's matrix with its defaults: COLAMD
    column ordering and partial pivoting.  Raises FactorizationFailure
    for an exactly singular matrix and for a pivot at most 1e-14 of
    op.norm."""
    import scipy.sparse.linalg as spla
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

    @classmethod
    def from_stencil(cls, stencil, shape):
        """The mass of a stencil on a periodic grid, assembled by
        stencil_matrix, that keeps its canonical stencil and the grid's
        shape: its symmetry is read from the stencil, and a shift with a
        circulant L combines the two stencils."""
        stencil = canonical_stencil(stencil, shape)
        mass = cls(_stencil_csr(stencil, shape))
        mass.stencil, mass.grid = stencil, tuple(shape)
        return mass

    @cached_property
    def symmetric(self) -> bool:
        """The matrix test, read from the stencil when the mass keeps
        one: mat - mat^T holds c_o - c_{-o} at offset o."""
        if self.stencil is None:
            return super().symmetric
        s = self.stencil
        skew = [c - s.get(_reduced([-o for o in off], self.grid), 0.0)
                for off, c in s.items()]
        return _skew_is_small(skew, list(s.values()))

    @cached_property
    def inv_norm(self) -> float:
        """||M^{-1}|| for an SPD M, never 0: the Gershgorin bound
        1 / min_i (2 m_ii - sum_j |m_ij|) when that gap is positive (3/h
        for the linear-FEM mass), else 1 / lambda_min, by a dense
        eigensolve up to DENSE_LIMIT and beyond it by Lanczos on M^{-1}
        through the mass's own LU, from a seeded random start so that
        one M gives one value.  EigenFailure when ARPACK fails."""
        gap = float(np.min(2.0 * self.mat.diagonal()
                           - _abs_row_sums(self.mat)))
        if gap > 0.0:
            return 1.0 / gap
        if self.n <= DENSE_LIMIT:
            return 1.0 / float(np.linalg.eigvalsh(self.mat.toarray())[0])
        import scipy.sparse.linalg as spla
        inverse = spla.LinearOperator((self.n, self.n), matvec=self.solve,
                                      dtype=np.float64)
        return _lanczos_max(inverse, self.n)

    def solve(self, v):
        return self._lu.solve(v)


# ----------------------------------------------------------------------

def shifted_operator(gamma: float, dt: float, M: MassOperator,
                     L: SparseOperator) -> SparseOperator:
    """The backward-Euler-type operator gamma*M - dt*L.

    Combined from the stencils when L is circulant and M is the identity
    or a periodic mass on L's grid: gamma m for each offset -> m of M's
    (gamma at offset 0 for M = I), plus -(dt c) for each offset -> c of
    L's, summed in that order as scipy's sparse difference gives it.
    With M = I it is circulant, its matrix assembled on first use; with
    a mass it is the SparseOperator of that stencil's stencil_matrix.
    Otherwise it is scipy's gamma*M.mat - dt*L.mat.  It is symmetric
    when M and L are.
    """
    if M.n != L.n:
        raise DimensionMismatch(f"mass dim {M.n} != operator dim {L.n}")
    if isinstance(L, CirculantOperator) and (
            M.is_identity or M.grid == L.symbol.shape):
        m = {(0,) * L.symbol.ndim: 1.0} if M.is_identity else M.stencil
        stencil = [*((o, gamma * c) for o, c in m.items()),
                   *((o, -(dt * c)) for o, c in L.stencil.items())]
        op = (CirculantOperator(stencil, gamma - dt * L.symbol)
              if M.is_identity else
              SparseOperator(stencil_matrix(stencil, L.symbol.shape)))
    else:
        op = SparseOperator(gamma * M.mat - dt * L.mat)
    op.symmetric = M.symmetric and L.symmetric
    return op


# ----------------------------------------------------------------------
# Inner preconditioners

class ExactSparseLU(Preconditioner):
    """Exact solve through one sparse LU of the assembled operator."""

    def __init__(self, op: SparseOperator):
        super().__init__(op.n)
        self.op = op
        self._lu = _sparse_lu(op)

    def apply(self, v):
        self._count += 1
        return self._lu.solve(v)


@lru_cache(maxsize=8)
def _half_weights(shape):
    """sqrt(w_k / N) along the last axis of the rfftn half-spectrum of a
    real grid of N points: w_k = 1 on the k = 0 plane, and on the
    Nyquist plane when the last axis has even length, where the
    half-spectrum holds a mode and its conjugate both; 2 elsewhere,
    where it holds one of the two.  Scaled by it, the real dot product
    of two half-spectra viewed as float64 is that of the grid vectors
    (Parseval).  Read-only, kept per grid shape."""
    n = shape[-1]
    w = np.full(n // 2 + 1, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    wt = np.sqrt(w / math.prod(shape))
    wt.flags.writeable = False
    return wt


class ExactFFT(Preconditioner):
    """Exact solve of a circulant operator on any grid by two real
    FFTs: the inverse symbol is kept on the rfftn half-spectrum.

    square makes it a pair's P^2 (module docstring): one round trip,
    not two, per application, counted as two applications.

    GMRES on op runs its restart cycle on the weighted half-spectrum:
    forward(r) is rfftn(r) scaled by _half_weights, viewed as float64,
    an isometry, so Arnoldi's inner products and norms are the real
    ones.  There op P is diagonal: apply_with_image returns the
    direction v itself with its image, v for a real factor or an SDIRK
    stage and v times the pair's multiplier on a pair, written into
    GMRES's next basis row (out), and combine maps sum_j y_j v_j back
    by one irfftn from the basis rows, times inv / weights, which it
    builds on first use after construction or square.  A restart cycle
    then costs one rfftn and one irfftn, and an iteration none.

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
        self._back = None
        self._apps = 1

    def square(self, pair_op: LinearOperator, delta: float, c: float):
        """Make this solve of gamma - dt L the pair preconditioner P^2
        for pair_op = (op - delta)^2 + c - delta^2, delta = gamma - eta."""
        image = c * self._inv ** 2 - 2.0 * delta * self._inv
        self._image = image.reshape(-1)
        self._inv = self._inv ** 2
        self._back = None
        self._apps = 2
        self.op = pair_op
        return self

    def _irfftn(self, vh):
        return np.fft.irfftn(vh, s=self._shape, axes=self._axes).reshape(-1)

    def forward(self, r):
        """The weighted half-spectrum of r, as float64, in one rfftn."""
        vh = np.fft.rfftn(r.reshape(self._shape)) * _half_weights(self._shape)
        return vh.reshape(-1).view(np.float64)

    def apply(self, v, out=None):
        """The solve of v in one rfftn/irfftn round trip.  With out,
        GMRES's direction of it instead, so that every application is
        one apply call: (v, out) for v a forward image, with the image
        of the solve under op written into out, and no FFT: v itself
        unless squared."""
        self._count += self._apps
        if out is None:
            return self._irfftn(np.fft.rfftn(v.reshape(self._shape))
                                * self._inv)
        if self._image is None:
            out[...] = v
        else:
            np.multiply(v.view(np.complex128), self._image,
                        out=out.view(np.complex128))
            out += v
        return v, out

    def apply_with_image(self, v, out):
        return self.apply(v, out)

    def combine(self, D, y):
        """sum_j y_j z_j in one irfftn from the directions D, forward
        images of the v_j: GMRES passes a view of its basis.  The
        back-multiplier inv / weights is built on the first call after
        construction or square."""
        if self._back is None:
            self._back = self._inv / _half_weights(self._shape)
        vh = (y @ D).view(np.complex128).reshape(self._inv.shape)
        return self._irfftn(vh * self._back)


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

    def __init__(self, op: SparseOperator, sweeps: int = 1):
        super().__init__(op.n)
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
        import scipy.sparse.linalg as spla
        self._lower = sp.csr_matrix(sp.tril(op.mat, k=0))
        self._solve_lower = spla.spsolve_triangular

    def _sweep(self, r):
        return self._solve_lower(self._lower, r, lower=True)


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
        self._cfg = KrylovConfig(rel_tol=float(tol),
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
    builder's default; one too many, or one its cast rejects, is a
    ValueError.  dim is ignored; it is kept only because the benchmark
    workloads still pass it.
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
    params = {}
    for (key, cast), a in zip(fields.items(), args):
        try:
            params[key] = cast(a)
        except ValueError:
            raise ValueError(
                f"inner preconditioner spec {spec!r}: parameter {key} must "
                f"be {cast.__name__}, got {a!r}") from None
    return kind, params


def build_inner_preconditioner(kind: str, op: SparseOperator,
                               **params) -> Preconditioner:
    """The inner solve of kind, a key of INNER_SOLVES (what parse_inner
    resolves a spec to), for op; params go to the row's builder.  op
    must be assembled, a SparseOperator (a circulant is one): any other
    operator is a TypeError."""
    if kind not in INNER_SOLVES:
        raise ValueError(f"unknown preconditioner kind {kind!r}")
    if not isinstance(op, SparseOperator):
        raise TypeError("an inner solve needs an assembled SparseOperator, "
                        f"got {type(op).__name__}")
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
        the bound ||A_eta||^2 ||M^{-1}|| + beta^2 ||M||."""
        A, M = self.A_eta, self.M
        if isinstance(A, CirculantOperator):
            return float(np.abs(A.symbol ** 2 + self._b2).max())
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

    def apply_with_image(self, v, out):
        MPv = self._M.apply(self._P.apply(v))
        z = self._P.apply(MPv)
        return z, np.add(v - 2.0 * self._delta * MPv,
                         self._c * self._M.apply(z), out=out)


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

#: largest dimension for which fov_upper_bound and SparseMass.inv_norm
#: take a dense eigensolve
DENSE_LIMIT = 1024


def fov_upper_bound(L: SparseOperator) -> float:
    """max Re W(L) for real L: the largest eigenvalue of (L + L^T)/2.

    Nonpositive return certifies that the field of values lies in the
    closed left half plane.  A circulant is normal, so the value is the
    largest real part of its symbol, exactly.  Otherwise a dense solve
    of L.mat up to DENSE_LIMIT; beyond that, Lanczos on the symmetric
    part, shifted positive so the ARPACK relative tolerance is
    meaningful when the true answer is 0, from a seeded random start so
    that one L gives one bound (not the ones vector, an eigenvector of a
    periodic stencil's symmetric part).  EigenFailure when ARPACK fails.
    """
    if isinstance(L, CirculantOperator):
        return float(np.max(L.symbol.real))
    if L.n <= DENSE_LIMIT:
        A = L.mat.toarray()
        return float(np.linalg.eigvalsh(0.5 * (A + A.T))[-1])
    S = (L.mat + L.mat.T) * 0.5
    shift = float(_abs_row_sums(S).max())  # >= rho(S)
    if shift == 0.0:
        return 0.0
    return _lanczos_max(S + shift * sp.identity(L.n), L.n) - shift


def _lanczos_max(A, n: int) -> float:
    """The largest eigenvalue of a symmetric A of dimension n (a sparse
    matrix or a scipy LinearOperator) by ARPACK's Lanczos, from a seeded
    random start so that one A gives one value.  EigenFailure when
    ARPACK fails."""
    import scipy.sparse.linalg as spla
    try:
        val = spla.eigsh(A, k=1, which="LA", maxiter=10000, tol=1e-12,
                         v0=np.random.default_rng(0).standard_normal(n),
                         return_eigenvectors=False)
    except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
        raise EigenFailure(str(exc)) from exc
    return float(val[0])
