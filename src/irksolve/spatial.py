"""Desk-scale spatial discretizations on the periodic box [-1,1]^d.

Central-difference advection-diffusion operators of order 2 and 4
(1D/2D, built as Kronecker sums of 1D circulants), first-order upwind
advection (skew-dominant spectrum, the regime where the optimal shift
matters), the flagship manufactured-solution advection-diffusion
problem, and a periodic linear-FEM mass matrix to exercise the
mass-scaled solve path.
"""

from dataclasses import dataclass
import math

import numpy as np
import scipy.sparse as sp

from .linop import IdentityMass, SparseMass, SparseOperator
from .stepper import LinearProblem

__all__ = [
    "GridSpec",
    "MMSProblem",
    "build_advdiff",
    "build_upwind_advection",
    "build_fd_mms",
    "build_fem_mass_1d",
    "UnsupportedOrder",
]


class UnsupportedOrder(ValueError):
    """Requested finite-difference order is not available."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-1,1]^dim with n points per direction."""

    dim: int
    n: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("dim must be 1 or 2")
        if self.n < 4:
            raise ValueError("need at least 4 points per direction")

    @property
    def h(self) -> float:
        return 2.0 / self.n

    @property
    def size(self) -> int:
        return self.n ** self.dim

    def points_1d(self) -> np.ndarray:
        return -1.0 + self.h * np.arange(self.n)

    def meshgrid(self):
        return np.meshgrid(*[self.points_1d()] * self.dim, indexing="ij")


class MMSProblem(LinearProblem):
    """LinearProblem with a manufactured exact solution and its source."""

    def __init__(self, M, L, forcing, exact_solution, grid: GridSpec,
                 residual_fn=None, **kw):
        super().__init__(M, L, forcing=forcing,
                         exact_solution=exact_solution, **kw)
        self.grid = grid
        self.residual_fn = residual_fn  # pointwise PDE residual u_t + a.grad u - d:hess u - s


def periodic_stencil_matrix(n: int, offsets, coeffs) -> sp.csr_matrix:
    """Circulant matrix: row i has coeffs[k] in column (i + offsets[k]) % n."""
    rows = np.repeat(np.arange(n), len(offsets))
    cols = np.concatenate([(np.arange(n) + off) % n for off in offsets]
                          ).reshape(len(offsets), n).T.reshape(-1)
    data = np.tile(np.asarray(coeffs, dtype=float), n)
    return sp.csr_matrix((data, (rows, cols)), shape=(n, n))


_D1_STENCILS = {
    2: ([-1, 1], [-0.5, 0.5]),
    4: ([-2, -1, 1, 2], [1 / 12, -2 / 3, 2 / 3, -1 / 12]),
}
_D2_STENCILS = {
    2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
    4: ([-2, -1, 0, 1, 2], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12]),
}


def d1_matrix(n: int, h: float, order: int) -> sp.csr_matrix:
    if order not in _D1_STENCILS:
        raise UnsupportedOrder(f"first-derivative order {order}")
    off, co = _D1_STENCILS[order]
    return periodic_stencil_matrix(n, off, np.asarray(co) / h)


def d2_matrix(n: int, h: float, order: int) -> sp.csr_matrix:
    if order not in _D2_STENCILS:
        raise UnsupportedOrder(f"second-derivative order {order}")
    off, co = _D2_STENCILS[order]
    return periodic_stencil_matrix(n, off, np.asarray(co) / h ** 2)


def advdiff_symbol(adv: float, diff: float, order: int, h: float,
                   theta: np.ndarray) -> np.ndarray:
    """Fourier symbol of the 1D operator -a*D1 + d*D2 at phase angles
    theta = k*h (central D1 is purely imaginary, D2 real nonpositive)."""
    off1, co1 = _D1_STENCILS[order]
    off2, co2 = _D2_STENCILS[order]
    s1 = sum(c * np.exp(1j * o * theta) for o, c in zip(off1, co1)) / h
    s2 = sum(c * np.exp(1j * o * theta) for o, c in zip(off2, co2)) / h ** 2
    return -adv * s1 + diff * s2


def build_advdiff(grid: GridSpec, adv, diff, fd_order: int = 4) -> SparseOperator:
    """Sparse periodic L = -a.D1 + d.D2 with central stencils.

    D1 is skew-symmetric and D2 negative semidefinite on the periodic
    grid, so W(L) <= 0 whenever the diffusivities are nonnegative.
    """
    adv = np.atleast_1d(np.asarray(adv, dtype=float))
    diff = np.atleast_1d(np.asarray(diff, dtype=float))
    if np.any(diff < 0):
        raise ValueError("diffusivities must be nonnegative")
    n, h = grid.n, grid.h
    if grid.dim == 1:
        return SparseOperator(-adv[0] * d1_matrix(n, h, fd_order)
                              + diff[0] * d2_matrix(n, h, fd_order))
    Lx = -adv[0] * d1_matrix(n, h, fd_order) + diff[0] * d2_matrix(n, h, fd_order)
    Ly = -adv[1] * d1_matrix(n, h, fd_order) + diff[1] * d2_matrix(n, h, fd_order)
    eye = sp.identity(n, format="csr")
    return SparseOperator(sp.kron(Lx, eye, format="csr")
                          + sp.kron(eye, Ly, format="csr"))


def build_upwind_advection(grid: GridSpec, adv: float) -> SparseOperator:
    """First-order upwind L u ~ -a u_x on the periodic 1D grid.

    The added dissipation makes the symmetric part negative
    semidefinite while the spectrum stays imaginary-dominant.
    """
    if grid.dim != 1:
        raise ValueError("upwind advection operator is 1D")
    a = float(adv)
    if a == 0.0:
        raise ValueError("advection speed must be nonzero")
    n, h = grid.n, grid.h
    if a > 0:
        mat = periodic_stencil_matrix(n, [-1, 0], [a / h, -a / h])
    else:
        mat = periodic_stencil_matrix(n, [0, 1], [a / h, -a / h])
    return SparseOperator(mat)


# ----------------------------------------------------------------------
# Manufactured solution: u_t + 0.85 u_x + u_y = 0.3 u_xx + 0.25 u_yy + s
# with u = sin^4(pi/2 [x-1-0.85t]) sin^4(pi/2 [y-1-t]) exp(-0.55 t).
# In 1D the y factor and its terms are dropped: u decays as exp(-0.3 t).

ADV_X, ADV_Y = 0.85, 1.0
DIFF_X, DIFF_Y = 0.3, 0.25


def _bump(w):
    return np.sin(0.5 * np.pi * w) ** 4


def _bump_d2(w):
    # second derivative of sin^4(pi w / 2)
    s = np.sin(0.5 * np.pi * w)
    c = np.cos(0.5 * np.pi * w)
    return np.pi ** 2 * (3.0 * s ** 2 * c ** 2 - s ** 4)


def build_fd_mms(grid: GridSpec, fd_order: int = 4) -> MMSProblem:
    """The flagship advection-diffusion MMS problem (M = I).

    The travelling sin^4 profile cancels the advective terms exactly,
    so the source reduces to the decay and diffusion contributions.
    """
    adv = (ADV_X, ADV_Y)[:grid.dim]
    diff = (DIFF_X, DIFF_Y)[:grid.dim]
    decay = sum(diff)

    def u(xs, t):
        g = [_bump(x - 1 - a * t) for x, a in zip(xs, adv)]
        return math.prod(g + [np.exp(-decay * t)])

    def source(xs, t):
        w = [x - 1 - a * t for x, a in zip(xs, adv)]
        g = [_bump(wk) for wk in w]
        # products left to right, then one diffusion term per axis in
        # turn: reordering would change the forcing in the last bits
        s_val = math.prod(g, start=-decay)
        for k, d in enumerate(diff):
            s_val = s_val - math.prod(g[:k] + [_bump_d2(w[k])] + g[k + 1:],
                                      start=d)
        return np.exp(-decay * t) * s_val

    X = grid.meshgrid()
    L = build_advdiff(grid, adv, diff, fd_order)

    def residual(x, y, t, eps=1e-4):
        # pointwise u_t + a.grad u - d:hess u - s by central differences
        xs = (x, y)[:grid.dim]

        def shifted(k, e):
            return u(xs[:k] + (xs[k] + e,) + xs[k + 1:], t)

        r = (u(xs, t + eps) - u(xs, t - eps)) / (2 * eps)
        for k, a in enumerate(adv):
            ux = (shifted(k, eps) - shifted(k, -eps)) / (2 * eps)
            r = r + a * ux
        for k, d in enumerate(diff):
            uxx = (shifted(k, eps) - 2 * u(xs, t) + shifted(k, -eps)) / eps ** 2
            r = r - d * uxx
        return r - source(xs, t)

    return MMSProblem(IdentityMass(grid.size), L,
                      forcing=lambda t: source(X, t).reshape(-1),
                      exact_solution=lambda t: u(X, t).reshape(-1),
                      grid=grid, residual_fn=residual)


def build_fem_mass_1d(grid: GridSpec) -> SparseMass:
    """Periodic linear-FEM mass matrix, rows (h/6)[1, 4, 1]; SPD with an
    exact cyclic-tridiagonal solve."""
    if grid.dim != 1:
        raise ValueError("FEM mass matrix is 1D")
    h = grid.h
    mat = periodic_stencil_matrix(grid.n, [-1, 0, 1],
                                  [h / 6.0, 4.0 * h / 6.0, h / 6.0])
    return SparseMass(mat)


def build_fem_diffusion_1d(grid: GridSpec, diff: float = 1.0):
    """Periodic linear-FEM semi-discretization of u_t = d u_xx:
    M u' = -d K u with stiffness rows (1/h)[-1, 2, -1].

    The initial profile sin(pi x) is a discrete eigenvector of (K, M),
    so the exact semi-discrete solution is a pure exponential decay at
    the discrete rate; time-integration error can be measured without
    spatial contamination.
    """
    if grid.dim != 1:
        raise ValueError("FEM diffusion problem is 1D")
    n, h = grid.n, grid.h
    M = build_fem_mass_1d(grid)
    K = periodic_stencil_matrix(n, [-1, 0, 1],
                                [-1.0 / h, 2.0 / h, -1.0 / h])
    L = SparseOperator(-diff * K)
    x = grid.points_1d()
    u0 = np.sin(np.pi * x)
    theta = np.pi * h
    mu = diff * (2.0 - 2.0 * np.cos(theta)) / h / ((h / 6.0) * (4.0 + 2.0 * np.cos(theta)))

    def exact(t):
        return np.exp(-mu * t) * u0

    return LinearProblem(M, L, forcing=None, exact_solution=exact)
