"""Desk-scale spatial discretizations on the periodic box [-1,1]^d.

Central-difference advection-diffusion operators of order 2 and 4
(1D/2D, built as Kronecker sums of 1D circulants), first-order upwind
advection (skew-dominant spectrum, the regime where the optimal shift
matters), the flagship manufactured-solution advection-diffusion
problem, and a periodic linear-FEM mass matrix to exercise the
mass-scaled solve path.

Every operator is built as a stencil with its symbol: sums, scalings
and Kronecker sums combine the stencils' few coefficients, in the order
scipy's sparse arithmetic would combine the entries of the matrices,
and linop.stencil_matrix assembles a matrix only where one is applied.

The FEM mass matrix is assembled from its stencil by the same function
and keeps the stencil, so its symmetry is read from the stencil and
each shift gamma M - dt L of the FEM problem is combined from the two
stencils: its set-up does no sparse-matrix arithmetic either.
"""

from dataclasses import dataclass
import math

import numpy as np

from .linop import CirculantOperator, IdentityMass, SparseMass
from .stepper import LinearProblem

__all__ = [
    "GridSpec",
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


def circulant(n: int, offsets, coeffs) -> CirculantOperator:
    """The periodic 1D stencil whose row i has coeffs[k] in column
    (i + offsets[k]) % n, with its symbol: mode k of the FFT has
    eigenvalue sum_j coeffs[j] exp(2 pi i offsets[j] k / n)."""
    theta = 2.0 * np.pi * np.arange(n) / n
    symbol = sum(c * np.exp(1j * o * theta) for o, c in zip(offsets, coeffs))
    return CirculantOperator({(o,): c for o, c in zip(offsets, coeffs)},
                             symbol)


def kronecker_sum(axes) -> CirculantOperator:
    """sum_k I x .. x A_k x .. x I for 1D circulants A_k, one per grid
    axis (axis 0 varies slowest): offset o of A_k becomes the offset
    that is o on axis k and 0 on the others, and the axes' diagonals are
    summed in axis order.  The symbol is the sum of the axis symbols,
    each broadcast along its own axis."""
    dim = len(axes)
    stencil, symbol = [], 0.0
    for k, A in enumerate(axes):
        stencil += [((0,) * k + o + (0,) * (dim - k - 1), c)
                    for o, c in A.stencil.items()]
        symbol = symbol + A.symbol.reshape(
            [-1 if j == k else 1 for j in range(dim)])
    return CirculantOperator(stencil, symbol)


_STENCILS = {
    # derivative -> order -> (offsets, coefficients at h = 1)
    1: {2: ([-1, 1], [-0.5, 0.5]),
        4: ([-2, -1, 1, 2], [1 / 12, -2 / 3, 2 / 3, -1 / 12])},
    2: {2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        4: ([-2, -1, 0, 1, 2], [-1 / 12, 4 / 3, -5 / 2, 4 / 3, -1 / 12])},
}


def _derivative(n: int, h: float, order: int, k: int) -> CirculantOperator:
    """Central k-th derivative on the periodic 1D grid."""
    if order not in _STENCILS[k]:
        raise UnsupportedOrder(
            f"{('first', 'second')[k - 1]}-derivative order {order}")
    off, co = _STENCILS[k][order]
    return circulant(n, off, np.asarray(co) / h ** k)


def build_advdiff(grid: GridSpec, adv, diff,
                  fd_order: int = 4) -> CirculantOperator:
    """Periodic L = -a.D1 + d.D2 with central stencils, the Kronecker
    sum of one 1D operator -a_k D1 + d_k D2 per axis.

    D1 is skew-symmetric and D2 negative semidefinite on the periodic
    grid, so W(L) <= 0 whenever the diffusivities are nonnegative.
    """
    adv = np.broadcast_to(np.asarray(adv, dtype=float), (grid.dim,))
    diff = np.broadcast_to(np.asarray(diff, dtype=float), (grid.dim,))
    if np.any(diff < 0):
        raise ValueError("diffusivities must be nonnegative")
    n, h = grid.n, grid.h
    D1 = _derivative(n, h, fd_order, 1)
    D2 = _derivative(n, h, fd_order, 2)
    return kronecker_sum([
        CirculantOperator([(o, -a * c) for o, c in D1.stencil.items()]
                          + [(o, d * c) for o, c in D2.stencil.items()],
                          -a * D1.symbol + d * D2.symbol)
        for a, d in zip(adv, diff)])


def build_upwind_advection(grid: GridSpec, adv: float) -> CirculantOperator:
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
        return circulant(n, [-1, 0], [a / h, -a / h])
    return circulant(n, [0, 1], [a / h, -a / h])


# ----------------------------------------------------------------------
# Manufactured solution: u_t + 0.85 u_x + u_y = 0.3 u_xx + 0.25 u_yy + s
# with u = sin^4(pi/2 [x-1-0.85t]) sin^4(pi/2 [y-1-t]) exp(-0.55 t).
# In 1D the y factor and its terms are dropped: u decays as exp(-0.3 t).

ADV_X, ADV_Y = 0.85, 1.0
DIFF_X, DIFF_Y = 0.3, 0.25


def _bump(w):
    """(g, g'') for g = sin^4(pi w / 2) on one axis, from one sine."""
    z = 0.5 * np.pi * w
    s = np.sin(z)
    g = s ** 4
    return g, np.pi ** 2 * (3.0 * s ** 2 * np.cos(z) ** 2 - g)


def _axis_constants(xs):
    """(adv, diff) of the MMS problem on len(xs) axes."""
    dim = len(xs)
    return (ADV_X, ADV_Y)[:dim], (DIFF_X, DIFF_Y)[:dim]


def mms_solution(xs, t):
    """The exact MMS solution at points given by one coordinate array per
    axis; the arrays broadcast, so a sparse meshgrid gives the grid."""
    adv, diff = _axis_constants(xs)
    # g of _bump alone: the solution needs no cosine
    g = [np.sin(0.5 * np.pi * (x - 1 - a * t)) ** 4 for x, a in zip(xs, adv)]
    return math.prod(g + [np.exp(-sum(diff) * t)])


def mms_source(xs, t):
    """The MMS source s at the points xs, as in mms_solution."""
    adv, diff = _axis_constants(xs)
    decay = sum(diff)
    g, g2 = zip(*[_bump(x - 1 - a * t) for x, a in zip(xs, adv)])
    # products left to right, then one diffusion term per axis in
    # turn: reordering would change the forcing in the last bits
    s_val = math.prod(g, start=-decay)
    for k, d in enumerate(diff):
        s_val = s_val - math.prod(g[:k] + (g2[k],) + g[k + 1:], start=d)
    return np.exp(-decay * t) * s_val


def mms_residual(xs, t, eps=1e-4):
    """The pointwise PDE residual u_t + a.grad u - d:hess u - s of
    mms_solution at the points xs, by central differences of step eps."""
    adv, diff = _axis_constants(xs)
    u = mms_solution

    def shifted(k, e):
        return u(xs[:k] + (xs[k] + e,) + xs[k + 1:], t)

    r = (u(xs, t + eps) - u(xs, t - eps)) / (2 * eps)
    for k, a in enumerate(adv):
        ux = (shifted(k, eps) - shifted(k, -eps)) / (2 * eps)
        r = r + a * ux
    for k, d in enumerate(diff):
        uxx = (shifted(k, eps) - 2 * u(xs, t) + shifted(k, -eps)) / eps ** 2
        r = r - d * uxx
    return r - mms_source(xs, t)


def build_fd_mms(grid: GridSpec, fd_order: int = 4) -> LinearProblem:
    """The flagship advection-diffusion MMS problem (M = I).

    The travelling sin^4 profile cancels the advective terms exactly,
    so the source reduces to the decay and diffusion contributions.
    Source and solution are evaluated on a sparse meshgrid: each factor
    is computed once per axis and broadcasting forms the products, with
    the same values as the dense evaluation.
    """
    X = np.meshgrid(*[grid.points_1d()] * grid.dim, indexing="ij",
                    sparse=True)
    adv, diff = _axis_constants(X)
    L = build_advdiff(grid, adv, diff, fd_order)
    return LinearProblem(IdentityMass(grid.size), L,
                         forcing=lambda t: mms_source(X, t).reshape(-1),
                         exact_solution=lambda t: mms_solution(X, t).reshape(-1))


def build_fem_mass_1d(grid: GridSpec) -> SparseMass:
    """Periodic linear-FEM mass matrix, rows (h/6)[1, 4, 1]; SPD with an
    exact cyclic-tridiagonal solve.  It keeps its stencil."""
    if grid.dim != 1:
        raise ValueError("FEM mass matrix is 1D")
    h = grid.h
    stencil = {(-1,): h / 6.0, (0,): 4.0 * h / 6.0, (1,): h / 6.0}
    return SparseMass.from_stencil(stencil, (grid.n,))


def build_fem_diffusion_1d(grid: GridSpec):
    """Periodic linear-FEM semi-discretization of u_t = u_xx:
    M u' = -K u with stiffness rows (1/h)[-1, 2, -1].

    The initial profile sin(pi x) is a discrete eigenvector of (K, M),
    so the exact semi-discrete solution is a pure exponential decay at
    the discrete rate; time-integration error can be measured without
    spatial contamination.
    """
    if grid.dim != 1:
        raise ValueError("FEM diffusion problem is 1D")
    n, h = grid.n, grid.h
    M = build_fem_mass_1d(grid)
    K = circulant(n, [-1, 0, 1], [-1.0 / h, 2.0 / h, -1.0 / h])
    L = CirculantOperator([(o, -c) for o, c in K.stencil.items()],
                          -K.symbol)
    x = grid.points_1d()
    u0 = np.sin(np.pi * x)
    theta = np.pi * h
    mu = (2.0 - 2.0 * np.cos(theta)) / h / ((h / 6.0) * (4.0 + 2.0 * np.cos(theta)))

    def exact(t):
        return np.exp(-mu * t) * u0

    return LinearProblem(M, L, forcing=None, exact_solution=exact)
