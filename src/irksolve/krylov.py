"""Preconditioned Krylov solvers with full iteration accounting.

solve owns a solve's policy.  It picks the method with resolve_method,
the one place that chooses it: CG for a symmetric operator with an
exact (so SPD) preconditioner, restarted GMRES for everything else.  It
runs the one restart loop for both: each pass (a CG run or a GMRES
cycle) starts from the true residual, which op.apply recomputes after
it, and the solve ends when that meets the stop residual, when a pass
did not lower it, or at max_iters.  The convergence flag rests on that
true residual, never on the in-iteration estimate.

Preconditioner is the protocol every preconditioner implements; the
base class is the identity, which solve uses for precond None.  GMRES
is right-preconditioned, so its Givens estimate tracks the true
residual, and keeps the preconditioned directions, so an iteration
costs one preconditioner application and a preconditioner may change
between applications (an inner Krylov loop).  Once per cycle it checks
op is precond.op, the operator an exact preconditioner solves: then
each iteration takes z = P v with op z from precond.apply_with_image(v)
without applying op, in the preconditioner's own representation (the
half-spectrum of v for an FFT solve), and precond.combine sums the
directions once per cycle; otherwise it applies P, then op.

A solve stops at max(rel_tol * scale, FLOOR * eps * ||op|| * ||x||).
scale is ||b|| unless the caller passes another norm.  The second term
is the residual that a backward-stable solve can certify in double
precision (Rigal & Gaches 1967; Higham, Accuracy and Stability, 7.1),
with ||op|| = op.norm; a target below it is met at the floor, and the
report says so.  ||x|| is the iterate at the true-residual check: GMRES
takes the x of the cycle start inside a cycle, CG the current x.
"""

from dataclasses import dataclass, field
import math

import numpy as np

__all__ = ["KrylovConfig", "KrylovReport", "Preconditioner", "solve",
           "resolve_method", "Breakdown", "NonFiniteResidual"]

#: a recurrence denominator below this fraction of the norms it is formed
#: from (in GMRES, its Hessenberg column's norm) counts as zero
BREAKDOWN_TOL = 1e-14

#: c of the residual floor c * eps * ||op|| * ||x||
FLOOR = 1.0
EPS = float(np.finfo(float).eps)


class Breakdown(RuntimeError):
    """Zero denominator in a Krylov recurrence."""


class NonFiniteResidual(ArithmeticError):
    """A residual norm became NaN or infinite."""


@dataclass(frozen=True)
class KrylovConfig:
    method: str = "auto"         # auto (resolve_method picks) | cg | gmres
    rel_tol: float = 1e-12
    max_iters: int = 2000
    restart: int = 30

    def __post_init__(self):
        if self.method not in ("auto", "cg", "gmres"):
            raise ValueError(f"unknown Krylov method {self.method!r}; "
                             "choose from auto, cg, gmres")
        # a target at or above ||b|| is met by x = 0
        if not 0 < self.rel_tol < 1:
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")


#: the config of solve(..., cfg=None), built once
_DEFAULT = KrylovConfig()


@dataclass
class KrylovReport:
    """target is rel_tol times the scale; floor_limited is set when the
    residual floor at the final x was above it, so the solve stopped at
    that floor."""

    iterations: int = 0
    residual_history: list = field(default_factory=list)
    converged: bool = False
    preconditioner_applications: int = 0
    final_residual: float = 0.0
    target: float = 0.0
    floor_limited: bool = False


class Preconditioner:
    """Approximation of op^{-1} with a leaf application counter; this
    base class is the identity, which counts nothing.  A subclass
    implements apply; an exact one also sets op, the operator it solves
    exactly (None for an inexact one), and GMRES on that op calls
    apply_with_image and combine instead of apply.  exact marks one
    with an op, so SPD for an SPD operator.  symmetric marks one that
    is symmetric whenever its operator is, as CG needs."""

    op = None
    symmetric = True

    def __init__(self, n: int):
        self.n = n
        self._count = 0

    @property
    def exact(self) -> bool:
        return self.op is not None

    @property
    def applications(self) -> int:
        return self._count

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v

    def apply_with_image(self, v: np.ndarray):
        """(d, op z) for z = apply(v) and its direction d, the form in
        which combine takes it back; here d is z itself, and op z = v,
        as for any exact solve of op."""
        return self.apply(v), v

    def combine(self, D, y) -> np.ndarray:
        """sum_j y_j z_j for the directions D that apply_with_image
        returned."""
        return np.array(D).T @ y


def resolve_method(cfg: KrylovConfig | None, op, precond) -> str:
    """The method, "cg" or "gmres", that cfg (None meaning KrylovConfig())
    names for solving op with precond.  "auto" is cg for a symmetric
    operator with an exact preconditioner, gmres otherwise (precond None
    counts as not exact)."""
    if cfg is not None and cfg.method != "auto":
        return cfg.method
    exact = precond is not None and precond.exact
    return "cg" if op.symmetric and exact else "gmres"


def _finite(rnorm):
    if not math.isfinite(rnorm):
        raise NonFiniteResidual(f"residual norm {rnorm} in Krylov iteration")
    return rnorm


def solve(op, b, precond, cfg: KrylovConfig | None = None, scale=None):
    """Solve op x = b.  Returns (x, KrylovReport).

    precond approximates op^{-1} (None means the identity,
    Preconditioner(op.n)), cfg None means KrylovConfig(), and
    resolve_method picks the method.  For CG both must be marked
    symmetric, and precond must be SPD.  The target is
    cfg.rel_tol * scale, with scale = ||b|| when None.

    Every pass (a CG run or a GMRES cycle) starts from the true residual,
    which is recomputed after it.  The solve ends when that meets the
    stop residual at x, when a pass did not lower it, or at max_iters.
    The report counts every leaf preconditioner application performed
    during the solve.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != op.n:
        raise ValueError(f"rhs of dim {b.shape[0]} for operator of dim {op.n}")
    cfg = cfg or _DEFAULT
    if precond is None:
        precond = Preconditioner(op.n)
    cg = resolve_method(cfg, op, precond) == "cg"
    if cg and not op.symmetric:
        raise ValueError("CG requested on an operator not marked symmetric")
    if cg and not precond.symmetric:
        raise ValueError("CG requested with a preconditioner not marked "
                         "symmetric")
    count0 = precond.applications
    if scale is None:
        scale = float(np.linalg.norm(b))
    target = cfg.rel_tol * scale
    floor = FLOOR * EPS * op.norm

    rep = KrylovReport()
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = _finite(float(np.linalg.norm(r)))
    rep.residual_history.append(rnorm)
    start = math.inf
    stop = target
    while stop < rnorm < start and rep.iterations < cfg.max_iters:
        start = rnorm
        if cg:
            x = _cg(op, precond, cfg, rep, x, r, target, floor)
        else:
            x = _gmres(op, precond, cfg, rep, x, r, rnorm, stop)
        r = b - op.apply(x)
        rnorm = _finite(float(np.linalg.norm(r)))
        stop = _stop(target, floor, x)

    rep.final_residual = rnorm
    rep.target = target
    rep.floor_limited = stop > target
    rep.converged = rnorm <= stop
    rep.preconditioner_applications = precond.applications - count0
    return x, rep


def _stop(target, floor, x):
    """max(target, floor ||x||): the residual a solve at x stops at."""
    return max(target, floor * float(np.linalg.norm(x)))


def _cg(op, precond, cfg, rep, x, r, target, floor):
    """One preconditioned CG pass from x with residual r, to where the
    recurrence residual meets the stop residual at the current x.
    Returns the new x."""
    z = precond.apply(r)
    p = z.copy()
    rz = r @ z
    while rep.iterations < cfg.max_iters:
        q = op.apply(p)
        pq = p @ q
        if abs(pq) < BREAKDOWN_TOL * np.linalg.norm(p) * np.linalg.norm(q):
            raise Breakdown("p^T A p ~ 0 in CG")
        alpha = rz / pq
        x = x + alpha * p
        r = r - alpha * q
        rep.iterations += 1
        rnorm = _finite(float(np.linalg.norm(r)))
        rep.residual_history.append(rnorm)
        if rnorm <= _stop(target, floor, x):
            break
        z = precond.apply(r)
        rz_new = r @ z
        if abs(rz_new) < BREAKDOWN_TOL * rnorm * np.linalg.norm(z):
            raise Breakdown("r^T z ~ 0 in CG")
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


def _gmres(op, precond, cfg, rep, x, r, beta, stop):
    """One restart cycle of right-preconditioned GMRES from x with
    residual r of norm beta, to where the Givens residual meets stop,
    the stop residual at the cycle start.  V and Z = P V grow by one
    vector per iteration, and x is updated from Z.  Returns the new x."""
    image = op is precond.op
    m = cfg.restart
    V = [r / beta]
    Z = []
    H = np.zeros((m + 1, m))
    cs = np.zeros(m)
    sn = np.zeros(m)
    g = np.zeros(m + 1)
    g[0] = beta

    j = 0
    while j < m and rep.iterations < cfg.max_iters:
        if image:
            z, w = precond.apply_with_image(V[j])
        else:
            z = precond.apply(V[j])
            w = op.apply(z)
        Z.append(z)
        for i in range(j + 1):
            H[i, j] = V[i] @ w
            w = w - H[i, j] * V[i]
        H[j + 1, j] = np.linalg.norm(w)
        # |op z|: the scale of this column for the breakdown tests
        col = np.linalg.norm(H[:j + 2, j])

        # apply accumulated Givens rotations, then generate a new one
        for i in range(j):
            t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
            H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
            H[i, j] = t
        denom = np.hypot(H[j, j], H[j + 1, j])
        if denom <= BREAKDOWN_TOL * col:
            raise Breakdown("Hessenberg column vanished in GMRES")
        cs[j] = H[j, j] / denom
        sn[j] = H[j + 1, j] / denom
        H[j, j] = denom
        g[j + 1] = -sn[j] * g[j]
        g[j] = cs[j] * g[j]

        rep.iterations += 1
        res = _finite(float(abs(g[j + 1])))
        rep.residual_history.append(res)

        happy = H[j + 1, j] <= BREAKDOWN_TOL * col
        if not happy:
            V.append(w / H[j + 1, j])
        j += 1
        if res <= stop or happy:
            break

    # solve the least-squares problem and update x
    y = np.zeros(j)
    for i in range(j - 1, -1, -1):
        y[i] = (g[i] - H[i, i + 1:j] @ y[i + 1:j]) / H[i, i]
    if image:
        return x + precond.combine(Z, y)
    return x + np.array(Z).T @ y
