"""Preconditioned Krylov solvers with full iteration accounting.

CG for SPD pairs and restarted GMRES for everything else.  GMRES is
right-preconditioned so the in-iteration Givens estimate tracks the
true residual rather than a preconditioner-scaled one.  It keeps the
preconditioned directions and updates x from them, so one iteration
costs exactly one preconditioner application, and a preconditioner
that changes between applications (an inner Krylov loop) needs no
separate method.  Each iteration takes the direction of z = P v and
its image op z from one Preconditioner.apply_with_image call; only
when op is precond.op, the operator an exact preconditioner was built
to solve, is the image returned without applying op.
The directions are kept in the preconditioner's own representation
(z itself, or the half-spectrum of v for an FFT solve), and
Preconditioner.combine forms sum_j y_j z_j from them once per restart
cycle.
Every solve recomputes the true residual with op.apply once at exit
(and at each restart) and bases the convergence flag on that, never on
the in-iteration estimate.

A solve stops at max(rel_tol * scale, FLOOR * eps * ||op|| * ||x||).
scale is ||b|| unless the caller passes another norm.  The second term
is the residual that a backward-stable solve can certify in double
precision (Rigal & Gaches 1967; Higham, Accuracy and Stability, 7.1),
with ||op|| = op.norm; a target below it is met at the floor, and the
report says so.  ||x|| is the iterate at the true-residual check: GMRES
takes the x of the cycle start inside a cycle, CG the current x.
"""

from dataclasses import dataclass, field, replace
import math

import numpy as np

__all__ = ["KrylovConfig", "KrylovReport", "solve", "resolve_method",
           "Breakdown", "NonFiniteResidual"]

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


@dataclass
class KrylovConfig:
    method: str = "gmres"        # cg | gmres | auto
    rel_tol: float = 1e-12
    max_iters: int = 2000
    restart: int = 30

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.restart < 1:
            raise ValueError("restart must be >= 1")


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


def resolve_method(cfg: KrylovConfig | None, op, precond) -> KrylovConfig:
    """cfg with method "auto" (or cfg None) resolved for solving op with
    precond: cg for a symmetric operator with an exact preconditioner,
    gmres otherwise.  An explicit method passes through unchanged."""
    cfg = cfg or KrylovConfig(method="auto")
    if cfg.method != "auto":
        return cfg
    method = "cg" if op.symmetric and precond.exact else "gmres"
    return replace(cfg, method=method)


def _apply_precond(precond, v):
    if precond is None:
        return v
    return precond.apply(v)


def _direction(op, precond, v):
    """(z, op z) for the preconditioned direction z = P v."""
    if precond is None:
        return v, op.apply(v)
    return precond.apply_with_image(v, op)


def _combine(precond, Z, y):
    """sum_j y_j z_j for the directions Z that _direction returned."""
    if precond is None:
        return np.array(Z).T @ y
    return precond.combine(Z, y)


def _finite(rnorm):
    if not math.isfinite(rnorm):
        raise NonFiniteResidual(f"residual norm {rnorm} in Krylov iteration")
    return rnorm


def solve(op, b, precond, cfg: KrylovConfig, scale=None):
    """Solve op x = b.  Returns (x, KrylovReport).

    precond approximates op^{-1} (None for unpreconditioned); for CG it
    must be SPD and op must be marked symmetric.  The target is
    cfg.rel_tol * scale, with scale = ||b|| when None.  The report
    counts every leaf preconditioner application performed during the
    solve.
    """
    b = np.asarray(b, dtype=float)
    if b.shape[0] != op.n:
        raise ValueError(f"rhs of dim {b.shape[0]} for operator of dim {op.n}")
    count0 = precond.applications if precond is not None else 0
    if scale is None:
        scale = float(np.linalg.norm(b))
    target = cfg.rel_tol * scale
    floor = FLOOR * EPS * op.norm

    method = cfg.method.lower()
    if method == "cg":
        if not op.symmetric:
            raise ValueError("CG requested on an operator not marked "
                             "symmetric")
        x, rep, rtrue, stop = _cg(op, b, precond, cfg, target, floor)
    elif method == "gmres":
        x, rep, rtrue, stop = _gmres(op, b, precond, cfg, target, floor)
    else:
        raise ValueError(f"unknown Krylov method {cfg.method!r}")

    rep.final_residual = rtrue
    rep.target = target
    rep.floor_limited = stop > target
    rep.converged = rtrue <= stop
    if precond is not None:
        rep.preconditioner_applications = precond.applications - count0
    return x, rep


def _stop(target, floor, x):
    """max(target, floor ||x||): the residual a solve at x stops at."""
    return max(target, floor * float(np.linalg.norm(x)))


def _cg(op, b, precond, cfg, target, floor):
    """Preconditioned CG.  When the recurrence residual meets the stop
    residual at x, the true residual is checked; if it misses, CG
    restarts from it, for as long as each pass lowers it.  Returns
    (x, report, true residual norm, stop residual at x)."""
    rep = KrylovReport()
    x = np.zeros_like(b)
    r = b.copy()
    rnorm = _finite(float(np.linalg.norm(r)))
    rep.residual_history.append(rnorm)
    start = math.inf
    stop = target
    while stop < rnorm < start and rep.iterations < cfg.max_iters:
        start = rnorm
        z = _apply_precond(precond, r)
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
            z = _apply_precond(precond, r)
            rz_new = r @ z
            if abs(rz_new) < BREAKDOWN_TOL * rnorm * np.linalg.norm(z):
                raise Breakdown("r^T z ~ 0 in CG")
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = b - op.apply(x)
        rnorm = _finite(float(np.linalg.norm(r)))
        stop = _stop(target, floor, x)
    return x, rep, rnorm, stop


def _gmres(op, b, precond, cfg, target, floor):
    """Restarted GMRES, right-preconditioned, so the monitored Givens
    residual estimates the true residual regardless of preconditioner
    scaling.  The directions of Z = P V are kept and x is updated from
    them by precond.combine, so P is applied once per iteration and may
    change between iterations.  V and Z grow by one vector per
    iteration.  Each cycle starts from the true residual; GMRES stops
    when that meets the stop residual at x, or when it is no lower than
    at the last cycle start.  Returns (x, report, true residual norm,
    stop residual at x)."""
    rep = KrylovReport()
    x = np.zeros(op.n)
    start = math.inf

    while True:
        r = b - op.apply(x) if rep.iterations else b.copy()
        beta = _finite(float(np.linalg.norm(r)))
        if not rep.residual_history:
            rep.residual_history.append(beta)
        stop = _stop(target, floor, x) if rep.iterations else target
        if not stop < beta < start or rep.iterations >= cfg.max_iters:
            return x, rep, beta, stop
        start = beta

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
            z, w = _direction(op, precond, V[j])
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
        x = x + _combine(precond, Z, y)
