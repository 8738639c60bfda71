"""Spectral structure of the stage coupling matrix.

Everything the stepper needs from a tableau is derived here from
B = A0^{-1}: its eigenvalues grouped into conjugate pairs (eta, beta)
and reals, with the per-factor preconditioner shifts
gamma* = sqrt(eta^2 + beta^2) and their condition-number bounds
sqrt(1 + beta^2/eta^2), and the weights of the partial-fraction form
of one step (Butcher's eigen-transformation),

    u_{n+1} = R(inf) u_n + sum_j (lambda_j M - dt L)^{-1} w_j,
    w_j = c_j M u_n + dt e_j F,   F = [f(t_n + c_i dt)]_i,

over the eigenvalues lambda_j of B = X Lambda X^{-1}, with
R(inf) = 1 - b^T B 1, c_j = (b^T X Lambda)_j (Lambda X^{-1} 1)_j and
e_j = (b^T X Lambda)_j X^{-1}[j, :].  A conjugate pair is carried by its
member with beta > 0 and doubled weights.  An SDIRK tableau, whose B is
defective, takes the confluent form of the same sum instead.
spectral_decompose derives the eigenvalues and the weights together,
from one inverse and one eigen-decomposition, so the weights come in
the solve order of factor_list.  They are constants of the tableau: it
computes them once per tableau object, kept on that object, and returns
the same read-only SpectralData to every later call, so every stepper
of a scheme built by build_tableau shares one.  The key is the object,
never its (family, s): a hand-built or perturbed tableau gets its own.
"""

from dataclasses import dataclass

import numpy as np

from .linop import EigenFailure
from .tableaux import ButcherTableau, _frozen

__all__ = [
    "Factor",
    "SpectralData",
    "spectral_decompose",
    "factor_list",
    "StabilityViolation",
    "DefectiveTableau",
]

#: eigenvalues with |Im| below this (relative) are treated as real
PAIRING_TOL = 1e-10

#: largest condition number (1-norm of the real form) of the eigenvector
#: matrix X of A0^{-1} that the partial-fraction weights accept: they
#: lose about log10 cond(X) digits.  The shipped non-SDIRK tableaux
#: have at most 256 (2-norm: 165), both for Gauss-5
MAX_EIGENVECTOR_COND = 1e4


class StabilityViolation(RuntimeError):
    """An eigenvalue of A0^{-1} has nonpositive real part."""


class DefectiveTableau(ValueError):
    """A0^{-1} is too close to defective for its eigenvector form."""


@dataclass(frozen=True)
class Factor:
    """One eigenvalue eta + i*beta of A0^{-1} and its real factor of
    P_s(Lhat): (eta I - Lhat)^2 + beta^2 I for a conjugate pair, eta I -
    Lhat for a real eigenvalue (beta = 0), where gamma* = eta, kappa = 1."""

    eta: float
    beta: float = 0.0

    @property
    def gamma_star(self) -> float:
        return float(np.hypot(self.eta, self.beta))

    @property
    def kappa_bound(self) -> float:
        return self.gamma_star / self.eta

    @property
    def is_real(self) -> bool:
        return self.beta == 0.0


@dataclass(frozen=True)
class SpectralData:
    """Eigenvalues of A0^{-1} as conjugate pairs and reals, and the
    weights of u_{n+1} = r_inf u_n + sum_j y_j, one solve per entry of
    factor_list(self), in that order: y_j = (lambda_j M - dt L)^{-1} w_j
    with w_j = c[j] M u_n + dt E[j] @ F.  For a pair, lambda_j = eta + i
    beta and y_j is the real part of that complex solve.  chained (the
    confluent SDIRK form) feeds each solve the previous answer as well:
    w_j gains M y_{j-1}, and the last y_j alone is the sum.  c and E
    are read-only, as one SpectralData serves every stepper of a
    tableau."""

    pairs: tuple
    reals: tuple
    r_inf: float
    c: np.ndarray
    E: np.ndarray
    chained: bool = False

    def __post_init__(self):
        for name in ("c", "E"):
            object.__setattr__(self, name,
                               _frozen(np.asarray(getattr(self, name))))


def _check_stable(t: ButcherTableau, lam):
    if np.any(np.real(lam) <= 0):
        raise StabilityViolation(
            f"eigenvalue with Re <= 0 in A0^(-1) of {t.family}({t.s})")


def spectral_decompose(t: ButcherTableau) -> SpectralData:
    """Eigenvalues and partial-fraction weights of B = A0^{-1}, from one
    inverse and one eigen-decomposition on the first call for t; later
    calls return the same SpectralData.  A failure is raised on every
    call.

    A confluent A0 (lower triangular with one repeated diagonal entry:
    SDIRK and backward Euler) has B = lambda I + N, lambda = 1/a_11
    exactly and N nilpotent, and
    b^T (B - Z)^{-1} = sum_{k<s} b^T (-N)^k (lambda - Z)^{-(k+1)}: s
    chained real solves with shift lambda, k = s-1 first.

    Otherwise B = X Lambda X^{-1}, and DefectiveTableau is raised when
    cond(X) > MAX_EIGENVECTOR_COND.  The eigenvalues of a real matrix
    come in exact conjugate pairs, so each pair is taken as its member
    with positive imaginary part, with its weights doubled.  Pairs are
    sorted ascending by beta/eta (hardest factor last), reals ascending
    by eta, for a deterministic factor-solve order.
    """
    sd = vars(t).get("_spectral")
    if sd is None:
        sd = _decompose(t)
        # a frozen dataclass: the cache is not one of its fields, so
        # dataclasses.replace does not copy it
        object.__setattr__(t, "_spectral", sd)
    return sd


def _decompose(t: ButcherTableau) -> SpectralData:
    try:
        B = np.linalg.inv(t.A0)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    ones = np.ones(t.s)
    r_inf = float(1.0 - t.b0 @ B @ ones)
    d = np.diag(t.A0)
    if t.is_lower_triangular and np.ptp(d) <= 1e-14 * abs(d[0]):
        lam = 1.0 / d[0]
        _check_stable(t, lam)
        N = np.tril(B, -1)
        B = lam * np.eye(t.s) + N
        rows = [t.b0]
        for _ in range(t.s - 1):
            rows.append(-(rows[-1] @ N))
        E = np.array(rows[::-1]) @ B
        return SpectralData((), (Factor(eta=float(lam)),) * t.s, r_inf,
                            E @ B @ ones, E, chained=True)

    try:
        lam, X = np.linalg.eig(B)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc
    _check_stable(t, lam)
    # X and X^{-1} through the real form [[Re X, -Im X], [Im X, Re X]],
    # which has the singular values of X
    real_form = np.empty((2 * t.s, 2 * t.s))
    real_form[:t.s, :t.s] = real_form[t.s:, t.s:] = X.real
    real_form[t.s:, :t.s] = X.imag
    real_form[:t.s, t.s:] = -X.imag
    inv = np.linalg.inv(real_form)
    cond = np.linalg.norm(real_form, 1) * np.linalg.norm(inv, 1)
    if not cond <= MAX_EIGENVECTOR_COND:
        raise DefectiveTableau(
            f"eigenvector matrix of A0^(-1) of {t.family}({t.s}) has "
            f"condition {cond:.3e} > {MAX_EIGENVECTOR_COND:.0e}")
    Xinv = inv[:t.s, :t.s] + 1j * inv[t.s:, :t.s]
    bXL = (t.b0 @ X) * lam
    c = bXL * lam * (Xinv @ ones)
    E = bXL[:, None] * Xinv

    real = np.abs(lam.imag) < PAIRING_TOL * np.abs(lam)
    pairs = sorted(np.flatnonzero(~real & (lam.imag > 0)),
                   key=lambda j: lam[j].imag / lam[j].real)
    reals = sorted(np.flatnonzero(real), key=lambda j: lam[j].real)
    order = pairs + reals
    scale = np.where(real[order], 1.0, 2.0)
    return SpectralData(
        tuple(Factor(float(lam[j].real), float(lam[j].imag)) for j in pairs),
        tuple(Factor(float(lam[j].real)) for j in reals),
        r_inf, scale * c[order], scale[:, None] * E[order])


def factor_list(sd: SpectralData):
    """Solve order for P_s(Lhat): conjugate-pair quadratics first
    (ascending beta/eta), then real linear factors."""
    return list(sd.pairs) + list(sd.reals)
