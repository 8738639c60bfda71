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
"""

from dataclasses import dataclass

import numpy as np

from .linop import EigenFailure
from .tableaux import ButcherTableau

__all__ = [
    "Factor",
    "SpectralData",
    "spectral_decompose",
    "adjugate_row_polynomials",
    "factor_list",
    "faddeev_leverrier",
    "PartialFractions",
    "partial_fractions",
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
    """Eigenvalues of A0^{-1}: conjugate pairs and reals."""

    pairs: tuple
    reals: tuple


@dataclass(frozen=True)
class PartialFractions:
    """The weights of u_{n+1} = r_inf u_n + sum_j y_j, one solve per
    entry of factors: y_j = (lambda_j M - dt L)^{-1} w_j with
    w_j = c[j] M u_n + dt E[j] @ F.  For a pair, lambda_j = eta + i beta
    and y_j is the real part of that complex solve.  chained (the
    confluent SDIRK form) feeds each solve the previous answer as well:
    w_j gains M y_{j-1}, and the last y_j alone is the sum."""

    r_inf: float
    factors: tuple
    c: np.ndarray
    E: np.ndarray
    chained: bool = False


def faddeev_leverrier(B: np.ndarray):
    """Characteristic polynomial and adjugate coefficient matrices of B.

    Returns (coeffs, mats): coeffs is the monic char poly of B in
    ascending powers (length s+1), and mats = [N_0, ..., N_{s-1}] with
    adj(x I - B) = sum_k N_k x^{s-1-k}.
    """
    B = np.asarray(B, dtype=float)
    s = B.shape[0]
    coeffs = np.zeros(s + 1)
    coeffs[s] = 1.0
    mats = [np.eye(s)]
    coeffs[s - 1] = -np.trace(B)
    for k in range(1, s):
        Nk = B @ mats[-1] + coeffs[s - k] * np.eye(s)
        mats.append(Nk)
        coeffs[s - k - 1] = -np.trace(B @ Nk) / (k + 1)
    return coeffs, mats


def _inverse_eigenvalues(t: ButcherTableau) -> np.ndarray:
    try:
        return np.linalg.eigvals(np.linalg.inv(t.A0))
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(str(exc)) from exc


def spectral_decompose(t: ButcherTableau) -> SpectralData:
    """Eigenvalues of A0^{-1} as conjugate pairs and reals.

    The eigenvalues of a real matrix come in exact conjugate pairs, so
    each pair is taken as its member with positive imaginary part.
    Pairs are sorted ascending by beta/eta (hardest factor last), reals
    ascending by eta, for a deterministic factor-solve order.
    """
    lam = _inverse_eigenvalues(t)
    if np.any(lam.real <= 0):
        raise StabilityViolation(
            f"eigenvalue with Re <= 0 in A0^(-1) of {t.family}({t.s})")

    reals = []
    pairs = []
    for l in lam:
        if abs(l.imag) < PAIRING_TOL * abs(l):
            reals.append(Factor(eta=float(l.real)))
        elif l.imag > 0:
            pairs.append(Factor(eta=float(l.real), beta=float(l.imag)))

    pairs.sort(key=lambda p: p.beta / p.eta)
    reals.sort(key=lambda p: p.eta)
    return SpectralData(pairs=tuple(pairs), reals=tuple(reals))


def adjugate_row_polynomials(t: ButcherTableau) -> np.ndarray:
    """The right-hand-side polynomials of the adjugate form that the
    partial fractions replaced; no stepper calls it.  R, with R[i, k] the x^k coefficient of the polynomial R_i that
    contracts b0^T A0^{-1} against the columns of adj(A0^{-1} - x I),
    so that z = sum_i R_i(Lhat) (M^{-1} f_i); degree <= s-1.

    adj(B - x I) = (-1)^{s-1} adj(x I - B), with adj(x I - B) given by the
    Faddeev-LeVerrier coefficient matrices.
    """
    s = t.s
    B = np.linalg.inv(t.A0)
    _, mats = faddeev_leverrier(B)
    w = t.b0 @ B
    sign = -1.0 if s % 2 == 0 else 1.0
    R = np.zeros((s, s))
    for k, Nk in enumerate(mats):
        R[:, s - 1 - k] = sign * (w @ Nk)
    return R


def factor_list(sd: SpectralData):
    """Solve order for P_s(Lhat): conjugate-pair quadratics first
    (ascending beta/eta), then real linear factors."""
    return list(sd.pairs) + list(sd.reals)


def _is_confluent(t: ButcherTableau) -> bool:
    """Lower-triangular A0 with one repeated diagonal entry (SDIRK and
    backward Euler): B = lambda I + N with N nilpotent."""
    d = np.diag(t.A0)
    return np.ptp(d) <= 1e-14 * abs(d[0]) and t.is_lower_triangular


def partial_fractions(t: ButcherTableau, factors) -> PartialFractions:
    """The partial-fraction weights of t, in the solve order of factors
    (factor_list of its spectral_decompose).

    For a confluent A0, B = lambda I + N gives
    b^T (B - Z)^{-1} = sum_{k<s} b^T (-N)^k (lambda - Z)^{-(k+1)}: s
    chained real solves with shift lambda, k = s-1 first, and factors is
    not used.  Otherwise B = X Lambda X^{-1}, and DefectiveTableau is
    raised when cond(X) > MAX_EIGENVECTOR_COND.
    """
    B = np.linalg.inv(t.A0)
    ones = np.ones(t.s)
    r_inf = float(1.0 - t.b0 @ B @ ones)
    if _is_confluent(t):
        lam = 1.0 / t.A0[0, 0]
        N = np.tril(B, -1)
        B = lam * np.eye(t.s) + N
        rows = [t.b0]
        for _ in range(t.s - 1):
            rows.append(-(rows[-1] @ N))
        E = np.array(rows[::-1]) @ B
        return PartialFractions(r_inf, (Factor(eta=float(lam)),) * t.s,
                                E @ B @ ones, E, chained=True)

    lam, X = np.linalg.eig(B)
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
    pick = [int(np.argmin(np.abs(lam - complex(f.eta, f.beta))))
            for f in factors]
    scale = np.array([1.0 if f.is_real else 2.0 for f in factors])
    return PartialFractions(r_inf, tuple(factors), scale * c[pick],
                            scale[:, None] * E[pick])
