"""Spectral structure of the stage coupling matrix.

Everything the stepper needs from a tableau is derived here from
B = A0^{-1}: its eigenvalues grouped into conjugate pairs (eta, beta)
and reals, the monic characteristic polynomial and its real factored
form, the per-factor preconditioner shifts gamma* = sqrt(eta^2 + beta^2)
with their condition-number bounds sqrt(1 + beta^2/eta^2), and the
right-hand-side assembly polynomials R_i obtained by contracting
b0^T A0^{-1} with the adjugate of (A0^{-1} - x I).
"""

from dataclasses import dataclass

import numpy as np

from .linop import EigenFailure
from .tableaux import ButcherTableau

__all__ = [
    "Factor",
    "SpectralData",
    "StagePolynomials",
    "spectral_decompose",
    "adjugate_row_polynomials",
    "factor_list",
    "faddeev_leverrier",
    "StabilityViolation",
]

#: eigenvalues with |Im| below this (relative) are treated as real
PAIRING_TOL = 1e-10


class StabilityViolation(RuntimeError):
    """An eigenvalue of A0^{-1} has nonpositive real part."""


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
    """Eigenstructure of A0^{-1}: conjugate pairs, reals, and the monic
    characteristic polynomial (ascending coefficients)."""

    pairs: tuple
    reals: tuple
    char_poly: np.ndarray


@dataclass(frozen=True)
class StagePolynomials:
    """RHS-assembly polynomials: R[i, k] is the x^k coefficient of R_i,
    so that z = sum_i R_i(Lhat) (M^{-1} f_i)."""

    R: np.ndarray  # (s, s); degree <= s-1


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
    """Eigenvalues of A0^{-1} merged into conjugate pairs and reals.

    Pairs are sorted ascending by beta/eta (hardest factor last), reals
    ascending by eta, for a deterministic factor-solve order.
    """
    lam = _inverse_eigenvalues(t)
    scale = np.abs(lam)
    if np.any(lam.real <= 0):
        raise StabilityViolation(
            f"eigenvalue with Re <= 0 in A0^(-1) of {t.family}({t.s})")

    reals = []
    pairs = []
    used = np.zeros(len(lam), dtype=bool)
    for i, l in enumerate(lam):
        if used[i]:
            continue
        if abs(l.imag) < PAIRING_TOL * scale[i]:
            reals.append(Factor(eta=float(l.real)))
            used[i] = True
            continue
        if l.imag < 0:
            continue  # handled with its conjugate
        # find the conjugate partner
        j = None
        for k in range(len(lam)):
            if not used[k] and k != i and abs(lam[k] - np.conj(l)) < 1e-8 * max(scale[i], 1.0):
                j = k
                break
        if j is None:
            raise EigenFailure(f"unpaired complex eigenvalue {l}")
        pairs.append(Factor(eta=float(l.real), beta=float(abs(l.imag))))
        used[i] = used[j] = True

    pairs.sort(key=lambda p: p.beta / p.eta)
    reals.sort(key=lambda p: p.eta)

    coeffs, _ = faddeev_leverrier(np.linalg.inv(t.A0))
    return SpectralData(pairs=tuple(pairs), reals=tuple(reals), char_poly=coeffs)


def adjugate_row_polynomials(t: ButcherTableau) -> StagePolynomials:
    """The polynomials R_i contracting b0^T A0^{-1} against the columns of
    adj(A0^{-1} - x I).

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
    return StagePolynomials(R=R)


def factor_list(sd: SpectralData):
    """Solve order for P_s(Lhat): conjugate-pair quadratics first
    (ascending beta/eta), then real linear factors."""
    return list(sd.pairs) + list(sd.reals)


def char_poly_from_factors(sd: SpectralData) -> np.ndarray:
    """Expand prod (x^2 - 2 eta x + eta^2 + beta^2) * prod (x - eta);
    cross-check against the Faddeev-LeVerrier coefficients."""
    poly = np.array([1.0])
    for p in sd.pairs:
        poly = np.convolve(poly, [p.eta**2 + p.beta**2, -2.0 * p.eta, 1.0])
    for p in sd.reals:
        poly = np.convolve(poly, [-p.eta, 1.0])
    return poly
