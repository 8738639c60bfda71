"""Numerical verification of the conjugate-pair conditioning theory.

Direct condition numbers of the preconditioned operator
P_{delta,gamma} = (delta I - L)^{-1} (gamma I - L)^{-1} [(eta I - L)^2 + beta^2 I]
for dense L with W(L) <= 0, the eigenvalue-restricted Rayleigh quotient
H_{delta,gamma}(xi) used in the tightness and optimality arguments, the
proof constants, and the worst-case comparison showing the optimal
shift beats the naive choice gamma = eta.
"""

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "CondResult",
    "compute_kappa",
    "h_scan",
    "proof_constants",
    "optimality_probe",
    "tightness_matrix",
    "random_stable_matrix",
    "SingularShift",
]


class SingularShift(RuntimeError):
    """(delta I - L) or (gamma I - L) is numerically singular."""


@dataclass(frozen=True)
class CondResult:
    kappa_measured: float
    kappa_bound: float
    delta: float
    gamma: float
    eta: float
    beta: float


def kappa_bound_general(eta: float, beta: float, delta: float) -> float:
    """(delta + (eta^2+beta^2)/delta) / (2 eta): the tight bound for the
    shift pair (delta, gamma = (eta^2+beta^2)/delta).  At the optimum
    delta = sqrt(eta^2+beta^2) it reduces to sqrt(1 + beta^2/eta^2)."""
    return (delta + (eta * eta + beta * beta) / delta) / (2.0 * eta)


def compute_kappa(L: np.ndarray, eta: float, beta: float,
                  delta: float | None = None,
                  gamma: float | None = None) -> CondResult:
    """Dense kappa(P_{delta,gamma}) by singular values.

    delta and gamma default to the optimal shift gamma* = sqrt(eta^2+beta^2).
    kappa_bound is the proven bound for gamma = (eta^2+beta^2)/delta; it
    carries no guarantee for other gamma (NaN is reported there).
    """
    L = np.asarray(L, dtype=float)
    n = L.shape[0]
    if n > 512:
        raise ValueError("dense verification capped at N = 512")
    gs = math.hypot(eta, beta)
    if delta is None:
        delta = gs
    if gamma is None:
        gamma = (eta * eta + beta * beta) / delta
    eye = np.eye(n)
    numer = (eta * eye - L) @ (eta * eye - L) + beta * beta * eye
    denom = (delta * eye - L) @ (gamma * eye - L)
    if min(np.linalg.svd(denom, compute_uv=False)) <= 1e-13 * np.linalg.norm(denom):
        raise SingularShift(f"shifted operator singular for delta={delta}, gamma={gamma}")
    P = np.linalg.solve(denom, numer)
    sv = np.linalg.svd(P, compute_uv=False)
    kappa = float(sv[0] / sv[-1])
    if abs(gamma * delta - (eta * eta + beta * beta)) <= 1e-12 * (eta * eta + beta * beta):
        bound = kappa_bound_general(eta, beta, delta)
    else:
        bound = math.nan
    return CondResult(kappa_measured=kappa, kappa_bound=bound,
                      delta=float(delta), gamma=float(gamma),
                      eta=float(eta), beta=float(beta))


def h_scan(delta: float, gamma: float, eta: float, beta: float,
           xi_grid) -> np.ndarray:
    """H_{delta,gamma}(xi) = ||P v||^2/||v||^2 restricted to eigenvectors
    L w = i xi w:

        [(delta gamma* - xi^2)^2 + (2 eta xi)^2]
        / [(delta gamma - xi^2)^2 + (xi (delta + gamma))^2],

    with gamma* = (eta^2 + beta^2)/delta.
    """
    xi = np.asarray(xi_grid, dtype=float)
    gs = (eta * eta + beta * beta) / delta
    num = (delta * gs - xi ** 2) ** 2 + (2.0 * eta * xi) ** 2
    den = (delta * gamma - xi ** 2) ** 2 + (xi * (delta + gamma)) ** 2
    return num / den


def proof_constants(delta: float, gamma: float, eta: float, beta: float):
    """The constants c1, c2, c3 of the norm-ratio expansion, plus a flag
    for gamma = (eta^2+beta^2)/delta (which forces c0 = 1)."""
    if delta <= 0 or gamma <= 0:
        raise ValueError("shifts must be positive")
    gs = eta * eta + beta * beta
    c2 = 2.0 * eta / (delta + gamma)
    return {
        "gamma_is_gamma_star": abs(gamma * delta - gs) <= 1e-12 * gs,
        "c1": (gs / (delta * gamma)) * c2,
        "c2": c2,
        "c3": c2 * c2,
    }


def optimality_probe(eta: float, beta: float, gamma_grid) -> list:
    """Worst-case lower bounds on kappa^2(P_{delta,gamma}) over the grid,
    with delta fixed at the optimal sqrt(eta^2+beta^2).

    For gamma < gamma* the bound is H(0)/H(+-sqrt(delta gamma*)); for
    gamma > gamma* it is H(inf)/H(+-sqrt(delta gamma*)) = 1/H(...).
    Every entry with gamma != gamma* strictly exceeds the optimal
    kappa^2 = 1 + beta^2/eta^2.
    """
    gs = math.hypot(eta, beta)
    delta = gs
    xi_star = math.sqrt(delta * gs)
    kappa2_opt = 1.0 + (beta / eta) ** 2
    rows = []
    for gamma in np.asarray(gamma_grid, dtype=float):
        h_star = float(h_scan(delta, gamma, eta, beta, [xi_star])[0])
        if abs(gamma - gs) <= 1e-12 * gs:
            ratio = kappa2_opt
        elif gamma < gs:
            h0 = float(h_scan(delta, gamma, eta, beta, [0.0])[0])
            ratio = h0 / h_star
        else:
            ratio = 1.0 / h_star   # H(xi -> inf) = 1
        rows.append({"gamma": float(gamma), "lower_bound_kappa2": ratio,
                     "kappa2_opt": kappa2_opt})
    return rows


def tightness_matrix(eta: float, beta: float,
                     delta: float | None = None) -> np.ndarray:
    """Real 3x3 matrix with eigenvalues {0, +-i sqrt(delta gamma*)}: a
    1x1 zero block plus a 2x2 rotation block.  kappa(P_{delta,gamma*})
    attains the proven bound on it exactly."""
    gs = math.hypot(eta, beta)
    if delta is None:
        delta = gs
    gamma_star = (eta * eta + beta * beta) / delta
    omega = math.sqrt(delta * gamma_star)
    L = np.zeros((3, 3))
    L[1, 2] = omega
    L[2, 1] = -omega
    return L


def random_stable_matrix(n: int, rng: np.random.Generator,
                         scale: float = 1.0) -> np.ndarray:
    """S + K with S = -B B^T symmetric negative semidefinite and K skew:
    W(L) <= 0 by construction, no rejection sampling."""
    B = rng.standard_normal((n, n)) / math.sqrt(n)
    C = rng.standard_normal((n, n)) / math.sqrt(n)
    return scale * (-(B @ B.T) + (C - C.T))
