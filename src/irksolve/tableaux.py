"""Butcher tableaux for the implicit Runge-Kutta families.

Gauss, Radau IIA and Lobatto IIIC tableaux are constructed numerically
from their defining node polynomials: nodes come from companion-matrix
eigenvalues polished by Newton iteration, the coefficient rows from the
collocation integrals a_ij = int_0^{c_i} l_j and b_j = int_0^1 l_j
(Lobatto IIIC uses the a_i1 = b_1 plus C(s-1) conditions instead, since
it is not a collocation method).  SDIRK baselines are hardcoded.
"""

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ButcherTableau",
    "ValidationReport",
    "build_tableau",
    "validate_tableau",
    "SUPPORTED_TABLEAUX",
    "UnsupportedScheme",
    "ConstructionFailure",
]

COEFF_TOL = 1e-12


class UnsupportedScheme(ValueError):
    """Requested (family, stages) combination is not provided."""


class ConstructionFailure(RuntimeError):
    """A freshly built tableau failed its own validation."""


@dataclass(frozen=True)
class ButcherTableau:
    """An s-stage Runge-Kutta scheme (A0, b0, c0) with formal order."""

    family: str
    s: int
    A0: np.ndarray
    b0: np.ndarray
    c0: np.ndarray
    order: int

    def __post_init__(self):
        for name in ("A0", "b0", "c0"):
            object.__setattr__(self, name, _frozen(np.asarray(
                getattr(self, name), dtype=float)))

    @property
    def is_lower_triangular(self) -> bool:
        return bool(np.all(np.abs(np.triu(self.A0, 1)) < 1e-14))

    @property
    def is_stiffly_accurate(self) -> bool:
        # b0^T A0^{-1} = e_s^T, equivalently last row of A0 equals b0
        return bool(np.max(np.abs(self.A0[-1] - self.b0)) < 1e-12)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.flags.writeable = False
    return a


@dataclass
class ValidationReport:
    """Per-invariant pass/fail with measured residuals."""

    checks: list = field(default_factory=list)  # (name, residual, tol, passed)

    def add(self, name: str, residual: float, tol: float):
        self.checks.append((name, float(residual), float(tol), bool(residual <= tol)))

    @property
    def passed(self) -> bool:
        return all(ok for (_, _, _, ok) in self.checks)

    @property
    def max_residual(self) -> float:
        return max((r for (_, r, _, _) in self.checks), default=0.0)


# ----------------------------------------------------------------------
# Node polynomials.  Values/derivatives of Legendre P_n via the standard
# three-term recurrence, so roots can be polished by Newton to full
# double precision regardless of how the initial guesses were obtained.

def _legendre_and_deriv(n: int, x):
    x = np.asarray(x, dtype=float)
    p0 = np.ones_like(x)
    if n == 0:
        return p0, np.zeros_like(x)
    p1 = x.copy()
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    # (1-x^2) P_n' = n (P_{n-1} - x P_n)
    dp = n * (p0 - x * p1) / (1.0 - x * x)
    return p1, dp


def _newton_polish(x, f_and_df, iters=8):
    for _ in range(iters):
        f, df = f_and_df(x)
        x = x - f / df
    return x


def _gauss_nodes(s: int) -> np.ndarray:
    x, _ = np.polynomial.legendre.leggauss(s)
    x = _newton_polish(x, lambda t: _legendre_and_deriv(s, t))
    return np.sort((x + 1.0) / 2.0)


def _radau_right_nodes(s: int) -> np.ndarray:
    # roots of P_s - P_{s-1} on [-1,1]; x = 1 is always a root
    coef = np.zeros(s + 1)
    coef[s] = 1.0
    coef[s - 1] = -1.0
    x = np.sort(np.real(np.polynomial.legendre.legroots(coef)))

    def f_and_df(t):
        ps, dps = _legendre_and_deriv(s, t)
        pm, dpm = _legendre_and_deriv(s - 1, t)
        return ps - pm, dps - dpm

    interior = _newton_polish(x[:-1], f_and_df) if s > 1 else x[:0]
    x = np.concatenate([interior, [1.0]])
    return (x + 1.0) / 2.0


def _lobatto_nodes(s: int) -> np.ndarray:
    # endpoints plus roots of P'_{s-1}
    coef = np.zeros(s)
    coef[s - 1] = 1.0
    dcoef = np.polynomial.legendre.legder(coef)
    x = np.sort(np.real(np.polynomial.legendre.legroots(dcoef)))

    def f_and_df(t):
        n = s - 1
        p, dp = _legendre_and_deriv(n, t)
        # P_n'' from the Legendre ODE, valid away from +-1
        ddp = (2.0 * t * dp - n * (n + 1) * p) / (1.0 - t * t)
        return dp, ddp

    if len(x):
        x = _newton_polish(x, f_and_df)
    x = np.concatenate([[-1.0], x, [1.0]])
    return (x + 1.0) / 2.0


# ----------------------------------------------------------------------
# Coefficient construction.

def _lagrange_basis(c: np.ndarray, j: int, tau: np.ndarray) -> np.ndarray:
    num = np.ones_like(tau)
    for m in range(len(c)):
        if m != j:
            num *= (tau - c[m]) / (c[j] - c[m])
    return num


def _basis_integrals(c: np.ndarray, uppers) -> np.ndarray:
    """[int_0^x l_j]_{x, j} for the Lagrange basis l_j on c, by Gauss-
    Legendre quadrature (s+3 points, exact for degree s-1) on [0, x]."""
    xq, wq = np.polynomial.legendre.leggauss(len(c) + 3)
    out = np.zeros((len(uppers), len(c)))
    for i, x in enumerate(uppers):
        tau = 0.5 * x * (xq + 1.0)
        for j in range(len(c)):
            out[i, j] = 0.5 * x * np.dot(wq, _lagrange_basis(c, j, tau))
    return out


def _collocation_coeffs(c: np.ndarray):
    """A and b from the collocation integrals over [0, c_i] and [0, 1]."""
    ints = _basis_integrals(c, [*c, 1.0])
    return ints[:-1], ints[-1]


def _lobatto_iiic_coeffs(c: np.ndarray):
    """Lobatto IIIC rows from a_i1 = b_1 plus the C(s-1) conditions,
    solved rowwise as a small dense linear system."""
    s = len(c)
    b = _basis_integrals(c, [1.0])[0]  # Lobatto quadrature weights
    A = np.zeros((s, s))
    for i in range(s):
        sys = np.zeros((s, s))
        rhs = np.zeros(s)
        sys[0, 0] = 1.0
        rhs[0] = b[0]
        for k in range(1, s):
            sys[k] = c ** (k - 1)
            rhs[k] = c[i] ** k / k
        A[i] = np.linalg.solve(sys, rhs)
    return A, b


def _sdirk2l():
    # 2-stage, 2nd-order, L-stable, gamma = (2 - sqrt(2))/2
    g = (2.0 - np.sqrt(2.0)) / 2.0
    A = np.array([[g, 0.0], [1.0 - g, g]])
    b = np.array([1.0 - g, g])
    c = np.array([g, 1.0])
    return A, b, c, 2


def _sdirk3l():
    # 3-stage, 3rd-order, L-stable; gamma is the middle root of
    # x^3 - 3x^2 + 3x/2 - 1/6
    g = 0.43586652150845899941601945
    b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
    b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
    A = np.array([[g, 0.0, 0.0],
                  [(1.0 - g) / 2.0, g, 0.0],
                  [b1, b2, g]])
    b = np.array([b1, b2, g])
    c = np.array([g, (1.0 + g) / 2.0, 1.0])
    return A, b, c, 3


_FAMILY_RANGE = {
    "Gauss": range(1, 6),
    "RadauIIA": range(1, 6),
    "LobattoIIIC": range(2, 6),
    "SDIRK2L": (2,),
    "SDIRK3L": (3,),
    "BackwardEuler": (1,),
}

#: every (family, stages) pair build_tableau accepts
SUPPORTED_TABLEAUX = tuple(
    (fam, s) for fam, rng in _FAMILY_RANGE.items() for s in rng
)

_ALIASES = {
    "gauss": "Gauss",
    "radauiia": "RadauIIA",
    "radau": "RadauIIA",
    "lobattoiiic": "LobattoIIIC",
    "lobatto": "LobattoIIIC",
    "sdirk2l": "SDIRK2L",
    "sdirk3l": "SDIRK3L",
    "backwardeuler": "BackwardEuler",
    "be": "BackwardEuler",
}


def canonical_family(name: str) -> str:
    key = name.replace("-", "").replace("_", "").lower()
    if key not in _ALIASES:
        raise UnsupportedScheme(f"unknown IRK family {name!r}")
    return _ALIASES[key]


def build_tableau(family: str, s: int) -> ButcherTableau:
    """Construct the s-stage tableau of the given family.

    Raises UnsupportedScheme for pairs outside the supported ranges and
    ConstructionFailure if the result does not validate.
    """
    fam = canonical_family(family)
    if s not in _FAMILY_RANGE[fam]:
        raise UnsupportedScheme(f"{fam} with s={s} not supported "
                                f"(valid: {list(_FAMILY_RANGE[fam])})")

    if fam == "Gauss":
        c = _gauss_nodes(s)
        A, b = _collocation_coeffs(c)
        order = 2 * s
    elif fam == "RadauIIA":
        c = _radau_right_nodes(s)
        A, b = _collocation_coeffs(c)
        order = 2 * s - 1
    elif fam == "LobattoIIIC":
        c = _lobatto_nodes(s)
        A, b = _lobatto_iiic_coeffs(c)
        order = 2 * s - 2
    elif fam == "SDIRK2L":
        A, b, c, order = _sdirk2l()
    elif fam == "SDIRK3L":
        A, b, c, order = _sdirk3l()
    else:  # BackwardEuler
        A, b, c, order = np.array([[1.0]]), np.array([1.0]), np.array([1.0]), 1

    t = ButcherTableau(family=fam, s=s, A0=A, b0=b, c0=c, order=order)
    report = validate_tableau(t)
    if not report.passed:
        bad = [name for (name, _, _, ok) in report.checks if not ok]
        raise ConstructionFailure(f"{fam}({s}) failed validation: {bad}")
    return t


def validate_tableau(t: ButcherTableau) -> ValidationReport:
    """Check the defining algebraic properties; never mutates the tableau."""
    rep = ValidationReport()

    # collocation consistency: row sums of A0 equal c0
    rep.add("row_sums_equal_c", np.max(np.abs(t.A0.sum(axis=1) - t.c0)), 1e-13)
    rep.add("sum_b_equals_1", abs(t.b0.sum() - 1.0), 1e-13)

    # quadrature order conditions B(p): b^T c^{k-1} = 1/k
    res = 0.0
    for k in range(1, t.order + 1):
        res = max(res, abs(t.b0 @ t.c0 ** (k - 1) - 1.0 / k))
    rep.add("order_conditions_B(p)", res, COEFF_TOL)

    smin = np.linalg.svd(t.A0, compute_uv=False)[-1]
    rep.add("A0_invertible", 0.0 if smin > 1e-10 else 1.0, 0.5)

    if smin > 1e-10:
        eig = np.linalg.eigvals(np.linalg.inv(t.A0))
        worst = np.min(eig.real)
        rep.add("eigs_positive_real_part", 0.0 if worst > 0 else abs(worst) + 1.0, 0.5)
    return rep
