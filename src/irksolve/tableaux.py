"""Butcher tableaux for the implicit Runge-Kutta families.

Gauss, Radau IIA and Lobatto IIIC are one family indexed by k = 0, 1, 2
(`_COLLOCATION_K`): the s nodes are the zeros of P_s - P_{s-k} (P_s for
Gauss), found as companion-matrix eigenvalues and polished by Newton on
the same Legendre series, and the order is 2s - k.  The coefficient rows
are the collocation integrals a_ij = int_0^{c_i} l_j and b_j = int_0^1 l_j,
except for Lobatto IIIC (k = 2), which is not a collocation method and
takes them from a_i1 = b_1 plus the C(s-1) conditions.  The DIRK
tableaux, the SDIRK baselines, are hardcoded in `_DIRK`.  The supported
(family, stages) pairs follow from these two tables, and each scheme is
listed once: Radau IIA-1 is a spelling of the backward-Euler row.

A tableau is a constant of its scheme: build_tableau builds and
validates each scheme once per process, on its first call, and every
later call with any spelling of that scheme returns the same read-only
ButcherTableau.
"""

from dataclasses import dataclass, field
from functools import cache

import numpy as np

__all__ = [
    "ButcherTableau",
    "ValidationReport",
    "build_tableau",
    "validate_tableau",
    "SUPPORTED_TABLEAUX",
    "SDIRK_BASELINES",
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
# Node polynomials.

def _nodes(s: int, k: int) -> np.ndarray:
    """The s nodes on [0, 1] of the collocation family with index k: the
    zeros of the Legendre series P_s - P_{s-k} (P_s alone for k = 0),
    polished by Newton on that same series."""
    leg = np.polynomial.legendre
    p = np.zeros(s + 1)
    p[s] = 1.0
    if k:
        p[s - k] = -1.0
    dp = leg.legder(p)
    x = leg.legroots(p).real
    for _ in range(3):
        x = x - leg.legval(x, p) / leg.legval(x, dp)
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
    Legendre quadrature on [0, x]: s+3 points, exact up to degree 2s+5,
    for an integrand of degree s-1."""
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


#: the collocation-type families by their index k: nodes are the zeros
#: of P_s - P_{s-k} and the order is 2s - k (Hairer & Wanner, Solving
#: ODEs II, sec. IV.5)
_COLLOCATION_K = {"Gauss": 0, "RadauIIA": 1, "LobattoIIIC": 2}

# SDIRK2L: 2 stages, order 2, L-stable, gamma = (2 - sqrt(2))/2.
# SDIRK3L: 3 stages, order 3, L-stable; gamma is the middle root of
# x^3 - 3x^2 + 3x/2 - 1/6.
# SDIRK4L: 5 stages, order 4, L-stable, gamma = 1/4 (Hairer & Wanner,
# Solving ODEs II, sec. IV.6, (6.16)).  All three are stiffly accurate:
# b is A's last row.
_G2 = (2.0 - np.sqrt(2.0)) / 2.0
_G3 = 0.43586652150845899941601945
_B3 = (-(6.0 * _G3 * _G3 - 16.0 * _G3 + 1.0) / 4.0,
       (6.0 * _G3 * _G3 - 20.0 * _G3 + 5.0) / 4.0, _G3)
_B4 = (25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4)

#: hardcoded DIRK tableaux: family -> (A, b, c, order), with s = len(b)
_DIRK = {
    "SDIRK2L": (np.array([[_G2, 0.0], [1.0 - _G2, _G2]]),
                np.array([1.0 - _G2, _G2]), np.array([_G2, 1.0]), 2),
    "SDIRK3L": (np.array([[_G3, 0.0, 0.0],
                          [(1.0 - _G3) / 2.0, _G3, 0.0],
                          _B3]),
                np.array(_B3), np.array([_G3, (1.0 + _G3) / 2.0, 1.0]), 3),
    "SDIRK4L": (np.array([[1 / 4, 0, 0, 0, 0],
                          [1 / 2, 1 / 4, 0, 0, 0],
                          [17 / 50, -1 / 25, 1 / 4, 0, 0],
                          [371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0],
                          _B4]),
                np.array(_B4), np.array([1 / 4, 3 / 4, 11 / 20, 1 / 2, 1]), 4),
    "BackwardEuler": (np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                      1),
}

#: the SDIRK baselines, {family: s}: the rows of the DIRK table
SDIRK_BASELINES = {fam: len(b) for fam, (_A, b, _c, _p) in _DIRK.items()}

#: supported stage counts: up to the paper's 5 for the collocation
#: families (at least 2 for Lobatto IIIC, whose ends are both nodes),
#: and the one tableau of each DIRK family
_FAMILY_RANGE = {
    **{fam: range(max(k, 1), 6) for fam, k in _COLLOCATION_K.items()},
    **{fam: (s,) for fam, s in SDIRK_BASELINES.items()},
}

#: supported pairs that spell another pair's scheme, bit for bit
_SPELLINGS = {("RadauIIA", 1): ("BackwardEuler", 1)}

#: every scheme build_tableau accepts, each under one (family, s) pair
SUPPORTED_TABLEAUX = tuple(
    (fam, s) for fam, rng in _FAMILY_RANGE.items() for s in rng
    if (fam, s) not in _SPELLINGS)

#: the short family names
_ALIASES = {"radau": "RadauIIA", "lobatto": "LobattoIIIC",
            "be": "BackwardEuler"}

#: every family name by its key: lower case, with no '-' or '_'
_FAMILY_KEYS = {fam.lower(): fam for fam in _FAMILY_RANGE} | _ALIASES


def canonical_family(name: str) -> str:
    key = name.replace("-", "").replace("_", "").lower()
    if key not in _FAMILY_KEYS:
        raise UnsupportedScheme(f"unknown IRK family {name!r}")
    return _FAMILY_KEYS[key]


def build_tableau(family: str, s: int) -> ButcherTableau:
    """The s-stage tableau of the given family, one shared read-only
    object per scheme, built on the first call; a pair in _SPELLINGS
    returns its scheme's tableau.

    Raises UnsupportedScheme for pairs outside the supported ranges and
    ConstructionFailure if the result does not validate, on every call.
    """
    fam = canonical_family(family)
    if s not in _FAMILY_RANGE[fam]:
        raise UnsupportedScheme(f"{fam} with s={s} not supported "
                                f"(valid: {list(_FAMILY_RANGE[fam])})")
    return _build(*_SPELLINGS.get((fam, s), (fam, s)))


@cache
def _build(fam: str, s: int) -> ButcherTableau:
    """Construct and validate the tableau of a supported canonical pair;
    a ConstructionFailure is raised, not cached."""
    if fam in _DIRK:
        A, b, c, order = _DIRK[fam]
    else:
        k = _COLLOCATION_K[fam]
        c = _nodes(s, k)
        A, b = _lobatto_iiic_coeffs(c) if k == 2 else _collocation_coeffs(c)
        order = 2 * s - k

    t = ButcherTableau(family=fam, s=s, A0=A, b0=b, c0=c, order=order)
    report = validate_tableau(t)
    if not report.passed:
        bad = [name for (name, _, _, ok) in report.checks if not ok]
        raise ConstructionFailure(f"{fam}({s}) failed validation: {bad}")
    return t


#: the 8 rooted trees of order up to 4 as (order, density gamma,
#: elementary weight Phi(A, b, c)); order p asks Phi = 1/gamma for every
#: tree of order at most p (Hairer, Norsett & Wanner, Solving ODEs I,
#: sec. II.2), with c = A 1 checked apart
_TREES = (
    (1, 1, lambda A, b, c: b.sum()),
    (2, 2, lambda A, b, c: b @ c),
    (3, 3, lambda A, b, c: b @ c ** 2),
    (3, 6, lambda A, b, c: b @ A @ c),
    (4, 4, lambda A, b, c: b @ c ** 3),
    (4, 8, lambda A, b, c: b @ (c * (A @ c))),
    (4, 12, lambda A, b, c: b @ A @ c ** 2),
    (4, 24, lambda A, b, c: b @ A @ A @ c),
)


def _tree_residual(t: ButcherTableau, p: int) -> float:
    """max |Phi - 1/gamma| over the rooted trees of order at most p."""
    return max((abs(phi(t.A0, t.b0, t.c0) - 1.0 / gamma)
                for order, gamma, phi in _TREES if order <= p), default=0.0)


def validate_tableau(t: ButcherTableau) -> ValidationReport:
    """Check the defining algebraic properties: row sums, B(p), the
    rooted trees up to order min(p, 4), an invertible A0 whose inverse
    has eigenvalues of positive real part; never mutates the tableau."""
    rep = ValidationReport()

    # collocation consistency: row sums of A0 equal c0
    rep.add("row_sums_equal_c", np.max(np.abs(t.A0.sum(axis=1) - t.c0)), 1e-13)
    rep.add("sum_b_equals_1", abs(t.b0.sum() - 1.0), 1e-13)

    # quadrature order conditions B(p): b^T c^{k-1} = 1/k
    res = 0.0
    for k in range(1, t.order + 1):
        res = max(res, abs(t.b0 @ t.c0 ** (k - 1) - 1.0 / k))
    rep.add("order_conditions_B(p)", res, COEFF_TOL)

    rep.add(f"rooted_trees_to_order_{min(t.order, 4)}",
            _tree_residual(t, min(t.order, 4)), COEFF_TOL)

    smin = np.linalg.svd(t.A0, compute_uv=False)[-1]
    rep.add("A0_invertible", 0.0 if smin > 1e-10 else 1.0, 0.5)

    if smin > 1e-10:
        eig = np.linalg.eigvals(np.linalg.inv(t.A0))
        worst = np.min(eig.real)
        rep.add("eigs_positive_real_part", 0.0 if worst > 0 else abs(worst) + 1.0, 0.5)
    return rep
