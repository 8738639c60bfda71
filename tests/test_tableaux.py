from fractions import Fraction

import numpy as np
import pytest

from functools import cache

from irksolve import tableaux
from irksolve.tableaux import (SUPPORTED_TABLEAUX, ButcherTableau,
                               ConstructionFailure, UnsupportedScheme,
                               ValidationReport, build_tableau,
                               validate_tableau)

SQRT3 = np.sqrt(3.0)


def test_gauss_1_is_midpoint():
    t = build_tableau("gauss", 1)
    assert np.max(np.abs(t.A0 - [[0.5]])) < 1e-14
    assert t.b0 == pytest.approx([1.0], abs=1e-14)
    assert t.c0 == pytest.approx([0.5], abs=1e-14)
    assert t.order == 2


def test_radau_1_is_backward_euler():
    t = build_tableau("radauIIA", 1)
    assert np.max(np.abs(t.A0 - [[1.0]])) < 1e-14
    assert t.c0 == pytest.approx([1.0], abs=1e-14)
    assert t.order == 1


def test_gauss_2_closed_form():
    # frozen from the collocation integrals at c = 1/2 -+ sqrt(3)/6
    t = build_tableau("gauss", 2)
    A_exact = np.array([[0.25, 0.25 - SQRT3 / 6.0],
                        [0.25 + SQRT3 / 6.0, 0.25]])
    assert np.max(np.abs(t.A0 - A_exact)) < 1e-13
    assert t.b0 == pytest.approx([0.5, 0.5], abs=1e-13)
    assert t.c0 == pytest.approx([0.5 - SQRT3 / 6.0, 0.5 + SQRT3 / 6.0], abs=1e-13)
    assert t.order == 4
    # independent cross-checks: B(4) and C(2) order conditions
    for k in range(1, 5):
        assert t.b0 @ t.c0 ** (k - 1) == pytest.approx(1.0 / k, abs=1e-13)
    for k in range(1, 3):
        assert t.A0 @ t.c0 ** (k - 1) == pytest.approx(t.c0 ** k / k, abs=1e-13)


def test_lobatto_2_standard_tableau():
    t = build_tableau("lobattoIIIC", 2)
    assert np.max(np.abs(t.A0 - np.array([[0.5, -0.5], [0.5, 0.5]]))) < 1e-13
    assert t.c0 == pytest.approx([0.0, 1.0], abs=1e-14)
    assert t.A0.sum(axis=1) == pytest.approx(t.c0, abs=1e-13)


def test_all_supported_validate():
    for fam, s in SUPPORTED_TABLEAUX:
        rep = validate_tableau(build_tableau(fam, s))
        assert rep.passed, (fam, s, rep.checks)


def test_gauss_3_max_residual_small():
    rep = validate_tableau(build_tableau("gauss", 3))
    assert rep.passed
    assert rep.max_residual < 1e-12


def test_scaled_b_fails_sum_check():
    t = build_tableau("gauss", 2)
    bad = ButcherTableau(family=t.family, s=t.s, A0=t.A0, b0=2.0 * t.b0,
                         c0=t.c0, order=t.order)
    rep = validate_tableau(bad)
    checks = dict((name, (res, ok)) for name, res, _tol, ok in rep.checks)
    res, ok = checks["sum_b_equals_1"]
    assert not ok
    assert res == pytest.approx(1.0, abs=1e-13)


#: the tree residual's bound where rounding is larger than 4.5e-16:
#: SDIRK4L's weights alternate in sign with sum |b_i| = 17.2, so the
#: order-1 tree sum b_i = 1 alone rounds at about 17.2 eps / 2 = 1.9e-15
#: (its residual is 8.9e-16)
_TREE_TOL = {("SDIRK4L", 5): 2e-15}


def test_rooted_tree_conditions_hold_to_the_claimed_order_only():
    # every tree of order min(order, 4) holds to rounding; below order 4
    # some tree of the next order fails, so the check sees the order
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        p = min(t.order, 4)
        checks = {name: (res, ok) for name, res, _tol, ok
                  in validate_tableau(t).checks}
        res, ok = checks[f"rooted_trees_to_order_{p}"]
        assert ok and res <= _TREE_TOL.get((fam, s), 4.5e-16), (fam, s, res)
        if t.order < 4:
            assert tableaux._tree_residual(t, t.order + 1) > 1e-2, (fam, s)


def test_perturbed_a0_fails_the_tree_check():
    # one A0 entry moved by 1e-6 keeps B(p) (b and c are untouched) but
    # breaks the trees through A: b A c, b c A c, b A c^2, b A A c
    for fam, s, entry in (("gauss", 2, (0, 1)), ("SDIRK4L", 5, (2, 1))):
        t = build_tableau(fam, s)
        A = t.A0.copy()
        A[entry] += 1e-6
        bad = ButcherTableau(family=t.family, s=t.s, A0=A, b0=t.b0,
                             c0=t.c0, order=t.order)
        checks = {name: (res, ok) for name, res, _tol, ok
                  in validate_tableau(bad).checks}
        assert checks["order_conditions_B(p)"][1], fam
        res, ok = checks["rooted_trees_to_order_4"]
        assert not ok and res > 1e-7, (fam, res)


def test_radau_stiffly_accurate():
    for s in range(1, 6):
        t = build_tableau("radauIIA", s)
        w = t.b0 @ np.linalg.inv(t.A0)
        e_s = np.zeros(s)
        e_s[-1] = 1.0
        assert np.max(np.abs(w - e_s)) < 1e-12
        assert t.is_stiffly_accurate


def test_unsupported_pairs():
    with pytest.raises(UnsupportedScheme):
        build_tableau("gauss", 6)
    with pytest.raises(UnsupportedScheme):
        build_tableau("lobattoIIIC", 1)
    with pytest.raises(UnsupportedScheme):
        build_tableau("no-such-family", 2)


def test_tableau_arrays_immutable():
    t = build_tableau("gauss", 2)
    with pytest.raises(ValueError):
        t.A0[0, 0] = 99.0


def _spellings():
    """{family: every spelling tried for it}: its name and its aliases,
    in lower, upper and title case."""
    names = {fam: [fam] for fam in tableaux._FAMILY_RANGE}
    for alias, fam in tableaux._ALIASES.items():
        names[fam].append(alias)
    return {fam: {case(name) for name in names[fam]
                  for case in (str, str.lower, str.upper, str.title)}
            for fam in names}


def test_build_tableau_shares_one_tableau_per_pair():
    # every alias and case of a supported pair gives one shared object,
    # and each pair its own
    spellings = _spellings()
    built = {}
    for fam, s in SUPPORTED_TABLEAUX:
        first = build_tableau(fam, s)
        assert (first.family, first.s) == (fam, s)
        for name in spellings[fam]:
            assert build_tableau(name, s) is first, (name, s)
        built[fam, s] = first
    assert len({id(t) for t in built.values()}) == len(SUPPORTED_TABLEAUX)


def test_each_scheme_is_listed_once():
    # no two supported pairs give bit-identical (A0, b0, c0); Radau IIA-1
    # is backward Euler, so it is a spelling of that row, not an entry
    seen = {}
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        key = tuple(a.tobytes() for a in (t.A0, t.b0, t.c0))
        assert key not in seen, ((fam, s), seen.get(key))
        seen[key] = fam, s
    assert len(SUPPORTED_TABLEAUX) == 17
    assert ("RadauIIA", 1) not in SUPPORTED_TABLEAUX
    be = build_tableau("be", 1)
    assert build_tableau("radauIIA", 1) is be
    for name in _spellings()["RadauIIA"]:
        assert build_tableau(name, 1) is be, name


def test_unsupported_pair_raises_on_every_call():
    for family, s in (("gauss", 6), ("lobattoIIIC", 1), ("be", 2),
                      ("no-such", 2)):
        for _ in range(2):
            with pytest.raises(UnsupportedScheme):
                build_tableau(family, s)


def test_construction_failure_is_not_cached(monkeypatch):
    # a fresh cache, so the tableaux other tests share are left alone
    monkeypatch.setattr(tableaux, "_build", cache(tableaux._build.__wrapped__))
    failing = ValidationReport()
    failing.add("forced", 1.0, 0.0)
    monkeypatch.setattr(tableaux, "validate_tableau", lambda t: failing)
    for _ in range(2):
        with pytest.raises(ConstructionFailure, match="forced"):
            build_tableau("gauss", 2)
    monkeypatch.setattr(tableaux, "validate_tableau", validate_tableau)
    assert build_tableau("gauss", 2) is build_tableau("Gauss", 2)


def test_sdirk_coefficients():
    t = build_tableau("sdirk2l", 2)
    g = (2.0 - np.sqrt(2.0)) / 2.0
    assert t.A0[0, 0] == pytest.approx(g, abs=1e-15)
    assert t.A0[1, 1] == pytest.approx(g, abs=1e-15)
    assert t.is_lower_triangular and t.is_stiffly_accurate

    t3 = build_tableau("sdirk3l", 3)
    assert t3.order == 3
    assert t3.is_lower_triangular and t3.is_stiffly_accurate
    # L-stability needs all eigenvalues of A0 equal (single gamma)
    assert np.allclose(np.diag(t3.A0), t3.A0[0, 0])


# index k of each collocation-type family: its nodes are the zeros of
# P_s - P_{s-k} (P_s for Gauss)
NODE_INDEX = {"Gauss": 0, "RadauIIA": 1, "LobattoIIIC": 2}
COLLOCATION_TABLEAUX = [(fam, s) for fam in NODE_INDEX
                        for s in tableaux._FAMILY_RANGE[fam]]


def _legendre_exact(n, x):
    """P_n(x) in exact rational arithmetic by the three-term recurrence."""
    p0, p1 = Fraction(1), x
    if n == 0:
        return p0
    for m in range(1, n):
        p0, p1 = p1, ((2 * m + 1) * x * p1 - m * p0) / (m + 1)
    return p1


@pytest.mark.parametrize("fam,s", COLLOCATION_TABLEAUX)
def test_nodes_bracket_an_exact_zero(fam, s):
    # each node is an exact zero of P_s - P_{s-k} on x = 2c - 1, or the
    # series changes sign between c -+ 1.12e-16 (evaluated exactly); the
    # end nodes of Radau IIA and Lobatto IIIC are exactly 1 and 0
    k = NODE_INDEX[fam]

    def node_poly(c):
        x = 2 * c - 1
        return _legendre_exact(s, x) - (_legendre_exact(s - k, x) if k else 0)

    t = build_tableau(fam, s)
    if k >= 1:
        assert t.c0[-1] == 1.0
    if k == 2:
        assert t.c0[0] == 0.0
    h = Fraction(1.12e-16)
    for c in map(Fraction, t.c0):
        assert node_poly(c) == 0 or node_poly(c - h) * node_poly(c + h) < 0, \
            (fam, s, float(c))


@pytest.mark.parametrize("fam,s", COLLOCATION_TABLEAUX)
def test_simplifying_assumptions(fam, s):
    # C(q): A c^{q-1} = c^q / q for q <= s (collocation), q <= s - 1 for
    # Lobatto IIIC, which instead has a_i1 = b_1
    t = build_tableau(fam, s)
    q_max = s - 1 if fam == "LobattoIIIC" else s
    for q in range(1, q_max + 1):
        res = np.max(np.abs(t.A0 @ t.c0 ** (q - 1) - t.c0 ** q / q))
        assert res < 1e-14, (fam, s, q, res)
    if fam == "LobattoIIIC":
        assert np.max(np.abs(t.A0[:, 0] - t.b0[0])) < 1e-14


def test_dirk_tableaux_are_their_closed_forms():
    # bit for bit the closed forms, written out independently here
    g = (2.0 - np.sqrt(2.0)) / 2.0
    expect = {("SDIRK2L", 2): ([[g, 0.0], [1.0 - g, g]], [1.0 - g, g],
                               [g, 1.0], 2)}
    g = 0.43586652150845899941601945
    b1 = -(6.0 * g * g - 16.0 * g + 1.0) / 4.0
    b2 = (6.0 * g * g - 20.0 * g + 5.0) / 4.0
    expect["SDIRK3L", 3] = ([[g, 0.0, 0.0], [(1.0 - g) / 2.0, g, 0.0],
                             [b1, b2, g]], [b1, b2, g],
                            [g, (1.0 + g) / 2.0, 1.0], 3)
    b = [25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4]
    expect["SDIRK4L", 5] = ([[1 / 4, 0, 0, 0, 0], [1 / 2, 1 / 4, 0, 0, 0],
                             [17 / 50, -1 / 25, 1 / 4, 0, 0],
                             [371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0],
                             b], b, [1 / 4, 3 / 4, 11 / 20, 1 / 2, 1], 4)
    expect["BackwardEuler", 1] = ([[1.0]], [1.0], [1.0], 1)
    for (fam, s), (A, b, c, order) in expect.items():
        t = build_tableau(fam, s)
        assert np.array_equal(t.A0, A) and np.array_equal(t.b0, b), fam
        assert np.array_equal(t.c0, c) and t.order == order, fam
