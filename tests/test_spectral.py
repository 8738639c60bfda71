import numpy as np
import pytest

from irksolve.spectral import (DefectiveTableau, adjugate_row_polynomials,
                               factor_list, faddeev_leverrier,
                               partial_fractions, spectral_decompose)
from irksolve.tableaux import (SUPPORTED_TABLEAUX, ButcherTableau,
                               build_tableau)

MAIN_FAMILIES = [(f, s) for f, s in SUPPORTED_TABLEAUX
                 if f in ("Gauss", "RadauIIA", "LobattoIIIC")]


# ----------------------------------------------------------------------
# independent oracles

def ring_adjugate_polys(B):
    """Adjugate of (B - x I) over the polynomial ring by recursive
    cofactor expansion; entries returned as ascending coefficient
    arrays.  Exact (up to roundoff), independent of Faddeev-LeVerrier."""
    s = B.shape[0]

    def ring_det(rows, cols):
        if len(rows) == 1:
            i, j = rows[0], cols[0]
            ent = [B[i, j]] + ([-1.0] if i == j else [0.0])
            return np.array(ent)
        total = np.zeros(len(rows) + 1)
        for pos, j in enumerate(cols):
            i = rows[0]
            ent = np.array([B[i, j]] + ([-1.0] if i == j else [0.0]))
            minor = ring_det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = np.convolve(ent, minor)
            total[:len(term)] += ((-1.0) ** pos) * term
        return total

    adj = np.zeros((s, s, s))  # adj[i, j] = cofactor polynomial, ascending
    rows_all = list(range(s))
    for i in range(s):
        for j in range(s):
            rows = rows_all[:j] + rows_all[j + 1:]
            cols = tuple(rows_all[:i] + rows_all[i + 1:])
            minor = ring_det(rows, cols)
            adj[i, j, :len(minor)] = ((-1.0) ** (i + j)) * minor
    return adj


def kron_adjugate_apply(tableau, X, f):
    """z = (b0^T A0^{-1} x I) adj(M_s) f computed densely through
    adj(M_s) = (I x det_ring) M_s^{-1}, with det_ring = prod over
    eigenvalues of (lambda_i I - X) assembled from real factors."""
    s, n = tableau.s, X.shape[0]
    B = np.linalg.inv(tableau.A0)
    Ms = np.kron(B, np.eye(n)) - np.kron(np.eye(s), X)
    lam = np.linalg.eigvals(B)
    D = np.eye(n)
    used = np.zeros(s, dtype=bool)
    for i, l in enumerate(lam):
        if used[i]:
            continue
        if abs(l.imag) < 1e-10 * abs(l):
            D = D @ (l.real * np.eye(n) - X)
            used[i] = True
        elif l.imag > 0:
            D = D @ ((l.real * np.eye(n) - X) @ (l.real * np.eye(n) - X)
                     + l.imag ** 2 * np.eye(n))
            used[i] = True
            for k in range(s):
                if not used[k] and abs(lam[k] - np.conj(l)) < 1e-8:
                    used[k] = True
                    break
    w = tableau.b0 @ B
    return np.kron(w, np.eye(n)) @ np.kron(np.eye(s), D) @ np.linalg.solve(Ms, f)


def apply_R(R, X, f_blocks):
    s = R.shape[0]
    z = np.zeros(X.shape[0])
    for i in range(s):
        w = R[i, s - 1] * f_blocks[i]
        for k in range(s - 2, -1, -1):
            w = X @ w + R[i, k] * f_blocks[i]
        z += w
    return z


# ----------------------------------------------------------------------

def test_gauss2_pair_closed_form():
    # A0^{-1} = [[3, -3+2*sqrt3], [-3-2*sqrt3, 3]]: char x^2 - 6x + 12
    sd = spectral_decompose(build_tableau("gauss", 2))
    assert len(sd.pairs) == 1 and not sd.reals
    p = sd.pairs[0]
    assert p.eta == pytest.approx(3.0, rel=1e-13)
    assert p.beta == pytest.approx(np.sqrt(3.0), rel=1e-13)
    assert p.gamma_star == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-14)
    assert p.kappa_bound == pytest.approx(np.sqrt(4.0 / 3.0), rel=1e-14)
    assert p.gamma_star ** 2 == pytest.approx(p.eta ** 2 + p.beta ** 2, rel=1e-14)
    # independent: dense eigensolver on A0^{-1}
    lam = np.linalg.eigvals(np.linalg.inv(build_tableau("gauss", 2).A0))
    assert sorted(lam.real) == pytest.approx([3.0, 3.0], rel=1e-12)


def test_radau1_real_eigenvalue():
    sd = spectral_decompose(build_tableau("radauIIA", 1))
    assert not sd.pairs and len(sd.reals) == 1
    assert sd.reals[0].eta == pytest.approx(1.0, abs=1e-14)
    assert sd.reals[0].kappa_bound == 1.0


def test_lobatto2_matches_table_entry():
    sd = spectral_decompose(build_tableau("lobattoIIIC", 2))
    p = sd.pairs[0]
    assert p.eta == pytest.approx(1.0, rel=1e-12)
    assert p.beta == pytest.approx(1.0, rel=1e-12)
    assert p.kappa_bound == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert round(p.kappa_bound, 2) == 1.41


def test_counts_and_charpoly_all_families():
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        sd = spectral_decompose(t)
        assert 2 * len(sd.pairs) + len(sd.reals) == s
        # the expanded real factors give the char poly coefficientwise,
        # against np.poly on the dense eigenvalues
        expanded = np.array([1.0])
        for f in factor_list(sd):
            quad = [1.0, -2.0 * f.eta, f.eta ** 2 + f.beta ** 2]
            expanded = np.convolve(expanded,
                                   [1.0, -f.eta] if f.is_real else quad)
        lam = np.linalg.eigvals(np.linalg.inv(t.A0))
        ref = np.real(np.poly(lam))
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(expanded - ref) / scale) < 1e-10


def test_factors_account_for_each_eigenvalue_once():
    # eta +- i beta for a pair, eta for a real factor: together the
    # eigenvalues of A0^{-1}, each matched exactly once
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        claimed = []
        for f in factor_list(spectral_decompose(t)):
            claimed += [complex(f.eta)] if f.is_real else \
                [complex(f.eta, f.beta), complex(f.eta, -f.beta)]
        lam = np.linalg.eigvals(np.linalg.inv(t.A0))
        assert len(claimed) == len(lam) == s
        unused = list(claimed)
        for l in lam:
            j = int(np.argmin([abs(c - l) for c in unused]))
            assert abs(unused.pop(j) - l) <= 1e-12 * max(1.0, abs(l)), \
                (fam, s, l)


def test_inverse_eigenvalues_are_reciprocals():
    for fam, s in MAIN_FAMILIES:
        t = build_tableau(fam, s)
        a = np.sort_complex(np.linalg.eigvals(t.A0))
        binv = np.sort_complex(1.0 / np.linalg.eigvals(np.linalg.inv(t.A0)))
        assert np.max(np.abs(a - binv) / np.abs(a)) < 1e-12


def test_factor_list_order_and_tags():
    sd = spectral_decompose(build_tableau("gauss", 3))
    factors = factor_list(sd)
    assert not factors[0].is_real
    assert factors[-1].is_real
    assert factors[-1].kappa_bound == 1.0
    # pairs sorted ascending by beta/eta
    ratios = [f.beta / f.eta for f in factors if not f.is_real]
    assert ratios == sorted(ratios)

    sd1 = spectral_decompose(build_tableau("radauIIA", 1))
    (f,) = factor_list(sd1)
    assert f.is_real and f.eta == pytest.approx(1.0)


def test_backward_euler_R_is_one():
    R = adjugate_row_polynomials(build_tableau("backwardEuler", 1))
    assert np.max(np.abs(R - [[1.0]])) < 1e-15


def test_R_against_cofactor_oracle():
    for fam, s in [("RadauIIA", 3), ("Gauss", 4), ("LobattoIIIC", 5)]:
        t = build_tableau(fam, s)
        B = np.linalg.inv(t.A0)
        adj = ring_adjugate_polys(B)
        w = t.b0 @ B
        R_oracle = np.einsum("j,jik->ik", w, adj)
        R = adjugate_row_polynomials(t)
        assert np.max(np.abs(R - R_oracle)) < 1e-10 * max(1.0, np.max(np.abs(R)))


def test_R_against_kronecker_oracle():
    rng = np.random.default_rng(7)
    for fam, s in MAIN_FAMILIES:
        t = build_tableau(fam, s)
        n = 4
        X = rng.standard_normal((n, n))
        X = X - X.T - 0.4 * (lambda b: b @ b.T)(rng.standard_normal((n, n)))
        f = rng.standard_normal(s * n)
        z_oracle = kron_adjugate_apply(t, X, f)
        R = adjugate_row_polynomials(t)
        z = apply_R(R, X, f.reshape(s, n))
        assert np.linalg.norm(z - z_oracle) < 1e-10 * max(1.0, np.linalg.norm(z_oracle))


def test_stiffly_accurate_R_is_last_adjugate_row():
    for s in (2, 3, 4):
        t = build_tableau("radauIIA", s)
        B = np.linalg.inv(t.A0)
        _, mats = faddeev_leverrier(B)
        sign = -1.0 if s % 2 == 0 else 1.0
        R_last_row = np.zeros((s, s))
        for k, Nk in enumerate(mats):
            R_last_row[:, s - 1 - k] = sign * Nk[s - 1, :]
        R = adjugate_row_polynomials(t)
        assert np.max(np.abs(R - R_last_row)) < 1e-11


def test_ring_adjugate_identity():
    # adj(M_s) M_s = det(M_s) (x) I for random spatial blocks
    rng = np.random.default_rng(3)
    for fam, s in [("Gauss", 2), ("RadauIIA", 3), ("LobattoIIIC", 4),
                   ("Gauss", 5)]:
        t = build_tableau(fam, s)
        B = np.linalg.inv(t.A0)
        n = 3
        X = rng.standard_normal((n, n))
        Ms = np.kron(B, np.eye(n)) - np.kron(np.eye(s), X)
        adj_polys = ring_adjugate_polys(B)
        big_adj = np.zeros((s * n, s * n))
        Xp = [np.eye(n)]
        for _ in range(s - 1):
            Xp.append(Xp[-1] @ X)
        for i in range(s):
            for j in range(s):
                blk = sum(adj_polys[i, j, k] * Xp[k] for k in range(s))
                big_adj[i * n:(i + 1) * n, j * n:(j + 1) * n] = blk
        lam = np.linalg.eigvals(B)
        D = np.eye(n, dtype=complex)
        for l in lam:
            D = D @ (l * np.eye(n) - X)
        D = D.real
        prod = big_adj @ Ms
        ref = np.kron(np.eye(s), D)
        assert np.max(np.abs(prod - ref)) < 1e-9 * max(1.0, np.max(np.abs(ref)))


def test_stability_violation_on_bad_tableau():
    from irksolve.tableaux import ButcherTableau
    from irksolve.spectral import StabilityViolation
    bad = ButcherTableau(family="Gauss", s=1, A0=np.array([[-1.0]]),
                         b0=np.array([1.0]), c0=np.array([-1.0]), order=1)
    with pytest.raises(StabilityViolation):
        spectral_decompose(bad)


# ----------------------------------------------------------------------
# partial fractions

def _partial_fraction_sum(pf, z):
    """(R(z), b^T (I - z A0)^{-1}) from the weights at scalar z: a real
    factor contributes w / (eta - z), a pair (its weights doubled) the
    two conjugate terms, and chained solves nest as Horner steps."""
    R, G = pf.r_inf, 0.0
    y, yE = 0.0, 0.0
    for f, c, e in zip(pf.factors, pf.c, pf.E):
        if pf.chained:
            y, yE = (c + y) / (f.eta - z), (e + yE) / (f.eta - z)
        elif f.is_real:
            R, G = R + c.real / (f.eta - z), G + e.real / (f.eta - z)
        else:
            lam = complex(f.eta, f.beta)
            R += c / 2 / (lam - z) + np.conj(c) / 2 / (np.conj(lam) - z)
            G += e / 2 / (lam - z) + np.conj(e) / 2 / (np.conj(lam) - z)
    return R + y, G + yE


def test_partial_fractions_reproduce_the_stability_function():
    # R(inf) + sum_j w_j / (lambda_j - z) = 1 + z b^T (I - z A0)^{-1} 1,
    # and the forcing rows sum to b^T (I - z A0)^{-1}, for every tableau
    # (SDIRK in the confluent form) at z on and left of the imaginary axis
    zs = [0.0, -0.5, -7.0, -1e3, -1e6, 3j, 2e3j, -4.0 + 25j, -1e2 - 1e4j]
    worst = {}
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        pf = partial_fractions(t, factor_list(spectral_decompose(t)))
        assert pf.chained == (fam in ("SDIRK2L", "SDIRK3L", "BackwardEuler")
                              or (fam, s) in (("Gauss", 1), ("RadauIIA", 1)))
        err = 0.0
        for z in zs:
            res = np.linalg.inv(np.eye(s) - z * t.A0)
            R = 1.0 + z * t.b0 @ res @ np.ones(s)
            G = t.b0 @ res
            got_R, got_G = _partial_fraction_sum(pf, z)
            err = max(err, abs(got_R - R) / max(1.0, abs(R)),
                      np.max(np.abs(got_G - G)) / max(1.0, np.max(np.abs(G))))
        worst[fam, s] = err
    assert max(worst.values()) <= 1e-12, worst


def test_partial_fractions_r_inf_and_solves():
    # R(inf) is (-1)^s for Gauss and 0 for the stiffly accurate families;
    # one solve per pair or real eigenvalue, and s for an SDIRK tableau
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        factors = factor_list(spectral_decompose(t))
        pf = partial_fractions(t, factors)
        want = (-1.0) ** s if fam == "Gauss" else 0.0
        assert pf.r_inf == pytest.approx(want, abs=1e-13), (fam, s)
        assert len(pf.factors) == (s if pf.chained else len(factors))


def test_near_defective_tableau_is_rejected():
    # lower triangular with two diagonal entries 1e-9 apart: not the
    # confluent form, and its eigenvectors are nearly parallel
    bad = ButcherTableau(family="nearDefective", s=2,
                         A0=np.array([[0.3, 0.0], [0.4, 0.3 + 1e-9]]),
                         b0=np.array([0.5, 0.5]), c0=np.array([0.3, 0.7]),
                         order=1)
    with pytest.raises(DefectiveTableau, match="condition"):
        partial_fractions(bad, factor_list(spectral_decompose(bad)))
