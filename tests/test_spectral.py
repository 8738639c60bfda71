import dataclasses

import numpy as np
import pytest

from irksolve import tableaux
from irksolve.linop import EigenFailure
from irksolve.spectral import (DefectiveTableau, factor_list,
                               spectral_decompose)
from irksolve.tableaux import (SUPPORTED_TABLEAUX, ButcherTableau,
                               build_tableau)

# every stage count of the collocation families, Radau IIA-1 (backward
# Euler's tableau) included
MAIN_FAMILIES = [(f, s) for f in ("Gauss", "RadauIIA", "LobattoIIIC")
                 for s in tableaux._FAMILY_RANGE[f]]


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
    # eigenvalues of A0^{-1}, each matched exactly once.  A triangular
    # A0 has the exact reference 1/a_ii: eigvals of its defective
    # inverse is accurate only to eps^(1/k)
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        claimed = []
        for f in factor_list(spectral_decompose(t)):
            claimed += [complex(f.eta)] if f.is_real else \
                [complex(f.eta, f.beta), complex(f.eta, -f.beta)]
        lam = (1.0 / np.diag(t.A0) if t.is_lower_triangular
               else np.linalg.eigvals(np.linalg.inv(t.A0)))
        assert len(claimed) == len(lam) == s
        unused = list(claimed)
        for l in lam:
            j = int(np.argmin([abs(c - l) for c in unused]))
            assert abs(unused.pop(j) - l) <= 1e-12 * max(1.0, abs(l)), \
                (fam, s, l)


def test_triangular_tableau_factors_are_the_reciprocal_diagonal():
    # SDIRK3L used to list a real factor and a "conjugate pair" with
    # beta 7.6e-9, and SDIRK2L two reals off 2 + sqrt(2) in the 8th digit
    triangular = [build_tableau(fam, s) for fam, s in SUPPORTED_TABLEAUX
                  if build_tableau(fam, s).is_lower_triangular]
    assert {"SDIRK2L", "SDIRK3L", "SDIRK4L", "BackwardEuler"} <= \
        {t.family for t in triangular}
    for t in triangular:
        factors = factor_list(spectral_decompose(t))
        assert [(f.eta, f.beta) for f in factors] == \
            [(1.0 / a, 0.0) for a in sorted(np.diag(t.A0), reverse=True)], \
            (t.family, t.s)


def test_eigenvalues_of_the_inverse_are_reciprocals():
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


def test_stability_violation_on_bad_tableau():
    from irksolve.tableaux import ButcherTableau
    from irksolve.spectral import StabilityViolation
    bad = ButcherTableau(family="Gauss", s=1, A0=np.array([[-1.0]]),
                         b0=np.array([1.0]), c0=np.array([-1.0]), order=1)
    with pytest.raises(StabilityViolation):
        spectral_decompose(bad)


# ----------------------------------------------------------------------
# partial fractions

def _partial_fraction_sum(sd, z):
    """(R(z), b^T (I - z A0)^{-1}) from the weights at scalar z: a real
    factor contributes w / (eta - z), a pair (its weights doubled) the
    two conjugate terms, and chained solves nest as Horner steps."""
    R, G = sd.r_inf, 0.0
    y, yE = 0.0, 0.0
    for f, c, e in zip(factor_list(sd), sd.c, sd.E):
        if sd.chained:
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
        sd = spectral_decompose(t)
        assert sd.chained == (fam in ("SDIRK2L", "SDIRK3L", "SDIRK4L",
                                      "BackwardEuler")
                              or (fam, s) == ("Gauss", 1))
        err = 0.0
        for z in zs:
            res = np.linalg.inv(np.eye(s) - z * t.A0)
            R = 1.0 + z * t.b0 @ res @ np.ones(s)
            G = t.b0 @ res
            got_R, got_G = _partial_fraction_sum(sd, z)
            err = max(err, abs(got_R - R) / max(1.0, abs(R)),
                      np.max(np.abs(got_G - G)) / max(1.0, np.max(np.abs(G))))
        worst[fam, s] = err
    assert max(worst.values()) <= 1e-12, worst


def test_partial_fractions_r_inf_and_solves():
    # R(inf) is (-1)^s for Gauss and 0 for the stiffly accurate families;
    # one solve per pair or real eigenvalue, and s for an SDIRK tableau
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        sd = spectral_decompose(t)
        want = (-1.0) ** s if fam == "Gauss" else 0.0
        assert sd.r_inf == pytest.approx(want, abs=1e-13), (fam, s)
        assert len(factor_list(sd)) == len(sd.c) == len(sd.E) == \
            (s if sd.chained else s - len(sd.pairs))


def test_near_defective_tableau_is_rejected():
    # lower triangular with two diagonal entries 1e-9 apart: not the
    # confluent form, and its eigenvectors are nearly parallel
    bad = ButcherTableau(family="nearDefective", s=2,
                         A0=np.array([[0.3, 0.0], [0.4, 0.3 + 1e-9]]),
                         b0=np.array([0.5, 0.5]), c0=np.array([0.3, 0.7]),
                         order=1)
    with pytest.raises(DefectiveTableau, match="condition"):
        spectral_decompose(bad)


def test_singular_tableau_is_an_eigen_failure():
    # A0 has no inverse, so B = A0^{-1} has no eigenvalues
    bad = ButcherTableau(family="singular", s=2,
                         A0=np.array([[0.5, 0.5], [0.5, 0.5]]),
                         b0=np.array([0.5, 0.5]), c0=np.array([1.0, 1.0]),
                         order=1)
    with pytest.raises(EigenFailure):
        spectral_decompose(bad)


# ----------------------------------------------------------------------
# one decomposition per tableau object

def test_spectral_data_is_computed_once_per_tableau():
    for fam, s in SUPPORTED_TABLEAUX:
        t = build_tableau(fam, s)
        assert spectral_decompose(t) is spectral_decompose(t)
        assert spectral_decompose(build_tableau(fam, s)) is \
            spectral_decompose(t)


def test_spectral_weights_are_read_only():
    sd = spectral_decompose(build_tableau("radauIIA", 3))
    with pytest.raises(ValueError):
        sd.c[0] = 1.0
    with pytest.raises(ValueError):
        sd.E[0, 0] = 1.0


def test_a_copied_tableau_gets_its_own_spectral_data():
    # the key is the object: a copy is decomposed anew, to the same
    # numbers, and a perturbed copy gets its own numbers
    t = build_tableau("gauss", 2)
    sd = spectral_decompose(t)
    same = spectral_decompose(dataclasses.replace(t))
    assert same is not sd
    assert same.pairs == sd.pairs and same.r_inf == sd.r_inf
    assert np.array_equal(same.c, sd.c) and np.array_equal(same.E, sd.E)
    moved = spectral_decompose(dataclasses.replace(t, A0=t.A0 * 1.001))
    assert moved is not sd
    assert moved.pairs[0].eta == pytest.approx(sd.pairs[0].eta / 1.001,
                                               rel=1e-12)
    assert spectral_decompose(t) is sd
