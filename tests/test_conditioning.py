import math

import numpy as np
import pytest

from irksolve.conditioning import (SingularShift, compute_kappa, h_scan,
                                   optimality_probe, proof_constants,
                                   random_stable_matrix, tightness_matrix)
from irksolve.spectral import spectral_decompose
from irksolve.tableaux import build_tableau

GAUSS2 = (3.0, math.sqrt(3.0))  # (eta, beta) of the Gauss-2 pair


def test_zero_operator_gives_identity():
    eta, beta = GAUSS2
    r = compute_kappa(np.zeros((5, 5)), eta, beta)
    assert r.kappa_measured == pytest.approx(1.0, abs=1e-12)
    assert r.gamma == pytest.approx(math.hypot(eta, beta), rel=1e-14)


def test_tightness_attains_bound():
    eta, beta = GAUSS2
    r = compute_kappa(tightness_matrix(eta, beta), eta, beta)
    assert r.kappa_measured == pytest.approx(r.kappa_bound, rel=1e-10)
    assert r.kappa_bound == pytest.approx(math.sqrt(1 + beta ** 2 / eta ** 2),
                                          rel=1e-14)


def test_tightness_nonoptimal_delta():
    # the general bound (delta + gamma*)/2 eta is attained as well
    eta, beta = 2.0, 5.0
    delta = 1.7
    r = compute_kappa(tightness_matrix(eta, beta, delta=delta), eta, beta,
                      delta=delta)
    assert r.gamma == pytest.approx((eta ** 2 + beta ** 2) / delta, rel=1e-14)
    assert r.kappa_measured == pytest.approx(r.kappa_bound, rel=1e-10)


def test_random_stable_respects_bound():
    rng = np.random.default_rng(123)
    eta, beta = GAUSS2
    bound = math.sqrt(1 + beta ** 2 / eta ** 2)
    for _ in range(25):
        L = random_stable_matrix(64, rng, scale=3.0)
        r = compute_kappa(L, eta, beta)
        assert r.kappa_measured <= bound + 1e-10
        # the field of values really is in the left half plane
        S = 0.5 * (L + L.T)
        assert np.linalg.eigvalsh(S)[-1] <= 1e-12


def test_h_scan_special_values():
    eta, beta = GAUSS2
    gs = math.hypot(eta, beta)
    for delta, gamma in [(gs, gs), (gs, 0.7 * gs), (2.0, 9.0)]:
        gstar = (eta ** 2 + beta ** 2) / delta
        h0, hstar, hinf = h_scan(delta, gamma, eta, beta,
                                 [0.0, math.sqrt(delta * gstar), 1e6])
        assert h0 == pytest.approx(gstar ** 2 / gamma ** 2, rel=1e-12)
        ref = ((2 * eta) ** 2 * gstar
               / (delta * (gamma - gstar) ** 2 + gstar * (delta + gamma) ** 2))
        assert hstar == pytest.approx(ref, rel=1e-12)
        assert hinf == pytest.approx(1.0, abs=1e-9)


def test_h_scan_matches_rotation_block_realization():
    eta, beta = GAUSS2
    delta, gamma = 2.3, 4.1
    rng = np.random.default_rng(4)
    for xi in (0.3, 1.7, 5.0):
        L = np.array([[0.0, xi], [-xi, 0.0]])
        eye = np.eye(2)
        P = np.linalg.solve((delta * eye - L) @ (gamma * eye - L),
                            (eta * eye - L) @ (eta * eye - L) + beta ** 2 * eye)
        v = rng.standard_normal(2)
        direct = np.linalg.norm(P @ v) ** 2 / np.linalg.norm(v) ** 2
        hval = float(h_scan(delta, gamma, eta, beta, [xi])[0])
        assert direct == pytest.approx(hval, rel=1e-10)


def test_proof_constants():
    eta, beta = GAUSS2
    gs = math.hypot(eta, beta)
    # gamma = gamma*(delta): c1 = c2 = sqrt(c3) and all <= 1
    for delta in (0.5 * gs, gs, 3.0 * gs):
        c = proof_constants(delta, (eta ** 2 + beta ** 2) / delta, eta, beta)
        assert c["gamma_is_gamma_star"]
        assert c["c1"] == pytest.approx(c["c2"], rel=1e-13)
        assert c["c3"] == pytest.approx(c["c2"] ** 2, rel=1e-13)
        assert c["c2"] <= 1.0 + 1e-14
    # delta = gamma = eta, beta = 0: everything is 1
    c = proof_constants(2.0, 2.0, 2.0, 0.0)
    assert (c["c1"], c["c2"], c["c3"]) == pytest.approx((1.0, 1.0, 1.0))
    # Gauss-2 at delta = gamma = gamma* = 2 sqrt(3): c2 = sqrt(3)/2
    c = proof_constants(2 * math.sqrt(3), 2 * math.sqrt(3), eta, beta)
    assert c["c2"] == pytest.approx(math.sqrt(3) / 2, rel=1e-14)
    assert c["gamma_is_gamma_star"]


def test_optimality_probe_gauss2():
    eta, beta = GAUSS2
    kappa2 = 1 + beta ** 2 / eta ** 2
    gs = math.hypot(eta, beta)
    rows = optimality_probe(eta, beta, [gs])
    assert rows[0]["lower_bound_kappa2"] == pytest.approx(kappa2, rel=1e-14)
    # naive gamma = eta strictly worse
    rows = optimality_probe(eta, beta, [eta])
    assert rows[0]["lower_bound_kappa2"] > kappa2
    # gamma -> infinity diverges
    rows = optimality_probe(eta, beta, [1e6 * gs])
    assert rows[0]["lower_bound_kappa2"] > 1e6


def test_optimality_measured_kappa_exceeds_optimum():
    # for every gamma != gamma* on a grid, an explicit worst-case matrix
    # yields a measured kappa above the gamma* bound
    eta, beta = GAUSS2
    gs = math.hypot(eta, beta)
    bound_opt = math.sqrt(1 + beta ** 2 / eta ** 2)
    omega = gs  # sqrt(delta gamma*) with delta = gamma*
    for gamma in gs * np.linspace(0.5, 1.5, 20):
        if abs(gamma - gs) < 1e-9:
            continue
        if gamma < gs:
            L = tightness_matrix(eta, beta)       # eigenvalues {0, +-i omega}
        else:
            big = 1e5
            L = np.zeros((4, 4))
            L[0, 1], L[1, 0] = omega, -omega
            L[2, 3], L[3, 2] = big, -big          # stand-in for xi -> inf
        r = compute_kappa(L, eta, beta, delta=gs, gamma=float(gamma))
        assert r.kappa_measured > bound_opt, gamma


def test_bound_holds_for_all_tableau_factors():
    rng = np.random.default_rng(55)
    pairs = []
    for fam in ("Gauss", "RadauIIA", "LobattoIIIC"):
        for s in (2, 3, 4, 5):
            sd = spectral_decompose(build_tableau(fam, s))
            pairs += [(p.eta, p.beta) for p in sd.pairs]
            pairs += [(p.eta, 0.0) for p in sd.reals]
    L = random_stable_matrix(24, rng, scale=4.0)
    for eta, beta in pairs:
        r = compute_kappa(L, eta, beta)
        assert r.kappa_measured <= r.kappa_bound + 1e-8


def test_shift_on_an_eigenvalue_is_singular():
    # delta = 0 is an eigenvalue of L, so (delta I - L) has no inverse;
    # with L = 0 and both shifts 0 the shifted operator is exactly zero
    L = np.diag([0.0, -1.0, -2.0, -3.0])
    with pytest.raises(SingularShift):
        compute_kappa(L, *GAUSS2, delta=0.0, gamma=1.0)
    with pytest.raises(SingularShift):
        compute_kappa(np.zeros((3, 3)), 1.0, 1.0, delta=0.0, gamma=0.0)


@pytest.mark.parametrize("delta,gamma", [(0.0, 1.0), (1.0, -2.0)])
def test_proof_constants_need_positive_shifts(delta, gamma):
    with pytest.raises(ValueError, match="shifts must be positive"):
        proof_constants(delta, gamma, *GAUSS2)


def test_dense_cap():
    with pytest.raises(ValueError):
        compute_kappa(np.zeros((513, 513)), 1.0, 1.0)
