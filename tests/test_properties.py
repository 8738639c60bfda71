"""Property tests over random operators, tableaux, masses and dt.

Hypothesis runs derandomized, so every run draws the same examples and
the suite stays deterministic.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from irksolve.conditioning import compute_kappa, random_stable_matrix
from irksolve.krylov import KrylovConfig, solve
from irksolve.linop import (IdentityMass, SparseOperator,
                            build_inner_preconditioner)
from irksolve.spectral import factor_list, spectral_decompose
from irksolve.spatial import GridSpec, build_fem_mass_1d
from irksolve.stepper import IRKStepper, LinearProblem, advance_oracle
from irksolve.tableaux import SUPPORTED_TABLEAUX, build_tableau

DETERMINISTIC = settings(derandomize=True, deadline=None, max_examples=60)


@DETERMINISTIC
@given(tableau=st.sampled_from(SUPPORTED_TABLEAUX),
       mass=st.sampled_from(("identity", "fem")),
       n=st.integers(4, 24),
       scale=st.floats(0.1, 4.0),
       dt=st.floats(1e-3, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_advance_matches_oracle(tableau, mass, n, scale, dt, seed):
    r = np.random.default_rng(seed)
    M = build_fem_mass_1d(GridSpec(dim=1, n=n)) if mass == "fem" \
        else IdentityMass(n)
    L = SparseOperator(sp.csr_matrix(random_stable_matrix(n, r, scale)))
    v0 = r.standard_normal(n)
    prob = LinearProblem(M, L, forcing=lambda t: np.cos(1.1 * t) * v0)
    tab = build_tableau(*tableau)
    stepper = IRKStepper(tab, prob, dt, outer_cfg=KrylovConfig(
        method="auto", rel_tol=1e-13, max_iters=4000))
    u = r.standard_normal(n)
    got, _reports = stepper.advance(u, 0.3)
    want = advance_oracle(tab, prob, u, 0.3, dt)
    assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


@pytest.mark.filterwarnings("ignore:.*not diagonally dominant")
@DETERMINISTIC
@given(kind=st.sampled_from(("exact", "jacobi", "gauss_seidel")),
       sweeps=st.integers(1, 4),
       n=st.integers(2, 40),
       shift=st.floats(0.5, 8.0),
       restart=st.integers(1, 12),
       max_iters=st.integers(1, 60),
       rel_tol=st.sampled_from((1e-3, 1e-8, 1e-12)),
       seed=st.integers(0, 2**32 - 1))
def test_gmres_applies_fixed_preconditioner_once_per_iteration(
        kind, sweeps, n, shift, restart, max_iters, rel_tol, seed):
    r = np.random.default_rng(seed)
    A = shift * np.eye(n) - random_stable_matrix(n, r)
    op = SparseOperator(sp.csr_matrix(A))
    params = {} if kind == "exact" else {"sweeps": sweeps}
    pc = build_inner_preconditioner(kind, op, **params)
    per_apply = params.get("sweeps", 1)
    _x, rep = solve(op, r.standard_normal(n), pc,
                    KrylovConfig(method="gmres", rel_tol=rel_tol,
                                 max_iters=max_iters, restart=restart))
    assert rep.preconditioner_applications == rep.iterations * per_apply


@DETERMINISTIC
@given(tableau=st.sampled_from(SUPPORTED_TABLEAUX),
       n=st.integers(1, 48),
       scale=st.floats(0.05, 20.0),
       seed=st.integers(0, 2**32 - 1))
def test_kappa_within_bound(tableau, n, scale, seed):
    # kappa(P_gamma*) <= sqrt(1 + beta^2/eta^2) for every W(L) <= 0
    L = random_stable_matrix(n, np.random.default_rng(seed), scale)
    for f in factor_list(spectral_decompose(build_tableau(*tableau))):
        bound = np.sqrt(1.0 + (f.beta / f.eta) ** 2)
        r = compute_kappa(L, f.eta, f.beta)
        assert r.kappa_bound == pytest.approx(bound, rel=1e-12)
        assert r.kappa_measured <= bound * (1.0 + 1e-10)
