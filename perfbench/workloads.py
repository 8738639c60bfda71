"""The three step-benchmark workloads.

Each workload turns a seed into inputs, builds a ready stepper from
them through the public builders, and checks the state an integration
ends in against a reference the benchmark computes itself.  All three
use rel_tol 1e-10, the optimal shift gamma*, the "exact" inner solve and
the automatic outer Krylov method.
"""

import numpy as np

from irksolve import (GridSpec, IdentityMass, IRKStepper, LinearProblem,
                      build_fd_mms, build_tableau, build_upwind_advection)
from irksolve.experiments import parse_inner
from irksolve.krylov import KrylovConfig
from irksolve.spatial import build_fem_diffusion_1d

OUTER = KrylovConfig(method="auto", rel_tol=1e-10)


def _stepper(tr, tableau_args, problem, dt, dim):
    """tableau + IRKStepper, each call wrapped by tr (identity untraced)."""
    tableau = tr("tableaux.build", build_tableau)(*tableau_args)
    kind, params = parse_inner("exact", dim)
    return tr("stepper.init", IRKStepper)(tableau, problem, dt,
                                          outer_cfg=OUTER, inner_kind=kind,
                                          inner_params=params)


class MMS2D:
    """2D fourth-order FD advection-diffusion MMS, Gauss-2, n=128, dt=2h.

    The paper's flagship problem.  Sparse-LU solves dominate each step;
    the ARPACK W(L) certificate and the LU fill dominate set-up and
    memory.  The seed picks the start time t0, and u0 = exact(t0).
    """

    name = "mms2d"
    steps = 8          # planned steps per integration
    setups = 5         # set-ups per run; setup_s is their median
    n = 128
    tol = 1e-5         # max-norm error against the exact MMS solution

    def inputs(self, seed):
        return {"t0": float(np.random.default_rng(seed).uniform(0.0, 1.0))}

    def build(self, x, tr):
        grid = GridSpec(dim=2, n=self.n)
        problem = tr("spatial.build", build_fd_mms)(grid, fd_order=4)
        stepper = _stepper(tr, ("gauss", 2), problem, 2 * grid.h, 2)
        return stepper, self._exact(x["t0"]), x["t0"]

    def _exact(self, t):
        # u_t + 0.85 u_x + u_y = 0.3 u_xx + 0.25 u_yy + s with
        # u = sin^4(pi/2 [x-1-0.85t]) sin^4(pi/2 [y-1-t]) exp(-0.55 t)
        X, Y = GridSpec(dim=2, n=self.n).meshgrid()
        bump_x = np.sin(0.5 * np.pi * (X - 1.0 - 0.85 * t)) ** 4
        bump_y = np.sin(0.5 * np.pi * (Y - 1.0 - t)) ** 4
        return (bump_x * bump_y * np.exp(-0.55 * t)).reshape(-1)

    def check(self, x, u, t):
        err = float(np.max(np.abs(u - self._exact(t))))
        return err <= self.tol, f"max error vs exact MMS {err:.3e} (tol {self.tol:.0e})"


class Upwind1D:
    """1D first-order upwind advection, LobattoIIIC-5, n=1024, dt=8h.

    Two conjugate pairs and one real eigenvalue: the gamma* regime with
    about 19 outer iterations per step on short vectors, where Python
    Krylov bookkeeping and RHS assembly outweigh the cheap banded
    solves.  The seed picks the square pulse's centre and half-width.
    """

    name = "upwind1d"
    steps = 64
    setups = 11
    n = 1024
    tol = 1e-7         # max-norm error against the FFT-exact semi-discrete solution
    sum_tol = 1e-9     # |sum(u) - sum(u0)| relative to sum(|u0|)

    def inputs(self, seed):
        rng = np.random.default_rng(seed)
        return {"centre": float(rng.uniform(-1.0, 1.0)),
                "half_width": float(rng.uniform(0.2, 0.5))}

    def build(self, x, tr):
        grid = GridSpec(dim=1, n=self.n)

        def problem_of(grid):
            return LinearProblem(IdentityMass(grid.size),
                                 build_upwind_advection(grid, 1.0))

        problem = tr("spatial.build", problem_of)(grid)
        stepper = _stepper(tr, ("lobattoIIIC", 5), problem, 8 * grid.h, 1)
        return stepper, self._u0(x), 0.0

    def _u0(self, x):
        # periodic distance to the centre
        d = (GridSpec(dim=1, n=self.n).points_1d() - x["centre"] + 1.0) % 2.0 - 1.0
        return np.where(np.abs(d) <= x["half_width"], 1.0, 0.0)

    def check(self, x, u, t):
        u0 = self._u0(x)
        # u' = L u with L circulant: exact in Fourier space.  Symbol of
        # the upwind stencil (u_{j-1} - u_j)/h at angle theta_k.
        h = 2.0 / self.n
        theta = 2.0 * np.pi * np.arange(self.n) / self.n
        symbol = (np.exp(-1j * theta) - 1.0) / h
        ref = np.real(np.fft.ifft(np.exp(t * symbol) * np.fft.fft(u0)))
        err = float(np.max(np.abs(u - ref)))
        drift = abs(float(u.sum() - u0.sum())) / float(np.abs(u0).sum())
        ok = err <= self.tol and drift <= self.sum_tol
        return ok, (f"max error vs FFT reference {err:.3e} (tol {self.tol:.0e}); "
                    f"relative sum(u) drift {drift:.1e} (tol {self.sum_tol:.0e})")


class FEM1D:
    """1D periodic linear-FEM diffusion with sparse mass, Gauss-3,
    n=256, dt=2h, tf=2, CG.

    The only workload with M solves and CG.  It carries the known
    spurious CG Breakdown near step 103 of 128; those steps are counted
    as failed, never hidden.  The seed picks the phase phi of
    u0 = sin(pi x + phi), still a discrete eigenvector with the same norm.
    """

    name = "fem1d"
    steps = 128
    setups = 31
    n = 256
    tol = 1e-6         # max-norm error relative to the exact amplitude

    def inputs(self, seed):
        return {"phi": float(np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi))}

    def build(self, x, tr):
        grid = GridSpec(dim=1, n=self.n)
        problem = tr("spatial.build", build_fem_diffusion_1d)(grid)
        stepper = _stepper(tr, ("gauss", 3), problem, 2 * grid.h, 1)
        return stepper, self._u0(x), 0.0

    def _u0(self, x):
        return np.sin(np.pi * GridSpec(dim=1, n=self.n).points_1d() + x["phi"])

    def check(self, x, u, t):
        # M u' = -K u with rows (h/6)[1,4,1] and (1/h)[-1,2,-1]: the
        # pi-mode decays at the discrete rate mu = lambda_K / lambda_M.
        h = 2.0 / self.n
        c = np.cos(np.pi * h)
        mu = (2.0 - 2.0 * c) / h / ((h / 6.0) * (4.0 + 2.0 * c))
        exact = np.exp(-mu * t) * self._u0(x)
        scale = float(np.max(np.abs(exact)))
        err = float(np.max(np.abs(u - exact))) / scale
        return err <= self.tol, (f"error vs exact discrete decay, relative to "
                                 f"amplitude {scale:.2e}: {err:.3e} (tol {self.tol:.0e})")


WORKLOADS = {w.name: w for w in (MMS2D(), Upwind1D(), FEM1D())}
