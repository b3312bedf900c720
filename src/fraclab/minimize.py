"""Constrained minimization of the nonlocal energy.

Spectral projected gradient (Birgin, Martinez and Raydan, SIAM J. Optim.
10, 2000) over fields confined to [-1, 1] and fixed outside the free
region: each iteration projects one Barzilai-Borwein step,
d = clip(x - alpha*g, -1, 1) - x, and searches the segment x + t*d with
monotone Armijo halving of t from 1.  The operator is linear, so one
convolution, of d, prices every trial point on the segment and the next
gradient.  The gradient is the exact discrete one (twice the operator
value plus the well derivative), so stationarity, residuals and
minimality checks all refer to the same energy.  There is one stopping
rule, as in the method's source: a run has converged when the projected
gradient, taken from a fresh convolution, is below grad_tol.

Every reduction is a correctly rounded sum and the convolutions are
exactly reflection-equivariant, so a run is deterministic and mirroring the data
mirrors the iterates bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import EnergyModel
from .kernels import KernelTable, stable_sum
from .lattice import (
    CellSet,
    ConstantExterior,
    HalfspaceExterior,
    Lattice,
    ScalarField,
)

__all__ = [
    "MinimizeConfig",
    "MinimizeResult",
    "initial_field",
    "minimize_energy",
]

ARMIJO = 1e-4
MAX_BACKTRACKS = 40
STATIONARY = "projected gradient below tolerance"


@dataclass(frozen=True)
class MinimizeConfig:
    """Stopping rules; the starting field comes from ``initial_field``."""

    max_iters: int = 1000
    grad_tol: float = 1e-7

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.grad_tol > 0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")


@dataclass(frozen=True)
class MinimizeResult:
    """Final iterate plus the accepted-step history.

    ``trace`` rows are (iteration, energy, projected-gradient sup norm,
    step t*alpha); row 0 describes the initial field.  ``grad_norm`` is
    the projected-gradient sup norm of the final field, and ``converged``
    is derived from it, so the verdict is its own certificate.
    """

    field: ScalarField
    omega: CellSet
    config: MinimizeConfig
    iterations: int
    grad_norm: float
    trace: np.ndarray
    message: str

    @property
    def converged(self) -> bool:
        return self.grad_norm < self.config.grad_tol

    @property
    def energy(self) -> float:
        return float(self.trace[-1, 1])

    @property
    def energy_trace(self) -> np.ndarray:
        return self.trace[:, 1]


def initial_field(lattice: Lattice, exterior) -> ScalarField:
    """The exterior data extended inward: the sign of the halfspace
    coordinate, or the constant value."""
    if isinstance(exterior, HalfspaceExterior):
        coord = lattice.axis_centers(exterior.axis).reshape(
            [-1 if a == exterior.axis else 1 for a in range(lattice.dim)])
        vals = np.broadcast_to(np.where(coord >= exterior.threshold, 1.0, -1.0),
                               lattice.shape)
    elif isinstance(exterior, ConstantExterior):
        vals = np.full(lattice.shape, exterior.value)
    else:
        raise TypeError(f"unsupported exterior descriptor {type(exterior).__name__}")
    return ScalarField(lattice, vals, exterior)


def _projected_grad(x, g, mask) -> np.ndarray:
    # feasible unit-step descent: zero where the constraint blocks the move
    return np.where(mask, x - np.clip(x - g, -1.0, 1.0), 0.0)


def minimize_energy(
    kern: KernelTable,
    pot,
    u0: ScalarField,
    omega: CellSet | None = None,
    cfg: MinimizeConfig | None = None,
) -> MinimizeResult:
    """Minimize E over fields equal to u0 outside omega, values in [-1, 1].

    Runs spectral projected gradient with a monotone Armijo search on the
    segment from x to its projected BB step, at one convolution per
    iteration: the energy is evaluated once, at u0, and then carried
    forward by the segment's exact energy changes.  Converged means the
    projected-gradient sup-norm is below grad_tol.  When the carried
    gradient passes, or the run is about to stop for any reason, the free
    part is convolved afresh and grad_norm comes from that gradient; a
    fresh gradient that misses grad_tol sends the run on unless it is
    stopping.  Exhausting max_iters, or 40 failed halvings in one line
    search, ends the run unconverged with a message instead of an
    exception.
    """
    cfg = MinimizeConfig() if cfg is None else cfg
    if omega is None:
        omega = CellSet.full(kern.lattice)
    model = EnergyModel(kern, pot, u0, omega)
    mask = model.omega

    def pg_norm(x, g) -> float:
        return float(np.max(np.abs(_projected_grad(x, g, mask)))) if mask.any() else 0.0

    x = u0.values
    e = model.energy(x)
    if not math.isfinite(e):
        raise ValueError(f"initial field has non-finite energy {e}")

    g = model.gradient(x)
    pg_sup = pg_norm(x, g)
    rows = [[0, e, pg_sup, 0.0]]

    # curvature-based first step: 1 / max diagonal of the energy Hessian
    diag = 2.0 * (model._c_box + model.t0)
    if pot is not None:
        diag = diag + model.cell_measure * np.abs(pot.second(x))
    alpha = 1.0 / float(np.max(diag[mask])) if mask.any() else 1.0

    iterations = 0
    failed = False
    while not pg_sup < cfg.grad_tol:  # the start's gradient is fresh
        step = min(max(alpha, 1e-12), 1e12)
        d = np.where(mask, np.clip(x - step * g, -1.0, 1.0) - x, 0.0)
        slope = float(stable_sum((g * d)[mask]))
        delta = model.segment(x, d)
        t = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            de = delta(t)
            if de <= ARMIJO * t * slope:
                break
            t *= 0.5
        else:
            failed = True

        if not failed:
            x_new = model.move(t)
            g_new = model.gradient(x_new)
            dx = x_new - x
            dg = g_new - g
            sy = float(stable_sum((dx * dg)[mask]))
            ss = float(stable_sum((dx * dx)[mask]))
            # spectral step; along negative curvature just push harder
            alpha = ss / sy if sy > 0 else 2.0 * t * step
            x, e, g = x_new, e + de, g_new
            iterations += 1
            pg_sup = pg_norm(x, g)
            rows.append([iterations, e, pg_sup, t * step])

        stopping = failed or iterations == cfg.max_iters
        if stopping or pg_sup < cfg.grad_tol:
            # confirm on a fresh convolution of the free part; the last row
            # keeps its energy, and a miss that is not stopping runs on
            model.refresh()
            g = model.gradient(x)
            pg_sup = rows[-1][2] = pg_norm(x, g)
            if stopping:
                break

    if pg_sup < cfg.grad_tol:
        message = STATIONARY
    elif failed:
        message = f"line search failed after {MAX_BACKTRACKS} halvings"
    else:
        message = "max_iters exhausted"

    final = ScalarField(kern.lattice, x, u0.exterior)
    return MinimizeResult(
        field=final,
        omega=omega,
        config=cfg,
        iterations=iterations,
        grad_norm=pg_sup,
        trace=np.array(rows, dtype=float),
        message=message,
    )
