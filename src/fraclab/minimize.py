"""Constrained minimization of the nonlocal energy.

Preconditioned spectral projected gradient (Birgin, Martinez and Raydan,
SIAM J. Optim. 10, 2000) over fields confined to [-1, 1] and fixed
outside the free region.  Each iteration projects one preconditioned
step, d = clip(x - alpha*P^-1 g, -1, 1) - x, and searches the segment
x + t*d with monotone Armijo halving of t from 1.  P = (2c + sigma)I - 2T
is the Hessian with every diagonal raised to the largest and the well's
curvature taken at +-1; the parity classes' transforms diagonalize it up
to truncation (Chan and Ng, SIAM Review 38, 1996), so P^-1 g costs one
transform pass (``EnergyModel.precondition``).  alpha starts at 1 and is
the Barzilai-Borwein quotient <s, H0 s> / <s, y> in the metric
H0 = 2(diag(c_box + t0) - T) + sigma*I, which the segment's T(d) gives.
An iteration whose clipped step does not descend takes the plain
projected-gradient step 1 / max diagonal instead.  The operator is
linear, so one convolution, of d, prices every trial point on the
segment and the next gradient.  The gradient is the exact discrete one
(twice the operator value plus the well derivative), so stationarity,
residuals and minimality checks all refer to the same energy.  There is
one stopping rule, as in the method's source: a run has converged when
the projected gradient, taken from a fresh convolution, is below
grad_tol.  grad_tol and the iteration cap max_iters are required
keywords with no default here: the lab passes them from its
ExperimentConfig, the one place a run setting has a default.

Every reduction is a correctly rounded sum, and the convolutions and the
preconditioner are exactly reflection-equivariant, so a run is
deterministic and mirroring the data mirrors the iterates bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energies import EnergyModel
from .kernels import KernelTable, stable_sum
from .lattice import CellSet, Exterior, Lattice, ScalarField

__all__ = [
    "MinimizeResult",
    "initial_field",
    "minimize_energy",
]

ARMIJO = 1e-4
MAX_BACKTRACKS = 40
STATIONARY = "projected gradient below tolerance"


@dataclass(frozen=True)
class MinimizeResult:
    """Final iterate plus the accepted-step history.

    ``trace`` rows are (iteration, energy, projected-gradient sup norm,
    step t*alpha); row 0 describes the initial field.  ``grad_norm`` is
    the projected-gradient sup norm of the final field, and ``converged``
    is derived from it and the run's ``grad_tol``, so the verdict is its
    own certificate.
    """

    field: ScalarField
    omega: CellSet
    grad_tol: float
    iterations: int
    grad_norm: float
    trace: np.ndarray
    message: str

    @property
    def converged(self) -> bool:
        return self.grad_norm < self.grad_tol

    @property
    def energy_trace(self) -> np.ndarray:
        return self.trace[:, 1]


def initial_field(lattice: Lattice, exterior: Exterior) -> ScalarField:
    """The exterior data extended inward: ``above`` at cell centres with
    x[axis] >= threshold, ``below`` elsewhere."""
    coord = lattice.axis_centers(exterior.axis).reshape(
        [-1 if a == exterior.axis else 1 for a in range(lattice.dim)])
    vals = np.where(coord >= exterior.threshold, exterior.above, exterior.below)
    return ScalarField(lattice, np.broadcast_to(vals, lattice.shape), exterior)


def _projected_grad(x, g, mask) -> np.ndarray:
    # feasible unit-step descent: zero where the constraint blocks the move
    return np.where(mask, x - np.clip(x - g, -1.0, 1.0), 0.0)


def minimize_energy(
    kern: KernelTable,
    pot,
    u0: ScalarField,
    omega: CellSet | None = None,
    *,
    max_iters: int,
    grad_tol: float,
) -> MinimizeResult:
    """Minimize E over fields equal to u0 outside omega, values in [-1, 1].

    Runs preconditioned spectral projected gradient with a monotone
    Armijo search on the segment from x to its projected step, at one
    convolution and one preconditioner solve per iteration.  The iterate
    x is the one point of the run's ``EnergyModel``, built on u0 and moved
    along each accepted segment: the energy is evaluated once, at u0, and
    then carried forward by the segment's exact energy changes.
    Converged means the projected-gradient sup-norm is below grad_tol.
    When the carried gradient passes, or the run is about to stop for any
    reason, the free part is convolved afresh and grad_norm comes from
    that gradient; a fresh gradient that misses grad_tol sends the run on
    unless it is stopping.  Exhausting max_iters, or 40 failed halvings in
    one line search, ends the run unconverged with a message instead of an
    exception.
    """
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
    if not grad_tol > 0:
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    if omega is None:
        omega = CellSet.full(kern.lattice)
    model = EnergyModel(kern, pot, u0, omega)
    mask = model.omega

    def pg_norm(x, g) -> float:
        return float(np.max(np.abs(_projected_grad(x, g, mask)))) if mask.any() else 0.0

    x = model.point
    e = model.energy()
    if not math.isfinite(e):
        raise ValueError(f"initial field has non-finite energy {e}")

    g = model.gradient()
    pg_sup = pg_norm(x, g)
    rows = [[0, e, pg_sup, 0.0]]

    # the plain projected-gradient step: 1 / max diagonal of the Hessian
    diag = 2.0 * model.diag
    if pot is not None:
        diag = diag + kern.lattice.cell_volume * np.abs(pot.second(x))
    plain = 1.0 / float(np.max(diag[mask])) if mask.any() else 1.0

    alpha = 1.0
    iterations = 0
    failed = False
    while not pg_sup < grad_tol:  # the start's gradient is fresh
        step = min(max(alpha, 1e-12), 1e12)
        d = np.where(mask, np.clip(x - step * model.precondition(g), -1.0, 1.0) - x, 0.0)
        slope = float(stable_sum((g * d)[mask]))
        if not slope < 0.0:
            # the clipped preconditioned step does not descend; the
            # projected gradient does
            step = plain
            d = np.where(mask, np.clip(x - step * g, -1.0, 1.0) - x, 0.0)
            slope = float(stable_sum((g * d)[mask]))
        delta = model.segment(d)
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
            g_new = model.gradient()
            # spectral step in the metric H0 of the segment, s = t*d; along
            # negative curvature just push harder
            sy = t * float(stable_sum((d * (g_new - g))[mask]))
            alpha = t * t * delta.metric / sy if sy > 0 else 2.0 * t * alpha
            x, e, g = x_new, e + de, g_new
            iterations += 1
            pg_sup = pg_norm(x, g)
            rows.append([iterations, e, pg_sup, t * step])

        stopping = failed or iterations == max_iters
        if stopping or pg_sup < grad_tol:
            # confirm on a fresh convolution of the free part; the last row
            # keeps its energy, and a miss that is not stopping runs on
            model.refresh()
            g = model.gradient()
            pg_sup = rows[-1][2] = pg_norm(x, g)
            if stopping:
                break

    if pg_sup < grad_tol:
        message = STATIONARY
    elif failed:
        message = f"line search failed after {MAX_BACKTRACKS} halvings"
    else:
        message = "max_iters exhausted"

    final = ScalarField(kern.lattice, x, u0.exterior)
    return MinimizeResult(
        field=final,
        omega=omega,
        grad_tol=grad_tol,
        iterations=iterations,
        grad_norm=pg_sup,
        trace=np.array(rows, dtype=float),
        message=message,
    )
