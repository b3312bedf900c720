"""Output checks that recompute each reported number a second way.

Every check here either recomputes a reported value by a method the
program does not use (direct pair summation instead of FFT convolution,
an integer offset histogram instead of a weight gather, a composite
Gauss-Legendre rule written here instead of ``scipy.integrate.quad``)
or tests a property the method must have.  None compares against a
stored copy of earlier output.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import fftconvolve


class CheckFailed(AssertionError):
    pass


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- lattice geometry, recomputed from the box description --------------------


def radius_of_cells(lat) -> np.ndarray:
    """Distance of every cell center from the origin, shape lat.shape."""
    axes = [(np.arange(lat.lo[a], lat.hi[a]) + 0.5) * lat.h
            for a in range(lat.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(g * g for g in grids))


def quartic(amplitude: float, u):
    return amplitude * (1.0 - u * u) ** 2


def quartic_deriv(amplitude: float, u):
    return 4.0 * amplitude * u * (u * u - 1.0)


def _row_weights(table: np.ndarray, pos: tuple) -> np.ndarray:
    """Pair weights from the cell at ``pos`` to every box cell.

    The table is indexed by offset + (shape - 1) per axis, so the weight
    of pair (i, j) sits at i - j + shape - 1.
    """
    shape = tuple((n + 1) // 2 for n in table.shape)
    sl = tuple(slice(p, p + n) for p, n in zip(pos, shape))
    return table[sl][(slice(None, None, -1),) * len(shape)]


# -- energies and minimizers ----------------------------------------------------


def direct_energy(table, tail0, tail1, tail2, amplitude, h_dim, u, omega) -> float:
    """Energy over omega by explicit pair summation, cell row by cell row.

    Pairs with both cells in omega count once, pairs with one cell in
    omega count once, exterior pairing is t0 u^2 - 2 t1 u + t2 per cell.
    """
    weight_j = np.where(omega, 0.5, 1.0)
    rows = []
    for pos in np.argwhere(omega):
        pos = tuple(int(p) for p in pos)
        d = u[pos] - u
        rows.append(float(np.sum(_row_weights(table, pos) * weight_j * d * d)))
    ui = u[omega]
    cells = (tail0[omega] * ui * ui - 2.0 * tail1[omega] * ui + tail2[omega]
             + h_dim * quartic(amplitude, ui))
    return math.fsum(rows) + math.fsum(cells)


def direct_gradient(table, tail0, tail1, amplitude, h_dim, u, pos) -> float:
    """d(energy)/d(u_i) at one cell by explicit summation over the box."""
    d = u[pos] - u
    pair = math.fsum((_row_weights(table, pos) * d).ravel())
    return (2.0 * (pair + tail0[pos] * u[pos] - tail1[pos])
            + h_dim * quartic_deriv(amplitude, u[pos]))


def stationarity(res, kern, amplitude, rng, samples: int, tol: float) -> float:
    """Largest energy gradient, summed directly, at a seeded sample of the
    free cells strictly inside the box constraint; fails above ``tol``."""
    u = res.field.values
    ext = res.field.exterior
    plus, minus = kern.tail_halfspace(ext.axis, ext.threshold)
    t0, t1 = plus + minus, plus - minus
    cells = np.argwhere(res.omega.members & (np.abs(u) < 1.0 - 1e-9))
    require(len(cells) > 0, "no free cell to test stationarity on")
    pick = rng.choice(len(cells), size=min(samples, len(cells)), replace=False)
    h_dim = kern.lattice.h ** kern.lattice.dim
    worst = 0.0
    for k in np.sort(pick):
        pos = tuple(int(p) for p in cells[k])
        g = direct_gradient(kern.table, t0, t1, amplitude, h_dim, u, pos)
        worst = max(worst, abs(g))
    require(worst <= tol,
            f"stationarity residual {worst:.3g} above {tol:g} on free cells")
    return worst


def growth_theory(s: float, dim: int, radii) -> float:
    """Log-log slope of the paper's energy rate across the fitted radii.

    R^(n-2s) below s = 1/2, R^(n-1) log R at s = 1/2 (its secant slope
    between the end radii), R^(n-1) above.
    """
    if s < 0.5:
        return dim - 2.0 * s
    if s > 0.5:
        return dim - 1.0
    lo, hi = radii[0], radii[-1]
    return (dim - 1.0) + (math.log(math.log(hi)) - math.log(math.log(lo))) \
        / (math.log(hi) - math.log(lo))


def fitted_slope(radii, energies) -> float:
    return float(np.polyfit(np.log(radii), np.log(energies), 1)[0])


# -- set geometry ---------------------------------------------------------------


def histogram_pair_mass(table: np.ndarray, a_mask, d_mask) -> float:
    """Sum of table weights over pairs (A, D) from the exact offset counts.

    N[d] = #{(i, j) in A x D : i - j = d} is the cross-correlation of the
    two indicators; the FFT value is rounded to the integer it must be.
    """
    a = a_mask.astype(float)
    d = d_mask[(slice(None, None, -1),) * d_mask.ndim].astype(float)
    raw = fftconvolve(a, d, mode="full")
    counts = np.rint(raw)
    require(float(np.max(np.abs(raw - counts))) < 0.25,
            "offset histogram is not integral")
    require(int(counts.sum()) == int(a_mask.sum()) * int(d_mask.sum()),
            "offset histogram does not count every pair")
    hit = counts > 0
    return math.fsum((table[hit] * counts[hit]).tolist())


# -- barrier --------------------------------------------------------------------


class RadialProfile:
    """The barrier core v(x) = h(r - |x|), rebuilt from its definition.

    g(t) = t^(-2s); h is the gap between g and its tangent at r/2,
    clamped to [0, 1], zero for t >= r/2; v = 1 outside B_r.
    """

    def __init__(self, r: float, s: float):
        self.r, self.s = r, s
        self.a = (r / 2.0) ** (-2.0 * s)
        self.b = -2.0 * s * (r / 2.0) ** (-1.0 - 2.0 * s)
        lo, hi = 1e-12 * r, r / 2.0  # gap - 1 changes sign once on (lo, hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._gap(mid) - 1.0 > 0.0:
                lo = mid
            else:
                hi = mid
        self.t_star = 0.5 * (lo + hi)

    def _gap(self, t):
        return t ** (-2.0 * self.s) - self.a - self.b * (t - self.r / 2.0)

    def v(self, y):
        rho = np.abs(y)
        t = np.maximum(self.r - rho, 1e-300)
        with np.errstate(over="ignore"):
            core = np.where(t >= self.r / 2.0, 0.0, np.minimum(1.0, self._gap(t)))
        return np.where(rho >= self.r, 1.0, core)

    def kinks(self) -> list[float]:
        return [self.r - self.t_star, self.r / 2.0, self.r]


def _gauss_pieces(breaks, levels: int = 12, per_panel: int = 8, order: int = 24):
    """Nodes and weights of a composite Gauss-Legendre rule on [0, breaks[-1]].

    The first panel is graded geometrically toward u = 0, where the
    integrand carries u^(1-2s), down to a last piece [0, breaks[0] 2^-levels]
    whose nodes stay far enough from 0 that the second difference in the
    numerator keeps its digits.  Later panels are split geometrically
    because the integrand decays like u^(-1-2s).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    edges = [0.0] + [breaks[0] * 2.0 ** (-k) for k in range(levels, -1, -1)]
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        edges.extend(np.geomspace(lo, hi, per_panel + 1)[1:])
    edges = np.asarray(edges)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def pv_operator(prof: RadialProfile, x: float) -> float:
    """int_R (v(y) - v(x)) |x - y|^(-(1+2s)) dy for the 1D profile."""
    s = prof.s
    vx = float(prof.v(x))
    upper = abs(x) + prof.r
    pts = {abs(k - x) for k in prof.kinks()} | {abs(k + x) for k in prof.kinks()}
    pts.add(abs(x))
    breaks = sorted(p for p in pts if 1e-9 * upper < p < upper) + [upper]
    u, w = _gauss_pieces(breaks)
    f = (prof.v(x + u) + prof.v(x - u) - 2.0 * vx) * u ** (-1.0 - 2.0 * s)
    tail = (2.0 - 2.0 * vx) * upper ** (-2.0 * s) / (2.0 * s)
    return math.fsum((f * w).tolist()) + tail


def c5_estimate(prof: RadialProfile, sample_count: int) -> float:
    """Sampled sup of (operator v)^+ / (v + 16 r^(-2s)) at k r / N."""
    floor = 16.0 * prof.r ** (-2.0 * prof.s)
    best = 0.0
    for k in range(1, sample_count + 1):
        x = prof.r * k / sample_count
        best = max(best, max(pv_operator(prof, x), 0.0) / (float(prof.v(x)) + floor))
    return best
