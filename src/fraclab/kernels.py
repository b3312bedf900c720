"""Pairwise weight tables for the singular interaction kernel |x-y|^(-(n+2s)).

Fields are piecewise constant per cell, so the energy only ever needs the
pair weight

    w(i, j) = integral over C_i x C_j of |x - y|^(-(n+2s)) dx dy ,

which depends on the index offset d = i - j alone.  The table uses a
three-way rule:

* near offsets (sup-norm |d| <= near_radius): the exact double integral.
  In 1D this has a closed form through the double antiderivative of
  t^(-(1+2s)); in 2D it is computed by adaptive panel quadrature, with the
  singular corner quarter of touching cells split off in closed form.
* touching offsets whose exact integral diverges (1D offset 1 and 2D
  edge-neighbours, when s >= 1/2): the single-layer collocation value
  h^n * integral over C_j of |c_i - y|^(-(n+2s)) dy, which is finite,
  positive and symmetric, and is the distance-one analogue of the far rule.
* far offsets: the midpoint rule h^(2n) |c_i - c_j|^(-(n+2s)).

The diagonal weight is exactly zero: a piecewise-constant field has
u(x) - u(y) = 0 on C_i x C_i, so the singular diagonal never contributes.

Everything outside the lattice box is handled by per-cell tail integrals
of the kernel against exterior regions.  The 1D tails are elementary; the
2D tails reduce to three exact primitives (half-plane, quadrant, strip),
with the quadrant evaluated by a Gauss-Jacobi rule that absorbs the
t^(2s-1) endpoint weight and the remaining factor expressed through the
regularized incomplete beta function.  Tables are cacheable to versioned
.npz files keyed by (dim, h, s, near_radius, quad_tol).
"""
from __future__ import annotations

import heapq
import math
import os
import tempfile
import warnings
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import next_fast_len, rfftn
from scipy.special import betainc, roots_jacobi

from .lattice import Lattice

__all__ = [
    "KernelTable",
    "build_kernel",
    "pair_weight_exact",
    "pair_weight_collocation",
    "far_weight",
    "cell_tail_weights",
    "cell_tail_halfspace",
    "halfplane_tail",
    "quadrant_tail",
    "strip_tail",
    "kernel_cache_path",
    "save_kernel",
    "load_kernel",
    "stable_sum",
]

CACHE_FORMAT_VERSION = 1


def stable_sum(arr) -> float:
    """Compensated sum in fixed C order; bit-reproducible across runs."""
    return math.fsum(np.asarray(arr, dtype=float).ravel(order="C"))


def _check_s(s: float) -> float:
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"kernel exponent s must lie in (0, 1), got {s}")
    return s


# ---------------------------------------------------------------------------
# exact pair integrals
# ---------------------------------------------------------------------------


def _antider2_1d(t: float, s: float) -> float:
    """Double antiderivative of t^(-(1+2s)), normalized to vanish at 0 when
    integrable there (s < 1/2)."""
    if t == 0.0:
        if s < 0.5:
            return 0.0
        raise ValueError("divergent endpoint")
    if s == 0.5:
        return -math.log(t)
    return t ** (1.0 - 2.0 * s) / ((2.0 * s) * (2.0 * s - 1.0))


def _pair_exact_1d(h: float, s: float, d: int) -> float:
    """Exact cell-pair integral in 1D at offset d >= 1; diverges iff
    d == 1 and s >= 1/2 (raises)."""
    a = d * h
    if d == 1 and s >= 0.5:
        raise ValueError("touching-cell integral diverges for s >= 1/2")
    F = _antider2_1d
    return F(a + h, s) - 2.0 * F(a, s) + F(a - h, s)


def _corner_quarter_closed(h: float, s: float) -> float:
    """int_0^h int_0^h t1 t2 (t1^2+t2^2)^(-(1+s)) dt1 dt2, closed form."""
    a = h * h
    return (2.0 - 2.0 ** (1.0 - s)) * a ** (1.0 - s) / (4.0 * s * (1.0 - s))


def _gl_nodes(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


_GL4 = _gl_nodes(4)
_GL8 = _gl_nodes(8)


def _panel_value(f, x0, x1, y0, y1, nodes):
    gx, gw = nodes
    xm, xr = 0.5 * (x0 + x1), 0.5 * (x1 - x0)
    ym, yr = 0.5 * (y0 + y1), 0.5 * (y1 - y0)
    X = xm + xr * gx
    Y = ym + yr * gx
    vals = f(X[:, None], Y[None, :])
    return xr * yr * float(((gw[:, None] * gw[None, :]) * vals).sum())


def adaptive_rect_quad(f, rect, tol: float, max_panels: int = 200_000) -> float:
    """Adaptive 2D panel quadrature with an embedded-rule error estimate.

    Each panel carries a coarse (4x4) and fine (8x8) tensor Gauss value;
    the worst panel (by |fine-coarse|) is split into 4 until the summed
    error estimate drops below tol * |total|.  Deterministic: ties broken
    by insertion order.  Stopping at ``max_panels`` above tolerance warns
    with the error estimate; a non-finite result raises.
    """
    x0, x1, y0, y1 = rect

    def make(px0, px1, py0, py1, serial):
        coarse = _panel_value(f, px0, px1, py0, py1, _GL4)
        fine = _panel_value(f, px0, px1, py0, py1, _GL8)
        err = abs(fine - coarse)
        return (-err, serial, px0, px1, py0, py1, fine)

    serial = 0
    heap = [make(x0, x1, y0, y1, serial)]
    total = heap[0][-1]
    total_err = -heap[0][0]
    n_panels = 1
    while total_err > tol * max(abs(total), 1e-300) and n_panels < max_panels:
        neg_err, _, px0, px1, py0, py1, fine = heapq.heappop(heap)
        total -= fine
        total_err += neg_err
        xm, ym = 0.5 * (px0 + px1), 0.5 * (py0 + py1)
        for cx0, cx1, cy0, cy1 in ((px0, xm, py0, ym), (xm, px1, py0, ym),
                                   (px0, xm, ym, py1), (xm, px1, ym, py1)):
            serial += 1
            child = make(cx0, cx1, cy0, cy1, serial)
            heapq.heappush(heap, child)
            total += child[-1]
            total_err -= child[0]
        n_panels += 3
    if not math.isfinite(total):
        raise FloatingPointError(f"non-finite panel quadrature {total} on {rect}")
    if total_err > tol * max(abs(total), 1e-300):
        warnings.warn(
            f"panel quadrature stopped at max_panels={max_panels} with error "
            f"estimate {total_err:.3g} (relative {total_err / max(abs(total), 1e-300):.3g},"
            f" tol {tol:.3g}) on {rect}", RuntimeWarning, stacklevel=2)
    return total


def _pair_exact_2d(h: float, s: float, d1: int, d2: int, tol: float) -> float:
    """Exact cell-pair integral in 2D at canonical offset 0 <= d1 <= d2,
    (d1, d2) != (0, 0).  Uses the hat-function reduction

        I = int H(t1 - d1 h) H(t2 - d2 h) |t|^(-(2+2s)) dt,

    H the triangular overlap of width 2h.  Edge-touching diverges iff
    s >= 1/2 (raises); the singular quarter of corner-touching cells is
    integrated in closed form.
    """
    if (d1, d2) == (0, 1) and s >= 0.5:
        raise ValueError("edge-touching integral diverges for s >= 1/2")
    a1, a2 = d1 * h, d2 * h
    alpha = 1.0 + s

    def integrand(t1, t2):
        h1 = np.maximum(h - np.abs(t1 - a1), 0.0)
        h2 = np.maximum(h - np.abs(t2 - a2), 0.0)
        r2 = t1 * t1 + t2 * t2
        return h1 * h2 * r2 ** (-alpha)

    rect = (a1 - h, a1 + h, a2 - h, a2 + h)
    if (d1, d2) == (1, 1):
        # split off [0,h]^2 where the hats are exactly t1*t2
        val = _corner_quarter_closed(h, s)
        for sub in ((h, 2 * h, 0.0, h), (0.0, h, h, 2 * h), (h, 2 * h, h, 2 * h)):
            val += adaptive_rect_quad(integrand, sub, tol)
        return val
    return adaptive_rect_quad(integrand, rect, tol)


def pair_weight_exact(dim: int, h: float, s: float, offset, tol: float = 1e-8) -> float:
    """Exact cell-pair double integral at the given offset (raises where it
    diverges; see module docstring)."""
    if dim == 1:
        d = abs(int(np.atleast_1d(offset)[0]))
        if d == 0:
            return 0.0
        return _pair_exact_1d(h, s, d)
    d1, d2 = sorted(abs(int(v)) for v in offset)
    if (d1, d2) == (0, 0):
        return 0.0
    return _pair_exact_2d(h, s, d1, d2, tol)


def pair_weight_collocation(dim: int, h: float, s: float, offset, tol: float = 1e-10) -> float:
    """Single-layer stand-in h^n * int_{C_j} |c_i - y|^(-(n+2s)) dy."""
    if dim == 1:
        d = abs(int(np.atleast_1d(offset)[0]))
        a = d * h
        lo, hi = a - 0.5 * h, a + 0.5 * h
        return h * (lo ** (-2.0 * s) - hi ** (-2.0 * s)) / (2.0 * s)
    d1, d2 = (abs(int(v)) for v in offset)
    a1, a2 = d1 * h, d2 * h
    alpha = 1.0 + s

    def integrand(u, v):
        return (u * u + v * v) ** (-alpha)

    rect = (a1 - 0.5 * h, a1 + 0.5 * h, a2 - 0.5 * h, a2 + 0.5 * h)
    return h * h * adaptive_rect_quad(integrand, rect, tol)


def far_weight(dim: int, h: float, s: float, offset) -> float:
    """Midpoint rule h^(2n) |c_i - c_j|^(-(n+2s))."""
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    r = float(np.sqrt(np.sum((off * h) ** 2)))
    if r == 0.0:
        return 0.0
    return h ** (2 * dim) * r ** (-(dim + 2.0 * s))


# ---------------------------------------------------------------------------
# exterior tail primitives
# ---------------------------------------------------------------------------


def _b_full(s: float) -> float:
    """int over R of (1+t^2)^(-(1+s)) dt = sqrt(pi) Gamma(s+1/2) / Gamma(s+1)."""
    return math.sqrt(math.pi) * math.gamma(s + 0.5) / math.gamma(s + 1.0)


def halfplane_tail(c, s: float):
    """int over {dist >= c} of |x-y|^(-(2+2s)) dy for a 2D half-plane."""
    c = np.asarray(c, dtype=float)
    return _b_full(s) * c ** (-2.0 * s) / (2.0 * s)


_JACOBI_CACHE: dict = {}


def _jacobi_rule(s: float, n: int = 48):
    """Nodes/weights for int_0^1 tau^(2s-1) f(tau) dtau."""
    key = (round(s, 15), n)
    if key not in _JACOBI_CACHE:
        x, w = roots_jacobi(n, 0.0, 2.0 * s - 1.0)
        tau = 0.5 * (x + 1.0)
        wt = w * 0.5 ** (2.0 * s)
        _JACOBI_CACHE[key] = (tau, wt)
    return _JACOBI_CACHE[key]


def _upper_angle(z, s: float):
    """G(z) = int_z^inf (1+t^2)^(-(1+s)) dt, z >= 0, cancellation-free."""
    z = np.asarray(z, dtype=float)
    x = 1.0 / (1.0 + z * z)
    return 0.5 * _b_full(s) * betainc(s + 0.5, 0.5, x)


def quadrant_tail(a, b, s: float, n: int = 48):
    """int over {u >= a, v >= b} of (u^2+v^2)^(-(1+s)) du dv, a, b > 0.

    Symmetric in (a, b); evaluated with the larger argument as the outer
    scale so the Gauss-Jacobi factor stays smooth.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    tau, wt = _jacobi_rule(s, n)
    ratio = (lo / hi)[..., None] * tau
    g = _upper_angle(ratio, s)
    return hi ** (-2.0 * s) * np.einsum("...k,k->...", g, wt)


def strip_tail(d, a, b, s: float, n: int = 48):
    """int over {w in [a, b], v >= d} of (w^2+v^2)^(-(1+s)) dw dv, d > 0.

    a < b are signed horizontal offsets from the evaluation point.
    """
    d = np.asarray(d, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d, a, b = np.broadcast_arrays(d, a, b)
    out = np.zeros(d.shape, dtype=float)

    both_pos = a >= 0.0
    both_neg = b <= 0.0
    spanning = ~(both_pos | both_neg)
    if np.any(both_pos):
        out[both_pos] = (quadrant_tail(np.maximum(a[both_pos], 1e-300), d[both_pos], s, n)
                         - quadrant_tail(b[both_pos], d[both_pos], s, n))
    if np.any(both_neg):
        out[both_neg] = (quadrant_tail(np.maximum(-b[both_neg], 1e-300), d[both_neg], s, n)
                         - quadrant_tail(-a[both_neg], d[both_neg], s, n))
    if np.any(spanning):
        out[spanning] = (halfplane_tail(d[spanning], s)
                         - quadrant_tail(-a[spanning], d[spanning], s, n)
                         - quadrant_tail(b[spanning], d[spanning], s, n))
    return out


def point_tail_2d(cx, cy, s: float, bounds, n: int = 48):
    """Per-point integral of the kernel over the complement of the box
    [X0,X1]x[Y0,Y1]; (cx, cy) broadcastable arrays strictly inside."""
    X0, X1, Y0, Y1 = bounds
    cx = np.asarray(cx, dtype=float)
    cy = np.asarray(cy, dtype=float)
    cx, cy = np.broadcast_arrays(cx, cy)
    dL, dR = cx - X0, X1 - cx
    dB, dT = cy - Y0, Y1 - cy
    total = halfplane_tail(dL, s) + halfplane_tail(dR, s)
    for d in (dT, dB):
        total = total + (halfplane_tail(d, s)
                         - quadrant_tail(dL, d, s, n) - quadrant_tail(dR, d, s, n))
    return total


# fast spline surrogates for the quadrant/strip primitives; the quadrant is
# homogeneous of degree -2s, so one profile on the aspect ratio suffices
_PSI_CACHE: dict = {}


def _psi_profile(s: float):
    from scipy.interpolate import CubicSpline
    key = round(s, 15)
    if key not in _PSI_CACHE:
        tau, wt = _jacobi_rule(s)
        rho = np.linspace(0.0, 1.0, 4097)
        vals = _upper_angle(rho[:, None] * tau[None, :], s) @ wt
        _PSI_CACHE[key] = CubicSpline(rho, vals)
    return _PSI_CACHE[key]


def quadrant_fast(a, b, s: float):
    """Spline-accelerated quadrant_tail (absolute accuracy ~1e-12 relative)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    psi = _psi_profile(s)
    with np.errstate(invalid="ignore"):
        ratio = np.where(np.isinf(hi), 0.0, np.clip(lo / hi, 0.0, 1.0))
    return psi(ratio) * hi ** (-2.0 * s)


def strip_fast(d, a, b, s: float):
    """Spline-accelerated strip_tail; accepts infinite footprint ends."""
    d = np.asarray(d, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    d, a, b = np.broadcast_arrays(d, a, b)
    out = np.zeros(d.shape, dtype=float)
    both_pos = a >= 0.0
    both_neg = b <= 0.0
    spanning = ~(both_pos | both_neg)
    if np.any(both_pos):
        m = both_pos
        out[m] = quadrant_fast(np.maximum(a[m], 1e-300), d[m], s) \
            - quadrant_fast(b[m], d[m], s)
    if np.any(both_neg):
        m = both_neg
        out[m] = quadrant_fast(np.maximum(-b[m], 1e-300), d[m], s) \
            - quadrant_fast(-a[m], d[m], s)
    if np.any(spanning):
        m = spanning
        out[m] = halfplane_tail(d[m], s) \
            - quadrant_fast(-a[m], d[m], s) - quadrant_fast(b[m], d[m], s)
    return out


# ---------------------------------------------------------------------------
# cell-averaged exterior tail weights
#
# The tail weight of a cell against an exterior region is the honest double
# integral over C_i x region, exactly like near pair weights.  Where that
# integral diverges (the cell touches the box face and s >= 1/2), the whole
# face's contribution falls back to the single-layer collocation value
# h^n * (region tail at the cell center), applied consistently to every
# sub-piece of that face so halfspace splits stay additive.
# ---------------------------------------------------------------------------


def _f2_seg(g, width, s: float):
    """int_g^(g+width) t^(-2s) dt / (2s); g >= 0 allowed only for s < 1/2;
    inf entries map to 0."""
    g = np.asarray(g, dtype=float)
    out = np.zeros(g.shape, dtype=float)
    fin = ~np.isinf(g)
    gf = g[fin]
    if s == 0.5:
        with np.errstate(divide="ignore"):
            out[fin] = np.log1p(width / gf)
    else:
        p = 1.0 - 2.0 * s
        with np.errstate(divide="ignore"):
            lo = np.where(gf > 0.0, gf ** p, 0.0 if s < 0.5 else np.inf)
        out[fin] = ((gf + width) ** p - lo) / (p * 2.0 * s)
    return out


def _interval_tail_1d(xc, h: float, s: float, A: float, B: float,
                      side: str, sl_mask) -> np.ndarray:
    """Cell-averaged tail of 1D cells against the interval [A, B] lying
    entirely on one side; SL-flagged cells use center collocation."""
    xc = np.asarray(xc, dtype=float)
    if side == "right":
        return _interval_tail_1d(-xc, h, s, -B, -A, "left", sl_mask)
    # region to the left: B <= every cell's lower edge
    gB = (xc - 0.5 * h) - B
    gA = (xc - 0.5 * h) - A if np.isfinite(A) else np.full_like(xc, np.inf)
    exact = _f2_seg(gB, h, s) - _f2_seg(gA, h, s)
    inv = 1.0 / (2.0 * s)
    slB = (xc - B) ** (-2.0 * s) * inv
    slA = (xc - A) ** (-2.0 * s) * inv if np.isfinite(A) else 0.0
    sl = h * (slB - slA)
    return np.where(sl_mask, sl, exact)


def _tails_plus_1d(xc, h, s, X0, X1, thr, adj_left, adj_right):
    """Cell tails against complement-of-box intersected with {y >= thr}."""
    sl_left = adj_left & (s >= 0.5)
    sl_right = adj_right & (s >= 0.5)
    out = _interval_tail_1d(xc, h, s, max(X1, thr), np.inf, "right", sl_right)
    if thr < X0:
        out = out + _interval_tail_1d(xc, h, s, thr, X0, "left", sl_left)
    return out


def cell_tails_1d(lat: Lattice, s: float) -> np.ndarray:
    xc = lat.axis_centers(0)
    (x_lo,), (x_hi,) = lat.box_bounds()
    n = lat.shape[0]
    adj_l = np.arange(n) == 0
    adj_r = np.arange(n) == n - 1
    h = lat.h
    left = _interval_tail_1d(xc, h, s, -np.inf, x_lo, "left", adj_l & (s >= 0.5))
    right = _interval_tail_1d(xc, h, s, x_hi, np.inf, "right", adj_r & (s >= 0.5))
    return left + right


def cell_tails_1d_halfspace(lat: Lattice, s: float, thr: float):
    xc = lat.axis_centers(0)
    (x_lo,), (x_hi,) = lat.box_bounds()
    n = lat.shape[0]
    adj_l = np.arange(n) == 0
    adj_r = np.arange(n) == n - 1
    plus = _tails_plus_1d(xc, lat.h, s, x_lo, x_hi, thr, adj_l, adj_r)
    # the minus part is the plus part of the mirrored geometry
    minus = _tails_plus_1d(-xc, lat.h, s, -x_hi, -x_lo, -thr, adj_r, adj_l)
    return plus, minus


_GL8_CELL = _gl_nodes(8)


def _gauss_cells(F, cx_sel, cy_sel, h: float) -> np.ndarray:
    """Tensor-Gauss cell integrals of a smooth pointwise function at the
    selected cell centers."""
    gx, gw = _GL8_CELL
    xs = cx_sel[:, None, None] + 0.5 * h * gx[None, :, None]
    ys = cy_sel[:, None, None] + 0.5 * h * gx[None, None, :]
    W = (gw[:, None] * gw[None, :]) * 0.25
    out = np.empty(xs.shape[0])
    chunk = 8192
    for lo in range(0, xs.shape[0], chunk):
        hi = lo + chunk
        out[lo:hi] = np.einsum("cij,ij->c", F(xs[lo:hi], ys[lo:hi]), W)
    return out * h * h


def _hp_column_exact(width, gaps, heights, s: float):
    """Exact integral of the half-plane tail over a rect of the given width
    whose top edge sits `gaps` below the face; vectorized."""
    return width * _b_full(s) * _f2_seg(gaps, heights, s)


def _cuts(a: float, c: float, b: float) -> bool:
    """True when c splits [a, b] into two pieces wider than a few ulps.

    A cell edge and a box bound meant to coincide can differ in the last
    bit; splitting there would leave a sliver on which the integrand is
    not finite."""
    tol = 4.0 * math.ulp(max(abs(a), abs(b)))
    return a + tol < c < b - tol


def _strip_rect_value(h: float, s: float, rect, face: float, A: float,
                      B: float, tol: float = 1e-10) -> float:
    """Exact-singular-part integral over one rect of the tail against the
    strip {y1 in [A,B], y2 >= face}; the face may touch the rect's top edge
    (only valid for s < 1/2 there).  Splits at footprint ends, integrates
    the half-plane part in closed form, and treats the bounded quadrant
    corrections by Gauss or (near a footprint corner) adaptive panels."""
    x1a, x1b, x2a, x2b = rect
    for c in (A, B):
        if _cuts(x1a, c, x1b):
            return (_strip_rect_value(h, s, (x1a, c, x2a, x2b), face, A, B, tol)
                    + _strip_rect_value(h, s, (c, x1b, x2a, x2b), face, A, B, tol))
    gap = face - x2b
    mid = 0.5 * (x1a + x1b)
    if A <= mid <= B:
        # spanning: exact half-plane part, smooth quadrant corrections
        hp = float(_hp_column_exact(x1b - x1a, np.array(gap), x2b - x2a, s))

        def G(X, Y):
            d = face - Y
            return quadrant_fast(X - A, d, s) + quadrant_fast(B - X, d, s)

        d_corner = min(math.hypot(max(x1a - A, 0.0), gap) if np.isfinite(A) else np.inf,
                       math.hypot(max(B - x1b, 0.0), gap) if np.isfinite(B) else np.inf)
        if d_corner < h:
            q = adaptive_rect_quad(G, (x1a, x1b, x2a, x2b), tol, max_panels=60_000)
        else:
            q = _panel_value(G, x1a, x1b, x2a, x2b, _GL8)
        return hp - q

    def F(X, Y):
        return strip_fast(face - Y, A - X, B - X, s)

    end = A if mid < A else B
    d_corner = math.hypot(abs(mid - end) - 0.5 * (x1b - x1a), gap)
    if d_corner < h:
        return adaptive_rect_quad(F, (x1a, x1b, x2a, x2b), tol, max_panels=60_000)
    return _panel_value(F, x1a, x1b, x2a, x2b, _GL8)


def _strip_face_grid(h: float, s: float, CX, CY, face: float, A: float,
                     B: float, mask) -> np.ndarray:
    """Cell integrals of the tail against {y1 in [A,B], y2 >= face} for the
    masked cells of a center grid; face lies on or above every cell."""
    out = np.zeros(CX.shape, dtype=float)
    x1a, x1b = CX - 0.5 * h, CX + 0.5 * h
    gaps = face - (CY + 0.5 * h)
    dA = np.where(np.isfinite(A), x1a - A, np.inf)
    dB = np.where(np.isfinite(B), B - x1b, np.inf)
    inside = (dA >= 0.0) & (dB >= 0.0)
    corner = np.minimum(np.hypot(np.maximum(dA, 0.0), gaps),
                        np.hypot(np.maximum(dB, 0.0), gaps))
    bulk = mask & inside & (corner >= h)
    if np.any(bulk):
        hp = _hp_column_exact(h, gaps[bulk], h, s)

        def G(X, Y):
            d = face - Y
            return quadrant_fast(X - A, d, s) + quadrant_fast(B - X, d, s)

        out[bulk] = hp - _gauss_cells(G, CX[bulk], CY[bulk], h)
    one_sided = mask & ((x1b <= A) | (x1a >= B))
    far_one = one_sided & (corner >= h)
    if np.any(far_one):
        def F(X, Y):
            return strip_fast(face - Y, A - X, B - X, s)

        out[far_one] = _gauss_cells(F, CX[far_one], CY[far_one], h)
    special = mask & ~bulk & ~far_one
    for i, j in zip(*np.nonzero(special)):
        rect = (x1a[i, j], x1b[i, j], CY[i, j] - 0.5 * h, CY[i, j] + 0.5 * h)
        out[i, j] = _strip_rect_value(h, s, rect, face, A, B)
    return out


def _strip_piece_2d(lat, s, cx, cy, vface, A, B, adj_rows, vend=None):
    """Tails against the strip {y1 in [A,B], y2 >= vface} (optionally ended
    at vend); adj_rows flags the rows whose parent face touches the cells."""
    h = lat.h
    CX, CY = np.broadcast_arrays(np.asarray(cx, float), np.asarray(cy, float))
    sl = np.broadcast_to(np.asarray(adj_rows, bool), CX.shape) & (s >= 0.5)
    out = np.zeros(CX.shape, dtype=float)
    if np.any(sl):
        v = strip_fast(vface - CY[sl], A - CX[sl], B - CX[sl], s)
        if vend is not None:
            v = v - strip_fast(vend - CY[sl], A - CX[sl], B - CX[sl], s)
        out[sl] = h * h * v
    rest = ~sl
    if np.any(rest):
        vals = _strip_face_grid(h, s, CX, CY, vface, A, B, rest)
        if vend is not None:
            vals = vals - _strip_face_grid(h, s, CX, CY, vend, A, B, rest)
        out[rest] = vals[rest]
    return out


def _quad_rect_value(h: float, s: float, rect, E: float, thr: float,
                     tol: float = 1e-10) -> float:
    """Integral over one rect (right of E) of the tail against the region
    {y1 <= E, y2 >= thr}."""
    x1a, x1b, x2a, x2b = rect
    if _cuts(x2a, thr, x2b):
        return (_quad_rect_value(h, s, (x1a, x1b, x2a, thr), E, thr, tol)
                + _quad_rect_value(h, s, (x1a, x1b, thr, x2b), E, thr, tol))
    ua = x1a - E

    if x2a >= thr:
        # region covers the full height: exact half-plane part minus the
        # below-threshold quadrant
        hp = float(_hp_column_exact(x2b - x2a, np.array(ua), x1b - x1a, s))

        def G(X, Y):
            return quadrant_fast(X - E, Y - thr, s)

        d_corner = math.hypot(ua, x2a - thr)
        if d_corner < h:
            q = adaptive_rect_quad(G, rect, tol, max_panels=60_000)
        else:
            q = _panel_value(G, x1a, x1b, x2a, x2b, _GL8)
        return hp - q

    def G(X, Y):
        return quadrant_fast(X - E, thr - Y, s)

    d_corner = math.hypot(ua, thr - x2b)
    if d_corner < h:
        return adaptive_rect_quad(G, rect, tol, max_panels=60_000)
    return _panel_value(G, x1a, x1b, x2a, x2b, _GL8)


def _quad_piece_2d(lat, s, cx, cy, x1edge, thr, adj_cols):
    """Tails against {y1 <= x1edge, y2 >= thr} for cells right of x1edge."""
    h = lat.h
    CX, CY = np.broadcast_arrays(np.asarray(cx, float), np.asarray(cy, float))
    sl = np.broadcast_to(np.asarray(adj_cols, bool), CX.shape) & (s >= 0.5)
    out = np.zeros(CX.shape, dtype=float)
    if np.any(sl):
        u = CX[sl] - x1edge
        vv = thr - CY[sl]
        pos = vv > 0.0
        v = np.empty(u.shape)
        v[pos] = quadrant_fast(u[pos], vv[pos], s)
        v[~pos] = halfplane_tail(u[~pos], s) - quadrant_fast(u[~pos], -vv[~pos], s)
        out[sl] = h * h * v
    ua = (CX - 0.5 * h) - x1edge
    above = (CY - 0.5 * h) >= thr
    below = (CY + 0.5 * h) <= thr
    d_above = np.hypot(ua, (CY - 0.5 * h) - thr)
    d_below = np.hypot(ua, thr - (CY + 0.5 * h))
    bulk_above = ~sl & above & (d_above >= h)
    if np.any(bulk_above):
        hp = _hp_column_exact(h, ua[bulk_above], h, s)

        def Ga(X, Y):
            return quadrant_fast(X - x1edge, Y - thr, s)

        out[bulk_above] = hp - _gauss_cells(Ga, CX[bulk_above], CY[bulk_above], h)
    bulk_below = ~sl & below & (d_below >= h)
    if np.any(bulk_below):
        def Gb(X, Y):
            return quadrant_fast(X - x1edge, thr - Y, s)

        out[bulk_below] = _gauss_cells(Gb, CX[bulk_below], CY[bulk_below], h)
    special = ~sl & ~bulk_above & ~bulk_below
    for i, j in zip(*np.nonzero(special)):
        rect = (CX[i, j] - 0.5 * h, CX[i, j] + 0.5 * h,
                CY[i, j] - 0.5 * h, CY[i, j] + 0.5 * h)
        out[i, j] = _quad_rect_value(h, s, rect, x1edge, thr)
    return out


def _hp_interval_2d(lat, s, cx, A, B, side, adj_cols):
    """Tails against the full-height slab {y1 in [A,B]} on one side."""
    vals = _interval_tail_1d(cx.ravel(), lat.h, s, A, B, side,
                             (adj_cols & (s >= 0.5)).ravel())
    return lat.h * _b_full(s) * vals.reshape(cx.shape)


def _grid_2d(lat: Lattice):
    cx = lat.axis_centers(0)[:, None]
    cy = lat.axis_centers(1)[None, :]
    n0, n1 = lat.shape
    adj = {
        "left": (np.arange(n0) == 0)[:, None],
        "right": (np.arange(n0) == n0 - 1)[:, None],
        "bottom": (np.arange(n1) == 0)[None, :],
        "top": (np.arange(n1) == n1 - 1)[None, :],
    }
    return cx, cy, adj


def cell_tails_2d(lat: Lattice, s: float) -> np.ndarray:
    (X0, Y0), (X1, Y1) = lat.box_bounds()
    cx, cy, adj = _grid_2d(lat)
    total = _hp_interval_2d(lat, s, cx, -np.inf, X0, "left", adj["left"])
    total = total + _hp_interval_2d(lat, s, cx, X1, np.inf, "right", adj["right"])
    total = total + _strip_piece_2d(lat, s, cx, cy, Y1, X0, X1, adj["top"])
    total = total + _strip_piece_2d(lat, s, cx, -cy, -Y0, X0, X1, adj["bottom"])
    return total


def _halfspace_plus_2d(lat, s, cx, cy, bounds, axis, thr, adj):
    """Tails against complement-of-box intersected with {y[axis] >= thr}."""
    X0, X1, Y0, Y1 = bounds
    if axis == 0:
        out = _hp_interval_2d(lat, s, cx, max(X1, thr), np.inf, "right",
                              adj["right"])
        if thr < X0:
            out = out + _hp_interval_2d(lat, s, cx, thr, X0, "left", adj["left"])
        if thr < X1:
            A = max(X0, thr)
            out = out + _strip_piece_2d(lat, s, cx, cy, Y1, A, X1, adj["top"])
            out = out + _strip_piece_2d(lat, s, cx, -cy, -Y0, A, X1, adj["bottom"])
        return out
    # axis == 1: threshold cuts the strip direction
    out = _strip_piece_2d(lat, s, cx, cy, max(Y1, thr), X0, X1, adj["top"])
    if thr < Y0:
        out = out + _strip_piece_2d(lat, s, cx, -cy, -Y0, X0, X1, adj["bottom"],
                                    vend=-thr)
    out = out + _quad_piece_2d(lat, s, cx, cy, X0, thr, adj["left"])
    out = out + _quad_piece_2d(lat, s, -cx, cy, -X1, thr, adj["right"])
    return out


def cell_tails_2d_halfspace(lat: Lattice, s: float, axis: int, thr: float):
    (X0, Y0), (X1, Y1) = lat.box_bounds()
    cx, cy, adj = _grid_2d(lat)
    plus = _halfspace_plus_2d(lat, s, cx, cy, (X0, X1, Y0, Y1), axis, thr, adj)
    # mirror the split axis; the minus part is the mirrored plus part
    if axis == 0:
        madj = dict(adj, left=adj["right"], right=adj["left"])
        minus = _halfspace_plus_2d(lat, s, -cx, cy, (-X1, -X0, Y0, Y1),
                                   axis, -thr, madj)
    else:
        madj = dict(adj, top=adj["bottom"], bottom=adj["top"])
        minus = _halfspace_plus_2d(lat, s, cx, -cy, (X0, X1, -Y1, -Y0),
                                   axis, -thr, madj)
    plus = np.broadcast_to(plus, lat.shape).copy()
    minus = np.broadcast_to(minus, lat.shape).copy()
    return plus, minus


def cell_tail_weights(lat: Lattice, s: float) -> np.ndarray:
    """Per-cell tail weight against the whole box complement."""
    if lat.dim == 1:
        return cell_tails_1d(lat, s)
    return cell_tails_2d(lat, s)


def cell_tail_halfspace(lat: Lattice, s: float, axis: int, thr: float):
    """(plus, minus) tail weights split by the halfspace {y[axis] >= thr}."""
    if lat.dim == 1:
        if axis != 0:
            raise ValueError("1D halfspace axis must be 0")
        return cell_tails_1d_halfspace(lat, s, thr)
    return cell_tails_2d_halfspace(lat, s, axis, thr)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def _canonical_offsets(dim: int, near_radius: int):
    """Canonical (sorted absolute) near offsets, excluding the origin."""
    if dim == 1:
        return [(d,) for d in range(1, near_radius + 1)]
    out = []
    for d2 in range(near_radius + 1):
        for d1 in range(d2 + 1):
            if (d1, d2) != (0, 0):
                out.append((d1, d2))
    return out


def _near_weight(dim: int, h: float, s: float, canon, quad_tol: float) -> float:
    if dim == 1:
        d = canon[0]
        if d == 1 and s >= 0.5:
            return pair_weight_collocation(1, h, s, canon)
        return _pair_exact_1d(h, s, d)
    d1, d2 = canon
    if (d1, d2) == (0, 1) and s >= 0.5:
        return pair_weight_collocation(2, h, s, canon)
    return _pair_exact_2d(h, s, d1, d2, quad_tol)


@dataclass(eq=False)
class KernelTable:
    """Reusable pairwise weights plus exterior tails for one lattice.

    ``table`` is the dense offset array, indexed by offset + (shape - 1)
    per axis, so any in-box pair weight is a direct lookup and pair sums
    reduce to convolutions with it.
    """

    lattice: Lattice
    s: float
    near_radius: int
    quad_tol: float
    near: dict
    table: np.ndarray = field(repr=False)

    _tail_cache: dict = field(default_factory=dict, repr=False)
    _extent_cache: dict = field(default_factory=dict, repr=False)
    _spectrum_cache: dict = field(default_factory=dict, repr=False)
    _lifted_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._extent_cache.setdefault(self.lattice.shape, self.table)

    # -- weights -------------------------------------------------------------

    def weight(self, offset) -> float:
        """Pair weight at an integer index offset."""
        off = tuple(int(v) for v in np.atleast_1d(offset))
        canon = tuple(sorted(abs(v) for v in off))
        if all(v == 0 for v in canon):
            return 0.0
        if max(canon) <= self.near_radius:
            return self.near[canon]
        return far_weight(self.lattice.dim, self.lattice.h, self.s, off)

    def table_for_extents(self, extents) -> np.ndarray:
        """Dense offset array covering offsets up to extents-1 per axis."""
        extents = tuple(int(e) for e in extents)
        if extents in self._extent_cache:
            return self._extent_cache[extents]
        arr = _dense_table(self.lattice.dim, self.lattice.h, self.s,
                           self.near_radius, self.near, extents)
        self._extent_cache[extents] = arr
        return arr

    def spectrum(self, extents):
        """(fshape, spectrum) for convolving fields of the given extents.

        fshape is the padded full-convolution shape next_fast_len(3n - 2)
        per axis, as SciPy's fftconvolve picks it, and spectrum the rfftn
        of the offset table at that shape; irfftn(rfftn(x, fshape) *
        spectrum, fshape) then equals fftconvolve(x, table) bit for bit
        on its 3n - 2 leading entries.
        """
        extents = tuple(int(e) for e in extents)
        if extents not in self._spectrum_cache:
            fshape = tuple(next_fast_len(3 * e - 2, True) for e in extents)
            spec = rfftn(self.table_for_extents(extents), fshape)
            self._spectrum_cache[extents] = (fshape, spec)
        return self._spectrum_cache[extents]

    def lifted(self, outer: Lattice) -> "KernelTable":
        """The same weights on an enclosing box of equal spacing; its
        tails are taken against the complement of that box."""
        key = (outer.lo, outer.hi)
        if key not in self._lifted_cache:
            self._lifted_cache[key] = KernelTable(
                lattice=outer, s=self.s, near_radius=self.near_radius,
                quad_tol=self.quad_tol, near=self.near,
                table=self.table_for_extents(outer.shape))
        return self._lifted_cache[key]

    def switch_gap(self) -> float:
        """Relative near/far mismatch at the switch radius (far-rule
        truncation error; decays like near_radius^-2)."""
        dim, h, s = self.lattice.dim, self.lattice.h, self.s
        worst = 0.0
        for canon, w in self.near.items():
            if max(canon) == self.near_radius:
                f = far_weight(dim, h, s, canon)
                worst = max(worst, abs(w - f) / f)
        return worst

    # -- tails ---------------------------------------------------------------

    @property
    def tail_weights(self) -> np.ndarray:
        """Per-cell tail weight against the box complement (cell-averaged
        double integral; collocation on divergent face-touching sides)."""
        key = "total"
        if key not in self._tail_cache:
            out = cell_tail_weights(self.lattice, self.s)
            out.setflags(write=False)
            self._tail_cache[key] = out
        return self._tail_cache[key]

    def tail_halfspace(self, axis: int, threshold: float):
        """(plus, minus) split of tail_weights by {y[axis] >= threshold}."""
        key = ("half", int(axis), float(threshold))
        if key not in self._tail_cache:
            plus, minus = cell_tail_halfspace(self.lattice, self.s, axis,
                                              threshold)
            plus = np.broadcast_to(plus, self.lattice.shape).copy()
            minus = np.broadcast_to(minus, self.lattice.shape).copy()
            plus.setflags(write=False)
            minus.setflags(write=False)
            self._tail_cache[key] = (plus, minus)
        return self._tail_cache[key]


def _dense_table(dim: int, h: float, s: float, near_radius: int, near: dict,
                 extents) -> np.ndarray:
    """Far-rule offset array with the near block patched in."""
    if dim == 1:
        (e0,) = extents
        offs = np.arange(-(e0 - 1), e0, dtype=float)
        r = np.abs(offs) * h
        with np.errstate(divide="ignore"):
            arr = h ** 2 * r ** (-(1.0 + 2.0 * s))
        arr[e0 - 1] = 0.0
        for d in range(1, min(near_radius, e0 - 1) + 1):
            arr[e0 - 1 + d] = near[(d,)]
            arr[e0 - 1 - d] = near[(d,)]
        return arr
    e0, e1 = extents
    o0 = np.arange(-(e0 - 1), e0, dtype=float)[:, None]
    o1 = np.arange(-(e1 - 1), e1, dtype=float)[None, :]
    r2 = (o0 * h) ** 2 + (o1 * h) ** 2
    with np.errstate(divide="ignore"):
        arr = h ** 4 * r2 ** (-(1.0 + s))
    arr[e0 - 1, e1 - 1] = 0.0
    for d0 in range(-min(near_radius, e0 - 1), min(near_radius, e0 - 1) + 1):
        for d1 in range(-min(near_radius, e1 - 1), min(near_radius, e1 - 1) + 1):
            if (d0, d1) == (0, 0):
                continue
            canon = tuple(sorted((abs(d0), abs(d1))))
            arr[e0 - 1 + d0, e1 - 1 + d1] = near[canon]
    return arr


def build_kernel(lattice: Lattice, s: float, near_radius: int = 4,
                 quad_tol: float = 1e-6, cache_dir=None) -> KernelTable:
    """Compute (or load from cache) the weight table for a lattice."""
    s = _check_s(s)
    if near_radius < 2:
        raise ValueError(f"near_radius must be >= 2, got {near_radius}")
    if not quad_tol > 0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol}")

    near = None
    if cache_dir is not None:
        path = kernel_cache_path(cache_dir, lattice.dim, lattice.h, s,
                                 near_radius, quad_tol)
        near = _load_near(path, lattice.dim, lattice.h, s, near_radius, quad_tol)
    if near is None:
        near = {}
        for canon in _canonical_offsets(lattice.dim, near_radius):
            near[canon] = _near_weight(lattice.dim, lattice.h, s, canon, quad_tol)
        if cache_dir is not None:
            save_kernel_near(cache_dir, lattice.dim, lattice.h, s, near_radius,
                             quad_tol, near)

    table = _dense_table(lattice.dim, lattice.h, s, near_radius, near,
                         lattice.shape)
    return KernelTable(lattice=lattice, s=s, near_radius=near_radius,
                       quad_tol=quad_tol, near=near, table=table)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def kernel_cache_path(cache_dir, dim: int, h: float, s: float,
                      near_radius: int, quad_tol: float) -> str:
    tag = f"v{CACHE_FORMAT_VERSION}_d{dim}_h{h:.12g}_s{s:.12g}_r{near_radius}_q{quad_tol:.3g}"
    return os.path.join(cache_dir, f"kernel_{tag}.npz")


def save_kernel_near(cache_dir, dim, h, s, near_radius, quad_tol, near) -> str:
    """Write the near weights atomically: readers see the old file or the
    complete new one, never a partial write."""
    os.makedirs(cache_dir, exist_ok=True)
    path = kernel_cache_path(cache_dir, dim, h, s, near_radius, quad_tol)
    offsets = np.array(sorted(near.keys()))
    weights = np.array([near[tuple(o)] for o in offsets])
    fd, tmp = tempfile.mkstemp(dir=cache_dir, prefix=".kernel_", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh,
                     format_version=np.array(CACHE_FORMAT_VERSION),
                     dim=np.array(dim), h=np.array(h), s=np.array(s),
                     near_radius=np.array(near_radius), quad_tol=np.array(quad_tol),
                     offsets=offsets, weights=weights)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def _load_near(path, dim, h, s, near_radius, quad_tol) -> dict | None:
    """Cached near weights, or None when the file is missing, unreadable,
    corrupt or written for other parameters."""
    try:
        with np.load(path) as z:
            if int(z["format_version"]) != CACHE_FORMAT_VERSION:
                return None
            if (int(z["dim"]) != dim or float(z["h"]) != h or float(z["s"]) != s
                    or int(z["near_radius"]) != near_radius
                    or float(z["quad_tol"]) != quad_tol):
                return None
            offsets = z["offsets"]
            weights = z["weights"]
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return None
    return {tuple(int(v) for v in o): float(w) for o, w in zip(offsets, weights)}


def save_kernel(cache_dir, kern: KernelTable) -> str:
    """Persist a built table's near weights."""
    return save_kernel_near(cache_dir, kern.lattice.dim, kern.lattice.h,
                            kern.s, kern.near_radius, kern.quad_tol, kern.near)


def load_kernel(cache_dir, lattice: Lattice, s: float, near_radius: int = 4,
                quad_tol: float = 1e-6) -> KernelTable | None:
    """Load a cached table for this lattice, or None on miss/mismatch."""
    path = kernel_cache_path(cache_dir, lattice.dim, lattice.h, s,
                             near_radius, quad_tol)
    near = _load_near(path, lattice.dim, lattice.h, s, near_radius, quad_tol)
    if near is None:
        return None
    table = _dense_table(lattice.dim, lattice.h, s, near_radius, near,
                         lattice.shape)
    return KernelTable(lattice=lattice, s=s, near_radius=near_radius,
                       quad_tol=quad_tol, near=near, table=table)
