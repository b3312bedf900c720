"""Pairwise weight tables for the singular interaction kernel |x-y|^(-(n+2s)).

Fields are piecewise constant per cell, so the energy only ever needs the
pair weight

    w(i, j) = integral over C_i x C_j of |x - y|^(-(n+2s)) dx dy ,

which depends on the index offset d = i - j alone.  The table uses a
three-way rule:

* near offsets (sup-norm |d| <= near_radius): the exact double integral.
  In 1D this has a closed form through the double antiderivative of
  t^(-(1+2s)); in 2D it is computed by adaptive panel quadrature, with the
  singular part of touching cells split off in closed form: the corner
  quarter of corner-touching cells, and for edge-touching cells (s < 1/2)
  the whole half next to the shared edge, through 2F1(1/2, s; 3/2; -1).
* touching offsets whose exact integral diverges (1D offset 1 and 2D
  edge-neighbours, when s >= 1/2): the single-layer collocation value
  h^n * integral over C_j of |c_i - y|^(-(n+2s)) dy, which is finite,
  positive and symmetric, and is the distance-one analogue of the far rule.
* far offsets: the midpoint rule h^(2n) |c_i - c_j|^(-(n+2s)).

The diagonal weight is exactly zero: a piecewise-constant field has
u(x) - u(y) = 0 on C_i x C_i, so the singular diagonal never contributes.

Everything outside the lattice box is handled by per-cell tail integrals
of the kernel against exterior regions.  The 1D tails are elementary; a
2D exterior region splits into full-height half-plane slabs and strips,
a quadrant being a strip with one infinite end seen with the axes
swapped.  The strip tail is built from the quadrant tail, a Gauss-Jacobi
rule that absorbs the t^(2s-1) endpoint weight, with the remaining factor
expressed through the regularized incomplete beta function; being
homogeneous of degree -2s, it is sampled once per s on the aspect ratio,
and every tail evaluates that cubic-spline surrogate (``quadrant_fast``,
``strip_fast``).  The whole-complement tail is the halfspace split's
plus part at threshold -inf, so both go through one path.
"""
from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.special import betainc, hyp2f1, roots_jacobi

from .lattice import Lattice

__all__ = [
    "KernelTable",
    "build_kernel",
    "pair_weight_exact",
    "pair_weight_collocation",
    "cell_tail_weights",
    "cell_tail_halfspace",
    "halfplane_tail",
    "quadrant_tail",
    "stable_sum",
]


def stable_sum(arr) -> float:
    """Compensated sum in fixed C order; bit-reproducible across runs."""
    return math.fsum(np.asarray(arr, dtype=float).ravel(order="C"))


def fftconvolve(x: np.ndarray, spec: np.ndarray, fshape) -> np.ndarray:
    """Full linear convolution of x with the array whose rfftn at fshape is
    ``spec`` (see ``KernelTable.spectrum``), zero-padded to fshape.

    Every raw in-box convolution goes through this function.
    """
    return irfftn(rfftn(x, fshape) * spec, fshape)


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


def _edge_lower_half(h: float, s: float) -> float:
    """int over [-h,h]x[0,h] of (h-|t1|) t2 |t|^(-(2+2s)) dt, s < 1/2.

    With I = int_0^h int_0^h t2 |t|^(-(2+2s)) dt
           = h^(1-2s) / (2s) * (1/(1-2s) - 2F1(1/2, s; 3/2; -1)),
    the half is 2 h I minus twice the corner quarter.
    """
    inner = h ** (1.0 - 2.0 * s) / (2.0 * s) * (
        1.0 / (1.0 - 2.0 * s) - hyp2f1(0.5, s, 1.5, -1.0))
    return 2.0 * h * inner - 2.0 * _corner_quarter_closed(h, s)


_GL4 = np.polynomial.legendre.leggauss(4)
_GL8 = np.polynomial.legendre.leggauss(8)


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
    s >= 1/2 (raises); the singular quarter of corner-touching cells and
    the singular lower half of edge-touching ones are integrated in
    closed form.
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

    if (d1, d2) == (0, 1):
        # split off [-h,h]x[0,h] where the hats are exactly (h-|t1|)*t2
        return (_edge_lower_half(h, s)
                + adaptive_rect_quad(integrand, (-h, h, h, 2 * h), tol))
    if (d1, d2) == (1, 1):
        # split off [0,h]^2 where the hats are exactly t1*t2
        val = _corner_quarter_closed(h, s)
        for sub in ((h, 2 * h, 0.0, h), (0.0, h, h, 2 * h), (h, 2 * h, h, 2 * h)):
            val += adaptive_rect_quad(integrand, sub, tol)
        return val
    return adaptive_rect_quad(integrand, (a1 - h, a1 + h, a2 - h, a2 + h), tol)


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


@lru_cache(maxsize=None)
def _jacobi_rule(s: float):
    """48 nodes/weights for int_0^1 tau^(2s-1) f(tau) dtau."""
    x, w = roots_jacobi(48, 0.0, 2.0 * s - 1.0)
    return 0.5 * (x + 1.0), w * 0.5 ** (2.0 * s)


def _upper_angle(z, s: float):
    """G(z) = int_z^inf (1+t^2)^(-(1+s)) dt, z >= 0, cancellation-free."""
    z = np.asarray(z, dtype=float)
    x = 1.0 / (1.0 + z * z)
    return 0.5 * _b_full(s) * betainc(s + 0.5, 0.5, x)


def quadrant_tail(a, b, s: float):
    """int over {u >= a, v >= b} of (u^2+v^2)^(-(1+s)) du dv, a, b > 0.

    Symmetric in (a, b); evaluated with the larger argument as the outer
    scale so the Gauss-Jacobi factor stays smooth.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    tau, wt = _jacobi_rule(s)
    g = _upper_angle((lo / hi)[..., None] * tau, s)
    return hi ** (-2.0 * s) * (g @ wt)


# fast spline surrogates for the quadrant/strip primitives; the quadrant is
# homogeneous of degree -2s, so one profile on the aspect ratio suffices
@lru_cache(maxsize=None)
def _psi_profile(s: float):
    from scipy.interpolate import CubicSpline
    rho = np.linspace(0.0, 1.0, 4097)
    return CubicSpline(rho, quadrant_tail(rho, 1.0, s))


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
    """int over {w in [a, b], v >= d} of (w^2+v^2)^(-(1+s)) dw dv, d > 0,
    from quadrant_fast; a < b are signed horizontal offsets from the
    evaluation point and may be infinite."""
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
    # a gap an ulp below 0 (a cell edge against a box bound) yields a NaN
    # or inf that np.where drops (s < 1/2) or face collocation replaces
    with np.errstate(divide="ignore", invalid="ignore"):
        if s == 0.5:
            out[fin] = np.log1p(width / gf)
        else:
            p = 1.0 - 2.0 * s
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


def _gauss_cells(F, cx_sel, cy_sel, h: float) -> np.ndarray:
    """Tensor-Gauss cell integrals of a smooth pointwise function at the
    selected cell centers."""
    gx, gw = _GL8
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


def _corner_quad(f, rect, d_corner: float, h: float, tol: float) -> float:
    """Integral of f over rect: adaptive panels when a footprint corner
    lies within h of it, one 8x8 Gauss panel otherwise."""
    if d_corner < h:
        return adaptive_rect_quad(f, rect, tol, max_panels=60_000)
    return _panel_value(f, *rect, _GL8)


def _strip_integrands(face: float, A: float, B: float, s: float):
    """Pointwise integrands for the strip {y1 in [A,B], y2 >= face}: G, the
    quadrant corrections a spanning footprint subtracts from the half-plane,
    and F, the strip tail of a one-sided footprint.  The quadrant term of an
    infinite end is 0 and is left out."""
    def G(X, Y):
        d = face - Y
        if math.isinf(B):
            return quadrant_fast(X - A, d, s)
        if math.isinf(A):
            return quadrant_fast(B - X, d, s)
        return quadrant_fast(X - A, d, s) + quadrant_fast(B - X, d, s)

    def F(X, Y):
        if math.isinf(B):
            return quadrant_fast(A - X, face - Y, s)
        if math.isinf(A):
            return quadrant_fast(X - B, face - Y, s)
        return strip_fast(face - Y, A - X, B - X, s)

    return G, F


def _strip_rect_value(h: float, s: float, rect, face: float, A: float,
                      B: float, tol: float = 1e-10) -> float:
    """Exact-singular-part integral over one rect of the tail against the
    strip {y1 in [A,B], y2 >= face}; the face may touch the rect's top edge
    (only valid for s < 1/2 there).  Splits at footprint ends, integrates
    the half-plane part in closed form, and treats the bounded quadrant
    corrections with _corner_quad."""
    x1a, x1b, x2a, x2b = rect
    for c in (A, B):
        if _cuts(x1a, c, x1b):
            return (_strip_rect_value(h, s, (x1a, c, x2a, x2b), face, A, B, tol)
                    + _strip_rect_value(h, s, (c, x1b, x2a, x2b), face, A, B, tol))
    gap = face - x2b
    mid = 0.5 * (x1a + x1b)
    G, F = _strip_integrands(face, A, B, s)
    if A <= mid <= B:
        # spanning: exact half-plane part, smooth quadrant corrections
        hp = float(_hp_column_exact(x1b - x1a, np.array(gap), x2b - x2a, s))
        d_corner = min(math.hypot(max(x1a - A, 0.0), gap) if np.isfinite(A) else np.inf,
                       math.hypot(max(B - x1b, 0.0), gap) if np.isfinite(B) else np.inf)
        return hp - _corner_quad(G, rect, d_corner, h, tol)
    end = A if mid < A else B
    d_corner = math.hypot(abs(mid - end) - 0.5 * (x1b - x1a), gap)
    return _corner_quad(F, rect, d_corner, h, tol)


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
    G, F = _strip_integrands(face, A, B, s)
    bulk = mask & inside & (corner >= h)
    if np.any(bulk):
        out[bulk] = (_hp_column_exact(h, gaps[bulk], h, s)
                     - _gauss_cells(G, CX[bulk], CY[bulk], h))
    one_sided = mask & ((x1b <= A) | (x1a >= B))
    far_one = one_sided & (corner >= h)
    if np.any(far_one):
        out[far_one] = _gauss_cells(F, CX[far_one], CY[far_one], h)
    special = mask & ~bulk & ~far_one
    for i, j in zip(*np.nonzero(special)):
        rect = (x1a[i, j], x1b[i, j], CY[i, j] - 0.5 * h, CY[i, j] + 0.5 * h)
        out[i, j] = _strip_rect_value(h, s, rect, face, A, B)
    return out


def _strip_piece_2d(h, s, cx, cy, vface, A, B, adj_rows, vend=None):
    """Tails against the strip {y1 in [A,B], y2 >= vface} (optionally ended
    at vend); adj_rows flags the rows whose parent face touches the cells."""
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


def _hp_interval_2d(h, s, cx, A, B, side, adj_cols):
    """Tails against the full-height slab {y1 in [A,B]} on one side."""
    vals = _interval_tail_1d(cx.ravel(), h, s, A, B, side,
                             (adj_cols & (s >= 0.5)).ravel())
    return h * _b_full(s) * vals.reshape(cx.shape)


def _frame(lat: Lattice):
    """Per-axis cell centers (shaped to broadcast over the grid), box
    (lo, hi) and (first, last) masks of the cells that touch a box face."""
    lo, hi = lat.box_bounds()
    centers, bounds, adj = [], [], []
    for axis, n in enumerate(lat.shape):
        shape = [1] * lat.dim
        shape[axis] = n
        idx = np.arange(n).reshape(shape)
        centers.append(lat.axis_centers(axis).reshape(shape))
        bounds.append((lo[axis], hi[axis]))
        adj.append((idx == 0, idx == n - 1))
    return centers, bounds, adj


def _mirror(frame, axis: int):
    """The frame reflected through 0 along axis."""
    centers, bounds, adj = (list(part) for part in frame)
    centers[axis] = -centers[axis]
    bounds[axis] = (-bounds[axis][1], -bounds[axis][0])
    adj[axis] = adj[axis][::-1]
    return centers, bounds, adj


def _tails_plus(h: float, s: float, frame, axis: int, thr: float):
    """Tails against the box complement intersected with {y[axis] >= thr};
    thr = -inf gives the whole complement."""
    if len(frame[0]) == 1:
        (xc,), ((X0, X1),), ((left, right),) = frame
        out = _interval_tail_1d(xc, h, s, max(X1, thr), np.inf, "right",
                                right & (s >= 0.5))
        if thr < X0:
            out = out + _interval_tail_1d(xc, h, s, thr, X0, "left",
                                          left & (s >= 0.5))
        return out
    (cx, cy), ((X0, X1), (Y0, Y1)), ((left, right), (bottom, top)) = frame
    if axis == 0:
        out = _hp_interval_2d(h, s, cx, max(X1, thr), np.inf, "right", right)
        if thr < X0:
            out = out + _hp_interval_2d(h, s, cx, thr, X0, "left", left)
        if thr < X1:
            A = max(X0, thr)
            out = out + _strip_piece_2d(h, s, cx, cy, Y1, A, X1, top)
            out = out + _strip_piece_2d(h, s, cx, -cy, -Y0, A, X1, bottom)
        return out
    # axis == 1: threshold cuts the strip direction
    out = _strip_piece_2d(h, s, cx, cy, max(Y1, thr), X0, X1, top)
    if thr < Y0:
        out = out + _strip_piece_2d(h, s, cx, -cy, -Y0, X0, X1, bottom, vend=-thr)
    # the quadrants {y1 <= X0} and {y1 >= X1} above thr are strips along
    # y2 with one infinite end, seen with the axes swapped
    out = out + _strip_piece_2d(h, s, cy, -cx, -X0, thr, np.inf, left)
    out = out + _strip_piece_2d(h, s, cy, cx, X1, thr, np.inf, right)
    return out


def cell_tail_weights(lat: Lattice, s: float) -> np.ndarray:
    """Per-cell tail weight against the whole box complement."""
    return _tails_plus(lat.h, s, _frame(lat), 0, -np.inf)


def cell_tail_halfspace(lat: Lattice, s: float, axis: int, thr: float):
    """(plus, minus) tail weights split by the halfspace {y[axis] >= thr},
    each broadcastable to the lattice shape."""
    if not 0 <= axis < lat.dim:
        raise ValueError(f"{lat.dim}D halfspace axis must lie in "
                         f"[0, {lat.dim}), got {axis}")
    frame = _frame(lat)
    # the minus part is the plus part of the geometry mirrored along axis
    return (_tails_plus(lat.h, s, frame, axis, thr),
            _tails_plus(lat.h, s, _mirror(frame, axis), axis, -thr))


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
    """Exact pair weight; collocation where the touching integral diverges."""
    if sum(canon) == 1 and s >= 0.5:
        return pair_weight_collocation(dim, h, s, canon)
    return pair_weight_exact(dim, h, s, canon, quad_tol)


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
    near: dict
    table: np.ndarray = field(repr=False)

    _tail_cache: dict = field(default_factory=dict, repr=False)
    _extent_cache: dict = field(default_factory=dict, repr=False)
    _spectrum_cache: dict = field(default_factory=dict, repr=False)
    _lifted_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._extent_cache.setdefault(self.lattice.shape, self.table)

    # -- weights -------------------------------------------------------------

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
                near=self.near, table=self.table_for_extents(outer.shape))
        return self._lifted_cache[key]

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
                 quad_tol: float = 1e-6) -> KernelTable:
    """Compute the weight table for a lattice."""
    s = _check_s(s)
    if near_radius < 2:
        raise ValueError(f"near_radius must be >= 2, got {near_radius}")
    if not quad_tol > 0:
        raise ValueError(f"quad_tol must be positive, got {quad_tol}")
    near = {canon: _near_weight(lattice.dim, lattice.h, s, canon, quad_tol)
            for canon in _canonical_offsets(lattice.dim, near_radius)}
    table = _dense_table(lattice.dim, lattice.h, s, near_radius, near,
                         lattice.shape)
    return KernelTable(lattice=lattice, s=s, near_radius=near_radius,
                       near=near, table=table)
