"""Pairwise weight tables for the singular interaction kernel |x-y|^(-(n+2s)).

Fields are piecewise constant per cell, so the energy only ever needs the
pair weight

    w(i, j) = integral over C_i x C_j of |x - y|^(-(n+2s)) dx dy ,

which depends on the index offset d = i - j alone.  The table uses a
three-way rule:

* near offsets (sup-norm |d| <= 4): the exact double integral.  In 1D it
  is a second difference of the double antiderivative of t^(-(1+2s)); in
  2D a second difference of the unit-cell integrals of the quadrant tail
  (below), whose mixed derivative is the kernel, and on an axis the whole
  strip, a 1D weight, minus the two quadrants beyond the cell's sides.
  One pass computes the offsets 0..4 per axis, each sorted offset once
  (in 2D from one batch of unit-cell integrals), and the block is their
  mirror.
* touching offsets whose exact integral diverges (1D offset 1 and 2D
  edge-neighbours, when s >= 1/2): the single-layer collocation value
  h^n * integral over C_j of |c_i - y|^(-(n+2s)) dy, which is finite,
  positive and symmetric, and is the distance-one analogue of the far rule.
* far offsets: the midpoint rule h^(2n) |c_i - c_j|^(-(n+2s)).

The diagonal weight is exactly zero: a piecewise-constant field has
u(x) - u(y) = 0 on C_i x C_i, so the singular diagonal never contributes.

Everything outside the lattice box enters through per-cell tail integrals
of the kernel against exterior regions.  The 1D tails are elementary.  A
2D box complement is the four half-planes beyond the faces minus the four
corner quadrants that two half-planes share.  The half-plane tail is
elementary and the quadrant tail has a closed form through the incomplete
beta function (``quadrant_tail``).  It is homogeneous of degree -2s, so one
table of its unit-cell integrals per build serves all four corners and
every halfspace threshold on a cell edge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft import dctn, irfftn, next_fast_len, rfftn
from scipy.special import betainc

from .lattice import Lattice

__all__ = [
    "KernelTable",
    "build_kernel",
    "cell_tail_halfspace",
    "quadrant_tail",
    "stable_sum",
]


def stable_sum(arr) -> float:
    """Correctly rounded sum of the floats of arr, bit-identical to
    ``math.fsum`` over them in C order.

    Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31,
    2008).  With n entries r and m = max|r| < 2^e, a pass takes
    sigma = 2^(e + bit_length(n - 1)) and q = (sigma + r) - sigma: r
    rounded to a multiple of ulp(sigma)/2 with |q| <= 2^e.  So q and r - q
    are exact and the n values q sum exactly in any order.  Passes repeat
    on r - q until it is zero, and ``math.fsum`` rounds the exact pass sums
    once.  Input that is all zero (the sign of zero), not finite, or with m
    outside 2^(+-900) goes to ``math.fsum`` as a list.
    """
    r = np.asarray(arr, dtype=float).ravel(order="C")
    m = float(abs(r).max()) if r.size else 0.0
    if not 2.0**-900 <= m <= 2.0**900:
        return math.fsum(r.tolist())
    b = (r.size - 1).bit_length()
    parts = []
    while m:
        sigma = math.ldexp(1.0, math.frexp(m)[1] + b)
        q = (sigma + r) - sigma
        parts.append(float(q.sum()))
        r = r - q
        m = float(abs(r).max())
    return math.fsum(parts)


def fftconvolve(x: np.ndarray, spec: np.ndarray, fshape) -> np.ndarray:
    """Circular convolution at fshape of x with the array whose rfftn at
    fshape is ``spec``.  An array of extent 2n - 1 and a field of extent n
    convolve linearly to extent 3n - 2; at fshape >= 2n - 1 the entries
    past fshape wrap into [0, n - 1), so the window [n - 1, 2n - 1) is
    exact.  ``setgeom._offset_counts`` counts pair offsets with it; table
    convolutions of fields are ``energies.convolve``.
    """
    return irfftn(rfftn(x, fshape) * spec, fshape)


# ---------------------------------------------------------------------------
# exterior tail primitives
# ---------------------------------------------------------------------------


def _b_full(s: float) -> float:
    """int over R of (1+t^2)^(-(1+s)) dt = B(s+1/2, 1/2)
    = sqrt(pi) Gamma(s+1/2) / Gamma(s+1)."""
    return math.sqrt(math.pi) * math.gamma(s + 0.5) / math.gamma(s + 1.0)


def quadrant_tail(a, b, s: float):
    """Q(a, b) = int over {u >= a, v >= b} of (u^2+v^2)^(-(1+s)) du dv,
    for a, b >= 0, not both 0.

    In polar coordinates Q = (1/2s) int_0^(pi/2) min(cos t/a, sin t/b)^(2s)
    dt.  Split at t = atan(b/a), each part is an incomplete beta function
    (DLMF 8.17).  With lo <= hi the sorted arguments and
    y = lo^2/(lo^2+hi^2) <= 1/2,

        Q = B(s+1/2, 1/2)/(4s) [lo^(-2s) I_y(s+1/2, 1/2)
                                + hi^(-2s) (1 - I_y(1/2, s+1/2))],

    so neither term cancels and Q is bitwise symmetric in (a, b).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    lo2 = lo * lo
    y = lo2 / (lo2 + hi * hi)
    p = s + 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        near = np.where(lo > 0.0, lo ** (-2.0 * s) * betainc(p, 0.5, y), 0.0)
    far = hi ** (-2.0 * s) * (1.0 - betainc(0.5, p, y))
    return _b_full(s) / (4.0 * s) * (near + far)


_GL4 = np.polynomial.legendre.leggauss(4)
_GL8 = np.polynomial.legendre.leggauss(8)
_GL24 = np.polynomial.legendre.leggauss(24)


def _origin_rect(A: float, B: float, s: float) -> float:
    """int over [0, A] x [0, B] of Q.  Split along the diagonal, each
    triangle is a ray integral, as Q is homogeneous of degree -2s:
    A^(2-2s) int_0^(B/A) Q(1, t) dt / (2-2s), plus the same with A and B
    swapped.  A ray runs on the panels [0, 1], [1, 2], [2, 4], ..., so a
    thin rectangle costs one 24-node panel per doubling."""
    p = 2.0 - 2.0 * s
    x, w = _GL24
    total = 0.0
    for side, T in ((A, B / A), (B, A / B)):
        e = [0.0, min(T, 1.0)]
        while e[-1] < T:
            e.append(min(2.0 * e[-1], T))
        e = np.array(e)
        mid, half = 0.5 * (e[1:] + e[:-1]), 0.5 * (e[1:] - e[:-1])
        t = (mid[:, None] + half[:, None] * x).ravel()
        total += side ** p * float((half[:, None] * w).ravel() @ quadrant_tail(1.0, t, s))
    return total / p


def _gauss_rects(a0, a1, b0, b1, s: float, nodes) -> np.ndarray:
    """Tensor Gauss integrals of Q over rectangles, 512 at a time, so the
    node values of one pass (at most 512 x 16 x 16 doubles) stay near
    1 MiB."""
    x, w = nodes
    u, w = 0.5 * (x + 1.0), 0.5 * w
    out = np.empty(a0.shape)
    for c in range(0, a0.size, 512):
        k = slice(c, c + 512)
        da, db = a1[k] - a0[k], b1[k] - b0[k]
        A = a0[k, None] + da[:, None] * u
        B = b0[k, None] + db[:, None] * u
        vals = quadrant_tail(A[:, :, None], B[:, None, :], s)
        out[k] = da * db * np.einsum("cij,i,j->c", vals, w, w)
    return out


# 8-point Gauss on each half of [-1, 1]: the tensor rule is 8x8 Gauss on a
# 2x2 split of the rectangle
_GL8x2 = (np.concatenate([0.5 * (_GL8[0] - 1.0), 0.5 * (_GL8[0] + 1.0)]),
          np.concatenate([0.5 * _GL8[1], 0.5 * _GL8[1]]))


def _rect_integrals(a0, a1, b0, b1, s: float) -> np.ndarray:
    """Integrals of Q over the rectangles [a0, a1] x [b0, b1] (flat arrays)
    of the closed first quadrant, each at most a unit wide.

    Q ~ r^(-2s) at the origin.  A rectangle on the a-axis starting less
    than a unit out is a difference of origin rectangles, and one within
    two units is split 2x2.  Farther out Q is smooth on the unit scale:
    8x8 Gauss, and 4x4 from 16 units on (each within 2e-14 relative).
    """
    out = np.zeros(a0.shape)
    on_axis = (b0 == 0.0) & (a0 < 1.0)
    for i in np.flatnonzero(on_axis):
        out[i] = _origin_rect(a1[i], b1[i], s)
        if a0[i] > 0.0:
            out[i] -= _origin_rect(a0[i], b1[i], s)
    d = np.where(on_axis, -1.0, np.maximum(a0, b0))
    for lo, hi, nodes in ((0.0, 2.0, _GL8x2), (2.0, 16.0, _GL8), (16.0, np.inf, _GL4)):
        i = np.flatnonzero((d >= lo) & (d < hi))
        out[i] = _gauss_rects(a0[i], a1[i], b0[i], b1[i], s, nodes)
    return out


_CORNERS: dict = {}  # s -> the largest square corner table built so far


def _corner_table(n0: int, n1: int, s: float) -> np.ndarray:
    """q[m, k] = int of Q over the unit cell [m, m+1] x [k, k+1], m < n0,
    k < n1: the tail against a corner quadrant of the cell at offset (m, k)
    from the corner, in units of h^(2-2s).

    Computed for m <= k and mirrored, so a square table is bitwise
    symmetric.  At s >= 1/2, q[0, 0] is the collocated Q(1/2, 1/2): the
    corner cell collocates the quadrant of the corner it occupies.  q
    depends on neither h nor the box, so one read-only square table per s,
    at the largest size asked for so far, serves every box; the result is
    a window of it.
    """
    q = _CORNERS.get(s)
    if q is None or q.shape[0] < max(n0, n1):
        n = max(n0, n1, 0 if q is None else q.shape[0])
        m, k = np.triu_indices(n)
        vals = _rect_integrals(m + 0.0, m + 1.0, k + 0.0, k + 1.0, s)
        q = np.empty((n, n))
        q[m, k] = vals
        q[k, m] = vals
        if s >= 0.5:
            q[0, 0] = quadrant_tail(0.5, 0.5, s)
        q.setflags(write=False)
        _CORNERS[s] = q
    return q[:n0, :n1]


# ---------------------------------------------------------------------------
# cell tail weights
#
# The tail weight of a cell against an exterior region is the double
# integral over C_i x region.  At s >= 1/2 a cell takes the collocation
# value h^n * (tail at its center) of each term whose region touches it
# (the half-plane of a face it lies on, where the integral diverges, and
# the quadrant of a corner it occupies), and of every piece a halfspace
# split cuts from that term, so splits stay additive.  Positions are in
# cell units: box faces and cell edges are integers.
# ---------------------------------------------------------------------------


def _f2_seg(g, width, s: float):
    """int_g^(g+width) t^(-2s) dt / (2s), g >= 0; inf where it diverges
    (g = 0, s >= 1/2), 0 at g = inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if s == 0.5:
            v = np.log1p(width / g)
        else:
            p = 1.0 - 2.0 * s
            v = ((g + width) ** p - g ** p) / (p * 2.0 * s)
    return np.where(np.isinf(g), 0.0, v)


def _slab(e, A, B, h: float, s: float, sl) -> np.ndarray:
    """1D tails of the cells [e, e+1] against the region [A, B] on their
    left (B <= e, A may be -inf); the sl cells take the collocation value."""
    inv = 1.0 / (2.0 * s)
    exact = _f2_seg((e - B) * h, h, s) - _f2_seg((e - A) * h, h, s)
    point = h * ((((e + 0.5) - B) * h) ** (-2.0 * s) * inv
                 - (((e + 0.5) - A) * h) ** (-2.0 * s) * inv)
    return np.where(sl, point, exact)


def _faces(lo: int, hi: int, t: float, h: float, s: float) -> np.ndarray:
    """1D tails of the cells lo..hi-1 against {y >= max(hi, t)} and, when
    t < lo, against [t, lo]; the end cells collocate at s >= 1/2."""
    e = np.arange(lo, hi, dtype=float)
    coll = s >= 0.5
    out = _slab(-e - 1.0, -np.inf, -max(hi, t), h, s, coll & (e == hi - 1))
    if t < lo:
        out = out + _slab(e, t, lo, h, s, coll & (e == lo))
    return out


def _side_table(g: float, rows: int, n1: int, s: float, q) -> np.ndarray:
    """Tails against a quadrant, in units of h^(2-2s), of the columns on
    one side of its corner, nearest first, when the corner cuts the nearest
    at width g (0 < g <= 1): Q over [a_i, a_(i+1)] x [k, k+1], edges
    a = 0, g, 1+g, 2+g, ...; on a cell edge (g = 1) the corner table."""
    if g == 1.0:
        return q[:rows]
    a = np.concatenate([[0.0], g + np.arange(rows, dtype=float)])
    k = np.tile(np.arange(n1, dtype=float), rows)
    return _rect_integrals(np.repeat(a[:-1], n1), np.repeat(a[1:], n1),
                           k, k + 1.0, s).reshape(rows, n1)


def _tails_plus(lo, hi, t: float, h: float, s: float, q, sides) -> np.ndarray:
    """Tails of the box of cells lo..hi against its complement within
    {x >= t}.

    In 2D, t <= lo[0] keeps every face, the slab beyond the near x face cut
    at t, and t >= hi[0] keeps the slab beyond the far x face.  In between,
    the quadrants at (t, y face) stand in for the y faces' half-planes,
    from ``sides``, the side tables of the columns left and right of t.
    """
    cols = _faces(lo[0], hi[0], t, h, s)
    if len(lo) == 1:
        return cols
    (l0, l1), (u0, u1) = lo, hi
    n0, n1 = u0 - l0, u1 - l1
    hb, cols = h * _b_full(s), cols[:, None]
    if t >= u0:
        return np.repeat(hb * cols, n1, axis=1)
    scale = h ** (2.0 - 2.0 * s)
    if t <= l0:
        rows = _faces(l1, u1, -np.inf, h, s)[None, :]
        corners = (q + q[::-1, ::-1]) + (q[::-1, :] + q[:, ::-1])
        return hb * (cols + rows) - scale * corners
    # Row k lies k cells from a face.  A column left of t sees the quadrant
    # at an offset (+ left side table); one right of t sees the half-plane
    # minus the mirror quadrant (- right side table); a column t cuts sees
    # both.  The face row collocates at s >= 1/2, as its half-plane does.
    e = np.arange(l0, u0, dtype=float)
    D = np.zeros((n0, n1))
    for sign, i, table in ((1.0, math.ceil(t) - 1 - e, sides[0]),
                           (-1.0, e - math.floor(t), sides[1])):
        D[i >= 0] += sign * table[i[i >= 0].astype(int)]
    W = np.repeat(np.clip(e + 1.0 - t, 0.0, 1.0)[:, None], n1, axis=1)
    if s >= 0.5:
        c = t - (e + 0.5)
        qc = quadrant_tail(np.abs(c), 0.5, s)
        D[:, 0] = np.where(c >= 0.0, qc, -qc)
        W[:, 0] = c < 0.0
    k = np.arange(n1, dtype=float)
    face = hb * _slab(k, -np.inf, 0.0, h, s, (s >= 0.5) & (k == 0))
    C = W * face + scale * D
    return hb * cols + (C + C[:, ::-1]) - scale * (q[::-1, :] + q[::-1, ::-1])


def cell_tail_halfspace(lat: Lattice, s: float, axis: int, thr: float):
    """(plus, minus) tail weights split by the halfspace {y[axis] >= thr},
    each of the lattice shape.

    The minus part is the plus part of the box mirrored along the axis,
    and the axis-1 split is the transposed axis-0 split of the transposed
    box.  A threshold within a few ulps of a cell edge is taken to lie on
    it.
    """
    if not 0 <= axis < lat.dim:
        raise ValueError(f"{lat.dim}D halfspace axis must lie in "
                         f"[0, {lat.dim}), got {axis}")
    if axis == 1:
        flipped = Lattice(2, lat.h, lat.lo[::-1], lat.hi[::-1])
        return tuple(np.ascontiguousarray(x.T)
                     for x in cell_tail_halfspace(flipped, s, 0, thr))
    t = thr / lat.h
    if math.isfinite(t) and abs(t - round(t)) <= 4.0 * math.ulp(max(abs(t), 1.0)):
        t = float(round(t))
    q = sides = None
    if lat.dim == 2:
        q = _corner_table(*lat.shape, s)
        if lat.lo[0] < t < lat.hi[0]:  # the columns left and right of t
            left, right = math.ceil(t) - 1, math.floor(t)
            sides = (_side_table(t - left, left + 1 - lat.lo[0], lat.shape[1], s, q),
                     _side_table(right + 1 - t, lat.hi[0] - right, lat.shape[1], s, q))
    mirror_lo, mirror_hi = (-lat.hi[0],) + lat.lo[1:], (-lat.lo[0],) + lat.hi[1:]
    return (_tails_plus(lat.lo, lat.hi, t, lat.h, s, q, sides),
            _tails_plus(mirror_lo, mirror_hi, -t, lat.h, s, q,
                        sides and sides[::-1])[::-1].copy())


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


# offsets with sup-norm up to this take the exact weight, farther ones the
# midpoint rule
_NEAR_RADIUS = 4


def _near_quadrant(dim: int, h: float, s: float) -> np.ndarray:
    """Pair weights at the offsets 0..R per axis, R = ``_NEAR_RADIUS``: the
    exact double integral, collocated on the touching offset at s >= 1/2.

    In 1D, F(a + h) - 2 F(a) + F(a - h) at a = d h, with F the double
    antiderivative of t^(-(1+2s)) (zero at 0 for s < 1/2), in Python
    floats, as numpy's power can differ from ``pow`` in the last bit.  In
    2D, with q the unit-cell integrals of Q over the (R+1)^2 square,

        w = h^(2-2s) ((q[d1-1, d2-1] - q[d1, d2-1]) - (q[d1-1, d2] - q[d1, d2])),

    the cell average over C_0 of the second difference of Q that
    integrates the kernel over C_d - x.  At d1 = 0 it straddles the axis:
    the whole strip, B(s+1/2, 1/2) times the 1D weight, minus the
    quadrants beyond either side, 2 (q[0, d2-1] - q[0, d2]).  Each
    d1 <= d2 is differenced once and mirrored.  The square is integrated
    cell by cell, not mirrored as in ``_corner_table``: the diagonal
    weights difference q[d, d-1] and q[d-1, d], whose quadratures round
    differently.
    """
    R = _NEAR_RADIUS
    coll = s >= 0.5

    def F(t):
        if t == 0.0:
            return 0.0
        if s == 0.5:
            return -math.log(t)
        return t ** (1.0 - 2.0 * s) / ((2.0 * s) * (2.0 * s - 1.0))

    def line(g):
        # 1D weights at spacing g, offsets 1..R; nan where collocated
        return np.array([math.nan if coll and d == 1 else
                         F(d * g + g) - 2.0 * F(d * g) + F(d * g - g)
                         for d in range(1, R + 1)])

    if dim == 1:
        w = np.concatenate([[0.0], line(h)])
        if coll:
            w[1] = h * ((0.5 * h) ** (-2.0 * s) - (1.5 * h) ** (-2.0 * s)) / (2.0 * s)
        return w
    m, k = np.indices((R + 1, R + 1), dtype=float).reshape(2, -1)
    q = _rect_integrals(m, m + 1.0, k, k + 1.0, s).reshape(R + 1, R + 1)
    w = np.zeros((R + 1, R + 1))
    w[1:, 1:] = (q[:-1, :-1] - q[1:, :-1]) - (q[:-1, 1:] - q[1:, 1:])
    w[0, 1:] = _b_full(s) * line(1.0) - 2.0 * (q[0, :-1] - q[0, 1:])
    w *= h ** (2.0 - 2.0 * s)
    if coll:
        # twice the kernel from the centre of C_0 over the edge neighbour's
        # half on one side of the axis, a second difference of Q
        c = quadrant_tail((np.array([0.0, 0.5]) * h)[:, None], np.array([0.5, 1.5]) * h, s)
        w[0, 1] = h * h * 2.0 * float((c[0, 0] - c[1, 0]) - (c[0, 1] - c[1, 1]))
    i, j = np.tril_indices(R + 1, -1)
    w[i, j] = w[j, i]
    return w


@dataclass(eq=False)
class KernelTable:
    """Reusable pairwise weights plus exterior tails for one lattice.

    ``table`` is the dense offset array, indexed by offset + (shape - 1)
    per axis, so any in-box pair weight is a direct lookup and pair sums
    reduce to convolutions with it.  It is the kernel's one store of pair
    weights, read-only, and every other view of them is a window of it.
    """

    lattice: Lattice
    s: float
    table: np.ndarray = field(repr=False)

    _tail_cache: dict = field(default_factory=dict, repr=False)
    _extent_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._extent_cache.setdefault(self.lattice.shape, self.table)

    # -- weights -------------------------------------------------------------

    def table_for_extents(self, extents) -> np.ndarray:
        """Offsets up to extents - 1 per axis: the centred window of
        ``table``, a view of it (``table`` itself at the lattice shape).
        Extents beyond the lattice shape raise ``ValueError``."""
        extents = tuple(int(e) for e in extents)
        if extents not in self._extent_cache:
            shape = self.lattice.shape
            if len(extents) != len(shape) or not all(0 < e <= n for e, n in zip(extents, shape)):
                raise ValueError(f"extents {extents} must lie within the "
                                 f"lattice shape {shape}")
            self._extent_cache[extents] = self.table[
                tuple(slice(n - e, n + e - 1) for n, e in zip(shape, extents))]
        return self._extent_cache[extents]

    @cached_property
    def spectrum(self):
        """(Ns, W) for ``energies.convolve`` on fields of the lattice's shape.

        Per axis N = next_fast_len(n) >= n, so the table extended
        2N-periodically does not alias offsets up to n - 1 into the box.
        The table is even in every axis, so its half at offsets 0..N (zero
        past n - 1) determines it, and K = 2^(-dim) DCT-I of that half is
        the 2N-point DFT of the table, halved once per axis for the parity
        fold's doubling.  W stacks K's window for every parity class,
        shape (2,)*dim + L, class p at W[p].  Per axis, on an even extent
        (L = N) the even class takes K[0:N] (DCT-II) and the odd class
        K[1:N+1] reversed, because its DST-II is taken as a DCT-II of the
        sign-alternated class, read reversed; on an odd extent
        (L = N + 1) both take K[0:N+1], the DCT-I window, which holds the
        DST-I window K[1:N] at the same places.
        """
        shape = self.lattice.shape
        Ns = tuple(next_fast_len(n, True) for n in shape)
        half = self.table[tuple(slice(n - 1, None) for n in shape)]
        K = 2.0 ** -len(shape) * dctn(half, type=1, s=tuple(N + 1 for N in Ns))
        index = []
        for a, (n, N) in enumerate(zip(shape, Ns)):
            both = [np.arange(N), np.arange(N, 0, -1)] if n % 2 == 0 else [np.arange(N + 1)] * 2
            index.append(np.reshape(both, (1,) * a + (2,) + (1,) * (len(shape) - 1)
                                    + (-1,) + (1,) * (len(shape) - 1 - a)))
        return Ns, K[tuple(index)]

    # -- tails ---------------------------------------------------------------

    @property
    def tail_weights(self) -> np.ndarray:
        """Per-cell tail weight against the box complement (cell-averaged
        double integral; collocation on divergent face-touching sides):
        the plus part of the split at threshold -inf, built once."""
        if "total" not in self._tail_cache:
            self._split(0, -np.inf)
        return self._tail_cache["total"]

    def tail_halfspace(self, axis: int, threshold: float):
        """(plus, minus) split of tail_weights by {y[axis] >= threshold}."""
        return self._split(axis, threshold)

    def _split(self, axis: int, threshold: float):
        # the one builder behind both readers; the split at (0, -inf) also
        # files its plus part as "total", so either reader finds it built
        key = ("half", int(axis), float(threshold))
        if key not in self._tail_cache:
            pair = cell_tail_halfspace(self.lattice, self.s, axis, threshold)
            for x in pair:
                x.setflags(write=False)
            self._tail_cache[key] = pair
            if key == ("half", 0, -np.inf):
                self._tail_cache["total"] = pair[0]
        return self._tail_cache[key]


def build_kernel(lattice: Lattice, s: float) -> KernelTable:
    """Compute the weight table for a lattice: the midpoint rule at every
    offset, then the exact weights patched into the near block."""
    s = float(s)
    if not 0.0 < s < 1.0:
        raise ValueError(f"kernel exponent s must lie in (0, 1), got {s}")
    dim, h, shape = lattice.dim, lattice.h, lattice.shape
    o = np.ix_(*(np.arange(1 - n, n, dtype=float) for n in shape))
    with np.errstate(divide="ignore"):
        if dim == 1:
            table = h ** 2 * (np.abs(o[0]) * h) ** (-(1.0 + 2.0 * s))
        else:
            table = h ** 4 * ((o[0] * h) ** 2 + (o[1] * h) ** 2) ** (-(1.0 + s))
    # the near block is even in every axis: offset d reads the quadrant at |d|
    offs = [np.arange(-r, r + 1) for r in (min(_NEAR_RADIUS, n - 1) for n in shape)]
    table[np.ix_(*(n - 1 + d for n, d in zip(shape, offs)))] = \
        _near_quadrant(dim, h, s)[np.ix_(*map(np.abs, offs))]
    table.setflags(write=False)
    return KernelTable(lattice=lattice, s=s, table=table)
