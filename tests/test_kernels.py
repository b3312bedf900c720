import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import fraclab.kernels as K
from cellsets import box_bounds
from fraclab.kernels import build_kernel, stable_sum
from fraclab.lattice import Lattice

# brute-force double integrals (mpmath, 30 digits), frozen
PAIR_2D = {
    (0.25, (1, 1)): 0.67600839868594708,
    (0.25, (0, 2)): 0.203287672146128,
    (0.25, (1, 2)): 0.15031451202918521,
    (0.25, (2, 2)): 0.079808170104967919,
    (0.25, (0, 1)): 3.6470875155031425,
    (0.75, (1, 1)): 1.2531596633298185,
    (0.75, (0, 2)): 0.11693685287790907,
    (0.75, (1, 2)): 0.075676118581920502,
    (0.75, (2, 2)): 0.03029396606769531,
}
# the quadrant tail Q(1, 2); s = 1/4 from the 30-digit angular integral
# (1/2s) int min(cos t, sin t/2)^(2s) dt, as a nested quadrature over the
# two infinite ranges settles only to 1e-10 there; at s = 1/2 the value is
# (3 - sqrt 5)/2
QUADRANT_12 = {0.25: 1.468254433374356, 0.5: 0.38196601125010466,
               0.75: 0.14032628950369448}
STRIP_073 = {0.25: 1.2898417130441294, 0.5: 1.0774337054423759,
             0.75: 0.9637136783533125}
BFULL = {0.25: 2.3962804694711844, 0.5: 2.0, 0.75: 1.7480383695280799}
R = K._NEAR_RADIUS


def far_weight(dim: int, h: float, s: float, offset) -> float:
    """Midpoint rule h^(2n) |c_i - c_j|^(-(n+2s))."""
    off = np.atleast_1d(np.asarray(offset, dtype=float))
    r = float(np.sqrt(np.sum((off * h) ** 2)))
    if r == 0.0:
        return 0.0
    return h ** (2 * dim) * r ** (-(dim + 2.0 * s))


def pair_1d(h: float, s: float, d: int) -> float:
    """Exact 1D cell-pair integral at offset d >= 1 (d >= 2 at s >= 1/2):
    the second difference F(a + h) - 2 F(a) + F(a - h), a = d h, of the
    double antiderivative F of t^(-(1+2s)), zero at 0 for s < 1/2."""
    def F(t):
        if t == 0.0:
            return 0.0
        if s == 0.5:
            return -math.log(t)
        return t ** (1.0 - 2.0 * s) / ((2.0 * s) * (2.0 * s - 1.0))

    a = d * h
    return F(a + h) - 2.0 * F(a) + F(a - h)


def pair_2d(h: float, s: float, d1: int, d2: int) -> float:
    """Exact 2D cell-pair integral at 0 <= d1 <= d2, away from the
    touching offset at s >= 1/2: the second difference of the quadrant
    tail's unit-cell integrals, one offset at a time; on the axis the
    strip, B(s+1/2, 1/2) times the 1D weight, minus two quadrants."""
    rows = [d1 - 1.0, d1] if d1 else [0.0]
    m = np.repeat(rows, 2)
    k = np.tile([d2 - 1.0, d2], len(rows))
    q = K._rect_integrals(m, m + 1.0, k, k + 1.0, s).reshape(-1, 2)
    if d1 == 0:
        w = K._b_full(s) * pair_1d(1.0, s, d2) - 2.0 * (q[0, 0] - q[0, 1])
    else:
        w = (q[0, 0] - q[1, 0]) - (q[0, 1] - q[1, 1])
    return h ** (2.0 - 2.0 * s) * float(w)


def pair_collocation(dim: int, h: float, s: float) -> float:
    """Single-layer stand-in h^n * int_{C_j} |c_i - y|^(-(n+2s)) dy at the
    touching offset; in 2D twice the half on one side of the axis, a
    second difference of the quadrant tail."""
    if dim == 1:
        lo, hi = h - 0.5 * h, h + 0.5 * h
        return h * (lo ** (-2.0 * s) - hi ** (-2.0 * s)) / (2.0 * s)
    u, v = np.array([0.0, 0.5]) * h, np.array([0.5, 1.5]) * h
    q = K.quadrant_tail(u[:, None], v[None, :], s)
    return h * h * 2 * float((q[0, 0] - q[1, 0]) - (q[0, 1] - q[1, 1]))


@functools.lru_cache(maxsize=None)
def _near_weight(dim: int, h: float, s: float, canon: tuple) -> float:
    if sum(canon) == 1 and s >= 0.5:
        return pair_collocation(dim, h, s)
    return pair_1d(h, s, *canon) if dim == 1 else pair_2d(h, s, *canon)


def _weight(kern, offset) -> float:
    """Oracle: pair weight at an integer index offset, from the per-offset
    rules above (collocated where the touching integral diverges) or the
    far rule, without the dense table."""
    dim, h, s = kern.lattice.dim, kern.lattice.h, kern.s
    off = tuple(int(v) for v in np.atleast_1d(offset))
    canon = tuple(sorted(abs(v) for v in off))
    if all(v == 0 for v in canon):
        return 0.0
    if max(canon) > R:
        return far_weight(dim, h, s, off)
    return _near_weight(dim, h, s, canon)


def table_weight(dim: int, h: float, s: float, offset) -> float:
    """The table entry at an index offset, on a box of 2R + 1 cells per
    axis."""
    n = 2 * R + 1
    kern = build_kernel(Lattice(dim, h, (0,) * dim, (n,) * dim), s)
    return float(kern.table[tuple(n - 1 + d for d in offset)])


def switch_gap(kern) -> float:
    """Relative near/far mismatch at the switch radius (far-rule
    truncation error; decays like the radius^-2)."""
    dim, h, s = kern.lattice.dim, kern.lattice.h, kern.s
    worst = 0.0
    for canon in [(R,)] if dim == 1 else [(d1, R) for d1 in range(R + 1)]:
        f = far_weight(dim, h, s, canon)
        worst = max(worst, abs(_weight(kern, canon) - f) / f)
    return worst


# ------------------------------------------------------------- pair weights


def test_pair_1d_closed_forms():
    # int_0^1 int_1^2 |x-y|^(-3/2): double antiderivative gives 8 - 4 sqrt(2)
    assert table_weight(1, 1.0, 0.25, (1,)) \
        == pytest.approx(8.0 - 4.0 * math.sqrt(2.0), rel=1e-15)
    # s = 1/2, offset 2: log form, int = ln(4/3)
    assert table_weight(1, 1.0, 0.5, (2,)) \
        == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
    assert table_weight(1, 1.0, 0.3, (0,)) == 0.0


def test_pair_scaling_in_h():
    # w(h) = h^(dim - 2s) w(1) at fixed index offset
    s = 0.3
    w1 = table_weight(1, 1.0, s, (3,))
    w2 = table_weight(1, 0.5, s, (3,))
    assert w2 == pytest.approx(0.5 ** (1 - 2 * s) * w1, rel=1e-13)
    v1 = table_weight(2, 1.0, s, (1, 2))
    v2 = table_weight(2, 0.5, s, (1, 2))
    assert v2 == pytest.approx(0.5 ** (2 - 2 * s) * v1, rel=1e-13)


@pytest.mark.parametrize("key", sorted(PAIR_2D))
def test_pair_2d_matches_brute_force(key):
    s, off = key
    got = table_weight(2, 1.0, s, off)
    assert got == pytest.approx(PAIR_2D[key], rel=1e-12)


def test_pair_2d_edge_touching_closed_half_matches_brute_force():
    got = table_weight(2, 1.0, 0.25, (0, 1))
    assert got == pytest.approx(PAIR_2D[(0.25, (0, 1))], rel=1e-12)


def test_pair_2d_edge_touching_just_below_half():
    # the weight diverges as s -> 1/2 only through the closed-form strip
    # term, so just below it the weight stays exact to round-off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = table_weight(2, 0.7, 0.45, (0, 1))
    assert got == pytest.approx(13.090341733874158, rel=1e-12)


def test_collocation_values():
    # 1D, s=1/2, offset 1: h * [(h/2)^-1 - (3h/2)^-1] / 1 = 4/3 at h=1
    assert table_weight(1, 1.0, 0.5, (1,)) == pytest.approx(4.0 / 3.0, rel=1e-14)


def _hat_gauss(s, d1, d2, n=24):
    """Pair weight at h = 1 from the hat reduction
    int H(t1 - d1) H(t2 - d2) |t|^(-(2+2s)) dt, H(t) = max(1 - |t|, 0), by
    tensor Gauss-Legendre with n nodes on each linear piece of each hat;
    the integrand is smooth there when d2 >= 2."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = np.concatenate([0.5 * (x - 1.0), 0.5 * (x + 1.0)])
    wt = np.concatenate([w, w]) * 0.5 * (1.0 - np.abs(t))
    t1, t2 = d1 + t, d2 + t
    return float(wt @ (t1[:, None] ** 2 + t2[None, :] ** 2) ** (-(1.0 + s)) @ wt)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_near_pair_weights_match_hat_reduction(s):
    # the near weights and the tails share the unit-cell integrals of the
    # quadrant tail; this oracle shares no code with them
    for d2 in range(2, R + 1):
        for d1 in range(d2 + 1):
            got = table_weight(2, 1.0, s, (d1, d2))
            assert got == pytest.approx(_hat_gauss(s, d1, d2), rel=1e-12), (d1, d2)


def test_far_weight_values():
    assert far_weight(1, 1.0, 0.25, (100,)) == pytest.approx(1e-3, rel=1e-14)
    assert far_weight(2, 2.0, 0.5, (3, 4)) \
        == pytest.approx(2.0 ** 4 * 10.0 ** -3.0, rel=1e-14)
    assert far_weight(2, 1.0, 0.5, (0, 0)) == 0.0


# ------------------------------------------------------------- build + table


@pytest.fixture(scope="module")
def kern1d():
    return build_kernel(Lattice(1, 0.5, (-8,), (8,)), 0.25)


@pytest.fixture(scope="module")
def kern2d():
    return build_kernel(Lattice(2, 1.0, (0, 0), (6, 5)), 0.75)


def test_build_kernel_validation():
    for lat in (Lattice(1, 1.0, (0,), (4,)), Lattice(2, 1.0, (0, 0), (4, 3))):
        for bad_s in (0.0, 1.0, -0.2, 2.0):
            with pytest.raises(ValueError, match="exponent"):
                build_kernel(lat, bad_s)


def test_weight_lookup_consistency(kern1d, kern2d):
    # dense table entries match _weight(); near block is exact, far is midpoint
    e0 = kern1d.lattice.shape[0]
    for d in (-7, -3, -1, 0, 2, 5):
        assert kern1d.table[e0 - 1 + d] == _weight(kern1d, (d,))
    assert _weight(kern1d, (2,)) == pytest.approx(pair_1d(0.5, 0.25, 2), rel=1e-12)
    assert _weight(kern1d, (7,)) == far_weight(1, 0.5, 0.25, (7,))

    e0, e1 = kern2d.lattice.shape
    for off in ((0, 1), (2, -1), (-3, 3), (5, 4), (0, 0)):
        assert kern2d.table[e0 - 1 + off[0], e1 - 1 + off[1]] \
            == _weight(kern2d, off)
    assert _weight(kern2d, (0, 1)) == pytest.approx(
        pair_collocation(2, 1.0, 0.75), rel=1e-12)
    assert _weight(kern2d, (1, 1)) == pytest.approx(
        1.2531596633298185, rel=1e-10)

    # the whole near block, built in one pass, is the per-offset rules bit
    # for bit
    n = 2 * R + 1
    for dim in (1, 2):
        for s in (0.1, 0.25, 0.5, 0.75, 0.9):
            for h in (1.0, 0.3):
                kern = build_kernel(Lattice(dim, h, (0,) * dim, (n,) * dim), s)
                for i in np.ndindex((n,) * dim):
                    d = tuple(v - R for v in i)
                    assert kern.table[tuple(n - 1 + v for v in d)] \
                        == _weight(kern, d), (dim, s, h, d)


def test_weights_positive_and_zero_diagonal(kern1d, kern2d):
    for kern in (kern1d, kern2d):
        e = [n - 1 for n in kern.lattice.shape]
        assert kern.table[tuple(e)] == 0.0
        off_diag = kern.table.copy()
        off_diag[tuple(e)] = np.inf
        assert np.all(off_diag > 0)
    # corner-touching converges for every s
    assert 0 < table_weight(2, 1.0, 0.9, (1, 1)) < np.inf


@settings(deadline=None, max_examples=60)
@given(d0=st.integers(min_value=-7, max_value=7),
       d1=st.integers(min_value=-7, max_value=7))
def test_weight_symmetry_2d(d0, d1):
    # the table is even in each axis and symmetric under transposition,
    # and every image of an offset reads the weight of its sorted form
    kern = _SYM_KERN
    n = kern.lattice.shape[0]

    def at(a, b):
        return kern.table[n - 1 + a, n - 1 + b]

    w = at(d0, d1)
    assert at(-d0, -d1) == w
    assert at(d1, d0) == w
    assert at(-d0, d1) == w
    assert w == pytest.approx(_weight(kern, (d0, d1)), rel=1e-15, abs=0.0)
    if max(abs(d0), abs(d1)) <= R:
        assert w == _weight(kern, (d0, d1))
    if (d0, d1) != (0, 0):
        assert w > 0


_SYM_KERN = build_kernel(Lattice(2, 0.7, (0, 0), (2 * R + 1, 2 * R + 1)), 0.45)


def test_table_for_extents_matches_and_memoizes(kern1d, kern2d):
    arr = kern1d.table_for_extents((4,))
    assert arr.shape == (7,)
    for d in range(-3, 4):
        assert arr[3 + d] == _weight(kern1d, (d,))
    assert kern1d.table_for_extents((4,)) is arr
    # every 2D window, entry by entry (the far rule to round-off, as the
    # oracle takes a square root first); the lattice shape is the table itself
    n0, n1 = kern2d.lattice.shape
    for e0 in range(1, n0 + 1):
        for e1 in range(1, n1 + 1):
            arr = kern2d.table_for_extents((e0, e1))
            assert arr.shape == (2 * e0 - 1, 2 * e1 - 1)
            for d0 in range(1 - e0, e0):
                for d1 in range(1 - e1, e1):
                    assert arr[e0 - 1 + d0, e1 - 1 + d1] == pytest.approx(
                        _weight(kern2d, (d0, d1)), rel=1e-15, abs=0.0)
    for kern in (kern1d, kern2d):
        shape = kern.lattice.shape
        assert kern.table_for_extents(shape) is kern.table
        for axis in range(len(shape)):
            past = tuple(n + (i == axis) for i, n in enumerate(shape))
            with pytest.raises(ValueError, match="lattice shape"):
                kern.table_for_extents(past)


def test_switch_gap_decays_quadratically():
    # the 1D closed form, as r = 8 lies beyond the near block
    gaps = {}
    for r in (2, 4, 8):
        f = far_weight(1, 1.0, 0.5, (r,))
        gaps[r] = abs(pair_1d(1.0, 0.5, r) - f) / f
    assert gaps[2] == pytest.approx(0.1507, rel=1e-2)
    # midpoint-rule truncation: halving resolution quarters the gap
    assert gaps[2] / gaps[4] == pytest.approx(4.0, rel=0.2)
    assert gaps[4] / gaps[8] == pytest.approx(4.0, rel=0.1)
    # explicit truncation bound, 2 alpha (alpha+1) / 24 R^2 with slack
    for r, g in gaps.items():
        assert g < 2.0 * 2.0 * 3.0 / 24.0 / r**2 * 1.5


def test_switch_gap_2d_bound(kern2d):
    g = switch_gap(kern2d)
    assert 0 < g < 0.2


# ------------------------------------------------------------- tail weights


def test_tail_1d_closed_form():
    lat = Lattice(1, 1.0, (0,), (2,))
    tails = build_kernel(lat, 0.25).tail_weights
    # cell [0,1] against R \ [0,2]: 4/sqrt(x) parts integrate to 4 sqrt(2)
    assert tails[0] == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)
    assert tails[1] == tails[0]


def test_tail_1d_collocation_on_touching_face():
    lat = Lattice(1, 1.0, (0,), (2,))
    tails = build_kernel(lat, 0.75).tail_weights
    sl_left = 0.5 ** -1.5 / 1.5          # center collocation, touching side
    exact_right = (1.0 - 2.0 ** -0.5) / 0.75
    assert tails[0] == pytest.approx(sl_left + exact_right, rel=1e-14)


def _halfplane(c, s):
    """Tail of a point against a half-plane at distance c, closed form."""
    return K._b_full(s) * c ** (-2.0 * s) / (2.0 * s)


def _angular_quadrant(a, b, s):
    """Quadrant tail as (1/2s) int_0^(pi/2) min(cos t/a, sin t/b)^(2s) dt,
    split at the kink atan(b/a) into two integrals of sin^(2s) from 0, by
    adaptive quadrature with the weight u^(2s) taken out."""
    def sin_power(top):
        return quad(lambda u: (math.sin(u) / u if u else 1.0) ** (2.0 * s),
                    0.0, top, weight="alg", wvar=(2.0 * s, 0.0),
                    epsabs=0.0, epsrel=2e-14, limit=200)[0]

    return (sin_power(math.atan2(b, a)) * b ** (-2.0 * s)
            + sin_power(math.atan2(a, b)) * a ** (-2.0 * s)) / (2.0 * s)


def test_tail_primitives_match_brute_force():
    for s, ref in QUADRANT_12.items():
        assert K.quadrant_tail(1.0, 2.0, s) == pytest.approx(ref, rel=1e-13)
        assert K.quadrant_tail(2.0, 1.0, s) == pytest.approx(ref, rel=1e-13)
    assert K.quadrant_tail(1.0, 2.0, 0.5) == pytest.approx(
        (3.0 - math.sqrt(5.0)) / 2.0, rel=1e-15)
    # the strip {w in [-0.3, 1.1], v >= 0.7} is a half-plane minus two
    # quadrants
    for s, ref in STRIP_073.items():
        strip = (_halfplane(0.7, s) - K.quadrant_tail(0.3, 0.7, s)
                 - K.quadrant_tail(1.1, 0.7, s))
        assert strip == pytest.approx(ref, rel=1e-13)
    for s, ref in BFULL.items():
        assert K._b_full(s) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_quadrant_tail_symmetric_and_matches_angular_integral(s):
    rng = np.random.default_rng(7)
    a, b = np.exp(rng.uniform(-6.0, 6.0, (2, 40)))
    q = K.quadrant_tail(a, b, s)
    assert np.array_equal(q, K.quadrant_tail(b, a, s))
    ref = np.array([_angular_quadrant(x, y, s) for x, y in zip(a, b)])
    assert np.max(np.abs(q - ref) / ref) < 1e-13


def _fresh_corner_table(n0, n1, s):
    """Oracle: the corner table of one size, built on its own."""
    hi = max(n0, n1)
    m, k = np.triu_indices(min(n0, n1), m=hi)
    vals = K._rect_integrals(m + 0.0, m + 1.0, k + 0.0, k + 1.0, s)
    q = np.empty((hi, hi))
    q[m, k] = vals
    q[k, m] = vals
    if s >= 0.5:
        q[0, 0] = K.quadrant_tail(0.5, 0.5, s)
    return q[:n0, :n1]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_corner_table_windows_are_fresh_builds(s, monkeypatch):
    # one read-only table per exponent, at the largest size asked for so
    # far; its windows equal a fresh build of each size bit for bit,
    # whatever order the sizes come in
    sizes = [(32, 32), (61, 61), (34, 60), (64, 64), (1, 1), (9, 2)]
    fresh = {n: _fresh_corner_table(*n, s) for n in sizes}
    for order in (sizes, sizes[::-1], sorted(sizes, key=lambda n: n[1])):
        monkeypatch.setattr(K, "_CORNERS", {})
        for n in order:
            q = K._corner_table(*n, s)
            assert q.shape == n
            assert np.array_equal(q.view(np.uint64), fresh[n].view(np.uint64))
            assert not q.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                q[0, 0] = 1.0
        assert list(K._CORNERS) == [s]
        assert K._CORNERS[s].shape == (64, 64)
        assert not K._CORNERS[s].flags.writeable


def _exit_tail(x, y, s, box):
    """Point tail against the complement of the box: (1/2s) times the
    integral over directions of the exit distance^(-2s), split at the
    corner directions."""
    X0, X1, Y0, Y1 = box

    def f(t):
        c, sn = math.cos(t), math.sin(t)
        rx = (X1 - x) / c if c > 0 else (X0 - x) / c if c < 0 else math.inf
        ry = (Y1 - y) / sn if sn > 0 else (Y0 - y) / sn if sn < 0 else math.inf
        return min(rx, ry) ** (-2.0 * s)

    kinks = sorted(math.atan2(v - y, u - x) % (2.0 * math.pi)
                   for u in (X0, X1) for v in (Y0, Y1))
    return quad(f, 0.0, 2.0 * math.pi, points=kinks, epsabs=0.0,
                epsrel=1e-13, limit=400)[0] / (2.0 * s)


def _cell_gauss(f, x0, y0, h, split=2):
    """8x8 tensor Gauss integral of f over the cell [x0, x0+h] x [y0, y0+h],
    on split x split panels."""
    g, w = np.polynomial.legendre.leggauss(8)
    u, w = 0.5 * (g + 1.0), 0.5 * w
    p = h / split
    total = 0.0
    for i in range(split):
        for j in range(split):
            for gu, wu in zip(x0 + (i + u) * p, w):
                for gv, wv in zip(y0 + (j + u) * p, w):
                    total += wu * wv * f(gu, gv)
    return total * p * p


def test_tail_2d_interior_cell_against_quadrature():
    lat = Lattice(2, 1.0, (0, 0), (4, 3))
    bounds = (0.0, 4.0, 0.0, 3.0)
    for s in (0.25, 0.75):
        tails = build_kernel(lat, s).tail_weights
        ref = _cell_gauss(lambda x, y: _exit_tail(x, y, s, bounds), 1.0, 1.0, 1.0)
        assert tails[1, 1] == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_tail_2d_face_cells_collocate_touching_terms(s):
    # box complement = four half-planes minus four corner quadrants; a cell
    # takes h^2 * (value at its center) of the half-plane of each face it
    # lies on and of the quadrant of each corner it occupies, and the cell
    # average of every other term
    h = 0.5
    X1, Y1 = 4 * h, 3 * h
    tails = K.cell_tail_halfspace(Lattice(2, h, (0, 0), (4, 3)), s, 0, -np.inf)[0]
    for i, j in ((3, 2), (1, 2), (3, 1), (0, 0), (2, 1)):
        x0, y0 = i * h, j * h
        cx, cy = x0 + 0.5 * h, y0 + 0.5 * h
        on_face = {(0, 0): i == 0, (0, 1): i == 3, (1, 0): j == 0, (1, 1): j == 2}
        faces = {(0, 0): lambda x, y: _halfplane(x, s),
                 (0, 1): lambda x, y: _halfplane(X1 - x, s),
                 (1, 0): lambda x, y: _halfplane(y, s),
                 (1, 1): lambda x, y: _halfplane(Y1 - y, s)}
        want = 0.0
        for key, f in faces.items():
            want += h * h * f(cx, cy) if on_face[key] else _cell_gauss(f, x0, y0, h)
        for right in (0, 1):
            for top in (0, 1):
                def f(x, y, right=right, top=top):
                    return _angular_quadrant(X1 - x if right else x,
                                             Y1 - y if top else y, s)
                if on_face[(0, right)] and on_face[(1, top)]:
                    want -= h * h * f(cx, cy)
                else:
                    want -= _cell_gauss(f, x0, y0, h, split=1)
        assert tails[i, j] == pytest.approx(want, rel=1e-11), (i, j)


def test_tail_2d_refinement_identity():
    # subcells at h/2 against the same box must sum to the parent tail:
    # both sides are the same double integral
    coarse = Lattice(2, 1.0, (0, 0), (4, 3))
    fine = Lattice(2, 0.5, (0, 0), (8, 6))
    for s in (0.25, 0.75):
        tc = K.cell_tail_halfspace(coarse, s, 0, -np.inf)[0]
        tf = K.cell_tail_halfspace(fine, s, 0, -np.inf)[0]
        agg = (tf[0::2, 0::2] + tf[1::2, 0::2]
               + tf[0::2, 1::2] + tf[1::2, 1::2])
        if s < 0.5:
            mask = np.ones(coarse.shape, dtype=bool)
        else:
            mask = np.zeros(coarse.shape, dtype=bool)
            mask[1:-1, 1:-1] = True  # collocated face cells differ by design
        assert np.max(np.abs(agg - tc)[mask] / tc[mask]) < 1e-8


def test_tail_symmetry_and_positivity():
    lat = Lattice(2, 0.5, (-3, -2), (3, 2))
    for s in (0.25, 0.5, 0.75):
        t = K.cell_tail_halfspace(lat, s, 0, -np.inf)[0]
        assert np.all(t > 0)
        assert np.allclose(t, t[::-1, :], rtol=1e-11)
        assert np.allclose(t, t[:, ::-1], rtol=1e-11)
        # cells nearer the boundary see more of the exterior
        mid = t.shape[0] // 2
        assert t[0, t.shape[1] // 2] > t[mid, t.shape[1] // 2]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tail_weights_square_box_symmetric_bitwise(s):
    t = build_kernel(Lattice(2, 0.53125, (-9, -9), (9, 9)), s).tail_weights
    assert np.array_equal(t, t.T)
    assert np.array_equal(t, t[::-1, :])
    assert np.array_equal(t, t[:, ::-1])


@pytest.mark.parametrize("dim", [1, 2])
def test_tail_halfspace_additivity(dim):
    if dim == 1:
        lat = Lattice(1, 0.5, (-4,), (6,))
        axes = [0]
    else:
        lat = Lattice(2, 0.5, (-3, -2), (4, 5))
        axes = [0, 1]
    for s in (0.25, 0.5, 0.75):
        total = K.cell_tail_halfspace(lat, s, 0, -np.inf)[0]
        for axis in axes:
            for thr in (-0.8, 0.0, 0.13, 2.6, 9.0, -np.inf):
                plus, minus = K.cell_tail_halfspace(lat, s, axis, thr)
                assert np.all(plus >= -1e-13) and np.all(minus >= -1e-13)
                assert np.max(np.abs(plus + minus - total) / total) < 1e-13


@pytest.mark.parametrize("lat", [
    Lattice(2, 0.5, (-5, -3), (6, 9)),
    Lattice.covering_ball(2, 0.4, 0, 6),
    Lattice(2, 0.7, (-3, -10), (12, 2)),
])
def test_tail_halfspace_axis_1_is_transposed_axis_0(lat):
    # the axis-1 split is the axis-0 split of the transposed box, bit for
    # bit, at thresholds on and off cell edges, inside and outside the box
    lat_t = Lattice(2, lat.h, lat.lo[::-1], lat.hi[::-1])
    lo, hi = box_bounds(lat)
    b0, b1, h = lo[1], hi[1], lat.h
    for s in (0.25, 0.75):
        for thr in (b0 - 1.3, b0, b0 + 0.3 * h, 0.5 * (b0 + b1) + 0.17,
                    b1 - h, b1, b1 + 2.1):
            got = K.cell_tail_halfspace(lat, s, 1, thr)
            ref = K.cell_tail_halfspace(lat_t, s, 0, thr)
            for g, r in zip(got, ref):
                assert np.array_equal(g, r.T), (s, thr)


def test_tail_halfspace_axis_validation():
    lat = Lattice(1, 1.0, (0,), (4,))
    with pytest.raises(ValueError, match="axis"):
        K.cell_tail_halfspace(lat, 0.5, 1, 0.0)


def test_tail_halfspace_axis_validation_2d():
    lat = Lattice(2, 1.0, (0, 0), (3, 3))
    with pytest.raises(ValueError, match="axis"):
        K.cell_tail_halfspace(lat, 0.5, 2, 0.0)


def test_kernel_table_tail_memoization(kern2d):
    t1 = kern2d.tail_weights
    assert kern2d.tail_weights is t1
    assert not t1.flags.writeable
    p1, m1 = kern2d.tail_halfspace(0, 3.0)
    p2, m2 = kern2d.tail_halfspace(0, 3.0)
    assert p1 is p2 and m1 is m2
    assert p1.shape == kern2d.lattice.shape


@pytest.mark.parametrize("first", ["split", "total"])
def test_total_tail_is_built_once(monkeypatch, first):
    calls = []
    build = K.cell_tail_halfspace

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(K, "cell_tail_halfspace", counted)
    kern = build_kernel(Lattice(2, 1.0, (0, 0), (6, 5)), 0.75)
    if first == "total":
        total = kern.tail_weights
        plus, minus = kern.tail_halfspace(0, -np.inf)
    else:
        plus, minus = kern.tail_halfspace(0, -np.inf)
        total = kern.tail_weights
    assert len(calls) == 1
    assert np.array_equal(total, plus)
    assert np.array_equal(kern.tail_weights, build(kern.lattice, 0.75, 0, -np.inf)[0])
    assert not np.any(minus)


# ------------------------------------------------------------- misc


def test_stable_sum_compensated():
    vals = [1e16, 1.0, -1e16]
    assert stable_sum(vals) == 1.0
    arr = np.arange(12, dtype=float).reshape(3, 4)
    assert stable_sum(arr) == 66.0
    # bitwise math.fsum of the floats in C order, for a flipped,
    # non-contiguous view and for a plain list
    rng = np.random.default_rng(3)
    big = rng.uniform(-1.0, 1.0, (6, 8)) * 10.0 ** rng.integers(-12, 12, (6, 8))
    view = np.flip(big, 0)[:, ::3]
    assert not view.flags.c_contiguous
    floats = [float(view[i, j]) for i in range(view.shape[0]) for j in range(view.shape[1])]
    assert stable_sum(view) == math.fsum(floats)
    assert stable_sum(floats) == math.fsum(floats)


SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 2.0**-1000, -2.0**-1000,
           2.0**900, 2.0**1000, -2.0**1000, 2.0**1023, 1e16, -1e16, 1.0,
           math.inf, -math.inf, math.nan]


@st.composite
def _float_arrays(draw):
    """Float vectors: hypothesis's own floats, or up to 20 000 drawn by
    numpy across an exponent window, cancelling in pairs, or from special
    values and signed zeros."""
    kind = draw(st.sampled_from(["floats", "window", "cancel", "special", "zeros"]))
    if kind == "floats":
        return np.array(draw(st.lists(st.floats(), max_size=40)), dtype=float)
    n = draw(st.integers(0, 20000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "special":
        return rng.choice(SPECIAL, n)
    if kind == "zeros":
        return rng.choice([0.0, -0.0], n) if draw(st.booleans()) else np.full(n, -0.0)
    lo = draw(st.integers(-1100, 1023))
    hi = min(lo + draw(st.integers(0, 200)), 1023)
    x = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, hi + 1, n))
    if kind == "cancel":
        # each value with its negative, some off by one ulp
        x = np.concatenate([x, -x * (1.0 + 2.0**-52 * rng.integers(0, 2, n))])
        x = x[rng.permutation(x.size)]
    return x


def _fsum_outcome(fn, arg):
    try:
        return fn(arg)
    except (ValueError, OverflowError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(x=_float_arrays(), layout=st.sampled_from(["array", "list", "view"]))
@example(x=np.array([]), layout="list")
@example(x=np.full(7, -0.0), layout="array")
@example(x=np.array([2.0**1000, 2.0**1000, -(2.0**1000)]), layout="list")
@example(x=np.array([math.inf, -math.inf, 1.0]), layout="array")
def test_stable_sum_is_math_fsum(x, layout):
    # bitwise the value of math.fsum over the floats in C order (signed
    # zeros and nan included), or the same exception
    if layout == "list":
        arg = x.tolist()
    elif layout == "view":
        arg = np.zeros(2 * x.size)[::-2]  # reversed and strided
        arg[...] = x
    else:
        arg = x
    floats = [float(v) for v in np.asarray(arg).flat]
    got, want = _fsum_outcome(stable_sum, arg), _fsum_outcome(math.fsum, floats)
    if isinstance(want, type):
        assert got is want
    elif math.isnan(want):
        assert math.isnan(got)
    else:
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def test_tails_finite_when_box_bound_misses_cell_edge_by_an_ulp():
    # the box bound -15 * 0.4 and the corner cell edge differ in the last bit
    lat = Lattice.covering_ball(2, 0.4, 0.0, 6.0)
    tails = build_kernel(lat, 0.25).tail_weights
    assert np.all(np.isfinite(tails))
    assert tails[0, 0] == tails[-1, -1] == tails[0, -1] == tails[-1, 0]
    assert tails[0, 0] > tails[0, 1]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_halfspace_split_on_ulp_box_face_sums_to_total(s):
    # the bottom row's lower edge lies an ulp below -6: no split is made
    # there, and the row must still count as above the threshold
    lat = Lattice.covering_ball(2, 0.4, 0.0, 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kern = build_kernel(lat, s)
        total = kern.tail_weights
        for thr in (-6.0, 6.0):
            plus, minus = kern.tail_halfspace(1, thr)
            assert np.max(np.abs(plus + minus - total) / total) < 1e-12


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tails_near_ulp_box_bound_warn_nothing(s):
    # a gap one ulp below zero is discarded without an invalid-value warning
    lat = Lattice.covering_ball(2, 0.4, 0.0, 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = build_kernel(lat, s).tail_weights
    assert np.all(np.isfinite(tails))


# 1D tails on a dyadic spacing, frozen bit for bit: cells 0 and 4 of the
# whole-complement tail, then plus[2] and minus[7] at thr = 0.13, and
# plus[0] and minus[9] at thr = -3.3
TAIL_1D_HEX = {
    0.25: ("0x1.a4ca1a1615b09p+1", "0x1.4577207644374p+0", "0x1.088af74be05b8p-1",
           "0x1.088af74be05b8p-1", "0x1.3da3a25119487p+1", "0x1.a06774dfb76a0p-2"),
    0.5: ("0x1.0d7c74108520bp+1", "0x1.9f323ecbf984cp-2", "0x1.1178e8227e47cp-3",
          "0x1.1178e8227e47cp-3", "0x1.c86442f7bfeecp+0", "0x1.52b48c7347377p-4"),
    0.75: ("0x1.59764040a8217p+1", "0x1.6252604fad906p-3", "0x1.7913dc8030380p-5",
           "0x1.7913dc8030380p-5", "0x1.435a0f338b311p+1", "0x1.6f644e45bd9abp-6"),
}


@pytest.mark.parametrize("s", sorted(TAIL_1D_HEX))
def test_tail_1d_bitwise_on_dyadic_spacing(s):
    lat = Lattice(1, 0.5, (-4,), (6,))
    t = K.cell_tail_halfspace(lat, s, 0, -np.inf)[0]
    p, m = K.cell_tail_halfspace(lat, s, 0, 0.13)
    p2, m2 = K.cell_tail_halfspace(lat, s, 0, -3.3)
    got = (t[0], t[4], p[2], m[7], p2[0], m2[9])
    assert [float(v).hex() for v in got] == list(TAIL_1D_HEX[s])


@pytest.mark.parametrize("s", [0.25, 0.4, 0.49])
def test_tails_exact_when_box_face_misses_cell_edge_by_an_ulp(s):
    # -39 * 0.1 and the lower edge of cell 0 differ in the last bit; a gap
    # of an ulp raised to the power 1 - 2s is far from 0 near s = 1/2
    h, n, p = 0.1, 25, 1.0 - 2.0 * s
    tails = K.cell_tail_halfspace(Lattice(1, h, (-39,), (-14,)), s, 0, -np.inf)[0]
    # cell 0 against (-inf, face], which it touches, and [face + n h, inf)
    want = (h ** p + (n * h) ** p - ((n - 1) * h) ** p) / (p * 2.0 * s)
    assert tails[0] == pytest.approx(want, rel=1e-13)
    # 2D: the same integer box at h = 1 has exact gaps, and tails scale as
    # h^(2-2s)
    lo, hi = (-3, -10), (12, 2)
    t7 = K.cell_tail_halfspace(Lattice(2, 0.7, lo, hi), s, 0, -np.inf)[0]
    t1 = K.cell_tail_halfspace(Lattice(2, 1.0, lo, hi), s, 0, -np.inf)[0]
    assert np.max(np.abs(t7 - 0.7 ** (2.0 - 2.0 * s) * t1) / t7) < 1e-12
