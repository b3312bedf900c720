import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab.kernels as K
from fraclab.kernels import (
    KernelTable,
    build_kernel,
    far_weight,
    kernel_cache_path,
    load_kernel,
    pair_weight_collocation,
    pair_weight_exact,
    save_kernel,
    stable_sum,
)
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
QUADRANT_12 = {0.25: 1.4682544332159142, 0.5: 0.38196601125010466,
               0.75: 0.14032628950369448}
STRIP_073 = {0.25: 1.2898417130441294, 0.5: 1.0774337054423759,
             0.75: 0.9637136783533125}
BFULL = {0.25: 2.3962804694711844, 0.5: 2.0, 0.75: 1.7480383695280799}


# ------------------------------------------------------------- pair weights


def test_pair_1d_closed_forms():
    # int_0^1 int_1^2 |x-y|^(-3/2): double antiderivative gives 8 - 4 sqrt(2)
    assert pair_weight_exact(1, 1.0, 0.25, (1,)) \
        == pytest.approx(8.0 - 4.0 * math.sqrt(2.0), rel=1e-15)
    # s = 1/2, offset 2: log form, int = ln(4/3)
    assert pair_weight_exact(1, 1.0, 0.5, (2,)) \
        == pytest.approx(math.log(4.0 / 3.0), rel=1e-14)
    assert pair_weight_exact(1, 1.0, 0.3, (0,)) == 0.0


def test_pair_scaling_in_h():
    # w(h) = h^(dim - 2s) w(1) at fixed index offset
    s = 0.3
    w1 = pair_weight_exact(1, 1.0, s, (3,))
    w2 = pair_weight_exact(1, 0.5, s, (3,))
    assert w2 == pytest.approx(0.5 ** (1 - 2 * s) * w1, rel=1e-13)
    v1 = pair_weight_exact(2, 1.0, s, (1, 2))
    v2 = pair_weight_exact(2, 0.5, s, (1, 2))
    assert v2 == pytest.approx(0.5 ** (2 - 2 * s) * v1, rel=1e-9)


def test_pair_1d_divergent_raises():
    for s in (0.5, 0.75):
        with pytest.raises(ValueError, match="diverges"):
            pair_weight_exact(1, 1.0, s, (1,))


@pytest.mark.parametrize("key", sorted(PAIR_2D))
def test_pair_2d_matches_brute_force(key):
    s, off = key
    got = pair_weight_exact(2, 1.0, s, off, tol=1e-9)
    rel = 5e-8 if off == (0, 1) else 1e-12
    assert got == pytest.approx(PAIR_2D[key], rel=rel)


def test_pair_2d_edge_touching_closed_half_matches_brute_force():
    got = pair_weight_exact(2, 1.0, 0.25, (0, 1), tol=1e-9)
    assert got == pytest.approx(PAIR_2D[(0.25, (0, 1))], rel=1e-12)


def test_pair_2d_edge_touching_just_below_half():
    # the singular half is closed-form, so the panel quadrature that is
    # left converges without reaching max_panels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pair_weight_exact(2, 0.7, 0.45, (0, 1))
    assert got == pytest.approx(13.090341733874, rel=1e-9)


def test_pair_2d_offset_canonicalization():
    s = 0.25
    ref = pair_weight_exact(2, 1.0, s, (1, 2))
    for off in ((2, 1), (-1, 2), (1, -2), (-2, -1)):
        assert pair_weight_exact(2, 1.0, s, off) == pytest.approx(ref, rel=1e-12)


def test_pair_2d_divergent_raises():
    with pytest.raises(ValueError, match="diverges"):
        pair_weight_exact(2, 1.0, 0.5, (0, 1))
    # corner-touching converges for every s
    assert pair_weight_exact(2, 1.0, 0.9, (1, 1)) > 0


def test_collocation_values():
    # 1D, s=1/2, offset 1: h * [(h/2)^-1 - (3h/2)^-1] / 1 = 4/3 at h=1
    assert pair_weight_collocation(1, 1.0, 0.5, (1,)) \
        == pytest.approx(4.0 / 3.0, rel=1e-14)
    # agrees with the exact integral far away (1D, 2D)
    for dim, off in ((1, (9,)), (2, (6, 7))):
        w_sl = pair_weight_collocation(dim, 0.5, 0.35, off)
        w_ex = pair_weight_exact(dim, 0.5, 0.35, off)
        assert w_sl == pytest.approx(w_ex, rel=5e-3)


def test_far_weight_values():
    assert far_weight(1, 1.0, 0.25, (100,)) == pytest.approx(1e-3, rel=1e-14)
    assert far_weight(2, 2.0, 0.5, (3, 4)) \
        == pytest.approx(2.0 ** 4 * 10.0 ** -3.0, rel=1e-14)
    assert far_weight(2, 1.0, 0.5, (0, 0)) == 0.0


# ------------------------------------------------------------- build + table


@pytest.fixture(scope="module")
def kern1d():
    return build_kernel(Lattice(1, 0.5, (-8,), (8,)), 0.25, near_radius=4)


@pytest.fixture(scope="module")
def kern2d():
    return build_kernel(Lattice(2, 1.0, (0, 0), (6, 5)), 0.75, near_radius=3)


def test_build_kernel_validation():
    lat = Lattice(1, 1.0, (0,), (4,))
    for bad_s in (0.0, 1.0, -0.2, 2.0):
        with pytest.raises(ValueError, match="exponent"):
            build_kernel(lat, bad_s)
    with pytest.raises(ValueError, match="near_radius"):
        build_kernel(lat, 0.5, near_radius=1)
    with pytest.raises(ValueError, match="quad_tol"):
        build_kernel(lat, 0.5, quad_tol=0.0)


def test_weight_lookup_consistency(kern1d, kern2d):
    # dense table entries match weight(); near block is exact, far is midpoint
    e0 = kern1d.lattice.shape[0]
    for d in (-7, -3, -1, 0, 2, 5):
        assert kern1d.table[e0 - 1 + d] == kern1d.weight((d,))
    assert kern1d.weight((2,)) == pytest.approx(
        pair_weight_exact(1, 0.5, 0.25, (2,)), rel=1e-12)
    assert kern1d.weight((7,)) == far_weight(1, 0.5, 0.25, (7,))

    e0, e1 = kern2d.lattice.shape
    for off in ((0, 1), (2, -1), (-3, 3), (5, 4), (0, 0)):
        assert kern2d.table[e0 - 1 + off[0], e1 - 1 + off[1]] \
            == kern2d.weight(off)
    assert kern2d.weight((0, 1)) == pytest.approx(
        pair_weight_collocation(2, 1.0, 0.75, (0, 1)), rel=1e-12)
    assert kern2d.weight((1, 1)) == pytest.approx(
        1.2531596633298185, rel=1e-10)


def test_weights_positive_and_zero_diagonal(kern1d, kern2d):
    for kern in (kern1d, kern2d):
        assert all(w > 0 for w in kern.near.values())
        e = [n - 1 for n in kern.lattice.shape]
        assert kern.table[tuple(e)] == 0.0
        off_diag = kern.table.copy()
        off_diag[tuple(e)] = np.inf
        assert np.all(off_diag > 0)


@settings(deadline=None, max_examples=60)
@given(d0=st.integers(min_value=-7, max_value=7),
       d1=st.integers(min_value=-7, max_value=7))
def test_weight_symmetry_2d(d0, d1):
    kern = _SYM_KERN
    w = kern.weight((d0, d1))
    assert kern.weight((-d0, -d1)) == w
    assert kern.weight((d1, d0)) == w
    assert kern.weight((-d0, d1)) == w
    if (d0, d1) != (0, 0):
        assert w > 0


_SYM_KERN = build_kernel(Lattice(2, 0.7, (0, 0), (8, 8)), 0.45, near_radius=3)


def test_table_for_extents_matches_and_memoizes(kern1d):
    arr = kern1d.table_for_extents((4,))
    assert arr.shape == (7,)
    for d in range(-3, 4):
        assert arr[3 + d] == kern1d.weight((d,))
    assert kern1d.table_for_extents((4,)) is arr


def test_switch_gap_decays_quadratically():
    lat = Lattice(1, 1.0, (0,), (24,))
    gaps = {r: build_kernel(lat, 0.5, near_radius=r).switch_gap()
            for r in (2, 4, 8)}
    assert gaps[2] == pytest.approx(0.1507, rel=1e-2)
    # midpoint-rule truncation: halving resolution quarters the gap
    assert gaps[2] / gaps[4] == pytest.approx(4.0, rel=0.2)
    assert gaps[4] / gaps[8] == pytest.approx(4.0, rel=0.1)
    # explicit truncation bound, 2 alpha (alpha+1) / 24 R^2 with slack
    for r, g in gaps.items():
        assert g < 2.0 * 2.0 * 3.0 / 24.0 / r**2 * 1.5


def test_switch_gap_2d_bound(kern2d):
    g = kern2d.switch_gap()
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


def test_tail_primitives_match_brute_force():
    for s, ref in QUADRANT_12.items():
        assert K.quadrant_tail(1.0, 2.0, s) == pytest.approx(ref, rel=1e-9)
        assert K.quadrant_fast(1.0, 2.0, s) == pytest.approx(ref, rel=1e-9)
        assert K.quadrant_fast(2.0, 1.0, s) == pytest.approx(ref, rel=1e-9)
    for s, ref in STRIP_073.items():
        assert K.strip_fast(0.7, -0.3, 1.1, s) == pytest.approx(ref, rel=1e-9)
    for s, ref in BFULL.items():
        assert K._b_full(s) == pytest.approx(ref, rel=1e-14)


def _point_tail_2d(cx, cy, s, bounds):
    """Per-point integral of the kernel over the complement of the box
    [X0,X1]x[Y0,Y1] from the Gauss-Jacobi quadrant; (cx, cy) strictly
    inside."""
    X0, X1, Y0, Y1 = bounds
    cx, cy = np.broadcast_arrays(np.asarray(cx, float), np.asarray(cy, float))
    dL, dR = cx - X0, X1 - cx
    dB, dT = cy - Y0, Y1 - cy
    total = K.halfplane_tail(dL, s) + K.halfplane_tail(dR, s)
    for d in (dT, dB):
        total = total + (K.halfplane_tail(d, s)
                         - K.quadrant_tail(dL, d, s) - K.quadrant_tail(dR, d, s))
    return total


def test_tail_2d_interior_cell_against_quadrature():
    lat = Lattice(2, 1.0, (0, 0), (4, 3))
    bounds = (0.0, 4.0, 0.0, 3.0)
    for s in (0.25, 0.75):
        tails = build_kernel(lat, s).tail_weights
        ref = K.adaptive_rect_quad(
            lambda X, Y: _point_tail_2d(X, Y, s, bounds),
            (1.0, 2.0, 1.0, 2.0), 1e-10, max_panels=40_000)
        assert tails[1, 1] == pytest.approx(ref, rel=1e-9)


def test_tail_2d_refinement_identity():
    # subcells at h/2 against the same box must sum to the parent tail:
    # both sides are the same double integral
    coarse = Lattice(2, 1.0, (0, 0), (4, 3))
    fine = Lattice(2, 0.5, (0, 0), (8, 6))
    for s in (0.25, 0.75):
        tc = K.cell_tail_weights(coarse, s)
        tf = K.cell_tail_weights(fine, s)
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
        t = K.cell_tail_weights(lat, s)
        assert np.all(t > 0)
        assert np.allclose(t, t[::-1, :], rtol=1e-11)
        assert np.allclose(t, t[:, ::-1], rtol=1e-11)
        # cells nearer the boundary see more of the exterior
        mid = t.shape[0] // 2
        assert t[0, t.shape[1] // 2] > t[mid, t.shape[1] // 2]


@pytest.mark.parametrize("dim", [1, 2])
def test_tail_halfspace_additivity(dim):
    if dim == 1:
        lat = Lattice(1, 0.5, (-4,), (6,))
        axes = [0]
    else:
        lat = Lattice(2, 0.5, (-3, -2), (4, 5))
        axes = [0, 1]
    for s in (0.25, 0.5, 0.75):
        total = K.cell_tail_weights(lat, s)
        for axis in axes:
            for thr in (-0.8, 0.0, 0.13, 2.6, 9.0):
                plus, minus = K.cell_tail_halfspace(lat, s, axis, thr)
                assert np.all(plus >= -1e-13) and np.all(minus >= -1e-13)
                assert np.max(np.abs(plus + minus - total) / total) < 1e-9


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


# ------------------------------------------------------------- cache


def test_cache_roundtrip_bitwise(tmp_path):
    lat = Lattice(1, 0.5, (-4,), (4,))
    fresh = build_kernel(lat, 0.35, near_radius=3, cache_dir=tmp_path)
    path = kernel_cache_path(tmp_path, 1, 0.5, 0.35, 3, 1e-6)
    assert path.endswith(".npz") and (tmp_path / path.split("/")[-1]).exists()
    again = build_kernel(lat, 0.35, near_radius=3, cache_dir=tmp_path)
    assert again.near == fresh.near  # bitwise equal floats
    assert np.array_equal(again.table, fresh.table)


def test_cache_load_and_miss(tmp_path):
    lat = Lattice(2, 1.0, (0, 0), (4, 4))
    assert load_kernel(tmp_path, lat, 0.5) is None
    kern = build_kernel(lat, 0.5, near_radius=2)
    save_kernel(tmp_path, kern)
    back = load_kernel(tmp_path, lat, 0.5, near_radius=2)
    assert back is not None and back.near == kern.near
    # different parameters hash to different files -> miss
    assert load_kernel(tmp_path, lat, 0.25, near_radius=2) is None
    assert load_kernel(tmp_path, lat, 0.5, near_radius=4) is None
    assert load_kernel(tmp_path, lat, 0.5, near_radius=2, quad_tol=1e-8) is None


def test_cache_version_guard(tmp_path, monkeypatch):
    lat = Lattice(1, 1.0, (0,), (4,))
    kern = build_kernel(lat, 0.5, near_radius=2)
    path = save_kernel(tmp_path, kern)
    z = dict(np.load(path))
    z["format_version"] = np.array(K.CACHE_FORMAT_VERSION + 1)
    np.savez(path, **z)
    assert K._load_near(path, 1, 1.0, 0.5, 2, 1e-6) is None
    # stale payload key (h mismatch inside the file) also misses
    z["format_version"] = np.array(K.CACHE_FORMAT_VERSION)
    z["h"] = np.array(2.0)
    np.savez(path, **z)
    assert K._load_near(path, 1, 1.0, 0.5, 2, 1e-6) is None


def test_cache_corrupt_file_is_a_miss(tmp_path):
    lat = Lattice(1, 0.5, (-4,), (4,))
    fresh = build_kernel(lat, 0.35, near_radius=3, cache_dir=tmp_path)
    path = kernel_cache_path(tmp_path, 1, 0.5, 0.35, 3, 1e-6)
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) // 2)
    assert load_kernel(tmp_path, lat, 0.35, near_radius=3) is None
    again = build_kernel(lat, 0.35, near_radius=3, cache_dir=tmp_path)
    assert again.near == fresh.near  # bitwise equal floats
    # the rebuild rewrote the file whole, with no temporary left behind
    assert load_kernel(tmp_path, lat, 0.35, near_radius=3).near == fresh.near
    assert os.listdir(tmp_path) == [os.path.basename(path)]


def test_cache_hit_computes_no_near_weight(tmp_path, monkeypatch):
    lat = Lattice(2, 1.0, (0, 0), (5, 4))
    build_kernel(lat, 0.25, near_radius=2, cache_dir=tmp_path)

    def no_weight(*args):
        raise AssertionError("near weight computed on a cache hit")

    monkeypatch.setattr(K, "_near_weight", no_weight)
    hit = build_kernel(lat, 0.25, near_radius=2, cache_dir=tmp_path)
    ref = load_kernel(tmp_path, lat, 0.25, near_radius=2)
    assert hit.near == ref.near  # bitwise equal floats
    assert hit.table.tobytes() == ref.table.tobytes()


# ------------------------------------------------------------- misc


def test_stable_sum_compensated():
    vals = [1e16, 1.0, -1e16]
    assert stable_sum(vals) == 1.0
    arr = np.arange(12, dtype=float).reshape(3, 4)
    assert stable_sum(arr) == 66.0


def test_adaptive_quad_smooth_exact():
    got = K.adaptive_rect_quad(lambda x, y: x * y, (0.0, 1.0, 0.0, 2.0), 1e-12)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_adaptive_quad_truncation_warns():
    def f(x, y):
        return (x * x + y * y) ** -0.75

    with pytest.warns(RuntimeWarning, match="max_panels=40 with error estimate"):
        truncated = K.adaptive_rect_quad(f, (0.0, 1.0, 0.0, 1.0), 1e-10, max_panels=40)
    assert truncated < K.adaptive_rect_quad(f, (0.0, 1.0, 0.0, 1.0), 1e-6)


def test_adaptive_quad_non_finite_raises():
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        K.adaptive_rect_quad(lambda x, y: np.log(x - 0.5), (0.0, 1.0, 0.0, 1.0), 1e-8)


def test_tails_finite_when_box_bound_misses_cell_edge_by_an_ulp():
    # the box bound -15 * 0.4 and the corner cell edge differ in the last bit
    lat = Lattice.covering_ball(2, 0.4, 0.0, 6.0)
    tails = build_kernel(lat, 0.25).tail_weights
    assert np.all(np.isfinite(tails))
    assert tails[0, 0] == tails[-1, -1] == tails[0, -1] == tails[-1, 0]
    assert tails[0, 0] > tails[0, 1]


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_tails_near_ulp_box_bound_warn_nothing(s):
    # a gap one ulp below zero is discarded without an invalid-value warning
    lat = Lattice.covering_ball(2, 0.4, 0.0, 6.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tails = build_kernel(lat, s).tail_weights
    assert np.all(np.isfinite(tails))
