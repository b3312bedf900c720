import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cellsets import box_bounds, from_indices, is_subset
from fraclab.energies import EnergyModel
from fraclab.kernels import build_kernel
from fraclab.lattice import (
    CellSet,
    Exterior,
    Lattice,
    ScalarField,
    ball_mask,
    psi_field,
)


# ---------------------------------------------------------------- lattice


def test_lattice_basic_geometry():
    lat = Lattice(2, 0.5, (-2, 0), (3, 4))
    assert lat.shape == (5, 4)
    assert lat.n_cells == 20
    assert lat.cell_volume == 0.25
    lo, hi = box_bounds(lat)
    assert np.allclose(lo, [-1.0, 0.0])
    assert np.allclose(hi, [1.5, 2.0])
    # centers at half-integer multiples of h, never on a coordinate plane
    assert np.allclose(lat.axis_centers(0), [-0.75, -0.25, 0.25, 0.75, 1.25])


def test_lattice_scalar_bounds_broadcast():
    lat = Lattice(2, 1.0, 0, 3)
    assert lat.lo == (0, 0) and lat.hi == (3, 3)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(dim=3, h=1.0, lo=(0, 0, 0), hi=(1, 1, 1)),
        dict(dim=1, h=0.0, lo=(0,), hi=(1,)),
        dict(dim=1, h=-1.0, lo=(0,), hi=(1,)),
        dict(dim=2, h=1.0, lo=(0, 0), hi=(0, 2)),
        dict(dim=2, h=1.0, lo=(0, 0), hi=(2,)),
    ],
)
def test_lattice_rejects_bad_input(kwargs):
    with pytest.raises(ValueError):
        Lattice(**kwargs)


def test_covering_ball_contains_ball():
    lat = Lattice.covering_ball(1, 0.4, 0.2, 1.0)
    lo, hi = box_bounds(lat)
    assert lo[0] <= 0.2 - 1.0 and hi[0] >= 0.2 + 1.0
    # smallest such box: one cell less fails on either side
    assert (lat.hi[0] - 1) * 0.4 < 1.2
    lat2 = Lattice.covering_ball(2, 1.0, (0.0, 0.0), 3.0)
    lo2, hi2 = box_bounds(lat2)
    assert np.all(lo2 <= -3.0) and np.all(hi2 >= 3.0)


def test_point_to_index_roundtrip():
    lat = Lattice(2, 0.25, (-4, -4), (4, 4))
    pts = np.stack(np.meshgrid(lat.axis_centers(0), lat.axis_centers(1),
                               indexing="ij"), axis=-1).reshape(-1, 2)
    idx = lat.point_to_index(pts)
    expect = np.stack(np.meshgrid(np.arange(-4, 4), np.arange(-4, 4),
                                  indexing="ij"), axis=-1).reshape(-1, 2)
    assert np.array_equal(idx, expect)


# ---------------------------------------------------------------- cell sets


def test_cellset_measure_is_exact_count():
    lat = Lattice(2, 0.1, (0, 0), (7, 5))
    cs = from_indices(lat, [(0, 0), (6, 4), (3, 2)])
    assert cs.count == 3
    assert cs.measure == 3 * lat.cell_volume  # exact in count


def test_cellset_set_algebra():
    lat = Lattice(1, 1.0, (0,), (6,))
    a = from_indices(lat, [(0,), (1,), (2,)])
    b = from_indices(lat, [(2,), (3,)])
    assert a.union(b).count == 4
    assert a.difference(b).count == 2
    assert a.complement().count == 3
    assert not a.disjoint(b)
    with pytest.raises(ValueError):
        a.union(CellSet.empty(Lattice(1, 1.0, (0,), (7,))))


def test_cellset_from_indices_validates():
    lat = Lattice(1, 1.0, (0,), (4,))
    with pytest.raises(ValueError):
        from_indices(lat, [(4,)])


def test_cellset_rejects_members_of_another_shape():
    lat = Lattice(2, 1.0, (0, 0), (3, 4))
    with pytest.raises(ValueError, match=re.escape("member shape (4, 3) != box shape (3, 4)")):
        CellSet(lat, np.zeros((4, 3), dtype=bool))


# ---------------------------------------------------------------- ball masks


def test_ball_mask_1d_exact_count():
    # centers -0.6 .. 1.0 step 0.4; |c - 0.2| < 1 holds for all five
    lat = Lattice(1, 0.4, (-2,), (3,))
    cs = ball_mask(lat, 0.2, 1.0)
    assert cs.count == 5
    assert cs.measure == pytest.approx(2.0, abs=0.0)


def test_ball_mask_2d_exact_count():
    lat = Lattice(2, 1.0, (-3, -3), (4, 4))
    # center on a cell center: 1 + 4 axis neighbours in, diagonals out
    cs = ball_mask(lat, (0.5, 0.5), 1.2)
    assert cs.count == 5


def test_ball_mask_requires_containment():
    lat = Lattice(1, 1.0, (0,), (4,))
    with pytest.raises(ValueError, match="pad"):
        ball_mask(lat, 2.0, 3.0)
    assert ball_mask(lat, 2.0, 0.0).count == 0
    with pytest.raises(ValueError):
        ball_mask(lat, 2.0, -1.0)


@pytest.mark.parametrize("dim, center", [
    (1, (0.5, 0.5)), (2, (0.5,)), (2, (0.5, 0.5, 99.0)), (2, [[0.5, 0.5]])])
def test_center_needs_a_scalar_or_dim_entries(dim, center):
    lat = Lattice(dim, 1.0, (-5,) * dim, (5,) * dim)
    with pytest.raises(ValueError, match=f"center must be a scalar or have {dim} entries"):
        ball_mask(lat, center, 2.0)
    with pytest.raises(ValueError, match=f"center must be a scalar or have {dim} entries"):
        Lattice.covering_ball(dim, 1.0, center, 2.0)


@settings(deadline=None, max_examples=40)
@given(
    r1=st.floats(min_value=0.1, max_value=2.0),
    r2=st.floats(min_value=0.1, max_value=2.0),
    cx=st.floats(min_value=-0.9, max_value=0.9),
)
def test_ball_mask_monotone_in_radius(r1, r2, cx):
    lat = Lattice(2, 0.25, (-16, -16), (16, 16))
    small, big = sorted((r1, r2))
    assert is_subset(ball_mask(lat, (cx, 0.0), small),
                     ball_mask(lat, (cx, 0.0), big))


# ---------------------------------------------------------------- exteriors


def test_constant_exterior():
    Exterior(-1.0, -1.0)
    with pytest.raises(ValueError):
        Exterior(1.5, 1.5)
    with pytest.raises(ValueError):
        Exterior(1.0, -1.5)


def test_constant_exterior_has_one_form():
    # equal values drop the axis and threshold: constant data reads the
    # total tail, never a split
    assert Exterior(0.3, 0.3, 1, 0.2) == Exterior(0.3, 0.3)
    # an infinite threshold leaves one side empty: the other side's value
    # is constant data
    assert Exterior(1, -1, 0, np.inf) == Exterior(-1, -1)
    assert Exterior(0.3, -0.7, 1, -np.inf) == Exterior(0.3, 0.3)
    assert Exterior(1, -1, 1, -np.inf) == Exterior(1, 1)
    lat = Lattice(2, 0.5, (-4, -4), (4, 4))
    kern = build_kernel(lat, 0.5)
    u = ScalarField(lat, np.zeros(lat.shape), Exterior(0.3, 0.3, 1, 0.2))
    assert np.array_equal(EnergyModel(kern, None, u).t0, kern.tail_weights)


def test_halfspace_exterior_sign_convention():
    # u = +1 on y[axis] >= threshold: lowering the threshold turns exterior
    # cells to +1, so a field of +1s loses seminorm and a field of -1s gains
    lat = Lattice(2, 0.5, (-4, -4), (4, 4))
    kern = build_kernel(lat, 0.5)
    for axis in (0, 1):
        for sign, trend in ((1.0, -1.0), (-1.0, 1.0)):
            ks = []
            for threshold in (3.0, 0.0, -3.0):
                u = ScalarField(lat, np.full(lat.shape, sign),
                                Exterior(1.0, -1.0, axis, threshold))
                model = EnergyModel(kern, None, u)
                ks.append(model.seminorm(u.values))
            assert all(trend * (b - a) > 0.0 for a, b in zip(ks, ks[1:]))


def test_padded_box_lookup_and_fill():
    # fixed samples are cells of an enclosing box: the field on that box
    # checks their shape and range, the constant beyond checks its fill
    outer = Lattice(1, 1.0, (-2,), (2,))
    vals = np.array([-1.0, -0.5, 0.5, 1.0])
    u = ScalarField(outer, vals, Exterior(1.0, 1.0))
    assert np.array_equal(u.values, vals)
    with pytest.raises(ValueError, match="shape"):
        ScalarField(outer, vals[:3], Exterior(1.0, 1.0))
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        ScalarField(outer, vals * 3.0, Exterior(1.0, 1.0))
    with pytest.raises(ValueError, match=r"\[-1, 1\]"):
        Exterior(-1.5, -1.5)


def test_halfspace_exterior_rejects_bad_input():
    lat1 = Lattice(1, 1.0, (-2,), (2,))
    with pytest.raises(ValueError, match="NaN"):
        Exterior(1.0, -1.0, 0, float("nan"))
    with pytest.raises(ValueError, match="axis"):
        Exterior(1.0, -1.0, -1, 0.0)
    with pytest.raises(ValueError, match="axis 1 out of range"):
        ScalarField(lat1, np.zeros(lat1.shape), Exterior(1.0, -1.0, 1, 0.0))
    lat2 = Lattice(2, 1.0, (-2, -2), (2, 2))
    ScalarField(lat2, np.zeros(lat2.shape), Exterior(1.0, -1.0, 1, 0.0))
    # infinite thresholds stay legal: all of the exterior on one side
    for thr in (-np.inf, np.inf):
        ScalarField(lat1, np.zeros(lat1.shape), Exterior(1.0, -1.0, 0, thr))


# ---------------------------------------------------------------- fields


def test_scalar_field_validation():
    lat = Lattice(1, 1.0, (0,), (2,))
    with pytest.raises(ValueError):
        ScalarField(lat, np.array([0.0, 1.5]), Exterior(1.0, 1.0))
    with pytest.raises(ValueError):
        ScalarField(lat, np.zeros(3), Exterior(1.0, 1.0))
    f = ScalarField(lat, np.zeros(2), Exterior(1.0, 1.0))
    with pytest.raises(ValueError):
        f.values[0] = 1.0  # frozen storage


# ---------------------------------------------------------------- psi profile


def test_psi_field_profile():
    R = 4.0
    lat = Lattice.covering_ball(1, 0.25, 0.0, R + 2.0)
    f = psi_field(lat, R)
    x = lat.axis_centers(0)
    vals = f.values
    assert np.all(vals[np.abs(x) <= R + 1.0] == -1.0)
    assert np.all(vals[np.abs(x) >= R + 2.0] == 1.0)
    ramp = (np.abs(x) > R + 1.0) & (np.abs(x) < R + 2.0)
    assert np.allclose(vals[ramp], -1.0 + 2.0 * (np.abs(x[ramp]) - R - 1.0))
    assert f.exterior == Exterior(1.0, 1.0)


def _one_cell_short(lat: Lattice, axis: int, side: str) -> tuple[Lattice, str]:
    """The box less one cell on one side, and the pad message it earns."""
    lo, hi = list(lat.lo), list(lat.hi)
    below, above = [0] * lat.dim, [0] * lat.dim
    if side == "below":
        lo[axis] += 1
        below[axis] = 1
    else:
        hi[axis] -= 1
        above[axis] = 1
    pad = f"pad indices by {below} below and {above} above"
    return Lattice(lat.dim, lat.h, lo, hi), re.escape(pad)


@settings(deadline=None, max_examples=200)
@given(
    dim=st.sampled_from((1, 2)),
    h=st.floats(min_value=0.05, max_value=2.0),
    center=st.floats(min_value=-3.0, max_value=3.0),
    R=st.floats(min_value=0.1, max_value=30.0),
    axis=st.integers(min_value=0, max_value=1),
    side=st.sampled_from(("below", "above")),
)
@example(dim=1, h=0.3, center=0.0, R=3.4, axis=0, side="above")
@example(dim=2, h=0.1, center=0.0, R=0.4, axis=1, side="below")
def test_covering_box_is_the_room_a_ball_needs(dim, h, center, R, axis, side):
    # one room rule: ball_mask and psi_field accept the box covering_ball
    # builds for B_{R+2}, and a box one cell short makes both name a pad of
    # 1; R = 3.4 at h = 0.3 puts the ball edge on 18 * 0.3 = 5.3999999999999995
    axis = min(axis, dim - 1)
    for c, check in ((center, lambda lat: ball_mask(lat, center, R + 2.0)),
                     (0.0, lambda lat: psi_field(lat, R))):
        lat = Lattice.covering_ball(dim, h, c, R + 2.0)
        check(lat)
        short, pad = _one_cell_short(lat, axis, side)
        with pytest.raises(ValueError, match=pad):
            check(short)


def test_psi_field_requires_room():
    lat = Lattice(1, 1.0, (-3,), (3,))
    with pytest.raises(ValueError):
        psi_field(lat, 4.0)
    with pytest.raises(ValueError):
        psi_field(lat, 0.0)
