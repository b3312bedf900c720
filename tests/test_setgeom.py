import math

import numpy as np
import pytest

from fraclab.kernels import build_kernel, stable_sum
from fraclab.lattice import CellSet, Lattice, ball_mask
from fraclab.setgeom import (
    L_interaction,
    check_gmt,
    check_gmt_local,
    check_loomis_whitney,
    ell_scale,
    project_measure,
    random_cellset,
    random_disjoint_pair,
    random_equal_count_set,
    sobolev_integrated,
    sobolev_set_bound,
)

LAT1 = Lattice(1, 1.0, (-8,), (8,))
LAT2 = Lattice(2, 1.0, (0, 0), (32, 32))
QLAT = Lattice(2, 1.0, (0, 0), (16, 16))


@pytest.fixture(scope="module")
def kern1():
    return build_kernel(LAT1, 0.25)


@pytest.fixture(scope="module")
def kern2():
    return build_kernel(LAT2, 0.25)


@pytest.fixture(scope="module")
def qkern75():
    return build_kernel(QLAT, 0.75)


@pytest.fixture(scope="module")
def qkern50():
    return build_kernel(QLAT, 0.5)


# -- interaction mass ------------------------------------------------------


def test_pair_cells_match_closed_form(kern1):
    # unit cells [0,1) and [2,3): double integral of |x-y|^{-3/2}
    A = CellSet.from_indices(LAT1, [(0,)])
    D = CellSet.from_indices(LAT1, [(2,)])
    oracle = 8.0 * math.sqrt(2.0) - 4.0 * math.sqrt(3.0) - 4.0
    assert L_interaction(kern1, A, D) == pytest.approx(oracle, rel=1e-12)


def test_interaction_symmetric_bitwise(kern1):
    A = CellSet.from_indices(LAT1, [(0,), (1,), (-3,)])
    D = CellSet.from_indices(LAT1, [(3,), (4,), (6,)])
    assert L_interaction(kern1, A, D) == L_interaction(kern1, D, A)


def test_interaction_additive(kern1):
    A = CellSet.from_indices(LAT1, [(0,), (1,)])
    D1 = CellSet.from_indices(LAT1, [(3,), (4,)])
    D2 = CellSet.from_indices(LAT1, [(6,), (-5,)])
    whole = L_interaction(kern1, A, D1.union(D2))
    split = L_interaction(kern1, A, D1) + L_interaction(kern1, A, D2)
    assert whole == pytest.approx(split, rel=1e-13)


def test_interaction_empty_and_errors(kern1, kern2):
    A = CellSet.empty(LAT1)
    D = CellSet.from_indices(LAT1, [(3,)])
    assert L_interaction(kern1, A, D) == 0.0
    with pytest.raises(ValueError, match="overlap"):
        L_interaction(kern1, D, D)
    with pytest.raises(ValueError, match="lattice"):
        L_interaction(kern2, A, D)


# -- projections and Loomis-Whitney ----------------------------------------


def test_project_measure_box():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    box = CellSet.from_indices(lat, [(i, j) for i in range(2) for j in range(3)])
    assert project_measure(box, 0) == 3.0
    assert project_measure(box, 1) == 2.0
    half = Lattice(2, 0.5, (0, 0), (8, 8))
    boxh = CellSet.from_indices(half, [(i, j) for i in range(2) for j in range(3)])
    assert project_measure(boxh, 0) == 1.5
    assert project_measure(CellSet.empty(lat), 0) == 0.0
    with pytest.raises(ValueError, match="axis"):
        project_measure(box, 2)


def test_project_measure_monotone_and_1d():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    small = CellSet.from_indices(lat, [(0, 0), (1, 1)])
    big = small.union(CellSet.from_indices(lat, [(4, 5)]))
    for axis in (0, 1):
        assert project_measure(small, axis) <= project_measure(big, axis)
    line = Lattice(1, 0.25, (0,), (8,))
    assert project_measure(CellSet.from_indices(line, [(2,), (5,)]), 0) == 1.0
    assert project_measure(CellSet.empty(line), 0) == 0.0


def test_loomis_whitney_box_equality():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    box = CellSet.from_indices(lat, [(i, j) for i in range(2) for j in range(3)])
    rep = check_loomis_whitney(box)
    assert rep.cell_count == 6
    assert rep.shadow_counts == (3, 2)
    assert rep.shadow_product == 6
    assert rep.product_holds and 6 ** 1 == rep.shadow_product
    assert rep.max_axis == 0
    assert rep.axis_bound_holds
    assert bool(rep)


def test_loomis_whitney_l_shape():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    ell = CellSet.from_indices(lat, [(0, 0), (1, 0), (0, 1)])
    rep = check_loomis_whitney(ell)
    assert rep.shadow_counts == (2, 2)
    assert rep.cell_count == 3 and rep.shadow_product == 4
    assert rep.product_holds


def test_loomis_whitney_random_sets():
    lat = Lattice(2, 1.0, (0, 0), (20, 20))
    rng = np.random.default_rng(42)
    for _ in range(100):
        cells = random_cellset(lat, rng)
        rep = check_loomis_whitney(cells)
        assert rep.cell_count <= 400
        assert rep.product_holds
        assert rep.axis_bound_holds


def test_loomis_whitney_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        check_loomis_whitney(CellSet.empty(LAT2))


# -- scale factor -----------------------------------------------------------


def test_ell_scale_values():
    assert ell_scale(16.0, 0.25, 2) == pytest.approx(2.0, rel=1e-15)
    assert ell_scale(math.e, 0.5, 1) == pytest.approx(1.0, rel=1e-15)
    assert ell_scale(123.0, 0.75, 2) == 1.0
    assert ell_scale(0.5, 0.75, 1) == 1.0


def test_ell_scale_domain():
    with pytest.raises(ValueError, match="positive"):
        ell_scale(0.0, 0.25, 1)
    with pytest.raises(ValueError, match="measure > 1"):
        ell_scale(1.0, 0.5, 1)


# -- global regime check ------------------------------------------------------


def test_gmt_empty_b_subhalf(kern2):
    mask = np.zeros((32, 32), dtype=bool)
    mask[8:16, 8:16] = True
    A = CellSet(LAT2, mask)
    rep = check_gmt(kern2, A, CellSet.empty(LAT2), c_probe=0.05)
    assert rep.regime == "small_b" and rep.s_branch == "subhalf"
    assert not rep.b_floored
    assert rep.bound == pytest.approx(64.0 ** 0.75, rel=1e-12)
    assert rep.ratio == pytest.approx(27.15996153238592, rel=1e-9)
    assert rep.ratio > 0.0
    blob = rep.to_json()
    assert blob["measure_a"] == 64.0 and blob["measure_d"] == 960.0


def test_gmt_refinement_stable(kern2):
    # same physical square at two lattice resolutions
    mask = np.zeros((32, 32), dtype=bool)
    mask[8:16, 8:16] = True
    coarse = check_gmt(kern2, CellSet(LAT2, mask), CellSet.empty(LAT2), 0.05)
    fine_lat = Lattice(2, 0.5, (0, 0), (64, 64))
    fine_kern = build_kernel(fine_lat, 0.25)
    fmask = np.zeros((64, 64), dtype=bool)
    fmask[16:32, 16:32] = True
    fine = check_gmt(fine_kern, CellSet(fine_lat, fmask), CellSet.empty(fine_lat), 0.05)
    assert fine.measure_a == coarse.measure_a
    assert abs(fine.ratio - coarse.ratio) / coarse.ratio < 0.05


def test_gmt_large_b_regime(kern2):
    amask = np.zeros((32, 32), dtype=bool)
    amask[2:6, 2:6] = True
    bmask = np.zeros((32, 32), dtype=bool)
    bmask[10:20, 10:20] = True
    rep = check_gmt(kern2, CellSet(LAT2, amask), CellSet(LAT2, bmask), c_probe=0.05)
    assert rep.regime == "large_b"
    a, b = rep.measure_a, rep.measure_b
    assert rep.bound == pytest.approx(a ** 0.75 * (b / a) ** (-0.25), rel=1e-12)
    assert rep.ratio > 0.0


def test_gmt_floored_branches(qkern50, qkern75):
    amask = np.zeros((16, 16), dtype=bool)
    amask[4:12, 4:12] = True
    A = CellSet(QLAT, amask)
    B = CellSet.empty(QLAT)
    half = check_gmt(qkern50, A, B, 0.05)
    assert half.s_branch == "half" and half.b_floored
    assert half.bound == pytest.approx(64.0 ** 0.5 * math.log(64.0), rel=1e-12)
    sup = check_gmt(qkern75, A, B, 0.05)
    assert sup.s_branch == "superhalf" and sup.b_floored
    assert sup.bound == pytest.approx(64.0 ** 0.25 * (1.0 / 64.0) ** (-0.5), rel=1e-12)
    assert half.ratio > 0.0 and sup.ratio > 0.0


def test_gmt_errors(kern2):
    A = CellSet.from_indices(LAT2, [(1, 1)])
    with pytest.raises(ValueError, match="positive measure"):
        check_gmt(kern2, CellSet.empty(LAT2), A, 0.05)
    with pytest.raises(ValueError, match="overlap"):
        check_gmt(kern2, A, A, 0.05)
    with pytest.raises(ValueError, match="c_probe"):
        check_gmt(kern2, A, CellSet.empty(LAT2), 1.5)


# -- localized regime check ---------------------------------------------------


def test_gmt_local_column_case(qkern75):
    Q = CellSet.full(QLAT)
    amask = np.zeros((16, 16), dtype=bool)
    amask[:7, :] = True
    dmask = np.zeros((16, 16), dtype=bool)
    dmask[9:, :] = True
    A, D = CellSet(QLAT, amask), CellSet(QLAT, dmask)
    rep = check_gmt_local(qkern75, A, D, Q, 0.25)
    assert rep.measure_b == 32.0 and not rep.b_floored
    assert rep.ratio == pytest.approx(0.70435607520567, rel=1e-9)
    # same multiset of weights as an explicit pair loop
    brute = stable_sum(
        [qkern75.weight(tuple(i - j)) for i in np.argwhere(amask) for j in np.argwhere(dmask)]
    )
    assert rep.interaction == brute


def test_gmt_local_empty_gap_floored(qkern75):
    Q = CellSet.full(QLAT)
    amask = np.zeros((16, 16), dtype=bool)
    amask[:8, :] = True
    A = CellSet(QLAT, amask)
    D = CellSet(QLAT, ~amask)
    rep = check_gmt_local(qkern75, A, D, Q, 0.5)
    assert rep.b_floored and rep.measure_b == 0.0
    assert math.isfinite(rep.bound) and rep.ratio > 0.0


def test_gmt_local_narrow_gap_bound_grows(qkern75):
    Q = CellSet.full(QLAT)
    ratios = []
    for gap in (4, 2, 1):
        amask = np.zeros((16, 16), dtype=bool)
        amask[: (16 - gap) // 2, :] = True
        dmask = np.zeros((16, 16), dtype=bool)
        dmask[(16 - gap) // 2 + gap :, :] = True
        rep = check_gmt_local(qkern75, CellSet(QLAT, amask), CellSet(QLAT, dmask), Q, 0.3)
        assert rep.ratio > 0.0
        ratios.append(rep.ratio)
    assert all(math.isfinite(r) for r in ratios)


def test_gmt_local_errors(qkern75, qkern50, kern2):
    Q = CellSet.full(QLAT)
    amask = np.zeros((16, 16), dtype=bool)
    amask[:7, :] = True
    dmask = np.zeros((16, 16), dtype=bool)
    dmask[9:, :] = True
    A, D = CellSet(QLAT, amask), CellSet(QLAT, dmask)
    lowkern = build_kernel(QLAT, 0.25)
    with pytest.raises(ValueError, match="s in"):
        check_gmt_local(lowkern, A, D, Q, 0.25)
    with pytest.raises(ValueError, match="sigma"):
        check_gmt_local(qkern75, A, D, Q, 0.8)
    with pytest.raises(ValueError, match="set D"):
        check_gmt_local(qkern75, A, CellSet.from_indices(QLAT, [(9, 0)]), Q, 0.25)
    with pytest.raises(ValueError, match="set A"):
        check_gmt_local(qkern75, CellSet.from_indices(QLAT, [(0, 0)]), D, Q, 0.25)
    with pytest.raises(ValueError, match="overlap"):
        check_gmt_local(qkern75, A, A, Q, 0.25)
    corner = CellSet.from_indices(QLAT, [(0, 0)])
    with pytest.raises(ValueError, match="contained"):
        check_gmt_local(qkern75, A, D, A.union(D).difference(corner), 0.25)


# -- complement integral bound -------------------------------------------------


@pytest.fixture(scope="module")
def sob():
    lat = Lattice.covering_ball(1, 0.4, (0.2,), 12.0)
    return lat, build_kernel(lat, 0.25)


def test_sobolev_interval_analytic(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    assert E.measure == 2.0
    rep = sobolev_set_bound(kern, E, (0,))
    # continuum value 2 * int_1^inf y^{-3/2} dy = 4
    assert rep.lhs == pytest.approx(4.011264678762314, rel=1e-9)
    assert abs(rep.lhs - 4.0) / 4.0 < 0.01
    assert rep.constant == pytest.approx(rep.lhs * 2.0 ** 0.5, rel=1e-12)


def test_sobolev_complement_monotone(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    bigger = ball_mask(lat, (0.2,), 2.0)
    assert sobolev_set_bound(kern, E, (0,)).lhs >= sobolev_set_bound(kern, bigger, (0,)).lhs


def test_sobolev_integrated_consistent(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    F = CellSet.from_indices(lat, [(0,), (1,)])
    rep = sobolev_integrated(kern, E, F)
    a = sobolev_set_bound(kern, E, (0,)).lhs
    b = sobolev_set_bound(kern, E, (1,)).lhs
    assert rep.lhs == stable_sum([a, b]) * 0.4
    assert rep.constant == pytest.approx(rep.lhs * 2.0 ** 0.5 / 0.8, rel=1e-12)


def test_sobolev_ball_beats_random_sets(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    ball_const = sobolev_set_bound(kern, E, (0,)).constant
    rng = np.random.default_rng(7)
    best = math.inf
    for _ in range(20):
        S = random_equal_count_set(lat, rng, E.count)
        for i in np.argwhere(S.members)[:, 0]:
            c = sobolev_set_bound(kern, S, (int(i) + lat.lo[0],)).constant
            best = min(best, c)
    assert ball_const <= 1.05 * best


def test_sobolev_errors(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    with pytest.raises(ValueError, match="positive measure"):
        sobolev_set_bound(kern, CellSet.empty(lat), (0,))
    with pytest.raises(ValueError, match="outside"):
        sobolev_set_bound(kern, E, (10_000,))
    with pytest.raises(ValueError, match="positive measure"):
        sobolev_integrated(kern, E, CellSet.empty(lat))


# -- corpora -------------------------------------------------------------------


def test_random_generators_deterministic():
    a1 = random_cellset(LAT2, np.random.default_rng(5))
    a2 = random_cellset(LAT2, np.random.default_rng(5))
    assert np.array_equal(a1.members, a2.members)
    p1 = random_disjoint_pair(LAT2, np.random.default_rng(9), 0.05)
    p2 = random_disjoint_pair(LAT2, np.random.default_rng(9), 0.05)
    assert np.array_equal(p1[0].members, p2[0].members)
    assert np.array_equal(p1[1].members, p2[1].members)


def test_random_pair_contract():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A, B = random_disjoint_pair(LAT2, rng, 0.05)
        assert A.count > 0
        assert A.disjoint(B)
        assert B.measure <= 0.05 * A.measure


def test_random_equal_count():
    rng = np.random.default_rng(3)
    S = random_equal_count_set(LAT2, rng, 37)
    assert S.count == 37
    with pytest.raises(ValueError, match="count"):
        random_equal_count_set(LAT2, rng, 0)
