import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import next_fast_len, rfftn

from cellsets import from_indices
import fraclab
from fraclab import setgeom
from fraclab.kernels import build_kernel, stable_sum
from fraclab.lab import ExperimentConfig, run_gmt_suite
from fraclab.lattice import CellSet, Lattice, ball_mask
from fraclab.setgeom import (
    GmtReport,
    L_interaction,
    _shadow_counts,
    check_gmt,
    check_loomis_whitney,
    random_cellset,
    random_disjoint_pair,
    random_equal_count_set,
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


def _gather_pair_mass(kern, A, D):
    """Oracle: gather every one of the |A| |D| pair weights and fsum them."""
    table = kern.table_for_extents(A.lattice.shape)
    ia = np.argwhere(A.members)
    jd = np.argwhere(D.members)
    if ia.size == 0 or jd.size == 0:
        return 0.0
    center = np.array(A.lattice.shape) - 1
    parts = []
    for k in range(0, len(ia), 512):  # caps the pair-matrix footprint
        off = ia[k : k + 512, None, :] - jd[None, :, :] + center
        parts.append(table[tuple(np.moveaxis(off, -1, 0))].ravel())
    return stable_sum(np.concatenate(parts))


def _histogram_cases():
    """Seeded (lattice, A, D) pairs: D the complement of A and a small B,
    or a random set disjoint from A; 1D, 2D, and one refined 64x64 pair."""
    rng = np.random.default_rng(2024)
    cases = []
    for lat in (Lattice(1, 0.5, (-20,), (17,)), Lattice(2, 1.0, (0, 0), (32, 32))):
        for _ in range(3):
            A, B = random_disjoint_pair(lat, rng, 0.05, 8)
            cases.append((lat, A, A.union(B).complement()))
            cases.append((lat, A, random_cellset(lat, rng, 8).difference(A)))
    fine = Lattice(2, 0.5, (0, 0), (64, 64))
    A, B = random_disjoint_pair(Lattice(2, 1.0, (0, 0), (32, 32)), rng, 0.02, 8)
    up = [np.repeat(np.repeat(m.members, 2, 0), 2, 1) for m in (A, B)]
    A = CellSet(fine, up[0])
    cases.append((fine, A, A.union(CellSet(fine, up[1])).complement()))
    return cases


# -- interaction mass ------------------------------------------------------


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_histogram_pair_mass_matches_gather(s):
    # exact counts times split weights: the same correctly rounded sum
    cases = _histogram_cases()
    kernels = {lat: build_kernel(lat, s) for lat, _, _ in cases}
    for lat, A, D in cases:
        kern = kernels[lat]
        assert A.count > 0 and D.count > 0 and A.disjoint(D)
        got = L_interaction(kern, A, D)
        assert got == _gather_pair_mass(kern, A, D)
        assert got == L_interaction(kern, D, A)


def test_histogram_empty_set_is_zero(kern2):
    A = from_indices(LAT2, [(3, 4), (10, 2)])
    empty = CellSet.empty(LAT2)
    assert L_interaction(kern2, A, empty) == 0.0
    assert L_interaction(kern2, empty, A) == 0.0


def test_histogram_integrality_guard(kern2, monkeypatch):
    A = from_indices(LAT2, [(3, 4), (10, 2)])
    D = from_indices(LAT2, [(20, 20), (0, 31)])
    conv = setgeom.fftconvolve
    monkeypatch.setattr(setgeom, "fftconvolve", lambda *a: conv(*a) + 0.3)
    with pytest.raises(FloatingPointError, match="pair count"):
        L_interaction(kern2, A, D)


def test_importing_setgeom_skips_scipy_signal():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclab.__file__)))
    code = ("import sys, fraclab.setgeom; "
            "print('scipy.signal' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


def test_pair_cells_match_closed_form(kern1):
    # unit cells [0,1) and [2,3): double integral of |x-y|^{-3/2}
    A = from_indices(LAT1, [(0,)])
    D = from_indices(LAT1, [(2,)])
    oracle = 8.0 * math.sqrt(2.0) - 4.0 * math.sqrt(3.0) - 4.0
    assert L_interaction(kern1, A, D) == pytest.approx(oracle, rel=1e-12)


def test_interaction_symmetric_bitwise(kern1):
    A = from_indices(LAT1, [(0,), (1,), (-3,)])
    D = from_indices(LAT1, [(3,), (4,), (6,)])
    assert L_interaction(kern1, A, D) == L_interaction(kern1, D, A)


def test_interaction_additive(kern1):
    A = from_indices(LAT1, [(0,), (1,)])
    D1 = from_indices(LAT1, [(3,), (4,)])
    D2 = from_indices(LAT1, [(6,), (-5,)])
    whole = L_interaction(kern1, A, D1.union(D2))
    split = L_interaction(kern1, A, D1) + L_interaction(kern1, A, D2)
    assert whole == pytest.approx(split, rel=1e-13)


def test_interaction_empty_and_errors(kern1, kern2):
    A = CellSet.empty(LAT1)
    D = from_indices(LAT1, [(3,)])
    assert L_interaction(kern1, A, D) == 0.0
    with pytest.raises(ValueError, match="overlap"):
        L_interaction(kern1, D, D)
    with pytest.raises(ValueError, match="lattice"):
        L_interaction(kern2, A, D)


# -- projections and Loomis-Whitney ----------------------------------------


def _projection_measure(cells, axis):
    """Measure of the shadow along ``axis``: shadow cells times h^(dim-1)."""
    return _shadow_counts(cells)[axis] * cells.lattice.h ** (cells.lattice.dim - 1)


def test_project_measure_box():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    box = from_indices(lat, [(i, j) for i in range(2) for j in range(3)])
    assert _projection_measure(box, 0) == 3.0
    assert _projection_measure(box, 1) == 2.0
    half = Lattice(2, 0.5, (0, 0), (8, 8))
    boxh = from_indices(half, [(i, j) for i in range(2) for j in range(3)])
    assert _projection_measure(boxh, 0) == 1.5
    assert _projection_measure(CellSet.empty(lat), 0) == 0.0
    # one shadow per axis
    assert len(_shadow_counts(box)) == 2


def test_project_measure_monotone_and_1d():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    small = from_indices(lat, [(0, 0), (1, 1)])
    big = small.union(from_indices(lat, [(4, 5)]))
    for axis in (0, 1):
        assert _projection_measure(small, axis) <= _projection_measure(big, axis)
    line = Lattice(1, 0.25, (0,), (8,))
    assert _projection_measure(from_indices(line, [(2,), (5,)]), 0) == 1.0
    assert _projection_measure(CellSet.empty(line), 0) == 0.0


def test_loomis_whitney_box_equality():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    box = from_indices(lat, [(i, j) for i in range(2) for j in range(3)])
    rep = check_loomis_whitney(box)
    assert rep.cell_count == 6
    assert rep.shadow_counts == (3, 2)
    assert rep.shadow_product == 6
    assert rep.product_holds and 6 ** 1 == rep.shadow_product
    assert rep.max_axis == 0
    assert rep.axis_bound_holds
    assert rep.product_holds and rep.axis_bound_holds


def test_loomis_whitney_l_shape():
    lat = Lattice(2, 1.0, (0, 0), (8, 8))
    ell = from_indices(lat, [(0, 0), (1, 0), (0, 1)])
    rep = check_loomis_whitney(ell)
    assert rep.shadow_counts == (2, 2)
    assert rep.cell_count == 3 and rep.shadow_product == 4
    assert rep.product_holds


def test_loomis_whitney_random_sets():
    lat = Lattice(2, 1.0, (0, 0), (20, 20))
    rng = np.random.default_rng(42)
    for _ in range(100):
        cells = random_cellset(lat, rng, 8)
        rep = check_loomis_whitney(cells)
        assert rep.cell_count <= 400
        assert rep.product_holds
        assert rep.axis_bound_holds


def test_loomis_whitney_empty_rejected():
    with pytest.raises(ValueError, match="nonempty"):
        check_loomis_whitney(CellSet.empty(LAT2))


# -- global regime check ------------------------------------------------------


def test_gmt_empty_b_subhalf(kern2):
    mask = np.zeros((32, 32), dtype=bool)
    mask[8:16, 8:16] = True
    A = CellSet(LAT2, mask)
    [[rep]] = check_gmt([kern2], A, CellSet.empty(LAT2), [0.05])
    assert rep.regime == "small_b" and rep.s_branch == "subhalf"
    assert not rep.b_floored
    assert rep.bound == pytest.approx(64.0 ** 0.75, rel=1e-12)
    assert rep.ratio == pytest.approx(27.15996153238592, rel=1e-9)
    assert rep.ratio > 0.0
    assert rep.measure_a == 64.0 and rep.measure_d == 960.0


def test_gmt_refinement_stable(kern2):
    # same physical square at two lattice resolutions
    mask = np.zeros((32, 32), dtype=bool)
    mask[8:16, 8:16] = True
    [[coarse]] = check_gmt([kern2], CellSet(LAT2, mask), CellSet.empty(LAT2), [0.05])
    fine_lat = Lattice(2, 0.5, (0, 0), (64, 64))
    fine_kern = build_kernel(fine_lat, 0.25)
    fmask = np.zeros((64, 64), dtype=bool)
    fmask[16:32, 16:32] = True
    [[fine]] = check_gmt([fine_kern], CellSet(fine_lat, fmask), CellSet.empty(fine_lat),
                         [0.05])
    assert fine.measure_a == coarse.measure_a
    assert abs(fine.ratio - coarse.ratio) / coarse.ratio < 0.05


def test_gmt_large_b_regime(kern2):
    amask = np.zeros((32, 32), dtype=bool)
    amask[2:6, 2:6] = True
    bmask = np.zeros((32, 32), dtype=bool)
    bmask[10:20, 10:20] = True
    [[rep]] = check_gmt([kern2], CellSet(LAT2, amask), CellSet(LAT2, bmask), [0.05])
    assert rep.regime == "large_b"
    a, b = rep.measure_a, rep.measure_b
    assert rep.bound == pytest.approx(a ** 0.75 * (b / a) ** (-0.25), rel=1e-12)
    assert rep.ratio > 0.0


def test_gmt_floored_branches(qkern50, qkern75):
    amask = np.zeros((16, 16), dtype=bool)
    amask[4:12, 4:12] = True
    A = CellSet(QLAT, amask)
    B = CellSet.empty(QLAT)
    [[half]] = check_gmt([qkern50], A, B, [0.05])
    assert half.s_branch == "half" and half.b_floored
    assert half.bound == pytest.approx(64.0 ** 0.5 * math.log(64.0), rel=1e-12)
    [[sup]] = check_gmt([qkern75], A, B, [0.05])
    assert sup.s_branch == "superhalf" and sup.b_floored
    assert sup.bound == pytest.approx(64.0 ** 0.25 * (1.0 / 64.0) ** (-0.5), rel=1e-12)
    assert half.ratio > 0.0 and sup.ratio > 0.0


def _one_gmt(kern, A, B, c_probe):
    """Oracle: the check of one kernel at one probe, its pair mass the
    ``math.fsum`` of the count-times-half products as a list."""
    D = A.union(B).complement()
    mass = 0.0
    if D.count:
        shape = A.lattice.shape
        fshape = tuple(next_fast_len(2 * n - 1, True) for n in shape)
        spec = rfftn(np.flip(D.members).astype(float), fshape)
        raw = setgeom.fftconvolve(A.members.astype(float), spec, fshape)
        counts = np.rint(raw[tuple(slice(0, 2 * n - 1) for n in shape)])
        hit = counts > 0
        n = counts[hit]
        w = kern.table_for_extents(shape)[hit]
        c = 134217729.0 * w
        hi = c - (c - w)
        mass = math.fsum(np.concatenate([n * hi, n * (w - hi)]).tolist())
    interaction = mass + stable_sum(kern.tail_weights[A.members])
    n, s = A.lattice.dim, kern.s
    a, b = A.measure, B.measure
    floored = False
    if b <= c_probe * a:
        regime = "small_b"
        if s < 0.5:
            bound = a ** ((n - 2.0 * s) / n)
        else:
            b_eff = b
            if b_eff <= 0.0:
                b_eff = A.lattice.cell_volume
                floored = True
            if s == 0.5:
                bound = a ** ((n - 1.0) / n) * math.log(a / b_eff)
            else:
                bound = a ** ((n - 2.0 * s) / n) * (b_eff / a) ** (1.0 - 2.0 * s)
    else:
        regime = "large_b"
        bound = a ** ((n - 2.0 * s) / n) * (b / a) ** (-2.0 * s / n)
    return GmtReport(
        regime=regime, s_branch=setgeom._s_branch(s), measure_a=a, measure_b=b,
        measure_d=D.measure, c_probe=c_probe, interaction=interaction,
        bound=bound, ratio=interaction / bound, b_floored=floored)


def test_batched_gmt_is_the_one_kernel_one_probe_check(qkern50, qkern75):
    # seeded pairs with B empty (floored at s >= 1/2), small and large, and
    # one pair that leaves D empty; every field equal, the floats bitwise
    kernels = [build_kernel(QLAT, 0.25), qkern50, qkern75]
    probes = (0.01, 0.05, 0.1, 0.6)
    rng = np.random.default_rng(23)
    pairs = [random_disjoint_pair(QLAT, rng, frac, 8) for frac in (0.0, 0.02, 0.5, 0.0, 1.0)]
    full = np.ones(QLAT.shape, dtype=bool)
    full[:2] = False
    pairs.append((CellSet(QLAT, full), CellSet(QLAT, ~full)))
    seen = set()
    for A, B in pairs:
        got = check_gmt(kernels, A, B, probes)
        assert len(got) == len(kernels)
        for kern, reports in zip(kernels, got):
            assert [rep.c_probe for rep in reports] == list(probes)
            for probe, rep in zip(probes, reports):
                assert rep == _one_gmt(kern, A, B, probe)
                seen.add((rep.regime, rep.b_floored, rep.measure_d == 0.0))
    assert {("small_b", True, False), ("small_b", False, False),
            ("large_b", False, False), ("large_b", False, True)} <= seen


def test_gmt_suite_counts_one_histogram_per_set_pair(monkeypatch):
    # one offset histogram per corpus pair and per refined pair, whatever
    # the number of exponents and probes; rows in (s, case, probe) order
    calls = []
    counts = setgeom._offset_counts

    def counted(A, D):
        calls.append(A.lattice)
        return counts(A, D)

    monkeypatch.setattr(setgeom, "_offset_counts", counted)
    cfg = ExperimentConfig(experiment="gmt", dim=2, h=1.0, s=0.25,
                           s_list=(0.25, 0.5), corpus_size=5, box_cells=10,
                           b_fractions=(0.02, 0.5), refine_cases=2, seed=11)
    rep = run_gmt_suite(cfg)
    assert len(calls) == cfg.corpus_size + cfg.refine_cases
    lat = calls[0]
    gen = np.random.default_rng(cfg.seed)
    pairs = [random_disjoint_pair(lat, gen, cfg.b_fractions[i % 2], cfg.max_rects)
             for i in range(cfg.corpus_size)]
    want = []
    for s in cfg.s_list:
        kern = build_kernel(lat, s)
        for i, (A, B) in enumerate(pairs):
            for probe in cfg.c_probes:
                r = _one_gmt(kern, A, B, probe)
                want.append([i, s, probe, r.regime, r.s_branch, r.measure_a,
                             r.measure_b, r.b_floored, r.interaction, r.bound,
                             r.ratio])
    assert rep.series_rows == want


def test_gmt_errors(kern2):
    A = from_indices(LAT2, [(1, 1)])
    with pytest.raises(ValueError, match="positive measure"):
        check_gmt([kern2], CellSet.empty(LAT2), A, [0.05])
    with pytest.raises(ValueError, match="overlap"):
        check_gmt([kern2], A, A, [0.05])
    with pytest.raises(ValueError, match="c_probe"):
        check_gmt([kern2], A, CellSet.empty(LAT2), [1.5])


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


def test_sobolev_set_bound_rejects_a_cell_index_of_another_length(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    with pytest.raises(ValueError, match="wrong dimension"):
        sobolev_set_bound(kern, E, (0, 0))


def test_sobolev_complement_monotone(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    bigger = ball_mask(lat, (0.2,), 2.0)
    assert sobolev_set_bound(kern, E, (0,)).lhs >= sobolev_set_bound(kern, bigger, (0,)).lhs


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


def test_sharp_constant_matches_per_cell_loop(sob):
    # first minimal cell in C order, as a loop over single-cell bounds finds it
    lat, kern = sob
    rng = np.random.default_rng(5)
    for S in [ball_mask(lat, (0.2,), 1.0)] + [
            random_equal_count_set(lat, rng, 6) for _ in range(10)]:
        best, best_idx = math.inf, ()
        for i in np.argwhere(S.members)[:, 0]:
            idx = (int(i) + lat.lo[0],)
            c = sobolev_set_bound(kern, S, idx).constant
            if c < best:
                best, best_idx = c, idx
        rep = sobolev_set_bound(kern, S)
        assert (rep.constant, rep.cell) == (best, best_idx)


def _gather_complement(kern, E, pos):
    """Oracle: lhs at the cell at box position pos, from an fsum of the pair
    weights to every in-box cell outside E plus the cell's exterior tail."""
    shape = np.array(E.lattice.shape)
    off = np.array(pos) - np.argwhere(~E.members) + (shape - 1)
    inbox = math.fsum(kern.table_for_extents(tuple(shape))[tuple(off.T)].tolist())
    return (inbox + kern.tail_weights[tuple(pos)]) / E.lattice.cell_volume


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_sobolev_matches_gathered_complement(dim, s):
    center = np.full(dim, 0.2)
    lat = Lattice.covering_ball(dim, 0.5, center, 12.0 / dim)
    kern = build_kernel(lat, s)
    rng = np.random.default_rng(41)
    ball = ball_mask(lat, center, 2.0)
    for E in (ball, random_cellset(lat, rng, 8),
              random_equal_count_set(lat, rng, ball.count)):
        cells = np.argwhere(E.members)
        picks = np.sort(rng.choice(len(cells), size=min(4, len(cells)), replace=False))
        for pos in cells[picks]:
            idx = tuple(int(p) + lo for p, lo in zip(pos, lat.lo))
            got = sobolev_set_bound(kern, E, idx).lhs
            assert got == pytest.approx(_gather_complement(kern, E, pos), rel=1e-13)
        rep = sobolev_set_bound(kern, E)
        pos = [c - lo for c, lo in zip(rep.cell, lat.lo)]
        assert rep.lhs == pytest.approx(_gather_complement(kern, E, pos), rel=1e-13)


def test_sobolev_errors(sob):
    lat, kern = sob
    E = ball_mask(lat, (0.2,), 1.0)
    with pytest.raises(ValueError, match="positive measure"):
        sobolev_set_bound(kern, CellSet.empty(lat), (0,))
    with pytest.raises(ValueError, match="outside"):
        sobolev_set_bound(kern, E, (10_000,))


# -- corpora -------------------------------------------------------------------


def test_random_generators_deterministic():
    a1 = random_cellset(LAT2, np.random.default_rng(5), 8)
    a2 = random_cellset(LAT2, np.random.default_rng(5), 8)
    assert np.array_equal(a1.members, a2.members)
    p1 = random_disjoint_pair(LAT2, np.random.default_rng(9), 0.05, 8)
    p2 = random_disjoint_pair(LAT2, np.random.default_rng(9), 0.05, 8)
    assert np.array_equal(p1[0].members, p2[0].members)
    assert np.array_equal(p1[1].members, p2[1].members)


def test_random_pair_contract():
    rng = np.random.default_rng(11)
    for _ in range(25):
        A, B = random_disjoint_pair(LAT2, rng, 0.05, 8)
        assert A.count > 0
        assert A.disjoint(B)
        assert B.measure <= 0.05 * A.measure


def test_random_pair_rejects_negative_fraction():
    with pytest.raises(ValueError, match="b_fraction"):
        random_disjoint_pair(LAT2, np.random.default_rng(11), -0.5, 8)


def test_random_equal_count():
    rng = np.random.default_rng(3)
    S = random_equal_count_set(LAT2, rng, 37)
    assert S.count == 37
    with pytest.raises(ValueError, match="count"):
        random_equal_count_set(LAT2, rng, 0)
