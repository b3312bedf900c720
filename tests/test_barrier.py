import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from fraclab import barrier
from fraclab.barrier import (
    Al1Report,
    BarrierSpec,
    R_MIN,
    clamp_radius,
    estimate_C5,
    eval_h,
    eval_v,
    eval_w,
    verify_al1,
    verify_al2,
)
from fraclab.lab import ExperimentConfig, run_barrier


# -- profile functions ---------------------------------------------------


def test_h_continuity_and_clamp():
    r, s = 400.0, 0.5
    # the tangent construction makes h meet 0 at r/2 with zero slope
    assert eval_h(r / 2.0, r, s) == 0.0
    assert abs(eval_h(r / 2.0 - 1e-9, r, s)) < 1e-15
    assert eval_h(r / 2.0 + 5.0, r, s) == 0.0
    # clamped to 1 close to t = 0, continuous limit for t <= 0
    assert eval_h(1e-6, r, s) == 1.0
    assert eval_h(0.0, r, s) == 1.0
    assert eval_h(-3.0, r, s) == 1.0


def test_h_monotone_and_range():
    r, s = 200.0, 0.5
    t = np.linspace(-1.0, r, 3001)
    h = eval_h(t, r, s)
    assert np.all(h >= 0.0) and np.all(h <= 1.0)
    assert np.all(np.diff(h) <= 1e-15)


def test_v_plateaus():
    r, s = 200.0, 0.5
    rho_star = clamp_radius(r, s)
    assert r / 2.0 < rho_star < r
    # zero core, one outside the clamp radius
    rho = np.linspace(0.0, r / 2.0, 50)
    assert np.all(eval_v(rho, r, s) == 0.0)
    assert eval_v(rho_star + 1e-9, r, s) == 1.0
    assert eval_v(r, r, s) == 1.0
    assert eval_v(10.0 * r, r, s) == 1.0
    assert eval_v(-10.0 * r, r, s) == 1.0
    # nondecreasing in radius
    rho = np.linspace(0.0, 1.5 * r, 4001)
    assert np.all(np.diff(eval_v(rho, r, s)) >= -1e-15)


@settings(max_examples=25, deadline=None)
@given(
    s=st.floats(min_value=0.1, max_value=0.9),
    r=st.floats(min_value=50.0, max_value=5000.0),
)
def test_h_dominates_truncated_g(s, r):
    # min{1, t^(-2s)} <= h(t) + 16 r^(-2s) on (0, r]
    t = np.linspace(1e-3, r, 500)
    lhs = np.minimum(1.0, t ** (-2.0 * s))
    rhs = eval_h(t, r, s) + 16.0 * r ** (-2.0 * s)
    assert np.all(lhs <= rhs + 1e-12)


# -- principal value rule --------------------------------------------------


def quad_pv_v(x: float, r: float, s: float, dim: int, n_theta: int = 48) -> float:
    """Oracle for barrier._pv_v: one adaptive scipy quad per direction.

    The same ray rule (theta = 0 in 1D, n_theta Gauss nodes on [0, pi] in
    2D, every node integrated), with v rebuilt from its definition in
    scalar arithmetic, breakpoints where a ray crosses the clamp radius,
    r/2 or r (dropping those within 1e-9 (|x| + r) of u = 0) and the
    tolerance tightened to epsabs = 0, epsrel = 1e-12.
    """
    a = (r / 2.0) ** (-2.0 * s)
    b = -2.0 * s * (r / 2.0) ** (-1.0 - 2.0 * s)

    def v(rho):
        t = r - abs(rho)
        if t <= 0.0:
            return 1.0
        if t >= r / 2.0:
            return 0.0
        return min(1.0, t ** (-2.0 * s) - a - b * (t - r / 2.0))

    if dim == 1:
        directions = ((0.0, 1.0),)
    else:
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        directions = zip(0.5 * math.pi * (nodes + 1.0), 0.5 * math.pi * weights)
    vx = v(x)
    upper = abs(x) + r
    tail = (2.0 - 2.0 * vx) * upper ** (-2.0 * s) / (2.0 * s)
    total = 0.0
    for theta, wt in directions:
        c, sn = math.cos(theta), math.sin(theta)

        def f(u):
            return (v(math.hypot(x + u * c, u * sn)) + v(math.hypot(x - u * c, u * sn))
                    - 2.0 * vx) * u ** (-1.0 - 2.0 * s)

        cross = set()
        for radius in (clamp_radius(r, s), 0.5 * r, r):
            disc = radius * radius - (x * sn) ** 2
            if disc >= 0.0:
                root = math.sqrt(disc)
                cross.update((-x * c - root, -x * c + root, x * c - root, x * c + root))
        pts = sorted(u for u in cross if 1e-9 * upper < u < upper)
        with warnings.catch_warnings():
            # at s = 3/4 the tightened tolerance meets round-off in f, and
            # quad says so; the comparison below bounds what it returns
            warnings.simplefilter("ignore", IntegrationWarning)
            val, _ = quad(f, 0.0, upper, points=pts or None, limit=300,
                          epsabs=0.0, epsrel=1e-12)
        total += wt * (val + tail)
    return total


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pv_rule_matches_quad_oracle_1d(s):
    r = 400.0
    x = r * np.arange(1, 65) / 64  # the radii of estimate_C5(s, r, 64)
    pv, gap = barrier._pv_v(x, r, s, 1)
    ref = np.array([quad_pv_v(float(xi), r, s, 1) for xi in x])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(pv - ref)) <= 1e-9 * scale
    assert np.max(gap) <= 1e-9 * scale


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_pv_rule_matches_quad_oracle_2d(s):
    r = 80.0
    x = r * np.arange(1, 5) / 4  # the radii of estimate_C5(s, r, 4, dim=2)
    pv, gap = barrier._pv_v(x, r, s, 2)
    ref = np.array([quad_pv_v(float(xi), r, s, 2) for xi in x])
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(pv - ref)) <= 1e-9 * scale
    assert np.max(gap) <= 1e-9 * scale


def test_pv_rule_mirror_directions_bitwise_on_kink_circle():
    # x = r/2 lies on a kink circle: the crossing at u = 0 rounds to about
    # 3e-14, and as a breakpoint it broke the theta <-> pi - theta symmetry
    r, s, x, theta = 400.0, 0.5, 200.0, 1.023
    val, _ = barrier.quad(np.full(2, x),
                          np.array([math.cos(theta), math.cos(math.pi - theta)]),
                          np.array([math.sin(theta), math.sin(math.pi - theta)]),
                          r, s)
    assert val[0] == val[1]
    assert val[0] == pytest.approx(2.824155e-3, rel=1e-6)
    pv, _ = barrier._pv_v(x, r, s, 2)
    assert pv[0] == pytest.approx(0.0200118357, rel=1e-9)


def _two_gradings(lo, hi, first, last):
    """Oracle: the ends and panels of each grading's sub-panels, built on
    their own; the graded levels of every panel's two ends."""
    half = 0.5 * (hi - lo)
    out = []
    for f, l in ((first, last), (2.0 * first, 2.0 * last)):
        levels = [np.maximum(0.0, np.ceil(np.log2(half / step))) for step in (f, l)]
        k = np.arange(int(max(lv.max(initial=0.0) for lv in levels)))
        reach = [np.where(lv[:, None] > 0.0,
                          step[:, None] * 2.0 ** np.minimum(k, lv[:, None] - 1.0), 0.0)
                 for step, lv in zip((f, l), levels)]
        edges = np.column_stack([lo, lo[:, None] + reach[0],
                                 hi[:, None] - reach[1][:, ::-1], hi])
        a, b = edges[:, :-1], edges[:, 1:]
        keep = b > a
        out.append((a[keep], b[keep], np.nonzero(keep)[0], levels))
    return out


def _quad_oracle(x, c, sn, r, s):
    """Oracle: ``barrier.quad`` with each grading's sub-panels built and
    integrated on their own.  Also returns the graded levels of every
    panel's two ends."""
    n, upper = x.size, np.abs(x) + r
    cuts = [np.zeros(n)]
    for radius in (clamp_radius(r, s), 0.5 * r, r):
        disc = radius * radius - (x * sn) ** 2
        root = np.sqrt(np.maximum(disc, 0.0))
        for u in (-x * c - root, -x * c + root, x * c - root, x * c + root):
            ok = (disc >= 0.0) & (u > 1e-9 * upper) & (u < upper)
            cuts.append(np.where(ok, u, upper))
    cuts.append(upper)
    edges = np.sort(np.column_stack(cuts), axis=1)
    pair, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    lo, hi = edges[pair, col], edges[pair, col + 1]
    step = np.full(lo.size, 0.25 * (r - clamp_radius(r, s)))
    first = np.where(lo > 0.0, np.minimum(step, lo), step)
    fine, coarse = _two_gradings(lo, hi, first, step)
    sub_a = np.concatenate([fine[0], coarse[0]])
    sub_b = np.concatenate([fine[1], coarse[1]])
    sub_pair = pair[np.concatenate([fine[2], coarse[2]])]
    (t, w), (tj, wj) = barrier._reference_rules(s)
    jacobi = (sub_a == 0.0)[:, None]
    half = 0.5 * (sub_b - sub_a)[:, None]
    u = sub_a[:, None] + half * (1.0 + np.where(jacobi, tj, t))
    xl, cl, sl = x[sub_pair][:, None], c[sub_pair][:, None], sn[sub_pair][:, None]
    fwd = eval_v(np.hypot(xl + u * cl, u * sl), r, s)
    back = eval_v(np.hypot(xl - u * cl, u * sl), r, s)
    f = (fwd + back - 2.0 * eval_v(x, r, s)[sub_pair][:, None]) * u ** (-1.0 - 2.0 * s)
    piece = np.sum(half * np.where(jacobi, wj, w) * f, axis=1)
    m = fine[0].size
    value = np.bincount(sub_pair[:m], weights=piece[:m], minlength=n)
    coarser = np.bincount(sub_pair[m:], weights=piece[m:], minlength=n)
    return value, value - coarser, np.concatenate(fine[3])


@pytest.mark.parametrize("r,s", [(400.0, 0.5), (60.0, 0.25), (100.0, 0.75),
                                 (50.0, 0.1), (400.0, 0.9)])
def test_quad_shares_pieces_bit_for_bit(r, s):
    # the coarse grading read off the fine one, plus its merged pieces,
    # against both gradings integrated on their own: 1D rays and 2D
    # directions, with panels graded 0, 1 and more levels at an end
    rng = np.random.default_rng(int(r) + int(100 * s))
    levels = set()
    for trial in range(12):
        x = rng.uniform(0.0, 1.2 * r, barrier._BATCH)
        x[:3] = (0.5 * r, clamp_radius(r, s), 0.5 * r + 1e-3)  # on and by a kink
        if trial % 2:
            theta = rng.uniform(0.0, 0.5 * math.pi, x.size)
            c, sn = np.cos(theta), np.sin(theta)
        else:
            c, sn = np.ones(x.size), np.zeros(x.size)
        value, delta = barrier.quad(x, c, sn, r, s)
        want_value, want_delta, lv = _quad_oracle(x, c, sn, r, s)
        assert np.array_equal(value.view(np.uint64), want_value.view(np.uint64))
        assert np.array_equal(delta.view(np.uint64), want_delta.view(np.uint64))
        levels.update(lv.tolist())
    assert {0.0, 1.0, 2.0} <= levels


# -- C5 estimation -------------------------------------------------------


def test_c5_reference_value():
    c5 = estimate_C5(0.5, 200.0, 64, dim=1)[0]
    assert c5 == pytest.approx(1.076715, rel=1e-4)


def test_c5_doubling_monotone_and_stable():
    lo = estimate_C5(0.5, 200.0, 64, dim=1)[0]
    hi = estimate_C5(0.5, 200.0, 128, dim=1)[0]
    assert 0.0 < lo <= hi  # the finer grid contains the coarse one
    assert (hi - lo) / lo <= 0.10


def test_c5_2d_finite_and_monotone():
    lo = estimate_C5(0.5, 80.0, 3, dim=2)[0]
    hi = estimate_C5(0.5, 80.0, 6, dim=2)[0]
    assert 0.0 < lo <= hi
    assert lo == pytest.approx(0.6879072212572656, rel=1e-8)
    assert hi == pytest.approx(1.0568684395320798, rel=1e-8)


def test_c5_rule_gap_small():
    assert 0.0 <= estimate_C5(0.5, 200.0, 64, dim=1)[1] < 1e-9
    assert 0.0 <= estimate_C5(0.5, 80.0, 6, dim=2)[1] < 1e-9


def test_c5_rejects_small_r_and_bad_counts():
    with pytest.raises(ValueError, match="r must be"):
        estimate_C5(0.5, 10.0, 8, dim=1)
    with pytest.raises(ValueError, match="sample_count"):
        estimate_C5(0.5, 100.0, 0, dim=1)
    with pytest.raises(ValueError, match="dim"):
        estimate_C5(0.5, 100.0, 4, dim=3)


# -- spec construction ---------------------------------------------------


@pytest.fixture(scope="module")
def small_spec():
    c5, _ = estimate_C5(0.5, 100.0, 32, dim=1)
    return BarrierSpec(s=0.5, tau=0.1, r=100.0, c5=c5, dim=1)


def test_from_scale_small(small_spec):
    assert small_spec.c5 == pytest.approx(0.9569940932630433, rel=1e-6)
    assert small_spec.beta == pytest.approx(0.32, rel=1e-15)
    assert small_spec.c_o == pytest.approx(small_spec.c5 / 0.1, rel=1e-12)
    assert small_spec.big_r == pytest.approx(100.0 * small_spec.c_o, rel=1e-12)


def test_spec_refusals():
    with pytest.raises(ValueError, match="below the minimum"):
        BarrierSpec(s=0.5, tau=0.1, r=R_MIN - 1.0, c5=1.0, dim=1)
    with pytest.raises(ValueError, match="beta"):
        BarrierSpec(s=0.25, tau=0.1, r=400.0, c5=1.0, dim=1)  # 32 r^{-1/2} = 1.6
    with pytest.raises(ValueError, match="tau"):
        BarrierSpec(s=0.5, tau=0.0, r=100.0, c5=1.0, dim=1)
    with pytest.raises(ValueError, match="s must lie"):
        BarrierSpec(s=1.5, tau=0.1, r=100.0, c5=1.0, dim=1)
    with pytest.raises(ValueError, match="c5"):
        BarrierSpec(s=0.5, tau=0.1, r=100.0, c5=-2.0, dim=1)
    with pytest.raises(ValueError, match="dim"):
        BarrierSpec(s=0.5, tau=0.1, r=100.0, c5=1.0, dim=3)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_non_finite_parameters_are_refused(bad):
    # an infinite or NaN tau, c5 or r has no barrier; each is refused by name
    for key, match in (("tau", "tau"), ("c5", "c5"), ("r", "inner scale")):
        kwargs = {"s": 0.5, "tau": 0.1, "r": 100.0, "c5": 1.0, "dim": 1, key: bad}
        with pytest.raises(ValueError, match=match):
            BarrierSpec(**kwargs)
    with pytest.raises(ValueError, match="r must be finite"):
        estimate_C5(0.5, bad, 4, dim=1)


def test_w_range_and_plateaus(small_spec):
    spec = small_spec
    big_r = spec.big_r
    rho = np.linspace(0.0, 2.0 * big_r, 4001)
    w = eval_w(spec, rho)
    assert np.all(np.diff(w) >= -1e-15)
    assert np.all(1.0 + w <= 2.0 + 1e-15)
    # exact plateaus: beta - 1 on the half ball, 1 outside B_R
    assert eval_w(spec, 0.0) == spec.beta - 1.0
    assert eval_w(spec, big_r / 2.0) == spec.beta - 1.0
    assert eval_w(spec, big_r) == 1.0
    assert eval_w(spec, 3.0 * big_r) == 1.0
    assert eval_w(spec, -3.0 * big_r) == 1.0


# -- verification reports -------------------------------------------------


def test_al1_small_scale(small_spec):
    rep = verify_al1(small_spec, sample_count=64, slack=0.05)
    assert isinstance(rep, Al1Report)
    assert rep.fraction_passing >= 0.99  # the runner's default passing fraction
    assert rep.fraction_passing == 1.0
    assert rep.worst_ratio == pytest.approx(0.9332550240990818, rel=1e-6)
    assert 0.0 <= rep.rule_gap < 1e-9
    assert sum(rep.violation_histogram.values()) == 0
    # midpoint radii: outermost sample sits half a spacing short of R
    assert rep.outermost_radius == pytest.approx(
        small_spec.big_r * (1.0 - 0.5 / 64), rel=1e-12
    )
    blob = rep.to_json()
    assert blob["sample_count"] == 64 and "passed" not in blob


def test_al2_small_scale(small_spec):
    rep = verify_al2(small_spec, sample_count=64)
    assert rep.upper_constant == pytest.approx(304.1656246110163, rel=1e-6)
    assert rep.lower_constant == pytest.approx(16.953032707235025, rel=1e-6)
    assert rep.ratio == pytest.approx(17.941664471702925, rel=1e-6)
    assert rep.ratio < 50.0


def test_verify_rejects_too_few_samples(small_spec):
    with pytest.raises(ValueError, match="sample_count"):
        verify_al1(small_spec, sample_count=1, slack=0.05)


def test_profile_csv_roundtrip(small_spec, tmp_path):
    # the barrier runner writes the radial profile as its series.csv
    cfg = ExperimentConfig(experiment="barrier", s=0.5, dim=1, h=1.0,
                           tau=0.1, barrier_r=100.0, barrier_samples=32,
                           check_samples=32)
    run_barrier(cfg).write(tmp_path)
    with open(tmp_path / "series.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["radius", "v", "w"]
    assert len(rows) == 33
    radii = np.array([float(r[0]) for r in rows[1:]])
    w = np.array([float(r[2]) for r in rows[1:]])
    assert np.array_equal(w, eval_w(small_spec, radii))
    assert np.all(np.diff(radii) > 0)
