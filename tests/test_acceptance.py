"""End-to-end acceptance gate.

Each test runs one headline criterion at its stated scale and tolerance
and prints a single verdict line (visible with ``pytest -s``).  The
heavy experiment runs are shared through module-scoped fixtures.
"""

import json
import math
import time

import numpy as np
import pytest

from cellsets import from_indices
from fraclab import setgeom
from fraclab.energies import EnergyModel
from fraclab.kernels import build_kernel
from fraclab.lab import (
    ExperimentConfig,
    check_iteration_lemma,
    run_barrier,
    run_density,
    run_energy_growth,
    run_gmt_suite,
    run_levelset_convergence,
    run_sobolev_suite,
)
from fraclab.lattice import Exterior, Lattice, ScalarField
from fraclab.minimize import initial_field, minimize_energy
from fraclab.potential import Quartic

GROWTH_RADII = (16.0, 32.0, 64.0, 128.0)
GMT_SEED = 20260814


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


@pytest.fixture(scope="module")
def growth_runs():
    out = {}
    t0 = time.perf_counter()
    for s in (0.25, 0.5, 0.75):
        cfg = ExperimentConfig(
            experiment="energy-growth", s=s, dim=1, h=0.25,
            radii=GROWTH_RADII, max_iters=5000)
        out[s] = run_energy_growth(cfg)
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def density_run():
    cfg = ExperimentConfig(
        experiment="density", s=0.25, dim=2, h=0.53125,
        radii=(8.0, 16.0, 32.0), theta1=0.0, theta2=0.0, theta_star=0.0,
        density_floor=0.25 * math.pi / 2.0, max_iters=4000)
    t0 = time.perf_counter()
    rep = run_density(cfg)
    return rep, time.perf_counter() - t0


@pytest.fixture(scope="module")
def gmt_corpus():
    lat = Lattice(2, 1.0, (0, 0), (32, 32))
    rng = np.random.default_rng(GMT_SEED)
    fractions = (0.02, 0.5)
    pairs = []
    for i in range(50):
        frac = fractions[i % len(fractions)]
        pairs.append(setgeom.random_disjoint_pair(
            lat, rng, b_fraction=frac, max_rects=8))
    return lat, pairs


@pytest.fixture(scope="module")
def gmt_run():
    cfg = ExperimentConfig(
        experiment="gmt", dim=2, h=1.0, s=0.25, s_list=(0.25, 0.5, 0.75),
        corpus_size=50, box_cells=32, b_fractions=(0.02, 0.5),
        refine=True, refine_cases=10, refine_rtol=0.05,
        seed=GMT_SEED)
    return run_gmt_suite(cfg)


def test_criterion_01_energy_growth(growth_runs):
    rep = growth_runs[0.25]
    slope = rep.results["fitted_exponent"]
    cells = max(row[1] for row in rep.series_rows)
    ok_quarter = abs(slope - 0.5) <= 0.15 and cells <= 4096

    rows75 = {row[0]: row[4] for row in growth_runs[0.75].series_rows}
    ratio75 = rows75[128.0] / rows75[32.0]
    ok_three_quarter = ratio75 <= 1.3

    half_dev = growth_runs[0.5].results["log_normalized_dev"]
    ok_half = half_dev < 0.25

    ok_time = growth_runs["wall"] < 600.0
    _verdict(
        1, "energy-growth",
        ok_quarter and ok_three_quarter and ok_half and ok_time,
        f"slope(s=1/4)={slope:.4f} in 0.5+-0.15, E128/E32(s=3/4)="
        f"{ratio75:.4f}<=1.3, E/logR dev(s=1/2)={half_dev:.4f}<0.25, "
        f"N<={cells}, wall={growth_runs['wall']:.1f}s")


def test_criterion_02_competitor_bound(growth_runs):
    details = []
    ok = True
    for s in (0.25, 0.5, 0.75):
        rows = growth_runs[s].series_rows[1:]  # same drop as the energy fit
        slope = float(np.polyfit(np.log([r[0] for r in rows]),
                                 np.log([r[5] for r in rows]), 1)[0])
        if s == 0.5:
            # the log regime has no pure exponent; compare against the
            # log-log secant of log R across the fitted radii (1D)
            r_lo, r_hi = rows[0][0], rows[-1][0]
            theory = (math.log(math.log(r_hi)) - math.log(math.log(r_lo))) \
                / (math.log(r_hi) - math.log(r_lo))
        else:
            theory = 0.5 if s == 0.25 else 0.0
        ok &= abs(slope - theory) <= 0.15
        details.append(f"psi slope(s={s})={slope:.4f} vs {theory:.4f}")

    dominated = all(row[5] >= row[4]
                    for s in (0.25, 0.5, 0.75)
                    for row in growth_runs[s].series_rows)
    ok &= dominated
    details.append(f"upper-bounds minimizer at every R: {dominated}")
    _verdict(2, "competitor-bound", ok, ", ".join(details))


def test_criterion_03_density(density_run):
    rep, wall = density_run
    floor = 0.25 * math.pi / 2.0
    trace = rep.results["trace_theta_star"]
    ok_floor = all(q >= floor for q in trace["ratios"])

    radii = np.asarray(trace["radii"])
    vols = np.asarray(trace["volumes"])
    c_emp = rep.results["doubling_constant"]
    pairs = 0
    ok_doubling = c_emp is not None and math.isfinite(c_emp) and c_emp > 0
    for i, r in enumerate(radii):
        j = np.nonzero(radii == 2.0 * r)[0]
        if j.size:
            pairs += 1
            lhs = r ** 0.5 * vols[i] ** 0.75  # 2s = 0.5, (n-2s)/n = 3/4
            ok_doubling &= lhs <= c_emp * vols[j[0]] * (1.0 + 1e-12)

    ok_datum = rep.results["status"] == "ok"
    ok_time = wall < 1800.0
    _verdict(
        3, "density",
        ok_floor and ok_doubling and ok_datum and pairs == 2 and ok_time,
        f"min V(R)/R^2={min(trace['ratios']):.4f}>={floor:.4f}, single "
        f"C={c_emp:.4f} over {pairs} pairs, u(0)={rep.results['u_center']:.4g}"
        f">0, wall={wall:.1f}s")


def test_criterion_04_iteration_lemma():
    t0 = time.perf_counter()
    dyadic = [(2.0 ** k, (2.0 ** k) ** 2) for k in range(1, 8)]
    power = check_iteration_lemma(dyadic, sigma=1.5, nu=2.0, gamma=2.0,
                                  growth_c=1.1, r_o=2.0, mu=4.0)
    const = check_iteration_lemma([(r, 4.0) for r, _ in dyadic], sigma=0.5,
                                  nu=2.0, gamma=2.0, growth_c=1.5,
                                  r_o=2.0, mu=4.0)
    wall = time.perf_counter() - t0
    ok = (power.passed and power.conclusion_tested
          and power.c == (1.0 / 4.4) ** (4.0 / 3.0)
          and power.r_star == 16.0
          and not const.passed
          and const.failed_hypothesis == "doubling"
          and const.violating_r == 32.0
          and wall < 1.0)
    _verdict(
        4, "iteration-lemma", ok,
        f"power trace holds with c={power.c:.6g} past r*={power.r_star}, "
        f"constant trace rejected at r={const.violating_r}, wall={wall:.3f}s")


def test_criterion_05_barrier():
    cfg = ExperimentConfig(
        experiment="barrier", s=0.5, dim=1, h=1.0, tau=0.1,
        barrier_r=400.0, barrier_samples=256, check_samples=512)
    t0 = time.perf_counter()
    rep = run_barrier(cfg)
    wall = time.perf_counter() - t0
    al1 = rep.results["al1"]
    al2 = rep.results["al2"]
    ok = (cfg.barrier_r >= 400.0
          and al1["slack"] == 0.05
          and al1["fraction_passing"] >= 0.99
          and math.isfinite(al2["upper_constant"])
          and math.isfinite(al2["lower_constant"])
          and al2["ratio"] < 50.0
          and rep.results["w_exact_outside"] is True
          and al1["rule_gap"] < 1e-9
          and wall < 300.0)
    _verdict(
        5, "barrier", ok,
        f"al1 fraction={al1['fraction_passing']:.4f}>=0.99 at 5% slack, "
        f"al2 ratio={al2['ratio']:.2f}<50, w=1 outside exactly, "
        f"PV rule gap={al1['rule_gap']:.2g}<1e-9, wall={wall:.1f}s")


def _brute_interaction(lat: Lattice, A, B, s: float, m: int = 6) -> float:
    """Midpoint quadrature on an m-times-finer subdivision of every cell."""
    h, n = lat.h, lat.dim
    sub = (np.arange(m) + 0.5) * (h / m)
    grid = np.stack(np.meshgrid(sub, sub, indexing="ij"), -1).reshape(-1, 2)
    lo = np.asarray(lat.lo)
    pa = (np.argwhere(A.members) + lo) * h
    pb = (np.argwhere(B.members) + lo) * h
    ca = (pa[:, None, :] + grid[None, :, :]).reshape(-1, 2)
    cb = (pb[:, None, :] + grid[None, :, :]).reshape(-1, 2)
    expo = -(n + 2.0 * s) / 2.0
    total = 0.0
    for chunk in np.array_split(ca, max(1, len(ca) // 2000)):
        d2 = ((chunk[:, None, :] - cb[None, :, :]) ** 2).sum(-1)
        total += float((d2 ** expo).sum())
    return total * (h / m) ** (2 * n)


def test_criterion_06_gmt_suite(gmt_run, gmt_corpus):
    ok_ratios = gmt_run.results["min_ratio"] > 0.0
    names = {c.name: c for c in gmt_run.criteria}
    drift = gmt_run.results["refinement_max_dev"]
    ok_refine = names["refinement-stable"].passed and drift < 0.05

    # independent fine-subdivision quadrature on well-separated pairs;
    # cells at offset >= 2 keep the oracle clear of the kernel singularity
    lat, pairs = gmt_corpus
    kern = build_kernel(lat, 0.25)
    checked = 0
    worst = 0.0
    for a_set, b_set in pairs:
        if checked == 5:
            break
        if not b_set.count or a_set.count * b_set.count > 60000:
            continue
        ai = np.argwhere(a_set.members)
        bi = np.argwhere(b_set.members)
        gap = np.abs(ai[:, None, :] - bi[None, :, :]).max(-1).min()
        if gap < 2:
            continue
        table_val = setgeom.L_interaction(kern, a_set, b_set)
        oracle = _brute_interaction(lat, a_set, b_set, 0.25)
        worst = max(worst, abs(oracle / table_val - 1.0))
        checked += 1
    ok_oracle = checked == 5 and worst <= 0.02

    _verdict(
        6, "gmt-suite", ok_ratios and ok_refine and ok_oracle,
        f"min ratio={gmt_run.results['min_ratio']:.3f}>0 over "
        f"{len(gmt_run.series_rows)} checks, refinement drift={drift:.4%}"
        f"<5%, oracle dev={worst:.4%}<=2% on {checked} cases")


def test_criterion_07_loomis_whitney(gmt_run):
    lat = Lattice(2, 1.0, (0, 0), (24, 24))
    rng = np.random.default_rng(404)
    exact = 0
    for _ in range(100):
        rep = setgeom.check_loomis_whitney(setgeom.random_cellset(lat, rng, 8))
        prod = 1
        for c in rep.shadow_counts:
            prod *= c
        exact += (rep.product_holds and rep.axis_bound_holds
                  and rep.shadow_product == prod
                  and rep.cell_count ** (lat.dim - 1) <= prod)
    boxes_equal = True
    for a, b in ((1, 1), (3, 7), (24, 24), (5, 1)):
        box = from_indices(lat, [(i, j) for i in range(a) for j in range(b)])
        rep = setgeom.check_loomis_whitney(box)
        boxes_equal &= rep.shadow_product == rep.cell_count ** (lat.dim - 1)
    # the gmt runner reports the same check over its whole corpus
    reported = next(c for c in gmt_run.criteria
                    if c.name == "projection-inequality")
    ok = exact == 100 and boxes_equal and reported.passed and not reported.vacuous
    _verdict(
        7, "loomis-whitney", ok,
        f"{exact}/100 random voxel sets exact, box shadows meet the "
        f"count bound with equality: {boxes_equal}, gmt report: "
        f"{reported.detail}")


def test_criterion_08_sobolev_sets():
    cfg = ExperimentConfig(
        experiment="sobolev", dim=1, h=0.4, s=0.25, sobolev_center=0.2,
        sobolev_radius=1.0, sobolev_extent=12.0, sobolev_count=100,
        sobolev_rtol=0.01, sobolev_margin=1.05, seed=GMT_SEED)
    rep = run_sobolev_suite(cfg)
    lhs = rep.results["center_lhs"]
    dev = abs(lhs / 4.0 - 1.0)
    ok_point = dev < 0.01 and rep.results["closed_form"] == 4.0
    ok_ball = (rep.results["ball_constant"]
               <= 1.05 * rep.results["corpus_min"])
    ok = ok_point and ok_ball and len(rep.series_rows) == 100
    _verdict(
        8, "sobolev-sets", ok,
        f"interval lhs={lhs:.5f} within {dev:.4%} of 4, ball constant "
        f"{rep.results['ball_constant']:.4f} <= 1.05 * corpus min "
        f"{rep.results['corpus_min']:.4f} over 100 sets")


def test_criterion_09_levelset_convergence():
    cfg = ExperimentConfig(
        experiment="levelset", s=0.75, dim=1, h=1.0,
        eps=(0.125, 0.0625, 0.03125, 0.015625), levelset_theta=0.9,
        levelset_radius=1.0, delta_cells=4.0, levelset_tol_cells=1.0,
        max_iters=5000)
    rep = run_levelset_convergence(cfg)
    dists = [row[7] for row in rep.series_rows]
    rises = [b - a for a, b in zip(dists, dists[1:])]
    ok = (all(r <= 1.0 for r in rises)
          and dists[-1] <= 4.0
          and all(row[3] for row in rep.series_rows))
    _verdict(
        9, "levelset-convergence", ok,
        f"band distance cells={dists}, max rise={max(rises):.3g}<=1, "
        f"final={dists[-1]:.3g}<=4")


def test_criterion_10_numerical_hygiene(tmp_path):
    # gradient against central differences on random directions
    lat = Lattice.covering_ball(1, 0.5, 0.0, 8.0)
    kern = build_kernel(lat, 0.3)
    pot = Quartic(1.0)
    rng = np.random.default_rng(99)
    u = ScalarField(lat, rng.uniform(-0.8, 0.8, lat.shape),
                    Exterior(1.0, 1.0))
    model = EnergyModel(kern, pot, u)
    x = u.values
    g = model.gradient(x)
    t = 1e-5
    worst_fd = 0.0
    for _ in range(20):
        d = np.where(model.omega, rng.standard_normal(lat.shape), 0.0)
        d /= np.sqrt((d * d).sum())
        dot = float((g * d).sum())
        fd = (model.energy(x + t * d) - model.energy(x - t * d)) / (2.0 * t)
        worst_fd = max(worst_fd, abs(fd - dot) / abs(dot))
    ok_grad = worst_fd < 1e-6

    # accepted-step energy trace never increases
    res = minimize_energy(kern, pot, initial_field(
        lat, Exterior(1.0, 1.0)), None,
        max_iters=500, grad_tol=1e-7)
    steps = np.diff(res.energy_trace)
    ok_trace = bool(np.all(steps <= 0.0))

    # two runs of one config write identical reports
    cfg = ExperimentConfig(experiment="gmt", dim=2, h=1.0, s=0.25,
                           s_list=(0.25,), corpus_size=6, box_cells=16,
                           refine=False, seed=5)
    p1 = run_gmt_suite(cfg).write(tmp_path / "r1")
    p2 = run_gmt_suite(cfg).write(tmp_path / "r2")
    series_same = (open(p1["series"], "rb").read()
                   == open(p2["series"], "rb").read())
    d1 = json.loads(open(p1["report"]).read())
    d2 = json.loads(open(p2["report"]).read())
    for doc in (d1, d2):
        doc.pop("meta")
    reports_same = json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    ok = ok_grad and ok_trace and series_same and reports_same
    _verdict(
        10, "numerical-hygiene", ok,
        f"max FD gradient deviation={worst_fd:.3g}<1e-6 over 20 directions, "
        f"energy trace monotone: {ok_trace}, run-to-run identical "
        f"reports: {series_same and reports_same}")
