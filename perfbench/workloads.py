"""The benchmark's workloads: operations and the properties checked on each.

An operation is one ``fraclab.lab`` runner call (the function the CLI
dispatches to) at its acceptance configuration, single-threaded, the
write of its report, and the property checks below applied to the
report as written.  A property check takes the config, the report as
loaded from report.json, the kernels and minimizer results the runner
made, and a seeded rng; it raises CheckFailed when the property fails.
"""

from __future__ import annotations

import math

import numpy as np

from fraclab import barrier as bar
from fraclab import setgeom
from fraclab.lab import ExperimentConfig
from fraclab.lattice import Lattice

import checks
from checks import close, require

WORKLOADS = ("minimize", "bounds")

# acceptance configurations (tests/test_acceptance.py); the growth sweep
# runs to R = 512 so the fit sees four doublings past the boundary layer
GROWTH_RADII = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0)
GMT_SEED = 20260814
DENSITY_FLOOR = math.pi / 8.0
# direct-sum gradient on free cells; the minimizer stops on a projected
# gradient below 1e-7 or on a stalled energy, which leaves up to ~6e-7
STATIONARITY_TOL = 1e-5
STATIONARITY_SAMPLES = 24


# -- minimize -----------------------------------------------------------------


def minimizer_traces(cfg, rep, kernels, results, rng):
    for res in results:
        require(bool(np.all(np.diff(res.energy_trace) <= 0.0)),
                "accepted-step energy trace increases")


def minimizer_stationarity(cfg, rep, kernels, results, rng):
    for kern, res in zip(kernels, results):
        checks.stationarity(res, kern, cfg.amplitude, rng,
                            STATIONARITY_SAMPLES, STATIONARITY_TOL)


def growth_exponent(cfg, rep, kernels, results, rng):
    rows = rep["series_rows"]
    require(all(row[2] is True for row in rows), "a radius did not converge")
    fit = rows[1:]  # the runner drops the smallest radius
    radii = [r[0] for r in fit]
    slope = checks.fitted_slope(radii, [r[4] for r in fit])
    theory = checks.growth_theory(cfg.s, cfg.dim, radii)
    if rep["results"]["fitted_exponent"] is not None:
        require(close(slope, rep["results"]["fitted_exponent"], 1e-9),
                "reported exponent differs from the fit of its own rows")
    require(abs(slope - theory) <= cfg.slope_tol,
            f"s={cfg.s}: fitted exponent {slope:.4f} vs paper rate {theory:.4f}")


def growth_competitor(cfg, rep, kernels, results, rng):
    rows = rep["series_rows"]
    require(len(rows) == len(kernels) == len(cfg.radii), "one row per radius")
    for row, kern in zip(rows, kernels):
        radius = row[0]
        # psi: -1 on B_{R+1}, +1 off B_{R+2}, exterior +1 (tail pairs weigh
        # (u - 1)^2, so t0 = t1 = t2 = the tail weight)
        lat = kern.lattice
        rad = checks.radius_of_cells(lat)
        psi = -1.0 + 2.0 * np.minimum(np.maximum(rad - radius - 1.0, 0.0), 1.0)
        tail = kern.tail_weights
        e_psi = checks.direct_energy(kern.table, tail, tail, tail,
                                     cfg.amplitude, lat.h ** lat.dim, psi,
                                     rad < radius + 2.0)
        require(close(e_psi, row[5], 1e-10),
                f"R={radius}: competitor energy {row[5]!r} vs direct sum {e_psi!r}")
        require(row[5] >= row[4], f"R={radius}: competitor below the minimum")


def density_volumes(cfg, rep, kernels, results, rng):
    require(len(kernels) == len(results) == 1, "one minimization")
    kern, res = kernels[0], results[0]
    lat = kern.lattice
    rad = checks.radius_of_cells(lat)
    above = res.field.values > cfg.theta_star
    trace = rep["results"]["trace_theta_star"]
    for radius, vol in zip(cfg.radii, trace["volumes"]):
        mine = float(np.count_nonzero(above & (rad < radius))) * lat.cell_volume
        require(mine == vol, f"V({radius}) = {vol} but the field gives {mine}")


def density_floor(cfg, rep, kernels, results, rng):
    trace = rep["results"]["trace_theta_star"]
    for radius, vol in zip(cfg.radii, trace["volumes"]):
        ratio = vol / radius ** cfg.dim
        require(ratio >= DENSITY_FLOOR,
                f"V(R)/R^n = {ratio:.4f} below pi/8 at R={radius}")


def density_doubling(cfg, rep, kernels, results, rng):
    vols = rep["results"]["trace_theta_star"]["volumes"]
    consts = [r ** (2.0 * cfg.s) * vols[i] ** ((cfg.dim - 2.0 * cfg.s) / cfg.dim)
              / vols[cfg.radii.index(2.0 * r)]
              for i, r in enumerate(cfg.radii) if 2.0 * r in cfg.radii]
    require(len(consts) == 2, "two doubling pairs in the radii")
    c_emp = max(consts)
    require(math.isfinite(c_emp) and c_emp > 0.0, "doubling constant not finite")
    require(close(c_emp, rep["results"]["doubling_constant"], 1e-12),
            "reported doubling constant differs from the volumes")


# -- geometry -------------------------------------------------------------------


def _gmt_inputs(cfg, kernels):
    lat = Lattice(2, cfg.h, (0, 0), (cfg.box_cells, cfg.box_cells))
    gen = np.random.default_rng(cfg.seed)
    pairs = [setgeom.random_disjoint_pair(
        lat, gen, b_fraction=cfg.b_fractions[i % len(cfg.b_fractions)],
        max_rects=cfg.max_rects) for i in range(cfg.corpus_size)]
    by_s = {k.s: k for k in kernels if k.lattice == lat}
    require(sorted(by_s) == sorted(cfg.s_list), "one kernel per exponent")
    return pairs, by_s


def gmt_ratios(cfg, rep, kernels, results, rng):
    rows = rep["series_rows"]
    require(len(rows) == cfg.corpus_size * len(cfg.s_list) * len(cfg.c_probes),
            "one row per case, exponent and probe")
    for row in rows:
        require(row[10] > 0.0 and close(row[10], row[8] / row[9], 1e-15),
                f"case {row[0]}: ratio is not interaction / bound")


def gmt_pair_mass(cfg, rep, kernels, results, rng):
    pairs, by_s = _gmt_inputs(cfg, kernels)
    rows = rep["series_rows"]
    for case in np.sort(rng.choice(cfg.corpus_size, size=3, replace=False)):
        A, B = pairs[case]
        D = A.union(B).complement()
        for s, kern in by_s.items():
            mass = checks.histogram_pair_mass(kern.table, A.members, D.members)
            mass += math.fsum(kern.tail_weights[A.members].tolist())
            for row in rows:
                if row[0] == case and row[1] == s:
                    require(close(row[8], mass, 1e-12),
                            f"case {case} s={s}: interaction {row[8]!r} vs "
                            f"offset histogram {mass!r}")


def gmt_symmetry(cfg, rep, kernels, results, rng):
    pairs, by_s = _gmt_inputs(cfg, kernels)
    kern = by_s[cfg.s_list[0]]
    for case in np.sort(rng.choice(cfg.corpus_size, size=3, replace=False)):
        A, B = pairs[case]
        D = A.union(B).complement()
        require(setgeom.L_interaction(kern, A, D) == setgeom.L_interaction(kern, D, A),
                f"case {case}: L(A, D) != L(D, A)")


def sobolev_closed_form(cfg, rep, kernels, results, rng):
    lhs = rep["results"]["center_lhs"]
    theory = 2.0 * math.pi * cfg.sobolev_radius ** (-2.0 * cfg.s) / (2.0 * cfg.s)
    require(abs(lhs / theory - 1.0) < cfg.sobolev_rtol,
            f"centre-cell integral {lhs:.6g} vs closed form {theory:.6g}")


def sobolev_corpus(cfg, rep, kernels, results, rng):
    res, rows = rep["results"], rep["series_rows"]
    require(len(rows) == cfg.sobolev_count, "one row per corpus set")
    require(all(r[1] == res["ball_count"] for r in rows),
            "corpus sets do not match the ball's cell count")
    corpus_min = min(r[3] for r in rows)
    require(corpus_min == res["corpus_min"] == rows[-1][4],
            "corpus minimum differs from the rows")
    require(res["ball_constant"] <= cfg.sobolev_margin * corpus_min,
            "ball constant above the corpus minimum")


# -- barrier ----------------------------------------------------------------------


def _barrier_setup(cfg, rep):
    spec = rep["results"]["spec"]
    prof = checks.RadialProfile(spec["r"], spec["s"])
    radii = spec["big_r"] * (np.arange(1, cfg.check_samples + 1) - 0.5) \
        / cfg.check_samples
    w = (2.0 - spec["beta"]) * prof.v(radii / spec["c_o"]) + spec["beta"] - 1.0
    return spec, prof, radii, w


def barrier_c5(cfg, rep, kernels, results, rng):
    spec, prof, _, _ = _barrier_setup(cfg, rep)
    c5 = checks.c5_estimate(prof, cfg.barrier_samples)
    require(close(c5, spec["c5"], 1e-6), f"C5 {spec['c5']!r} vs {c5!r}")


def barrier_al1(cfg, rep, kernels, results, rng):
    # operator w against tau (1 + w) at the midpoint radii of B_R
    spec, prof, radii, w = _barrier_setup(cfg, rep)
    s, c_o = spec["s"], spec["c_o"]
    lhs = np.array([(2.0 - spec["beta"]) * c_o ** (-2.0 * s)
                    * checks.pv_operator(prof, float(x / c_o)) for x in radii])
    ratio = lhs / (cfg.tau * (1.0 + w))
    fraction = 1.0 - np.count_nonzero(ratio > 1.0 + cfg.al1_slack) / len(radii)
    al1 = rep["results"]["al1"]
    require(fraction >= cfg.al1_min_fraction,
            f"al1 fraction {fraction:.4f} below {cfg.al1_min_fraction}")
    require(abs(fraction - al1["fraction_passing"]) <= 1.0 / len(radii),
            f"al1 fraction {al1['fraction_passing']} vs {fraction}")
    require(close(float(ratio.max()), al1["worst_ratio"], 1e-6),
            f"al1 worst ratio {al1['worst_ratio']!r} vs {ratio.max()!r}")


def barrier_al2(cfg, rep, kernels, results, rng):
    # the profile rows sit at the al2 sample radii
    spec, _, radii, w = _barrier_setup(cfg, rep)
    rows = np.asarray(rep["series_rows"], dtype=float)
    require(np.allclose(rows[:, 0], radii, rtol=1e-15, atol=0.0),
            "profile rows off the sample radii")
    require(np.allclose(rows[:, 2], w, rtol=0.0, atol=1e-12),
            "profile w differs from the barrier definition")
    q = (1.0 + rows[:, 2]) * (spec["big_r"] + 1.0 - rows[:, 0]) ** (2.0 * spec["s"])
    al2 = rep["results"]["al2"]
    require(close(float(q.max() / q.min()), al2["ratio"], 1e-12),
            "al2 ratio differs from the profile rows")
    require(al2["ratio"] < cfg.al2_ratio_max, f"al2 ratio {al2['ratio']:.3f}")


def barrier_exterior(cfg, rep, kernels, results, rng):
    spec = rep["results"]["spec"]
    outside = spec["big_r"] * (1.0 + rng.uniform(0.0, 3.0, 64))
    w_out = bar.eval_w(bar.BarrierSpec(s=spec["s"], tau=spec["tau"], r=spec["r"],
                                       c5=spec["c5"], dim=spec["dim"]), outside)
    require(bool(np.all(w_out == 1.0)), "w != 1 outside B_R")


# -- the workloads -------------------------------------------------------------------


GROWTH_CHECKS = (growth_exponent, growth_competitor, minimizer_traces,
                 minimizer_stationarity)
DENSITY_CHECKS = (density_volumes, density_floor, density_doubling,
                  minimizer_traces, minimizer_stationarity)
GMT_CHECKS = (gmt_ratios, gmt_pair_mass, gmt_symmetry)
SOBOLEV_CHECKS = (sobolev_closed_form, sobolev_corpus)
BARRIER_CHECKS = (barrier_c5, barrier_al1, barrier_al2, barrier_exterior)


def operations(workload: str, seed: int):
    """(name, runner, config, checks) per operation, in round order.

    ``seed`` draws the Sobolev corpus and every sampled cell, case and
    radius the checks use.  The gmt corpus stays at the acceptance seed
    because its pair count, and so its cost, moves with the seed.
    """
    if workload == "minimize":
        ops = [(f"growth-s{s}", "run_energy_growth", ExperimentConfig(
            experiment="energy-growth", s=s, dim=1, h=0.25, radii=GROWTH_RADII,
            max_iters=5000), GROWTH_CHECKS) for s in (0.25, 0.5, 0.75)]
        ops.append(("density", "run_density", ExperimentConfig(
            experiment="density", s=0.25, dim=2, h=0.53125,
            radii=(8.0, 16.0, 32.0), theta1=0.0, theta2=0.0, theta_star=0.0,
            density_floor=DENSITY_FLOOR, max_iters=4000), DENSITY_CHECKS))
        return ops
    if workload == "bounds":
        return [
            ("gmt", "run_gmt_suite", ExperimentConfig(
                experiment="gmt", dim=2, h=1.0, s=0.25,
                s_list=(0.25, 0.5, 0.75), corpus_size=50, box_cells=32,
                b_fractions=(0.02, 0.5), refine=True, refine_cases=10,
                refine_rtol=0.05, seed=GMT_SEED), GMT_CHECKS),
            ("sobolev", "run_sobolev_suite", ExperimentConfig(
                experiment="sobolev", dim=2, h=0.4, s=0.25,
                sobolev_center=0.2, sobolev_radius=1.0, sobolev_extent=12.0,
                sobolev_count=100, sobolev_rtol=0.01, sobolev_margin=1.05,
                seed=seed), SOBOLEV_CHECKS),
            ("barrier", "run_barrier", ExperimentConfig(
                experiment="barrier", s=0.5, dim=1, h=1.0, tau=0.1,
                barrier_r=400.0, barrier_samples=256, check_samples=512),
                BARRIER_CHECKS),
        ]
    raise ValueError(f"unknown workload {workload!r}")
