"""Experiment drivers: minimize, measure, fit, and judge.

Each run_* function takes an ExperimentConfig and returns an
ExperimentReport whose deterministic sections (config echo, results,
criteria, series) depend only on the config.  Independent sweep points
(radii, epsilons, corpus cases) execute on a thread pool; results merge
in sweep order, so thread count never changes a report.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import barrier as bar
from .. import setgeom
from ..energies import energy_E
from ..kernels import build_kernel, load_kernel
from ..lattice import (
    CellSet,
    ConstantExterior,
    HalfspaceExterior,
    Lattice,
    ball_mask,
    psi_field,
)
from ..minimize import MinimizeConfig, initial_field, minimize_energy
from ..potential import Quartic, Tabulated
from .config import ExperimentConfig
from .iterate import check_iteration_lemma
from .report import Criterion, ExperimentReport

__all__ = [
    "DensityTrace",
    "run_barrier",
    "run_density",
    "run_energy_growth",
    "run_gmt_suite",
    "run_iterate",
    "run_kernel_cache",
    "run_levelset_convergence",
    "run_sobolev_suite",
]

_SNAP = 1e-9  # relative tolerance for matching swept radii


@dataclass(frozen=True)
class DensityTrace:
    """Measured volume of a superlevel set against the ball radius."""

    threshold: float
    radii: tuple[float, ...]
    volumes: tuple[float, ...]
    ratios: tuple[float, ...]

    def __post_init__(self):
        if any(b < a for a, b in zip(self.volumes, self.volumes[1:])):
            raise ValueError("volumes must be nondecreasing in the radius")

    def to_json(self) -> dict:
        return {
            "threshold": self.threshold,
            "radii": list(self.radii),
            "volumes": list(self.volumes),
            "ratios": list(self.ratios),
        }


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _potential(cfg: ExperimentConfig):
    if cfg.potential == "quartic":
        return Quartic(cfg.amplitude)
    return Tabulated.from_csv(cfg.potential_csv)


def _exterior(cfg: ExperimentConfig):
    if cfg.exterior == "halfspace":
        return HalfspaceExterior(cfg.exterior_axis, cfg.exterior_threshold)
    return ConstantExterior(cfg.exterior_value)


def _minimize_cfg(cfg: ExperimentConfig) -> MinimizeConfig:
    return MinimizeConfig(
        max_iters=cfg.max_iters,
        grad_tol=cfg.grad_tol,
        energy_tol=cfg.energy_tol,
        seed=cfg.seed_kind,
    )


def _build_kernel(cfg: ExperimentConfig, lat: Lattice, s: float):
    return build_kernel(
        lat, s, near_radius=cfg.near_radius, quad_tol=cfg.quad_tol,
        cache_dir=cfg.cache_dir or None,
    )


def _parallel(fn, items, threads: int) -> list:
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _center_value(values: np.ndarray, lat: Lattice) -> float:
    idx = lat.point_to_index(np.zeros(lat.dim))
    pos = tuple(int(idx[a]) - lat.lo[a] for a in range(lat.dim))
    return float(values[pos])


def _meta(cfg: ExperimentConfig, t0: float, **extra) -> dict:
    meta = {"wall_clock_s": time.perf_counter() - t0, "threads": cfg.threads}
    meta.update(extra)
    return meta


def _fit_line(x: np.ndarray, y: np.ndarray):
    """Least-squares line; returns slope, intercept, residuals, slope CI."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    m = len(x)
    if m > 2:
        ssr = float(np.dot(resid, resid))
        sxx = float(np.dot(x - x.mean(), x - x.mean()))
        se = math.sqrt(ssr / (m - 2) / sxx) if sxx > 0 else math.inf
    else:
        se = math.inf
    return float(slope), float(intercept), resid, 2.0 * se


# ---------------------------------------------------------------------------
# energy growth
# ---------------------------------------------------------------------------


def run_energy_growth(cfg: ExperimentConfig) -> ExperimentReport:
    """Sweep ball radii, minimize with fixed exterior data, fit E against R.

    For each R the energy is minimized over B_{R+2} and reported on B_R,
    alongside the two-interface comparison profile whose energy bounds the
    minimum from above.  Away from s = 1/2 the fit is a log-log line with
    the smallest radius dropped; at s = 1/2 the series E / (R^{n-1} log R)
    is checked for stability across the two largest radii.
    """
    if len(cfg.radii) < 4:
        raise ValueError(f"need at least 4 radii, got {len(cfg.radii)}")
    t0 = time.perf_counter()
    pot = _potential(cfg)
    ext = _exterior(cfg)
    mcfg = _minimize_cfg(cfg)

    def solve(radius: float):
        lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, radius + 2.0)
        kern = _build_kernel(cfg, lat, cfg.s)
        omega = ball_mask(lat, 0.0, radius + 2.0)
        res = minimize_energy(kern, pot, initial_field(lat, ext, cfg.seed_kind),
                              omega, mcfg)
        e_ball = energy_E(kern, pot, res.field, ball_mask(lat, 0.0, radius))
        psi = psi_field(lat, radius)
        e_psi = energy_E(kern, pot, psi, omega)
        return res, e_ball, e_psi, lat.n_cells

    solved = _parallel(solve, list(cfg.radii), cfg.threads)

    columns = ["R", "n_cells", "converged", "iterations",
               "energy_ball", "energy_competitor"]
    rows = []
    usable: list[tuple[float, float, float]] = []
    excluded: list[float] = []
    for radius, (res, e_ball, e_psi, n_cells) in zip(cfg.radii, solved):
        rows.append([radius, n_cells, res.converged, res.iterations,
                     e_ball, e_psi])
        # a vanishing ball energy has no log and cannot enter a power fit
        if res.converged and e_ball > 0:
            usable.append((radius, e_ball, e_psi))
        else:
            excluded.append(radius)

    n = cfg.dim
    theory = n - 2.0 * cfg.s if cfg.s < 0.5 else n - 1.0
    criteria: list[Criterion] = []
    results: dict = {
        "theory_exponent": theory,
        "excluded_radii": excluded,
        "used_radii": [r for r, _, _ in usable],
    }

    if len(usable) < 4:
        criteria.append(Criterion(
            "usable-points", False,
            f"{len(usable)} converged radii of {len(cfg.radii)}, need 4"))
        results["fitted_exponent"] = None
        return ExperimentReport(
            experiment="energy-growth", config=cfg.to_flat_dict(),
            results=results, criteria=criteria, series_columns=columns,
            series_rows=rows, meta=_meta(cfg, t0))
    criteria.append(Criterion(
        "usable-points", True, f"{len(usable)} converged radii"))

    margins = [e_psi - e_ball for _, e_ball, e_psi in usable]
    worst = min(margins)
    criteria.append(Criterion(
        "competitor-dominates", worst >= 0.0,
        f"min competitor margin {worst:.6g}"))
    results["competitor_margin_min"] = worst

    fit_pts = usable[1:]  # smallest radius carries the boundary layer
    if cfg.s != 0.5:
        lr = np.log([r for r, _, _ in fit_pts])
        le = np.log([e for _, e, _ in fit_pts])
        slope, intercept, resid, ci = _fit_line(lr, le)
        max_resid = float(np.max(np.abs(resid)))
        results.update({
            "fitted_exponent": slope,
            "exponent_ci_halfwidth": ci,
            "intercept": intercept,
            "max_fit_residual": max_resid,
        })
        criteria.append(Criterion(
            "exponent-bound", slope <= theory + cfg.slope_tol,
            f"fitted {slope:.4f} vs theory {theory:.4f} + {cfg.slope_tol}"))
        criteria.append(Criterion(
            "fit-residuals", max_resid < 0.2,
            f"max log-log residual {max_resid:.4f}"))
    else:
        norm = [e / (r ** (n - 1) * math.log(r)) for r, e, _ in fit_pts]
        results["fitted_exponent"] = None
        results["log_normalized"] = norm
        dev = abs(norm[-1] / norm[-2] - 1.0)
        results["log_normalized_dev"] = dev
        criteria.append(Criterion(
            "log-band", dev < cfg.half_band,
            f"E/(R^{n - 1} log R) moved {dev:.4f} across the top radii"))

    return ExperimentReport(
        experiment="energy-growth", config=cfg.to_flat_dict(),
        results=results, criteria=criteria, series_columns=columns,
        series_rows=rows, meta=_meta(cfg, t0))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def _volume_trace(values: np.ndarray, lat: Lattice, radii, threshold: float,
                  dim: int) -> DensityTrace:
    above = values > threshold
    vols = []
    ratios = []
    for radius in radii:
        mask = ball_mask(lat, 0.0, radius).members & above
        vol = float(np.count_nonzero(mask)) * lat.cell_volume
        vols.append(vol)
        ratios.append(vol / radius ** dim)
    return DensityTrace(threshold=threshold, radii=tuple(radii),
                        volumes=tuple(vols), ratios=tuple(ratios))


def run_density(cfg: ExperimentConfig) -> ExperimentReport:
    """Minimize once on the largest ball, then trace superlevel volumes.

    Reports V(R) and V(R)/R^n for the two configured thresholds, the
    empirical doubling constant, and, where the exponents allow, feeds
    the measured trace through the growth-iteration checker.
    """
    if not cfg.radii:
        raise ValueError("radii must be nonempty")
    t0 = time.perf_counter()
    r_max = cfg.radii[-1]
    lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, r_max + 2.0)
    kern = _build_kernel(cfg, lat, cfg.s)
    pot = _potential(cfg)
    ext = _exterior(cfg)
    res = minimize_energy(kern, pot, initial_field(lat, ext, cfg.seed_kind),
                          ball_mask(lat, 0.0, r_max + 2.0), _minimize_cfg(cfg))
    values = res.field.values

    criteria: list[Criterion] = [
        Criterion("minimized", res.converged,
                  f"{res.iterations} iterations, {res.message}")]
    u0 = _center_value(values, lat)
    applicable = u0 > cfg.theta1
    status = "ok" if applicable else "inapplicable"
    criteria.append(Criterion(
        "interior-datum", applicable,
        f"u(0) = {u0:.6g} vs theta1 = {cfg.theta1}" +
        ("" if applicable else "; run inapplicable")))

    trace2 = _volume_trace(values, lat, cfg.radii, cfg.theta2, cfg.dim)
    trace_star = _volume_trace(values, lat, cfg.radii, cfg.theta_star, cfg.dim)
    criteria.append(Criterion("trace-monotone", True, "exact by construction",
                              vacuous=True))

    r_floor = cfg.density_r_floor if cfg.density_r_floor > 0 else cfg.radii[0]
    floored = [q for r, q in zip(trace_star.radii, trace_star.ratios)
               if r >= r_floor * (1.0 - _SNAP)]
    min_ratio = min(floored) if floored else 0.0
    criteria.append(Criterion(
        "density-floor", min_ratio > cfg.density_floor,
        f"min V(R)/R^{cfg.dim} = {min_ratio:.6g} vs floor {cfg.density_floor}"))

    radii = np.asarray(cfg.radii, dtype=float)
    vols = np.asarray(trace_star.volumes, dtype=float)
    doubling = []
    for i, r in enumerate(radii):
        j = np.nonzero(np.abs(radii - 2.0 * r) <= 2.0 * r * _SNAP)[0]
        if j.size and vols[i] > 0:
            lhs = r ** (2.0 * cfg.s) * vols[i] ** ((cfg.dim - 2.0 * cfg.s) / cfg.dim)
            doubling.append((float(r), lhs, float(vols[j[0]])))
    if doubling:
        positive = all(v2 > 0 for _, _, v2 in doubling)
        c_emp = max(lhs / v2 for _, lhs, v2 in doubling) if positive else math.inf
        criteria.append(Criterion(
            "doubling", positive and math.isfinite(c_emp),
            f"empirical constant {c_emp:.6g} over {len(doubling)} pairs"))
        results_doubling = c_emp
    else:
        results_doubling = None

    iteration = None
    note = None
    sigma = 2.0 * cfg.s if cfg.s < 0.5 else 1.0
    nu = float(cfg.dim)
    if nu <= sigma:
        note = f"exponent order needs nu > sigma, got nu={nu} sigma={sigma}"
    elif np.any(vols <= 0):
        note = "zero superlevel volume in the trace"
    else:
        second = [r for r in radii if r > 1.0]
        if not second:
            note = "no radius above 1"
        else:
            r_o = float(second[0])
            mu = float(vols[np.nonzero(radii == r_o)[0][0]])
            ratios = []
            for r, _, v2 in doubling:
                vr = float(vols[np.nonzero(radii == r)[0][0]])
                alpha = min(1.0, math.log(vr) / math.log(r)) if r > 1 else 1.0
                lhs = r ** sigma * alpha * vr ** ((nu - sigma) / nu)
                ratios.append(lhs / v2)
            if not ratios:
                note = "no doubling pairs in the radii sweep"
            else:
                growth_c = max(1.0 + 1e-6, max(ratios) * (1.0 + 1e-6))
                iteration = check_iteration_lemma(
                    list(zip(radii, vols)), sigma, nu, 2.0, growth_c, r_o, mu)
                detail = (
                    f"c={iteration.c:.4g} r_star={iteration.r_star:.4g} "
                    f"tested {iteration.conclusion_count}"
                    if iteration.hypotheses_hold else
                    f"{iteration.failed_hypothesis} at r={iteration.violating_r}")
                criteria.append(Criterion(
                    "growth-iteration", iteration.passed, detail,
                    vacuous=iteration.hypotheses_hold
                    and not iteration.conclusion_tested))

    columns = ["R", "volume_theta2", "ratio_theta2",
               "volume_theta_star", "ratio_theta_star"]
    rows = [[r, v2, q2, vs, qs] for r, v2, q2, vs, qs in zip(
        cfg.radii, trace2.volumes, trace2.ratios,
        trace_star.volumes, trace_star.ratios)]
    results = {
        "status": status,
        "u_center": u0,
        "trace_theta2": trace2.to_json(),
        "trace_theta_star": trace_star.to_json(),
        "doubling_constant": results_doubling,
        "min_ratio": min_ratio,
        "iteration": iteration.to_json() if iteration else None,
        "iteration_note": note,
    }
    return ExperimentReport(
        experiment="density", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0, n_cells=lat.n_cells))


# ---------------------------------------------------------------------------
# level-set convergence
# ---------------------------------------------------------------------------


def run_levelset_convergence(cfg: ExperimentConfig) -> ExperimentReport:
    """Shrink eps and watch the |u| <= theta band collapse onto the interface.

    Each eps is realized by minimizing the unscaled energy on a ball of
    radius levelset_radius / eps; distances are measured in lattice cells
    against the exterior-data hyperplane and also reported in rescaled
    units (cells * h * eps).
    """
    if len(cfg.eps) < 2:
        raise ValueError(f"need at least 2 eps values, got {len(cfg.eps)}")
    if any(b >= a for a, b in zip(cfg.eps, cfg.eps[1:])):
        raise ValueError(f"eps must be strictly decreasing, got {cfg.eps}")
    t0 = time.perf_counter()
    pot = _potential(cfg)
    ext = _exterior(cfg)
    mcfg = _minimize_cfg(cfg)
    has_interface = cfg.exterior == "halfspace"

    def solve(eps: float):
        box_r = cfg.levelset_radius / eps
        lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, box_r + 2.0)
        kern = _build_kernel(cfg, lat, cfg.s)
        res = minimize_energy(kern, pot, initial_field(lat, ext, cfg.seed_kind),
                              None, mcfg)
        band = (np.abs(res.field.values) <= cfg.levelset_theta) \
            & ball_mask(lat, 0.0, box_r).members
        count = int(np.count_nonzero(band))
        if count and has_interface:
            coord = np.broadcast_to(
                lat.center_grids()[cfg.exterior_axis], lat.shape)
            d_phys = float(np.max(
                np.abs(coord[band] - cfg.exterior_threshold)))
        else:
            d_phys = None
        return res, lat.n_cells, count, d_phys

    solved = _parallel(solve, list(cfg.eps), cfg.threads)

    columns = ["eps", "box_radius", "n_cells", "converged", "iterations",
               "band_cells", "distance_phys", "distance_cells",
               "distance_rescaled"]
    rows = []
    series: list[tuple[float, float | None]] = []
    excluded = []
    for eps, (res, n_cells, count, d_phys) in zip(cfg.eps, solved):
        d_cells = d_phys / cfg.h if d_phys is not None else None
        d_scaled = d_phys * eps if d_phys is not None else None
        rows.append([eps, cfg.levelset_radius / eps, n_cells, res.converged,
                     res.iterations, count, d_phys, d_cells, d_scaled])
        if res.converged:
            series.append((eps, d_cells))
        else:
            excluded.append(eps)

    criteria: list[Criterion] = []
    results: dict = {"excluded_eps": excluded}
    measured = [(e, d) for e, d in series if d is not None]
    vacuous = [e for e, d in series if d is None]
    if not has_interface:
        empty = all(d is None for _, d in series)
        criteria.append(Criterion(
            "band-empty", empty,
            "no interface declared; containment vacuous" if empty else
            f"level band nonempty at eps={[e for e, d in series if d is not None]}"))
        results["distances_cells"] = None
    else:
        bad = [e for e in vacuous]
        if bad:
            criteria.append(Criterion(
                "band-present", False, f"empty level band at eps={bad}"))
        elif len(measured) < 2:
            criteria.append(Criterion(
                "usable-points", False,
                f"{len(measured)} converged eps of {len(cfg.eps)}, need 2"))
        else:
            dists = [d for _, d in measured]
            worst_rise = max(b - a for a, b in zip(dists, dists[1:]))
            criteria.append(Criterion(
                "distance-nonincreasing",
                worst_rise <= cfg.levelset_tol_cells,
                f"max rise {worst_rise:.4g} cells vs tol {cfg.levelset_tol_cells}"))
            criteria.append(Criterion(
                "final-distance", dists[-1] <= cfg.delta_cells,
                f"final band reaches {dists[-1]:.4g} cells vs {cfg.delta_cells}"))
            results["distances_cells"] = dists
    return ExperimentReport(
        experiment="levelset", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0))


# ---------------------------------------------------------------------------
# interaction-geometry suite
# ---------------------------------------------------------------------------


def _refine_lattice(lat: Lattice) -> Lattice:
    return Lattice(lat.dim, lat.h / 2.0,
                   tuple(2 * v for v in lat.lo), tuple(2 * v for v in lat.hi))


def _refine_set(cells: CellSet, fine: Lattice) -> CellSet:
    mask = cells.members
    for axis in range(cells.lattice.dim):
        mask = np.repeat(mask, 2, axis=axis)
    return CellSet(fine, mask)


def run_gmt_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Batch the disjoint-pair interaction bound over a random corpus.

    Every case is checked at each probe fraction and exponent; the report
    aggregates the minimum ratio per regime.  Optionally the first cases
    are re-run at half the lattice spacing to confirm the ratios are
    resolution-stable.
    """
    if cfg.corpus_size < 1:
        raise ValueError(f"corpus_size must be >= 1, got {cfg.corpus_size}")
    t0 = time.perf_counter()
    lat = Lattice(2, cfg.h, (0, 0), (cfg.box_cells, cfg.box_cells)) \
        if cfg.dim == 2 else Lattice(1, cfg.h, (0,), (cfg.box_cells,))
    rng = np.random.default_rng(cfg.seed)
    fractions = cfg.b_fractions or (0.05,)
    pairs = []
    for i in range(cfg.corpus_size):
        frac = fractions[i % len(fractions)]
        a_set, b_set = setgeom.random_disjoint_pair(
            lat, rng, b_fraction=frac, max_rects=cfg.max_rects)
        pairs.append((frac, a_set, b_set))

    s_values = cfg.s_list or (cfg.s,)
    columns = ["case", "s", "c_probe", "regime", "s_branch", "measure_a",
               "measure_b", "b_floored", "interaction", "bound", "ratio"]
    rows: list[list] = []
    minima: dict[str, float] = {}
    kernels = {}
    for s in s_values:
        kern = _build_kernel(cfg, lat, s)
        kernels[s] = kern

        def case_rows(item, s=s, kern=kern):
            i, (frac, a_set, b_set) = item
            out = []
            for probe in cfg.c_probes:
                rep = setgeom.check_gmt(kern, a_set, b_set, c_probe=probe)
                out.append([i, s, probe, rep.regime, rep.s_branch,
                            rep.measure_a, rep.measure_b, rep.b_floored,
                            rep.interaction, rep.bound, rep.ratio])
            return out

        for chunk in _parallel(case_rows, list(enumerate(pairs)), cfg.threads):
            for row in chunk:
                rows.append(row)
                key = f"s={row[1]}|probe={row[2]}|{row[3]}"
                minima[key] = min(minima.get(key, math.inf), row[10])

    min_ratio = min(r[10] for r in rows)
    criteria = [Criterion(
        "ratios-positive", min_ratio > 0.0,
        f"min ratio {min_ratio:.6g} over {len(rows)} checks")]
    results: dict = {
        "per_regime_min": {k: minima[k] for k in sorted(minima)},
        "min_ratio": min_ratio,
    }

    if cfg.refine:
        refine_s = next((s for s in s_values if s < 0.5), None)
        if refine_s is None:
            criteria.append(Criterion(
                "refinement-stable", True, "no exponent below 1/2 to refine"))
        else:
            fine = _refine_lattice(lat)
            fkern = _build_kernel(cfg, fine, refine_s)
            probe = cfg.c_probes[len(cfg.c_probes) // 2]

            def refined_dev(item):
                frac, a_set, b_set = item
                coarse = setgeom.check_gmt(kernels[refine_s], a_set, b_set,
                                           c_probe=probe)
                refined = setgeom.check_gmt(
                    fkern, _refine_set(a_set, fine), _refine_set(b_set, fine),
                    c_probe=probe)
                if coarse.b_floored or refined.b_floored:
                    return None  # the floor is resolution-dependent
                return abs(refined.ratio / coarse.ratio - 1.0)

            devs = [d for d in _parallel(
                refined_dev, pairs[: cfg.refine_cases], cfg.threads)
                if d is not None]
            worst = max(devs) if devs else 0.0
            criteria.append(Criterion(
                "refinement-stable", worst < cfg.refine_rtol,
                f"max ratio drift {worst:.4%} over {len(devs)} cases "
                f"at s={refine_s}, probe={probe}"))
            results["refinement_max_dev"] = worst

    return ExperimentReport(
        experiment="gmt", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0),
        extra_files={"corpus_manifest.json": {
            "seed": cfg.seed, "corpus_size": cfg.corpus_size,
            "box_cells": cfg.box_cells, "h": cfg.h, "dim": cfg.dim,
            "b_fractions": list(fractions), "max_rects": cfg.max_rects,
            "cases": [{"b_fraction": f, "count_a": a.count, "count_b": b.count}
                      for f, a, b in pairs],
        }})


# ---------------------------------------------------------------------------
# complement-integral suite
# ---------------------------------------------------------------------------


def _sharp_constant(kern, cells: CellSet) -> tuple[float, tuple]:
    """Smallest per-cell constant over the set and its attaining cell."""
    lat = cells.lattice
    best = math.inf
    best_idx: tuple = ()
    for pos in np.argwhere(cells.members):
        idx = tuple(int(pos[a]) + lat.lo[a] for a in range(lat.dim))
        c = setgeom.sobolev_set_bound(kern, cells, idx).constant
        if c < best:
            best = c
            best_idx = idx
    return best, best_idx


def run_sobolev_suite(cfg: ExperimentConfig) -> ExperimentReport:
    """Complement-integral lower bound: ball identity plus a random corpus.

    Checks the kernel integral seen from the ball center against the
    closed-form value, then draws equal-count random sets and verifies
    the ball's sharp constant sits at (or within a margin of) the corpus
    minimum.
    """
    if cfg.sobolev_count < 1:
        raise ValueError(f"sobolev_count must be >= 1, got {cfg.sobolev_count}")
    t0 = time.perf_counter()
    center = np.full(cfg.dim, cfg.sobolev_center)
    lat = Lattice.covering_ball(cfg.dim, cfg.h, center, cfg.sobolev_extent)
    kern = _build_kernel(cfg, lat, cfg.s)

    ball = ball_mask(lat, center, cfg.sobolev_radius)
    x_idx = tuple(int(v) for v in lat.point_to_index(center))
    rep_center = setgeom.sobolev_set_bound(kern, ball, x_idx)
    rho = cfg.sobolev_radius
    solid_angle = 2.0 if cfg.dim == 1 else 2.0 * math.pi
    theory = solid_angle * rho ** (-2.0 * cfg.s) / (2.0 * cfg.s)
    dev = abs(rep_center.lhs / theory - 1.0)
    criteria = [Criterion(
        "point-value", dev < cfg.sobolev_rtol,
        f"center-cell integral {rep_center.lhs:.6g} vs closed form "
        f"{theory:.6g} ({dev:.4%})")]

    ball_const, _ = _sharp_constant(kern, ball)
    rng = np.random.default_rng(cfg.seed)
    corpus = [setgeom.random_equal_count_set(lat, rng, ball.count)
              for _ in range(cfg.sobolev_count)]
    per_case = _parallel(lambda cells: _sharp_constant(kern, cells),
                         corpus, cfg.threads)

    columns = ["case", "count", "best_cell", "constant", "running_min"]
    rows = []
    running = math.inf
    for i, (const, idx) in enumerate(per_case):
        running = min(running, const)
        rows.append([i, corpus[i].count, ":".join(map(str, idx)),
                     const, running])
    corpus_min = running
    criteria.append(Criterion(
        "ball-extremal", ball_const <= cfg.sobolev_margin * corpus_min,
        f"ball constant {ball_const:.6g} vs corpus min {corpus_min:.6g} "
        f"(margin {cfg.sobolev_margin})"))

    results = {
        "center_lhs": rep_center.lhs,
        "closed_form": theory,
        "ball_constant": ball_const,
        "corpus_min": corpus_min,
        "ball_count": ball.count,
    }
    return ExperimentReport(
        experiment="sobolev", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0),
        extra_files={"corpus_manifest.json": {
            "seed": cfg.seed, "corpus_size": cfg.sobolev_count,
            "count_per_set": ball.count, "h": cfg.h, "dim": cfg.dim,
            "extent": cfg.sobolev_extent,
        }})


# ---------------------------------------------------------------------------
# barrier verification
# ---------------------------------------------------------------------------


def run_barrier(cfg: ExperimentConfig) -> ExperimentReport:
    """Build the rescaled barrier and verify its two defining estimates."""
    t0 = time.perf_counter()
    spec = bar.BarrierSpec.from_scale(
        cfg.s, cfg.tau, cfg.barrier_r,
        sample_count=cfg.barrier_samples, dim=cfg.dim)
    lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, spec.big_r + cfg.h)
    al1 = bar.verify_al1(spec, lat, sample_count=cfg.check_samples,
                         slack=cfg.al1_slack,
                         min_fraction=cfg.al1_min_fraction)
    al2 = bar.verify_al2(spec, lat, sample_count=cfg.check_samples)

    outside = spec.big_r * (1.0 + np.arange(1, 33) / 16.0)
    w_out = bar.eval_w(spec, outside)
    exact_one = bool(np.all(w_out == 1.0))

    criteria = [
        Criterion("subsolution-fraction", al1.passed,
                  f"{al1.fraction_passing:.4%} of {al1.sample_count} radii "
                  f"within slack {al1.slack}, worst ratio {al1.worst_ratio:.6g}"),
        Criterion("comparability-ratio", al2.ratio < cfg.al2_ratio_max,
                  f"sup/inf = {al2.ratio:.6g} vs cap {cfg.al2_ratio_max}"),
        Criterion("exterior-identity", exact_one,
                  "w == 1 outside the outer ball, bitwise"),
    ]
    rho = (np.arange(1, cfg.check_samples + 1) - 0.5) \
        * (spec.big_r / cfg.check_samples)
    v_vals = bar.eval_v(rho / spec.c_o, spec.r, spec.s)
    w_vals = bar.eval_w(spec, rho)
    columns = ["radius", "v", "w"]
    rows = [[float(a), float(b), float(c)]
            for a, b, c in zip(rho, v_vals, w_vals)]
    results = {
        "spec": spec.to_json(),
        "al1": al1.to_json(),
        "al2": al2.to_json(),
        "w_exact_outside": exact_one,
    }
    return ExperimentReport(
        experiment="barrier", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0))


# ---------------------------------------------------------------------------
# growth-iteration runner
# ---------------------------------------------------------------------------


def _read_v_csv(path) -> list[tuple[float, float]]:
    import csv as _csv

    out = []
    with open(path, encoding="utf-8") as fh:
        reader = _csv.reader(fh)
        header = next(reader)
        if len(header) < 2:
            raise ValueError(f"{path}: need two columns, got {header}")
        for row in reader:
            if row:
                out.append((float(row[0]), float(row[1])))
    return out


def run_iterate(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the growth-iteration checker on a measured or synthetic trace."""
    t0 = time.perf_counter()
    if cfg.v_csv:
        samples = _read_v_csv(cfg.v_csv)
        source = cfg.v_csv
    elif cfg.v_form == "power":
        samples = [(r, cfg.mu * r ** cfg.nu) for r in cfg.radii]
        source = f"synthetic mu*r^nu over {len(cfg.radii)} radii"
    elif cfg.v_form == "constant":
        samples = [(r, cfg.mu) for r in cfg.radii]
        source = f"synthetic constant mu over {len(cfg.radii)} radii"
    else:
        raise ValueError(f"unknown v_form {cfg.v_form!r}")

    rep = check_iteration_lemma(samples, cfg.sigma, cfg.nu, cfg.gamma,
                                cfg.growth_c, cfg.r_o, cfg.mu)
    if rep.hypotheses_hold:
        hyp_detail = f"{rep.doubling_pairs} doubling pairs checked"
    else:
        hyp_detail = f"{rep.failed_hypothesis} fails at r = {rep.violating_r}"
    if not rep.hypotheses_hold:
        conc_detail = "not reached"
    elif not rep.conclusion_tested:
        conc_detail = f"no sample beyond r_star = {rep.r_star:.6g}; untested"
    elif rep.conclusion_holds:
        conc_detail = (f"V >= {rep.c:.6g} * r^{cfg.nu} on "
                       f"{rep.conclusion_count} samples past {rep.r_star:.6g}")
    else:
        conc_detail = f"fails at r = {rep.conclusion_violating_r}"
    criteria = [
        Criterion("hypotheses", rep.hypotheses_hold, hyp_detail),
        Criterion("conclusion", rep.conclusion_holds is not False, conc_detail,
                  vacuous=rep.hypotheses_hold and not rep.conclusion_tested),
    ]
    return ExperimentReport(
        experiment="iterate", config=cfg.to_flat_dict(),
        results={"source": source, "report": rep.to_json()},
        criteria=criteria, series_columns=["r", "V"],
        series_rows=[[r, v] for r, v in samples],
        meta=_meta(cfg, t0))


# ---------------------------------------------------------------------------
# kernel cache maintenance
# ---------------------------------------------------------------------------


def run_kernel_cache(cfg: ExperimentConfig) -> ExperimentReport:
    """Build the near-field weights, persist them, and verify the roundtrip."""
    t0 = time.perf_counter()
    cache = cfg.cache_dir or os.path.join(cfg.out_dir, "kernel-cache")
    extent = (cfg.near_radius + 8) * cfg.h * 2
    lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, extent)
    kern = build_kernel(lat, cfg.s, near_radius=cfg.near_radius,
                        quad_tol=cfg.quad_tol, cache_dir=cache)
    reloaded = load_kernel(cache, lat, cfg.s, near_radius=cfg.near_radius,
                           quad_tol=cfg.quad_tol)
    roundtrip = (
        reloaded is not None
        and reloaded.near == kern.near
        and np.array_equal(reloaded.table, kern.table)
    )
    criteria = [Criterion(
        "cache-roundtrip", bool(roundtrip),
        f"{len(kern.near)} near weights reload bitwise from {cache}")]
    columns = ["offset", "weight"]
    rows = [[":".join(map(str, off)), kern.near[off]]
            for off in sorted(kern.near)]
    results = {
        "cache_dir": cache,
        "near_count": len(kern.near),
        "switch_gap": kern.switch_gap(),
    }
    return ExperimentReport(
        experiment="kernel-cache", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(cfg, t0))
