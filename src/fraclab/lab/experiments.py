"""Experiment drivers: minimize, measure, fit, and judge.

Each run_* function takes an ExperimentConfig and returns an
ExperimentReport whose deterministic sections (config echo, results,
criteria, series) depend only on the config.  Sweep points (radii,
epsilons, corpus cases) run one after another in sweep order.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .. import barrier as bar
from .. import setgeom
from ..energies import EnergyModel, energy_E
from ..kernels import build_kernel
from ..lattice import (
    CellSet,
    Exterior,
    Lattice,
    ScalarField,
    ball_mask,
    psi_field,
)
from ..minimize import initial_field, minimize_energy
from ..potential import Quartic, Tabulated, check_wcond
from .config import ExperimentConfig, read_pairs_csv
from .iterate import check_iteration_lemma, doubling_quotients
from .report import Criterion, ExperimentReport

__all__ = [
    "run_barrier",
    "run_density",
    "run_energy_growth",
    "run_gmt_suite",
    "run_iterate",
    "run_levelset_convergence",
    "run_sobolev_suite",
]

_LOG_BAND = 0.25  # s = 1/2: largest move of E/(R^(n-1) log R) across the top radii


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------


def _potential(cfg: ExperimentConfig):
    """The quartic well, or the well sampled in potential_csv; amplitude scales either."""
    if not cfg.potential_csv:
        return Quartic(cfg.amplitude)
    ts, ws = zip(*read_pairs_csv(cfg.potential_csv))
    pot = Tabulated(ts, tuple(cfg.amplitude * w for w in ws))
    failed = check_wcond(pot)
    if failed:
        raise ValueError(f"{cfg.potential_csv}: not a double well, "
                         f"{' and '.join(failed)} fails")
    return pot


def _exterior(cfg: ExperimentConfig) -> Exterior:
    return Exterior(cfg.exterior_above, cfg.exterior_below,
                    cfg.exterior_axis, cfg.exterior_threshold)


def _center_value(values: np.ndarray, lat: Lattice) -> float:
    idx = lat.point_to_index(np.zeros(lat.dim))
    pos = tuple(int(idx[a]) - lat.lo[a] for a in range(lat.dim))
    return float(values[pos])


def _sigma(s: float) -> float:
    """The paper's sigma = min(2s, 1): the energy on B_R grows like
    R^(n - sigma), times log R at s = 1/2, and the density run iterates
    with it."""
    return 2.0 * s if s < 0.5 else 1.0


def _meta(t0: float, **extra) -> dict:
    return {"wall_clock_s": time.perf_counter() - t0, **extra}


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
    minimum from above.  The sweep continues from radius to radius: each
    run starts from the exterior data extended inward, overwritten on the
    cells of B_{R+2} that the previous radius's box covers by that
    radius's minimizer.  Away from s = 1/2 the fit is a log-log line with
    the smallest radius dropped; at s = 1/2 the series E / (R^{n-1} log R)
    is checked for stability across the two largest radii.
    """
    if len(cfg.radii) < 4:
        raise ValueError(f"need at least 4 radii, got {len(cfg.radii)}")
    if cfg.s == 0.5 and cfg.radii[1] <= 1.0:
        raise ValueError(f"at s = 1/2 every radius after the first must exceed 1, "
                         f"where log R > 0; got {cfg.radii[1]}")
    t0 = time.perf_counter()
    pot = _potential(cfg)
    ext = _exterior(cfg)

    columns = ["R", "n_cells", "converged", "iterations",
               "energy_ball", "energy_competitor", "grad_norm"]
    rows = []
    usable: list[tuple[float, float, float]] = []
    excluded: list[float] = []
    res = None
    for radius in cfg.radii:
        lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, radius + 2.0)
        kern = build_kernel(lat, cfg.s)
        omega = ball_mask(lat, 0.0, radius + 2.0)
        u0 = initial_field(lat, ext)
        if res is not None:  # the radii increase, so the last box lies inside
            prev = res.field.lattice
            box = tuple(slice(a - b, c - b) for a, c, b in zip(prev.lo, prev.hi, lat.lo))
            vals = u0.values.copy()
            vals[box] = np.where(omega.members[box], res.field.values, vals[box])
            u0 = ScalarField(lat, vals, ext)
        res = minimize_energy(kern, pot, u0, omega, max_iters=cfg.max_iters,
                              grad_tol=cfg.grad_tol)
        e_ball = energy_E(kern, pot, res.field, ball_mask(lat, 0.0, radius))
        e_psi = energy_E(kern, pot, psi_field(lat, radius), omega)
        rows.append([radius, lat.n_cells, res.converged, res.iterations,
                     e_ball, e_psi, res.grad_norm])
        # a vanishing ball energy has no log and cannot enter a power fit
        if res.converged and e_ball > 0:
            usable.append((radius, e_ball, e_psi))
        else:
            excluded.append(radius)

    n = cfg.dim
    theory = n - _sigma(cfg.s)
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
            series_rows=rows, meta=_meta(t0))
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
            "log-band", dev < _LOG_BAND,
            f"E/(R^{n - 1} log R) moved {dev:.4f} across the top radii"))

    return ExperimentReport(
        experiment="energy-growth", config=cfg.to_flat_dict(),
        results=results, criteria=criteria, series_columns=columns,
        series_rows=rows, meta=_meta(t0))


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def _volume_trace(values: np.ndarray, lat: Lattice, radii, threshold: float) -> dict:
    """Volume of {u > threshold} in each ball B_R, and its ratio to R^dim."""
    above = values > threshold
    vols = []
    ratios = []
    for radius in radii:
        mask = ball_mask(lat, 0.0, radius).members & above
        vol = float(np.count_nonzero(mask)) * lat.cell_volume
        vols.append(vol)
        ratios.append(vol / radius ** lat.dim)
    return {"threshold": threshold, "radii": list(radii),
            "volumes": vols, "ratios": ratios}


def run_density(cfg: ExperimentConfig) -> ExperimentReport:
    """Minimize once on the largest ball, then trace superlevel volumes.

    Reports V(R) and V(R)/R^n for the two configured thresholds and, where
    the exponents allow, feeds the theta_star trace through the
    growth-iteration lemma: ``doubling_constant`` is the largest of the
    lemma's doubling quotients (exponent sigma = min(2s, 1)), None where it
    finds no pair or rejects the trace, and growth_c sits just above it.
    """
    if not cfg.radii:
        raise ValueError("radii must be nonempty")
    t0 = time.perf_counter()
    r_max = cfg.radii[-1]
    lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, r_max + 2.0)
    kern = build_kernel(lat, cfg.s)
    pot = _potential(cfg)
    ext = _exterior(cfg)
    res = minimize_energy(kern, pot, initial_field(lat, ext),
                          ball_mask(lat, 0.0, r_max + 2.0),
                          max_iters=cfg.max_iters, grad_tol=cfg.grad_tol)
    values = res.field.values

    criteria: list[Criterion] = [
        Criterion("minimized", res.converged,
                  f"{res.iterations} iterations, {res.message}, grad_norm "
                  f"{res.grad_norm:.3g} vs grad_tol {cfg.grad_tol:g}")]
    u0 = _center_value(values, lat)
    applicable = u0 > cfg.theta1
    status = "ok" if applicable else "inapplicable"
    criteria.append(Criterion(
        "interior-datum", applicable,
        f"u(0) = {u0:.6g} vs theta1 = {cfg.theta1}" +
        ("" if applicable else "; run inapplicable")))

    trace2 = _volume_trace(values, lat, cfg.radii, cfg.theta2)
    trace_star = _volume_trace(values, lat, cfg.radii, cfg.theta_star)

    min_ratio = min(trace_star["ratios"])
    criteria.append(Criterion(
        "density-floor", min_ratio > cfg.density_floor,
        f"min V(R)/R^{cfg.dim} = {min_ratio:.6g} vs floor {cfg.density_floor}"))

    # the iteration starts at the first radius above 1, with mu = V(r_o)
    samples = list(zip(cfg.radii, trace_star["volumes"]))
    r_o, mu = next((p for p in samples if p[0] > 1.0), samples[-1])
    r_o, sigma, nu = float(r_o), _sigma(cfg.s), float(cfg.dim)
    try:
        quotients = doubling_quotients(samples, sigma, nu, 2.0, r_o)
        note = None if quotients else "no doubling pairs in the radii sweep"
    except ValueError as exc:
        quotients, note = [], str(exc)
    c_emp = max((q for _, q in quotients), default=None)
    iteration = None
    if quotients:
        # growth_c >= every quotient, mu = V(r_o) and the volumes of nested
        # balls never drop, so the hypotheses hold and only the conclusion
        # is tested
        growth_c = max(1.0 + 1e-6, c_emp * (1.0 + 1e-6))
        iteration = check_iteration_lemma(samples, sigma, nu, 2.0, growth_c, r_o, mu)
        criteria.append(Criterion(
            "growth-iteration", iteration.passed,
            f"c={iteration.c:.4g} r_star={iteration.r_star:.4g} "
            f"tested {iteration.conclusion_count}",
            vacuous=not iteration.conclusion_tested))

    columns = ["R", "volume_theta2", "ratio_theta2",
               "volume_theta_star", "ratio_theta_star"]
    rows = [[r, v2, q2, vs, qs] for r, v2, q2, vs, qs in zip(
        cfg.radii, trace2["volumes"], trace2["ratios"],
        trace_star["volumes"], trace_star["ratios"])]
    results = {
        "status": status,
        "u_center": u0,
        "trace_theta2": trace2,
        "trace_theta_star": trace_star,
        "doubling_constant": c_emp,
        "min_ratio": min_ratio,
        "iteration": None if iteration is None else iteration.to_json(),
        "iteration_note": note,
    }
    return ExperimentReport(
        experiment="density", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(t0, n_cells=lat.n_cells))


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
    if not all(eps > 0 for eps in cfg.eps):
        raise ValueError(f"eps must be positive, got {cfg.eps}")
    if not cfg.levelset_radius > 0:
        raise ValueError(f"levelset_radius must be positive, got {cfg.levelset_radius}")
    if not 0.0 < cfg.levelset_theta < 1.0:
        raise ValueError(f"levelset_theta must lie in (0, 1), got {cfg.levelset_theta}")
    t0 = time.perf_counter()
    pot = _potential(cfg)
    ext = _exterior(cfg)
    has_interface = ext.above != ext.below

    columns = ["eps", "box_radius", "n_cells", "converged", "iterations",
               "band_cells", "distance_phys", "distance_cells",
               "distance_rescaled", "grad_norm"]
    rows = []
    series: list[tuple[float, float | None]] = []
    excluded = []
    for eps in cfg.eps:
        box_r = cfg.levelset_radius / eps
        lat = Lattice.covering_ball(cfg.dim, cfg.h, 0.0, box_r + 2.0)
        kern = build_kernel(lat, cfg.s)
        res = minimize_energy(kern, pot, initial_field(lat, ext),
                              max_iters=cfg.max_iters, grad_tol=cfg.grad_tol)
        band = (np.abs(res.field.values) <= cfg.levelset_theta) \
            & ball_mask(lat, 0.0, box_r).members
        count = int(np.count_nonzero(band))
        if count and has_interface:
            coord = np.broadcast_to(lat.center_grids()[ext.axis], lat.shape)
            d_phys = float(np.max(np.abs(coord[band] - ext.threshold)))
            d_cells = d_phys / cfg.h
            d_scaled = d_phys * eps
        else:
            d_phys = d_cells = d_scaled = None
        rows.append([eps, box_r, lat.n_cells, res.converged,
                     res.iterations, count, d_phys, d_cells, d_scaled,
                     res.grad_norm])
        if res.converged:
            series.append((eps, d_cells))
        else:
            excluded.append(eps)

    criteria: list[Criterion] = []
    results: dict = {"excluded_eps": excluded}
    measured = [(e, d) for e, d in series if d is not None]
    vacuous = [e for e, d in series if d is None]
    if not has_interface:
        empty = not measured
        criteria.append(Criterion(
            "band-empty", empty,
            "no interface declared; containment vacuous" if empty else
            f"level band nonempty at eps={[e for e, _ in measured]}",
            vacuous=empty))
        results["distances_cells"] = None
    elif vacuous:
        criteria.append(Criterion(
            "band-present", False, f"empty level band at eps={vacuous}"))
    elif len(measured) < 2:
        criteria.append(Criterion(
            "usable-points", False,
            f"{len(measured)} converged eps of {len(cfg.eps)}, need 2"))
    else:
        dists = [d for _, d in measured]
        worst_rise = max(b - a for a, b in zip(dists, dists[1:]))
        criteria.append(Criterion(
            "distance-nonincreasing", worst_rise <= cfg.levelset_tol_cells,
            f"max rise {worst_rise:.4g} cells vs tol {cfg.levelset_tol_cells}"))
        criteria.append(Criterion(
            "final-distance", dists[-1] <= cfg.delta_cells,
            f"final band reaches {dists[-1]:.4g} cells vs {cfg.delta_cells}"))
        results["distances_cells"] = dists
    return ExperimentReport(
        experiment="levelset", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(t0))


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

    Every case is checked at each probe fraction and exponent, in one
    ``check_gmt`` call per case; the report aggregates the minimum ratio
    per regime.  Optionally the first cases are re-run at half the
    lattice spacing to confirm the ratios are resolution-stable.  Every
    nonempty set of the corpus is also checked against the Loomis-Whitney
    projection inequality.
    """
    if cfg.corpus_size < 1:
        raise ValueError(f"corpus_size must be >= 1, got {cfg.corpus_size}")
    if cfg.refine_cases < 0:
        raise ValueError(f"refine_cases must be >= 0, got {cfg.refine_cases}")
    for key in ("c_probes", "b_fractions"):
        if not getattr(cfg, key):
            raise ValueError(f"{key} must list at least one value")
    t0 = time.perf_counter()
    lat = Lattice(cfg.dim, cfg.h, 0, cfg.box_cells)
    rng = np.random.default_rng(cfg.seed)
    pairs = [setgeom.random_disjoint_pair(
        lat, rng, b_fraction=cfg.b_fractions[i % len(cfg.b_fractions)],
        max_rects=cfg.max_rects) for i in range(cfg.corpus_size)]

    s_values = cfg.s_list or (cfg.s,)
    columns = ["case", "s", "c_probe", "regime", "s_branch", "measure_a",
               "measure_b", "b_floored", "interaction", "bound", "ratio"]
    rows: list[list] = []
    minima: dict[str, float] = {}
    kernels = [build_kernel(lat, s) for s in s_values]
    # reports[i][k][p]: case i, exponent k, probe p; one check per case
    reports = [setgeom.check_gmt(kernels, a_set, b_set, cfg.c_probes)
               for a_set, b_set in pairs]
    for k, s in enumerate(s_values):
        for i, by_kernel in enumerate(reports):
            for probe, rep in zip(cfg.c_probes, by_kernel[k]):
                rows.append([i, s, probe, rep.regime, rep.s_branch,
                             rep.measure_a, rep.measure_b, rep.b_floored,
                             rep.interaction, rep.bound, rep.ratio])
                key = f"s={s}|probe={probe}|{rep.regime}"
                minima[key] = min(minima.get(key, math.inf), rep.ratio)

    criteria: list[Criterion] = []
    results: dict = {
        "per_regime_min": {k: minima[k] for k in sorted(minima)},
        "min_ratio": min(r[10] for r in rows),
    }

    if cfg.refine:
        refine_s = next((s for s in s_values if s < 0.5), None)
        if refine_s is None:
            criteria.append(Criterion(
                "refinement-stable", True, "no exponent below 1/2 to refine",
                vacuous=True))
        else:
            fine = _refine_lattice(lat)
            fkern = build_kernel(fine, refine_s)
            p = len(cfg.c_probes) // 2
            probe = cfg.c_probes[p]
            devs = []
            for i, (a_set, b_set) in enumerate(pairs[: cfg.refine_cases]):
                coarse = reports[i][s_values.index(refine_s)][p]
                [[refined]] = setgeom.check_gmt(
                    [fkern], _refine_set(a_set, fine), _refine_set(b_set, fine),
                    (probe,))
                # the floor is resolution-dependent
                if not (coarse.b_floored or refined.b_floored):
                    devs.append(abs(refined.ratio / coarse.ratio - 1.0))
            worst = max(devs) if devs else 0.0
            criteria.append(Criterion(
                "refinement-stable", worst < cfg.refine_rtol,
                f"max ratio drift {worst:.4%} over {len(devs)} cases "
                f"at s={refine_s}, probe={probe}", vacuous=not devs))
            results["refinement_max_dev"] = worst

    # every corpus set against the projection inequality, exact in integers;
    # in 1D both sides are 1 and nothing is tested
    shadows = [setgeom.check_loomis_whitney(cells) for a_set, b_set in pairs
               for cells in (a_set, b_set) if cells.count]
    holding = sum(1 for rep in shadows if rep.product_holds and rep.axis_bound_holds)
    criteria.append(Criterion(
        "projection-inequality", holding == len(shadows),
        f"{holding}/{len(shadows)} nonempty corpus sets meet count^(n-1) <= "
        f"shadow product and the largest-shadow bound", vacuous=cfg.dim == 1))

    return ExperimentReport(
        experiment="gmt", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(t0))


# ---------------------------------------------------------------------------
# complement-integral suite
# ---------------------------------------------------------------------------


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
    kern = build_kernel(lat, cfg.s)

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

    ball_const = setgeom.sobolev_set_bound(kern, ball).constant
    rng = np.random.default_rng(cfg.seed)
    corpus = [setgeom.random_equal_count_set(lat, rng, ball.count)
              for _ in range(cfg.sobolev_count)]

    columns = ["case", "count", "best_cell", "constant", "running_min"]
    rows = []
    running = math.inf
    for i, cells in enumerate(corpus):
        rep = setgeom.sobolev_set_bound(kern, cells)
        running = min(running, rep.constant)
        rows.append([i, cells.count, ":".join(map(str, rep.cell)),
                     rep.constant, running])
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
        meta=_meta(t0))


# ---------------------------------------------------------------------------
# barrier verification
# ---------------------------------------------------------------------------


def _c5_lattice(spec: bar.BarrierSpec, h: float) -> float:
    """C5 by a second method: the lattice operator at every cell center.

    With v sampled at the centers of a box covering B_r and exterior data
    1 (v = 1 outside B_r), half the potential-free energy gradient is
    -h^dim times the principal value, from one convolution.  Returns the
    sup over cells of (operator v)^+ / (v + 16 r^(-2s)).
    """
    lat = Lattice.covering_ball(spec.dim, h, 0.0, spec.r)
    v = bar.eval_v(lat.center_radii(), spec.r, spec.s)
    model = EnergyModel(build_kernel(lat, spec.s), None,
                        ScalarField(lat, v, Exterior(1.0, 1.0)))
    pv = -0.5 * model.gradient() / lat.cell_volume
    floor = 16.0 * spec.r ** (-2.0 * spec.s)
    return float(np.max(np.maximum(pv, 0.0) / (v + floor)))


def run_barrier(cfg: ExperimentConfig) -> ExperimentReport:
    """Build the rescaled barrier and verify its two defining estimates."""
    t0 = time.perf_counter()
    c5, rule_gap = bar.estimate_C5(cfg.s, cfg.barrier_r, cfg.barrier_samples, cfg.dim)
    spec = bar.BarrierSpec(cfg.s, cfg.tau, cfg.barrier_r, c5, cfg.dim)
    al1 = bar.verify_al1(spec, sample_count=cfg.check_samples, slack=cfg.al1_slack)
    al2 = bar.verify_al2(spec, sample_count=cfg.check_samples)
    c5_lattice = _c5_lattice(spec, cfg.h)

    outside = spec.big_r * (1.0 + np.arange(1, 33) / 16.0)
    w_out = bar.eval_w(spec, outside)
    exact_one = bool(np.all(w_out == 1.0))

    criteria = [
        Criterion("subsolution-fraction",
                  al1.fraction_passing >= cfg.al1_min_fraction,
                  f"{al1.fraction_passing:.4%} of {al1.sample_count} radii "
                  f"within slack {al1.slack}, worst ratio {al1.worst_ratio:.6g}"),
        Criterion("comparability-ratio", al2.ratio < cfg.al2_ratio_max,
                  f"sup/inf = {al2.ratio:.6g} vs cap {cfg.al2_ratio_max}"),
        Criterion("exterior-identity", exact_one,
                  "w == 1 outside the outer ball, bitwise"),
    ]
    rho, v_vals, w_vals = bar.profile(spec, cfg.check_samples)
    columns = ["radius", "v", "w"]
    rows = [[float(a), float(b), float(c)]
            for a, b, c in zip(rho, v_vals, w_vals)]
    results = {
        "spec": spec.to_json(),
        "al1": al1.to_json(),
        "al2": al2.to_json(),
        "w_exact_outside": exact_one,
        "c5_lattice": c5_lattice,
        "c5_lattice_gap": (c5_lattice - spec.c5) / spec.c5,
    }
    return ExperimentReport(
        experiment="barrier", config=cfg.to_flat_dict(), results=results,
        criteria=criteria, series_columns=columns, series_rows=rows,
        meta=_meta(t0, c5_rule_gap=rule_gap))


# ---------------------------------------------------------------------------
# growth-iteration runner
# ---------------------------------------------------------------------------


def run_iterate(cfg: ExperimentConfig) -> ExperimentReport:
    """Run the growth-iteration checker on a measured or synthetic trace."""
    t0 = time.perf_counter()
    if cfg.v_csv:
        samples = read_pairs_csv(cfg.v_csv)
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
        meta=_meta(t0))

