import dataclasses
import inspect
import json
import os
import pathlib
import re

import numpy as np
import pytest

from fraclab.lab import (
    Criterion,
    ExperimentConfig,
    ExperimentReport,
    check_iteration_lemma,
    config_from_sources,
    doubling_quotients,
    read_config_file,
    run_barrier,
    run_density,
    run_energy_growth,
    run_gmt_suite,
    run_iterate,
    run_levelset_convergence,
    run_sobolev_suite,
)
from fraclab import barrier, minimize, setgeom
from fraclab.lab import experiments
from fraclab.lab.cli import main
from fraclab.lab.config import read_pairs_csv
from fraclab.lattice import Lattice
from fraclab.minimize import initial_field

ROOT = pathlib.Path(__file__).resolve().parents[1]
DYADIC = [(2.0 ** k, (2.0 ** k) ** 2) for k in range(1, 8)]


# ---------------------------------------------------------------------------
# growth-iteration checker
# ---------------------------------------------------------------------------


def test_power_trace_passes_with_explicit_constants():
    # sigma=1.5, nu=2, gamma=2, C=1.1: both generic c-terms coincide at
    # (1/4.4)^(4/3) and undercut mu/gamma^(nu j1) = 1, so c = (1/4.4)^(4/3)
    # = 0.13869...; |log c| / log 2 = 2.85 forces j2 = 3 and R* = 2^4 = 16.
    rep = check_iteration_lemma(DYADIC, sigma=1.5, nu=2.0, gamma=2.0,
                                growth_c=1.1, r_o=2.0, mu=4.0)
    assert rep.passed
    assert rep.hypotheses_hold
    assert rep.j1 == 1
    assert rep.j2 == 3
    assert rep.c == pytest.approx((1.0 / 4.4) ** (4.0 / 3.0), rel=1e-15)
    assert rep.r_star == 16.0
    assert rep.conclusion_tested
    assert rep.conclusion_count == 4  # radii 16, 32, 64, 128
    assert rep.doubling_pairs == 6  # every radius whose double is sampled


def test_constant_trace_rejected_at_named_radius():
    # V = 4: the left side r^0.5 * min(1, log4/log r) * 4^0.75 crosses
    # C*V = 6 first at r = 32 (5.66 at 16, 6.40 at 32), by hand.
    const = [(2.0 ** k, 4.0) for k in range(1, 8)]
    rep = check_iteration_lemma(const, sigma=0.5, nu=2.0, gamma=2.0,
                                growth_c=1.5, r_o=2.0, mu=4.0)
    assert not rep.passed
    assert rep.failed_hypothesis == "doubling"
    assert rep.violating_r == 32.0
    assert rep.c is None and rep.r_star is None


def test_conclusion_untested_when_samples_end_early():
    rep = check_iteration_lemma(DYADIC[:2], sigma=0.5, nu=2.0, gamma=2.0,
                                growth_c=2.0, r_o=2.0, mu=4.0)
    assert rep.hypotheses_hold
    assert not rep.conclusion_tested
    assert rep.conclusion_holds is None
    assert rep.passed  # vacuous
    assert rep.r_star == 8192.0


def test_initial_mass_failure_names_r_o():
    rep = check_iteration_lemma(DYADIC, sigma=1.5, nu=2.0, gamma=2.0,
                                growth_c=1.1, r_o=2.0, mu=5.0)
    assert rep.failed_hypothesis == "initial-mass"
    assert rep.violating_r == 2.0


def test_decreasing_value_names_first_drop():
    trace = [(2.0, 4.0), (4.0, 16.0), (8.0, 12.0), (16.0, 20.0)]
    rep = check_iteration_lemma(trace, sigma=1.5, nu=2.0, gamma=2.0,
                                growth_c=1.1, r_o=2.0, mu=4.0)
    assert rep.failed_hypothesis == "nondecreasing"
    assert rep.violating_r == 8.0


def test_lemma_judges_doubling_by_its_quotients():
    # V = r^2: each quotient is r^1.5 * 1 * (r^2)^0.25 / (2r)^2 = 1/4, on
    # every sample from r_o whose double is sampled
    pairs = doubling_quotients(DYADIC, 1.5, 2.0, 2.0, 2.0)
    assert [r for r, _ in pairs] == [2.0 ** k for k in range(1, 7)]
    assert [q for _, q in pairs] == pytest.approx([0.25] * 6, rel=1e-15)
    const = [(r, 4.0) for r, _ in DYADIC]
    pairs = doubling_quotients(const, 0.5, 2.0, 2.0, 2.0)
    first = next(r for r, q in pairs if q > 1.5)
    rep = check_iteration_lemma(const, sigma=0.5, nu=2.0, gamma=2.0,
                                growth_c=1.5, r_o=2.0, mu=4.0)
    assert rep.failed_hypothesis == "doubling" and rep.violating_r == first
    assert rep.doubling_pairs == [r for r, _ in pairs].index(first) + 1


def test_parameter_domain_enforced():
    good = dict(sigma=1.5, nu=2.0, gamma=2.0, growth_c=1.1, r_o=2.0, mu=4.0)
    for key, bad in [("sigma", 0.0), ("nu", 1.5), ("gamma", 1.0),
                     ("growth_c", 1.0), ("r_o", 1.0), ("mu", 0.0)]:
        kwargs = dict(good)
        kwargs[key] = bad
        with pytest.raises(ValueError):
            check_iteration_lemma(DYADIC, **kwargs)


def test_sample_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        check_iteration_lemma([(4.0, 1.0), (2.0, 2.0)], 1.5, 2.0, 2.0,
                              1.1, 2.0, 1.0)
    with pytest.raises(ValueError, match="positive"):
        check_iteration_lemma([(2.0, 0.0), (4.0, 1.0)], 1.5, 2.0, 2.0,
                              1.1, 2.0, 1.0)
    with pytest.raises(ValueError, match="at or below"):
        check_iteration_lemma([(8.0, 64.0), (16.0, 256.0)], 1.5, 2.0, 2.0,
                              1.1, 4.0, 1.0)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "s = 0.75\n"
        "radii = 4, 8, 16, 32   # trailing comment\n"
        "refine = false\n"
        "seed = 3\n"
        "\n")
    cfg = config_from_sources("density", read_config_file(path))
    assert cfg.s == 0.75
    assert cfg.radii == (4.0, 8.0, 16.0, 32.0)
    assert cfg.refine is False
    assert cfg.seed == 3
    assert cfg.experiment == "density"


def test_config_overrides_win(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("s = 0.25\nh = 0.5\n")
    cfg = config_from_sources("gmt", read_config_file(path), {"s": "0.75"})
    assert cfg.s == 0.75
    assert cfg.h == 0.5


def test_config_rejects_unknown_key():
    for key in ("radius", "threads", "near_radius", "quad_tol", "half_band",
                "density_r_floor", "energy_tol"):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_sources("gmt", {key: "4"})


def test_config_invariants():
    with pytest.raises(ValueError, match="theta1"):
        ExperimentConfig(theta1=1.0)
    with pytest.raises(ValueError, match="theta_star"):
        ExperimentConfig(theta1=0.1, theta2=0.3, theta_star=0.2)
    with pytest.raises(ValueError, match="strictly increasing"):
        ExperimentConfig(radii=(8.0, 8.0, 16.0, 32.0))
    with pytest.raises(ValueError, match="s must lie"):
        ExperimentConfig(s=1.0)
    with pytest.raises(ValueError, match="density_floor"):
        ExperimentConfig(density_floor=0.0)


def test_readme_names_only_config_keys():
    # keys in --set examples, the config-file example and backticked
    # key=value text; energy_tol is the documented unknown key
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--set\s+([a-z_][a-z0-9_]*)=", text))
    named |= set(re.findall(r"`([a-z_][a-z0-9_]*)=[^`]*`", text))
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        named |= set(re.findall(r"^\s*([a-z_][a-z0-9_]*)\s*=", block, re.M))
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert {"s", "radii", "max_iters", "potential_csv"} <= named
    assert named - fields <= {"energy_tol"}


def test_config_bad_line_reports_location(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("s 0.25\n")
    with pytest.raises(ValueError, match="key=value"):
        read_config_file(path)


def test_pairs_csv_header_and_blank_lines(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("r,V\n\n1,2\n2, 4\n\n")
    assert read_pairs_csv(path) == [(1.0, 2.0), (2.0, 4.0)]


def test_pairs_csv_rejects_malformed_row(tmp_path):
    # a bad middle row used to vanish from a tabulated well without a word
    path = tmp_path / "well.csv"
    path.write_text("t,W\n-1,0\n-0.5,0.5\n0,oops\n0.5,0.5\n1,0\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:4")):
        read_pairs_csv(path)
    for bad in ("1,2\n2\n", "1,2\n2,3,4\n", "t,W\n", ""):
        path.write_text(bad)
        with pytest.raises(ValueError):
            read_pairs_csv(path)
    with pytest.raises(ValueError, match="missing.csv"):
        read_pairs_csv(tmp_path / "missing.csv")


def test_iterate_runner_keeps_first_sample_of_headerless_csv(tmp_path):
    path = tmp_path / "trace.csv"
    path.write_text("1,2\n2,4\n4,8\n")
    rep = run_iterate(ExperimentConfig(experiment="iterate", v_csv=str(path)))
    assert rep.series_rows == [[1.0, 2.0], [2.0, 4.0], [4.0, 8.0]]


def test_cli_rejects_tabulated_non_well(tmp_path, capsys):
    # W(+-1) = 1: sampled on [-1, 1] but not a double well
    well = tmp_path / "well.csv"
    well.write_text("t,W\n-1,1\n-0.5,0.5\n0,0.2\n0.5,0.5\n1,1\n")
    code = main(["--out", str(tmp_path / "out"), "energy-growth",
                 "--set", f"potential_csv={well}"])
    assert code == 2
    err = capsys.readouterr().err
    assert "not a double well" in err and "W(+-1) = 0" in err


@pytest.mark.parametrize("radii, bad", [("0.5,1,2,4", "1.0"),
                                        ("0.25,0.5,2,4", "0.5")])
def test_cli_energy_growth_half_needs_log_r_positive(tmp_path, capsys, radii, bad):
    # at s = 1/2 every radius after the first enters E / (R^(n-1) log R)
    code = main(["--out", str(tmp_path / "out"), "energy-growth",
                 "--set", "s=0.5", "--set", f"radii={radii}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"got {bad}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_amplitude_scales_tabulated_well(tmp_path):
    well = tmp_path / "well.csv"
    well.write_text("t,W\n-1,0\n-0.5,0.5625\n0,1\n0.5,0.5625\n1,0\n")
    t = np.linspace(-1.0, 1.0, 101)
    one, two = (experiments._potential(ExperimentConfig(
        potential_csv=str(well), amplitude=a)) for a in (1.0, 2.0))
    assert two.ws == tuple(2.0 * w for w in one.ws) == (0.0, 1.125, 2.0, 1.125, 0.0)
    assert np.array_equal(two.value(t), 2.0 * one.value(t))


# each run setting the config owns, where the library takes it
CONFIG_OWNED = [
    (barrier.verify_al1, ("sample_count", "slack")),
    (barrier.verify_al2, ("sample_count",)),
    (barrier.estimate_C5, ("sample_count", "dim")),
    (barrier.BarrierSpec, ("dim",)),
    (setgeom.check_gmt, ("c_probes",)),
    (setgeom.random_cellset, ("max_rects",)),
    (setgeom.random_disjoint_pair, ("b_fraction", "max_rects")),
    (minimize.minimize_energy, ("max_iters", "grad_tol")),
]


@pytest.mark.parametrize("fn, names", CONFIG_OWNED,
                         ids=[fn.__name__ for fn, _ in CONFIG_OWNED])
def test_run_settings_have_no_library_default(fn, names):
    # ExperimentConfig is the one home of a run setting's default: a
    # library default could drift from it unseen
    params = inspect.signature(fn).parameters
    for name in names:
        assert params[name].default is inspect.Parameter.empty, f"{name} has a default"


def test_minimize_needs_both_stopping_rules():
    params = inspect.signature(minimize.minimize_energy).parameters
    for name in ("max_iters", "grad_tol"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY
        assert params[name].default is inspect.Parameter.empty
    assert not hasattr(minimize, "MinimizeConfig")


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_write_and_roundtrip(tmp_path):
    rep = ExperimentReport(
        experiment="demo", config={"s": 0.25},
        results={"answer": 1.0 / 3.0},
        criteria=[Criterion("one", True, "fine"),
                  Criterion("two", False, "broken")],
        series_columns=["r", "V"],
        series_rows=[[2.0, 0.1], [4.0, 0.30000000000000004]])
    assert not rep.passed
    paths = rep.write(tmp_path)
    data = json.loads(open(paths["report"]).read())
    assert data["passed"] is False
    assert data["results"]["answer"] == 1.0 / 3.0
    assert [c["name"] for c in data["criteria"]] == ["one", "two"]
    lines = open(paths["series"]).read().splitlines()
    assert lines[0] == "r,V"
    assert float(lines[2].split(",")[1]) == 0.30000000000000004
    # the config echo is the run's record: no file besides these two
    assert data["config"] == {"s": 0.25}
    assert sorted(paths) == ["report", "series"]
    assert sorted(os.listdir(tmp_path)) == ["report.json", "series.csv"]


# ---------------------------------------------------------------------------
# energy growth
# ---------------------------------------------------------------------------


def test_energy_growth_small_sweep():
    cfg = ExperimentConfig(experiment="energy-growth", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 6.0, 8.0, 12.0, 16.0), max_iters=3000)
    rep = run_energy_growth(cfg)
    names = {c.name: c for c in rep.criteria}
    assert names["usable-points"].passed
    assert names["competitor-dominates"].passed
    assert names["fit-residuals"].passed
    # deterministic minimizer: the fitted exponent is reproducible exactly
    assert rep.results["fitted_exponent"] == pytest.approx(
        0.6744409825860688, rel=1e-9)
    assert rep.results["theory_exponent"] == 0.5
    assert len(rep.series_rows) == 5


# iterations of the sweep below, measured at 61 (24, 14, 12, 11), plus 5%
# for round-off from another FFT build; a cold start at every radius takes
# 82, and plain spectral projected gradient took 207
GROWTH_ITERATION_BUDGET = 64


def test_energy_growth_continuation_cost_guard(monkeypatch):
    # the sweep carries each minimizer to the next radius: it stays within
    # its iteration budget, and every energy and verdict is that of
    # starting each radius afresh from the exterior data
    cfg = ExperimentConfig(experiment="energy-growth", s=0.75, dim=1, h=0.25,
                           radii=(16.0, 32.0, 64.0, 128.0), max_iters=5000)
    warm = run_energy_growth(cfg)
    minimize = experiments.minimize_energy

    def cold(kern, pot, u0, omega, **stop):
        return minimize(kern, pot, initial_field(u0.lattice, u0.exterior), omega, **stop)

    monkeypatch.setattr(experiments, "minimize_energy", cold)
    fresh = run_energy_growth(cfg)
    iterations = [row[3] for row in warm.series_rows]
    assert sum(iterations) <= GROWTH_ITERATION_BUDGET
    assert sum(iterations) < sum(row[3] for row in fresh.series_rows)
    for row, ref in zip(warm.series_rows, fresh.series_rows):
        assert row[2] and ref[2]
        assert abs(row[4] - ref[4]) <= 1e-9 * abs(ref[4])
        assert row[5] == ref[5]
    assert [(c.name, c.passed) for c in warm.criteria] == \
        [(c.name, c.passed) for c in fresh.criteria]


def test_energy_growth_competitor_fits_a_rounded_radius():
    # 18 * 0.3 rounds to 5.3999999999999995: the box that covers B_{R+2}
    # by the lattice's room rule must hold the competitor too
    cfg = ExperimentConfig(experiment="energy-growth", h=0.3,
                           radii=(3.4, 6.8, 13.6, 27.2))
    rep = run_energy_growth(cfg)
    assert len(rep.series_rows) == 4
    for row in rep.series_rows:
        assert np.isfinite(row[5]) and row[5] >= row[4]


def test_energy_growth_requires_four_radii():
    cfg = ExperimentConfig(experiment="energy-growth",
                           radii=(4.0, 8.0, 16.0))
    with pytest.raises(ValueError, match="4 radii"):
        run_energy_growth(cfg)


def test_energy_growth_excludes_nonconverged():
    cfg = ExperimentConfig(experiment="energy-growth", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 6.0, 8.0, 12.0), max_iters=1,
                           grad_tol=1e-14)
    rep = run_energy_growth(cfg)
    assert not rep.passed
    names = {c.name: c for c in rep.criteria}
    assert not names["usable-points"].passed
    assert rep.results["fitted_exponent"] is None
    assert rep.results["excluded_radii"] == [4.0, 6.0, 8.0, 12.0]


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------


def test_density_halfline_ratio_near_one():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 8.0, 16.0), density_floor=0.5,
                           max_iters=3000)
    rep = run_density(cfg)
    assert rep.results["status"] == "ok"
    assert rep.results["u_center"] > 0.0
    # the positive phase fills the right half-line, so V(R)/R is near 1
    for ratio in rep.results["trace_theta_star"]["ratios"]:
        assert ratio == pytest.approx(1.0, abs=0.15)
    names = {c.name: c for c in rep.criteria}
    assert names["density-floor"].passed
    samples = list(zip(cfg.radii, rep.results["trace_theta_star"]["volumes"]))
    quotients = doubling_quotients(samples, 0.5, 1.0, 2.0, 4.0)
    assert rep.results["doubling_constant"] == max(q for _, q in quotients) > 0.0


@pytest.mark.parametrize("s, radii, note", [
    (0.75, (2.0, 4.0, 8.0), "nu must exceed sigma, got nu=1.0 sigma=1.0"),
    (0.25, (0.25, 0.5, 1.0), "r_o must exceed 1, got 1.0"),
    (0.25, (2.0, 3.0), "no doubling pairs in the radii sweep"),
])
def test_density_iteration_note_is_the_lemma_verdict(s, radii, note):
    # the lemma rejects what it cannot iterate, and its message is the note
    cfg = ExperimentConfig(experiment="density", s=s, dim=1, h=0.5, radii=radii,
                           exterior_above=1.0, exterior_below=1.0,
                           density_floor=1.5, max_iters=2000)
    rep = run_density(cfg)
    assert rep.results["iteration_note"] == note
    assert rep.results["iteration"] is None
    assert "growth-iteration" not in {c.name for c in rep.criteria}


def test_density_growth_c_is_the_largest_lemma_quotient():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(0.5, 2.0, 3.0, 4.0, 6.0), max_iters=3000)
    rep = run_density(cfg)
    trace = rep.results["trace_theta_star"]
    samples = list(zip(trace["radii"], trace["volumes"]))
    quotients = doubling_quotients(samples, 0.5, 1.0, 2.0, 2.0)
    assert [r for r, _ in quotients] == [2.0, 3.0]  # V(6) read at 2 * 3
    it = rep.results["iteration"]
    assert it["r_o"] == 2.0 and it["mu"] == trace["volumes"][1]
    assert it["growth_c"] == max(1.0 + 1e-6, max(q for _, q in quotients) * (1.0 + 1e-6))
    assert it["doubling_pairs"] == 2
    # the reported constant is the largest of the lemma's own quotients
    assert rep.results["doubling_constant"] == max(q for _, q in quotients)


def test_density_doubling_constant_uses_the_lemma_sigma():
    # at s = 3/4 the lemma's doubling step takes sigma = min(2s, 1) = 1, not
    # 2s = 3/2; the reported constant is its largest quotient
    cfg = ExperimentConfig(experiment="density", s=0.75, dim=2, h=1.0,
                           radii=(4.0, 8.0, 16.0), max_iters=3000)
    rep = run_density(cfg)
    trace = rep.results["trace_theta_star"]
    samples = list(zip(trace["radii"], trace["volumes"]))
    quotients = doubling_quotients(samples, 1.0, 2.0, 2.0, 4.0)
    assert [r for r, _ in quotients] == [4.0, 8.0]
    assert rep.results["doubling_constant"] == max(q for _, q in quotients)
    assert rep.results["iteration"]["sigma"] == 1.0


@pytest.mark.parametrize("s", [0.5, 0.75])
def test_density_doubling_constant_is_none_where_the_lemma_rejects(s):
    # in 1D sigma = nu = 1 from s = 1/2 on: the lemma cannot iterate, so
    # there is no doubling constant
    cfg = ExperimentConfig(experiment="density", s=s, dim=1, h=0.5,
                           radii=(2.0, 4.0, 8.0), max_iters=3000)
    rep = run_density(cfg)
    assert rep.results["iteration_note"] == "nu must exceed sigma, got nu=1.0 sigma=1.0"
    assert rep.results["doubling_constant"] is None


@pytest.mark.parametrize("kwargs", [
    dict(s=0.25, dim=1, h=0.5, radii=(4.0, 8.0, 16.0)),
    dict(s=0.75, dim=2, h=1.0, radii=(4.0, 8.0, 16.0)),
    dict(s=0.75, dim=1, h=0.5, radii=(2.0, 4.0, 8.0)),
])
def test_density_reports_no_criterion_that_holds_by_construction(kwargs):
    # nested balls over one superlevel set make the trace monotone, and
    # V(2R) >= V(R) > 0 makes every doubling constant finite: neither is judged
    rep = run_density(ExperimentConfig(experiment="density", max_iters=3000, **kwargs))
    assert not {c.name for c in rep.criteria} & {"trace-monotone", "doubling"}


def test_density_saturated_phase():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 8.0, 16.0), exterior_above=1.0,
                           exterior_below=1.0, density_floor=1.5,
                           max_iters=2000)
    rep = run_density(cfg)
    # u stays pinned at +1, so every ball is entirely above threshold
    for ratio in rep.results["trace_theta_star"]["ratios"]:
        assert ratio == pytest.approx(2.0, abs=0.2)
    assert rep.results["u_center"] == 1.0


def test_density_inapplicable_when_center_below_theta1():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 8.0, 16.0), exterior_above=-1.0,
                           exterior_below=-1.0, max_iters=2000)
    rep = run_density(cfg)
    assert rep.results["status"] == "inapplicable"
    assert not rep.passed
    names = {c.name: c for c in rep.criteria}
    assert not names["interior-datum"].passed


def test_density_trace_monotone_exactly():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 8.0, 16.0), max_iters=3000)
    rep = run_density(cfg)
    vols = rep.results["trace_theta_star"]["volumes"]
    assert all(b >= a for a, b in zip(vols, vols[1:]))


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------


def test_levelset_band_shrinks_in_rescaled_units():
    cfg = ExperimentConfig(experiment="levelset", s=0.75, dim=1, h=1.0,
                           eps=(0.25, 0.125, 0.0625), levelset_theta=0.9,
                           max_iters=3000)
    rep = run_levelset_convergence(cfg)
    assert rep.passed
    names = {c.name: c for c in rep.criteria}
    assert names["distance-nonincreasing"].passed
    assert names["final-distance"].passed
    rescaled = [row[8] for row in rep.series_rows]
    assert all(b < a for a, b in zip(rescaled, rescaled[1:]))


def test_levelset_constant_exterior_is_vacuous():
    cfg = ExperimentConfig(experiment="levelset", s=0.75, dim=1, h=1.0,
                           eps=(0.25, 0.125), exterior_above=1.0,
                           exterior_below=1.0, max_iters=2000)
    rep = run_levelset_convergence(cfg)
    assert rep.passed
    names = {c.name: c for c in rep.criteria}
    assert names["band-empty"].passed


def test_levelset_empty_band_fails_band_present():
    # no cell of a converged layer sits within 1e-9 of u = 0, so the band
    # is empty while an interface is declared
    cfg = ExperimentConfig(experiment="levelset", s=0.75, dim=1, h=1.0,
                           eps=(0.25, 0.125), levelset_theta=1e-9,
                           max_iters=3000)
    rep = run_levelset_convergence(cfg)
    assert [(c.name, c.passed) for c in rep.criteria] == [("band-present", False)]
    assert rep.criteria[0].detail == "empty level band at eps=[0.25, 0.125]"
    assert rep.results["excluded_eps"] == []


def test_levelset_unconverged_eps_are_excluded():
    # one iteration converges nowhere: every eps is excluded and the
    # distance series is too short to judge
    cfg = ExperimentConfig(experiment="levelset", s=0.75, dim=1, h=1.0,
                           eps=(0.25, 0.125), max_iters=1)
    rep = run_levelset_convergence(cfg)
    assert not any(row[3] for row in rep.series_rows)
    assert rep.results["excluded_eps"] == [0.25, 0.125]
    assert [(c.name, c.passed) for c in rep.criteria] == [("usable-points", False)]
    assert rep.criteria[0].detail == "0 converged eps of 2, need 2"


@pytest.mark.parametrize("threshold, constant", [
    ("inf", "exterior_above=-1"),
    ("-inf", "exterior_below=1"),
])
def test_cli_levelset_infinite_threshold_is_constant_data(tmp_path, capsys,
                                                         threshold, constant):
    # every exterior point lies on one side, so no interface is declared
    runs = {}
    for name, override in (("inf", f"exterior_threshold={threshold}"),
                           ("const", constant)):
        out = tmp_path / name
        code = main(["--out", str(out), "levelset", "--set", "eps=0.5,0.25",
                     "--set", override])
        assert code == 0
        assert "[VACUOUS] levelset:band-empty" in capsys.readouterr().out
        rep = json.loads((out / "report.json").read_text())
        runs[name] = ({k: v for k, v in rep.items() if k not in ("meta", "config")},
                      (out / "series.csv").read_text())
    assert runs["inf"] == runs["const"]


def test_levelset_eps_must_decrease():
    cfg = ExperimentConfig(experiment="levelset", eps=(0.125, 0.25))
    with pytest.raises(ValueError, match="strictly decreasing"):
        run_levelset_convergence(cfg)
    cfg2 = ExperimentConfig(experiment="levelset", eps=(0.25,))
    with pytest.raises(ValueError, match="at least 2"):
        run_levelset_convergence(cfg2)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def test_gmt_suite_small_corpus():
    cfg = ExperimentConfig(experiment="gmt", dim=2, h=1.0, s=0.25,
                           s_list=(0.25,), corpus_size=6, box_cells=16,
                           refine=True, refine_cases=2, seed=11)
    rep = run_gmt_suite(cfg)
    assert rep.passed
    assert len(rep.series_rows) == 6 * 3  # cases times probe fractions
    assert rep.results["min_ratio"] > 0.0
    shadows = next(c for c in rep.criteria if c.name == "projection-inequality")
    assert shadows.passed and not shadows.vacuous
    # the config echo and the rows rebuild the corpus: each case's counts
    # are its measures over h^n, its B fraction cycles through b_fractions
    echo = config_from_sources("gmt", rep.config)
    assert echo == cfg
    lat = Lattice(echo.dim, echo.h, 0, echo.box_cells)
    rng = np.random.default_rng(echo.seed)
    for i in range(echo.corpus_size):
        a_set, b_set = setgeom.random_disjoint_pair(
            lat, rng, b_fraction=echo.b_fractions[i % len(echo.b_fractions)],
            max_rects=echo.max_rects)
        rows = [r for r in rep.series_rows if r[0] == i]
        assert len(rows) == 3
        for row in rows:
            assert row[5] / lat.cell_volume == a_set.count
            assert row[6] / lat.cell_volume == b_set.count


@pytest.mark.parametrize("runner, cfg", [
    (run_gmt_suite, ExperimentConfig(experiment="gmt", dim=2, h=1.0, s=0.25,
                                     s_list=(0.25,), corpus_size=2, box_cells=8,
                                     refine=False, seed=5)),
    (run_sobolev_suite, ExperimentConfig(experiment="sobolev", dim=1, h=0.4,
                                         s=0.25, sobolev_count=3, seed=5)),
])
def test_corpus_runners_write_only_report_and_series(tmp_path, runner, cfg):
    # the config echo holds the seed and sizes that rebuild the corpus
    paths = runner(cfg).write(tmp_path)
    assert sorted(paths) == ["report", "series"]
    assert sorted(os.listdir(tmp_path)) == ["report.json", "series.csv"]


@pytest.mark.parametrize("broken", ["product_holds", "axis_bound_holds"])
def test_gmt_projection_criterion_reads_both_bounds(monkeypatch, broken):
    # a report object is truthy whatever it holds: the runner must read the
    # fields, so one failing bound fails the criterion
    real = setgeom.check_loomis_whitney
    monkeypatch.setattr(setgeom, "check_loomis_whitney", lambda cells: (
        dataclasses.replace(real(cells), **{broken: False})))
    rep = run_gmt_suite(ExperimentConfig(experiment="gmt", dim=2, h=1.0,
                                         corpus_size=2, box_cells=8, seed=5))
    shadows = next(c for c in rep.criteria if c.name == "projection-inequality")
    assert not shadows.passed and shadows.detail.startswith("0/")


def test_barrier_runner_judges_al1_by_the_config_fraction():
    # slack -0.3 leaves 31 of 32 radii passing; the report carries the
    # fraction and the runner alone holds it against al1_min_fraction
    base = dict(experiment="barrier", s=0.5, dim=1, h=1.0, tau=0.1,
                barrier_r=100.0, barrier_samples=32, check_samples=32,
                al1_slack=-0.3)
    for floor, passed in ((0.99, False), (31 / 32, True)):
        rep = run_barrier(ExperimentConfig(**base, al1_min_fraction=floor))
        assert rep.results["al1"]["fraction_passing"] == 31 / 32
        assert "passed" not in rep.results["al1"]
        crit = {c.name: c for c in rep.criteria}["subsolution-fraction"]
        assert crit.passed is passed


def test_sobolev_suite_ball_identity():
    cfg = ExperimentConfig(experiment="sobolev", dim=1, h=0.4, s=0.25,
                           sobolev_center=0.2, sobolev_radius=1.0,
                           sobolev_extent=12.0, sobolev_count=20, seed=7)
    rep = run_sobolev_suite(cfg)
    assert rep.passed
    # same discrete complement integral as the standalone set check
    assert rep.results["center_lhs"] == pytest.approx(
        4.011264678762314, rel=1e-9)
    assert rep.results["closed_form"] == pytest.approx(4.0, rel=1e-15)
    running = [row[4] for row in rep.series_rows]
    assert all(b <= a for a, b in zip(running, running[1:]))
    assert rep.results["ball_constant"] <= 1.05 * rep.results["corpus_min"]


# ---------------------------------------------------------------------------
# barrier runner
# ---------------------------------------------------------------------------


def test_barrier_runner_small_scale():
    cfg = ExperimentConfig(experiment="barrier", s=0.5, dim=1, h=1.0,
                           tau=0.1, barrier_r=100.0, barrier_samples=32,
                           check_samples=64)
    rep = run_barrier(cfg)
    assert rep.passed
    assert rep.results["spec"]["c5"] == pytest.approx(
        0.9569940932630433, rel=1e-6)
    assert rep.results["al2"]["ratio"] < 50.0
    assert rep.results["w_exact_outside"] is True
    assert len(rep.series_rows) == 64


def test_barrier_rows_sit_at_the_sample_radii():
    # the series radii are the al1/al2 sample radii bit for bit; at 100
    # samples (k - 1/2) * (R / n) would differ from them by an ulp
    from fraclab.barrier import BarrierSpec, profile

    cfg = ExperimentConfig(experiment="barrier", s=0.5, dim=1, h=1.0,
                           tau=0.1, barrier_r=100.0, barrier_samples=32,
                           check_samples=100)
    rep = run_barrier(cfg)
    radii = [row[0] for row in rep.series_rows]
    spec = BarrierSpec(**{k: rep.results["spec"][k]
                          for k in ("s", "tau", "r", "c5", "dim")})
    assert radii == profile(spec, 100)[0].tolist()
    assert radii[-1] == rep.results["al2"]["outermost_radius"]


def test_barrier_c5_lattice_second_method():
    # the lattice operator's sup over cells approaches the sampled C5 as
    # the cells shrink
    gaps = []
    for h in (1.0, 0.5):
        cfg = ExperimentConfig(experiment="barrier", s=0.5, dim=1, h=h,
                               tau=0.1, barrier_r=400.0, barrier_samples=256,
                               check_samples=64)
        res = run_barrier(cfg).results
        gap = res["c5_lattice_gap"]
        assert gap == (res["c5_lattice"] - res["spec"]["c5"]) / res["spec"]["c5"]
        gaps.append(abs(gap))
    assert gaps[0] < 0.025
    assert gaps[1] < gaps[0]


def test_iterate_runner_reads_csv(tmp_path):
    path = tmp_path / "trace.csv"
    with open(path, "w") as fh:
        fh.write("r,V\n")
        for r, v in DYADIC:
            fh.write(f"{r},{v}\n")
    cfg = ExperimentConfig(experiment="iterate", sigma=1.5, nu=2.0,
                           gamma=2.0, growth_c=1.1, r_o=2.0, mu=4.0,
                           v_csv=str(path))
    rep = run_iterate(cfg)
    assert rep.passed
    direct = check_iteration_lemma(DYADIC, 1.5, 2.0, 2.0, 1.1, 2.0, 4.0)
    assert rep.results["report"] == direct.to_json()


def test_iterate_runner_synthetic_forms():
    cfg = ExperimentConfig(experiment="iterate", sigma=1.5, nu=2.0,
                           gamma=2.0, growth_c=1.1, r_o=2.0, mu=4.0,
                           v_form="power",
                           radii=tuple(r for r, _ in DYADIC))
    assert run_iterate(cfg).passed
    cfg2 = ExperimentConfig(experiment="iterate", sigma=0.5, nu=2.0,
                            gamma=2.0, growth_c=1.5, r_o=2.0, mu=4.0,
                            v_form="constant",
                            radii=tuple(r for r, _ in DYADIC))
    rep2 = run_iterate(cfg2)
    assert not rep2.passed
    assert "r = 32" in rep2.criteria[0].detail


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_iterate_pass_and_fail(tmp_path):
    cfg = tmp_path / "it.cfg"
    cfg.write_text("sigma = 1.5\nnu = 2\ngamma = 2\ngrowth_c = 1.1\n"
                   "r_o = 2\nmu = 4\nv_form = power\n"
                   "radii = 2,4,8,16,32,64,128\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out), "iterate"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert (out / "series.csv").exists()

    cfg2 = tmp_path / "it2.cfg"
    cfg2.write_text("sigma = 0.5\nnu = 2\ngamma = 2\ngrowth_c = 1.5\n"
                    "r_o = 2\nmu = 4\nv_form = constant\n"
                    "radii = 2,4,8,16,32,64,128\n")
    code2 = main(["--config", str(cfg2), "--out", str(tmp_path / "o2"),
                  "iterate"])
    assert code2 == 1


@pytest.mark.parametrize("command, override, message", [
    ("iterate", "dim=3", "dim must be 1 or 2, got 3"),
    ("iterate", "h=0", "h must be positive, got 0.0"),
    ("gmt", "refine=maybe", "config key 'refine': not a boolean: 'maybe'"),
    ("energy-growth", "max_iters=x", "config key 'max_iters': invalid literal for int()"),
    ("density", "radii=", "radii must be nonempty"),
    ("gmt", "corpus_size=0", "corpus_size must be >= 1, got 0"),
    ("sobolev", "sobolev_count=0", "sobolev_count must be >= 1, got 0"),
    ("iterate", "v_form=cubic", "unknown v_form 'cubic'"),
    ("iterate", "v_csv={nan_csv}", "v_samples must be finite"),
])
def test_cli_bad_setting_exits_2_with_its_message(tmp_path, capsys, command,
                                                  override, message):
    nan_csv = tmp_path / "v.csv"
    nan_csv.write_text("2,1000\n4,nan\n")
    code = main(["--out", str(tmp_path / "out"), command,
                 "--set", override.format(nan_csv=nan_csv)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_cli_iterate_conclusion_fails_past_r_star(tmp_path, capsys):
    # both hypotheses hold at the samples (C = 1.1), but V stays at 1000
    # while c r^nu grows: c = (C gamma^nu)^(-nu/sigma) = 4.4^-4 = 0.002668,
    # r* = 1024, and V < c r^2 at 10^6
    trace = tmp_path / "v.csv"
    trace.write_text("2,1000\n4,1000\n1000000,1000\n")
    out = tmp_path / "out"
    code = main(["--out", str(out), "iterate", "--set", f"v_csv={trace}",
                 "--set", "sigma=0.5", "--set", "nu=2", "--set", "gamma=2",
                 "--set", "growth_c=1.1", "--set", "r_o=2", "--set", "mu=4"])
    assert code == 1
    lines = capsys.readouterr().out.splitlines()
    assert "[PASS] iterate:hypotheses  2 doubling pairs checked" in lines
    assert "[FAIL] iterate:conclusion  fails at r = 1000000.0" in lines
    rep = json.loads((out / "report.json").read_text())["results"]["report"]
    assert rep["c"] == pytest.approx(4.4 ** -4, rel=1e-12)
    assert rep["r_star"] == 1024.0
    assert rep["conclusion_tested"] and rep["conclusion_holds"] is False


def test_cli_rejects_bad_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_key = 1\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path), "iterate"])
    assert code == 2


@pytest.mark.parametrize("text", [None, "s 0.25\n"])
def test_cli_unreadable_or_malformed_config_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    code = main(["--config", str(cfg), "--out", str(tmp_path / "out"),
                 "iterate"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(cfg) in err


def test_cli_set_overrides(tmp_path):
    out = tmp_path / "out"
    code = main(["--out", str(out), "--seed", "9", "iterate",
                 "--set", "h=0.5", "--set", "s=0.75",
                 "--set", "radii=2,4,8,16"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["s"] == 0.75
    assert report["config"]["seed"] == 9


@pytest.mark.parametrize("override, key", [
    ("c_probes=", "c_probes"),
    ("b_fractions=", "b_fractions"),
    ("b_fractions=-0.5", "b_fraction"),
    ("refine_cases=-1", "refine_cases"),
])
def test_cli_gmt_bad_sweep_exits_2(tmp_path, capsys, override, key):
    code = main(["--out", str(tmp_path / "out"), "gmt", "--set", "dim=2",
                 "--set", "box_cells=8", "--set", "corpus_size=2",
                 "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, key", [
    ("exterior_threshold=nan", "NaN"),
    ("exterior_axis=1", "axis 1 out of range"),
    ("exterior_axis=-1", "axis"),
    ("seed_kind=zero", "seed_kind"),
    ("exterior=constant", "'exterior'"),
    ("exterior_value=0.5", "'exterior_value'"),
    ("potential=tabulated", "'potential'"),
    ("exterior_above=1.5", "[-1, 1]"),
])
def test_cli_bad_exterior_exits_2(tmp_path, capsys, override, key):
    code = main(["--out", str(tmp_path / "out"), "energy-growth",
                 "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("eps", ["0.1,0", "0.1,-0.1"])
def test_cli_levelset_nonpositive_eps_exits_2(tmp_path, capsys, eps):
    code = main(["--out", str(tmp_path / "out"), "levelset", "--set", f"eps={eps}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eps must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("override, key", [
    ("levelset_radius=0", "levelset_radius must be positive"),
    ("levelset_theta=1.5", "levelset_theta must lie in (0, 1)"),
    ("levelset_theta=0", "levelset_theta must lie in (0, 1)"),
    ("levelset_theta=-0.5", "levelset_theta must lie in (0, 1)"),
])
def test_cli_levelset_bad_band_exits_2(tmp_path, capsys, override, key):
    code = main(["--out", str(tmp_path / "out"), "levelset",
                 "--set", "eps=0.5,0.25", "--set", override])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, radii", [
    ("density", "0,1"),
    ("energy-growth", "-4,1,2,3"),
])
def test_cli_nonpositive_radii_exits_2(tmp_path, capsys, command, radii):
    code = main(["--out", str(tmp_path / "out"), command,
                 "--set", f"radii={radii}"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "radii must be positive" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_cli_set_without_value_exits_2(tmp_path, capsys):
    code = main(["--out", str(tmp_path / "out"), "iterate", "--set", "foo"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'foo'" in err
    assert not (tmp_path / "out").exists()


def test_cli_bare_iterate_runs(tmp_path):
    # the default r_o is the first default radius, so the defaults run
    assert main(["--out", str(tmp_path / "out"), "iterate"]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    conclusion = {c["name"]: c for c in report["criteria"]}["conclusion"]
    assert conclusion["vacuous"]


def test_cli_marks_vacuous_criterion(tmp_path, capsys):
    # a criterion that passes without testing anything is not printed as
    # PASS; the exit code still follows the verdict
    assert main(["--out", str(tmp_path / "out"), "iterate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[VACUOUS] iterate:conclusion") for line in lines)
    assert not any(line.startswith("[PASS] iterate:conclusion") for line in lines)


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = main(["--out", str(blocker / "out"), "iterate",
                 "--set", "radii=2,4,8,16"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and str(blocker) in err


def test_cli_rejects_threads_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "2", "iterate"])
    assert exc.value.code == 2


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# vacuous criteria, import cost
# ---------------------------------------------------------------------------


def test_vacuous_criteria_are_flagged():
    cfg = ExperimentConfig(experiment="density", s=0.25, dim=1, h=0.5,
                           radii=(4.0, 8.0, 16.0), max_iters=3000)
    rep = run_density(cfg)
    flags = {c["name"]: c["vacuous"] for c in rep.to_json_dict()["criteria"]}
    assert set(flags) == {"minimized", "interior-datum", "density-floor",
                          "growth-iteration"}
    assert flags["density-floor"] is False
    # r_star lies past every radius: the iteration passes, having tested nothing
    it = rep.results["iteration"]
    assert it["hypotheses_hold"] and not it["conclusion_tested"]
    assert flags["growth-iteration"] is True
    untested = run_iterate(ExperimentConfig(
        experiment="iterate", sigma=0.5, nu=2.0, gamma=2.0, growth_c=2.0,
        r_o=2.0, mu=4.0, v_form="power", radii=(2.0, 4.0)))
    conclusion = {c.name: c for c in untested.criteria}["conclusion"]
    assert conclusion.passed and conclusion.vacuous
    assert "untested" in conclusion.detail
    tested = run_iterate(ExperimentConfig(
        experiment="iterate", sigma=1.5, nu=2.0, gamma=2.0, growth_c=1.1,
        r_o=2.0, mu=4.0, v_form="power", radii=tuple(r for r, _ in DYADIC)))
    assert not any(c.vacuous for c in tested.criteria)
    band = run_levelset_convergence(ExperimentConfig(
        experiment="levelset", s=0.75, dim=1, h=1.0, eps=(0.25, 0.125),
        exterior_above=1.0, exterior_below=1.0, max_iters=2000))
    band_empty = {c.name: c for c in band.criteria}["band-empty"]
    assert band_empty.passed and band_empty.vacuous
    assert "containment vacuous" in band_empty.detail
    gmt = dict(experiment="gmt", dim=2, h=1.0, corpus_size=2, box_cells=8,
               seed=5, refine=True)
    for kwargs in (dict(s=0.75, s_list=(0.5, 0.75), refine_cases=2),
                   dict(s=0.25, s_list=(0.25,), refine_cases=0)):
        stable = {c.name: c for c in run_gmt_suite(ExperimentConfig(
            **gmt, **kwargs)).criteria}["refinement-stable"]
        assert stable.passed and stable.vacuous
    compared = {c.name: c for c in run_gmt_suite(ExperimentConfig(
        **gmt, s=0.25, s_list=(0.25,), refine_cases=2)).criteria}
    assert not compared["refinement-stable"].vacuous


def _lab_import_loads(module):
    import subprocess
    import sys

    import fraclab

    src = os.path.dirname(os.path.dirname(os.path.abspath(fraclab.__file__)))
    code = f"import sys, fraclab.lab; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    return out.stdout.strip()


def test_importing_lab_skips_scipy_signal():
    assert _lab_import_loads("scipy.signal") == "False"


def test_importing_lab_skips_scipy_integrate():
    assert _lab_import_loads("scipy.integrate") == "False"


def test_benchmark_tracer_installs():
    # the tracer patches barrier, energies, kernels and setgeom attributes
    # by name; a renamed one fails here rather than in a benchmark run
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "worker.py"),
         "--workload", "bounds", "--seed", "1", "--trace", "1", "--setup-only"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "ready" in json.loads(out.stdout)
