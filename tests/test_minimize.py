from dataclasses import dataclass, field

import numpy as np
import pytest

from fraclab import minimize
from fraclab.energies import EnergyModel, energy_E
from fraclab.kernels import KernelTable, build_kernel
from fraclab.lab import ExperimentConfig
from fraclab.lattice import (
    CellSet,
    Exterior,
    Lattice,
    ScalarField,
    ball_mask,
)
from fraclab.minimize import (
    MinimizeResult,
    initial_field,
    minimize_energy,
)
from fraclab.potential import Quartic, Tabulated

LAT = Lattice(dim=1, h=1.0, lo=(-42,), hi=(42,))
EXT = Exterior(1.0, -1.0, 0, 0.0)


# -- oracles: stationarity residual and subdomain minimality probes ----------

ACTIVE_TOL = 1e-9  # |u| >= 1 - ACTIVE_TOL counts as pinned at the constraint


@dataclass(frozen=True)
class ResidualReport:
    """Stationarity residual where the constraint is inactive.

    ``residual`` is NaN at cells that are pinned at |u| = 1 or outside the
    requested interior; ``sup`` is the largest reported magnitude.
    """

    residual: np.ndarray
    reported: np.ndarray
    sup: float


def el_residual(kern: KernelTable, pot, u: ScalarField, interior: CellSet) -> ResidualReport:
    """Residual of the stationarity equation 2*fl_i + W'(u_i)*h^dim = 0.

    Uses the exact gradient convention of the discrete energy, so a zero
    residual on the inactive set is precisely unconstrained stationarity.
    """
    if interior.lattice != kern.lattice:
        raise ValueError("interior lattice does not match the kernel lattice")
    model = EnergyModel(kern, pot, u, interior)
    r_full = model.gradient()
    inactive = np.abs(u.values) < 1.0 - ACTIVE_TOL
    reported = interior.members & inactive
    vals = np.where(reported, r_full, np.nan)
    sup = float(np.max(np.abs(r_full[reported]))) if reported.any() else 0.0
    return ResidualReport(residual=vals, reported=reported, sup=sup)


@dataclass(frozen=True)
class SubdomainReport:
    """Outcome of random minimality trials on a subdomain."""

    trials: int
    scale: float
    margins: np.ndarray = field(repr=False)
    worst_margin: float
    passed: bool

    def __bool__(self) -> bool:
        return self.passed


def subdomain_check(
    kern: KernelTable,
    pot,
    result: MinimizeResult,
    omega_sub: CellSet,
    trials: int = 200,
    scale: float = 0.05,
    seed: int = 0,
) -> SubdomainReport:
    """Probe minimality on a subdomain of the original run.

    A minimizer on omega is one on any subdomain: each trial perturbs the
    field by admissible noise supported in omega_sub and measures the
    energy change of E(.; omega_sub).  The margin is that change; a trial
    fails if the energy drops by more than grad_tol times the perturbation
    sup-norm.  Size-zero perturbations give margin exactly 0.
    """
    if omega_sub.lattice != result.field.lattice:
        raise ValueError("subdomain lattice does not match the field lattice")
    if np.any(omega_sub.members & ~result.omega.members):
        raise ValueError("subdomain is not contained in the minimized region")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    u = result.field
    base = u.values
    e0 = energy_E(kern, pot, u, omega_sub)
    sub_mask = omega_sub.members

    rng = np.random.default_rng(seed)
    tol = result.grad_tol
    margins = np.empty(trials)
    passed = True
    for t in range(trials):
        delta = np.where(sub_mask, scale * rng.uniform(-1.0, 1.0, base.shape), 0.0)
        trial = np.clip(base + delta, -1.0, 1.0)
        trial = np.where(sub_mask, trial, base)
        margins[t] = energy_E(kern, pot, ScalarField(u.lattice, trial, u.exterior),
                              omega_sub) - e0
        norm = float(np.max(np.abs(trial - base)))
        if margins[t] < -tol * norm:
            passed = False
    return SubdomainReport(
        trials=trials,
        scale=scale,
        margins=margins,
        worst_margin=float(margins.min()),
        passed=passed,
    )


@pytest.fixture(scope="module")
def kern():
    return build_kernel(LAT, 0.5)


@pytest.fixture(scope="module")
def b40(kern):
    # the workhorse: transition layer pinned by halfspace data outside B_40
    seed = initial_field(LAT, EXT)
    om = ball_mask(LAT, 0.0, 40.0)
    res = minimize_energy(kern, Quartic(0.25), seed, om, max_iters=3000, grad_tol=1e-7)
    assert res.converged
    return res, om


# ------------------------------------------------------------------ config


def test_config_validation(kern):
    u0 = initial_field(LAT, EXT)
    with pytest.raises(ValueError, match="max_iters"):
        minimize_energy(kern, Quartic(0.25), u0, max_iters=0, grad_tol=1e-7)
    with pytest.raises(ValueError, match="grad_tol"):
        minimize_energy(kern, Quartic(0.25), u0, max_iters=1000, grad_tol=0.0)


def test_initial_field_descriptors():
    u = initial_field(LAT, EXT)
    assert set(np.unique(u.values)) == {-1.0, 1.0}
    assert np.all(u.values[LAT.axis_centers(0) >= 0] == 1.0)
    assert np.all(initial_field(LAT, Exterior(0.25, 0.25)).values == 0.25)
    with pytest.raises(ValueError, match="axis 1 out of range"):
        initial_field(LAT, Exterior(1.0, -1.0, 1, 0.0))
    lat2 = Lattice(dim=2, h=1.0, lo=(-2, -3), hi=(2, 3))
    sign = np.where(lat2.axis_centers(1) >= 0.5, 1.0, -1.0)
    assert np.array_equal(initial_field(lat2, Exterior(1.0, -1.0, 1, 0.5)).values,
                          np.broadcast_to(sign, lat2.shape))
    two = np.where(lat2.axis_centers(1) >= 0.5, 0.3, -0.7)
    assert np.array_equal(initial_field(lat2, Exterior(0.3, -0.7, 1, 0.5)).values,
                          np.broadcast_to(two, lat2.shape))


# ------------------------------------------------------------------ minimize


def test_global_minimum_is_fixed_point(kern):
    u0 = ScalarField(LAT, np.ones(LAT.shape), Exterior(1.0, 1.0))
    res = minimize_energy(kern, Quartic(0.25), u0, max_iters=1000, grad_tol=1e-7)
    assert res.converged and res.iterations == 0
    assert res.energy_trace[-1] == 0.0
    assert np.array_equal(res.field.values, u0.values)


def test_comparison_principle(kern):
    # exterior +1 pulls everything to the global minimum u = +1
    u0 = ScalarField(LAT, np.zeros(LAT.shape), Exterior(1.0, 1.0))
    res = minimize_energy(kern, Quartic(0.25), u0, max_iters=5000, grad_tol=1e-7)
    assert res.converged
    assert np.all(res.field.values >= 1.0 - 1e-6)


def test_b40_profile_shape(b40):
    res, om = b40
    v = res.field.values
    # odd under the lattice reflection and monotone along the axis
    assert np.array_equal(v, -v[::-1])
    assert np.all(np.diff(v) >= 0)
    assert np.max(np.abs(v)) <= 1.0


def test_values_outside_omega_unchanged(b40):
    res, om = b40
    seed = initial_field(LAT, EXT)
    fixed = ~om.members
    assert np.array_equal(res.field.values[fixed], seed.values[fixed])


def test_trace_monotone_and_shape(b40):
    res, om = b40
    assert res.trace.shape[1] == 4
    assert res.trace[0, 0] == 0 and res.trace[0, 3] == 0.0
    assert np.all(np.diff(res.energy_trace) <= 0)
    assert res.grad_norm < res.grad_tol
    assert res.iterations == int(res.trace[-1, 0])


def test_beats_explicit_competitors(kern, b40):
    res, om = b40
    pot = Quartic(0.25)
    # ramp competitor equal to the halfspace sign data outside B_40
    ramp = ScalarField(LAT, np.clip(LAT.axis_centers(0) / 5.0, -1.0, 1.0), EXT)
    assert res.energy_trace[-1] <= energy_E(kern, pot, ramp, om)
    assert res.energy_trace[-1] <= energy_E(kern, pot, initial_field(LAT, EXT), om)


def test_max_iters_exhausted_no_exception(kern):
    seed = initial_field(LAT, EXT)
    om = ball_mask(LAT, 0.0, 40.0)
    res = minimize_energy(kern, Quartic(0.25), seed, om, max_iters=3, grad_tol=1e-7)
    assert not res.converged
    assert res.iterations == 3
    assert "max_iters" in res.message


def test_line_search_failure_no_exception(monkeypatch):
    # an Armijo constant no decrease can meet: the first search halves 40
    # times and fails, and the run stops unconverged with a message
    monkeypatch.setattr(minimize, "ARMIJO", 1e300)
    seed = initial_field(LAT, EXT)
    res = minimize_energy(build_kernel(LAT, 0.25), Quartic(0.25), seed,
                          ball_mask(LAT, 0.0, 40.0), max_iters=100, grad_tol=1e-7)
    assert not res.converged
    assert res.iterations == 0
    assert res.message == "line search failed after 40 halvings"
    assert np.array_equal(res.field.values, seed.values)


def test_non_finite_start_raises(kern):
    vals = np.zeros(LAT.shape)
    vals[3] = np.nan
    bad = ScalarField(LAT, vals, EXT)
    with pytest.raises(ValueError, match="non-finite"):
        minimize_energy(kern, Quartic(0.25), bad, max_iters=1000, grad_tol=1e-7)


def test_gradient_matches_finite_differences(kern):
    # the optimizer's gradient against central differences of energy_E
    pot = Quartic(0.25)
    rng = np.random.default_rng(21)
    u = ScalarField(LAT, 0.8 * rng.uniform(-1.0, 1.0, LAT.shape), EXT)
    om = ball_mask(LAT, 0.0, 30.0)
    model = EnergyModel(kern, pot, u, om)
    x = u.values
    g = model.gradient()
    t = 1e-5
    for _ in range(20):
        d = np.where(model.omega, rng.normal(size=x.shape), 0.0)
        fd = (energy_E(kern, pot, ScalarField(LAT, x + t * d, EXT), om)
              - energy_E(kern, pot, ScalarField(LAT, x - t * d, EXT), om)) / (2 * t)
        an = float(np.sum(g * d))
        assert fd == pytest.approx(an, rel=1e-6)


def test_reflection_equivariance_bit_exact(kern):
    # mirroring the data mirrors the minimizer, float for float
    pot = Quartic(0.25)
    rng = np.random.default_rng(5)
    vals = rng.uniform(-1.0, 1.0, LAT.shape)
    mask = rng.random(LAT.shape) < 0.6
    ext = Exterior(0.2, 0.2)
    stop = dict(max_iters=60, grad_tol=1e-7)
    res = minimize_energy(kern, pot, ScalarField(LAT, vals, ext), CellSet(LAT, mask), **stop)
    res_r = minimize_energy(
        kern, pot, ScalarField(LAT, vals[::-1].copy(), ext), CellSet(LAT, mask[::-1].copy()), **stop
    )
    assert np.array_equal(res_r.field.values, res.field.values[::-1])
    assert np.array_equal(res_r.trace, res.trace)


def test_odd_equivariance_bit_exact(b40):
    # halfspace data is invariant under reflect-and-negate, so the run is too
    res, om = b40
    v = res.field.values
    assert np.array_equal(v, -v[::-1])


def test_checkpoint_roundtrip_resumes_converged(kern, b40):
    res, om = b40
    restored = ScalarField(LAT, res.field.values.copy(), EXT)
    assert np.array_equal(restored.values, res.field.values)
    resumed = minimize_energy(kern, Quartic(0.25), restored, om, max_iters=3000,
                              grad_tol=res.grad_tol)
    assert resumed.converged and resumed.iterations == 0


# ------------------------------------------------------------------ residual


def test_residual_on_minimizer_small(kern, b40):
    res, om = b40
    rep = el_residual(kern, Quartic(0.25), res.field, om)
    assert rep.reported.any()
    assert rep.sup < 10 * res.grad_tol
    assert np.isnan(rep.residual[~rep.reported]).all()


def test_residual_nowhere_reported_at_constraint(kern):
    om = ball_mask(LAT, 0.0, 40.0)
    u = ScalarField(LAT, np.ones(LAT.shape), Exterior(1.0, 1.0))
    rep = el_residual(kern, Quartic(0.25), u, om)
    assert not rep.reported.any()
    assert rep.sup == 0.0


def test_residual_detects_non_minimizer(kern):
    om = ball_mask(LAT, 0.0, 40.0)
    rng = np.random.default_rng(2)
    junk = ScalarField(LAT, rng.uniform(-0.9, 0.9, LAT.shape), EXT)
    rep = el_residual(kern, Quartic(0.25), junk, om)
    assert rep.sup > ExperimentConfig().grad_tol


def test_residual_lattice_mismatch(kern):
    other = Lattice(dim=1, h=1.0, lo=(-4,), hi=(4,))
    u = ScalarField(LAT, np.zeros(LAT.shape), EXT)
    with pytest.raises(ValueError, match="lattice"):
        el_residual(kern, Quartic(0.25), u, CellSet.full(other))


# ------------------------------------------------------------------ subdomain


def test_subdomain_check_passes_on_minimizer(kern, b40):
    res, om = b40
    sub = ball_mask(LAT, 0.0, 10.0)
    rep = subdomain_check(kern, Quartic(0.25), res, sub, trials=200)
    assert rep.passed and bool(rep)
    assert rep.worst_margin >= -1e-6
    assert rep.margins.shape == (200,)


def test_subdomain_zero_perturbation_zero_margin(kern, b40):
    res, om = b40
    sub = ball_mask(LAT, 0.0, 5.0)
    rep = subdomain_check(kern, Quartic(0.25), res, sub, trials=3, scale=0.0)
    assert np.all(rep.margins == 0.0)
    assert rep.worst_margin == 0.0 and rep.passed


def test_subdomain_detects_corruption(kern, b40):
    res, om = b40
    bad_vals = res.field.values.copy()
    bad_vals[40:44] = -0.9
    bad = MinimizeResult(
        field=ScalarField(LAT, bad_vals, EXT),
        omega=res.omega,
        grad_tol=res.grad_tol,
        iterations=0,
        grad_norm=0.0,
        trace=res.trace,
        message="corrupted",
    )
    rep = subdomain_check(kern, Quartic(0.25), bad, ball_mask(LAT, 0.0, 10.0), trials=200)
    assert not rep.passed
    assert rep.worst_margin < -1e-6


def test_subdomain_requires_containment(kern, b40):
    res, om = b40
    outside = ball_mask(LAT, 0.0, 41.5)  # pokes beyond omega
    with pytest.raises(ValueError, match="not contained"):
        subdomain_check(kern, Quartic(0.25), res, outside, trials=1)
    other = Lattice(dim=1, h=1.0, lo=(-4,), hi=(4,))
    with pytest.raises(ValueError, match="lattice"):
        subdomain_check(kern, Quartic(0.25), res, CellSet.full(other), trials=1)
    with pytest.raises(ValueError, match="trials"):
        subdomain_check(kern, Quartic(0.25), res, ball_mask(LAT, 0.0, 5.0), trials=0)


def test_one_convolution_per_iteration(kern, monkeypatch):
    # beyond the model's set-up, which convolves the start's free part,
    # each iteration costs one symmetrized convolution (of its search
    # direction), and each refresh one more (the fresh gradient); the
    # energy is evaluated once, at the start, and every trial comes from
    # the segment
    counts = {"conv": 0, "energy": 0, "gradient": 0, "refresh": 0}

    def counted(name, fn):
        def wrapper(self, *args):
            counts[name] += 1
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(EnergyModel, "_conv", counted("conv", EnergyModel._conv))
    pot = Quartic(0.25)
    rng = np.random.default_rng(3)
    u0 = ScalarField(LAT, rng.uniform(-1.0, 1.0, LAT.shape), EXT)
    om = ball_mask(LAT, 0.0, 30.0)
    EnergyModel(kern, pot, u0, om)
    setup = counts["conv"]
    counts["conv"] = 0
    for name in ("energy", "gradient", "refresh"):
        monkeypatch.setattr(EnergyModel, name, counted(name, getattr(EnergyModel, name)))
    res = minimize_energy(kern, pot, u0, om, max_iters=200, grad_tol=1e-7)
    assert res.iterations > 20
    assert counts["energy"] == 1
    assert counts["refresh"] == 1
    assert counts["gradient"] == res.iterations + 1 + counts["refresh"]
    assert counts["conv"] == setup + res.iterations + counts["refresh"]


def test_one_solve_per_iteration(kern, monkeypatch):
    # each iteration applies the preconditioner once, to its gradient, and
    # the solve makes no convolution: beyond the model's set-up those stay
    # one per iteration and one for the stopping check
    counts = {"conv": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(self, *args):
            counts[name] += 1
            return fn(self, *args)
        return wrapper

    monkeypatch.setattr(EnergyModel, "_conv", counted("conv", EnergyModel._conv))
    pot = Quartic(0.25)
    rng = np.random.default_rng(3)
    u0 = ScalarField(LAT, rng.uniform(-1.0, 1.0, LAT.shape), EXT)
    om = ball_mask(LAT, 0.0, 30.0)
    EnergyModel(kern, pot, u0, om)
    setup = counts["conv"]
    counts["conv"] = 0
    monkeypatch.setattr(EnergyModel, "precondition",
                        counted("solve", EnergyModel.precondition))
    res = minimize_energy(kern, pot, u0, om, max_iters=200, grad_tol=1e-7)
    assert res.converged and res.iterations > 5
    assert counts["solve"] == res.iterations
    assert counts["conv"] == setup + res.iterations + 1


def test_non_descent_solve_falls_back_to_projected_gradient(kern, b40, monkeypatch):
    # a negated multiplier turns every solve uphill; each iteration then
    # takes the plain projected-gradient step, 1 / max diagonal, and the
    # run still reaches the minimizer
    inverse = EnergyModel._inverse.func

    def negated(self):
        Ns, M = inverse(self)
        return Ns, -M

    monkeypatch.setattr(EnergyModel, "_inverse", property(negated))
    pot = Quartic(0.25)
    ref, om = b40
    seed = initial_field(LAT, EXT)
    res = minimize_energy(kern, pot, seed, om, max_iters=3000, grad_tol=1e-7)
    assert res.converged and res.grad_norm < res.grad_tol
    assert np.all(np.diff(res.energy_trace) <= 0)
    e_ref = ref.energy_trace[-1]
    assert abs(res.energy_trace[-1] - e_ref) <= 1e-9 * abs(e_ref)
    model = EnergyModel(kern, pot, seed, om)
    diag = 2.0 * model.diag + LAT.cell_volume * np.abs(pot.second(seed.values))
    assert np.all(res.trace[1:, 3] <= 1.0 / np.max(diag[om.members]))
    assert res.iterations > ref.iterations


def _fresh_projected_grad(kern, pot, res):
    model = EnergyModel(kern, pot, res.field, res.omega)
    x = res.field.values
    g = model.gradient()
    return float(np.max(np.abs(np.where(model.omega, x - np.clip(x - g, -1.0, 1.0), 0.0))))


def test_converged_grad_norm_is_fresh(kern, b40):
    # the reported norm is the projected gradient of a fresh model on the
    # final field, bit for bit, and the carried energy is that of the field
    res, om = b40
    assert res.grad_norm == _fresh_projected_grad(kern, Quartic(0.25), res)
    assert res.trace[-1, 2] == res.grad_norm
    fresh = energy_E(kern, Quartic(0.25), res.field, om)
    assert abs(res.energy_trace[-1] - fresh) <= 1e-12 * abs(fresh)


@pytest.mark.parametrize("well", [
    lambda t: 0.25 * (1 - t**2) ** 2,
    # asymmetric: the energy flattens out long before the projected
    # gradient reaches grad_tol, so only a gradient stop certifies it
    lambda t: 0.3 * (1 - t**2) ** 2 * (1 + 0.15 * t),
], ids=["symmetric", "asymmetric"])
def test_tabulated_well_converges(kern, well):
    # the segment evaluates a tabulated well pointwise, as it does a quartic
    ts = np.linspace(-1.0, 1.0, 9)
    pot = Tabulated(tuple(ts), tuple(well(ts)))
    om = ball_mask(LAT, 0.0, 30.0)
    res = minimize_energy(kern, pot, initial_field(LAT, EXT), om,
                          max_iters=3000, grad_tol=1e-7)
    assert res.converged and "gradient" in res.message
    assert res.grad_norm < res.grad_tol
    assert res.grad_norm == _fresh_projected_grad(kern, pot, res)
    assert np.all(np.diff(res.energy_trace) <= 0)
    fresh = energy_E(kern, pot, res.field, om)
    assert abs(res.energy_trace[-1] - fresh) <= 1e-12 * abs(fresh)
