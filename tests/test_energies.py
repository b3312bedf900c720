import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import linregress

from fraclab.energies import EnergyModel, convolve, energy_E
from fraclab.kernels import build_kernel
from fraclab.lattice import (
    CellSet,
    ConstantExterior,
    HalfspaceExterior,
    Lattice,
    ScalarField,
    ball_mask,
    psi_field,
)
from fraclab.potential import Quartic, Tabulated

LAT1 = Lattice(dim=1, h=0.5, lo=(-8,), hi=(8,))
LAT2 = Lattice(dim=2, h=0.5, lo=(-6, -6), hi=(6, 6))
LATS = Lattice(dim=1, h=1.0, lo=(-64,), hi=(64,))


@pytest.fixture(scope="module")
def kern1():
    return build_kernel(LAT1, 0.5)


@pytest.fixture(scope="module")
def kern2():
    return build_kernel(LAT2, 0.5)


@pytest.fixture(scope="module")
def sign_kernels():
    return {s: build_kernel(LATS, s) for s in (0.25, 0.5, 0.75)}


def sign_field():
    vals = np.sign(LATS.axis_centers(0))
    vals[vals == 0] = 1.0
    return ScalarField(LATS, vals, HalfspaceExterior(0, 0.0))


def _seminorm(kern, u, omega=None):
    model = EnergyModel(kern, None, u, omega)
    return model.seminorm(u.values)


def _frac_laplacian(kern, u):
    """fl_i = sum_j w_ij (u_i - u_j), exterior included, on the box cells:
    half the seminorm's gradient over the full box."""
    model = EnergyModel(kern, None, u)
    return 0.5 * model.gradient(u.values)


def random_field(lat, seed, exterior=None):
    rng = np.random.default_rng(seed)
    ext = ConstantExterior(-1.0) if exterior is None else exterior
    return ScalarField(lat, rng.uniform(-1.0, 1.0, lat.shape), ext)


# ------------------------------------------------------------------ K


def test_two_cell_value():
    # u = (-1, +1) on [0,1),[1,2), exterior +1: the piecewise-constant
    # continuum double integral is exactly 32 = 4*(8-4*sqrt2) + 4*(4*sqrt2)
    lat = Lattice(dim=1, h=1.0, lo=(0,), hi=(2,))
    kern = build_kernel(lat, 0.25)
    u = ScalarField(lat, np.array([-1.0, 1.0]), ConstantExterior(1.0))
    k = _seminorm(kern, u, CellSet.full(lat))
    assert k == pytest.approx(32.0, rel=1e-12)


def test_constant_field_is_zero(kern1, kern2):
    for kern, lat in ((kern1, LAT1), (kern2, LAT2)):
        u = ScalarField(lat, np.ones(lat.shape), ConstantExterior(1.0))
        assert _seminorm(kern, u) == 0.0
        assert energy_E(kern, Quartic(), u) == 0.0
    # interior constant, exterior matching but not a minimum of the well
    u = ScalarField(LAT1, np.full(LAT1.shape, 0.3), ConstantExterior(0.3))
    assert abs(_seminorm(kern1, u)) < 1e-10


def test_negation_symmetry(kern1):
    u = random_field(LAT1, 0)
    un = ScalarField(LAT1, -u.values, ConstantExterior(1.0))
    om = ball_mask(LAT1, 0.0, 2.0)
    assert _seminorm(kern1, un, om) == pytest.approx(_seminorm(kern1, u, om), rel=1e-13)


def test_omega_defaults_to_full_box(kern1):
    u = random_field(LAT1, 1)
    assert _seminorm(kern1, u) == _seminorm(kern1, u, CellSet.full(LAT1))


def test_mismatched_lattice_errors(kern1):
    other = Lattice(dim=1, h=0.5, lo=(-10,), hi=(10,))
    u_other = ScalarField(other, np.zeros(other.shape), ConstantExterior(0.0))
    with pytest.raises(ValueError, match="lattice"):
        _seminorm(kern1, u_other)
    with pytest.raises(ValueError, match="lattice"):
        _seminorm(kern1, random_field(LAT1, 2), CellSet.full(other))


def test_domain_monotonicity(kern1, kern2):
    # dropping cells from omega removes pair terms, never adds any
    for kern, lat in ((kern1, LAT1), (kern2, LAT2)):
        u = random_field(lat, 3, HalfspaceExterior(0, 0.2))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            small = rng.random(lat.shape) < 0.4
            big = small | (rng.random(lat.shape) < 0.4)
            k_small = _seminorm(kern, u, CellSet(lat, small))
            k_big = _seminorm(kern, u, CellSet(lat, big))
            assert k_small <= k_big * (1 + 1e-12) + 1e-12


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quadratic_scaling(kern1, lam):
    base = random_field(LAT1, 4, ConstantExterior(0.0))
    om = ball_mask(LAT1, 0.0, 3.0)
    k1 = _seminorm(kern1, base, om)
    scaled = ScalarField(LAT1, lam * base.values, ConstantExterior(0.0))
    assert _seminorm(kern1, scaled, om) == pytest.approx(lam * lam * k1, rel=1e-12, abs=1e-13)


def test_refinement_convergence():
    # same smooth profile sampled at h and h/2: K moves by well under 5%
    vals = {}
    for h in (0.5, 0.25):
        lat = Lattice(dim=1, h=h, lo=(int(-8 / h),), hi=(int(8 / h),))
        kern = build_kernel(lat, 0.5)
        u = ScalarField(lat, np.tanh(lat.axis_centers(0)), HalfspaceExterior(0, 0.0))
        vals[h] = _seminorm(kern, u, ball_mask(lat, 0.0, 4.0))
    assert abs(vals[0.25] - vals[0.5]) / vals[0.25] < 0.05


# ------------------------------------------------------------------ E


def test_energy_E_dominates_each_term(kern1):
    pot = Quartic()
    u = random_field(LAT1, 5)
    om = ball_mask(LAT1, 0.0, 3.0)
    model = EnergyModel(kern1, pot, u, om)
    x = u.values
    e = energy_E(kern1, pot, u, om)
    assert e == pytest.approx(model.seminorm(x) + model.potential_term(x))
    assert e >= model.seminorm(x)
    assert e >= model.potential_term(x)
    assert e >= 0.0


def test_psi_sweep_growth_rate():
    # 1D, s=1/4: the comparison profile's energy grows like R^(1-2s) = sqrt(R)
    pot = Quartic()
    radii = [20.0, 40.0, 80.0]
    energies = []
    for r in radii:
        lat = Lattice(dim=1, h=1.0, lo=(-(int(r) + 2),), hi=(int(r) + 2,))
        kern = build_kernel(lat, 0.25)
        energies.append(energy_E(kern, pot, psi_field(lat, r), ball_mask(lat, 0.0, r + 2)))
    assert energies[0] < energies[1] < energies[2]
    fit = linregress(np.log(radii), np.log(energies))
    assert 0.35 <= fit.slope <= 0.65


# ------------------------------------------------------------------ u(A, B)


def _interaction(kern, u, a, b=None):
    """u(A, B) for disjoint A and B (default: the rest of the box), by
    inclusion-exclusion: K(A) and K(B) both count the pairs across."""
    whole = None if b is None else a.union(b)
    b = a.complement() if b is None else b
    return _seminorm(kern, u, a) + _seminorm(kern, u, b) - _seminorm(kern, u, whole)


def _pair_mass(kern, u, a, b):
    """sum over i in A, j in B of w_ij (u_i - u_j)^2, box cells only."""
    lat = kern.lattice
    ia, ib = np.argwhere(a.members), np.argwhere(b.members)
    off = ia[:, None, :] - ib[None, :, :] + (np.array(lat.shape) - 1)
    w = kern.table[tuple(off[..., k] for k in range(lat.dim))]
    d = u.values[a.members][:, None] - u.values[b.members][None, :]
    return math.fsum((w * d * d).ravel())


def _exterior_mass(kern, u, a):
    """sum over i in A of the pairs with a halfspace exterior (+1 on y >= t)."""
    plus, minus = kern.tail_halfspace(u.exterior.axis, u.exterior.threshold)
    v = u.values
    return math.fsum((plus * (v - 1.0) ** 2 + minus * (v + 1.0) ** 2)[a.members])


def test_interaction_symmetry(kern1):
    u = random_field(LAT1, 7, HalfspaceExterior(0, 0.0))
    a = ball_mask(LAT1, -1.0, 1.0)
    b = ball_mask(LAT1, 2.0, 1.2)
    sab = _interaction(kern1, u, a, b)
    assert sab >= 0.0
    assert _pair_mass(kern1, u, a, b) == pytest.approx(_pair_mass(kern1, u, b, a), rel=1e-13)
    assert sab == pytest.approx(_pair_mass(kern1, u, b, a), rel=1e-13)


def test_interaction_constant_on_both_sets(kern1):
    vals = np.where(np.abs(LAT1.axis_centers(0)) < 2.5, 0.7, -0.4)
    u = ScalarField(LAT1, vals, ConstantExterior(-1.0))
    a = ball_mask(LAT1, -1.0, 0.9)
    b = ball_mask(LAT1, 1.0, 0.9)
    # u is 0.7 across a and b: every pair difference vanishes
    assert abs(_interaction(kern1, u, a, b)) < 1e-10


def test_interaction_complement_default(kern1):
    # omega=None is the whole box: K(a) + K(rest) - K(box) is the pair
    # mass across the two
    u = random_field(LAT1, 8)
    a = ball_mask(LAT1, 0.0, 2.0)
    comp = CellSet(LAT1, ~a.members)
    assert _interaction(kern1, u, a, None) \
        == pytest.approx(_interaction(kern1, u, a, comp), rel=1e-12)
    assert _interaction(kern1, u, a, None) \
        == pytest.approx(_pair_mass(kern1, u, a, comp), rel=1e-12)


def test_decomposition_identity(kern1, kern2):
    # K(u; om) = u(om, om)/2 + u(om, complement incl. exterior)
    cases = [
        (kern1, random_field(LAT1, 9, HalfspaceExterior(0, 0.0)), ball_mask(LAT1, 0.0, 2.0)),
        (kern2, random_field(LAT2, 10, HalfspaceExterior(1, 0.3)), ball_mask(LAT2, (0.0, 0.0), 2.0)),
    ]
    for kern, u, om in cases:
        k = _seminorm(kern, u, om)
        lhs = _pair_mass(kern, u, om, om) / 2.0 \
            + _pair_mass(kern, u, om, om.complement()) + _exterior_mass(kern, u, om)
        assert lhs == pytest.approx(k, rel=1e-12)


def test_interaction_lattice_mismatch(kern1):
    other = Lattice(dim=1, h=0.5, lo=(-10,), hi=(10,))
    u = random_field(LAT1, 11)
    with pytest.raises(ValueError, match="lattice"):
        _interaction(kern1, u, CellSet.full(other))
    with pytest.raises(ValueError, match="lattice"):
        _interaction(kern1, u, ball_mask(LAT1, 0.0, 1.0), CellSet.full(other))


# ------------------------------------------------------------------ operator


def test_fl_constant_field_zero(sign_kernels):
    u = ScalarField(LATS, np.full(LATS.shape, 0.4), ConstantExterior(0.4))
    assert np.max(np.abs(_frac_laplacian(sign_kernels[0.5], u))) < 1e-13


def test_fl_sign_field_matches_pv(sign_kernels):
    # principal value for u = sign at center x > 0:
    #   int_{y<0} 2 (x-y)^(-(1+2s)) dy = 2 x^(-2s) / (2s)
    # compared a few cells from the jump, where cell averaging is O(h^2)
    u = sign_field()
    for s, kern in sign_kernels.items():
        got = _frac_laplacian(kern, u)[3 - LATS.lo[0]]
        pv = 2.0 * 3.5 ** (-2.0 * s) / (2.0 * s)
        assert got == pytest.approx(pv, rel=0.01)


def test_fl_sign_field_jump_cell_average(sign_kernels):
    # at the jump cell [0,1) with s=1/4 the brute-force double integral
    # (averaging x across the cell) is int_0^1 4 x^(-1/2) dx = 8
    u = sign_field()
    got = _frac_laplacian(sign_kernels[0.25], u)[0 - LATS.lo[0]]
    assert got == pytest.approx(8.0, rel=0.01)


def test_fl_odd_field_antisymmetry(sign_kernels):
    u = sign_field()
    for kern in sign_kernels.values():
        pair = _frac_laplacian(kern, u)[[-1 - LATS.lo[0], 0 - LATS.lo[0]]]
        assert pair[0] == pytest.approx(-pair[1], rel=1e-13)


# worst relative error of the lattice operator against the torsion closed
# form on |x| < R/2, at h = 1/2, 1/4, 1/8 (and 1/16 in 1D), and the observed
# orders between them; at s >= 1/2 the collocated touching weight holds the
# order near 2 - 2s
TORSION = {
    (1, 0.25): ([1.0569e-3, 3.3006e-4, 9.8058e-5, 2.6946e-5], [1.679, 1.751, 1.864]),
    (1, 0.5): ([8.5283e-4, 4.3624e-4, 2.3111e-4, 1.2247e-4], [0.967, 0.917, 0.916]),
    (1, 0.75): ([5.1269e-2, 3.6648e-2, 2.6041e-2, 1.8455e-2], [0.484, 0.493, 0.497]),
    (2, 0.25): ([4.8736e-3, 1.8793e-3, 5.8039e-4], [1.375, 1.695]),
    (2, 0.5): ([1.5028e-2, 7.4962e-3, 3.6667e-3], [1.003, 1.032]),
    (2, 0.75): ([3.1307e-2, 2.1588e-2, 1.5134e-2], [0.536, 0.512]),
}


@pytest.mark.parametrize("dim, s", sorted(TORSION))
def test_lattice_operator_matches_torsion_closed_form(dim, s):
    # Getoor, Trans. AMS 101 (1961): for u = (1 - |x|^2/R^2)_+^s,
    # int (u(x) - u(y)) |x - y|^(-(n+2s)) dy
    #     = pi^(1+n/2) / (sin(pi s) Gamma(n/2)) R^(-2s)   for |x| < R;
    # u vanishes beyond the box, so ConstantExterior(0) is exact there
    R = 16.0 if dim == 1 else 8.0
    exact = (math.pi ** (1 + dim / 2) / (math.sin(math.pi * s) * math.gamma(dim / 2))
             * R ** (-2.0 * s))
    errs = []
    for h in (0.5, 0.25, 0.125, 0.0625)[:len(TORSION[dim, s][0])]:
        lat = Lattice.covering_ball(dim, h, 0.0, R)
        x = np.meshgrid(*(lat.axis_centers(a) for a in range(dim)), indexing="ij")
        r2 = sum(c * c for c in x)
        u = ScalarField(lat, np.maximum(1.0 - r2 / R**2, 0.0) ** s, ConstantExterior(0.0))
        op = _frac_laplacian(build_kernel(lat, s), u) / h**dim
        errs.append(float(np.max(np.abs(op[r2 < (R / 2) ** 2] - exact))) / exact)
    ref_errs, ref_orders = TORSION[dim, s]
    for got, ref in zip(errs, ref_errs):
        assert got <= 1.1 * ref
    for a, b, ref in zip(errs, errs[1:], ref_orders):
        assert math.log2(a / b) >= ref - 0.05


def test_fl_is_half_gradient_of_K(kern1, kern2):
    # directional derivative of K along delta equals 2 sum_i delta_i fl_i;
    # K is quadratic, so the central difference is exact up to round-off
    for kern, lat in ((kern1, LAT1), (kern2, LAT2)):
        u = random_field(lat, 12, HalfspaceExterior(0, 0.1))
        om = ball_mask(lat, 0.0 if lat.dim == 1 else (0.0, 0.0), 2.0)
        scaled = ScalarField(lat, 0.5 * u.values, u.exterior)
        fl = _frac_laplacian(kern, scaled)
        rng = np.random.default_rng(13)
        t = 1e-6
        for _ in range(6):
            delta = np.where(om.members, rng.normal(size=lat.shape), 0.0)
            up = ScalarField(lat, scaled.values + t * delta, u.exterior)
            dn = ScalarField(lat, scaled.values - t * delta, u.exterior)
            fd = (_seminorm(kern, up, om) - _seminorm(kern, dn, om)) / (2 * t)
            analytic = 2.0 * float(np.sum(delta * fl))
            assert fd == pytest.approx(analytic, rel=1e-8)


# ------------------------------------------------------------------ padded box


def test_padded_box_matches_direct():
    # exterior samples are the fixed cells of a padded box, with the
    # constant +1 beyond it; energy and operator against explicit pair sums
    outer = Lattice(dim=1, h=0.5, lo=(-12,), hi=(12,))
    pad = (LAT1.lo[0] - outer.lo[0], outer.hi[0] - LAT1.hi[0])
    rng = np.random.default_rng(15)
    big = np.clip(np.tanh(outer.axis_centers(0)) + 0.2 * rng.normal(size=outer.shape), -1, 1)
    u = ScalarField(outer, big, ConstantExterior(1.0))
    kern = build_kernel(outer, 0.5)
    om = CellSet(outer, np.pad(ball_mask(LAT1, 0.0, 1.4).members, pad))
    n = outer.shape[0]
    w = [[kern.table[i - j + n - 1] for j in range(n)] for i in range(n)]
    tail = kern.tail_weights
    pairs = [w[i][j] * (big[i] - big[j]) ** 2 / (1 + om.members[j])
             for i in range(n) if om.members[i] for j in range(n)]
    pairs += [tail[i] * (big[i] - 1.0) ** 2 for i in range(n) if om.members[i]]
    assert _seminorm(kern, u, om) == pytest.approx(math.fsum(pairs), rel=1e-13)
    fl = [math.fsum([w[i][j] * (big[i] - big[j]) for j in range(n)]
                    + [tail[i] * (big[i] - 1.0)]) for i in range(n)]
    np.testing.assert_allclose(_frac_laplacian(kern, u), fl, rtol=1e-12,
                               atol=1e-13 * max(map(abs, fl)))


def test_padded_box_must_enclose(kern1):
    # the model works on the kernel's box: samples outside omega must be
    # cells of that box, so a field or omega on another lattice is refused
    pot = Quartic()
    zeros = np.zeros(LAT1.shape)
    for other in (Lattice(dim=1, h=0.5, lo=(-4,), hi=(4,)),
                  Lattice(dim=1, h=0.5, lo=(-12,), hi=(12,)),
                  Lattice(dim=1, h=1.0, lo=(-8,), hi=(8,))):
        with pytest.raises(ValueError, match="field lattice"):
            EnergyModel(kern1, pot, ScalarField(other, np.zeros(other.shape),
                                                ConstantExterior(1.0)))
        with pytest.raises(ValueError, match="omega lattice"):
            EnergyModel(kern1, pot, ScalarField(LAT1, zeros, ConstantExterior(1.0)),
                        CellSet.full(other))


# ------------------------------------------------------------------ quadratic form


def _pair_weights(kern):
    """w[i, j] = table[i - j] for every pair of box cells, in C order."""
    lat = kern.lattice
    idx = np.indices(lat.shape).reshape(lat.dim, -1).T
    off = idx[:, None, :] - idx[None, :, :] + (np.array(lat.shape) - 1)
    return kern.table[tuple(off[..., a] for a in range(lat.dim))]


def _pair_sum_convolution(kern, x):
    """out_i = sum_j table[i - j] * x_j by explicit sums over every pair of
    box cells."""
    return (_pair_weights(kern) @ x.ravel()).reshape(x.shape)


def _assert_close_to_max(got, want):
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("lo, hi", [((-8,), (8,)), ((-8,), (9,)),
                                    ((-4, -4), (4, 4)), ((-4, -5), (5, 4))])
def test_cached_spectrum_convolution_is_fftconvolve(lo, hi):
    # one memoized spectrum; its circular convolution gives the in-box
    # window of SciPy's full linear convolution and of the direct pair sum
    from scipy.signal import fftconvolve as oracle

    lat = Lattice(dim=len(lo), h=0.5, lo=lo, hi=hi)
    kern = build_kernel(lat, 0.25)
    assert kern.spectrum is kern.spectrum
    inner = tuple(slice(n - 1, 2 * n - 1) for n in lat.shape)
    x = np.random.default_rng(lat.n_cells).uniform(-1.0, 1.0, lat.shape)
    for arr in (x, np.flip(x, 0)):
        got = convolve(kern, arr)
        _assert_close_to_max(got, oracle(arr, kern.table, mode="full")[inner])
        _assert_close_to_max(got, _pair_sum_convolution(kern, arr))


@pytest.mark.parametrize("lo, hi", [((-4,), (4,)), ((-4, -6), (4, 7))])
def test_convolution_at_tightest_circular_length(lo, hi):
    # extent 8 transforms at exactly N = n, the shortest period 2N that
    # keeps the far offsets +-(n - 1) from wrapping into the window; 13
    # rounds up to the fast length 15
    lat = Lattice(dim=len(lo), h=0.5, lo=lo, hi=hi)
    kern = build_kernel(lat, 0.75)
    assert kern.spectrum[0] == (8, 15)[:lat.dim]
    x = np.random.default_rng(lat.n_cells).uniform(-1.0, 1.0, lat.shape)
    got = convolve(kern, x)
    _assert_close_to_max(got, _pair_sum_convolution(kern, x))
    for axes in [(0,), (1,), (0, 1)][:2 * lat.dim - 1]:
        assert np.array_equal(convolve(kern, np.flip(x, axes)), np.flip(got, axes))
    with pytest.raises(ValueError, match="field shape"):
        convolve(kern, np.zeros(tuple(n + 1 for n in lat.shape)))


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (1, 1), (1, 5), (2, 3), (7, 4)])
def test_convolution_on_tiny_and_odd_boxes(shape):
    # an axis of extent 1 leaves its odd class empty, an odd extent folds
    # about a centre cell; both against the pair sum, and exactly
    # equivariant under every reflection and under negation
    lat = Lattice(dim=len(shape), h=0.5, lo=(0,) * len(shape), hi=shape)
    kern = build_kernel(lat, 0.25)
    x = np.random.default_rng(lat.n_cells).uniform(-1.0, 1.0, shape)
    got = convolve(kern, x)
    _assert_close_to_max(got, _pair_sum_convolution(kern, x))
    for r in range(1, lat.dim + 1):
        for axes in itertools.combinations(range(lat.dim), r):
            assert np.array_equal(convolve(kern, np.flip(x, axes)), np.flip(got, axes))
    assert np.array_equal(convolve(kern, -x), -got)


def _pair_sum_oracle(kern, pot, u, omega, t0, t1, t2):
    """Energy and gradient by explicit sums over every pair of box cells."""
    lat = kern.lattice
    w = _pair_weights(kern)
    v, m = u.ravel(), omega.ravel()
    diff = v[:, None] - v[None, :]
    pairs = w * diff * diff
    k = (math.fsum(pairs[np.ix_(m, m)].ravel()) / 2.0
         + math.fsum(pairs[np.ix_(m, ~m)].ravel())
         + math.fsum((t0 * u * u - 2.0 * t1 * u + t2)[omega]))
    grad = 2.0 * ((w * diff).sum(axis=1).reshape(lat.shape) + t0 * u - t1)
    measure = lat.h ** lat.dim
    e = k + measure * math.fsum(pot.value(u[omega]))
    grad = np.where(omega, grad + measure * pot.deriv(u), 0.0)
    return k, e, grad


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["constant", "halfspace", "padded"])
def test_quadratic_form_matches_pair_sums(kern1, kern2, dim, kind):
    kern, lat = (kern1, LAT1) if dim == 1 else (kern2, LAT2)
    rng = np.random.default_rng(17)
    pot = Quartic()
    om = CellSet(lat, rng.random(lat.shape) < 0.5)
    vals = rng.uniform(-1.0, 1.0, lat.shape)
    if kind == "padded":
        # omega inside the original box, random fixed cells in a pad of 3
        # below and 2 above, and -1 beyond the padded box
        lat = Lattice(dim, lat.h, tuple(a - 3 for a in lat.lo),
                      tuple(b + 2 for b in lat.hi))
        kern = build_kernel(lat, kern.s)
        pad = [(3, 2)] * dim
        om = CellSet(lat, np.pad(om.members, pad))
        vals = np.where(om.members, np.pad(vals, pad),
                        rng.uniform(-1.0, 1.0, lat.shape))
        ext = ConstantExterior(-1.0)
        t0 = kern.tail_weights
        t1, t2 = -t0, t0
    elif kind == "constant":
        ext = ConstantExterior(-0.7)
        t0 = kern.tail_weights
        t1, t2 = -0.7 * t0, 0.49 * t0
    else:
        ext = HalfspaceExterior(dim - 1, 0.2)
        plus, minus = kern.tail_halfspace(dim - 1, 0.2)
        t0, t1, t2 = plus + minus, plus - minus, plus + minus
    u = ScalarField(lat, vals, ext)
    model = EnergyModel(kern, pot, u, om)
    x, omega = u.values, om.members
    k, e, grad = _pair_sum_oracle(kern, pot, x, omega, t0, t1, t2)
    assert model.seminorm(x) == pytest.approx(k, rel=1e-12)
    assert model.energy(x) == pytest.approx(e, rel=1e-12)
    np.testing.assert_allclose(model.gradient(x), grad, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(grad)))
    # a point that also moves fixed cells is still evaluated exactly
    y = np.where(omega, x, 0.9 * x)
    k_y, _, grad_y = _pair_sum_oracle(kern, pot, y, omega, t0, t1, t2)
    assert model.seminorm(y) == pytest.approx(k_y, rel=1e-12)
    np.testing.assert_allclose(model.gradient(y), grad_y, rtol=1e-12,
                               atol=1e-12 * np.max(np.abs(grad_y)))


TAB = Tabulated(tuple(np.linspace(-1.0, 1.0, 9)),
                tuple(0.3 * (1 - t * t) ** 2 * (1 + 0.15 * t) for t in np.linspace(-1.0, 1.0, 9)))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("pot", [Quartic(), TAB], ids=["quartic", "tabulated"])
def test_segment_change_matches_energy_difference(kern1, kern2, dim, pot):
    # the segment's small difference against two full evaluations, and
    # the moved T(o) against a fresh model's gradient
    kern, lat = (kern1, LAT1) if dim == 1 else (kern2, LAT2)
    rng = np.random.default_rng(31)
    om = CellSet(lat, rng.random(lat.shape) < 0.6)
    x = rng.uniform(-0.9, 0.9, lat.shape)
    u = ScalarField(lat, x, HalfspaceExterior(dim - 1, 0.2))
    model = EnergyModel(kern, pot, u, om)
    e0 = model.energy(x)
    target = np.clip(x + rng.normal(0.0, 0.5, lat.shape), -1.0, 1.0)
    d = np.where(om.members, target - x, 0.0)
    delta = model.segment(x, d)
    for t in (1.0, 0.5, 0.125):
        ref = EnergyModel(kern, pot, u, om)
        diff = ref.energy(x + t * d) - ref.energy(x)
        assert abs(delta(t) - diff) <= 4e-15 * abs(e0)
    y = model.move(0.125)
    assert np.array_equal(y, np.clip(x + 0.125 * d, -1.0, 1.0))
    grad = EnergyModel(kern, pot, u, om).gradient(y)
    np.testing.assert_allclose(model.gradient(y), grad, rtol=0,
                               atol=4e-15 * np.max(np.abs(grad)))


def test_constant_sign_field_is_exactly_zero(kern1, kern2):
    pot = Quartic()
    for kern, lat in ((kern1, LAT1), (kern2, LAT2)):
        om = ball_mask(lat, (0.0,) * lat.dim, 2.0)
        # the same omega in a box padded by 2 below and 3 above, whose pad
        # cells are fixed at the sign
        outer = Lattice(lat.dim, lat.h, tuple(a - 2 for a in lat.lo),
                        tuple(b + 3 for b in lat.hi))
        outer_kern = build_kernel(outer, kern.s)
        outer_om = CellSet(outer, np.pad(om.members, [(2, 3)] * lat.dim))
        for sign in (1.0, -1.0):
            for k, box, omega in ((kern, lat, om), (outer_kern, outer, outer_om)):
                u = ScalarField(box, np.full(box.shape, sign), ConstantExterior(sign))
                assert _seminorm(k, u, omega) == 0.0
                assert energy_E(k, pot, u, omega) == 0.0
