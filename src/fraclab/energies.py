"""Nonlocal interaction energies on sampled fields.

The quadratic interaction of a field with itself splits into three pieces:
pairs of cells inside the box (a convolution against the dense offset
table), pairs between a cell and the analytic exterior (per-cell tail
quadratics), and the local double-well term.  Final reductions all use
compensated summation in fixed cell order, so values are reproducible
bit-for-bit regardless of threading.

The in-box pairs form a quadratic form whose matrix T, the offset table,
is block-Toeplitz and symmetric.  Split a field as u = o + f, with o its
free part on omega and f the fixed rest; then the interaction needs only
T(o) beyond T(f) and T(1 off omega), which stay put while a minimizer
moves o.  Each new point costs one convolution and its gradient reuses
it.  Every convolution multiplies by the table's spectrum, which the
kernel caches per working extent.

Fields with sampled exterior data are lifted onto the enclosing lattice
once and evaluated there; the offset table extends to the larger box for
free because the weights depend only on the index offset.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import KernelTable, fftconvolve, stable_sum
from .lattice import (
    CellSet,
    ConstantExterior,
    HalfspaceExterior,
    Lattice,
    SampledExterior,
    ScalarField,
)

__all__ = [
    "EnergyModel",
    "gagliardo_K",
    "energy_E",
    "energy_J_eps",
    "energy_F_eps",
    "scaling_factor",
    "interaction_u",
    "frac_laplacian",
    "energy_report",
]


def _check_enclosing(inner: Lattice, outer: Lattice) -> None:
    if outer.dim != inner.dim or outer.h != inner.h:
        raise ValueError("sampled exterior lattice must share dim and spacing with the box")
    for a in range(inner.dim):
        if outer.lo[a] > inner.lo[a] or outer.hi[a] < inner.hi[a]:
            raise ValueError("sampled exterior lattice must enclose the box")


class EnergyModel:
    """Workspace for repeated energy and gradient evaluation.

    Fixes the kernel, the potential, the exterior data and the free region
    once.  An energy at a new point then costs one reflection-symmetrized
    convolution, of the point's free part, and the gradient at the point
    last evaluated costs none.  A point whose fixed cells differ from the
    model's field pays one more.  ``omega`` defaults to every cell in the
    box.
    """

    def __init__(self, kern: KernelTable, pot, u: ScalarField, omega: CellSet | None = None):
        lat = kern.lattice
        if u.lattice != lat:
            raise ValueError("field lattice does not match the kernel lattice")
        if omega is not None and omega.lattice != lat:
            raise ValueError("omega lattice does not match the kernel lattice")

        ext = u.exterior
        if isinstance(ext, SampledExterior):
            _check_enclosing(lat, ext.outer)
            work = ext.outer
            self.kern = kern.lifted(work)
            self._base = np.array(ext.values, dtype=float)
            tail_ext = ConstantExterior(ext.fill)
        else:
            work = lat
            self.kern = kern
            self._base = None
            tail_ext = ext

        self.pot = pot
        self.lat = work
        self.inner = tuple(
            slice(lat.lo[a] - work.lo[a], lat.hi[a] - work.lo[a]) for a in range(lat.dim)
        )
        mask = np.zeros(work.shape, dtype=bool)
        mask[self.inner] = True if omega is None else omega.members
        self.omega = mask
        self.cell_measure = work.h**work.dim

        # exterior pairing of cell i contributes t0*u_i^2 - 2*t1*u_i + t2
        if isinstance(tail_ext, ConstantExterior):
            t0 = self.kern.tail_weights
            g = tail_ext.value
            t1, t2 = g * t0, g * g * t0
        elif isinstance(tail_ext, HalfspaceExterior):
            plus, minus = self.kern.tail_halfspace(tail_ext.axis, tail_ext.threshold)
            t0 = plus + minus
            t1, t2 = plus - minus, plus + minus
        else:
            raise TypeError(f"unsupported exterior descriptor {type(tail_ext).__name__}")
        self.t0, self.t1, self.t2 = t0, t1, t2

        self._fshape, self._spec = self.kern.spectrum(work.shape)
        free = mask.astype(float)
        self._c_box = self._conv(np.ones(work.shape))
        self._c_omega = self._conv(free)
        self._c_fixed = self._conv(1.0 - free)
        # the fixed part of u (off omega, sampled block included) and T of it
        self._f = np.where(mask, 0.0, self.lift(u.values))
        self._tf = self._conv(self._f)
        # the free part of the last point evaluated, and T of it
        self._o = self._to = None

    # -- plumbing -------------------------------------------------------------

    def _conv_raw(self, x: np.ndarray) -> np.ndarray:
        out = fftconvolve(x, self._spec, self._fshape)
        return out[tuple(slice(n - 1, 2 * n - 1) for n in x.shape)]

    def _conv(self, x: np.ndarray) -> np.ndarray:
        """Offset-table convolution: out_i = sum_j table[i-j] * x_j.

        Averaged with its mirror image per axis, so reflecting the input
        reflects the output bit-for-bit (the FFT alone does not commute
        exactly with reflection); commutativity of the final addition makes
        the average exactly equivariant.
        """
        def sym(fn, y, axis):
            return 0.5 * (fn(y) + np.flip(fn(np.flip(y, axis)), axis))

        if x.ndim == 1:
            return sym(self._conv_raw, x, 0)
        return sym(lambda y: sym(self._conv_raw, y, 0), x, 1)

    def _split(self, u: np.ndarray):
        """(f, T(o), T(f)) for u = o + f, o its free part and f the rest.

        T(o) is kept for the next call with the same free part, and T(f)
        comes from the model unless u changes a fixed cell.
        """
        o = np.where(self.omega, u, 0.0)
        if self._o is None or not np.array_equal(o, self._o):
            self._o, self._to = o, self._conv(o)
        f = np.where(self.omega, 0.0, u)
        tf = self._tf if np.array_equal(f, self._f) else self._conv(f)
        return f, self._to, tf

    def lift(self, values: np.ndarray) -> np.ndarray:
        """Box values extended by the sampled exterior block, if any."""
        if self._base is None:
            return np.asarray(values, dtype=float)
        out = self._base.copy()
        out[self.inner] = values
        return out

    # -- evaluation -----------------------------------------------------------

    def seminorm(self, lifted: np.ndarray) -> float:
        u = lifted
        f, to, tf = self._split(u)
        # free cells: pairs within omega (each once, as u_i (u_i - u_j)
        # summed both ways), pairs with fixed cells, pairs with the exterior;
        # fixed cells: the other half of their pairs with omega.  Each
        # bracket is exactly zero on a constant +-1 field.
        free = (u * (u * self._c_omega - to) + u * (u * self._c_fixed - tf)
                + (self.t0 * u * u - 2.0 * self.t1 * u + self.t2))
        fixed = f * (f * self._c_omega - to)
        return float(stable_sum(np.where(self.omega, free, fixed)))

    def potential_term(self, lifted: np.ndarray) -> float:
        if self.pot is None:
            return 0.0
        return self.cell_measure * float(stable_sum(self.pot.value(lifted[self.omega])))

    def energy(self, lifted: np.ndarray) -> float:
        return self.seminorm(lifted) + self.potential_term(lifted)

    def gradient(self, lifted: np.ndarray) -> np.ndarray:
        """d(energy)/d(u_i) on the free cells, zero elsewhere."""
        u = lifted
        _, to, tf = self._split(u)
        fl = u * self._c_box - to - tf + self.t0 * u - self.t1
        g = 2.0 * fl
        if self.pot is not None:
            g = g + self.cell_measure * self.pot.deriv(u)
        return np.where(self.omega, g, 0.0)


# -- functional forms ---------------------------------------------------------


def gagliardo_K(kern: KernelTable, u: ScalarField, omega: CellSet | None = None) -> float:
    """Quadratic interaction of the field over omega.

    Pairs with both cells in omega count once; pairs coupling omega to the
    rest of the box, or to the exterior, count in full.  Zero exactly when
    the field is constant across every interacting pair.
    """
    model = EnergyModel(kern, None, u, omega)
    return model.seminorm(model.lift(u.values))


def energy_E(kern: KernelTable, pot, u: ScalarField, omega: CellSet | None = None) -> float:
    """Interaction plus the cell-measure-weighted double-well term."""
    model = EnergyModel(kern, pot, u, omega)
    return model.energy(model.lift(u.values))


def energy_J_eps(
    kern: KernelTable, pot, u: ScalarField, omega: CellSet | None, eps: float
) -> float:
    """Rescaled functional: eps^(2s) times the interaction, plus the well."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive number, got {eps}")
    model = EnergyModel(kern, pot, u, omega)
    lifted = model.lift(u.values)
    return eps ** (2.0 * kern.s) * model.seminorm(lifted) + model.potential_term(lifted)


def scaling_factor(s: float, eps: float) -> float:
    """Normalization that keeps minimal interface energy order one.

    Below s=1/2 the interaction dominates and the factor is eps^(-2s); at
    s=1/2 it is 1/|eps log eps|, which vanishes at eps=1 (no admissible
    normalization there); above s=1/2 the scaling is the classical 1/eps.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be a positive number, got {eps}")
    if s < 0.5:
        return eps ** (-2.0 * s)
    if s == 0.5:
        if eps == 1.0:
            raise ValueError("scaling is degenerate at eps=1 for s=1/2: |eps log eps| vanishes")
        return 1.0 / abs(eps * math.log(eps))
    return 1.0 / eps


def energy_F_eps(
    kern: KernelTable,
    pot,
    u: ScalarField,
    omega: CellSet | None,
    eps: float,
    s: float | None = None,
) -> float:
    """Normalized rescaled energy; the minimal value stays order one as eps -> 0."""
    if s is None:
        s = kern.s
    elif s != kern.s:
        raise ValueError(f"exponent {s} does not match the kernel exponent {kern.s}")
    return scaling_factor(s, eps) * energy_J_eps(kern, pot, u, omega, eps)


def interaction_u(
    kern: KernelTable,
    u: ScalarField,
    a: CellSet,
    b: CellSet | None = None,
    include_exterior: bool = False,
) -> float:
    """Weighted sum of (u_i - u_j)^2 over pairs i in a, j in b.

    ``b=None`` means the complement of ``a`` in the box (the enclosing box
    when the exterior is sampled).  ``include_exterior`` additionally pairs
    ``a`` against the analytic exterior, so

        interaction_u(u, om, om) / 2 + interaction_u(u, om, None, include_exterior=True)

    recovers ``gagliardo_K(u, om)``.  Symmetric in (a, b) for explicit sets.
    """
    if a.lattice != kern.lattice:
        raise ValueError("cell set lattice does not match the kernel lattice")
    if b is not None and b.lattice != kern.lattice:
        raise ValueError("cell set lattice does not match the kernel lattice")
    model = EnergyModel(kern, None, u, a)
    lifted = model.lift(u.values)
    mask_a = model.omega
    if b is None:
        mask_b = ~mask_a
    else:
        mask_b = np.zeros(model.lat.shape, dtype=bool)
        mask_b[model.inner] = b.members
    ub = np.where(mask_b, lifted, 0.0)
    per_cell = (
        lifted * lifted * model._conv(mask_b.astype(float))
        - 2.0 * lifted * model._conv(ub)
        + model._conv(ub * ub)
    )
    if include_exterior:
        per_cell = per_cell + model.t0 * lifted * lifted - 2.0 * model.t1 * lifted + model.t2
    return float(stable_sum(per_cell[mask_a]))


def frac_laplacian(kern: KernelTable, u: ScalarField, cells=None) -> np.ndarray:
    """Discrete fractional Laplacian: fl_i = sum_j w_ij (u_i - u_j), exterior included.

    Scaled so that the derivative of ``gagliardo_K`` in ``u_k`` is exactly
    ``2 * fl_k``; dividing by the cell measure recovers the principal-value
    operator at cell centers.  ``cells`` may be a CellSet (values returned
    in row-major member order) or a sequence of index tuples (values
    aligned with the input); default is the full box grid.
    """
    model = EnergyModel(kern, None, u, None)
    fl = 0.5 * model.gradient(model.lift(u.values))[model.inner]
    if cells is None:
        return fl
    if isinstance(cells, CellSet):
        if cells.lattice != kern.lattice:
            raise ValueError("cell set lattice does not match the kernel lattice")
        return fl[cells.members]
    lat = kern.lattice
    idx = np.atleast_2d(np.asarray(cells, dtype=int))
    if idx.shape[-1] != lat.dim:
        raise ValueError(f"expected index tuples of length {lat.dim}")
    pos = tuple(idx[:, a] - lat.lo[a] for a in range(lat.dim))
    for a in range(lat.dim):
        if np.any(pos[a] < 0) or np.any(pos[a] >= lat.shape[a]):
            raise ValueError("cell index outside the box")
    return fl[pos]


def _exterior_json(ext) -> dict:
    if isinstance(ext, ConstantExterior):
        return {"kind": "constant", "value": ext.value}
    if isinstance(ext, HalfspaceExterior):
        return {"kind": "halfspace", "axis": ext.axis, "threshold": ext.threshold}
    return {"kind": "sampled", "outer_lo": list(ext.outer.lo), "outer_hi": list(ext.outer.hi), "fill": ext.fill}


def energy_report(
    kern: KernelTable,
    pot,
    u: ScalarField,
    omega: CellSet | None = None,
    eps: float | None = None,
) -> dict:
    """All energy values for one field, with every parameter echoed."""
    lat = kern.lattice
    model = EnergyModel(kern, pot, u, omega)
    lifted = model.lift(u.values)
    k_val = model.seminorm(lifted)
    w_val = model.potential_term(lifted)
    out = {
        "dim": lat.dim,
        "h": lat.h,
        "box_lo": list(lat.lo),
        "box_hi": list(lat.hi),
        "s": kern.s,
        "near_radius": kern.near_radius,
        "quad_tol": kern.quad_tol,
        "exterior": _exterior_json(u.exterior),
        "omega_cells": int(np.count_nonzero(model.omega)),
        "eps": eps,
        "K": k_val,
        "potential": w_val,
        "E": k_val + w_val,
    }
    if eps is not None:
        if not (math.isfinite(eps) and eps > 0):
            raise ValueError(f"eps must be a positive number, got {eps}")
        j_val = eps ** (2.0 * kern.s) * k_val + w_val
        out["J_eps"] = j_val
        try:
            out["F_eps"] = scaling_factor(kern.s, eps) * j_val
        except ValueError:
            out["F_eps"] = None
    return out
