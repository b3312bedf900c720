"""Nonlocal interaction energies on sampled fields.

The quadratic interaction of a field with itself splits into three pieces:
pairs of cells inside the box (a convolution against the dense offset
table), pairs between a cell and the analytic exterior (per-cell tail
quadratics), and the local double-well term.  Final reductions are all
correctly rounded sums (``stable_sum``), so values are reproducible
bit-for-bit.

The in-box pairs form a quadratic form whose matrix T, the offset table,
is block-Toeplitz and symmetric.  Split a field as u = o + f, with o its
free part on omega and f the fixed rest; then the interaction needs only
T(o) beyond T(f) and T(1 off omega), which stay put while a minimizer
moves o.  A new point costs one convolution, of its free part, and its
gradient reuses it.  On a segment u + t*d the seminorm is a quadratic in
t, so one convolution, of d, prices every trial point on it, and moving
to one updates T(o) by t*T(d) with none.  Every convolution
(``convolve``) splits the field into parity classes about the box centre
and multiplies each class's DCT/DST by its window of the one spectrum the
kernel caches, so reflecting a field reflects T of it bit-for-bit.  The
same transforms with the windows replaced by 1 / (2c + sigma - 2K) apply
the minimizer's preconditioner (``EnergyModel.precondition``), the
inverse of P = (2c + sigma)I - 2T truncated to the box.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.fft import dct, dst, idct, idst

# unused here; kept bound because perfbench/tracing.py wraps energies.fftconvolve
from .kernels import KernelTable, fftconvolve, stable_sum  # noqa: F401
from .lattice import CellSet, ScalarField

__all__ = ["EnergyModel", "convolve", "energy_E"]


def convolve(kern: KernelTable, x: np.ndarray) -> np.ndarray:
    """Offset-table convolution: out_i = sum_j table[i-j] * x_j.

    The table is even in every axis, so the convolution is symmetric
    convolution (Martucci, IEEE Trans. Signal Process. 42, 1994).  Per
    axis the field folds about the box centre into an even class, hi + lo
    (the centre cell doubled ahead of it on an odd extent), and an odd
    class, hi - lo.  Each of the 2^dim classes is transformed along every
    axis, DCT-II/DST-II on an even extent and DCT-I/DST-I on an odd one,
    multiplied by its window of ``kern.spectrum`` and transformed back;
    the halves unfold as E + O above the centre and E - O, mirrored,
    below.  The classes are stacked, so per axis and direction one
    transform call serves them all on an even extent (a DST-II is the
    DCT-II of the sign-alternated class, read reversed) and two on an odd
    one (the DCT-I classes and the DST-I classes).  Reflecting the input
    leaves an even class bit-identical and negates an odd one exactly, so
    reflecting the input reflects the output bit-for-bit.  A class of
    extent 0 (an axis of extent 1) is skipped.
    """
    if x.shape != kern.lattice.shape:
        raise ValueError("field shape does not match the kernel lattice")
    return _by_class(x, *kern.spectrum)


def _by_class(x, Ns, W):
    """The even operator whose class multipliers W stacks (see
    ``KernelTable.spectrum``) applied to x: the table's convolution for
    the kernel's W, and any other even operator on the lattice for another
    W of that layout.  The work array has a class axis per spatial axis,
    shape (2,)*dim + spatial; on an odd extent the odd class sits one cell
    up, behind a zero, at the even class's length."""
    dim = x.ndim

    def sp(a, *s):  # slice s of spatial axis a
        return (slice(None),) * (dim + a) + (slice(*s),)

    def cls(a, p, *s):  # parity p on class axis a, and slice s of spatial axis a
        return (slice(None),) * a + (slice(p, p + 1),) + (slice(None),) * (dim - 1) + (slice(*s),)

    y = np.asarray(x, dtype=float).reshape((1,) * dim + x.shape)
    for a, n in enumerate(x.shape):
        ax, h = dim + a, n // 2
        lo, hi = np.flip(y[sp(a, 0, h)], ax), y[sp(a, n - h, n)]
        if n % 2:
            c = y[sp(a, h, h + 1)]
            E = np.concatenate([c + c, hi + lo], ax)
            O = np.concatenate([np.zeros_like(c), hi - lo], ax)
        else:  # the sign alternation that turns a DCT-II into a reversed DST-II
            E, O = hi + lo, hi - lo
            O[sp(a, 1, None, 2)] *= -1.0
        y = np.concatenate([E, O], a)
    for a, (n, N) in enumerate(zip(x.shape, Ns)):
        ax = dim + a
        if n % 2 == 0:
            y = dct(y, 2, n=N, axis=ax, overwrite_x=True)
            continue
        z = np.zeros(y.shape[:ax] + (N + 1,) + y.shape[ax + 1:])
        z[cls(a, 0, None)] = dct(y[cls(a, 0, None)], 1, n=N + 1, axis=ax)
        if N > 1:
            z[cls(a, 1, 1, N)] = dst(y[cls(a, 1, 1, None)], 1, n=N - 1, axis=ax)
        y = z
    y *= W
    for a, (n, N) in enumerate(zip(x.shape, Ns)):
        ax = dim + a
        if n % 2 == 0:
            y = idct(y, 2, axis=ax, overwrite_x=True)
            y[cls(a, 1, 1, None, 2)] *= -1.0
        else:
            y[cls(a, 0, None)] = idct(y[cls(a, 0, None)], 1, axis=ax, overwrite_x=True)
            if N > 1:
                y[cls(a, 1, 1, N)] = idst(y[cls(a, 1, 1, N)], 1, axis=ax, overwrite_x=True)
        y = y[sp(a, 0, n - n // 2)]
    for a in reversed(range(dim)):
        ax, k = dim + a, x.shape[a] % 2
        E, O = y[cls(a, 0, None)], y[cls(a, 1, k, None)]
        c, E = E[sp(a, 0, k)], E[sp(a, k, None)]
        y = np.concatenate([np.flip(E - O, ax), c, E + O], ax)
    return y.reshape(x.shape)


class EnergyModel:
    """Workspace for repeated energy and gradient evaluation.

    Fixes the kernel, the potential, the exterior data and the free region
    once.  An energy at a new point then costs one convolution, of the
    point's free part, and the gradient at the point last evaluated costs
    none.  A point whose fixed cells differ from the model's field pays
    one more.  ``segment`` and ``move`` walk the model's point along a
    segment at one convolution per segment, and ``precondition`` applies
    the inverse of a Toeplitz approximation of the Hessian at one
    transform pass.  ``omega`` defaults to every cell in the box.  Data
    held fixed are the box cells outside ``omega`` and, beyond the box,
    the field's exterior descriptor.
    """

    def __init__(self, kern: KernelTable, pot, u: ScalarField, omega: CellSet | None = None):
        lat = kern.lattice
        if u.lattice != lat:
            raise ValueError("field lattice does not match the kernel lattice")
        if omega is not None and omega.lattice != lat:
            raise ValueError("omega lattice does not match the kernel lattice")

        self.kern = kern
        self.pot = pot
        self.omega = np.ones(lat.shape, dtype=bool) if omega is None else omega.members

        # exterior pairing of cell i contributes t0*u_i^2 - 2*t1*u_i + t2,
        # the tails weighted by the exterior value on each side
        ext = u.exterior
        a, b = ext.above, ext.below
        plus, minus = kern.tail_halfspace(ext.axis, ext.threshold)
        self.t0 = plus + minus
        self.t1 = a * plus + b * minus
        self.t2 = a * a * plus + b * b * minus

        free = self.omega.astype(float)
        self._c_box = self._conv(np.ones(lat.shape))
        # half the seminorm's Hessian diagonal, c_box + t0, cell by cell
        self.diag = self._c_box + self.t0
        self._c_omega = self._conv(free)
        self._c_fixed = self._conv(1.0 - free)
        # the fixed part of u (off omega) and T of it
        self._f = np.where(self.omega, 0.0, u.values)
        self._tf = self._conv(self._f)
        # the free part of the last point evaluated, and T of it
        self._o = self._to = None
        # the last segment: its start u, direction d, T(o) at u and T(d)
        self._seg = None

    # -- plumbing -------------------------------------------------------------

    def _conv(self, x: np.ndarray) -> np.ndarray:
        return convolve(self.kern, x)

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

    # -- evaluation -----------------------------------------------------------

    def seminorm(self, u: np.ndarray) -> float:
        f, to, tf = self._split(u)
        # free cells: pairs within omega (each once, as u_i (u_i - u_j)
        # summed both ways), pairs with fixed cells, pairs with the exterior;
        # fixed cells: the other half of their pairs with omega.  Each
        # bracket is exactly zero on a constant +-1 field.
        free = (u * (u * self._c_omega - to) + u * (u * self._c_fixed - tf)
                + (self.t0 * u * u - 2.0 * self.t1 * u + self.t2))
        fixed = f * (f * self._c_omega - to)
        return float(stable_sum(np.where(self.omega, free, fixed)))

    def potential_term(self, u: np.ndarray) -> float:
        if self.pot is None:
            return 0.0
        return self.kern.lattice.cell_volume * float(stable_sum(self.pot.value(u[self.omega])))

    def energy(self, u: np.ndarray) -> float:
        return self.seminorm(u) + self.potential_term(u)

    def _flux(self, u: np.ndarray) -> np.ndarray:
        # half the seminorm's gradient, on every cell
        _, to, tf = self._split(u)
        return u * self._c_box - to - tf + self.t0 * u - self.t1

    def gradient(self, u: np.ndarray) -> np.ndarray:
        """d(energy)/d(u_i) on the free cells, zero elsewhere."""
        g = 2.0 * self._flux(u)
        if self.pot is not None:
            g = g + self.kern.lattice.cell_volume * self.pot.deriv(u)
        return np.where(self.omega, g, 0.0)

    # -- the segment u + t*d ------------------------------------------------

    def segment(self, u: np.ndarray, d: np.ndarray):
        """Energy change along u + t*d, for a d that is zero off omega.

        Costs one convolution, of d.  The seminorm is quadratic in t: per
        free cell, slope 2*fl*d at u and curvature d*(diag*d - T(d)).
        The well is evaluated at each trial point.  Returns
        delta(t) = E(u + t*d) - E(u), formed directly as the small
        difference sum(t*slope + t^2*curvature + h^n*(W(u + t*d) - W(u)))
        in one correctly rounded sum.  Segment points are clipped to
        [-1, 1], the well's domain, which moves them by round-off at most.
        ``delta.metric`` is <d, H0 d> with H0 = 2(Diag(diag) - T)
        + sigma*I, the Hessian that ``precondition`` approximates.
        """
        m = self.omega
        td = self._conv(d)
        um, dm = u[m], d[m]
        slope = 2.0 * self._flux(u)[m] * dm
        curv = dm * (self.diag[m] * dm - td[m])
        w0 = None if self.pot is None else self.pot.value(um)
        self._seg = (u, d, self._to, td)

        def delta(t: float) -> float:
            de = t * slope + (t * t) * curv
            if w0 is not None:
                w = self.pot.value(np.clip(um + t * dm, -1.0, 1.0))
                de += self.kern.lattice.cell_volume * (w - w0)
            return float(stable_sum(de))

        delta.metric = float(stable_sum(2.0 * curv + self.sigma * (dm * dm)))
        return delta

    def move(self, t: float) -> np.ndarray:
        """Make u + t*d on the last segment the model's point and return it.

        T of its free part becomes T(o) + t*T(d): no convolution, but the
        round-off of each move stays in T(o) until ``refresh``.
        """
        u, d, to, td = self._seg
        x = np.clip(u + t * d, -1.0, 1.0)
        self._o = np.where(self.omega, x, 0.0)
        self._to = to + t * td
        self._seg = None
        return x

    def refresh(self) -> None:
        """Convolve the free part of the model's point afresh."""
        self._to = self._conv(self._o)

    # -- preconditioning ------------------------------------------------------

    @cached_property
    def sigma(self) -> float:
        """h^n max(W''(+-1), 0), the well's curvature at its minima; 0
        without a well."""
        if self.pot is None:
            return 0.0
        curvature = float(np.max(self.pot.second(np.array([-1.0, 1.0]))))
        return self.kern.lattice.cell_volume * max(curvature, 0.0)

    @cached_property
    def _inverse(self):
        # (Ns, M): the class multipliers of P^-1, P = (2c + sigma) I - 2T,
        # laid out as the kernel's stacked windows W = 2^-dim * spectrum
        Ns, W = self.kern.spectrum
        dim = self.kern.lattice.dim
        c = float(np.max(self.diag[self.omega], initial=0.0))
        return Ns, 2.0 ** (-2 * dim) / ((2.0 * c + self.sigma) * 2.0 ** -dim - 2.0 * W)

    def precondition(self, g: np.ndarray) -> np.ndarray:
        """P^-1 g, with P = (2c + sigma) I - 2T, c = max over omega of
        ``diag`` and sigma as in ``sigma``.

        P is the energy's Hessian with every cell's diagonal raised to the
        largest and the well's curvature taken at its minima; its inverse,
        truncated to the box, is diagonal in the parity classes' transforms
        (Chan and Ng, SIAM Review 38, 1996), so applying it costs one pass
        through the transforms of ``convolve``, with the kernel's windows
        replaced by 1 / (2c + sigma - 2 * spectrum).  Symmetric positive
        definite, and reflection-equivariant and odd bit-for-bit.
        """
        return _by_class(g, *self._inverse)


# -- functional forms ---------------------------------------------------------


def energy_E(kern: KernelTable, pot, u: ScalarField, omega: CellSet | None = None) -> float:
    """Interaction plus the cell-measure-weighted double-well term."""
    model = EnergyModel(kern, pot, u, omega)
    return model.energy(u.values)
