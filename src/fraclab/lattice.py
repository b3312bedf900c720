"""Discrete geometry substrate: lattices, cell sets, exterior data, fields.

Conventions
-----------
* A lattice is a regular grid of cells of spacing ``h`` in dimension 1 or 2.
  The cell with integer index ``i`` (per axis) occupies ``[i*h, (i+1)*h)`` and
  its center is ``(i + 1/2) * h``, measured from the global origin.  Centers
  therefore sit at half-integer multiples of ``h`` and never on a coordinate
  hyperplane, which removes membership ties in ball masks.
* The lattice box is the index range ``[lo, hi)`` per axis (inclusive lower,
  exclusive upper).  Everything outside the box is described analytically by
  an exterior-data descriptor, never stored.
* A cell belongs to a ball mask iff its *center* lies strictly inside the
  ball.  Measures are exact integer counts times ``h**dim``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lattice",
    "CellSet",
    "ScalarField",
    "Exterior",
    "ball_mask",
    "psi_field",
]


def _as_tuple(val, dim: int) -> tuple[int, ...]:
    if np.isscalar(val):
        return (int(val),) * dim
    t = tuple(int(v) for v in val)
    if len(t) != dim:
        raise ValueError(f"expected {dim} entries, got {len(t)}")
    return t


def _center(center, dim: int) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    if c.ndim == 0:
        return np.full(dim, float(c))
    if c.shape != (dim,):
        raise ValueError(f"center must be a scalar or have {dim} entries, got {c.size}")
    return c


def _ball_box(dim: int, h: float, c: np.ndarray, radius: float):
    """Index bounds (lo, hi) of the fewest cells covering the closed ball; a
    ball edge within 1e-12 cells of a cell edge counts as on it."""
    lo = tuple(int(np.floor((c[a] - radius) / h + 1e-12)) for a in range(dim))
    hi = tuple(int(np.ceil((c[a] + radius) / h - 1e-12)) for a in range(dim))
    return lo, hi


@dataclass(frozen=True)
class Lattice:
    """Regular cell grid: dimension, spacing, and integer index box.

    Attributes
    ----------
    dim : 1 or 2
    h : cell spacing, > 0
    lo, hi : per-axis integer index bounds, inclusive/exclusive; hi > lo
    """

    dim: int
    h: float
    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.h > 0:
            raise ValueError(f"cell spacing must be positive, got {self.h}")
        object.__setattr__(self, "lo", _as_tuple(self.lo, self.dim))
        object.__setattr__(self, "hi", _as_tuple(self.hi, self.dim))
        for a in range(self.dim):
            if self.hi[a] <= self.lo[a]:
                raise ValueError(f"hi must exceed lo on axis {a}: {self.lo} {self.hi}")

    @classmethod
    def covering_ball(cls, dim: int, h: float, center, radius: float) -> "Lattice":
        """Smallest lattice box whose union of cells contains the closed ball."""
        return cls(dim, h, *_ball_box(dim, h, _center(center, dim), radius))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.hi[a] - self.lo[a] for a in range(self.dim))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis, ordered by index."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dim {self.dim}")
        return (np.arange(self.lo[axis], self.hi[axis]) + 0.5) * self.h

    def center_grids(self) -> list[np.ndarray]:
        """Per-axis center coordinates broadcastable to ``shape``."""
        outs = []
        for a in range(self.dim):
            c = self.axis_centers(a)
            sh = [1] * self.dim
            sh[a] = -1
            outs.append(c.reshape(sh))
        return outs

    def center_radii(self) -> np.ndarray:
        """Distance of every cell center from the origin, shaped ``shape``."""
        return np.sqrt(sum(g * g for g in self.center_grids()))

    def point_to_index(self, points: np.ndarray) -> np.ndarray:
        """Integer cell index containing each point; shape ``(..., dim)``."""
        return np.floor(np.asarray(points, dtype=float) / self.h).astype(np.int64)


def _check_same_lattice(a: Lattice, b: Lattice) -> None:
    if a != b:
        raise ValueError(f"lattice mismatch: {a} vs {b}")


@dataclass(frozen=True)
class CellSet:
    """Boolean voxel set on a lattice; measure is count * h**dim exactly."""

    lattice: Lattice
    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=bool)
        if m.shape != self.lattice.shape:
            raise ValueError(f"member shape {m.shape} != box shape {self.lattice.shape}")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "members", m)

    @classmethod
    def empty(cls, lattice: Lattice) -> "CellSet":
        return cls(lattice, np.zeros(lattice.shape, dtype=bool))

    @classmethod
    def full(cls, lattice: Lattice) -> "CellSet":
        return cls(lattice, np.ones(lattice.shape, dtype=bool))

    @property
    def count(self) -> int:
        return int(self.members.sum())

    @property
    def measure(self) -> float:
        return self.count * self.lattice.cell_volume

    def complement(self) -> "CellSet":
        """Complement within the lattice box."""
        return CellSet(self.lattice, ~self.members)

    def union(self, other: "CellSet") -> "CellSet":
        _check_same_lattice(self.lattice, other.lattice)
        return CellSet(self.lattice, self.members | other.members)

    def difference(self, other: "CellSet") -> "CellSet":
        _check_same_lattice(self.lattice, other.lattice)
        return CellSet(self.lattice, self.members & ~other.members)

    def disjoint(self, other: "CellSet") -> bool:
        _check_same_lattice(self.lattice, other.lattice)
        return not bool(np.any(self.members & other.members))


# -- exterior data ----------------------------------------------------------


@dataclass(frozen=True)
class Exterior:
    """u = above where x[axis] >= threshold and below elsewhere, outside
    the box.

    A halfspace sign is Exterior(1, -1, axis, t), +1 on the threshold;
    constant data g is Exterior(g, g), stored always with axis 0 and
    threshold -inf, which puts every exterior point above.  An infinite
    threshold leaves one side empty, so it is stored as the constant
    data of the other: Exterior(a, b, axis, -inf) == Exterior(a, a) and
    Exterior(a, b, axis, inf) == Exterior(b, b).
    """

    above: float
    below: float
    axis: int = 0
    threshold: float = -np.inf

    def __post_init__(self):
        for value in (self.above, self.below):
            if not -1.0 <= value <= 1.0:
                raise ValueError(f"exterior value must lie in [-1, 1], got {value}")
        if self.axis < 0:
            raise ValueError(f"exterior axis must be nonnegative, got {self.axis}")
        if np.isnan(self.threshold):
            raise ValueError("exterior threshold must not be NaN")
        if self.threshold == np.inf:
            object.__setattr__(self, "above", self.below)
        elif self.threshold == -np.inf:
            object.__setattr__(self, "below", self.above)
        if self.above == self.below:
            object.__setattr__(self, "axis", 0)
            object.__setattr__(self, "threshold", -np.inf)


@dataclass(frozen=True)
class ScalarField:
    """Cell values in [-1, 1] on a lattice plus an exterior descriptor.

    The values give the field inside the box and the descriptor gives it
    outside; the descriptor's axis must be an axis of the lattice.
    """

    lattice: Lattice
    values: np.ndarray
    exterior: Exterior

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.lattice.shape:
            raise ValueError(f"value shape {v.shape} != box shape {self.lattice.shape}")
        if np.any(np.abs(v) > 1.0 + 1e-15):
            raise ValueError("field values must lie in [-1, 1]")
        v = np.clip(v, -1.0, 1.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.exterior.axis >= self.lattice.dim:
            raise ValueError(f"exterior axis {self.exterior.axis} out of range "
                             f"for dim {self.lattice.dim}")


# -- operations ---------------------------------------------------------------


def _check_room(lattice: Lattice, c: np.ndarray, radius: float) -> None:
    """Raise unless the box holds every cell the ball needs, naming the pad."""
    lo, hi = _ball_box(lattice.dim, lattice.h, c, radius)
    below = [max(box - ball, 0) for box, ball in zip(lattice.lo, lo)]
    above = [max(ball - box, 0) for box, ball in zip(lattice.hi, hi)]
    if any(below) or any(above):
        raise ValueError("ball not contained in lattice box; pad indices by "
                         f"{below} below and {above} above")


def ball_mask(lattice: Lattice, center, radius: float) -> CellSet:
    """Cells whose centers lie strictly inside the ball.

    Raises if the ball is not contained in the lattice box, naming the index
    padding that would be required.
    """
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    c = _center(center, lattice.dim)
    _check_room(lattice, c, radius)
    if radius == 0:
        return CellSet.empty(lattice)
    grids = lattice.center_grids()
    d2 = sum((grids[a] - c[a]) ** 2 for a in range(lattice.dim))
    return CellSet(lattice, np.broadcast_to(d2 < radius ** 2, lattice.shape))


def psi_field(lattice: Lattice, R: float) -> ScalarField:
    """Radial comparison profile: -1 inside B_{R+1}, +1 outside B_{R+2}.

    psi(x) = -1 + 2 * min{ (|x| - R - 1)^+ , 1 }, sampled at cell centers,
    with exterior Exterior(1, 1), identically +1.  Raises as ``ball_mask``
    does unless the box holds B_{R+2}.
    """
    if R <= 0:
        raise ValueError(f"R must be positive, got {R}")
    _check_room(lattice, np.zeros(lattice.dim), R + 2.0)
    rad = lattice.center_radii()
    vals = -1.0 + 2.0 * np.minimum(np.maximum(rad - R - 1.0, 0.0), 1.0)
    return ScalarField(lattice, vals, Exterior(1.0, 1.0))
