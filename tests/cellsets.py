"""Cell-set constructors and predicates that only the tests need."""

from typing import Iterable, Sequence

import numpy as np

from fraclab.lattice import CellSet, Lattice, _as_tuple, _check_same_lattice


def from_indices(lattice: Lattice, indices: Iterable[Sequence[int]]) -> CellSet:
    """The set of the cells at the given lattice indices."""
    m = np.zeros(lattice.shape, dtype=bool)
    for idx in indices:
        t = _as_tuple(idx, lattice.dim)
        pos = tuple(t[a] - lattice.lo[a] for a in range(lattice.dim))
        for a in range(lattice.dim):
            if not 0 <= pos[a] < lattice.shape[a]:
                raise ValueError(f"index {t} outside box")
        m[pos] = True
    return CellSet(lattice, m)


def box_bounds(lattice: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Physical lower and upper corner of the lattice box."""
    lo = np.array([lattice.lo[a] * lattice.h for a in range(lattice.dim)])
    hi = np.array([lattice.hi[a] * lattice.h for a in range(lattice.dim)])
    return lo, hi


def is_subset(a: CellSet, b: CellSet) -> bool:
    """Whether every cell of a is a cell of b."""
    _check_same_lattice(a.lattice, b.lattice)
    return bool(np.all(~a.members | b.members))
