"""Geometric measure diagnostics on voxel sets.

Kernel mass between disjoint sets, the Loomis-Whitney projection
inequality, the interaction lower-bound regime check, the
complement-integral bound seen from one cell, and seeded random set
generators.  A set-set pair sum needs only how many pairs share each
index offset: the cross-correlation of the two indicators, one FFT
convolution rounded to exact integers.  Exact count-times-weight products
reduce with compensated summation, so each sum is the correctly rounded
sum of its pair weights, whatever the order of the sets.  The histogram
depends on the sets alone, so ``check_gmt`` counts it once per set pair
and weighs it once per kernel, whatever the number of probe fractions.
Per-cell sums apply the table to a field with ``energies.convolve``.
The probe fractions and the generators' measure cap and rectangle count
are required arguments: the lab passes them from its ExperimentConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import next_fast_len, rfftn

from .energies import convolve
from .kernels import KernelTable, fftconvolve, stable_sum
from .lattice import CellSet, Lattice

__all__ = [
    "L_interaction",
    "check_loomis_whitney",
    "check_gmt",
    "sobolev_set_bound",
    "LoomisWhitneyReport",
    "GmtReport",
    "SobolevReport",
    "random_cellset",
    "random_disjoint_pair",
    "random_equal_count_set",
]


def _check_kernel_lattice(kern: KernelTable, cells: CellSet) -> None:
    if cells.lattice != kern.lattice:
        raise ValueError("cell set lattice does not match the kernel lattice")


def _offset_counts(A: CellSet, D: CellSet):
    """(hit, n): the offsets at which pairs of A x D fall, as a mask over
    the offset table, and how many pairs fall at each.

    N[k] = #{(i, j) in A x D : i - j + n - 1 = k}, the full convolution of
    1_A with 1_D reversed, shares its index with the offset table.  It
    depends on the two sets alone, so one histogram serves every kernel
    on their lattice.
    """
    shape = A.lattice.shape
    if A.count == 0 or D.count == 0:
        return np.zeros(tuple(2 * n - 1 for n in shape), dtype=bool), np.zeros(0)
    fshape = tuple(next_fast_len(2 * n - 1, True) for n in shape)
    spec = rfftn(np.flip(D.members).astype(float), fshape)
    raw = fftconvolve(A.members.astype(float), spec, fshape)
    raw = raw[tuple(slice(0, 2 * n - 1) for n in shape)]
    counts = np.rint(raw)
    if (np.max(np.abs(raw - counts)) >= 0.25 or counts.sum() != A.count * D.count
            or counts.max() >= 2.0**27):
        raise FloatingPointError("offset histogram is not an exact pair count")
    hit = counts > 0
    return hit, counts[hit]


def _weigh_counts(kern: KernelTable, hit: np.ndarray, n: np.ndarray) -> float:
    """Sum of pair weights over an offset histogram (``_offset_counts``).

    Each weight splits into halves of at most 26 significant bits, so while
    N < 2^27 both count-times-half products are exact and ``stable_sum``
    rounds their sum once.  Counting pairs, where ``energies.convolve``
    would apply the table to a field, keeps the sum correctly rounded and
    bitwise symmetric in the two sets.
    """
    w = kern.table_for_extents(kern.lattice.shape)[hit]
    c = 134217729.0 * w  # Veltkamp split w = hi + (w - hi)
    hi = c - (c - w)
    return stable_sum(np.concatenate([n * hi, n * (w - hi)]))


def L_interaction(kern: KernelTable, A: CellSet, D: CellSet) -> float:
    """Kernel mass between two disjoint in-box sets: the sum of pair
    weights, from offset counts.

    Symmetric in the two arguments (the summed multiset of weights is the
    same either way) and additive over disjoint splits of either argument
    up to final rounding.
    """
    _check_kernel_lattice(kern, A)
    _check_kernel_lattice(kern, D)
    if not A.disjoint(D):
        raise ValueError("sets overlap; interaction mass needs disjoint sets")
    return _weigh_counts(kern, *_offset_counts(A, D))


# -- projections and Loomis-Whitney -------------------------------------------


def _shadow_counts(cells: CellSet) -> list[int]:
    dim = cells.lattice.dim
    if dim == 1:
        return [1 if cells.count else 0]
    return [int(np.count_nonzero(np.any(cells.members, axis=a))) for a in range(dim)]


@dataclass(frozen=True)
class LoomisWhitneyReport:
    cell_count: int
    shadow_counts: tuple
    shadow_product: int
    product_holds: bool
    max_axis: int
    axis_bound_holds: bool


def check_loomis_whitney(cells: CellSet) -> LoomisWhitneyReport:
    """Exact integer check of the projection inequality.

    Verifies count^(n-1) <= product of shadow counts, and that the largest
    shadow alone satisfies shadow^n >= count^(n-1).  Cell counts make both
    sides integers, so the comparisons carry no tolerance; the h powers on
    the two sides match and cancel.
    """
    m = cells.count
    if m == 0:
        raise ValueError("projection inequality needs a nonempty set")
    n = cells.lattice.dim
    shadows = _shadow_counts(cells)
    product = math.prod(shadows)
    max_axis = int(np.argmax(shadows))
    return LoomisWhitneyReport(
        cell_count=m,
        shadow_counts=tuple(shadows),
        shadow_product=product,
        product_holds=m ** (n - 1) <= product,
        max_axis=max_axis,
        axis_bound_holds=shadows[max_axis] ** n >= m ** (n - 1),
    )


# -- interaction lower-bound regimes ------------------------------------------


@dataclass(frozen=True)
class GmtReport:
    regime: str
    s_branch: str
    measure_a: float
    measure_b: float
    interaction: float
    bound: float
    ratio: float
    b_floored: bool


def _s_branch(s: float) -> str:
    if s < 0.5:
        return "subhalf"
    if s == 0.5:
        return "half"
    return "superhalf"


def _gmt_bound(n: int, s: float, a: float, b: float, cell: float, c_probe: float):
    """(regime, bound, floored): the lower-bound expression for sets of
    measures a and b, B empty floored at one cell where it divides."""
    if b > c_probe * a:
        return "large_b", a ** ((n - 2.0 * s) / n) * (b / a) ** (-2.0 * s / n), False
    if s < 0.5:
        return "small_b", a ** ((n - 2.0 * s) / n), False
    floored = b <= 0.0
    b_eff = cell if floored else b
    if s == 0.5:
        return "small_b", a ** ((n - 1.0) / n) * math.log(a / b_eff), floored
    return "small_b", a ** ((n - 2.0 * s) / n) * (b_eff / a) ** (1.0 - 2.0 * s), floored


def check_gmt(kernels: list[KernelTable], A: CellSet, B: CellSet,
              c_probes: tuple[float, ...]) -> list[list[GmtReport]]:
    """Interaction of A against the complement of A and B, versus the
    regime lower-bound expression, for every kernel and probe fraction.

    D is everything outside A and B: the in-box remainder plus the
    analytic exterior of the box, so truncation never undershoots the
    mass.  The regime splits on measure(B) <= c_probe * measure(A); each
    report's ratio interaction/bound is the empirical constant.  An empty
    B in the branches that divide by it is floored at one cell measure
    and flagged; at s = 1/2 a one-cell A then has bound 0, which every
    constant meets, and ratio inf.  Returns the reports as ``[kernel][probe]``.

    The sets are checked and their offset histogram counted once, the
    interaction is weighed once per kernel, and only the bound is worked
    out per probe.
    """
    for kern in kernels:
        _check_kernel_lattice(kern, A)
        _check_kernel_lattice(kern, B)
    for c_probe in c_probes:
        if not 0.0 < c_probe < 1.0:
            raise ValueError(f"c_probe must lie in (0, 1), got {c_probe}")
    if A.count == 0:
        raise ValueError("A must have positive measure")
    if not A.disjoint(B):
        raise ValueError("sets overlap; A and B must be disjoint")
    D = A.union(B).complement()
    counts = _offset_counts(A, D)

    n, cell = A.lattice.dim, A.lattice.cell_volume
    a, b = A.measure, B.measure
    out = []
    for kern in kernels:
        tail = stable_sum(kern.tail_weights[A.members])
        interaction = _weigh_counts(kern, *counts) + tail
        reports = []
        for c_probe in c_probes:
            regime, bound, floored = _gmt_bound(n, kern.s, a, b, cell, c_probe)
            reports.append(GmtReport(
                regime=regime,
                s_branch=_s_branch(kern.s),
                measure_a=a,
                measure_b=b,
                interaction=interaction,
                bound=bound,
                ratio=interaction / bound if bound else math.inf,
                b_floored=floored,
            ))
        out.append(reports)
    return out


# -- complement integral bound -------------------------------------------------


@dataclass(frozen=True)
class SobolevReport:
    lhs: float
    constant: float
    cell: tuple


def _cell_position(lattice: Lattice, x) -> tuple:
    """Index arrays that pick cell x out of an array over the box."""
    idx = tuple(int(v) for v in np.atleast_1d(x))
    if len(idx) != lattice.dim:
        raise ValueError(f"cell index {idx} has wrong dimension")
    pos = [i - lo for i, lo in zip(idx, lattice.lo)]
    if not all(0 <= p < n for p, n in zip(pos, lattice.shape)):
        raise ValueError(f"cell index {idx} outside the box")
    return tuple(np.array([p]) for p in pos)


def sobolev_set_bound(kern: KernelTable, E: CellSet, x=None) -> SobolevReport:
    """Complement integral of the kernel seen from one cell.

    lhs is the integral of the kernel from cell x over everything outside
    E (in-box cells plus the analytic exterior tail), per unit source
    measure: the summed pair weights carry both cell volumes, so one is
    divided out.  The in-box part is the table convolved with 1 - 1_E,
    read at x.  The reported constant lhs * |E|^(2s/n) is the empirical
    version of the complement integral bound.  With x None every cell of
    E is evaluated and the report is that of the first cell, in index
    order, with the smallest constant.
    """
    _check_kernel_lattice(kern, E)
    if E.count == 0:
        raise ValueError("E must have positive measure")
    lat = E.lattice
    pos = np.nonzero(E.members) if x is None else _cell_position(lat, x)
    inbox = convolve(kern, 1.0 - E.members)[pos]
    lhs = (inbox + kern.tail_weights[pos]) / lat.cell_volume
    consts = lhs * E.measure ** (2.0 * kern.s / lat.dim)
    i = int(np.argmin(consts))
    cell = tuple(int(p[i]) + lo for p, lo in zip(pos, lat.lo))
    return SobolevReport(lhs=float(lhs[i]), constant=float(consts[i]), cell=cell)


# -- random corpora -------------------------------------------------------------


def random_cellset(lattice: Lattice, rng, max_rects: int) -> CellSet:
    """Union of 1..max_rects random axis-aligned boxes, never empty."""
    if max_rects < 1:
        raise ValueError(f"max_rects must be >= 1, got {max_rects}")
    mask = np.zeros(lattice.shape, dtype=bool)
    k = int(rng.integers(1, max_rects + 1))
    for _ in range(k):
        sl = []
        for a in range(lattice.dim):
            extent = lattice.shape[a]
            length = int(rng.integers(1, max(2, extent // 2)))
            start = int(rng.integers(0, extent - length + 1))
            sl.append(slice(start, start + length))
        mask[tuple(sl)] = True
    return CellSet(lattice, mask)


def random_disjoint_pair(lattice: Lattice, rng, b_fraction: float, max_rects: int):
    """(A, B) with B disjoint from A and measure(B) <= b_fraction * measure(A).

    B starts from an independent rectangle union and is trimmed in fixed
    index order to meet the measure cap, so a seeded generator reproduces
    the pair exactly.
    """
    if not b_fraction >= 0.0:
        raise ValueError(f"b_fraction must be >= 0, got {b_fraction}")
    A = random_cellset(lattice, rng, max_rects)
    raw = random_cellset(lattice, rng, max_rects).difference(A)
    cap = int(b_fraction * A.count)
    mask = np.zeros(lattice.shape, dtype=bool)
    mask[tuple(np.argwhere(raw.members)[:cap].T)] = True
    return A, CellSet(lattice, mask)


def random_equal_count_set(lattice: Lattice, rng, count: int) -> CellSet:
    """count distinct cells drawn uniformly without replacement."""
    if not 0 < count <= lattice.n_cells:
        raise ValueError(f"count must lie in 1..{lattice.n_cells}, got {count}")
    flat = rng.choice(lattice.n_cells, size=count, replace=False)
    mask = np.zeros(lattice.n_cells, dtype=bool)
    mask[flat] = True
    return CellSet(lattice, mask.reshape(lattice.shape))
