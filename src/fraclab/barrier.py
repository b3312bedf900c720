"""Radial supersolution barrier and verification of its inequalities.

The barrier chain: g(t) = t^(-2s); h caps the tangent-line gap of g at
r/2 into [0, 1]; v(x) = h(r - |x|) ramps from 0 on B_{r/2} to 1 outside
B_r; w rescales v by C_o = (C5/tau)^(1/2s) and maps its range onto
[beta - 1, 1] with beta = 32 r^(-2s).  C5 is measured, not assumed: it is
the sampled supremum of the positive part of the operator applied to v,
normalized by v + 16 r^(-2s).  ``estimate_C5`` returns it with the rule
gap of the same samples, from one pass, and the caller builds
``BarrierSpec`` from that c5.  ``profile`` holds the one sample grid of
B_R, with v and w on it: ``verify_al1``, ``verify_al2`` and the lab's
series rows all read it.  Sample counts, the al1 slack and the dimension
are required arguments: the lab passes them from its ExperimentConfig.
``verify_al1`` and ``verify_al2`` measure; the lab judges their reports
against the config's passing fraction and ratio cap.  In 2D, C5 and al1
integrate over directions with one 48-node Gauss rule in theta.

h meets 0 at t = r/2 with zero slope (tangent-line construction), so the
only kink of v sits at the clamp radius where h reaches 1.  The principal
value is one ray rule: pairs of opposite rays from the evaluation point,
one direction (theta = 0) in 1D and a Gauss rule in theta in 2D.  Every
ray pair is integrated by one fixed composite rule (``quad``), for many
sample points at once as arrays: panels between the crossings of the
clamp radius, r/2 and r, each graded geometrically toward both of its
ends, 12-node Gauss-Legendre on every sub-panel and 12-node Gauss-Jacobi
for the weight u^(1-2s) on the one at u = 0 (composite Gauss and
Gauss-Jacobi rules: Davis & Rabinowitz, Methods of Numerical Integration,
1984; geometric grading toward a nearby singularity: Schwab, p- and
hp-Finite Element Methods, 1998).  The grading reaches t*/4, a quarter of
the distance t* from the clamp kink to the singularity of h at |y| = r;
the same rule graded to t*/2 gives each value an error estimate.  That
rule has one level fewer at each graded end, so it shares every sub-panel
but the at most two per panel that span an edge it drops: only those are
integrated for the estimate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.special import roots_jacobi

__all__ = [
    "R_MIN",
    "BarrierSpec",
    "Al1Report",
    "Al2Report",
    "eval_h",
    "eval_v",
    "eval_w",
    "profile",
    "estimate_C5",
    "verify_al1",
    "verify_al2",
]

R_MIN = 50.0  # below this the large-r construction steps are not honest


@lru_cache(maxsize=None)
def _h_params(r: float, s: float):
    # tangent data of g at r/2 and the clamp point t* where the gap hits 1
    a = (r / 2.0) ** (-2.0 * s)
    b = -2.0 * s * (r / 2.0) ** (-1.0 - 2.0 * s)
    gap = lambda t: t ** (-2.0 * s) - a - b * (t - r / 2.0) - 1.0
    t_star = brentq(gap, 1e-12 * r, r / 2.0, xtol=1e-14 * r)
    return a, b, t_star


def eval_h(t, r: float, s: float):
    """Tangent-line gap of g at r/2, clamped to [0, 1]; zero for t >= r/2.

    Continuous across r/2 (the gap and its slope both vanish there) and
    equal to 1 for t <= t*, the clamp point.  Values at t <= 0 continue
    the limit h = 1.
    """
    a, b, _ = _h_params(r, s)
    arr = np.asarray(t, dtype=float)
    pos = np.maximum(arr, 1e-300)
    with np.errstate(over="ignore"):
        gap = pos ** (-2.0 * s) - a - b * (pos - r / 2.0)
    out = np.where(arr >= r / 2.0, 0.0, np.minimum(1.0, gap))
    return np.where(arr <= 0.0, 1.0, out)


def eval_v(x, r: float, s: float):
    """Radial barrier core: v = h(r - |x|) inside B_r, 1 outside."""
    rho = np.abs(np.asarray(x, dtype=float))
    return np.where(rho >= r, 1.0, eval_h(r - rho, r, s))


def clamp_radius(r: float, s: float) -> float:
    """|x| below which v < 1: the single kink radius of v."""
    _, _, t_star = _h_params(r, s)
    return r - t_star


# -- principal value integrals ------------------------------------------------

_NODES = 12  # Gauss nodes per sub-panel
_THETA_NODES = 48  # 2D: Gauss nodes in theta on [0, pi], for C5 and al1 alike; even
_BATCH = 16  # ray pairs per rule call: every node array stays near 0.2 MiB


@lru_cache(maxsize=None)
def _reference_rules(s: float):
    """Gauss-Legendre and Gauss-Jacobi nodes and weights on [-1, 1].

    The Jacobi rule integrates g(t) (1 + t)^(1-2s) for smooth g; its
    weights come divided by (1 + t)^(1-2s), so that both rules apply to
    the integrand F itself.  On a sub-panel [0, b] the Jacobi rule thus
    integrates F(u) = num(u) u^(-1-2s) exactly when num / u^2 is a
    polynomial of degree below 24.
    """
    t, w = np.polynomial.legendre.leggauss(_NODES)
    tj, wj = roots_jacobi(_NODES, 0.0, 1.0 - 2.0 * s)
    return (t, w), (tj, wj * (1.0 + tj) ** (2.0 * s - 1.0))


def _graded_edges(lo, hi, first, last):
    """Sub-panel edges of each panel [lo, hi], graded geometrically toward
    both ends, and where the coarser grading differs.

    Widths double from ``first`` at lo and from ``last`` at hi, up to one
    middle sub-panel.  Row i holds the edges of panel i in order; a
    sub-panel is a pair of neighbouring edges of nonzero width.  The
    coarser grading doubles both floors, which takes one level off each
    graded end: its edges are these with the first graded edge of each
    end (step 2^0 from it) moved onto the end itself.  Returns the edges,
    the coarser grading's edges and the mask of the moved ones.
    """
    half = 0.5 * (hi - lo)
    # edge k of an end sits step 2^k from it, for the k with step 2^k <
    # half (the end's levels), so the middle piece is at most twice its
    # neighbours; columns past an end's levels repeat its last edge
    ends = (first, last)
    levels = [np.maximum(0.0, np.ceil(np.log2(half / step))) for step in ends]
    k = np.arange(int(max(lv.max(initial=0.0) for lv in levels)))
    power = [np.minimum(k, lv[:, None] - 1.0) for lv in levels]
    reach = [np.where(lv[:, None] > 0.0, step[:, None] * 2.0 ** p, 0.0)
             for step, lv, p in zip(ends, levels, power)]
    edges = np.column_stack([lo, lo[:, None] + reach[0],
                             hi[:, None] - reach[1][:, ::-1], hi])
    first_edge = [(lv[:, None] > 0.0) & (p == 0.0) for lv, p in zip(levels, power)]
    none = np.zeros((lo.size, 1), dtype=bool)
    moved = np.hstack([none, first_edge[0], first_edge[1][:, ::-1], none])
    end = np.where(np.arange(edges.shape[1]) <= k.size, lo[:, None], hi[:, None])
    return edges, np.where(moved, end, edges), moved


def quad(x, c, sn, r: float, s: float):
    """One graded fixed rule for the integrals of a batch of ray pairs.

    Pair i integrates F(u) = [v(x_i + u e_i) + v(x_i - u e_i) - 2 v(x_i)]
    u^(-1-2s) over (0, |x_i| + r), e_i = (c_i, sn_i), x_i on the first
    axis.  Panels run between the crossings of the ray pair with the clamp
    radius, r/2 and r.  Each is graded geometrically toward both ends
    down to width t*/4, t* = r - clamp radius: the singularity of h lies
    t* beyond the clamp kink.  At its lower end a panel is graded down to
    at most its distance from u = 0, where u^(-1-2s) is singular.  Every
    sub-panel carries 12 Gauss-Legendre nodes, except the one at u = 0,
    which carries 12 Gauss-Jacobi nodes for the weight u^(1-2s).  Returns
    the integrals and, per pair, their differences from the same rule
    graded half as deep (every floor doubled).  That rule shares every
    sub-panel but the at most two per panel that span an edge it drops,
    so only those are integrated on top.
    """
    x, c, sn = (np.asarray(a, dtype=float) for a in (x, c, sn))
    n = x.size
    upper = np.abs(x) + r
    cuts = [np.zeros(n)]
    # u with |x +- u e| = radius: u = -+x c +- sqrt(radius^2 - (x sn)^2)
    for radius in (clamp_radius(r, s), 0.5 * r, r):
        disc = radius * radius - (x * sn) ** 2
        root = np.sqrt(np.maximum(disc, 0.0))
        for u in (-x * c - root, -x * c + root, x * c - root, x * c + root):
            # a crossing within 1e-9 (|x| + r) of u = 0 is a rounded zero:
            # as a breakpoint it would divide round-off in num by u^2
            ok = (disc >= 0.0) & (u > 1e-9 * upper) & (u < upper)
            cuts.append(np.where(ok, u, upper))
    cuts.append(upper)
    edges = np.sort(np.column_stack(cuts), axis=1)
    pair, col = np.nonzero(edges[:, 1:] > edges[:, :-1])
    lo, hi = edges[pair, col], edges[pair, col + 1]

    step = np.full(lo.size, 0.25 * (r - clamp_radius(r, s)))
    first = np.where(lo > 0.0, np.minimum(step, lo), step)
    fine, coarse, moved = _graded_edges(lo, hi, first, step)
    keep = fine[:, 1:] > fine[:, :-1]
    keep_coarse = coarse[:, 1:] > coarse[:, :-1]
    # a coarse sub-panel next to a moved edge spans a dropped fine edge;
    # every other one is the fine sub-panel in the same place
    merged = keep_coarse & (moved[:, :-1] | moved[:, 1:])
    n_fine = np.count_nonzero(keep)
    piece_of = np.zeros(keep.shape, dtype=np.intp)
    piece_of[keep] = np.arange(n_fine)
    piece_of[merged] = n_fine + np.arange(np.count_nonzero(merged))
    sub_a = np.concatenate([fine[:, :-1][keep], coarse[:, :-1][merged]])
    sub_b = np.concatenate([fine[:, 1:][keep], coarse[:, 1:][merged]])
    sub_pair = pair[np.concatenate([np.nonzero(keep)[0], np.nonzero(merged)[0]])]

    (t, w), (tj, wj) = _reference_rules(s)
    jacobi = (sub_a == 0.0)[:, None]
    half = 0.5 * (sub_b - sub_a)[:, None]
    u = sub_a[:, None] + half * (1.0 + np.where(jacobi, tj, t))
    xl, cl, sl = x[sub_pair][:, None], c[sub_pair][:, None], sn[sub_pair][:, None]
    vx = eval_v(x, r, s)
    fwd = eval_v(np.hypot(xl + u * cl, u * sl), r, s)
    back = eval_v(np.hypot(xl - u * cl, u * sl), r, s)
    f = (fwd + back - 2.0 * vx[sub_pair][:, None]) * u ** (-1.0 - 2.0 * s)
    piece = np.sum(half * np.where(jacobi, wj, w) * f, axis=1)
    value = np.bincount(sub_pair[:n_fine], weights=piece[:n_fine], minlength=n)
    index = piece_of[keep_coarse]
    coarser = np.bincount(sub_pair[index], weights=piece[index], minlength=n)
    return value, value - coarser


def _pv_v(x, r: float, s: float, dim: int):
    """int over R^dim of (v(y) - v(x)) |x-y|^(-(dim+2s)) dy at the points x
    on the first axis, and the gap of the rule at each point.

    In polar coordinates around x the Jacobian u^(dim-1) leaves the 1D
    exponent, and each direction e_theta pairs the rays x +- u e_theta:
    int_0^inf [v(x + u e) + v(x - u e) - 2 v(x)] u^(-(1+2s)) du.  1D is
    the single direction theta = 0; 2D is the _THETA_NODES-point Gauss rule
    on [0, pi], whose nodes pair up as theta and pi - theta, which give the
    same ray pair: only nodes below pi / 2 are integrated, at twice their
    weight.  Each direction goes to ``quad``; beyond |x| + r both rays
    lie in {v = 1}, which leaves a closed-form tail.  The gap is
    |value - value of the coarser grading| per point.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if dim == 1:
        c, sn, wt = np.ones(1), np.zeros(1), np.ones(1)
    elif dim == 2:
        nodes, weights = np.polynomial.legendre.leggauss(_THETA_NODES)
        keep = _THETA_NODES // 2
        theta = 0.5 * math.pi * (nodes[:keep] + 1.0)
        c, sn = np.cos(theta), np.sin(theta)
        wt = math.pi * weights[:keep]
    else:
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    xs = np.repeat(x, c.size)
    cs, sns = np.tile(c, x.size), np.tile(sn, x.size)
    parts = [quad(xs[i:i + _BATCH], cs[i:i + _BATCH], sns[i:i + _BATCH], r, s)
             for i in range(0, xs.size, _BATCH)]
    value = np.concatenate([p[0] for p in parts]).reshape(x.size, c.size)
    delta = np.concatenate([p[1] for p in parts]).reshape(x.size, c.size)
    upper = np.abs(x) + r
    tail = (2.0 - 2.0 * eval_v(x, r, s)) * upper ** (-2.0 * s) / (2.0 * s)
    return (value + tail[:, None]) @ wt, np.abs(delta @ wt)


def _relative_gap(pv, gap) -> float:
    """Worst rule gap over a sample set, relative to its largest |pv|."""
    scale = float(np.max(np.abs(pv)))
    return float(np.max(gap)) / scale if scale > 0.0 else 0.0


def estimate_C5(s: float, r: float, sample_count: int, dim: int) -> tuple[float, float]:
    """Sampled supremum of the positive part of (operator v) / (v + 16 r^(-2s)),
    and the worst gap of the principal-value rule over the same samples,
    relative to the largest |operator v| among them.

    Samples the radii k r / N, k = 1..N, so doubling the count refines the
    same grid and the estimate is monotone nondecreasing in sample_count.
    """
    if not R_MIN <= r < math.inf:
        raise ValueError(f"r must be finite and >= {R_MIN}, got {r}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    x = r * np.arange(1, sample_count + 1) / sample_count
    pv, gap = _pv_v(x, r, s, dim)
    floor = 16.0 * r ** (-2.0 * s)
    c5 = float(np.max(np.maximum(pv, 0.0) / (eval_v(x, r, s) + floor)))
    return c5, _relative_gap(pv, gap)


# -- the assembled barrier ----------------------------------------------------


@dataclass(frozen=True)
class BarrierSpec:
    """Parameters of the rescaled barrier w.

    w(x) = (2 - beta) v(x / c_o) + beta - 1 with beta = 32 r^(-2s) and
    c_o = (c5 / tau)^(1/2s), so w runs from beta - 1 on B_{R/2} up to 1
    outside B_R, R = r c_o.
    """

    s: float
    tau: float
    r: float
    c5: float
    dim: int

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not 0.0 < self.c5 < math.inf:
            raise ValueError(f"c5 must be positive and finite, got {self.c5}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not R_MIN <= self.r < math.inf:
            raise ValueError(
                f"inner scale r = {self.r} must be finite and not below the minimum {R_MIN}"
            )
        if not 0.0 < self.beta < 1.0:
            raise ValueError(
                f"beta = 32 r^(-2s) = {self.beta} must lie in (0, 1); increase r"
            )

    @property
    def beta(self) -> float:
        return 32.0 * self.r ** (-2.0 * self.s)

    @property
    def c_o(self) -> float:
        return (self.c5 / self.tau) ** (1.0 / (2.0 * self.s))

    @property
    def big_r(self) -> float:
        """Outer radius R = r c_o beyond which w = 1."""
        return self.r * self.c_o

    def to_json(self) -> dict:
        return {**asdict(self), "beta": self.beta,
                "c_o": self.c_o, "big_r": self.big_r}


def eval_w(spec: BarrierSpec, x):
    """The rescaled barrier at radius |x|."""
    rho = np.abs(np.asarray(x, dtype=float))
    return _w_of_v(spec, eval_v(rho / spec.c_o, spec.r, spec.s))


def _w_of_v(spec: BarrierSpec, v):
    # where v saturates the affine map must return exactly 1, not a rounding of it
    return np.where(v == 1.0, 1.0, (2.0 - spec.beta) * v + spec.beta - 1.0)


def profile(spec: BarrierSpec, sample_count: int):
    """The sample radii of B_R and v and w there: the grid al1 and al2 check.

    The radii are the midpoints (k - 1/2) R / n, k = 1..n, so the outermost
    sample sits half a spacing short of R, which sets the resolution of the
    fitted constants near the boundary; v is read at radius / c_o.
    """
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    radii = spec.big_r * (np.arange(1, sample_count + 1) - 0.5) / sample_count
    v = eval_v(radii / spec.c_o, spec.r, spec.s)
    return radii, v, _w_of_v(spec, v)


@dataclass(frozen=True)
class Al1Report:
    """Pointwise supersolution check: operator w <= tau (1 + w) up to slack."""

    sample_count: int
    outermost_radius: float
    slack: float
    fraction_passing: float
    worst_ratio: float
    rule_gap: float  # worst gap of the PV rule, relative to the largest |pv|
    violation_histogram: dict

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class Al2Report:
    """Two-sided fit of 1 + w against (R + 1 - |x|)^(-2s) inside B_R."""

    sample_count: int
    outermost_radius: float
    upper_constant: float
    lower_constant: float
    ratio: float

    def to_json(self) -> dict:
        return asdict(self)


def verify_al1(spec: BarrierSpec, sample_count: int, slack: float) -> Al1Report:
    """Sample operator w against tau (1 + w) on radii spanning B_R.

    A sample point passes when the quadrature value stays below the right
    side inflated by the relative slack.  The report gives the passing
    fraction, which the caller judges, and histograms the relative excess
    of the violating points.
    """
    radii, _, w = profile(spec, sample_count)
    pv, gap = _pv_v(radii / spec.c_o, spec.r, spec.s, spec.dim)
    # rescaling x -> x / c_o picks up c_o^(-2s) on the operator
    lhs = (2.0 - spec.beta) * spec.c_o ** (-2.0 * spec.s) * pv
    rhs = spec.tau * (1.0 + w)
    ratio = lhs / rhs
    excesses = (ratio[lhs > rhs * (1.0 + slack)] - 1.0).tolist()
    edges = [0.0, 0.1, 0.2, 0.5, 1.0, math.inf]
    hist = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        label = f"({lo:g}, {hi:g}]"
        hist[label] = sum(1 for e in excesses if lo < e <= hi)
    fraction = 1.0 - len(excesses) / sample_count
    return Al1Report(
        sample_count=sample_count,
        outermost_radius=float(radii[-1]),
        slack=slack,
        fraction_passing=fraction,
        worst_ratio=float(np.max(ratio)),
        rule_gap=_relative_gap(pv, gap),
        violation_histogram=hist,
    )


def verify_al2(spec: BarrierSpec, sample_count: int) -> Al2Report:
    """Fit C in C^-1 (R + 1 - |x|)^(-2s) <= 1 + w(x) <= C (R + 1 - |x|)^(-2s).

    Reports the sampled sup and inf of (1 + w(x)) (R + 1 - |x|)^(2s) and
    their ratio; a tight barrier keeps the ratio bounded.
    """
    radii, _, w = profile(spec, sample_count)
    q = (1.0 + w) * (spec.big_r + 1.0 - radii) ** (2.0 * spec.s)
    return Al2Report(
        sample_count=sample_count,
        outermost_radius=float(radii[-1]),
        upper_constant=float(np.max(q)),
        lower_constant=float(np.min(q)),
        ratio=float(np.max(q) / np.min(q)),
    )
