"""Radial supersolution barrier and verification of its inequalities.

The barrier chain: g(t) = t^(-2s); h caps the tangent-line gap of g at
r/2 into [0, 1]; v(x) = h(r - |x|) ramps from 0 on B_{r/2} to 1 outside
B_r; w rescales v by C_o = (C5/tau)^(1/2s) and maps its range onto
[beta - 1, 1] with beta = 32 r^(-2s).  C5 is measured, not assumed: it is
the sampled supremum of the positive part of the operator applied to v,
normalized by v + 16 r^(-2s).

h meets 0 at t = r/2 with zero slope (tangent-line construction), so the
only kink of v sits at the clamp radius where h reaches 1.  The principal
value is one ray rule: pairs of opposite rays from the evaluation point,
one direction (theta = 0) in 1D and a Gauss rule in theta in 2D, each
integrated by quad with breakpoints where a ray crosses the clamp radius,
r/2 or r.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

__all__ = [
    "R_MIN",
    "BarrierSpec",
    "Al1Report",
    "Al2Report",
    "eval_h",
    "eval_v",
    "eval_w",
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
    out = np.where(arr <= 0.0, 1.0, out)
    return float(out) if np.isscalar(t) else out


def eval_v(x, r: float, s: float):
    """Radial barrier core: v = h(r - |x|) inside B_r, 1 outside."""
    rho = np.abs(np.asarray(x, dtype=float))
    out = np.where(rho >= r, 1.0, eval_h(r - rho, r, s))
    return float(out) if np.isscalar(x) else out


def clamp_radius(r: float, s: float) -> float:
    """|x| below which v < 1: the single kink radius of v."""
    _, _, t_star = _h_params(r, s)
    return r - t_star


# -- principal value integrals ------------------------------------------------


def _pv_v(x: float, r: float, s: float, dim: int, n_theta: int = 48) -> float:
    """int over R^dim of (v(y) - v(x)) |x-y|^(-(dim+2s)) dy at the point x
    on the first axis, by one ray rule.

    In polar coordinates around x the Jacobian u^(dim-1) leaves the 1D
    exponent, and each direction e_theta pairs the rays x +- u e_theta:
    int_0^inf [v(x + u e) + v(x - u e) - 2 v(x)] u^(-(1+2s)) du.  1D is
    the single direction theta = 0; 2D is the n_theta-point Gauss rule on
    [0, pi].  Breakpoints sit where a ray crosses the clamp radius, r/2
    or r; beyond |x| + r both rays lie in {v = 1}.
    """
    if dim == 1:
        directions = ((0.0, 1.0),)
    elif dim == 2:
        nodes, weights = np.polynomial.legendre.leggauss(n_theta)
        directions = zip(0.5 * math.pi * (nodes + 1.0), 0.5 * math.pi * weights)
    else:
        raise ValueError(f"dim must be 1 or 2, got {dim}")
    vx = eval_v(x, r, s)
    upper = abs(x) + r
    tail = (2.0 - 2.0 * vx) * upper ** (-2.0 * s) / (2.0 * s)
    total = 0.0
    for theta, wt in directions:
        c, sn = math.cos(theta), math.sin(theta)

        def f(u):
            if sn == 0.0:  # on the axis eval_v takes |.| itself
                fwd, back = x + u * c, x - u * c
            else:
                fwd = math.hypot(x + u * c, u * sn)
                back = math.hypot(x - u * c, u * sn)
            return (eval_v(fwd, r, s) + eval_v(back, r, s) - 2.0 * vx) \
                * u ** (-1.0 - 2.0 * s)

        # u with |x +- u e_theta| = radius: u = -+x c +- sqrt(radius^2 - (x sn)^2)
        cross = set()
        for radius in (clamp_radius(r, s), 0.5 * r, r):
            disc = radius * radius - (x * sn) ** 2
            if disc >= 0.0:
                root = math.sqrt(disc)
                cross.update((-x * c - root, -x * c + root, x * c - root, x * c + root))
        pts = sorted(u for u in cross if 0.0 < u < upper)
        val, _ = quad(f, 0.0, upper, points=pts or None, limit=300)
        total += wt * (val + tail)
    return float(total)


def estimate_C5(
    s: float, r: float, sample_count: int = 256, dim: int = 1, theta_nodes: int = 48
) -> float:
    """Sampled supremum of the positive part of (operator v) / (v + 16 r^(-2s)).

    Samples the radii k r / N, k = 1..N, so doubling the count refines the
    same grid and the estimate is monotone nondecreasing in sample_count.
    """
    if r < R_MIN:
        raise ValueError(f"r must be >= {R_MIN}, got {r}")
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    floor = 16.0 * r ** (-2.0 * s)
    best = 0.0
    for k in range(1, sample_count + 1):
        x = r * k / sample_count
        num = max(_pv_v(x, r, s, dim, theta_nodes), 0.0)
        best = max(best, num / (eval_v(x, r, s) + floor))
    return best


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
    dim: int = 1

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.tau <= 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.c5 <= 0.0:
            raise ValueError(f"c5 must be positive, got {self.c5}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.r < R_MIN:
            raise ValueError(
                f"inner scale r = {self.r} is below the minimum {R_MIN}"
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

    @classmethod
    def from_scale(
        cls,
        s: float,
        tau: float,
        r: float,
        sample_count: int = 256,
        dim: int = 1,
    ) -> "BarrierSpec":
        """Build the barrier at inner scale r, measuring c5 there."""
        c5 = estimate_C5(s, r, sample_count, dim)
        return cls(s=s, tau=tau, r=r, c5=c5, dim=dim)

    def to_json(self) -> dict:
        return {**asdict(self), "beta": self.beta,
                "c_o": self.c_o, "big_r": self.big_r}


def eval_w(spec: BarrierSpec, x):
    """The rescaled barrier at radius |x|."""
    rho = np.abs(np.asarray(x, dtype=float))
    v = eval_v(rho / spec.c_o, spec.r, spec.s)
    # where v saturates the affine map must return exactly 1, not a rounding of it
    out = np.where(v == 1.0, 1.0, (2.0 - spec.beta) * v + spec.beta - 1.0)
    return float(out) if np.isscalar(x) else out


def _pv_w(spec: BarrierSpec, x: float) -> float:
    # rescaling x -> x / c_o picks up c_o^(-2s) on the operator
    return (
        (2.0 - spec.beta)
        * spec.c_o ** (-2.0 * spec.s)
        * _pv_v(x / spec.c_o, spec.r, spec.s, spec.dim)
    )


def _sample_radii(big_r: float, sample_count: int) -> np.ndarray:
    # midpoint radii: the outermost sample sits half a spacing short of R,
    # which sets the resolution of the fitted constants near the boundary
    if sample_count < 2:
        raise ValueError(f"sample_count must be >= 2, got {sample_count}")
    return big_r * (np.arange(1, sample_count + 1) - 0.5) / sample_count


@dataclass(frozen=True)
class Al1Report:
    """Pointwise supersolution check: operator w <= tau (1 + w) up to slack."""

    sample_count: int
    outermost_radius: float
    slack: float
    fraction_passing: float
    worst_ratio: float
    violation_histogram: dict
    passed: bool

    def __bool__(self) -> bool:
        return self.passed

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


def verify_al1(
    spec: BarrierSpec,
    sample_count: int = 512,
    slack: float = 0.05,
    min_fraction: float = 0.99,
) -> Al1Report:
    """Sample operator w against tau (1 + w) on radii spanning B_R.

    A sample point passes when the quadrature value stays below the right
    side inflated by the relative slack.  The report histograms the relative
    excess of the violating points.
    """
    radii = _sample_radii(spec.big_r, sample_count)
    excesses = []
    worst = -math.inf
    for rho in radii:
        lhs = _pv_w(spec, float(rho))
        rhs = spec.tau * (1.0 + eval_w(spec, float(rho)))
        ratio = lhs / rhs
        worst = max(worst, ratio)
        if lhs > rhs * (1.0 + slack):
            excesses.append(ratio - 1.0)
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
        worst_ratio=worst,
        violation_histogram=hist,
        passed=fraction >= min_fraction,
    )


def verify_al2(spec: BarrierSpec, sample_count: int = 512) -> Al2Report:
    """Fit C in C^-1 (R + 1 - |x|)^(-2s) <= 1 + w(x) <= C (R + 1 - |x|)^(-2s).

    Reports the sampled sup and inf of (1 + w(x)) (R + 1 - |x|)^(2s) and
    their ratio; a tight barrier keeps the ratio bounded.
    """
    radii = _sample_radii(spec.big_r, sample_count)
    q = (1.0 + eval_w(spec, radii)) * (spec.big_r + 1.0 - radii) ** (2.0 * spec.s)
    return Al2Report(
        sample_count=sample_count,
        outermost_radius=float(radii[-1]),
        upper_constant=float(np.max(q)),
        lower_constant=float(np.min(q)),
        ratio=float(np.max(q) / np.min(q)),
    )
