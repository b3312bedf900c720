"""Double-well potentials on [-1, 1] with derivatives and a structure check.

The quartic well Quartic(amplitude) is W(t) = amplitude * (1-t^2)^2,
vanishing exactly at the pure phases t = +-1 with W''(+-1) = 8 * amplitude;
the amplitude has no default.  A tabulated variant (cubic interpolation of
sampled values) covers less smooth wells; both expose value, first and second
derivative.  check_wcond samples the conditions a double well must meet:
zeros at the pure phases, flat nondegenerate minima there, and W > 0 between
them, and returns the names of those that fail, none for an admissible well.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "Quartic",
    "Tabulated",
    "check_wcond",
]


def _check_domain(t: np.ndarray) -> np.ndarray:
    arr = np.asarray(t, dtype=float)
    if np.any(arr < -1.0) or np.any(arr > 1.0):
        bad = arr[(arr < -1.0) | (arr > 1.0)].ravel()[0]
        raise ValueError(f"potential argument outside [-1, 1]: {bad}")
    return arr


@dataclass(frozen=True)
class Quartic:
    """W(t) = amplitude * (1 - t^2)^2."""

    amplitude: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")

    def value(self, t):
        t = _check_domain(t)
        return self.amplitude * (1.0 - t ** 2) ** 2

    def deriv(self, t):
        t = _check_domain(t)
        return 4.0 * self.amplitude * t * (t ** 2 - 1.0)

    def second(self, t):
        t = _check_domain(t)
        return 4.0 * self.amplitude * (3.0 * t ** 2 - 1.0)


@dataclass(frozen=True)
class Tabulated:
    """Cubic interpolant of (t, W) samples on [-1, 1], clamped ends.

    Clamping pins W'(-1) = W'(+1) = 0, matching the flat minima of an
    admissible well even when the samples are sparse.
    """

    ts: tuple
    ws: tuple

    def __post_init__(self):
        ts = np.asarray(self.ts, dtype=float)
        ws = np.asarray(self.ws, dtype=float)
        if ts.ndim != 1 or ts.shape != ws.shape or ts.size < 4:
            raise ValueError("need matching 1D sample arrays with >= 4 points")
        if not (np.all(np.diff(ts) > 0) and ts[0] == -1.0 and ts[-1] == 1.0):
            raise ValueError("sample points must increase strictly from -1 to 1")
        object.__setattr__(self, "ts", tuple(float(v) for v in ts))
        object.__setattr__(self, "ws", tuple(float(v) for v in ws))
        spline = CubicSpline(ts, ws, bc_type="clamped")
        object.__setattr__(self, "_spline", spline)
        object.__setattr__(self, "_d1", spline.derivative(1))
        object.__setattr__(self, "_d2", spline.derivative(2))

    def value(self, t):
        return self._spline(_check_domain(t))

    def deriv(self, t):
        return self._d1(_check_domain(t))

    def second(self, t):
        return self._d2(_check_domain(t))


_WELL_SAMPLES = 1000  # interior points where check_wcond tests W > 0
_WELL_TOL = 1e-9  # largest |W(+-1)| and |W'(+-1)| that count as zero


def check_wcond(pot: Quartic | Tabulated) -> tuple[str, ...]:
    """Names of the sampled conditions W(+-1)=0, W'(+-1)=0, W''(+-1)>0 and
    W>0 on (-1,1) that fail; empty for an admissible well."""
    ends = (float(pot.value(-1.0)), float(pot.value(1.0)))
    slopes = (float(pot.deriv(-1.0)), float(pot.deriv(1.0)))
    curv = (float(pot.second(-1.0)), float(pot.second(1.0)))
    grid = np.linspace(-1.0, 1.0, _WELL_SAMPLES + 2)[1:-1]
    interior = float(np.min(pot.value(grid)))
    return tuple(name for name, holds in (
        ("W(+-1) = 0", max(abs(e) for e in ends) <= _WELL_TOL),
        ("W'(+-1) = 0", max(abs(sl) for sl in slopes) <= _WELL_TOL),
        ("W''(+-1) > 0", min(curv) > 0),
        ("W > 0 on (-1, 1)", interior > 0),
    ) if not holds)
