"""Constructive growth-iteration checker for nondecreasing radial traces.

Given samples of a nondecreasing V and parameters (sigma, nu, gamma, C,
R_o, mu), verifies the two hypotheses

    V(R_o) >= mu
    r^sigma * alpha(r) * V(r)^((nu-sigma)/nu) <= C * V(gamma*r)

with alpha(r) = min{1, log V(r) / log r}, then assembles the explicit
constants

    j1 = smallest natural number with gamma^j1 >= R_o
    c  = min{ mu / gamma^(nu*j1),
              (1/(C*gamma^nu))^(nu/sigma),
              (nu/(2*C*gamma^nu))^(nu/sigma) }
    j2 = smallest positive integer with |log c| / (j2 log gamma) <= nu/2

and checks the conclusion V(r) >= c * r^nu on every sample at or beyond
R_star = gamma^(j1 + j2).

Between samples V is extended as the right-continuous step function
through the sample values.  For a nondecreasing V this extension is a
lower bound, so every check below errs on the strict side: a reported
pass never relies on interpolation optimism.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = ["IterationReport", "check_iteration_lemma", "doubling_quotients"]

# comparisons between measured floats allow one part in 1e9 for rounding
_REL_GUARD = 1e-9


@dataclass(frozen=True)
class IterationReport:
    """Outcome of the growth-iteration check.

    ``failed_hypothesis`` is one of None, "nondecreasing", "initial-mass",
    "doubling"; ``violating_r`` names the first radius where it breaks.
    The constructive constants are None whenever a hypothesis failed.
    """

    sigma: float
    nu: float
    gamma: float
    growth_c: float
    r_o: float
    mu: float
    hypotheses_hold: bool
    failed_hypothesis: str | None
    violating_r: float | None
    doubling_pairs: int
    j1: int | None = None
    j2: int | None = None
    c: float | None = None
    r_star: float | None = None
    conclusion_tested: bool = False
    conclusion_count: int = 0
    conclusion_holds: bool | None = None
    conclusion_violating_r: float | None = None

    @property
    def passed(self) -> bool:
        return self.hypotheses_hold and self.conclusion_holds is not False

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def _as_series(v_samples) -> tuple[np.ndarray, np.ndarray]:
    arr = np.asarray(list(v_samples), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise ValueError("v_samples must be a nonempty sequence of (r, V) pairs")
    r = arr[:, 0]
    v = arr[:, 1]
    if not np.all(np.isfinite(arr)):
        raise ValueError("v_samples must be finite")
    if np.any(r <= 0) or np.any(v <= 0):
        raise ValueError("radii and values must be positive")
    if np.any(np.diff(r) <= 0):
        raise ValueError("radii must be strictly increasing")
    return r, v


def _value_at(r: np.ndarray, v: np.ndarray, rho: float) -> float | None:
    """Step-function value: the sample at the largest radius <= rho."""
    k = int(np.searchsorted(r, rho * (1.0 + _REL_GUARD), side="right")) - 1
    if k < 0:
        return None
    return float(v[k])


def doubling_quotients(v_samples, sigma: float, nu: float, gamma: float,
                       r_o: float) -> list[tuple[float, float]]:
    """The pairs (r, gamma r) the doubling hypothesis tests, each as
    (r, quotient) with quotient r^sigma alpha(r) V(r)^((nu-sigma)/nu) /
    V(gamma r): every sample r >= r_o whose gamma r lies within the
    samples, V(gamma r) read off the step function.  The hypothesis holds
    with constant C when no quotient exceeds C.

    Raises ValueError outside nu > sigma > 0, gamma > 1, r_o > 1, or for
    samples that are not strictly increasing positive radii with positive
    values.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not nu > sigma:
        raise ValueError(f"nu must exceed sigma, got nu={nu} sigma={sigma}")
    if not gamma > 1:
        raise ValueError(f"gamma must exceed 1, got {gamma}")
    if not r_o > 1:
        raise ValueError(f"r_o must exceed 1, got {r_o}")
    r, v = _as_series(v_samples)
    power = (nu - sigma) / nu
    out = []
    for rk, vk in zip(r, v):
        if rk >= r_o * (1.0 - _REL_GUARD) and gamma * rk <= r[-1] * (1.0 + _REL_GUARD):
            alpha = min(1.0, math.log(vk) / math.log(rk))
            q = rk ** sigma * alpha * vk ** power / _value_at(r, v, gamma * rk)
            out.append((float(rk), float(q)))
    return out


def check_iteration_lemma(
    v_samples,
    sigma: float,
    nu: float,
    gamma: float,
    growth_c: float,
    r_o: float,
    mu: float,
) -> IterationReport:
    """Verify the iteration hypotheses on a sampled trace and, when they
    hold, the power-law conclusion with its explicit constant.

    ``v_samples`` is a sequence of (r, V) pairs with strictly increasing
    positive radii.  Parameter domain: nu > sigma > 0, gamma > 1,
    growth_c > 1, r_o > 1, mu > 0, and the samples must reach down to
    r_o so the initial mass is checkable.
    """
    quotients = doubling_quotients(v_samples, sigma, nu, gamma, r_o)
    if not growth_c > 1:
        raise ValueError(f"growth_c must exceed 1, got {growth_c}")
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    r, v = _as_series(v_samples)
    if _value_at(r, v, r_o) is None:
        raise ValueError(
            f"no sample at or below r_o={r_o}; the initial mass is not checkable"
        )

    def fail(which: str, at: float, pairs: int) -> IterationReport:
        return IterationReport(
            sigma=sigma, nu=nu, gamma=gamma, growth_c=growth_c, r_o=r_o, mu=mu,
            hypotheses_hold=False, failed_hypothesis=which, violating_r=at,
            doubling_pairs=pairs,
        )

    drops = np.nonzero(np.diff(v) < 0)[0]
    if drops.size:
        return fail("nondecreasing", float(r[drops[0] + 1]), 0)

    if _value_at(r, v, r_o) < mu * (1.0 - _REL_GUARD):
        return fail("initial-mass", float(r_o), 0)

    for k, (rk, q) in enumerate(quotients):
        if q > growth_c * (1.0 + _REL_GUARD):
            return fail("doubling", rk, k + 1)

    j1 = 1
    while gamma ** j1 < r_o:
        j1 += 1
    c = min(
        mu / gamma ** (nu * j1),
        (1.0 / (growth_c * gamma ** nu)) ** (nu / sigma),
        (nu / (2.0 * growth_c * gamma ** nu)) ** (nu / sigma),
    )
    j2 = 1
    while abs(math.log(c)) / (j2 * math.log(gamma)) > nu / 2.0:
        j2 += 1
    r_star = gamma ** (j1 + j2)

    beyond = r >= r_star * (1.0 - _REL_GUARD)
    tested = int(np.count_nonzero(beyond))
    holds: bool | None = None
    bad_r: float | None = None
    if tested:
        ok = v[beyond] >= c * r[beyond] ** nu * (1.0 - _REL_GUARD)
        holds = bool(np.all(ok))
        if not holds:
            bad_r = float(r[beyond][np.nonzero(~ok)[0][0]])
    return IterationReport(
        sigma=sigma, nu=nu, gamma=gamma, growth_c=growth_c, r_o=r_o, mu=mu,
        hypotheses_hold=True, failed_hypothesis=None, violating_r=None,
        doubling_pairs=len(quotients), j1=j1, j2=j2, c=c, r_star=r_star,
        conclusion_tested=bool(tested), conclusion_count=tested,
        conclusion_holds=holds, conclusion_violating_r=bad_r,
    )
