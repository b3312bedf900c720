"""Experiment configuration: one flat key=value file plus overrides.

Every physical parameter is dimensionless (lattice units).  Unknown keys
are rejected by name so a typo cannot silently fall back to a default.
"""

from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass

__all__ = ["ExperimentConfig", "config_from_sources", "read_config_file",
           "read_pairs_csv"]


def _floats(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    return tuple(float(p) for p in parts)


def _bool(text) -> bool:
    if isinstance(text, bool):
        return text
    val = str(text).strip().lower()
    if val in ("1", "true", "yes", "on"):
        return True
    if val in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs for one experiment run.

    The fields group as: discretization (s, dim, h), the physics
    (potential, exterior data, thresholds), per-experiment sweeps and
    tolerances, and run plumbing (seed, output directory).
    """

    experiment: str = ""
    s: float = 0.25
    dim: int = 1
    h: float = 0.25
    out_dir: str = "runs"
    seed: int = 0

    amplitude: float = 1.0
    potential_csv: str = ""
    exterior_above: float = 1.0
    exterior_below: float = -1.0
    exterior_axis: int = 0
    exterior_threshold: float = 0.0

    theta1: float = 0.0
    theta2: float = 0.0
    theta_star: float = 0.0

    radii: tuple[float, ...] = (8.0, 16.0, 32.0, 64.0)
    eps: tuple[float, ...] = (0.125, 0.0625, 0.03125, 0.015625)

    max_iters: int = 2000
    grad_tol: float = 1e-7

    slope_tol: float = 0.15

    density_floor: float = 0.05

    levelset_theta: float = 0.9
    levelset_radius: float = 1.0
    delta_cells: float = 4.0
    levelset_tol_cells: float = 1.0

    corpus_size: int = 50
    box_cells: int = 32
    c_probes: tuple[float, ...] = (0.01, 0.05, 0.1)
    s_list: tuple[float, ...] = ()
    b_fractions: tuple[float, ...] = (0.02, 0.5)
    max_rects: int = 8
    refine: bool = True
    refine_cases: int = 10
    refine_rtol: float = 0.05

    sobolev_radius: float = 1.0
    sobolev_center: float = 0.2
    sobolev_extent: float = 12.0
    sobolev_count: int = 100
    sobolev_rtol: float = 0.01
    sobolev_margin: float = 1.05

    tau: float = 0.1
    barrier_r: float = 400.0
    barrier_samples: int = 256
    check_samples: int = 512
    al1_slack: float = 0.05
    al1_min_fraction: float = 0.99
    al2_ratio_max: float = 50.0

    sigma: float = 0.5
    nu: float = 2.0
    gamma: float = 2.0
    growth_c: float = 2.0
    r_o: float = 8.0
    mu: float = 1.0
    v_csv: str = ""
    v_form: str = "power"

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ValueError(f"s must lie in (0, 1), got {self.s}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not self.h > 0:
            raise ValueError(f"h must be positive, got {self.h}")
        for name in ("theta1", "theta2"):
            val = getattr(self, name)
            if not -1.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (-1, 1), got {val}")
        if self.theta_star > min(self.theta1, self.theta2):
            raise ValueError(
                f"theta_star must not exceed min(theta1, theta2), got "
                f"{self.theta_star} > {min(self.theta1, self.theta2)}"
            )
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError(f"radii must be strictly increasing, got {self.radii}")
        if any(not r > 0 for r in self.radii):
            raise ValueError(f"radii must be positive, got {self.radii}")
        if not self.density_floor > 0:
            raise ValueError(
                f"density_floor must be positive, got {self.density_floor}"
            )

    def to_flat_dict(self) -> dict:
        """Echo of every field, tuples rendered as comma lists."""
        out = {}
        for f in dataclasses.fields(self):
            val = getattr(self, f.name)
            if isinstance(val, tuple):
                val = ",".join(repr(x) for x in val)
            out[f.name] = val
        return out


_PARSERS = {}
for _f in dataclasses.fields(ExperimentConfig):
    if _f.type == "tuple[float, ...]":
        _PARSERS[_f.name] = _floats
    elif _f.type == "bool":
        _PARSERS[_f.name] = _bool
    elif _f.type == "int":
        _PARSERS[_f.name] = int
    elif _f.type == "float":
        _PARSERS[_f.name] = float
    else:
        _PARSERS[_f.name] = str


def read_config_file(path) -> dict:
    """Parse a flat key=value file; '#' starts a comment, blanks ignored."""
    raw: dict[str, str] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {str(path)!r}: {exc.strerror}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, val = stripped.partition("=")
            raw[key.strip()] = val.strip()
    return raw


def _numbers(row: list[str]) -> list[float] | None:
    try:
        return [float(cell) for cell in row]
    except ValueError:
        return None


def read_pairs_csv(path) -> list[tuple[float, float]]:
    """Rows of a two-column (x, y) CSV file, in file order.

    Blank lines are skipped, and so is the first row if it is not numeric
    (a header).  Every other row must hold exactly two numbers.
    """
    out: list[tuple[float, float]] = []
    first = True
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {str(path)!r}: {exc.strerror}") from None
    with fh:
        reader = csv.reader(fh)
        for row in reader:
            if not any(cell.strip() for cell in row):
                continue
            vals = _numbers(row)
            if vals is None and first:
                first = False
                continue
            first = False
            if vals is None or len(vals) != 2:
                raise ValueError(
                    f"{path}:{reader.line_num}: expected two numbers, got {row!r}")
            out.append((vals[0], vals[1]))
    if not out:
        raise ValueError(f"{path}: no data rows")
    return out


def config_from_sources(
    experiment: str,
    file_values: dict | None = None,
    overrides: dict | None = None,
) -> ExperimentConfig:
    """Build a config from file values then overrides, later wins."""
    merged: dict[str, str] = {}
    for source in (file_values or {}), (overrides or {}):
        merged.update(source)
    kwargs = {"experiment": experiment}
    for key, val in merged.items():
        if key == "experiment":
            continue
        if key not in _PARSERS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)
