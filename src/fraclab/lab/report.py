"""Run artifacts: report.json and series.csv.

The json layout keeps everything that must reproduce bit-exactly from a
config (config echo, results, criteria, series) apart from the "meta"
section, which holds wall clock and sizes and is allowed to vary between
otherwise identical runs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field

__all__ = ["Criterion", "ExperimentReport"]


@dataclass(frozen=True)
class Criterion:
    """One pass/fail line of a run.

    ``vacuous`` marks a line that passes without testing anything, such
    as a conclusion with no sample in its range; it does not change
    ``passed``.
    """

    name: str
    passed: bool
    detail: str
    vacuous: bool = False

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class ExperimentReport:
    """Everything a run emits.

    ``series_rows`` are the per-point measurements; ``results`` sums them
    up and adds what is measured beside them (the barrier's spec and al1,
    sobolev's center value, gmt's refinement drift).  report.json is the
    run's only record besides series.csv: a corpus is reproduced from the
    seed and sizes in the config echo.
    """

    experiment: str
    config: dict
    results: dict
    criteria: list[Criterion]
    series_columns: list[str]
    series_rows: list[list]
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "results": self.results,
            "criteria": [c.to_json() for c in self.criteria],
            "series_columns": list(self.series_columns),
            "series_rows": [list(map(_jsonable, row)) for row in self.series_rows],
            "passed": self.passed,
            "meta": self.meta,
        }

    def write(self, out_dir) -> dict:
        """Write report.json and series.csv; returns their paths."""
        os.makedirs(out_dir, exist_ok=True)
        paths = {}
        report_path = os.path.join(out_dir, "report.json")
        _write_json(report_path, self.to_json_dict())
        paths["report"] = report_path
        series_path = os.path.join(out_dir, "series.csv")
        with open(series_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.series_columns)
            for row in self.series_rows:
                writer.writerow([_cell(x) for x in row])
        paths["series"] = series_path
        return paths


def _write_json(path, payload) -> None:
    # one serialization and one write: json.dump would hand the file each
    # of its thousands of chunks
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _jsonable(x):
    if hasattr(x, "item"):
        return x.item()
    return x


def _cell(x) -> str:
    # repr keeps floats round-trippable; everything else is plain str
    x = _jsonable(x)
    if isinstance(x, float):
        return repr(x)
    return str(x)
