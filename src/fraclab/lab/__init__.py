"""Experiment runner: configs, drivers, reports, and the CLI."""

from .config import ExperimentConfig, config_from_sources, read_config_file
from .experiments import (
    run_barrier,
    run_density,
    run_energy_growth,
    run_gmt_suite,
    run_iterate,
    run_levelset_convergence,
    run_sobolev_suite,
)
from .iterate import IterationReport, check_iteration_lemma, doubling_quotients
from .report import Criterion, ExperimentReport

__all__ = [
    "Criterion",
    "ExperimentConfig",
    "ExperimentReport",
    "IterationReport",
    "check_iteration_lemma",
    "config_from_sources",
    "doubling_quotients",
    "read_config_file",
    "run_barrier",
    "run_density",
    "run_energy_growth",
    "run_gmt_suite",
    "run_iterate",
    "run_levelset_convergence",
    "run_sobolev_suite",
]
