"""One module per paper table/figure.

Each module exposes ``run(fast=False) -> ExperimentResult`` (or one
``run_*`` per experiment it hosts), registered by id in
:mod:`repro.experiments.registry`.  ``repro figures`` pins every result
under ``tests/expected/figures/``, ``tests/test_experiments.py`` checks
the paper's claims against those pins, and EXPERIMENTS.md is written
from the same results.
``fast=True`` shrinks trace lengths for CI-speed runs without changing
the experiment's structure.
"""

from repro.experiments.common import ExperimentResult

__all__ = ["ExperimentResult"]
