"""Pytest fixtures for the benchmark harness.

Datasets are built once per session -- served from the persistent
workload cache (``repro.bench.cache``) and memoised per process -- and
shared by every figure benchmark; their alignment profiles are primed
once through :func:`repro.kernels.prime_profiles`, so figures that time
the CPU anchor before any kernel never fall back to per-task scalar
profiles.  Hardware is the scaled device/CPU pair described in
DESIGN.md.

``repro`` comes from the installed package, ``PYTHONPATH`` or the
repository-root ``conftest.py``; ``bench_utils`` is importable because
pytest puts this directory on ``sys.path`` when collecting it (rootdir
insertion for test packages without ``__init__.py``).
"""

from __future__ import annotations

import pytest

from repro.kernels import prime_profiles
from repro.pipeline.experiment import (
    all_dataset_names,
    dataset_tasks,
    scaled_hardware,
)

from bench_utils import REPRESENTATIVE_DATASETS


@pytest.fixture(scope="session")
def hardware():
    """The scaled (device, cpu) pair used throughout the harness."""
    return scaled_hardware()


def _primed_datasets(names):
    """Mapping of dataset name -> tuple of alignment tasks, profiles primed."""
    datasets = {name: dataset_tasks(name) for name in names}
    for tasks in datasets.values():
        prime_profiles(tasks)
    return datasets


@pytest.fixture(scope="session")
def all_datasets():
    """Mapping of dataset name -> tuple of alignment tasks (all nine)."""
    return _primed_datasets(all_dataset_names())


@pytest.fixture(scope="session")
def representative_datasets():
    """One dataset per sequencing technology."""
    return _primed_datasets(REPRESENTATIVE_DATASETS)
