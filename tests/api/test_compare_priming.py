"""The figure path primes every profile once, before the CPU anchor.

``compare_suite`` calls :func:`repro.kernels.prime_profiles` with the
suite's kernel config before timing the CPU anchor, so a cold
``Session.compare`` never falls through to the per-task scalar
``AlignmentTask.profile()`` -- and the records stay bit-identical to
the scalar-primed path.
"""

import sys

import numpy as np
import pytest

import repro.align.antidiagonal
from repro.align.scoring import preset
from repro.analysis.workload import task_workload_antidiagonals
from repro.api import Session
from repro.io.datasets import DatasetSpec
from repro.kernels import KernelConfig, prime_profiles

TINY_ONT = DatasetSpec(
    name="tiny-ont",
    technology="ONT",
    seed=11,
    num_reads=6,
    reference_length=6000,
    scoring=preset("map-ont", band_width=32, zdrop=100),
)


@pytest.fixture
def scalar_calls(monkeypatch):
    """Count calls to the scalar oracle at every name it is reachable by.

    Patched in ``repro.align.antidiagonal`` (which lazy importers such
    as ``AlignmentTask.profile`` read at call time) and in every
    ``repro`` module that bound the function at import.
    """
    calls = []
    scalar = repro.align.antidiagonal.antidiagonal_align

    def counted(*args, **kwargs):
        calls.append(1)
        return scalar(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro.")
            and getattr(module, "antidiagonal_align", None) is scalar
        ):
            monkeypatch.setattr(module, "antidiagonal_align", counted)
    return calls


@pytest.fixture
def primed_batches(monkeypatch):
    """Record the size of every batch the priming engine is asked for."""
    batches = []
    original = KernelConfig.scoring_align

    def scoring_align(config):
        align = original(config)

        def spy(tasks, *args, **kwargs):
            batches.append(len(tasks))
            return align(tasks, *args, **kwargs)

        return spy

    monkeypatch.setattr(KernelConfig, "scoring_align", scoring_align)
    return batches


def _compare_both(session):
    return {suite: session.compare(suite).to_dict() for suite in ("mm2", "diff")}


def test_default_engine_is_vector():
    assert KernelConfig().scoring_engine == "vector"


def test_cold_compare_makes_no_scalar_calls(scalar_calls, primed_batches):
    session = Session(dataset=TINY_ONT, use_cache=False)
    _compare_both(session)
    assert scalar_calls == []
    # All tasks in one prime_profiles call; the diff suite finds them primed.
    assert primed_batches == [len(session.workload())]


def test_records_match_the_scalar_primed_session():
    primed = _compare_both(Session(dataset=TINY_ONT, use_cache=False))
    scalar = _compare_both(
        Session(
            dataset=TINY_ONT,
            use_cache=False,
            kernel_config=KernelConfig(batched_scoring=False),
        )
    )
    assert primed == scalar


def test_unbatched_config_reaches_the_scalar_oracle(scalar_calls, primed_batches):
    session = Session(
        dataset=TINY_ONT,
        use_cache=False,
        kernel_config=KernelConfig(batched_scoring=False),
    )
    session.compare("mm2")
    assert len(scalar_calls) == len(session.workload())
    assert primed_batches == []


def test_primed_profiles_equal_scalar_profiles():
    tasks = Session(dataset=TINY_ONT, use_cache=False).workload()
    prime_profiles(tasks)
    primed = [task.profile() for task in tasks]
    for task, vector in zip(tasks, primed):
        scalar = task.profile(force=True)
        assert vector.result == scalar.result
        np.testing.assert_array_equal(vector.antidiag_maxima, scalar.antidiag_maxima)
        np.testing.assert_array_equal(
            vector.cells_per_antidiag, scalar.cells_per_antidiag
        )


def test_already_primed_tasks_are_skipped(task_batch, primed_batches):
    kept = {id(task): task.profile() for task in task_batch[:5]}
    prime_profiles(task_batch, KernelConfig(batch_bucket_size=4))
    assert primed_batches == [len(task_batch) - 5]
    assert all(task.profile() is kept[id(task)] for task in task_batch[:5])
    prime_profiles(task_batch)
    assert primed_batches == [len(task_batch) - 5]


def test_workload_analysis_primes_instead_of_scalar(task_batch, scalar_calls, primed_batches):
    workload = task_workload_antidiagonals(task_batch)
    assert scalar_calls == []
    assert primed_batches == [len(task_batch)]
    expected = [
        repro.align.antidiagonal.antidiagonal_align(
            t.ref, t.query, t.scoring, return_profile=True
        ).antidiagonals_processed
        for t in task_batch
    ]
    np.testing.assert_array_equal(workload, expected)
