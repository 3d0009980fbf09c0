"""Equivalence tests for the whole-array NumPy ``vector`` engine.

The dense batch engine defines the semantics (and is itself pinned to
the scalar oracle by ``test_batch.py``); the vector sweep must reproduce
its scores, maximum cells, termination anti-diagonals, work counters and
per-anti-diagonal profiles bit for bit -- across slice widths, bucket
sizes, termination kinds, mixed scoring schemes and the int64 fallback
for value ranges that do not fit the 32-bit fast path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.antidiagonal import antidiagonal_align
from repro.align.batch import DEFAULT_SLICE_WIDTH, ENGINE_SLICE_WIDTHS, batch_align
from repro.align.scoring import ScoringScheme, preset
from repro.align.sequence import encode, mutate, random_sequence
from repro.align.termination import make_termination
from repro.align.types import AlignmentTask
from repro.align.vector import DEFAULT_VECTOR_BUCKET_SIZE, vector_align


def _assert_same(expected, got):
    """Full bit-exactness check between two results."""
    assert expected.score == got.score
    assert expected.max_i == got.max_i
    assert expected.max_j == got.max_j
    assert expected.terminated == got.terminated
    assert expected.antidiagonals_processed == got.antidiagonals_processed
    assert expected.cells_computed == got.cells_computed


def _mixed_tasks(rng, n, *, scoring=None, max_len=400, divergent_fraction=0.7):
    """Mixed-length tasks where most pairs Z-drop early and a few run on."""
    tasks = []
    for t in range(n):
        length = int(rng.integers(1, max_len))
        ref = random_sequence(length, rng)
        if rng.random() < divergent_fraction:
            query = random_sequence(int(rng.integers(1, max_len)), rng)
        else:
            query = mutate(ref, rng, substitution_rate=0.05)
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


class TestAgainstBatchEngine:
    @pytest.mark.parametrize("slice_width", [1, 3, DEFAULT_SLICE_WIDTH, 1000, None])
    @pytest.mark.parametrize("termination", ["zdrop", "xdrop", "none"])
    def test_mixed_workload_matches_batch(self, slice_width, termination):
        """Aggressive early termination across ragged buckets."""
        rng = np.random.default_rng(17)
        scoring = preset("map-ont", band_width=32, zdrop=40)
        tasks = _mixed_tasks(rng, 48, scoring=scoring)
        dense = batch_align(tasks, termination=termination, bucket_size=16)
        vector = vector_align(
            tasks,
            termination=termination,
            bucket_size=16,
            slice_width=slice_width,
        )
        for d, v in zip(dense, vector):
            _assert_same(d, v)

    def test_matches_scalar_oracle(self):
        """The vector sweep is pinned to the oracle, not just to batch."""
        rng = np.random.default_rng(23)
        scoring = preset("map-ont", band_width=48, zdrop=60)
        tasks = _mixed_tasks(rng, 24, scoring=scoring)
        vector = vector_align(tasks, bucket_size=8)
        for task, v in zip(tasks, vector):
            cond = make_termination(task.scoring, "zdrop")
            _assert_same(
                antidiagonal_align(task.ref, task.query, task.scoring, cond), v
            )

    def test_profiles_match_batch(self):
        rng = np.random.default_rng(29)
        scoring = preset("map-hifi", band_width=17, zdrop=30)
        tasks = _mixed_tasks(rng, 20, scoring=scoring)
        dense = batch_align(tasks, bucket_size=6, return_profiles=True)
        vector = vector_align(
            tasks, bucket_size=6, return_profiles=True, slice_width=5
        )
        for dp, vp in zip(dense, vector):
            _assert_same(dp.result, vp.result)
            assert np.array_equal(dp.antidiag_maxima, vp.antidiag_maxima)
            assert np.array_equal(dp.cells_per_antidiag, vp.cells_per_antidiag)

    def test_mixed_scoring_schemes_in_one_bucket(self):
        """Buckets mixing presets exercise the multi-scheme match lookup."""
        rng = np.random.default_rng(31)
        presets = ["map-ont", "map-hifi", "map-pb"]
        tasks = []
        for t in range(30):
            scoring = preset(presets[t % 3], band_width=24, zdrop=40)
            ref = random_sequence(int(rng.integers(1, 200)), rng)
            if t % 2:
                query = mutate(ref, rng, substitution_rate=0.1)
            else:
                query = random_sequence(int(rng.integers(1, 200)), rng)
            tasks.append(
                AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t)
            )
        dense = batch_align(tasks, bucket_size=32)
        vector = vector_align(tasks, bucket_size=32)
        for d, v in zip(dense, vector):
            _assert_same(d, v)

    def test_int64_fallback_for_wide_value_ranges(self):
        """Pathological gap costs overflow the int32 bound; results stay exact."""
        rng = np.random.default_rng(5)
        scoring = ScoringScheme(
            match=2,
            mismatch=4,
            gap_open=2**28,
            gap_extend=2,
            band_width=16,
            zdrop=50,
        )
        tasks = _mixed_tasks(rng, 10, scoring=scoring, max_len=100)
        dense = batch_align(tasks)
        vector = vector_align(tasks)
        for d, v in zip(dense, vector):
            _assert_same(d, v)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_tasks=st.integers(min_value=1, max_value=12),
        bucket_size=st.integers(min_value=1, max_value=12),
        slice_width=st.integers(min_value=1, max_value=40),
        band_width=st.integers(min_value=0, max_value=16),
        zdrop=st.integers(min_value=1, max_value=25),
        gap_open=st.integers(min_value=0, max_value=6),
        gap_extend=st.integers(min_value=1, max_value=3),
    )
    def test_property_vector_equals_batch(
        self, seed, n_tasks, bucket_size, slice_width, band_width, zdrop,
        gap_open, gap_extend,
    ):
        """Hypothesis: the array sweep never changes any observable output.

        Random mixed-length batches under aggressive Z-drop thresholds:
        scores, maximum cells, termination anti-diagonals and work
        counters of the vector engine equal the dense batch engine's
        (and therefore the scalar oracle's) bit for bit.
        """
        rng = np.random.default_rng(seed)
        scoring = ScoringScheme(
            match=2,
            mismatch=4,
            gap_open=gap_open,
            gap_extend=gap_extend,
            band_width=band_width,
            zdrop=zdrop,
        )
        tasks = _mixed_tasks(rng, n_tasks, scoring=scoring, max_len=80)
        dense = batch_align(tasks, bucket_size=bucket_size)
        vector = vector_align(
            tasks, bucket_size=bucket_size, slice_width=slice_width
        )
        for d, v in zip(dense, vector):
            _assert_same(d, v)


class TestVectorMechanics:
    def test_empty_task_list(self):
        assert vector_align([]) == []

    def test_empty_sequences(self):
        scoring = preset("map-ont")
        tasks = [
            AlignmentTask(ref=encode(""), query=encode("ACG"), scoring=scoring),
            AlignmentTask(ref=encode("ACGT"), query=encode(""), scoring=scoring),
            AlignmentTask(
                ref=encode("ACGTAC"), query=encode("ACGTAC"), scoring=scoring
            ),
        ]
        results = vector_align(tasks)
        assert results[0].score == 0
        assert results[0].cells_computed == 0
        assert results[1].score == 0
        for d, v in zip(batch_align(tasks), results):
            _assert_same(d, v)

    def test_rejects_non_positive_slice_width(self):
        scoring = preset("figure1")
        task = AlignmentTask(ref=encode("ACG"), query=encode("ACG"), scoring=scoring)
        with pytest.raises(ValueError, match="slice_width"):
            vector_align([task], slice_width=0)
        with pytest.raises(ValueError, match="slice_width"):
            vector_align([task], slice_width=-3)

    def test_everyone_terminates_before_second_slice(self):
        """All-divergent bucket: compaction empties it, sweep stops early."""
        rng = np.random.default_rng(31)
        scoring = preset("map-ont", band_width=16, zdrop=10)
        tasks = [
            AlignmentTask(
                ref=random_sequence(300, rng),
                query=random_sequence(300, rng),
                scoring=scoring,
                task_id=t,
            )
            for t in range(8)
        ]
        dense = batch_align(tasks)
        vector = vector_align(tasks, slice_width=8)
        for d, v in zip(dense, vector):
            _assert_same(d, v)
            assert v.terminated

    def test_engine_slice_widths_mapping(self):
        """``vector`` compacts like ``batch-sliced`` by default."""
        assert ENGINE_SLICE_WIDTHS["vector"] == DEFAULT_SLICE_WIDTH

    def test_default_bucket_size_is_larger_than_batch(self):
        from repro.align.batch import DEFAULT_BUCKET_SIZE

        assert DEFAULT_VECTOR_BUCKET_SIZE > DEFAULT_BUCKET_SIZE
