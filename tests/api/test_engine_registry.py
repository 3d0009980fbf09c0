"""Engine-registry behaviour of the built-in ``vector`` engine.

NumPy is a base dependency, so ``vector`` registers like any other
engine and flows through every name-keyed entry point.
"""

import numpy as np
import pytest

from repro.align.scoring import preset
from repro.align.sequence import mutate, random_sequence
from repro.align.types import AlignmentTask
from repro.api import align_tasks, engine_names, get_engine


def _tasks(n=12, seed=3):
    rng = np.random.default_rng(seed)
    scoring = preset("map-ont", band_width=32, zdrop=60)
    tasks = []
    for t in range(n):
        ref = random_sequence(int(rng.integers(10, 200)), rng)
        query = (
            mutate(ref, rng, substitution_rate=0.05)
            if t % 2
            else random_sequence(int(rng.integers(10, 200)), rng)
        )
        tasks.append(AlignmentTask(ref=ref, query=query, scoring=scoring, task_id=t))
    return tasks


class TestVectorRegistered:
    """vector is a peer engine of the registry."""

    def test_vector_is_registered(self):
        assert "vector" in engine_names()

    def test_vector_scores_match_batch(self):
        tasks = _tasks()
        assert align_tasks(tasks, engine="vector") == align_tasks(
            tasks, engine="batch"
        )

    def test_unknown_engine_error_lists_names(self):
        with pytest.raises(KeyError, match="warp-9"):
            get_engine("warp-9")
