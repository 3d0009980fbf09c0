"""AGAThA's four scheduling schemes and its analytic performance model.

This package is the paper's primary contribution, reproduced as concrete,
individually-testable algorithms:

``rolling_window``
    Section 4.1 -- tracking anti-diagonal local maxima in a shared-memory
    ring buffer (LMB) with periodic max-reduce spills to the global-memory
    buffer (GMB).
``sliced_diagonal``
    Section 4.2 -- the sliced-diagonal tiling of the banded score table
    that bounds run-ahead execution to ``slice_width x band_width`` and
    shrinks the LMB, plus the horizontal-chunk traversal it generalises.
    Both compute a task's per-slice work records in one NumPy pass; the
    block-by-block ``traversal()`` is the specification they are tested
    against.
``subwarp_rejoin``
    Section 4.3 -- slice-boundary work stealing inside a warp.
``uneven_bucketing``
    Section 4.4 -- inter-warp workload balancing that deals exactly one of
    the longest tasks to each warp.
``perf_model``
    Section 4.5 / Table 1 -- the closed-form latency model for the
    baseline design and each incremental scheme.

The GPU kernels in :mod:`repro.kernels` compose these pieces; the unit
tests exercise each scheme against its specification in isolation.
"""

from repro.core.rolling_window import RollingWindowTracker, RollingWindowStats
from repro.core.sliced_diagonal import (
    SlicedDiagonalSchedule,
    HorizontalChunkSchedule,
    SliceWork,
)
from repro.core.subwarp_rejoin import (
    SubwarpRejoinSimulator,
    SubwarpTimeline,
    RejoinResult,
)
from repro.core.uneven_bucketing import (
    original_order,
    sorted_order,
    uneven_bucketing_order,
    length_bucket_order,
    assign_tasks_to_warps,
)
from repro.core.perf_model import PerformanceModel, WorkloadSummary, DesignPoint

__all__ = [
    "RollingWindowTracker",
    "RollingWindowStats",
    "SlicedDiagonalSchedule",
    "HorizontalChunkSchedule",
    "SliceWork",
    "SubwarpRejoinSimulator",
    "SubwarpTimeline",
    "RejoinResult",
    "original_order",
    "sorted_order",
    "uneven_bucketing_order",
    "length_bucket_order",
    "assign_tasks_to_warps",
    "PerformanceModel",
    "WorkloadSummary",
    "DesignPoint",
]
