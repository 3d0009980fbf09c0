"""Sliced-diagonal tiling and the horizontal-chunk baseline traversal.

Both traversals cover the same set of in-band 8x8 blocks; they differ in
*order*, and order is what determines

* how soon an anti-diagonal becomes complete (and the termination
  condition may be evaluated on it) -- the **run-ahead** problem;
* how large the rolling window (LMB) must be;
* how often intermediate values must round-trip through global memory.

:class:`HorizontalChunkSchedule` is the baseline design of Section 2.2 /
Figure 2(b): a *chunk* is ``threads_per_subwarp`` block rows swept
horizontally from the first to the last in-band block column; the next
chunk starts only after the previous one has crossed the whole band.
Anti-diagonals only complete long after their first cells were computed
(about ``band_width / 2`` query rows later), so when the Z-drop condition
finally becomes checkable, a region of roughly ``band_width^2 / 2`` cells
has already been computed beyond the termination point.

:class:`SlicedDiagonalSchedule` is AGAThA's tiling (Section 4.2 /
Figure 5): the band is cut into *slices* of ``slice_width`` block
anti-diagonals; a slice is processed chunk by chunk (each chunk again
``threads_per_subwarp`` block rows, each thread walking the blocks of its
row inside the slice), and the termination condition is evaluated at every
slice boundary, bounding run-ahead to ``slice_width * block_size``
anti-diagonals (``slice_width x band_width`` cells).  When ``slice_width``
is at least the band width in blocks the sliced schedule degenerates into
the baseline -- the generalisation the paper points out.

Both schedules compute their work records per task in one NumPy pass
over the grid's per-row block-column ranges
(:attr:`~repro.align.blocks.BlockGrid.in_band_col_ranges`): each block
row touches a short run of consecutive slices, so the slice table is a
reduction over (slice, row) pairs, never a slices x rows matrix.
:meth:`SlicedDiagonalSchedule.traversal` walks the same schedule block by
block and is its specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

from repro.align.blocks import BlockGrid

__all__ = [
    "slice_ranges",
    "SliceWork",
    "SlicedDiagonalSchedule",
    "HorizontalChunkSchedule",
]


def slice_ranges(total: int, slice_width: int) -> List[Tuple[int, int]]:
    """Half-open ``[lo, hi)`` anti-diagonal ranges of every slice.

    The slice geometry shared by the consumers of sliced-diagonal
    tiling: :class:`SlicedDiagonalSchedule` cuts *block* anti-diagonals
    into slices of ``slice_width`` for the GPU-side simulator, and the
    alignment engines (:func:`repro.align.vector.vector_align`, the
    default, and :func:`repro.align.batch.batch_align` with
    ``slice_width=``) cut *cell* anti-diagonals the same way, compacting
    terminated tasks out of their buffers at every boundary.  ``total`` is
    the number of anti-diagonals to cover; the last slice may be short.
    """
    if slice_width <= 0:
        raise ValueError("slice_width must be positive")
    if total <= 0:
        return []
    return [
        (lo, min(lo + slice_width, total)) for lo in range(0, total, slice_width)
    ]


def _run_sums(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Sums along the last axis of ``values`` over consecutive runs of
    the given lengths (0 for an empty run)."""
    prefix = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,), dtype=np.int64)
    values.cumsum(axis=-1, out=prefix[..., 1:])
    ends = lengths.cumsum()
    return prefix[..., ends] - prefix[..., ends - lengths]


@dataclass(frozen=True)
class SliceWork:
    """Aggregate work of one slice (or one baseline chunk pass)."""

    slice_index: int
    blocks: int
    steps: int
    idle_block_slots: int
    chunks: int
    completed_cell_antidiagonals: int


class SlicedDiagonalSchedule:
    """AGAThA's sliced-diagonal traversal of the banded block grid.

    Parameters
    ----------
    grid:
        Block-level view of the task's band geometry.
    slice_width:
        Slice width ``s`` in block anti-diagonals (the paper settles on 3).
    threads_per_subwarp:
        Threads processing the task (one block row each per chunk).
    """

    def __init__(self, grid: BlockGrid, slice_width: int, threads_per_subwarp: int):
        if slice_width <= 0:
            raise ValueError("slice_width must be positive")
        if threads_per_subwarp <= 0:
            raise ValueError("threads_per_subwarp must be positive")
        self.grid = grid
        self.slice_width = int(slice_width)
        self.threads = int(threads_per_subwarp)

    # ------------------------------------------------------------------
    @property
    def num_slices(self) -> int:
        """Slices needed to cover every block anti-diagonal."""
        total = self.grid.num_block_antidiagonals
        if total == 0:
            return 0
        return -(-total // self.slice_width)

    def slice_block_antidiag_range(self, slice_index: int) -> tuple[int, int]:
        """Half-open block anti-diagonal range ``[lo, hi)`` of a slice.

        Same geometry as :func:`slice_ranges`, as per-index arithmetic for
        :meth:`traversal`, which walks the slices one at a time.
        """
        lo = slice_index * self.slice_width
        hi = min(lo + self.slice_width, self.grid.num_block_antidiagonals)
        return lo, hi

    # ------------------------------------------------------------------
    def _slice_table(self, count: int) -> List[SliceWork]:
        """Work records of the first ``count`` slices, in one pass.

        In-band row ``bj`` with columns ``[c_lo, c_hi]`` covers block
        anti-diagonals ``[c_lo + bj, c_hi + bj]``.  Both ends grow
        strictly with the row, so the rows meeting slice ``k``'s range
        ``[k * s, (k + 1) * s)`` are one contiguous run, found by binary
        search.  Expanding the runs gives one (slice, row) pair per row
        and slice it touches, in (slice, row) order, with the row's block
        count there in closed form; a row's rank within its slice names
        its chunk (``rank // threads``).  The pairs number at most
        ``rows * (band blocks // s + 2)``: no slices x rows matrix.
        """
        s = self.slice_width
        ranges = self.grid.in_band_col_ranges
        rows = np.flatnonzero(ranges[:, 0] <= ranges[:, 1])
        a_lo = ranges[rows, 0] + rows
        a_hi = ranges[rows, 1] + rows

        slice_lo = np.arange(count) * s
        first_row = np.searchsorted(a_hi, slice_lo)
        rows_per_slice = np.searchsorted(a_lo, slice_lo + s) - first_row
        pair_lo = np.repeat(slice_lo, rows_per_slice)
        rank = np.arange(pair_lo.size) - np.repeat(
            np.cumsum(rows_per_slice) - rows_per_slice, rows_per_slice
        )
        pair_row = np.repeat(first_row, rows_per_slice) + rank
        pair_blocks = (
            np.minimum(a_hi[pair_row], pair_lo + s - 1) - np.maximum(a_lo[pair_row], pair_lo) + 1
        )

        chunk_start = np.flatnonzero(rank % self.threads == 0)
        chunk_rows = np.concatenate((chunk_start[1:], [pair_lo.size])) - chunk_start
        chunk_steps = np.maximum.reduceat(pair_blocks, chunk_start)
        chunk_blocks = np.add.reduceat(pair_blocks, chunk_start)
        chunks = -(-rows_per_slice // self.threads)
        blocks, steps, slots = _run_sums(
            np.stack((chunk_blocks, chunk_steps, chunk_steps * chunk_rows)), chunks
        )
        total = self.grid.num_block_antidiagonals
        table = np.stack((blocks, steps, slots - blocks, chunks), axis=1).tolist()
        return [
            SliceWork(
                slice_index=k,
                blocks=slice_blocks,
                steps=slice_steps,
                idle_block_slots=slice_idle,
                chunks=slice_chunks,
                completed_cell_antidiagonals=self.grid.cell_antidiags_completed_by(
                    min((k + 1) * s, total) - 1
                ),
            )
            for k, (slice_blocks, slice_steps, slice_idle, slice_chunks) in enumerate(table)
        ]

    def all_slices(self) -> List[SliceWork]:
        """Work records of every slice of the full band."""
        return self._slice_table(self.num_slices)

    # ------------------------------------------------------------------
    def traversal(self) -> Iterator[tuple[int, int, int, int, tuple[int, int]]]:
        """Yield ``(slice, chunk, step, thread, (bi, bj))`` visit events.

        The block-by-block specification of the slice table: the
        structural tests check on small grids that the union of visited
        blocks equals the in-band block set, with no block visited twice,
        and that the slice records aggregate these events.
        """
        ranges = self.grid.in_band_col_ranges.tolist()
        for s in range(self.num_slices):
            lo, hi = self.slice_block_antidiag_range(s)
            rows: dict[int, List[int]] = {}
            for bj, (c_lo, c_hi) in enumerate(ranges):
                cols = [bi for bi in range(c_lo, c_hi + 1) if lo <= bi + bj < hi]
                if cols:
                    rows[bj] = cols
            row_ids = sorted(rows)
            for chunk_idx, k in enumerate(range(0, len(row_ids), self.threads)):
                group = row_ids[k : k + self.threads]
                max_steps = max(len(rows[bj]) for bj in group)
                for step in range(max_steps):
                    for thread, bj in enumerate(group):
                        cols = rows[bj]
                        if step < len(cols):
                            yield (s, chunk_idx, step, thread, (cols[step], bj))

    # ------------------------------------------------------------------
    def slices_needed_for_antidiagonals(self, cell_antidiagonals: int) -> int:
        """Slices that must complete before the first ``cell_antidiagonals``
        anti-diagonals are all complete (i.e. before termination at that
        point becomes observable)."""
        if cell_antidiagonals <= 0:
            return 0
        required_block_antidiag = self.grid.block_antidiag_required_for(cell_antidiagonals)
        return min(self.num_slices, required_block_antidiag // self.slice_width + 1)

    def work_until_termination(self, cell_antidiagonals: int) -> List[SliceWork]:
        """Slice records actually processed when termination ideally fires
        after ``cell_antidiagonals`` anti-diagonals (0 means "never")."""
        if cell_antidiagonals <= 0:
            return self.all_slices()
        return self._slice_table(self.slices_needed_for_antidiagonals(cell_antidiagonals))


class HorizontalChunkSchedule:
    """Baseline horizontal-chunk traversal (Section 2.2, Figure 2b).

    The interface mirrors :class:`SlicedDiagonalSchedule` so the kernels
    can treat either uniformly: each "slice" here is one horizontal chunk
    pass of ``threads_per_subwarp`` block rows across the whole band.
    """

    def __init__(self, grid: BlockGrid, threads_per_subwarp: int):
        if threads_per_subwarp <= 0:
            raise ValueError("threads_per_subwarp must be positive")
        self.grid = grid
        self.threads = int(threads_per_subwarp)

    @property
    def num_chunk_passes(self) -> int:
        """Chunk passes needed to cover every block row."""
        if self.grid.num_block_rows == 0:
            return 0
        return -(-self.grid.num_block_rows // self.threads)

    def _pass_table(self, start: int, stop: int) -> List[SliceWork]:
        """Work records of chunk passes ``start .. stop - 1``, reduced over
        the grid's per-row block counts in one pass."""
        per_row = self.grid.blocks_per_row[start * self.threads : stop * self.threads]
        starts = np.arange(0, per_row.size, self.threads)
        if starts.size == 0:
            return []
        blocks = np.add.reduceat(per_row, starts)
        steps = np.maximum.reduceat(per_row, starts)
        idle = steps * (np.concatenate((starts[1:], [per_row.size])) - starts) - blocks
        geometry = self.grid.geometry
        pass_rows = self.threads * self.grid.block_size
        rows_done = [
            min(geometry.query_len, (k + 1) * pass_rows) for k in range(start, start + starts.size)
        ]
        table = zip(blocks.tolist(), steps.tolist(), idle.tolist(), rows_done)
        return [
            SliceWork(
                slice_index=k,
                blocks=pass_blocks,
                steps=pass_steps,
                idle_block_slots=pass_idle,
                chunks=1,
                completed_cell_antidiagonals=geometry.completed_antidiagonals_after_rows(done),
            )
            for k, (pass_blocks, pass_steps, pass_idle, done) in enumerate(table, start)
        ]

    def chunk_pass_work(self, pass_index: int) -> SliceWork:
        """Aggregate work of one chunk pass (full band width)."""
        return self._pass_table(pass_index, pass_index + 1)[0]

    def all_slices(self) -> List[SliceWork]:
        """Work records of every chunk pass."""
        return self._pass_table(0, self.num_chunk_passes)

    def passes_needed_for_antidiagonals(self, cell_antidiagonals: int) -> int:
        """Chunk passes before the first ``cell_antidiagonals`` complete."""
        if cell_antidiagonals <= 0:
            return 0
        rows_needed = self.grid.geometry.rows_needed_for_antidiagonals(cell_antidiagonals)
        block_rows_needed = -(-rows_needed // self.grid.block_size)
        return min(self.num_chunk_passes, -(-block_rows_needed // self.threads))

    def work_until_termination(self, cell_antidiagonals: int) -> List[SliceWork]:
        """Chunk passes actually processed under chunk-granular termination."""
        if cell_antidiagonals <= 0:
            return self.all_slices()
        return self._pass_table(0, self.passes_needed_for_antidiagonals(cell_antidiagonals))
