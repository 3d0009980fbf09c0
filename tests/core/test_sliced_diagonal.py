"""Tests for the sliced-diagonal and horizontal-chunk traversals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banding import BandGeometry
from repro.align.blocks import BlockGrid
from repro.core.sliced_diagonal import (
    HorizontalChunkSchedule,
    SlicedDiagonalSchedule,
    SliceWork,
)


def in_band_blocks(grid):
    out = set()
    for bj in range(grid.num_block_rows):
        lo, hi = grid.in_band_block_cols(bj)
        for bi in range(lo, hi + 1):
            out.add((bi, bj))
    return out


def slices_from_traversal(sched):
    """Slice records aggregated from the traversal's visit events."""
    chunk_steps = {}  # (slice, chunk) -> steps taken
    chunk_threads = {}  # (slice, chunk) -> threads with a row
    blocks = [0] * sched.num_slices
    for s, chunk, step, thread, _ in sched.traversal():
        blocks[s] += 1
        chunk_steps[s, chunk] = max(chunk_steps.get((s, chunk), 0), step + 1)
        chunk_threads[s, chunk] = max(chunk_threads.get((s, chunk), 0), thread + 1)
    records = []
    for s in range(sched.num_slices):
        chunks = [key for key in chunk_steps if key[0] == s]
        steps = sum(chunk_steps[key] for key in chunks)
        slots = sum(chunk_steps[key] * chunk_threads[key] for key in chunks)
        _, hi = sched.slice_block_antidiag_range(s)
        records.append(
            SliceWork(
                slice_index=s,
                blocks=blocks[s],
                steps=steps,
                idle_block_slots=slots - blocks[s],
                chunks=len(chunks),
                completed_cell_antidiagonals=sched.grid.cell_antidiags_completed_by(hi - 1),
            )
        )
    return records


def chunk_passes_brute_force(sched):
    """Chunk-pass records from a per-row scan of ``in_band_block_cols``."""
    grid = sched.grid
    records = []
    for k in range(sched.num_chunk_passes):
        rows = range(k * sched.threads, min(grid.num_block_rows, (k + 1) * sched.threads))
        per_row = []
        for bj in rows:
            lo, hi = grid.in_band_block_cols(bj)
            per_row.append(max(0, hi - lo + 1))
        rows_done = min(grid.geometry.query_len, rows[-1] * grid.block_size + grid.block_size)
        records.append(
            SliceWork(
                slice_index=k,
                blocks=sum(per_row),
                steps=max(per_row),
                idle_block_slots=max(per_row) * len(per_row) - sum(per_row),
                chunks=1,
                completed_cell_antidiagonals=grid.geometry.completed_antidiagonals_after_rows(
                    rows_done
                ),
            )
        )
    return records


# Geometries for the slice-table properties: band widths 0 (unbanded) to
# 40, block sizes 1-8, and empty tables (a zero-length sequence).
lengths = st.one_of(st.just(0), st.integers(1, 70))
grids = st.builds(
    lambda n, m, w, b: BlockGrid(BandGeometry(n, m, w), b),
    lengths,
    lengths,
    st.integers(0, 40),
    st.integers(1, 8),
)


class TestSlicedDiagonalCoverage:
    @given(
        n=st.integers(10, 150),
        m=st.integers(10, 150),
        w=st.integers(0, 33),
        s=st.integers(1, 6),
        threads=st.sampled_from([2, 4, 8]),
    )
    @settings(max_examples=25, deadline=None)
    def test_every_block_visited_exactly_once(self, n, m, w, s, threads):
        grid = BlockGrid(BandGeometry(n, m, w), 8)
        sched = SlicedDiagonalSchedule(grid, s, threads)
        visits = {}
        for (_, _, _, _, block) in sched.traversal():
            visits[block] = visits.get(block, 0) + 1
        assert set(visits) == in_band_blocks(grid)
        assert all(count == 1 for count in visits.values())

    def test_block_totals_match_grid(self):
        grid = BlockGrid(BandGeometry(160, 150, 33), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        assert sum(sl.blocks for sl in sched.all_slices()) == grid.total_in_band_blocks

    def test_slice_width_validation(self):
        grid = BlockGrid(BandGeometry(16, 16, 5), 8)
        with pytest.raises(ValueError):
            SlicedDiagonalSchedule(grid, 0, 4)
        with pytest.raises(ValueError):
            SlicedDiagonalSchedule(grid, 3, 0)


class TestSlicedDiagonalTermination:
    def test_runahead_bounded_by_slice(self):
        grid = BlockGrid(BandGeometry(400, 390, 49), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        target = 200
        slices = sched.work_until_termination(target)
        completed = slices[-1].completed_cell_antidiagonals
        assert completed >= target
        # Run-ahead never exceeds one slice worth of anti-diagonals.
        assert completed - target < sched.slice_width * grid.block_size + grid.block_size

    def test_more_antidiagonals_need_more_slices(self):
        grid = BlockGrid(BandGeometry(400, 390, 49), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 8)
        needed = [sched.slices_needed_for_antidiagonals(a) for a in (1, 100, 400, 700)]
        assert needed == sorted(needed)

    def test_zero_target_means_full_table(self):
        grid = BlockGrid(BandGeometry(100, 100, 17), 8)
        sched = SlicedDiagonalSchedule(grid, 3, 4)
        assert len(sched.work_until_termination(0)) == sched.num_slices


class TestSliceTable:
    """The slice records equal aggregates of the block-by-block traversal."""

    @given(grid=grids, threads=st.integers(1, 32), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_records_match_traversal(self, grid, threads, data):
        slice_width = data.draw(st.integers(1, grid.num_block_antidiagonals + 2))
        target = data.draw(st.integers(0, grid.geometry.num_antidiagonals + 3))
        sched = SlicedDiagonalSchedule(grid, slice_width, threads)
        expected = slices_from_traversal(sched)
        assert sched.all_slices() == expected
        needed = (
            sched.num_slices if target <= 0 else sched.slices_needed_for_antidiagonals(target)
        )
        assert sched.work_until_termination(target) == expected[:needed]

    @given(grid=grids, threads=st.integers(1, 32), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunk_passes_match_brute_force(self, grid, threads, data):
        target = data.draw(st.integers(0, grid.geometry.num_antidiagonals + 3))
        sched = HorizontalChunkSchedule(grid, threads)
        expected = chunk_passes_brute_force(sched)
        assert sched.all_slices() == expected
        assert [sched.chunk_pass_work(k) for k in range(sched.num_chunk_passes)] == expected
        needed = (
            sched.num_chunk_passes
            if target <= 0
            else sched.passes_needed_for_antidiagonals(target)
        )
        assert sched.work_until_termination(target) == expected[:needed]


class TestHorizontalChunkSchedule:
    def test_block_totals_match_grid(self):
        grid = BlockGrid(BandGeometry(160, 150, 33), 8)
        sched = HorizontalChunkSchedule(grid, 8)
        assert sum(sl.blocks for sl in sched.all_slices()) == grid.total_in_band_blocks

    def test_runahead_larger_than_sliced_diagonal(self):
        """The baseline traversal computes strictly more cells before the
        termination point becomes checkable (the Section 4.2 claim)."""
        grid = BlockGrid(BandGeometry(500, 480, 65), 8)
        chunked = HorizontalChunkSchedule(grid, 8)
        sliced = SlicedDiagonalSchedule(grid, 3, 8)
        target = 300
        chunk_blocks = sum(s.blocks for s in chunked.work_until_termination(target))
        slice_blocks = sum(s.blocks for s in sliced.work_until_termination(target))
        assert chunk_blocks > slice_blocks

    def test_completion_semantics(self):
        grid = BlockGrid(BandGeometry(200, 180, 33), 8)
        sched = HorizontalChunkSchedule(grid, 4)
        target = 150
        passes = sched.passes_needed_for_antidiagonals(target)
        work = sched.work_until_termination(target)
        assert len(work) == passes
        assert work[-1].completed_cell_antidiagonals >= target

    def test_sliced_with_huge_slice_equals_baseline_cells(self):
        """With a slice wider than the whole band the sliced-diagonal kernel
        degenerates to the baseline (the generalisation the paper notes)."""
        grid = BlockGrid(BandGeometry(300, 280, 33), 8)
        huge = SlicedDiagonalSchedule(grid, grid.num_block_antidiagonals, 8)
        assert huge.num_slices == 1
        blocks = sum(s.blocks for s in huge.work_until_termination(100))
        assert blocks == grid.total_in_band_blocks
