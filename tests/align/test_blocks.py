"""Tests for the block decomposition of the banded table."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.banding import BandGeometry
from repro.align.blocks import BlockGrid


def brute_force_in_band_blocks(grid: BlockGrid):
    """In-band blocks found by checking every cell."""
    geom = grid.geometry
    blocks = set()
    for i in range(geom.ref_len):
        for j in range(geom.query_len):
            if geom.in_band(i, j):
                blocks.add((i // grid.block_size, j // grid.block_size))
    return blocks


class TestMembership:
    @given(
        n=st.integers(1, 60),
        m=st.integers(1, 60),
        w=st.integers(0, 21),
        b=st.sampled_from([4, 8]),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_in_band_matches_brute_force(self, n, m, w, b):
        grid = BlockGrid(BandGeometry(n, m, w), b)
        expected = brute_force_in_band_blocks(grid)
        actual = {
            (bi, bj)
            for bj in range(grid.num_block_rows)
            for bi in range(grid.num_block_cols)
            if grid.block_in_band(bi, bj)
        }
        assert actual == expected
        assert grid.in_band_col_ranges.tolist() == [
            list(grid.in_band_block_cols(bj)) for bj in range(grid.num_block_rows)
        ]
        per_antidiag = [0] * grid.num_block_antidiagonals
        for bi, bj in expected:
            per_antidiag[bi + bj] += 1
        assert grid.blocks_per_block_antidiagonal.tolist() == per_antidiag

    def test_in_band_block_cols_consistent(self):
        grid = BlockGrid(BandGeometry(100, 90, 17), 8)
        expected = brute_force_in_band_blocks(grid)
        for bj in range(grid.num_block_rows):
            lo, hi = grid.in_band_block_cols(bj)
            cols = {bi for (bi, row) in expected if row == bj}
            if cols:
                assert (lo, hi) == (min(cols), max(cols))
            else:
                assert lo > hi

    def test_counts_match(self):
        grid = BlockGrid(BandGeometry(100, 90, 17), 8)
        assert grid.total_in_band_blocks == len(brute_force_in_band_blocks(grid))
        assert grid.blocks_per_block_antidiagonal.sum() == grid.total_in_band_blocks


class TestCompletion:
    def test_cell_antidiags_completed(self):
        grid = BlockGrid(BandGeometry(64, 64, 9), 8)
        assert grid.cell_antidiags_completed_by(-1) == 0
        assert grid.cell_antidiags_completed_by(0) == 8
        assert (
            grid.cell_antidiags_completed_by(10_000)
            == grid.geometry.num_antidiagonals
        )

    def test_inverse_relation(self):
        grid = BlockGrid(BandGeometry(64, 64, 9), 8)
        for cells in (1, 8, 9, 33, 120):
            a = grid.block_antidiag_required_for(cells)
            assert grid.cell_antidiags_completed_by(a) >= min(
                cells, grid.geometry.num_antidiagonals
            )
            if a > 0:
                assert grid.cell_antidiags_completed_by(a - 1) < cells

    def test_blocks_up_to_block_antidiag_monotone(self):
        grid = BlockGrid(BandGeometry(80, 70, 15), 8)
        counts = [
            grid.blocks_up_to_block_antidiag(a)
            for a in range(grid.num_block_antidiagonals)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == grid.total_in_band_blocks

    def test_blocks_in_block_rows(self):
        grid = BlockGrid(BandGeometry(80, 70, 15), 8)
        total = grid.blocks_in_block_rows(0, grid.num_block_rows - 1)
        assert total == grid.total_in_band_blocks
        assert grid.blocks_in_block_rows(3, 2) == 0


class TestValidation:
    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            BlockGrid(BandGeometry(8, 8, 3), 0)

    def test_band_rows_in_blocks(self):
        grid = BlockGrid(BandGeometry(200, 200, 16), 8)
        assert grid.band_rows_in_blocks == 3
        unbanded = BlockGrid(BandGeometry(64, 64, 0), 8)
        assert unbanded.band_rows_in_blocks == unbanded.num_block_rows
