"""Block decomposition of the banded score table.

Because sequences are packed 8 literals per 32-bit word
(:mod:`repro.align.packing`), GPU kernels organise the score table into
8x8-cell *blocks* -- the smallest unit of workload distribution
(paper Figure 2a).  :class:`BlockGrid` provides the block-level view of a
:class:`~repro.align.banding.BandGeometry` that every kernel simulation
relies on:

* which blocks intersect the band and how many there are (workload size,
  the Y-axis of Figures 3(b) and 12);
* blocks grouped by their *block anti-diagonal* ``a = bi + bj``, the
  granularity at which the sliced-diagonal scheme advances;
* the translation between block anti-diagonals and completed cell
  anti-diagonals, which determines where the termination condition can
  legally be evaluated (the run-ahead bookkeeping).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.align.banding import BandGeometry

__all__ = ["BlockGrid", "DEFAULT_BLOCK_SIZE"]

#: Cells per block edge; 8 matches the 8-literals-per-word input packing.
DEFAULT_BLOCK_SIZE: int = 8


class BlockGrid:
    """Block-level view of a banded score table.

    Parameters
    ----------
    geometry:
        The cell-level band geometry.
    block_size:
        Cells per block edge (8 by default).
    """

    def __init__(self, geometry: BandGeometry, block_size: int = DEFAULT_BLOCK_SIZE):
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        self.geometry = geometry
        self.block_size = int(block_size)

    # ------------------------------------------------------------------
    # grid dimensions
    # ------------------------------------------------------------------
    @property
    def num_block_cols(self) -> int:
        """Blocks along the reference axis."""
        return -(-self.geometry.ref_len // self.block_size) if self.geometry.ref_len else 0

    @property
    def num_block_rows(self) -> int:
        """Blocks along the query axis."""
        return -(-self.geometry.query_len // self.block_size) if self.geometry.query_len else 0

    @property
    def num_block_antidiagonals(self) -> int:
        """Number of block anti-diagonals (``bi + bj`` values)."""
        if self.num_block_cols == 0 or self.num_block_rows == 0:
            return 0
        return self.num_block_cols + self.num_block_rows - 1

    @property
    def band_rows_in_blocks(self) -> int:
        """Width of the band measured in block rows.

        This is the number of block rows a diagonal cross-section of the
        band spans -- the quantity that determines how many chunks (of
        ``threads_per_subwarp`` block rows each) a slice is split into.
        """
        if self.num_block_rows == 0:
            return 0
        if not self.geometry.band_width:
            return self.num_block_rows
        # A band of w diagonals crosses at most ceil(w / B) + 1 block rows.
        return min(
            self.num_block_rows,
            -(-self.geometry.band_width // self.block_size) + 1,
        )

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def block_cell_ranges(self, bi: int, bj: int) -> tuple[int, int, int, int]:
        """Cell ranges ``(i_lo, i_hi, j_lo, j_hi)`` (inclusive) of block
        ``(bi, bj)``, clipped to the table."""
        i_lo = bi * self.block_size
        j_lo = bj * self.block_size
        i_hi = min(self.geometry.ref_len - 1, i_lo + self.block_size - 1)
        j_hi = min(self.geometry.query_len - 1, j_lo + self.block_size - 1)
        return i_lo, i_hi, j_lo, j_hi

    def block_in_band(self, bi: int, bj: int) -> bool:
        """Whether block ``(bi, bj)`` contains at least one in-band cell.

        A block intersects the band iff its diagonal interval
        ``[i_lo - j_hi, i_hi - j_lo]`` overlaps the band's diagonal range.
        """
        if not (0 <= bi < self.num_block_cols and 0 <= bj < self.num_block_rows):
            return False
        i_lo, i_hi, j_lo, j_hi = self.block_cell_ranges(bi, bj)
        if i_lo > i_hi or j_lo > j_hi:
            return False
        d_min = i_lo - j_hi
        d_max = i_hi - j_lo
        return d_min <= self.geometry.diag_hi and d_max >= self.geometry.diag_lo

    def in_band_block_cols(self, bj: int) -> tuple[int, int]:
        """Inclusive range of in-band block columns on block row ``bj``
        (empty range when none)."""
        if not 0 <= bj < self.num_block_rows:
            return (0, -1)
        j_lo = bj * self.block_size
        j_hi = min(self.geometry.query_len - 1, j_lo + self.block_size - 1)
        # Cells in these rows span reference columns [j_lo + diag_lo, j_hi + diag_hi].
        i_lo = max(0, j_lo + self.geometry.diag_lo)
        i_hi = min(self.geometry.ref_len - 1, j_hi + self.geometry.diag_hi)
        if i_lo > i_hi:
            return (0, -1)
        return (i_lo // self.block_size, i_hi // self.block_size)

    @cached_property
    def in_band_col_ranges(self) -> np.ndarray:
        """Inclusive in-band block-column range of every block row.

        An ``int64`` array of shape ``(num_block_rows, 2)`` holding
        ``(c_lo, c_hi)`` per row, ``(0, -1)`` on rows with no in-band
        block: :meth:`in_band_block_cols` for all rows at once, the one
        source the aggregate counts and both traversal schedules read.
        """
        bj = np.arange(self.num_block_rows, dtype=np.int64)
        j_lo = bj * self.block_size
        j_hi = np.minimum(self.geometry.query_len - 1, j_lo + self.block_size - 1)
        i_lo = np.maximum(0, j_lo + self.geometry.diag_lo)
        i_hi = np.minimum(self.geometry.ref_len - 1, j_hi + self.geometry.diag_hi)
        empty = i_lo > i_hi
        ranges = np.empty((self.num_block_rows, 2), dtype=np.int64)
        ranges[:, 0] = np.where(empty, 0, i_lo // self.block_size)
        ranges[:, 1] = np.where(empty, -1, i_hi // self.block_size)
        return ranges

    # ------------------------------------------------------------------
    # aggregate counts
    # ------------------------------------------------------------------
    @cached_property
    def blocks_per_row(self) -> np.ndarray:
        """In-band block count per block row (``int64``)."""
        ranges = self.in_band_col_ranges
        return ranges[:, 1] - ranges[:, 0] + 1

    @property
    def total_in_band_blocks(self) -> int:
        """Total number of blocks intersecting the band."""
        if self.num_block_rows == 0:
            return 0
        return int(self.blocks_per_row.sum())

    @cached_property
    def blocks_per_block_antidiagonal(self) -> np.ndarray:
        """In-band block count per block anti-diagonal ``a = bi + bj``.

        Row ``bj`` adds one block to each anti-diagonal of
        ``[c_lo + bj, c_hi + bj]``: a difference array over those runs.
        """
        total = self.num_block_antidiagonals
        ranges = self.in_band_col_ranges
        rows = np.flatnonzero(ranges[:, 0] <= ranges[:, 1])
        starts = np.bincount(ranges[rows, 0] + rows, minlength=total + 1)
        ends = np.bincount(ranges[rows, 1] + rows + 1, minlength=total + 1)
        return np.cumsum(starts - ends)[:total]

    # ------------------------------------------------------------------
    # completion bookkeeping
    # ------------------------------------------------------------------
    def cell_antidiags_completed_by(self, block_antidiag: int) -> int:
        """Number of leading cell anti-diagonals guaranteed complete once
        every in-band block with block anti-diagonal ``<= block_antidiag``
        has been computed.

        A cell on anti-diagonal ``c`` can live in a block whose block
        anti-diagonal is at most ``floor(c / B)``, so completing block
        anti-diagonals ``<= a`` completes cell anti-diagonals
        ``c <= (a + 1) * B - 1``.
        """
        if block_antidiag < 0:
            return 0
        completed = (block_antidiag + 1) * self.block_size
        return min(completed, self.geometry.num_antidiagonals)

    def block_antidiag_required_for(self, cell_antidiags: int) -> int:
        """Smallest block anti-diagonal whose completion covers the first
        ``cell_antidiags`` cell anti-diagonals (inverse of
        :meth:`cell_antidiags_completed_by`)."""
        if cell_antidiags <= 0:
            return -1
        last_cell_antidiag = min(cell_antidiags, self.geometry.num_antidiagonals) - 1
        return last_cell_antidiag // self.block_size

    def blocks_up_to_block_antidiag(self, block_antidiag: int) -> int:
        """In-band blocks on block anti-diagonals ``<= block_antidiag``."""
        if block_antidiag < 0 or self.num_block_antidiagonals == 0:
            return 0
        a = min(block_antidiag, self.num_block_antidiagonals - 1)
        return int(self.blocks_per_block_antidiagonal[: a + 1].sum())

    def blocks_in_block_rows(self, bj_lo: int, bj_hi: int) -> int:
        """In-band blocks over block rows ``bj_lo .. bj_hi`` inclusive."""
        bj_lo = max(0, bj_lo)
        bj_hi = min(self.num_block_rows - 1, bj_hi)
        if bj_lo > bj_hi:
            return 0
        return int(self.blocks_per_row[bj_lo : bj_hi + 1].sum())

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"BlockGrid({self.num_block_cols}x{self.num_block_rows} blocks, "
            f"block_size={self.block_size}, in_band={self.total_in_band_blocks})"
        )
