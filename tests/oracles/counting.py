"""Array-expansion references for the public counters in
``repro.core._counting``.

Each function is the original implementation its profile-backed
counterpart replaced; ``tests/test_access_profile.py`` requires exact
integer equality on every matrix and width.  Names match the public
counters so :func:`tests.oracles.use_oracle_counters` can swap them in
attribute for attribute.
"""

from __future__ import annotations

import numpy as np

from repro.core.access_profile import ELEMS_PER_SECTOR, AccessTotals, dense_segments
from repro.gpusim.memory import segment_sectors
from repro.sparse.csr import CSRMatrix

COUNTERS = (
    "count_b_loads",
    "count_c_stores",
    "count_tile_loads",
    "broadcast_walk_sectors",
    "unique_b_columns",
    "occupied_rows",
)


def count_b_loads(a: CSRMatrix, n: int) -> AccessTotals:
    """Array-expansion reference for ``count_b_loads``: one
    ``segment_sectors`` pass over all nonzeros per column segment."""
    segments = dense_segments(n)
    instructions = a.nnz * len(segments)
    requested = a.nnz * n * 4
    if n % ELEMS_PER_SECTOR == 0:
        sectors = a.nnz * sum((length + 7) // 8 for _, length in segments)
    else:
        base = a.colind64() * np.int64(n)
        sectors = 0
        for start, length in segments:
            sectors += int(segment_sectors(base + start, np.int64(length)).sum())
    return AccessTotals(int(instructions), int(sectors), int(requested))


def count_c_stores(a: CSRMatrix, n: int) -> AccessTotals:
    """Array-expansion reference for ``count_c_stores``."""
    m = a.nrows
    segments = dense_segments(n)
    instructions = m * len(segments)
    requested = m * n * 4
    if n % ELEMS_PER_SECTOR == 0:
        sectors = m * sum((length + 7) // 8 for _, length in segments)
    else:
        base = np.arange(m, dtype=np.int64) * n
        sectors = 0
        for start, length in segments:
            sectors += int(segment_sectors(base + start, np.int64(length)).sum())
    return AccessTotals(int(instructions), int(sectors), int(requested))


def count_tile_loads(a: CSRMatrix, tile: int = 32) -> AccessTotals:
    """Array-expansion reference for ``count_tile_loads``: one entry per
    tile, valid for any ``tile >= 1``."""
    lengths = a.row_lengths()
    n_tiles = (lengths + tile - 1) // tile
    total_tiles = int(n_tiles.sum())
    if total_tiles == 0:
        return AccessTotals(0, 0, 0)
    # Expand one entry per tile: row starts repeated, tile index within row.
    row_of_tile = np.repeat(np.arange(a.nrows, dtype=np.int64), n_tiles)
    tile_idx = np.arange(total_tiles, dtype=np.int64) - np.repeat(
        np.cumsum(n_tiles) - n_tiles, n_tiles
    )
    starts = a.rowptr64()[:-1][row_of_tile] + tile_idx * tile
    lens = np.minimum(tile, lengths[row_of_tile] - tile_idx * tile)
    sectors = int(segment_sectors(starts, lens).sum())
    requested = int(lens.sum()) * 4
    return AccessTotals(total_tiles, sectors, requested)


def broadcast_walk_sectors(a: CSRMatrix) -> int:
    """Array-expansion reference for ``broadcast_walk_sectors``."""
    lengths = a.row_lengths()
    starts = a.rowptr64()[:-1]
    return int(segment_sectors(starts, lengths).sum())


def unique_b_columns(a: CSRMatrix) -> int:
    """Array-expansion reference for ``unique_b_columns``."""
    if a.nnz == 0:
        return 0
    return int(np.unique(a.colind).size)


def occupied_rows(a: CSRMatrix) -> int:
    """Array-expansion reference for ``occupied_rows``."""
    return int((a.row_lengths() > 0).sum())
