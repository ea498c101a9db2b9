"""Fixtures shared by the geometry and metrics tests."""

import pytest

from planarseg import core

# Tile sizes the full-grid kernels are also checked at. On the small
# test grids, 3 and 5 pixels split each row across tiles, most with a
# short last tile, and 13 gives tiles of several whole rows on grids up
# to 6 wide, with a short last tile on odd heights.
SMALL_TILES = (3, 5, 13)


@pytest.fixture
def each_tile(monkeypatch):
    """``for _ in each_tile():`` runs its body at the default tile size,
    then once at each of ``SMALL_TILES``."""

    def sizes():
        yield core._PIXEL_TILE
        for size in SMALL_TILES:
            monkeypatch.setattr(core, "_PIXEL_TILE", size)
            yield size

    return sizes
