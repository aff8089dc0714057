"""Hexagonal double-strip geometry: cells, tile classes, tiles and tilings.

The strip has n cells numbered 1..n; odd cells form the lower row, even cells
the upper row.  Two cells are adjacent when their indices differ by 1 (between
rows) or by 2 (within a row).  A tile is identified by its kind and location,
the greatest cell it covers:

    Square     S@k covers {k}          (k >= 1)
    Inclined   I@k covers {k-1, k}     (k >= 2; right-inclined iff k even)
    Horizontal H@k covers {k-2, k}     (k >= 3; both cells in one row)
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property

SQUARE = "square"
RIGHT_INCLINED = "right-inclined"
LEFT_INCLINED = "left-inclined"
HORIZONTAL = "horizontal"
ALL_CLASSES = frozenset({SQUARE, RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL})
DOMINO_CLASSES = frozenset({RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL})

_MIN_LOCATION = {"S": 1, "I": 2, "H": 3}


def _known_classes(classes) -> frozenset[str]:
    """`classes`, a collection of tile class names, as a set; each name checked."""
    if isinstance(classes, str):
        raise ValueError(f"tile classes must be a collection of class names, got {classes!r}")
    class_set = frozenset(classes)
    if unknown := class_set - ALL_CLASSES:
        raise ValueError(f"unknown tile classes {sorted(unknown)}")
    return class_set


def _cells(tile: _KindTile) -> frozenset[int]:
    """The set of cells the tile covers, read off its kind's lowest location."""
    return frozenset({tile.location + 1 - tile._lowest[tile.kind], tile.location})


class _KindTile(namedtuple("_KindTile", "location kind")):
    """A (location, kind) tile of a strip whose `_lowest` table gives each kind's
    lowest location; checked on construction, and `_make` and `_replace`
    construct through `__new__` too.  `_label` names the tile in messages."""

    __slots__ = ()

    def __new__(cls, location: int, kind: str):
        low = cls._lowest.get(kind)
        if low is None:
            raise ValueError(f"unknown {cls._label} kind {kind!r}")
        if location < low:
            raise ValueError(f"{kind} tile location must be >= {low}, got {location}")
        return tuple.__new__(cls, (location, kind))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    cells = property(_cells)

    def __str__(self) -> str:
        return f"{self.kind}{self.location}"


class _Strip(namedtuple("_Strip", "length tiles")):
    __slots__ = ()

    @classmethod
    def of(cls, length: int, tiles):
        """Canonical constructor: sorts tiles by ascending location."""
        return cls(length, tuple(sorted(tiles, key=lambda t: t.location)))


class Tile(_KindTile):
    """One tile: its location and its kind, "S", "I" or "H".  Unlike the other value
    types it has an instance `__dict__`, for its cached `tile_class`, `token` and `cells`."""

    _lowest, _label = _MIN_LOCATION, "tile"

    @cached_property
    def tile_class(self) -> str:
        if self.kind == "S":
            return SQUARE
        if self.kind == "H":
            return HORIZONTAL
        return RIGHT_INCLINED if self.location % 2 == 0 else LEFT_INCLINED

    token = cached_property(_KindTile.__str__)  # `S<k>`/`I<k>`/`H<k>`, kept once formatted

    cells = cached_property(_cells)  # built on first use and then kept


def cells_of(tile: _KindTile) -> frozenset[int]:
    """The set of cells a tile of either strip covers."""
    return tile.cells


class Tiling(_Strip):
    """A strip length and its tiles, a named tuple; valid ones list the tiles
    in ascending location (see `strip_model.validate`)."""

    __slots__ = ()


def tile_at(tiling: Tiling, cell: int) -> Tile:
    """The unique tile covering the given cell of a valid tiling."""
    if not 1 <= cell <= tiling.length:
        raise ValueError(f"cell {cell} out of range 1..{tiling.length}")
    for tile in tiling.tiles:
        if cell in tile.cells:
            return tile
    raise ValueError(f"cell {cell} is uncovered")
