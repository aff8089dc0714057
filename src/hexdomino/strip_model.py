"""Hexagonal double-strip geometry: cells, tiles, tilings, diagonals.

The strip has n cells numbered 1..n; odd cells form the lower row, even cells
the upper row.  Two cells are adjacent when their indices differ by 1 (between
rows) or by 2 (within a row).  A tile is identified by its kind and location,
the greatest cell it covers:

    Square     S@k covers {k}          (k >= 1)
    Inclined   I@k covers {k-1, k}     (k >= 2; right-inclined iff k even)
    Horizontal H@k covers {k-2, k}     (k >= 3; both cells in one row)

Diagonal d separates cells {1..d} from {d+1..n}; it is breakable when no tile
covers cells on both sides.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import attrgetter, lt

SQUARE = "square"
RIGHT_INCLINED = "right-inclined"
LEFT_INCLINED = "left-inclined"
HORIZONTAL = "horizontal"
ALL_CLASSES = frozenset({SQUARE, RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL})
DOMINO_CLASSES = frozenset({RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL})

_MIN_LOCATION = {"S": 1, "I": 2, "H": 3}


class ParseError(ValueError):
    """Raised by parse_tokens on malformed or non-tiling input."""


class UnbreakableError(ValueError):
    """Raised by split_at when a tile crosses the requested diagonal."""


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
    in ascending location (see `validate`)."""

    __slots__ = ()


_LOCATION, _CELLS = attrgetter("location"), attrgetter("cells")


def validate(tiling: _Strip) -> list[str]:
    """The invariant violations of a tiling of either strip; [] means it is valid.

    Each violation names the offending cell or tile.  A valid tiling is
    accepted at C speed from its tiles' cached cell sets: its locations
    strictly ascend to a last one in the strip, so every covered cell lies in
    1..n, and the sets' sizes sum to n while their union holds n cells, so no
    two share a cell and together they cover 1..n.  Anything else is walked
    per cell by `_violations`, which caches nothing on the tiles.
    """
    n, tiles = tiling.length, tiling.tiles
    locations = list(map(_LOCATION, tiles))
    if n >= 0 and all(map(lt, locations, locations[1:])) and (not tiles or locations[-1] <= n):
        sets = list(map(_CELLS, tiles))
        if sum(map(len, sets)) == n and len(frozenset().union(*sets)) == n:
            return []
    return _violations(tiling)


def _violations(tiling: _Strip) -> list[str]:
    """`validate`'s messages, by a per-cell walk over the tiles."""
    violations: list[str] = []
    if tiling.length < 0:
        return [f"length {tiling.length} is negative"]
    locations = [t.location for t in tiling.tiles]
    if locations != sorted(locations):
        violations.append("tiles are not in ascending location order")
    seen_locations: set[int] = set()
    covered: dict[int, Tile] = {}
    for tile in tiling.tiles:
        if tile.location in seen_locations:
            violations.append(f"duplicate location {tile.location}")
        seen_locations.add(tile.location)
        for cell in _cells(tile):
            if cell > tiling.length:
                violations.append(f"tile {tile} covers cell {cell} beyond length {tiling.length}")
            elif cell in covered:
                violations.append(f"cell {cell} covered by both {covered[cell]} and {tile}")
            else:
                covered[cell] = tile
    # One message per run of uncovered cells, found between the covered ones,
    # so the cost grows with the tiles rather than with the length.
    free = 1  # the lowest cell not yet reported
    for cell in [*sorted(covered), tiling.length + 1]:
        if cell - 1 > free:
            violations.append(f"cells {free}..{cell - 1} uncovered")
        elif cell - 1 == free:
            violations.append(f"cell {free} uncovered")
        free = cell + 1
    return violations


def to_tokens(tiling: Tiling) -> str:
    """Space-separated `S<k>`/`I<k>`/`H<k>` tokens in ascending k; "" for n = 0."""
    return " ".join(map(attrgetter("token"), tiling.tiles))


def parse_tokens(text: str, expected_length: int) -> Tiling:
    """Inverse of to_tokens: tokens [SIH][1-9][0-9]* in ASCII, each after the
    first behind one space, "" for none; validates against expected_length."""
    tiles: list[Tile] = []
    for word in text.split(" ") if text else ():
        kind, digits = word[:1], word[1:]
        location = digits.isascii() and digits.isdigit() and digits[0] != "0"
        if kind not in _MIN_LOCATION or not location:
            raise ParseError(f"malformed token {word!r}")
        try:
            tiles.append(Tile(int(digits), kind))
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    for a, b in zip(tiles, tiles[1:]):
        if a.location >= b.location:
            raise ParseError(
                f"locations must be strictly ascending, got {a} before {b}"
            )
    tiling = Tiling(expected_length, tuple(tiles))
    violations = validate(tiling)
    if violations:
        raise ParseError("; ".join(violations))
    return tiling


def tile_at(tiling: Tiling, cell: int) -> Tile:
    """The unique tile covering the given cell of a valid tiling."""
    if not 1 <= cell <= tiling.length:
        raise ValueError(f"cell {cell} out of range 1..{tiling.length}")
    for tile in tiling.tiles:
        if cell in tile.cells:
            return tile
    raise ValueError(f"cell {cell} is uncovered")


def is_breakable(tiling: Tiling, d: int) -> bool:
    """True iff no tile covers both a cell <= d and a cell > d."""
    if not 0 <= d <= tiling.length:
        raise ValueError(f"diagonal {d} out of range 0..{tiling.length}")
    for tile in tiling.tiles:
        cells = tile.cells
        if min(cells) <= d < max(cells):
            return False
    return True


def split_at(tiling: Tiling, d: int) -> tuple[Tiling, Tiling]:
    """Split a tiling at a breakable diagonal into length-d and length-(n-d) parts.

    Suffix cells are re-indexed by subtracting d; shape legality depends only
    on index distances, so shifted tiles stay well formed even though row
    membership flips when d is odd.
    """
    if not is_breakable(tiling, d):
        raise UnbreakableError(f"diagonal {d} is not breakable")
    prefix = tuple(t for t in tiling.tiles if t.location <= d)
    suffix = tuple(Tile(t.location - d, t.kind) for t in tiling.tiles if t.location > d)
    return Tiling(d, prefix), Tiling(tiling.length - d, suffix)


def first_tile_of_class(tiling: Tiling, classes) -> int | None:
    """Minimal location among tiles whose class is in `classes`, or None.

    `classes` is any iterable drawn from {square, right-inclined,
    left-inclined, horizontal}.
    """
    class_set = frozenset(classes)
    unknown = class_set - ALL_CLASSES
    if unknown:
        raise ValueError(f"unknown tile classes {sorted(unknown)}")
    locations = [t.location for t in tiling.tiles if t.tile_class in class_set]
    return min(locations) if locations else None


_RENDER_LETTER = {SQUARE: "S", RIGHT_INCLINED: "R", LEFT_INCLINED: "L", HORIZONTAL: "H"}


def render_ascii(tiling: Tiling) -> str:
    """Two-line rendering: upper row (even cells) above lower row (odd cells).

    Each cell shows the covering tile's class letter and location, e.g. [R2].
    """
    covering: dict[int, Tile] = {}
    for tile in tiling.tiles:
        for cell in tile.cells:
            covering[cell] = tile
    def row(cells: range) -> str:
        return " ".join(
            f"[{_RENDER_LETTER[covering[c].tile_class]}{covering[c].location}]" for c in cells
        )
    upper = row(range(2, tiling.length + 1, 2))
    lower = row(range(1, tiling.length + 1, 2))
    return f"{upper}\n{lower}"
