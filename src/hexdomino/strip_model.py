"""Checking, parsing, splitting and rendering double-strip tilings, whose tile
types (`tiles`) are served here too.  Diagonal d separates cells {1..d} from
{d+1..n}; it is breakable when no tile covers cells on both sides."""
from __future__ import annotations

from operator import attrgetter, lt

from .tiles import (
    _MIN_LOCATION, ALL_CLASSES, DOMINO_CLASSES, HORIZONTAL, LEFT_INCLINED, RIGHT_INCLINED, SQUARE,
    Tile, Tiling, _cells, _KindTile, _known_classes, _Strip, cells_of, tile_at,
)


class ParseError(ValueError):
    """Raised by parse_tokens on malformed or non-tiling input."""


class UnbreakableError(ValueError):
    """Raised by split_at when a tile crosses the requested diagonal."""


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
    tiling = Tiling(expected_length, tuple(tiles))
    violations = validate(tiling)
    if violations:
        raise ParseError("; ".join(violations))
    return tiling


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

    `classes` is a collection of names from {square, right-inclined,
    left-inclined, horizontal}, not one name as a bare string.
    """
    class_set = _known_classes(classes)
    locations = [t.location for t in tiling.tiles if t.tile_class in class_set]
    return min(locations) if locations else None


_RENDER_LETTER = {SQUARE: "S", RIGHT_INCLINED: "R", LEFT_INCLINED: "L", HORIZONTAL: "H"}


def render_ascii(tiling: Tiling) -> str:
    """Two-line rendering: upper row (even cells) above lower row (odd cells).

    Each cell shows the covering tile's class letter and location, e.g. [R2].
    An invalid tiling raises ValueError with `validate`'s messages.
    """
    if violations := validate(tiling):
        raise ValueError(f"input tiling is invalid: {'; '.join(violations)}")
    label = {cell: f"[{_RENDER_LETTER[tile.tile_class]}{tile.location}]"
             for tile in tiling.tiles for cell in tile.cells}
    rows = (range(first, tiling.length + 1, 2) for first in (2, 1))
    return "\n".join(" ".join(map(label.__getitem__, cells)) for cells in rows)
