"""Enumeration, counting and first-tile partitions of double-strip tilings.

Every tiling is built by covering the lowest uncovered cell c.  At most one
cell beyond the frontier can already be covered: placing Horizontal@(c+2)
covers c and c+2 while leaving c+1 free, and no other move skips a cell.  The
frontier state is therefore just (c, flag) where the flag says "cell c+1 is
already covered", and `_moves` lists the tiles that can cover c from it, in
canonical order: Square@c, then Inclined@(c+1), then Horizontal@(c+2).

Two consumers share those moves.  `enumerate_tilings` walks them depth first
and materializes each tiling.  Counting and partitions fold them backward over
the frontier states (the transfer-matrix method), so their cost grows with n
rather than with the number of tilings, and they never consult the Tetranacci
recurrence they are used to check.
"""
from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass

from .strip_model import (
    ALL_CLASSES,
    HORIZONTAL,
    LEFT_INCLINED,
    RIGHT_INCLINED,
    SQUARE,
    Tile,
    Tiling,
    tile_at,
)

DEFAULT_MAX_CELLS = 24
MAX_CELLS_ENV = "HEXDOMINO_MAX_N"

CLASS_PRESETS: dict[str, frozenset[str]] = {
    "all": ALL_CLASSES,
    "no-horizontal": frozenset({SQUARE, RIGHT_INCLINED, LEFT_INCLINED}),
    "no-squares": frozenset({RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL}),
    "squares-right": frozenset({SQUARE, RIGHT_INCLINED}),
}


class CapExceeded(ValueError):
    """Raised when an enumeration request exceeds the configured cell cap."""


def max_cells() -> int:
    """Enumeration cap in cells; override with the HEXDOMINO_MAX_N variable."""
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{MAX_CELLS_ENV} must be an integer, got {raw!r}") from None


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"strip length must be >= 0, got {n}")
    limit = max_cells()
    if n > limit:
        raise CapExceeded(f"strip length {n} exceeds the enumeration cap {limit}")


def _class_set(classes) -> frozenset[str]:
    class_set = frozenset(classes)
    if not class_set:
        raise ValueError("tile class set must be non-empty")
    unknown = class_set - ALL_CLASSES
    if unknown:
        raise ValueError(f"unknown tile classes {sorted(unknown)}")
    return class_set


def _moves(
    c: int, next_covered: bool, n: int, class_set: frozenset[str]
) -> Iterator[tuple[Tile, int, bool]]:
    """Yield (tile, next_c, next_flag) for each allowed tile covering cell c.

    (next_c, next_flag) is the frontier state once the tile is placed.  This
    is the only place that decides which tiles fit the frontier; moves come
    out in canonical order.
    """
    if SQUARE in class_set:
        yield Tile(c, "S"), c + 2 if next_covered else c + 1, False
    if not next_covered and c + 1 <= n:
        if (RIGHT_INCLINED if (c + 1) % 2 == 0 else LEFT_INCLINED) in class_set:
            yield Tile(c + 1, "I"), c + 2, False
    if HORIZONTAL in class_set and c + 2 <= n:
        if next_covered:
            yield Tile(c + 2, "H"), c + 3, False
        else:
            yield Tile(c + 2, "H"), c + 1, True


def enumerate_tilings(n: int, classes=ALL_CLASSES) -> Iterator[Tiling]:
    """Yield every tiling of the n-cell strip using allowed tile classes only.

    Canonical order; each tiling appears exactly once.  Restriction prunes at
    choice time rather than filtering a full enumeration afterwards.
    """
    _check_size(n)
    class_set = _class_set(classes)

    def walk() -> Iterator[Tiling]:
        # Depth first with an explicit stack holding the untried moves of each
        # frontier state on the current path, so the strip length is not bound
        # by the interpreter's recursion limit.
        if n == 0:
            yield Tiling.of(0, ())
            return
        tiles: list[Tile] = []
        stack = [_moves(1, False, n, class_set)]
        while stack:
            move = next(stack[-1], None)
            if move is None:
                stack.pop()
                if tiles:
                    tiles.pop()
                continue
            tile, next_c, next_flag = move
            tiles.append(tile)
            if next_c > n:
                yield Tiling.of(n, tiles)
                tiles.pop()
            else:
                stack.append(_moves(next_c, next_flag, n, class_set))

    return walk()


def _fold(n: int, allowed: frozenset[str], tracked: frozenset[str]) -> dict[int | None, int]:
    """Count the tilings built from `allowed` tiles, grouped by first tracked tile.

    Folds backward over the frontier states, c = n down to 1: each state maps
    to {minimal location of a tracked tile in the rest of the tiling, or None:
    number of ways to finish}.  Only c = n + 1 with nothing covered ends a
    tiling, and a state with cell c + 1 covered needs c < n.
    """
    done: dict[tuple[int, bool], dict[int | None, int]] = {(n + 1, False): {None: 1}}
    for c in range(n, 0, -1):
        for next_covered in (False, True) if c < n else (False,):
            groups: dict[int | None, int] = {}
            for tile, next_c, next_flag in _moves(c, next_covered, n, allowed):
                hit = tile.tile_class in tracked
                for key, count in done[next_c, next_flag].items():
                    if hit and (key is None or tile.location < key):
                        key = tile.location
                    groups[key] = groups.get(key, 0) + count
            done[c, next_covered] = groups
    return done[1, False]


def count_by_enumeration(n: int, classes=ALL_CLASSES) -> int:
    """Number of tilings, by a backward fold over the frontier moves.

    The fold derives every count from tile geometry alone, never from the
    Tetranacci recurrence, so it stays an independent oracle for it.
    """
    _check_size(n)
    return sum(_fold(n, _class_set(classes), frozenset()).values())


def partition_by_first(n: int, classes) -> dict[int | None, int]:
    """Group all tilings of the n-cell strip by the first tile of given classes.

    Keys are the minimal location of a tile whose class lies in `classes`, or
    None when no such tile occurs.  Counts sum to the unrestricted total.
    Placement order can disagree with location order (a horizontal placed at
    the frontier lands above a later square), so the fold keeps a running
    minimum instead of taking the first placement.
    """
    _check_size(n)
    return _fold(n, ALL_CLASSES, _class_set(classes))


BREAKABLE = "breakable"
INCLINED_CROSS = "inclined"
BOTH_HORIZONTALS = "both-horizontals"
LOW_HORIZONTAL = "low-horizontal"
HIGH_HORIZONTAL = "high-horizontal"


@dataclass(frozen=True)
class CrossingDescriptor:
    """How the middle diagonal of an even-length tiling is crossed.

    kind is one of breakable / inclined / both-horizontals / low-horizontal /
    high-horizontal.  For a lone crossing horizontal, `sub` records the kind
    (square or horizontal) of the tile at cell d (low) or d+1 (high), the
    sub-conditioning of the diagonal-decomposition argument.
    """
    kind: str
    sub: str | None = None

    @property
    def key(self) -> str:
        return self.kind if self.sub is None else f"{self.kind}:{self.sub}"


def classify_diagonal(tiling: Tiling) -> CrossingDescriptor:
    """Classify the middle diagonal d = n of a valid 2n-cell tiling.

    The only tiles that can cross diagonal d are Inclined@(d+1),
    Horizontal@(d+1), and Horizontal@(d+2); an inclined crossing excludes both
    horizontals because they would collide on cell d or d+1.
    """
    if tiling.length % 2 != 0:
        raise ValueError(f"classify_diagonal needs an even length, got {tiling.length}")
    d = tiling.length // 2
    by_location = {t.location: t for t in tiling.tiles}
    inclined = by_location.get(d + 1)
    if inclined is not None and inclined.kind == "I":
        return CrossingDescriptor(INCLINED_CROSS)
    low = by_location.get(d + 1)
    high = by_location.get(d + 2)
    has_low = low is not None and low.kind == "H"
    has_high = high is not None and high.kind == "H"
    if has_low and has_high:
        return CrossingDescriptor(BOTH_HORIZONTALS)
    if has_low:
        kind = tile_at(tiling, d).kind
        assert kind in ("S", "H")
        return CrossingDescriptor(LOW_HORIZONTAL, "square" if kind == "S" else "horizontal")
    if has_high:
        kind = tile_at(tiling, d + 1).kind
        assert kind in ("S", "H")
        return CrossingDescriptor(HIGH_HORIZONTAL, "square" if kind == "S" else "horizontal")
    return CrossingDescriptor(BREAKABLE)


def histogram_by_descriptor(n: int) -> dict[CrossingDescriptor, int]:
    """Crossing-descriptor counts over all tilings of the 2n-cell strip."""
    if n < 0:
        raise ValueError(f"half-length must be >= 0, got {n}")
    histogram: dict[CrossingDescriptor, int] = {}
    for tiling in enumerate_tilings(2 * n):
        descriptor = classify_diagonal(tiling)
        histogram[descriptor] = histogram.get(descriptor, 0) + 1
    return histogram
