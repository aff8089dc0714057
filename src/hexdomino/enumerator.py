"""Enumeration, counting and first-tile partitions of double-strip tilings.

Every tiling is built by covering the lowest uncovered cell c.  At most one
cell beyond the frontier can already be covered: placing Horizontal@(c+2)
covers c and c+2 while leaving c+1 free, and no other move skips a cell.  The
frontier state is therefore just (c, flag) where the flag says "cell c+1 is
already covered", and `_moves` lists the tiles that can cover c from it, in
canonical order: Square@c, then Inclined@(c+1), then Horizontal@(c+2).

`_transitions` compiles those moves once per (n, classes) into a table keyed
by frontier state, kept for the process, and three consumers share it.
`enumerate_tilings` walks it depth first and materializes each tiling; it
holds each horizontal placed at the frontier until the next move, so the
path's tiles stay in location order.
Counts, partitions and window tallies fold the table backward over the
frontier states (the transfer-matrix method), each with its own per-path
carry, so their cost grows with n rather than with the number of tilings, and
they never consult the Tetranacci recurrence they are used to check.
`CanonicalRank` folds the table the same way to rank and unrank tilings in
the walk's order.
"""
from __future__ import annotations

import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

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

_TOKEN = attrgetter("token")

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


@lru_cache(maxsize=64)
def _transitions(n: int, class_set: frozenset[str]) -> dict[tuple[int, bool], tuple]:
    """The compiled automaton: {(c, flag): tuple(_moves(c, flag, n, class_set))}.

    Every frontier state of the n-cell strip is a key, from c = n down to 1,
    so each state comes after the states its moves lead to.  Equal tiles are
    one object, so each tile's token is formatted at most once per table.
    The table is cached per (n, class_set) and shared by every caller, which
    must not mutate it.
    """
    shared: dict[Tile, Tile] = {}
    table: dict[tuple[int, bool], tuple] = {}
    for c in range(n, 0, -1):
        for next_covered in (False, True) if c < n else (False,):
            table[c, next_covered] = tuple(
                (shared.setdefault(tile, tile), next_c, next_flag)
                for tile, next_c, next_flag in _moves(c, next_covered, n, class_set)
            )
    return table


def enumerate_tilings(n: int, classes=ALL_CLASSES) -> Iterator[Tiling]:
    """Yield every tiling of the n-cell strip using allowed tile classes only.

    Canonical order; each tiling appears exactly once.  Restriction prunes at
    choice time rather than filtering a full enumeration afterwards.  The walk
    reads the compiled `_transitions` table, so no tile is built per step.  It
    holds each horizontal placed at the frontier until the next move, which
    lands just below or just above it, so the path's tiles stay in location
    order and each tiling is yielded without a sort.
    """
    _check_size(n)
    class_set = _class_set(classes)

    def walk() -> Iterator[Tiling]:
        # Depth first with an explicit stack, so the strip length is not bound
        # by the interpreter's recursion limit.  A frame holds the untried moves
        # of one frontier state on the current path, the number of path tiles
        # placed before it, and a held horizontal or None.
        if n == 0:
            yield Tiling(0, ())
            return
        table = _transitions(n, class_set)
        tiles: list[Tile] = []
        stack = [(iter(table[1, False]), 0, None)]
        while stack:
            moves, depth, held = stack[-1]
            move = next(moves, None)
            if move is None:
                stack.pop()
                continue
            tile, next_c, next_flag = move
            del tiles[depth:]
            if next_flag:
                # H@(c+2) skips cell c+1.  The next move covers c+1 with S@(c+1),
                # which lies below the horizontal, or with H@(c+3), which lies
                # above it; hold the horizontal until then.
                stack.append((iter(table[next_c, True]), depth, tile))
                continue
            if held is None:
                tiles.append(tile)
            elif tile.location < held.location:
                tiles += (tile, held)
            else:
                tiles += (held, tile)
            if next_c > n:
                yield Tiling(n, tuple(tiles))
            else:
                stack.append((iter(table[next_c, False]), len(tiles), None))

    return walk()


def _fold(n: int, allowed: frozenset[str], start, carry) -> dict:
    """Count the tilings built from `allowed` tiles, grouped by a per-path key.

    Folds backward over the `_transitions` table, c = n down to 1: each state maps
    to {key of the rest of the tiling: ways to finish}, the empty rest keyed `start`;
    `carry(tile, groups)` yields those pairs for `tile` placed before a rest with
    `groups`.  Only c = n + 1 with nothing covered ends a tiling; c + 1 covered needs c < n.
    """
    done: dict[tuple[int, bool], dict] = {(n + 1, False): {start: 1}}
    for state, moves in _transitions(n, allowed).items():
        groups: dict = {}
        for tile, next_c, next_flag in moves:
            for key, count in carry(tile, done[next_c, next_flag]):
                groups[key] = groups.get(key, 0) + count
        done[state] = groups
    return done[1, False]


def count_by_enumeration(n: int, classes=ALL_CLASSES) -> int:
    """Number of tilings, by a backward fold over the frontier moves.

    The fold derives every count from tile geometry alone, never from the
    Tetranacci recurrence, so it stays an independent oracle for it.
    """
    _check_size(n)
    return sum(_fold(n, _class_set(classes), None, lambda tile, groups: groups.items()).values())


def partition_by_first(n: int, classes) -> dict[int | None, int]:
    """Group all tilings of the n-cell strip by the first tile of given classes.

    Keys are the minimal location of a tile whose class lies in `classes`, or
    None when no such tile occurs.  Counts sum to the unrestricted total.
    Placement order can disagree with location order (a horizontal placed at
    the frontier lands above a later square), so the fold keeps a running
    minimum instead of taking the first placement.
    """
    _check_size(n)
    tracked = _class_set(classes)

    def carry(tile: Tile, groups: dict):
        if tile.tile_class not in tracked:
            return groups.items()
        # Every key past k, and None, becomes k: one pair, summed at C speed.
        k = tile.location
        below = [(key, count) for key, count in groups.items() if key is not None and key < k]
        return [(k, sum(groups.values()) - sum(count for _, count in below)), *below]

    return _fold(n, ALL_CLASSES, None, carry)


def tally_by_window(n: int, lo: int, hi: int, classify) -> dict:
    """Count the tilings of the n-cell strip by `classify` of their window.

    A window is Tiling(n, ...) holding only the tiles located in lo..hi, so
    `classify` must read nothing else; it runs once per distinct window.
    """
    _check_size(n)

    def carry(tile: Tile, groups: dict):
        if not lo <= tile.location <= hi:
            return groups.items()
        return [((tile, *window), count) for window, count in groups.items()]

    tally: dict = {}
    for window, count in _fold(n, ALL_CLASSES, (), carry).items():
        key = classify(Tiling.of(n, window))
        tally[key] = tally.get(key, 0) + count
    return tally


class CanonicalRank:
    """Rank and unrank the tilings of the n-cell strip in `enumerate_tilings(n)` order.

    The walk tries each frontier state's moves in order, so a tiling's rank is
    the sum, over its moves, of the ways to finish after each move tried before
    it (ranking by counting: Nijenhuis & Wilf, Combinatorial Algorithms, 1978).
    One backward fold over the `_transitions` table counts the ways to finish
    from every state, as `_fold` does, never from the Tetranacci recurrence,
    and sums them once per tile into a weight table: a square is tried first
    and adds 0; I@k adds the ways from (k, False); H@k adds those plus, unless
    it sits on H@(k-1), the ways from (k-1, False).  H@k on H@(k-1) is placed
    from a state whose next cell is covered, the only tile whose weight that changes.
    Neither the cap nor `validate` is consulted: `rank` reads valid tilings only.
    """

    def __init__(self, n: int) -> None:
        self.length = n
        self._table = _transitions(n, ALL_CLASSES)
        self._ways = {(n + 1, False): 1}
        # Token -> weight of a tile placed from a state whose next cell is free,
        # then from one whose next cell is covered.
        self._weights: tuple[dict[str, int], dict[str, int]] = ({}, {})
        for state, moves in self._table.items():
            tried = 0
            for tile, next_c, next_flag in moves:
                self._weights[state[1]][tile.token] = tried
                tried += self._ways[next_c, next_flag]
            self._ways[state] = tried
        self.total = self._ways[1, False]
        self._stacked_on = {f"H{k}": f"H{k - 1}" for k in range(4, n + 1)}

    def rank(self, tiles: tuple[Tile, ...]) -> int:
        """Index in `enumerate_tilings(n)` of the valid tiling with these tiles."""
        free, covered = self._weights
        stacked_on = self._stacked_on
        index, below = 0, ""
        for token in map(_TOKEN, tiles):
            index += (covered if stacked_on.get(token) == below else free)[token]
            below = token
        return index

    def unrank(self, index: int) -> Tiling:
        """The tiling at `index` of `enumerate_tilings(n)`, the inverse of `rank`."""
        if not 0 <= index < self.total:
            raise ValueError(f"rank must be in 0..{self.total - 1}, got {index}")
        tiles, state = [], (1, False)
        while state[0] <= self.length:
            for tile, next_c, next_flag in self._table[state]:
                ways = self._ways[next_c, next_flag]
                if index < ways:
                    break
                index -= ways
            tiles.append(tile)
            state = next_c, next_flag
        return Tiling.of(self.length, tiles)


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
    horizontals because they would collide on cell d or d+1.  It reads only
    the length and the tiles located at d..d+3 (those covering d and d+1).
    """
    if tiling.length % 2 != 0:
        raise ValueError(f"classify_diagonal needs an even length, got {tiling.length}")
    d = tiling.length // 2
    kinds = {t.location: t.kind for t in tiling.tiles}
    if kinds.get(d + 1) == "I":
        return CrossingDescriptor(INCLINED_CROSS)
    has_low, has_high = kinds.get(d + 1) == "H", kinds.get(d + 2) == "H"
    if has_low and has_high:
        return CrossingDescriptor(BOTH_HORIZONTALS)
    if not (has_low or has_high):
        return CrossingDescriptor(BREAKABLE)
    sub = tile_at(tiling, d if has_low else d + 1).tile_class
    assert sub in (SQUARE, HORIZONTAL)
    return CrossingDescriptor(LOW_HORIZONTAL if has_low else HIGH_HORIZONTAL, sub)


def last_tile_group(tiling: Tiling) -> str:
    """thm1's group of a tiling of n >= 1 cells: its last tile, and for a last
    horizontal the tile at cell n - 1.  Reads only the tiles located at n-1..n."""
    last = tiling.tiles[-1]
    if last.kind != "H":
        return "square" if last.kind == "S" else "inclined"
    return "horizontal+" + tile_at(tiling, tiling.length - 1).tile_class


def histogram_by_descriptor(n: int) -> dict[CrossingDescriptor, int]:
    """Crossing-descriptor counts over all tilings of the 2n-cell strip; `n` is a
    half-length so that it pairs with thm3's T(2n) and `thm3_expected_histogram(n)`."""
    if n < 0:
        raise ValueError(f"half-length must be >= 0, got {n}")
    return tally_by_window(2 * n, n, n + 3, classify_diagonal)
