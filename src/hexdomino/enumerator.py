"""Enumeration, counting and first-tile partitions of double-strip tilings.

Every tiling is built by covering the lowest uncovered cell c with a block,
which `_compile` finds from tile geometry alone; a test checks that the blocks
are the four ways Theorem 1 splits the tilings at one end, in canonical order
Square@c, Inclined@(c+1), Square@(c+1) under Horizontal@(c+2), and
Horizontal@(c+2) with Horizontal@(c+3).  Each covers exactly the cells from c
up to the next frontier cell, so the frontier state is the cell c alone, and
every path places its tiles in location order.

`_compile` finds each cell's moves once per process, and `_strip` hands out
that one endless strip; a class set filters each cell once.  `_ways`, the one
backward pass (the transfer-matrix method), alone knows where a strip ends: 1
way to finish at cell n + 1 and 0 past it, so every pass skips a move with no
way to finish.  `_walk` lists the paths, sharing the finishes of the last cells;
`enumerate_tilings` walks tiles and `_token_lines` each move's text, spelled
once, so `enumerate` builds no tiling.  Partitions (and `windows`' tallies) are
forward first-passage passes from cell 1, stopping each path at its first tracked
tile or past the window and weighing it by the ways to finish from there.  So
their cost grows with n, not with the tilings; none reads the recurrence it checks.
"""
from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from itertools import chain, repeat

from .sequences import CapExceeded, max_cells
from .tiles import (
    _MIN_LOCATION, ALL_CLASSES, HORIZONTAL, LEFT_INCLINED, RIGHT_INCLINED, SQUARE, Tile, Tiling,
    _known_classes,
)

_SHARED_FINISHES = 256  # most finishes `_walk` builds and shares; bounds its memory

CLASS_PRESETS: dict[str, frozenset[str]] = {
    "all": ALL_CLASSES,
    "no-horizontal": frozenset({SQUARE, RIGHT_INCLINED, LEFT_INCLINED}),
    "no-squares": frozenset({RIGHT_INCLINED, LEFT_INCLINED, HORIZONTAL}),
    "squares-right": frozenset({SQUARE, RIGHT_INCLINED}),
}

# One object per (location, kind), so each tile's cells and token are built once.
_tile = cache(Tile)


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"strip length must be >= 0, got {n}")
    if n > (limit := max_cells()):
        raise CapExceeded(f"strip length {n} exceeds the enumeration cap {limit}")


def _class_set(classes) -> frozenset[str]:
    if not (class_set := _known_classes(classes)):
        raise ValueError("tile class set must be non-empty")
    return class_set


def _compile(lowest: dict[str, int], make):
    """Return strip(n), the endless strip grown through cell n: strip[c] holds
    cell c's moves ((tiles, next_c), ...), each cell compiled once, on first use.

    A tile of kind K at k, `make(k, K)`, covers cells k + 1 - lowest[K] and k.
    At frontier c, each kind in `lowest`'s order, laid on the lowest free cell,
    joins the block if it overlaps nothing; the block grows from its new
    frontier while a covered cell lies above it, then yields its tiles in
    location order.  No cell knows where a strip ends; `_ways` does.

    So every cell is cell 1 moved up: the search reads only offsets from the
    free cell (each k is free + lowest[K] - 1, tested against cells the block
    covered itself), and `make(k, K)` never rejects a k >= c, since c >= 1.
    Cell c's moves are cell 1's with every location and next cell raised by
    c - 1.  A tile's class reads its kind and, if inclined, the parity of its
    location, so cells of one parity share their classes, and cell 2's are
    cell 1's with right- and left-inclined swapped (the tests check all three
    to cell 400).
    """
    strip = [()]  # strip[c]: the moves at cell c of the endless strip, once compiled
    def blocks(free: int, covered: frozenset, tiles: tuple):
        for kind, low in lowest.items():
            k = free + low - 1
            if k in covered:
                continue
            tile, now, next_c = make(k, kind), covered | {free, k}, free + 1
            while next_c in now:
                next_c += 1
            if max(now) < next_c:
                yield tuple(sorted(tiles + (tile,))), next_c
            else:
                yield from blocks(next_c, now, tiles + (tile,))

    def grown(n: int) -> list:
        strip.extend(tuple(blocks(c, frozenset(), ())) for c in range(len(strip), n + 1))
        return strip

    return grown


_double_strip = _compile(_MIN_LOCATION, _tile)  # the endless double strip, all classes
_kept: dict[frozenset, list] = {}  # class set: the double strip's moves it allows
_texts: dict[frozenset, list] = {}  # class set: those moves, each as its tokens' text


def _strip(n: int, classes=ALL_CLASSES) -> list:
    """The endless double strip through cell n, checked n first, then the
    classes; a class set keeps the moves all of whose tiles it allows."""
    _check_size(n)
    class_set, strip = _class_set(classes), _double_strip(n)
    if class_set == ALL_CLASSES:
        return strip
    kept = _kept.setdefault(class_set, [()])
    kept.extend(tuple(move for move in strip[c] if all(t.tile_class in class_set for t in move[0]))
                for c in range(len(kept), n + 1))
    return kept


def enumerate_tilings(n: int, classes=ALL_CLASSES) -> Iterator[Tiling]:
    """Yield every tiling of the n-cell strip using allowed tile classes only.

    Canonical order; each tiling appears exactly once.  Restriction prunes at
    choice time rather than filtering a full enumeration afterwards.  The walk
    reads the compiled strip, so no tile is built per step, and each path's
    tiles come in location order, so no tiling is sorted.
    """
    return map(Tiling, repeat(n), _walk(_strip(n, classes), n, (), ()))


def _token_lines(n: int, classes, head: str = "", tail: str = "") -> Iterator[str]:
    """head + `to_tokens` + tail of each tiling `enumerate_tilings(n, classes)` yields."""
    strip, texts = _strip(n, classes), _texts.setdefault(frozenset(classes), [()])
    texts.extend(tuple((" " * (c > 1) + " ".join(tile.token for tile in tiles), next_c)
                       for tiles, next_c in strip[c]) for c in range(len(texts), n + 1))
    return _walk(texts, n, head, tail)


def _walk(strip: list, n: int, head, tail) -> Iterator:
    """Yield head + (a path's move values, concatenated) + tail for every path
    through the n-cell strip of (value, next_c) moves, tried in order.

    Every path reaching cell c shares its finishes, so `finishes[c]` lists them
    once, in walk order, built from c = n down while they number at most
    _SHARED_FINISHES in all; a path reaching such a cell yields itself before each.
    Earlier cells are walked depth first on a stack of (parts kept, value, cell)
    over one list of path parts: no recursion, and memory linear in n.
    """
    ways, finishes, c, held = _ways(strip, n), {n + 1: [tail]}, n, 0
    while c and (held := held + ways[c]) <= _SHARED_FINISHES:
        finishes[c] = [value + rest for value, next_c in strip[c] if ways[next_c]
                       for rest in finishes[next_c]]
        c -= 1
    join = "".join if isinstance(head, str) else lambda parts: tuple(chain.from_iterable(parts))

    def blocks():
        parts, stack = [], [(0, head, 1)]
        while stack:
            depth, value, c = stack.pop()
            parts[depth:] = [value]
            if c in finishes:
                path = join(parts)
                yield [path + rest for rest in finishes[c]]
            else:
                stack += [(depth + 1, value, next_c) for value, next_c in reversed(strip[c])
                          if ways[next_c]]

    return chain.from_iterable(blocks())


def _ways(strip: list, n: int) -> list[int]:
    """ways[c]: the paths through `strip` from cell c to the end of the n-cell
    strip, 1 at n + 1 and 0 past it, each cell summing its moves' next cells."""
    ways = [0] * (n + 1) + [1] + [0] * 3  # a move lands at most 4 cells past its own
    for c in range(n, 0, -1):
        ways[c] = sum(ways[next_c] for _, next_c in strip[c])
    return ways


def count_by_enumeration(n: int, classes=ALL_CLASSES) -> int:
    """Number of tilings: the ways to finish from cell 1, derived from tile geometry
    alone, never from the Tetranacci recurrence, so an independent oracle for it."""
    return _ways(_strip(n, classes), n)[1]


def partition_by_first(n: int, classes) -> dict[int | None, int]:
    """Group all tilings of the n-cell strip by the first tile of given classes.

    Keys are the minimal location of a tile whose class lies in `classes`,
    ascending, then None when some tiling holds no such tile.  Counts sum to
    the unrestricted total.  A path splits at its first move holding a tracked
    tile (first passage: Stanley, Enumerative Combinatorics I, 4.7), so one
    forward pass counts the tracked-free paths reaching each cell c, and such
    a move adds reach[c] * ways[next_c] to the group of its lowest tracked tile.
    """
    strip, tracked = _strip(n), _class_set(classes)
    ways, reach, groups = _ways(strip, n), [0, 1] + [0] * n, {}
    for c in range(1, n + 1):
        if not (paths := reach[c]):
            continue
        for tiles, next_c in strip[c]:
            if not (finish := ways[next_c]):
                continue
            first = next((tile.location for tile in tiles if tile.tile_class in tracked), None)
            if first is None:
                reach[next_c] += paths
            else:
                groups[first] = groups.get(first, 0) + paths * finish
    if reach[n + 1]:
        groups[None] = reach[n + 1]
    return groups


# `windows` defines these, imported when one is first read, so listing tilings never
# compiles it.  Other names are missing, dunders too: imports probe for `__path__`.
_WINDOWS = frozenset("""BOTH_HORIZONTALS BREAKABLE CanonicalRank CrossingDescriptor HIGH_HORIZONTAL
    INCLINED_CROSS LOW_HORIZONTAL classify_diagonal histogram_by_descriptor last_tile_group
    tally_by_window""".split())


def __getattr__(name: str):
    if name not in _WINDOWS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import windows
    return getattr(windows, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_WINDOWS})
