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
once, so `enumerate` builds no tiling.  Partitions and windows are forward
first-passage passes from cell 1, stopping each path at its first tracked tile
or past the window and weighing it by the ways to finish from there.  So their
cost grows with n, not with the tilings, and none reads the recurrence it checks.
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import cache
from itertools import accumulate, chain, repeat

from .sequences import CapExceeded, max_cells
from .strip_model import (
    _MIN_LOCATION,
    ALL_CLASSES,
    HORIZONTAL,
    LEFT_INCLINED,
    RIGHT_INCLINED,
    SQUARE,
    Tile,
    Tiling,
    tile_at,
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
    class_set = frozenset(classes)
    if not class_set:
        raise ValueError("tile class set must be non-empty")
    unknown = class_set - ALL_CLASSES
    if unknown:
        raise ValueError(f"unknown tile classes {sorted(unknown)}")
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


def tally_by_window(n: int, lo: int, hi: int, classify) -> dict:
    """Count the tilings of the n-cell strip by `classify` of their window.

    A window is Tiling(n, ...) holding only the tiles located in lo..hi, so
    `classify` must read nothing else; it runs once per distinct window.  Paths
    stop at their first cell c past min(hi, n), each counting ways[c] tilings.
    """
    strip, end = _strip(n), min(hi, n)
    ways, heads, windows, tally = _ways(strip, n), {1: {(): 1}}, {}, {}
    for c in range(1, end + 1):  # paths from cell 1, each move adding its tiles in lo..hi
        reached = heads.pop(c)
        for tiles, next_c in strip[c]:
            if not ways[next_c]:
                continue
            own = tuple(tile for tile in tiles if lo <= tile.location <= hi)
            head = heads.setdefault(next_c, {})
            for window, paths in reached.items():
                head[window + own] = head.get(window + own, 0) + paths
    for c, reached in heads.items():  # first cells past min(hi, n): no later tile is in lo..hi
        for window, paths in reached.items():
            windows[window] = windows.get(window, 0) + paths * ways[c]
    for window, count in windows.items():
        key = classify(Tiling(n, window))
        tally[key] = tally.get(key, 0) + count
    return tally


class CanonicalRank:
    """Rank the tilings of the n-cell strip `grown` compiles in its walk's order.

    The walk tries each frontier cell's moves in order, so a tiling's rank is
    the sum, over its moves, of the ways to finish after each move tried before
    it (ranking by counting: Nijenhuis & Wilf, Combinatorial Algorithms, 1978).
    The ways come from `_ways`, never from the Tetranacci recurrence, summed
    once per move into a weight table per cell, keyed by its first tile.  A
    move's tiles ascend and end just below its next cell, so `rank` reads the
    next cell off each tile's location; a move's second tile is looked up at
    the cell after its first, where no move starts with it, and adds 0.
    The walk yields tilings in rank order, so it names the tiling at a rank.
    """

    def __init__(self, n: int, grown=_strip) -> None:
        strip = grown(n)
        ways = _ways(strip, n)
        self._weights: list[dict[tuple, int]] = []
        for moves in strip[:n + 1]:
            tried = accumulate((ways[next_c] for _, next_c in moves), initial=0)
            self._weights.append({tiles[0]: t for (tiles, _), t in zip(moves, tried)})
        self.total = ways[1]

    def rank(self, tiles: tuple) -> int:
        """Index in the walk's order of the valid tiling with these tiles."""
        weights = self._weights
        index, c = 0, 1
        for tile in tiles:
            index += weights[c].get(tile, 0)
            c = tile.location + 1
        return index


BREAKABLE = "breakable"
INCLINED_CROSS = "inclined"
BOTH_HORIZONTALS = "both-horizontals"
LOW_HORIZONTAL = "low-horizontal"
HIGH_HORIZONTAL = "high-horizontal"


class CrossingDescriptor(namedtuple("CrossingDescriptor", "kind sub", defaults=(None,))):
    """How the middle diagonal of an even-length tiling is crossed.

    kind is one of breakable / inclined / both-horizontals / low-horizontal /
    high-horizontal.  For a lone crossing horizontal, `sub` records the kind
    (square or horizontal) of the tile at cell d (low) or d+1 (high), the
    sub-conditioning of the diagonal-decomposition argument; else it is None.
    """

    __slots__ = ()

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
