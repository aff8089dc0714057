"""Window tallies, canonical ranks and middle-diagonal crossings, read off the
enumerator's compiled strip.  `enumerator` serves these names too."""
from __future__ import annotations

from collections import namedtuple
from itertools import accumulate

from .enumerator import _strip, _ways
from .tiles import HORIZONTAL, SQUARE, Tiling, tile_at


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
