"""Executable correspondences between tiling families.

Three maps, each with a verification harness (`_bijection_report` runs one
and builds the report the `bijection` command prints):

* a 1-to-2 map sending each (n-1)-strip tiling to one n-strip tiling and one
  tiling of length n or n-5, covering both targets exactly once (the
  combinatorial content of 2*T_{n-1} = T_n + T_{n-5});
* the stretch map between horizontal-free double-strip tilings and
  square/domino tilings of a single strip (count f_n);
* the all-domino map between 2n-cell double-strip tilings without squares and
  single-strip tilings of length n (count f_n).
"""
from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, repeat
from operator import attrgetter

from .enumerator import (
    CLASS_PRESETS, CanonicalRank, _check_size, _compile, _tile, _walk, count_by_enumeration,
    enumerate_tilings, tally_by_window,
)
from .strip_model import Tile, Tiling, _KindTile, _Strip, to_tokens, validate


class SingleTile(_KindTile):
    """A single-strip tile, checked on construction like `Tile`: "S" covers
    {location}, "D" covers {location-1, location}."""

    __slots__ = ()
    _lowest, _label = {"S": 1, "D": 2}, "single-strip tile"


class SingleStripTiling(_Strip):
    __slots__ = ()


_single_strip = _compile(SingleTile._lowest, SingleTile)  # the endless single strip


def enumerate_single_strip(length: int) -> Iterator[SingleStripTiling]:
    """All square/domino tilings of a single strip, count f_length, canonical
    order: `_compile`, given `SingleTile._lowest`, covers the lowest free cell
    c with S@c before D@(c+1), so `_walk` lists the tilings with S before D."""
    _check_size(length)
    return map(SingleStripTiling, repeat(length), _walk(_single_strip(length), length, (), ()))


def thm2_map(tiling: Tiling) -> tuple[Tiling, Tiling]:
    """Send a valid (n-1)-strip tiling to its two images of length n and n or n-5.

    First image: append Square@n.  Second image, by the tile covering the last
    cell m = n-1:

    * Square@m: remove it, append Inclined@n (covers n-1, n).
    * Inclined@m: remove it, append Square@m and Horizontal@n (covers n-2, n);
      this is the only shape-legal completion of cells {n-2, n-1, n} with one
      square and one horizontal.
    * Horizontal@m: the tile covering cell m-1 can only be a stacked
      Horizontal@(m-1) or a Square@(m-1), since cell m-2 is taken.  Stacked:
      remove both horizontals, leaving length n-5.  Square: replace it with
      Horizontal@n.
    """
    m = tiling.length
    if m < 4:
        raise ValueError(f"input length must be >= 4, got {m}")
    violations = validate(tiling)
    if violations:
        raise ValueError(f"input tiling is invalid: {'; '.join(violations)}")
    n, tiles = m + 1, tiling.tiles
    # Images keep location order without a sort: each new tile lies above the
    # tiles it joins, and the tiles dropped are the top one or two.
    first = Tiling(n, tiles + (_tile(n, "S"),))
    last = tiles[-1]  # the tile covering cell m has location m
    if last.kind == "S":
        second = Tiling(n, tiles[:-1] + (_tile(n, "I"),))
    elif last.kind == "I":
        second = Tiling(n, tiles[:-1] + (_tile(m, "S"), _tile(n, "H")))
    else:
        neighbor = tiles[-2]  # the tile covering cell m - 1, located there
        if neighbor.kind == "H":
            second = Tiling(n - 5, tiles[:-2])
        elif neighbor.kind == "S":
            second = Tiling(n, tiles[:-2] + (last, _tile(n, "H")))
        else:
            raise AssertionError(
                f"tile covering cell {m - 1} must be a square or a stacked horizontal, "
                f"got {neighbor}"
            )
    assert not validate(first) and not validate(second)
    return first, second


def thm2_window_cover(n: int) -> tuple[dict[int, int], int, int]:
    """`thm2_verify`'s cover check, by last-tile window instead of by tiling.

    `thm2_map` rewrites only an input's tiles at locations n-2..n-1, its
    window, and keeps the rest, which fills the cells the window leaves free.
    So each window is mapped once, padded with squares, and its image windows
    (tiles at n-2..n; none at length n-5) stand for the images of all its
    inputs.  A target window met by one image window is covered once if the
    counts agree; met by none, its tilings are missing, met by more, they are
    duplicated, as are images off every target.  Returns the image counts by
    length and the numbers of missing and duplicated tilings.
    """
    m, by_length, hits = n - 1, {}, {}
    for window, count in tally_by_window(m, m - 1, m, attrgetter("tiles")).items():
        covered = set().union(*(tile.cells for tile in window))
        free = tuple(_tile(c, "S") for c in range(1, m + 1) if c not in covered)
        for image in thm2_map(Tiling(m, free + window)):  # free cells lie below the window
            by_length[image.length] = by_length.get(image.length, 0) + count
            key = image.length, tuple(t for t in image.tiles if t.location >= m - 1)
            hits.setdefault(key, []).append(count)
    targets = {(n, w): c for w, c in tally_by_window(n, m - 1, n, attrgetter("tiles")).items()}
    targets[n - 5, ()] = count_by_enumeration(n - 5)
    missing = duplicated = 0
    for key, want in targets.items():
        got = hits.pop(key, [0])
        if len(got) > 1:
            duplicated += want
        elif got[0] < want:
            missing += want - got[0]
        else:
            duplicated += got[0] - want
    return by_length, missing, duplicated + sum(map(sum, hits.values()))


def _key(tiling: Tiling) -> str:
    return f"{tiling.length}:{to_tokens(tiling)}"


class Thm2Report(namedtuple(
    "Thm2Report", "n inputs outputs expected_total by_length missing duplicated"
)):
    """`thm2_verify`'s counts; `by_length` maps image lengths to image counts,
    `missing` and `duplicated` name target tilings as "length:tokens"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.missing and not self.duplicated


def thm2_verify(n: int) -> Thm2Report:
    """Check that the 1-to-2 map covers all tilings of lengths n and n-5 exactly once.

    Any n >= 5 is accepted: the identity is stated for n >= 6, and at n = 5
    the stacked case lands on the empty tiling.  Each image is tallied at its
    rank in canonical order, the tilings of length n first, then those of
    length n - 5, so the target tilings are never listed: `thm2_map` validates
    every image, and ranking is one-to-one from the valid tilings of a length
    onto range(count).  A target reached no time is missing, one reached twice
    or more is duplicated; only then are the targets walked, in rank order, to
    name them.  An image of any other length is reported as duplicated.
    """
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    inputs_walk = enumerate_tilings(n - 1)  # checks n - 1 against the cap
    ranks = {n: CanonicalRank(n), n - 5: CanonicalRank(n - 5)}  # and n, before any walk
    offsets = {n: 0, n - 5: ranks[n].total}
    expected_total = ranks[n].total + ranks[n - 5].total
    seen = bytearray(expected_total)  # per target tiling: 0, 1, or 2 for more
    by_length: dict[int, int] = {}
    strays: set[str] = set()
    inputs = 0
    for tiling in inputs_walk:
        inputs += 1
        for image in thm2_map(tiling):
            length = image.length
            by_length[length] = by_length.get(length, 0) + 1
            if length not in ranks:
                strays.add(_key(image))
                continue
            index = offsets[length] + ranks[length].rank(image.tiles)
            if seen[index] < 2:
                seen[index] += 1

    def keys(count: int) -> list[str]:
        # The targets seen `count` times, named by walking them in rank order
        # only if there is one, so a cover that holds lists no target.
        if count not in seen:
            return []
        targets = chain(enumerate_tilings(n), enumerate_tilings(n - 5))
        return [_key(target) for target, times in zip(targets, seen) if times == count]

    return Thm2Report(
        n=n,
        inputs=inputs,
        outputs=sum(by_length.values()),
        expected_total=expected_total,
        by_length=by_length,
        missing=tuple(sorted(keys(0))),
        duplicated=tuple(sorted(strays.union(keys(2)))),
    )


def lemma2_to_single(tiling: Tiling) -> SingleStripTiling:
    """Stretch a horizontal-free tiling into a single-strip tiling, same length."""
    singles: list[SingleTile] = []
    for tile in tiling.tiles:
        if tile.kind == "H":
            raise ValueError(f"horizontal tile present: {tile}")
        singles.append(SingleTile(tile.location, "S" if tile.kind == "S" else "D"))
    return SingleStripTiling.of(tiling.length, singles)


def lemma2_from_single(single: SingleStripTiling) -> Tiling:
    """Exact inverse of lemma2_to_single."""
    tiles = tuple(Tile(t.location, "S" if t.kind == "S" else "I") for t in single.tiles)
    return Tiling.of(single.length, tiles)


def lemma3_to_single(tiling: Tiling) -> SingleStripTiling:
    """Map an all-domino tiling of a 2n-cell strip to a single-strip tiling of length n.

    Right-inclined@2k becomes a square at k; a right-stacked horizontal pair at
    locations (m, m+1) with m odd becomes a domino at {(m-1)/2, (m+1)/2}.
    Left-inclined tiles and unpaired horizontals cannot occur in a valid
    all-domino tiling (each would leave an odd number of cells on one side),
    so they trip assertions rather than errors.
    """
    if tiling.length % 2 != 0:
        raise ValueError(f"all-domino tilings need an even length, got {tiling.length}")
    singles: list[SingleTile] = []
    horizontals: set[int] = set()
    for tile in tiling.tiles:
        if tile.kind == "S":
            raise ValueError(f"square tile present: {tile}")
        if tile.kind == "I":
            assert tile.location % 2 == 0, f"left-inclined {tile} in an all-domino tiling"
            singles.append(SingleTile(tile.location // 2, "S"))
        else:
            horizontals.add(tile.location)
    for m in sorted(horizontals):
        if m % 2 == 0:
            assert m - 1 in horizontals, f"unpaired horizontal at location {m}"
            continue  # consumed as the upper member of the pair (m-1, m)
        assert m + 1 in horizontals, f"unpaired horizontal at location {m}"
        singles.append(SingleTile((m + 1) // 2, "D"))
    return SingleStripTiling.of(tiling.length // 2, singles)


def lemma3_from_single(single: SingleStripTiling) -> Tiling:
    """Exact inverse of lemma3_to_single."""
    tiles: list[Tile] = []
    for t in single.tiles:
        if t.kind == "S":
            tiles.append(Tile(2 * t.location, "I"))
        else:
            tiles.append(Tile(2 * t.location - 1, "H"))
            tiles.append(Tile(2 * t.location, "H"))
    return Tiling.of(2 * single.length, tiles)


def _bijection_report(name: str, n: int) -> dict:
    """thm2's cover counts, or a lemma map's round trips and image over its family."""
    if name == "thm2":
        report = thm2_verify(n)
        return {
            "name": "thm2",
            "n": n,
            "inputs": report.inputs,
            "outputs": report.outputs,
            "expected_total": report.expected_total,
            "missing": len(report.missing),
            "duplicated": len(report.duplicated),
            "ok": report.ok,
        }
    if name == "lemma2":
        length, preset = n, "no-horizontal"
        forward, backward = lemma2_to_single, lemma2_from_single
    else:
        length, preset = 2 * n, "no-squares"
        forward, backward = lemma3_to_single, lemma3_from_single
    tilings = enumerate_tilings(length, CLASS_PRESETS[preset])  # checks n and the cap
    ranks = CanonicalRank(n, _single_strip)  # a valid image's index in the codomain
    seen, domain, round_trip_ok, strays = bytearray(ranks.total), 0, 0, 0  # seen: 0, 1, 2+
    for tiling in tilings:
        domain += 1
        single = forward(tiling)
        if backward(single) == tiling:
            round_trip_ok += 1
        if single.length == n and not validate(single):
            index = ranks.rank(single.tiles)
            seen[index] = min(seen[index] + 1, 2)
        else:
            strays += 1
    image_complete = not strays and seen.count(1) == ranks.total
    return {
        "name": name,
        "n": n,
        "strip_cells": length,
        "domain": domain,
        "codomain": ranks.total,
        "round_trip_ok": round_trip_ok,
        "image_complete": image_complete,
        "ok": domain == round_trip_ok and image_complete,
    }
