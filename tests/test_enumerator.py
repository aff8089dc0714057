"""Enumeration engine: canonical order, restricted families, partitions, crossings."""
import tracemalloc
from collections import Counter
from itertools import accumulate, combinations, islice, product
from operator import attrgetter

import pytest

from hexdomino import (
    ALL_CLASSES,
    CLASS_PRESETS,
    DOMINO_CLASSES,
    HORIZONTAL,
    LEFT_INCLINED,
    RIGHT_INCLINED,
    SQUARE,
    CapExceeded,
    Tile,
    Tiling,
    classify_diagonal,
    count_by_enumeration,
    enumerate_tilings,
    fibonacci_comb,
    first_tile_of_class,
    histogram_by_descriptor,
    max_cells,
    parse_tokens,
    partition_by_first,
    tetranacci,
    thm3_expected_histogram,
    to_tokens,
    validate,
)
from hexdomino import correspondences, enumerator
from hexdomino.correspondences import (
    SingleStripTiling, SingleTile, enumerate_single_strip,
)
from hexdomino.enumerator import (
    CanonicalRank, _compile, _strip, _token_lines, _ways, last_tile_group,
)
from hexdomino.identities import verify_range
from hexdomino.strip_model import _MIN_LOCATION

GOLDEN_N4 = [
    "S1 S2 S3 S4",
    "S1 S2 I4",
    "S1 I3 S4",
    "S1 S3 H4",
    "I2 S3 S4",
    "I2 I4",
    "S2 H3 S4",
    "H3 H4",
]


def test_golden_order_n4():
    assert [to_tokens(t) for t in enumerate_tilings(4)] == GOLDEN_N4


def test_table_counts():
    assert [count_by_enumeration(n) for n in range(9)] == [1, 1, 2, 4, 8, 15, 29, 56, 108]


def test_length_zero_is_exactly_the_empty_tiling():
    tilings = list(enumerate_tilings(0))
    assert len(tilings) == 1
    assert tilings[0].tiles == ()


def test_restricted_family_counts():
    assert count_by_enumeration(4, CLASS_PRESETS["squares-right"]) == 4
    assert count_by_enumeration(6, CLASS_PRESETS["no-squares"]) == 3
    assert count_by_enumeration(7, CLASS_PRESETS["no-squares"]) == 0
    # horizontal-free counts are Fibonacci: 8 at length 5, 13 at length 6
    assert count_by_enumeration(5, CLASS_PRESETS["no-horizontal"]) == 8
    assert count_by_enumeration(6, CLASS_PRESETS["no-horizontal"]) == 13


def test_every_enumerated_tiling_validates_and_is_unique():
    for n in range(9):
        seen = set()
        for tiling in enumerate_tilings(n):
            assert validate(tiling) == []
            key = to_tokens(tiling)
            assert key not in seen
            seen.add(key)
        assert len(seen) == tetranacci(n)


def test_enumeration_is_deterministic():
    first = [to_tokens(t) for t in enumerate_tilings(7)]
    second = [to_tokens(t) for t in enumerate_tilings(7)]
    assert first == second


def test_count_agrees_with_enumeration_length():
    for preset in CLASS_PRESETS.values():
        for n in range(8):
            assert count_by_enumeration(n, preset) == sum(1 for _ in enumerate_tilings(n, preset))


def test_pruned_enumeration_equals_filtered_full_enumeration():
    for name, preset in CLASS_PRESETS.items():
        for n in range(10):
            pruned = [to_tokens(t) for t in enumerate_tilings(n, preset)]
            filtered = [
                to_tokens(t)
                for t in enumerate_tilings(n)
                if all(tile.tile_class in preset for tile in t.tiles)
            ]
            assert pruned == filtered, f"{name} at n={n}"


def test_class_set_validation():
    with pytest.raises(ValueError):
        count_by_enumeration(4, frozenset())
    with pytest.raises(ValueError):
        count_by_enumeration(4, {"slanted"})
    with pytest.raises(ValueError):
        count_by_enumeration(-1)


def test_partition_by_first_domino_n5():
    groups = partition_by_first(5, DOMINO_CLASSES)
    assert groups == {None: 1, 2: 4, 3: 5, 4: 3, 5: 2}


def test_partition_horizontal_or_left_pin():
    groups = partition_by_first(6, {HORIZONTAL, LEFT_INCLINED})
    assert groups[4] == 3


def test_partition_totals_and_agreement_with_direct_scan():
    for classes in (
        DOMINO_CLASSES,
        frozenset({SQUARE}),
        frozenset({HORIZONTAL}),
        frozenset({HORIZONTAL, LEFT_INCLINED}),
        frozenset({RIGHT_INCLINED, LEFT_INCLINED}),
    ):
        for n in range(13):
            groups = partition_by_first(n, classes)
            assert sum(groups.values()) == tetranacci(n)
            direct: dict = {}
            for tiling in enumerate_tilings(n):
                key = first_tile_of_class(tiling, classes)
                direct[key] = direct.get(key, 0) + 1
            assert groups == direct


CLASS_SETS = [
    frozenset(subset)
    for size in range(1, 5)
    for subset in combinations(sorted(ALL_CLASSES), size)
]


def reference_walk(n, classes):
    """The canonical order from cell sets alone: cover the lowest free cell with
    S@c, then I@(c+1), then H@(c+2); build fresh tiles and sort each leaf."""
    def extend(covered, tiles):
        free = [c for c in range(1, n + 1) if c not in covered]
        if not free:
            yield Tiling.of(n, tiles)
            return
        c = free[0]
        for tile, cells in ((Tile(c, "S"), {c}), (Tile(c + 1, "I"), {c, c + 1}),
                            (Tile(c + 2, "H"), {c, c + 2})):
            if tile.tile_class in classes and max(cells) <= n and not cells & covered:
                yield from extend(covered | cells, [*tiles, tile])

    return list(extend(frozenset(), []))


def test_walk_matches_reference_and_yields_canonical_tilings():
    assert len(CLASS_SETS) == 15
    for classes in CLASS_SETS:
        for n in range(15):
            walked = list(enumerate_tilings(n, classes))
            for tiling in walked:
                assert validate(tiling) == []
                assert tiling == Tiling.of(tiling.length, tiling.tiles)
            assert walked == reference_walk(n, classes), (sorted(classes), n)


def test_token_lines_are_the_tokens_of_the_walk():
    for classes in CLASS_SETS:
        for n in range(15):
            expected = [to_tokens(t) for t in enumerate_tilings(n, classes)]
            assert list(_token_lines(n, classes)) == expected, (sorted(classes), n)
    assert list(_token_lines(0, ALL_CLASSES)) == [""]


def test_token_lines_check_the_cap_before_the_first_line(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "10")
    with pytest.raises(CapExceeded):
        _token_lines(11, ALL_CLASSES)  # raised by the call, not by the first next()


def test_tilings_and_single_strips_check_the_cap_before_the_first_item(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "10")
    for walk in (enumerate_tilings, enumerate_single_strip):
        with pytest.raises(CapExceeded):
            walk(11)  # raised by the call, not by the first next()


def single_strip_reference(n):
    """Square/domino tilings of n cells from the sequences of parts 1 and 2
    summing to n, sorted; a part ends at the running sum."""
    parts = sorted(p for k in range(n + 1) for p in product((1, 2), repeat=k) if sum(p) == n)
    return [
        SingleStripTiling(n, tuple(
            SingleTile(end, "S" if part == 1 else "D") for part, end in zip(p, accumulate(p))
        ))
        for p in parts
    ]


@pytest.mark.parametrize("shared", [0, 1, 3, 256, 10**6])
def test_walk_lists_the_same_paths_whatever_it_shares(monkeypatch, shared):
    # 0 shares no finish, so every path walks to the end; 10**6 shares them all
    monkeypatch.setattr(enumerator, "_SHARED_FINISHES", shared)
    for n in range(15):
        for classes in CLASS_SETS:
            expected = reference_walk(n, classes)
            assert list(enumerate_tilings(n, classes)) == expected, (sorted(classes), n)
            tokens = [to_tokens(t) for t in expected]
            assert list(_token_lines(n, classes)) == tokens, (sorted(classes), n)
            head = '{"n":%d,"tokens":"' % n
            framed = [head + line + '"}' for line in tokens]
            assert list(_token_lines(n, classes, head, '"}')) == framed, (sorted(classes), n)
        assert list(enumerate_single_strip(n)) == single_strip_reference(n), n


def test_deep_strips_list_tokens_without_recursion(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "3000")
    first = next(_token_lines(3000, ALL_CLASSES))
    assert first == " ".join(f"S{c}" for c in range(1, 3001))


def test_ranks_count_off_the_canonical_order():
    for n in range(17):
        ranking = CanonicalRank(n)
        assert ranking.total == tetranacci(n)
        assert [ranking.rank(t.tiles) for t in enumerate_tilings(n)] == list(range(ranking.total))


def test_each_move_covers_the_frontier_up_to_its_next_cell_in_location_order():
    # every move of the endless strip, those past the end of a 16-cell strip included
    for classes in CLASS_PRESETS.values():
        strip = _strip(16, classes)
        for c in range(1, 17):
            for tiles, next_c in strip[c]:
                locations = [tile.location for tile in tiles]
                assert locations == sorted(set(locations)), (c, tiles)
                cells = [cell for tile in tiles for cell in tile.cells]
                assert sorted(cells) == list(range(c, next_c)), (c, tiles)


def theorem1_blocks(c):
    """Theorem 1's four ways to cover cell c, in canonical order, with their next cells."""
    return [
        ((Tile(c, "S"),), c + 1),
        ((Tile(c + 1, "I"),), c + 2),
        ((Tile(c + 1, "S"), Tile(c + 2, "H")), c + 3),
        ((Tile(c + 2, "H"), Tile(c + 3, "H")), c + 4),
    ]


def test_compiled_blocks_are_theorem1s_four(monkeypatch):
    # every cell of the endless strip has all four; the i-th block reaches cell
    # c + i, so the n-cell strip's ways keep the leading blocks that fit
    monkeypatch.setenv("HEXDOMINO_MAX_N", "39")
    for n in range(40):
        strip = _strip(n)
        ways = _ways(strip, n)
        for c in range(1, n + 1):
            assert list(strip[c]) == theorem1_blocks(c), (n, c)
            finishing = [move for move in strip[c] if ways[move[1]]]
            assert finishing == theorem1_blocks(c)[:min(n - c + 1, 4)], (n, c)


def test_restricted_tables_keep_the_allowed_blocks_in_order(monkeypatch):
    # a fresh filter per class set, grown one cell at a time
    monkeypatch.setenv("HEXDOMINO_MAX_N", "39")
    monkeypatch.setattr(enumerator, "_kept", {})
    for n in range(40):
        full = _strip(n)
        for classes in CLASS_SETS:
            strip = _strip(n, classes)
            assert [strip[c] for c in range(n + 1)] == [
                tuple(move for move in full[c] if all(t.tile_class in classes for t in move[0]))
                for c in range(n + 1)
            ], (sorted(classes), n)


def test_single_strip_blocks_are_a_square_then_a_domino():
    for n in range(40):
        strip = _compile(SingleTile._lowest, SingleTile)(n)
        ways = _ways(strip, n)
        assert len(strip) == n + 1  # a fresh strip grows through cell n and no further
        for c in range(1, n + 1):
            blocks = [((SingleTile(c, "S"),), c + 1), ((SingleTile(c + 1, "D"),), c + 2)]
            assert list(strip[c]) == blocks, (n, c)
            assert [move for move in strip[c] if ways[move[1]]] == blocks[:1 + (c < n)], (n, c)


def shifted(moves, by):
    return [(tuple((t.location + by, t.kind) for t in tiles), next_c + by) for tiles, next_c in moves]


def move_classes(moves):
    return [[t.tile_class for t in tiles] for tiles, _ in moves]


def test_every_cell_is_cell_1_or_2_shifted():
    # `_compile`'s docstring proves this for every cell; checked here to cell 400
    double = _compile(_MIN_LOCATION, enumerator._tile)(400)
    single = _compile(SingleTile._lowest, SingleTile)(400)
    for c in range(1, 401):
        p = 2 - c % 2  # 1 or 2, of c's parity
        assert shifted(double[c], 0) == shifted(double[p], c - p), c
        assert move_classes(double[c]) == move_classes(double[p]), c
        assert shifted(single[c], 0) == shifted(single[1], c - 1), c
    swap = {RIGHT_INCLINED: LEFT_INCLINED, LEFT_INCLINED: RIGHT_INCLINED}
    assert move_classes(double[2]) == [[swap.get(k, k) for k in move] for move in move_classes(double[1])]
    assert move_classes(double[1]) == [[SQUARE], [RIGHT_INCLINED], [SQUARE, HORIZONTAL],
                                       [HORIZONTAL, HORIZONTAL]]


def test_ways_end_each_strip_at_cell_n_plus_1_and_no_pass_counts_past_it(monkeypatch):
    # a move past the end has no way to finish, so every pass skips it: weighed
    # by 0 instead, it would key a group or a window with a count of 0
    monkeypatch.setenv("HEXDOMINO_MAX_N", "40")
    no_squares = CLASS_PRESETS["no-squares"]
    for n in range(41):
        single = correspondences._single_strip(n)
        for strip in (single, *(_strip(n, classes) for classes in CLASS_SETS)):
            ways = _ways(strip, n)
            assert ways[n + 1] == 1 and not any(ways[n + 2:]), n
            assert all(next_c < len(ways) for c in range(n + 1) for _, next_c in strip[c]), n
        assert _ways(single, n)[1] == fibonacci_comb(n)
        for classes in CLASS_SETS:
            groups = partition_by_first(n, classes)
            assert all(count > 0 for count in groups.values()), (sorted(classes), n, groups)
        for lo, hi in ((n - 1, n), (n - 3, n), (n // 2, n // 2 + 3)):
            tally = enumerator.tally_by_window(n, lo, hi, attrgetter("tiles"))
            assert all(count > 0 for count in tally.values()), (n, lo, hi)
        if n % 2:
            assert count_by_enumeration(n, no_squares) == 0
            assert list(enumerate_tilings(n, no_squares)) == [], n
            assert list(_token_lines(n, no_squares)) == [], n


def test_tile_cells_follow_the_lowest_locations():
    for k in range(1, 51):
        assert Tile(k, "S").cells == {k}
        if k >= 2:
            assert Tile(k, "I").cells == {k - 1, k}
        if k >= 3:
            assert Tile(k, "H").cells == {k - 2, k}


def cut(strip, n):
    """The n-cell table the endless strip stands for: from c = n down, the moves
    whose next cell is at most n + 1, as the per-length compiler made them."""
    return {c: tuple(move for move in strip[c] if move[1] <= n + 1) for c in range(n, 0, -1)}


def reference_compile(n, lowest, make):
    """The per-length compiler the endless strip replaced, kept as the reference
    for its `cut`: it compiles every cell of the n-cell strip anew and drops a tile
    past cell n as it lays it."""
    def blocks(free, covered, tiles):
        for kind, low in lowest.items():
            k = free + low - 1
            if k > n or k in covered or (tile := make(k, kind)) is None:
                continue
            now, next_c = covered | {free, k}, free + 1
            while next_c in now:
                next_c += 1
            if max(now) < next_c:
                yield tuple(sorted(tiles + (tile,))), next_c
            else:
                yield from blocks(next_c, now, tiles + (tile,))

    return {c: tuple(blocks(c, frozenset(), ())) for c in range(n, 0, -1)}


def test_tables_equal_the_per_length_compiler(monkeypatch):
    # a fresh strip grows cell by cell to 59, then serves the long strips: 501
    # grows it, and 500 and 499 read that compile; every class set filters it
    monkeypatch.setenv("HEXDOMINO_MAX_N", "501")
    monkeypatch.setattr(enumerator, "_double_strip", _compile(_MIN_LOCATION, enumerator._tile))
    monkeypatch.setattr(enumerator, "_kept", {})
    for n in [*range(60), 501, 500, 499]:
        for classes in CLASS_SETS:
            def make(k, kind):
                tile = Tile(k, kind)
                return tile if tile.tile_class in classes else None

            expected = reference_compile(n, _MIN_LOCATION, make)
            assert list(cut(_strip(n, classes), n).items()) == list(expected.items()), (
                sorted(classes), n)
    single = _compile(SingleTile._lowest, SingleTile)
    for n in range(60):
        expected = reference_compile(n, SingleTile._lowest, SingleTile)
        assert list(cut(single(n), n).items()) == list(expected.items()), n


def test_each_cell_of_each_geometry_is_compiled_once_per_process(monkeypatch):
    # each geometry's one strip makes the tiles that one compile through its
    # longest length makes, whatever class sets read it: had any cell been compiled
    # twice, or a strip compiled per class set, it would have made its tiles twice
    compile_, strips = enumerator._compile, []

    def logged(lowest, make):
        made, longest = [], [0]

        def counted(k, kind):
            made.append((k, kind))
            return make(k, kind)

        def grown(n):
            longest[0] = max(longest[0], n)
            return strip(n)

        strip = compile_(lowest, counted)
        strips.append((lowest, make, made, longest))
        return grown

    monkeypatch.setattr(enumerator, "_compile", logged)
    monkeypatch.setattr(enumerator, "_double_strip", logged(_MIN_LOCATION, enumerator._tile))
    monkeypatch.setattr(correspondences, "_single_strip", logged(SingleTile._lowest, SingleTile))
    for classes in CLASS_SETS:
        list(enumerate_tilings(10, classes))
        count_by_enumeration(12, classes)
        partition_by_first(11, classes)
    CanonicalRank(10)
    assert verify_range("thm8", 3, 12, "oracle").ok
    list(enumerate_single_strip(9))
    list(enumerate_single_strip(6))
    assert [longest for *_, longest in strips] == [[24], [9]]  # double, single
    for lowest, make, made, longest in strips:
        once = []
        compile_(lowest, lambda k, kind: once.append((k, kind)) or make(k, kind))(longest[0])
        assert made == once, longest


def reference_fold(n, allowed, start, carry):
    """The per-path-carry fold the count and partition passes replaced, kept as
    their reference: each frontier cell maps to {key of a finish: its count},
    and `carry(tile, groups)` rekeys a finish's groups for a tile placed before it."""
    done = {n + 1: {start: 1}}
    for c, moves in cut(_strip(n, allowed), n).items():
        groups = {}
        for tiles, next_c in moves:
            rest = done[next_c]
            for tile in reversed(tiles):
                rest = carry(tile, rest)
            for key, count in rest.items():
                groups[key] = groups.get(key, 0) + count
        done[c] = groups
    return done[1]


def reference_partition(n, tracked):
    def carry(tile, groups):
        return {tile.location: sum(groups.values())} if tile.tile_class in tracked else groups

    return reference_fold(n, ALL_CLASSES, None, carry)


def reference_windows(n, lo, hi):
    def carry(tile, groups):
        if not lo <= tile.location <= hi:
            return groups
        return {(tile, *window): count for window, count in groups.items()}

    return reference_fold(n, ALL_CLASSES, (), carry)


def assert_passes_equal_the_reference_fold(n):
    for classes in CLASS_SETS:
        groups = partition_by_first(n, classes)
        assert groups == reference_partition(n, classes), (sorted(classes), n)
        located = [key for key in groups if key is not None]
        assert list(groups) == sorted(located) + [None] * (None in groups), (sorted(classes), n)
        counted = sum(reference_fold(n, classes, None, lambda tile, groups: groups).values())
        assert count_by_enumeration(n, classes) == counted, (sorted(classes), n)
    for lo, hi in ((n - 1, n), (n // 2, n // 2 + 3)):
        windows = enumerator.tally_by_window(n, lo, hi, lambda tiling: tiling.tiles)
        assert windows == reference_windows(n, lo, hi), (n, lo, hi)


def test_count_partition_and_window_passes_equal_the_reference_fold(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "39")
    for n in range(40):
        assert_passes_equal_the_reference_fold(n)


@pytest.mark.parametrize("n", [499, 500, 501])
def test_passes_equal_the_reference_fold_on_long_strips(monkeypatch, n):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "501")
    assert_passes_equal_the_reference_fold(n)


def reference_tally(n, lo, hi, classify):
    """The backward window fold the forward first-passage tally replaced, kept
    verbatim as its reference: each frontier cell maps to {window of a finish:
    its count}, each move's own tiles in lo..hi prefixed to its next cell's windows."""
    rests: dict[int, dict] = {n + 1: {(): 1}}
    for c, moves in cut(_strip(n), n).items():
        windows: dict = {}
        for tiles, next_c in moves:
            own = tuple(tile for tile in tiles if lo <= tile.location <= hi)
            for rest, count in rests[next_c].items():
                window = own + rest
                windows[window] = windows.get(window, 0) + count
        rests[c] = windows
    tally: dict = {}
    for window, count in rests[1].items():
        key = classify(Tiling(n, window))
        tally[key] = tally.get(key, 0) + count
    return tally


def assert_tally_equals_the_reference(n, lo, hi, classify=attrgetter("tiles")):
    windows = []
    tally = enumerator.tally_by_window(
        n, lo, hi, lambda tiling: windows.append(tiling.tiles) or classify(tiling))
    assert tally == reference_tally(n, lo, hi, classify), (n, lo, hi)
    assert len(windows) == len(set(windows)), (n, lo, hi)  # classified once per distinct window


def test_window_tally_equals_the_backward_fold_on_every_window():
    # windows that start or end off the strip, empty ones (hi < lo) and n = 0 included
    for n in range(14):
        for lo in range(-2, n + 4):
            for hi in range(lo - 2, n + 4):
                assert_tally_equals_the_reference(n, lo, hi)


@pytest.mark.parametrize("ns", [range(14, 31), range(31, 40)])
def test_window_tally_equals_the_backward_fold_on_narrow_windows(monkeypatch, ns):
    # a full-width window has T(n) distinct values here, so the width stays small
    monkeypatch.setenv("HEXDOMINO_MAX_N", "39")
    for n in ns:
        for lo in range(-2, n + 4):
            for hi in range(lo - 1, lo + 6):
                assert_tally_equals_the_reference(n, lo, hi)


@pytest.mark.parametrize("n", [499, 500, 501])
def test_window_tally_equals_the_backward_fold_on_long_strips(monkeypatch, n):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "501")
    assert_tally_equals_the_reference(n, n - 1, n, last_tile_group)
    diagonal = classify_diagonal if n % 2 == 0 else attrgetter("tiles")
    assert_tally_equals_the_reference(n, n // 2, n // 2 + 3, diagonal)


def test_deep_strips_fold_without_recursion(monkeypatch):
    # far beyond the interpreter's recursion limit of about 1000 frames
    monkeypatch.setenv("HEXDOMINO_MAX_N", "1500")
    assert count_by_enumeration(1500) == tetranacci(1500)
    assert sum(partition_by_first(300, DOMINO_CLASSES).values()) == tetranacci(300)


def test_deep_strips_enumerate_without_recursion(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "3000")
    first = next(enumerate_tilings(3000))
    assert len(first.tiles) == 3000 and all(tile.kind == "S" for tile in first.tiles)


def test_deep_strips_of_one_tiling_share_a_bounded_number_of_finishes(monkeypatch):
    # each cell has one finish here, so a bound per cell would share all 3,000
    # cells' finishes: 4.5 million tile references, 36 MB
    monkeypatch.setenv("HEXDOMINO_MAX_N", "3000")
    for classes in ({SQUARE}, {HORIZONTAL}):
        tracemalloc.start()
        try:
            # two items at most, so a walk that lists more fails instead of running on
            assert len(list(islice(enumerate_tilings(3000, classes), 2))) == 1
            assert len(list(islice(_token_lines(3000, classes), 2))) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, classes


def test_classify_diagonal_examples():
    assert classify_diagonal(parse_tokens("I2 I4", 4)).key == "breakable"
    assert classify_diagonal(parse_tokens("S1 I3 S4", 4)).key == "inclined"
    assert classify_diagonal(parse_tokens("H3 H4", 4)).key == "both-horizontals"
    assert classify_diagonal(parse_tokens("S2 H3 S4", 4)).key == "low-horizontal:square"
    assert classify_diagonal(parse_tokens("S1 S3 H4", 4)).key == "high-horizontal:square"


def test_classify_diagonal_horizontal_subcases():
    # d=3: lone crossing H@4, cell 3 itself under a (non-crossing) horizontal
    assert classify_diagonal(parse_tokens("H3 H4 S5 S6", 6)).key == "low-horizontal:horizontal"
    # d=3: lone crossing H@5, cell 4 under the non-crossing H@6
    assert classify_diagonal(parse_tokens("S1 S2 H5 H6", 6)).key == "high-horizontal:horizontal"
    # exhaustive cross-check over all length-6 tilings against the closed terms
    observed: dict = {}
    for tiling in enumerate_tilings(6):
        key = classify_diagonal(tiling).key
        observed[key] = observed.get(key, 0) + 1
    assert observed == thm3_expected_histogram(3)


def test_classify_rejects_odd_length():
    with pytest.raises(ValueError):
        classify_diagonal(parse_tokens("S1 S2 S3", 3))


def test_histogram_n2_exact():
    hist = {d.key: v for d, v in histogram_by_descriptor(2).items()}
    assert hist.get("breakable") == 4
    assert hist.get("inclined") == 1
    assert hist.get("both-horizontals") == 1
    assert hist.get("low-horizontal:square") == 1
    assert hist.get("high-horizontal:square") == 1
    assert hist.get("low-horizontal:horizontal", 0) == 0
    assert hist.get("high-horizontal:horizontal", 0) == 0


def test_histogram_total_is_t2n():
    assert sum(histogram_by_descriptor(4).values()) == 108
    for n in range(6):
        assert sum(histogram_by_descriptor(n).values()) == tetranacci(2 * n)


def test_histogram_matches_closed_terms():
    for n in range(2, 6):
        observed = {d.key: v for d, v in histogram_by_descriptor(n).items()}
        expected = thm3_expected_histogram(n)
        for key, value in expected.items():
            assert observed.get(key, 0) == value, f"{key} at n={n}"


def test_histogram_equals_exhaustive_classification():
    # the fold classifies each distinct window once; the reference classifies every tiling
    for h in range(10):
        exhaustive = Counter(classify_diagonal(t) for t in enumerate_tilings(2 * h))
        assert histogram_by_descriptor(h) == exhaustive, h


def test_histogram_past_the_cap(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "1000")
    observed = {d.key: v for d, v in histogram_by_descriptor(500).items()}
    assert observed == thm3_expected_histogram(500)


def test_cap_default_and_violation():
    assert max_cells() == 24
    with pytest.raises(CapExceeded):
        list(enumerate_tilings(25))
    with pytest.raises(CapExceeded):
        count_by_enumeration(25)
    with pytest.raises(CapExceeded):
        partition_by_first(25, DOMINO_CLASSES)
    with pytest.raises(CapExceeded):
        histogram_by_descriptor(13)


def test_histogram_by_descriptor_rejects_a_negative_half_length():
    with pytest.raises(ValueError, match="^half-length must be >= 0, got -1$"):
        histogram_by_descriptor(-1)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "10")
    assert max_cells() == 10
    with pytest.raises(CapExceeded):
        count_by_enumeration(11)
    assert count_by_enumeration(10) == tetranacci(10)


def test_cap_env_rejects_garbage(monkeypatch):
    for raw in ("plenty", "-1"):
        monkeypatch.setenv("HEXDOMINO_MAX_N", raw)
        with pytest.raises(ValueError, match="non-negative integer"):
            max_cells()
