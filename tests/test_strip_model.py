"""Geometry core: tiles, tilings, validation, tokens, splitting, rendering."""
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexdomino import (
    DOMINO_CLASSES,
    HORIZONTAL,
    LEFT_INCLINED,
    ParseError,
    Tile,
    Tiling,
    UnbreakableError,
    cells_of,
    enumerate_tilings,
    first_tile_of_class,
    is_breakable,
    parse_tokens,
    render_ascii,
    split_at,
    tile_at,
    to_tokens,
    validate,
)


def tiling_of(n, *tokens):
    return parse_tokens(" ".join(tokens), n)


def test_cells_of_by_kind():
    assert cells_of(Tile(4, "S")) == {4}
    assert cells_of(Tile(4, "I")) == {3, 4}
    assert cells_of(Tile(4, "H")) == {2, 4}


def test_cells_of_a_single_strip_tile():
    from hexdomino import SingleTile

    assert cells_of(SingleTile(4, "S")) == {4}
    assert cells_of(SingleTile(4, "D")) == {3, 4}


@pytest.mark.parametrize("text", ["S1\tI3\nS4", "  S1   I3 S4 ", "S1\u3000I3 S4", "S1\x1cI3 S4"])
def test_parse_tokens_takes_single_ascii_spaces_between_tokens_only(text):
    # `to_tokens` writes "S1 I3 S4" for this tiling, and nothing else parses to it
    assert to_tokens(parse_tokens("S1 I3 S4", 4)) == "S1 I3 S4"
    with pytest.raises(ParseError, match="malformed token"):
        parse_tokens(text, 4)


def test_tile_class_over_parity():
    assert Tile(2, "S").tile_class == "square"
    assert Tile(4, "I").tile_class == "right-inclined"
    assert Tile(3, "I").tile_class == LEFT_INCLINED
    assert Tile(3, "H").tile_class == HORIZONTAL


def test_tile_location_minimums():
    with pytest.raises(ValueError):
        Tile(0, "S")
    with pytest.raises(ValueError):
        Tile(1, "I")
    with pytest.raises(ValueError):
        Tile(2, "H")
    with pytest.raises(ValueError):
        Tile(1, "X")


def test_tile_str():
    assert str(Tile(3, "I")) == "I3"


def test_tile_api_is_its_two_fields():
    # the cached token is not a field: equality, hash, order and repr ignore it
    assert Tile._fields == ("location", "kind")
    tile = Tile(4, "H")
    assert tile.token == "H4"
    assert repr(tile) == "Tile(location=4, kind='H')"
    assert tile == Tile(4, "H") and hash(tile) == hash(Tile(4, "H"))
    assert hash(tile) == hash((4, "H"))
    assert tile != Tile(4, "I") and tile != Tile(5, "H")
    assert sorted([Tile(4, "S"), Tile(3, "I"), Tile(4, "I")]) == [
        Tile(3, "I"), Tile(4, "I"), Tile(4, "S")
    ]
    assert Tile(3, "H") < Tile(4, "H") and Tile(4, "H") < Tile(4, "S")
    with pytest.raises(AttributeError):
        tile.location = 5
    with pytest.raises(AttributeError):
        tile.kind = "S"


def test_validate_accepts_known_tilings():
    assert validate(tiling_of(4, "S1", "S2", "S3", "S4")) == []
    assert validate(tiling_of(4, "H3", "H4")) == []


def test_validate_reports_uncovered_cell():
    broken = Tiling(4, (Tile(1, "S"), Tile(2, "S"), Tile(3, "S")))
    assert any("cell 4" in v for v in validate(broken))


def test_validate_reports_double_cover():
    broken = Tiling.of(2, [Tile(1, "S"), Tile(2, "S"), Tile(2, "I")])
    assert validate(broken)  # cell collisions and duplicate locations both flagged


def test_validate_reports_overhang():
    broken = Tiling(3, (Tile(1, "S"), Tile(2, "S"), Tile(3, "S"), Tile(4, "S")))
    assert any("beyond" in v or "length" in v for v in validate(broken))


@pytest.mark.parametrize("n, tokens, violations", [
    # each passes every check of validate's fast path but one
    (3, "S1 I2 S3", ["cell 1 covered by both S1 and I2"]),  # set sizes sum to 4
    (4, "I2 I3", ["cell 2 covered by both I2 and I3", "cell 4 uncovered"]),  # union holds 3
    (2, "S1 S3", ["tile S3 covers cell 3 beyond length 2", "cell 2 uncovered"]),  # last > n
    (2, "S2 S1", ["tiles are not in ascending location order"]),  # locations descend
])
def test_validate_rejects_what_only_one_check_catches(n, tokens, violations):
    tiles = tuple(Tile(int(token[1:]), token[0]) for token in tokens.split())
    assert validate(Tiling(n, tiles)) == violations


def test_validate_builds_no_mask_for_tiles_out_of_order():
    # the last tile lies in the strip, but a tile before it lies far past it:
    # the tiling is walked per cell, and the walk caches no cell set on a tile
    far = Tile(3000000, "S")
    assert validate(Tiling(5, (far, Tile(1, "S")))) == [
        "tiles are not in ascending location order",
        "tile S3000000 covers cell 3000000 beyond length 5",
        "cells 2..5 uncovered",
    ]
    assert "cells" not in far.__dict__


def test_to_tokens_examples():
    assert to_tokens(tiling_of(4, "S1", "S2", "S3", "S4")) == "S1 S2 S3 S4"
    assert to_tokens(tiling_of(4, "H3", "H4")) == "H3 H4"
    assert to_tokens(parse_tokens("", 0)) == ""


def test_parse_tokens_round_trip_example():
    tiling = parse_tokens("H3 H4", 4)
    assert tiling.tiles == (Tile(3, "H"), Tile(4, "H"))


def test_parse_tokens_rejects_duplicate_location():
    with pytest.raises(ParseError):
        parse_tokens("S1 S1", 2)


def test_parse_tokens_rejects_uncovered_cells():
    with pytest.raises(ParseError) as err:
        parse_tokens("I2", 4)
    assert "3" in str(err.value) and "4" in str(err.value)


@pytest.mark.parametrize("text", ["Q3", "s1", "S", "3", "S1 extra2", "H2"])
def test_parse_tokens_rejects_malformed_tokens(text):
    with pytest.raises(ParseError):
        parse_tokens(text, 4)


@pytest.mark.parametrize("text", ["S² I3 S4", "S١ I3 S4", "S01 I3 S4", "S0 S1 I3 S4", "S1 I3 S+4"])
def test_parse_tokens_takes_only_ascii_locations_without_a_leading_zero(text):
    # `to_tokens` writes [SIH][1-9][0-9]*; other digits `str.isdigit` accepts are no token
    with pytest.raises(ParseError, match="^malformed token"):
        parse_tokens(text, 4)


@given(st.text(max_size=12))
def test_parse_tokens_total_on_garbage(text):
    # any input either parses to a valid tiling or raises ParseError, nothing else
    try:
        tiling = parse_tokens(text, 4)
    except ParseError:
        return
    assert validate(tiling) == []


def test_tile_at_examples():
    double = tiling_of(4, "H3", "H4")
    assert tile_at(double, 1) == Tile(3, "H")
    assert tile_at(double, 4) == Tile(4, "H")
    assert tile_at(tiling_of(4, "S1", "S2", "S3", "S4"), 2) == Tile(2, "S")


def test_tile_at_rejects_cells_off_the_strip_and_uncovered_cells():
    squares = tiling_of(4, "S1", "S2", "S3", "S4")
    for cell in (0, 5):
        with pytest.raises(ValueError, match=f"^cell {cell} out of range 1..4$"):
            tile_at(squares, cell)
    with pytest.raises(ValueError, match="^cell 4 is uncovered$"):
        tile_at(Tiling(4, squares.tiles[:3]), 4)


def test_is_breakable_examples():
    inclined_pair = tiling_of(4, "I2", "I4")
    assert is_breakable(inclined_pair, 2)
    assert not is_breakable(tiling_of(4, "H3", "H4"), 2)
    assert is_breakable(tiling_of(4, "H3", "H4"), 0)
    assert is_breakable(tiling_of(4, "H3", "H4"), 4)
    with pytest.raises(ValueError):
        is_breakable(inclined_pair, 5)


def test_split_at_shifts_suffix():
    prefix, suffix = split_at(tiling_of(4, "I2", "I4"), 2)
    assert (prefix.length, to_tokens(prefix)) == (2, "I2")
    assert (suffix.length, to_tokens(suffix)) == (2, "I2")


def test_split_at_prefix_of_squares():
    prefix, suffix = split_at(tiling_of(4, "S1", "S2", "S3", "S4"), 1)
    assert to_tokens(prefix) == "S1"
    assert to_tokens(suffix) == "S1 S2 S3"


def test_split_at_unbreakable_raises():
    with pytest.raises(UnbreakableError):
        split_at(tiling_of(4, "H3", "H4"), 2)


def test_first_tile_of_class_examples():
    assert first_tile_of_class(tiling_of(4, "H3", "H4"), {HORIZONTAL, LEFT_INCLINED}) == 3
    assert first_tile_of_class(tiling_of(4, "S1", "S2", "S3", "S4"), DOMINO_CLASSES) is None
    assert first_tile_of_class(tiling_of(4, "S1", "I3", "S4"), DOMINO_CLASSES) == 3
    with pytest.raises(ValueError):
        first_tile_of_class(tiling_of(4, "H3", "H4"), {"slanted"})


def test_render_ascii_examples():
    assert render_ascii(tiling_of(4, "H3", "H4")) == "[H4] [H4]\n[H3] [H3]"
    assert render_ascii(tiling_of(2, "S1", "S2")) == "[S2]\n[S1]"
    assert render_ascii(tiling_of(2, "I2")) == "[R2]\n[R2]"
    assert render_ascii(tiling_of(4, "S1", "I3", "S4")) == "[L3] [S4]\n[S1] [L3]"


def test_token_round_trip_full_enumerations():
    for n in range(10):
        for tiling in enumerate_tilings(n):
            assert parse_tokens(to_tokens(tiling), n) == tiling


def test_tiles_partition_the_strip():
    for n in range(9):
        for tiling in enumerate_tilings(n):
            covered = [c for tile in tiling.tiles for c in cells_of(tile)]
            assert sorted(covered) == list(range(1, n + 1))


def test_breakable_iff_split_succeeds():
    for n in range(8):
        for tiling in enumerate_tilings(n):
            for d in range(n + 1):
                if is_breakable(tiling, d):
                    prefix, suffix = split_at(tiling, d)
                    assert validate(prefix) == [] and validate(suffix) == []
                    assert (prefix.length, suffix.length) == (d, n - d)
                else:
                    with pytest.raises(UnbreakableError):
                        split_at(tiling, d)
