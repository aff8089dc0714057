"""Properties of random valid tilings, drawn move by move from the frontier automaton."""
from hypothesis import given
from hypothesis import strategies as st

from hexdomino import (
    ALL_CLASSES,
    Tiling,
    UnbreakableError,
    classify_diagonal,
    is_breakable,
    parse_tokens,
    split_at,
    thm2_map,
    to_tokens,
    validate,
)
from hexdomino.enumerator import _moves, last_tile_group


@st.composite
def tilings(draw, min_length=0, max_length=40):
    """A valid tiling: from each frontier state, one of the moves `_moves` allows."""
    n = draw(st.integers(min_length, max_length))
    tiles, c, next_covered = [], 1, False
    while c <= n:
        tile, c, next_covered = draw(st.sampled_from(list(_moves(c, next_covered, n, ALL_CLASSES))))
        tiles.append(tile)
    return Tiling.of(n, tiles)


@given(tilings())
def test_tokens_round_trip(tiling):
    assert validate(tiling) == []
    assert parse_tokens(to_tokens(tiling), tiling.length) == tiling


@given(tilings())
def test_tokens_spell_each_tile(tiling):
    # drawn tilings and thm2_map's images hold tiles built outside the walk's table
    images = thm2_map(tiling) if tiling.length >= 4 else ()
    for t in (tiling, *images):
        assert to_tokens(t) == " ".join(f"{x.kind}{x.location}" for x in t.tiles)
        assert parse_tokens(to_tokens(t), t.length) == t


@given(tilings())
def test_breakable_iff_split_succeeds(tiling):
    for d in range(tiling.length + 1):
        try:
            prefix, suffix = split_at(tiling, d)
        except UnbreakableError:
            assert not is_breakable(tiling, d)
        else:
            assert is_breakable(tiling, d)
            assert validate(prefix) == [] and validate(suffix) == []


@given(tilings(min_length=4))
def test_thm2_images_are_valid(tiling):
    first, second = thm2_map(tiling)
    assert validate(first) == [] and validate(second) == []
    assert first.length == tiling.length + 1
    assert second.length in (tiling.length + 1, tiling.length - 4)


def window(tiling, lo, hi):
    """The tiling's length with only its tiles located in lo..hi."""
    return Tiling.of(tiling.length, [t for t in tiling.tiles if lo <= t.location <= hi])


@given(tilings(min_length=1))
def test_per_tiling_rules_read_only_their_window(tiling):
    n = tiling.length
    assert last_tile_group(window(tiling, n - 1, n)) == last_tile_group(tiling)
    if n % 2 == 0:
        d = n // 2
        assert classify_diagonal(window(tiling, d, d + 3)) == classify_diagonal(tiling)
