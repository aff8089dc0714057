"""Properties of random valid tilings, drawn move by move from the frontier automaton."""
import io
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexdomino import (
    CLASS_PRESETS,
    ParseError,
    Tile,
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
from hexdomino import cli
from hexdomino.enumerator import CanonicalRank, _double_strip, _token_lines, last_tile_group


@st.composite
def walked(draw, n):
    """A valid n-cell tiling: from each frontier cell, one of the compiled strip's
    moves that end by cell n + 1, and the index among them of each move taken.

    Built unsorted, so `validate` checks that the moves place tiles in order."""
    tiles, indices, c, strip = [], [], 1, _double_strip(n)
    while c <= n:
        moves = [move for move in strip[c] if move[1] <= n + 1]
        indices.append(draw(st.integers(0, len(moves) - 1)))
        move, c = moves[indices[-1]]
        tiles += move
    return Tiling(n, tuple(tiles)), indices


@st.composite
def tilings(draw, min_length=0, max_length=40):
    return draw(walked(draw(st.integers(min_length, max_length))))[0]


@given(tilings())
def test_tokens_round_trip(tiling):
    assert validate(tiling) == []
    assert parse_tokens(to_tokens(tiling), tiling.length) == tiling


# Digits `str.isdigit` accepts besides ASCII: fullwidth, Arabic-Indic, superscript.
OTHER_DIGITS = ("０１２３４５６７８９", "٠١٢٣٤٥٦٧٨٩", "⁰¹²³⁴⁵⁶⁷⁸⁹")


@given(st.data())
def test_parse_tokens_takes_back_exactly_the_lines_the_walk_writes(data):
    n = data.draw(st.integers(1, 14))
    classes = CLASS_PRESETS[data.draw(st.sampled_from(sorted(CLASS_PRESETS)))]
    lines = list(_token_lines(n, classes))
    if not lines:  # no tiling without squares of an odd strip
        return
    line = data.draw(st.sampled_from(lines))
    assert to_tokens(parse_tokens(line, n)) == line
    # the same location spelled with a leading zero or other digits is no token
    words = line.split(" ")
    i = data.draw(st.integers(0, len(words) - 1))
    kind, digits = words[i][0], words[i][1:]
    other = data.draw(st.sampled_from(OTHER_DIGITS))
    for spelling in ("0" + digits, "".join(other[int(d)] for d in digits)):
        words[i] = kind + spelling
        with pytest.raises(ParseError, match="malformed token"):
            parse_tokens(" ".join(words), n)


SEPARATORS = " \t\n\u3000"


@st.composite
def token_texts(draw):
    """(text, n): a line the walk writes with its gaps and ends redrawn from
    SEPARATORS, or any text over the tokens' letters, digits and SEPARATORS."""
    n = draw(st.integers(0, 10))
    words = draw(st.sampled_from(list(_token_lines(n, CLASS_PRESETS["all"])))).split()
    gaps = st.text(SEPARATORS, min_size=1, max_size=3)
    text = draw(st.text(SEPARATORS, max_size=2)) + "".join(
        word + draw(gaps) for word in words[:-1]) + "".join(words[-1:])
    text += draw(st.text(SEPARATORS, max_size=2))
    return draw(st.sampled_from([text, draw(st.text("SIH0123456789" + SEPARATORS))])), n


@given(token_texts())
def test_any_text_that_parses_is_the_text_to_tokens_writes(text_and_n):
    text, n = text_and_n
    try:
        tiling = parse_tokens(text, n)
    except ParseError:
        return
    assert to_tokens(tiling) == text


@given(tilings())
def test_tokens_spell_each_tile(tiling):
    # tokens are cached on interned tiles, shared by the moves, the walk and thm2_map
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


@given(st.data())
def test_rank_orders_tilings_as_the_walk_does(data):
    # the walk tries moves in strip order, so it meets tilings in the
    # lexicographic order of their move indices
    n = data.draw(st.integers(0, 40))
    (a, a_moves), (b, b_moves) = data.draw(walked(n)), data.draw(walked(n))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("HEXDOMINO_MAX_N", "40")  # past the default cap of 24
        ranking = CanonicalRank(n)
    rank_a, rank_b = ranking.rank(a.tiles), ranking.rank(b.tiles)
    assert rank_a in range(ranking.total) and rank_b in range(ranking.total)
    assert (rank_a < rank_b) == (a_moves < b_moves)
    assert (rank_a == rank_b) == (a == b)


any_tile = st.builds(
    lambda kind, offset: Tile({"S": 1, "I": 2, "H": 3}[kind] + offset, kind),
    st.sampled_from("SIH"),
    st.integers(0, 14),
)


@st.composite
def tile_tuples(draw):
    """A valid tiling as drawn or after one edit that may break it, or random tiles.

    A split keeps the cells' mask sum, two S@(k-1) for S@k, and breaks only the
    cell count; a swap keeps every cell covered once and breaks only the order.
    """
    edit = draw(st.sampled_from(("swap", "split", None, "repeat", "drop", "add", "length", "random")))
    if edit == "random":
        return Tiling(draw(st.integers(-2, 16)), tuple(draw(st.lists(any_tile, max_size=10))))
    tiling = draw(tilings(max_length=14))
    n, tiles = tiling.length, list(tiling.tiles)
    i = draw(st.integers(0, max(len(tiles) - 1, 0)))
    squares = [j for j, t in enumerate(tiles) if t.kind == "S" and t.location > 1]
    if edit == "length":
        n += draw(st.sampled_from((-2, -1, 1)))
    elif edit == "add":
        tiles.insert(i, draw(any_tile))
    elif edit == "split" and squares:
        j = draw(st.sampled_from(squares))
        tiles[j : j + 1] = [Tile(tiles[j].location - 1, "S")] * 2
    elif edit == "swap" and len(tiles) > 1:
        j = min(i, len(tiles) - 2)
        tiles[j], tiles[j + 1] = tiles[j + 1], tiles[j]
    elif edit in ("drop", "repeat") and tiles:
        tiles[i : i + 1] = [] if edit == "drop" else [tiles[i]] * 2
    return Tiling(n, tuple(tiles))


def covers_each_cell_once(tiling):
    """Reference validity, cell by cell: locations rise, and every cell of the
    strip, and no other, is covered by exactly one tile."""
    locations = [t.location for t in tiling.tiles]
    if tiling.length < 0 or any(a >= b for a, b in zip(locations, locations[1:])):
        return False
    below = {"S": (0,), "I": (0, 1), "H": (0, 2)}  # cells below the location
    covers = Counter(t.location - d for t in tiling.tiles for d in below[t.kind])
    return covers == Counter(range(1, tiling.length + 1))


@given(tile_tuples())
def test_validate_accepts_exactly_the_tilings_a_per_cell_check_accepts(tiling):
    assert (validate(tiling) == []) == covers_each_cell_once(tiling)


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


@given(tilings(min_length=4))
def test_thm2_map_reads_and_rewrites_only_the_last_two_locations(tiling):
    # both images are the input's tiles below location m - 1, unchanged, plus
    # the image of its last-two-location window padded with squares, there
    m = tiling.length
    top = window(tiling, m - 1, m).tiles
    covered = {cell for t in top for cell in t.cells}
    padded = Tiling.of(m, [*top, *(Tile(c, "S") for c in range(1, m + 1) if c not in covered)])
    rest = tuple(t for t in tiling.tiles if t.location < m - 1)
    for image, padded_image in zip(thm2_map(tiling), thm2_map(padded)):
        mapped = tuple(t for t in padded_image.tiles if t.location >= m - 1)
        assert image == Tiling(padded_image.length, rest + mapped)


# Values argparse and `int` read in ways easy to get wrong: a negative number,
# underscores, blanks, a sign, a flag-like word, an empty string.
ODD_VALUES = ("-1", "x", "1_0", " 7", "+3", "-x", "", "-", "--", "-h", "-1.5", "S1 I3 S4")


@st.composite
def command_lines(draw):
    """A command and a random subset of its flags in random order, mostly well
    formed, sometimes with `-h`, a repeat, an abbreviation, an `=` form or a
    missing value."""
    command = draw(st.sampled_from(sorted(cli._SPEC)))
    options = draw(st.permutations(cli._SPEC[command][2]))
    argv = [command]
    kept = draw(st.one_of(st.just(len(options)), st.integers(0, len(options))))
    for flag, keywords in options[:kept]:
        if keywords.get("action") == "store_true":
            argv.append(flag)
            continue
        if "choices" in keywords:
            fitting = st.sampled_from(keywords["choices"])
        elif "type" in keywords:
            fitting = st.integers(-3, 30).map(str)
        else:  # any string fits; these are the ones that may read as a flag
            fitting = st.sampled_from(("thm4", "all", "S1 I3 S4", *ODD_VALUES))
        value = draw(st.one_of(fitting, fitting, fitting, st.sampled_from(ODD_VALUES)))
        spelling = draw(st.sampled_from(
            ("exact",) * 12 + ("abbreviated", "joined", "repeated", "bare")))
        if spelling == "abbreviated" and len(flag) > 3:
            argv += [flag[: draw(st.integers(3, len(flag) - 1))], value]
        elif spelling == "joined":
            argv.append(f"{flag}={value}")
        elif spelling == "bare":
            argv.append(flag)
        else:
            argv += [flag, value] * (2 if spelling == "repeated" else 1)
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "-h")
    return argv


def argparse_namespace(argv):
    """What argparse makes of `argv`, or None where it prints help or an error."""
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return vars(cli._build_parser().parse_args(argv))
    except (cli._UsageError, SystemExit):
        return None


@settings(max_examples=400)
@given(command_lines())
def test_quick_parse_agrees_with_argparse(argv):
    quick = cli._quick_parse(argv)
    expected = argparse_namespace(argv)
    if expected is None:
        assert quick is None
    elif quick is not None:
        assert vars(quick) == expected


def test_quick_parse_takes_well_formed_lines():
    for argv in (
        ["count", "--n", "0"],
        ["enumerate", "--format", "jsonl", "--n", "16", "--classes", "no-squares"],
        ["render", "--n", "4", "--tiling", "S1 I3 S4"],
        ["verify", "--identity", "thm8", "--mode", "oracle", "--from", "3", "--to", "10"],
        ["verify", "--identity", "all", "--from", "0", "--to", "300", "--expect-mismatch"],
        ["bijection", "--n", "-1", "--name", "thm2"],
        ["sequences", "--name", "T", "--from", "-1", "--to", "9"],
    ):
        quick = cli._quick_parse(argv)
        assert quick is not None and vars(quick) == argparse_namespace(argv), argv
