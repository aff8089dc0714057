"""Executable correspondences: the 1-to-2 map and both stretch bijections."""
import itertools
import sys
from collections import Counter

import pytest

from hexdomino import (
    CLASS_PRESETS,
    CapExceeded,
    SingleStripTiling,
    SingleTile,
    Tile,
    Tiling,
    correspondences,
    enumerate_single_strip,
    enumerate_tilings,
    enumerator,
    fibonacci_comb,
    get_identity,
    lemma2_from_single,
    lemma2_to_single,
    lemma3_from_single,
    lemma3_to_single,
    parse_tokens,
    sequences,
    tetranacci,
    thm2_map,
    thm2_verify,
    to_tokens,
    verify_range,
)
from hexdomino.cli import main


def single_tokens(single):
    return " ".join(f"{t.kind}{t.location}" for t in single.tiles)


def test_single_strip_counts():
    assert sum(1 for _ in enumerate_single_strip(0)) == 1
    assert sum(1 for _ in enumerate_single_strip(2)) == 2
    assert sum(1 for _ in enumerate_single_strip(5)) == 8
    for length in range(15):
        assert sum(1 for _ in enumerate_single_strip(length)) == fibonacci_comb(length)


def test_single_strip_golden_order_n3():
    assert [single_tokens(s) for s in enumerate_single_strip(3)] == [
        "S1 S2 S3",
        "S1 D3",
        "D2 S3",
    ]


def test_single_strip_lists_the_sequences_of_ones_and_twos_in_order():
    # reference: the sequences of parts 1 and 2 summing to n, sorted, so
    # lexicographic with 1 before 2; a part ends at the running sum
    for n in range(15):
        parts = sorted(
            p for k in range(n + 1) for p in itertools.product((1, 2), repeat=k) if sum(p) == n
        )
        expected = [
            SingleStripTiling(n, tuple(
                SingleTile(end, "S" if part == 1 else "D")
                for part, end in zip(p, itertools.accumulate(p))
            ))
            for p in parts
        ]
        assert list(enumerate_single_strip(n)) == expected, n


def test_single_strip_cap():
    with pytest.raises(CapExceeded):
        list(enumerate_single_strip(25))


def test_deep_single_strip_enumerates_without_recursion(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "3000")
    first = next(enumerate_single_strip(3000))
    assert len(first.tiles) == 3000 and all(tile.kind == "S" for tile in first.tiles)


def test_thm2_map_square_case():
    first, second = thm2_map(parse_tokens("S1 S2 S3 S4 S5 S6", 6))
    assert to_tokens(first) == "S1 S2 S3 S4 S5 S6 S7"
    assert to_tokens(second) == "S1 S2 S3 S4 S5 I7"


def test_thm2_map_inclined_case():
    first, second = thm2_map(parse_tokens("S1 S2 S3 S4 I6", 6))
    assert to_tokens(first) == "S1 S2 S3 S4 I6 S7"
    assert to_tokens(second) == "S1 S2 S3 S4 S6 H7"


def test_thm2_map_stacked_horizontal_case():
    first, second = thm2_map(parse_tokens("S1 S2 H5 H6", 6))
    assert to_tokens(first) == "S1 S2 H5 H6 S7"
    assert (second.length, to_tokens(second)) == (2, "S1 S2")


def test_thm2_map_horizontal_over_square_case():
    first, second = thm2_map(parse_tokens("S1 S2 S3 S5 H6", 6))
    assert to_tokens(first) == "S1 S2 S3 S5 H6 S7"
    assert to_tokens(second) == "S1 S2 S3 H6 H7"


def test_thm2_map_rejects_short_inputs():
    with pytest.raises(ValueError):
        thm2_map(parse_tokens("S1 S2 S3", 3))


def test_thm2_map_rejects_invalid_inputs():
    with pytest.raises(ValueError, match="^input tiling is invalid: cell 4 uncovered$"):
        thm2_map(Tiling(4, (Tile(1, "S"), Tile(2, "S"), Tile(3, "S"))))


def test_thm2_outputs_never_collide():
    seen = set()
    for tiling in enumerate_tilings(8):
        first, second = thm2_map(tiling)
        for out in (first, second):
            key = (out.length, to_tokens(out))
            assert key not in seen
            seen.add(key)
    assert len(seen) == 2 * tetranacci(8)


def test_thm2_verify_pinned_sizes():
    report = thm2_verify(6)
    assert report.ok
    assert (report.inputs, report.outputs, report.expected_total) == (15, 30, 30)
    assert report.by_length == {6: tetranacci(6), 1: tetranacci(1)}
    assert thm2_verify(9).outputs == 216
    assert thm2_verify(12).ok


def test_thm2_verify_range_guard():
    with pytest.raises(ValueError):
        thm2_verify(4)


def test_thm2_verify_reports_a_broken_cover(monkeypatch, capsys):
    # the first input's second image repeats its first image
    real_map = correspondences.thm2_map
    victim = next(enumerate_tilings(7))

    def broken_map(tiling):
        first, second = real_map(tiling)
        return (first, first) if tiling == victim else (first, second)

    monkeypatch.setattr(correspondences, "thm2_map", broken_map)
    report = thm2_verify(8)
    assert report.duplicated == ("8:S1 S2 S3 S4 S5 S6 S7 S8",)
    assert report.missing == ("8:S1 S2 S3 S4 S5 S6 I8",)
    assert (report.inputs, report.outputs, report.expected_total) == (
        tetranacci(7),
        2 * tetranacci(7),
        tetranacci(8) + tetranacci(3),
    )
    assert not report.ok
    assert main(["bijection", "--name", "thm2", "--n", "8"]) == 2
    assert '"missing":1,"duplicated":1,"ok":false' in capsys.readouterr().out


def string_key_cover(n):
    """Reference for thm2_verify: one signed tally keyed by "length:tokens",
    +1 per image and -1 per target tiling, listing both targets."""
    balance, by_length = Counter(), Counter()
    inputs = 0
    for tiling in enumerate_tilings(n - 1):
        inputs += 1
        for image in thm2_map(tiling):
            balance[f"{image.length}:{to_tokens(image)}"] += 1
            by_length[image.length] += 1
    expected_total = 0
    for length in (n, n - 5):
        for tiling in enumerate_tilings(length):
            expected_total += 1
            balance[f"{length}:{to_tokens(tiling)}"] -= 1
    return correspondences.Thm2Report(
        n=n,
        inputs=inputs,
        outputs=sum(by_length.values()),
        expected_total=expected_total,
        by_length=dict(by_length),
        missing=tuple(sorted(k for k, v in balance.items() if v < 0)),
        duplicated=tuple(sorted(k for k, v in balance.items() if v > 0)),
    )


def test_thm2_verify_by_rank_matches_a_string_key_tally(monkeypatch):
    expected = {n: string_key_cover(n) for n in range(5, 15)}
    validated = []
    real_validate = correspondences.validate

    def counted_validate(tiling):
        validated.append(tiling.length)
        return real_validate(tiling)

    def forbidden(*args):
        raise AssertionError("the cover check must not read the recurrence")

    monkeypatch.setattr(correspondences, "validate", counted_validate)
    for name in ("tetranacci",):
        original = getattr(sequences, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("hexdomino"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)
    for n, reference in expected.items():
        validated.clear()
        assert thm2_verify(n) == reference
        assert len(validated) == 3 * reference.inputs


def test_thm2_verify_reports_images_of_another_length(monkeypatch):
    # the first input's second image is the input itself, one cell short
    real_map = correspondences.thm2_map
    victim = next(enumerate_tilings(7))

    def broken_map(tiling):
        first, second = real_map(tiling)
        return (first, tiling) if tiling == victim else (first, second)

    monkeypatch.setattr(correspondences, "thm2_map", broken_map)
    report = thm2_verify(8)
    assert report.duplicated == ("7:S1 S2 S3 S4 S5 S6 S7",)
    assert report.missing == ("8:S1 S2 S3 S4 S5 S6 I8",)
    assert report.by_length == {8: tetranacci(8) - 1, 3: tetranacci(3), 7: 1}
    assert not report.ok


def test_thm2_verify_checks_the_cap_before_walking(monkeypatch, capsys):
    def unreachable(tiling):
        raise AssertionError("no input may be mapped past the cap")

    monkeypatch.setattr(correspondences, "thm2_map", unreachable)
    monkeypatch.setenv("HEXDOMINO_MAX_N", "16")
    assert main(["bijection", "--name", "thm2", "--n", "17"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cap exceeded: strip length 17 exceeds the enumeration cap 16\n"
    monkeypatch.delenv("HEXDOMINO_MAX_N")
    with pytest.raises(CapExceeded, match="strip length 25 exceeds the enumeration cap 24"):
        thm2_verify(25)


def test_thm2_verify_extension_holds_at_n5():
    # below the stated range, but the stacked case lands on the empty tiling
    report = thm2_verify(5)
    assert report.ok
    assert report.outputs == 16


def exhaustive_thm2_outcome(n):
    """thm2_num's oracle groups and total, read off the exhaustive `thm2_verify`."""
    report = thm2_verify(n)
    groups = {str(k): report.by_length.get(k, 0) for k in (n, n - 5)}
    groups.update(missing=len(report.missing), duplicated=len(report.duplicated))
    return groups, report.outputs


def window_thm2_outcome(n):
    outcome = get_identity("thm2_num").oracle(n)
    return outcome.groups, outcome.total


def test_thm2_window_oracle_equals_the_exhaustive_cover():
    for n in range(6, 17):
        assert window_thm2_outcome(n) == exhaustive_thm2_outcome(n), n


def test_thm2_window_oracle_maps_one_tiling_per_window(monkeypatch):
    def unreachable(*args):
        raise AssertionError("the window oracle lists no tiling")

    real_map, mapped = correspondences.thm2_map, []

    def counting_map(tiling):
        mapped.append(tiling)
        return real_map(tiling)

    monkeypatch.setattr(correspondences, "thm2_map", counting_map)
    monkeypatch.setattr(correspondences, "thm2_verify", unreachable)
    monkeypatch.setattr(correspondences, "enumerate_tilings", unreachable)
    monkeypatch.setattr(enumerator, "_walk", unreachable)
    for n in (6, 24):
        mapped.clear()
        assert verify_range("thm2_num", n, n, mode="oracle").ok
        assert len(mapped) == 6  # one padded tiling per last-tile window


def thm2_case(tiling):
    """The case `thm2_map` splits on: the last tile's kind, and for a last
    horizontal also the kind of the tile located below it."""
    last = tiling.tiles[-1]
    return last.kind + (tiling.tiles[-2].kind if last.kind == "H" else "")


@pytest.mark.parametrize("case, second_image", [
    ("I", lambda tiling, first: first),  # lands on the first image's window
    ("HH", lambda tiling, first: first),  # the short case dropped
    ("S", lambda tiling, first: tiling),  # an image of length n - 1
])
def test_thm2_window_oracle_reports_a_broken_map_as_the_exhaustive_cover_does(
    monkeypatch, case, second_image
):
    real_map = correspondences.thm2_map

    def broken_map(tiling):
        first, second = real_map(tiling)
        return first, second_image(tiling, first) if thm2_case(tiling) == case else second

    monkeypatch.setattr(correspondences, "thm2_map", broken_map)
    for n in (8, 11):
        groups, total = window_thm2_outcome(n)
        assert (groups, total) == exhaustive_thm2_outcome(n), n
        assert groups["missing"] and groups["duplicated"]
        assert not verify_range("thm2_num", n, n, mode="oracle").records[0].checks_ok


def test_lemma2_examples():
    assert single_tokens(lemma2_to_single(parse_tokens("S1 S2 S3", 3))) == "S1 S2 S3"
    assert single_tokens(lemma2_to_single(parse_tokens("I2 I4", 4))) == "D2 D4"
    assert single_tokens(lemma2_to_single(parse_tokens("S1 I3 S4", 4))) == "S1 D3 S4"


def test_lemma2_rejects_horizontal():
    with pytest.raises(ValueError):
        lemma2_to_single(parse_tokens("H3 H4", 4))


def test_lemma2_round_trip_and_image():
    for n in range(13):
        image = set()
        domain = 0
        for tiling in enumerate_tilings(n, CLASS_PRESETS["no-horizontal"]):
            domain += 1
            single = lemma2_to_single(tiling)
            assert lemma2_from_single(single) == tiling
            image.add(single)
        assert len(image) == domain == fibonacci_comb(n)
        assert image == set(enumerate_single_strip(n))


def test_lemma3_examples():
    assert single_tokens(lemma3_to_single(parse_tokens("I2 I4 I6", 6))) == "S1 S2 S3"
    assert single_tokens(lemma3_to_single(parse_tokens("H3 H4 I6", 6))) == "D2 S3"


def test_lemma3_rejects_squares_and_odd_length():
    with pytest.raises(ValueError):
        lemma3_to_single(parse_tokens("S1 S2", 2))
    with pytest.raises(ValueError):
        lemma3_to_single(parse_tokens("S1 I3", 3))


def test_lemma3_parity_assertions():
    # impossible-for-valid-input states trip assertions, not soft errors
    with pytest.raises(AssertionError):
        lemma3_to_single(Tiling.of(4, [Tile(3, "H"), Tile(4, "I")]))
    with pytest.raises(AssertionError):
        lemma3_to_single(Tiling.of(4, [Tile(3, "I"), Tile(4, "I")]))


def test_all_domino_tilings_never_use_left_inclined():
    for n in range(0, 9):
        for tiling in enumerate_tilings(2 * n, CLASS_PRESETS["no-squares"]):
            assert all(tile.tile_class != "left-inclined" for tile in tiling.tiles)


def test_lemma3_round_trip_and_image():
    for n in range(9):
        image = set()
        domain = 0
        for tiling in enumerate_tilings(2 * n, CLASS_PRESETS["no-squares"]):
            domain += 1
            single = lemma3_to_single(tiling)
            assert single.length == n
            assert lemma3_from_single(single) == tiling
            image.add(single)
        assert len(image) == domain == fibonacci_comb(n)
        assert image == set(enumerate_single_strip(n))


def test_lemma_inverses_from_single_side():
    for n in range(9):
        for single in enumerate_single_strip(n):
            assert lemma2_to_single(lemma2_from_single(single)) == single
            assert lemma3_to_single(lemma3_from_single(single)) == single
