"""Sequence kernels: exact values, recurrences, index conventions."""
import pytest

from hexdomino import (
    CLASS_PRESETS,
    closed_count,
    count_by_enumeration,
    fibonacci_comb,
    pow2,
    tetranacci,
)
from hexdomino.sequences import tetranacci_terms

TABLE = [1, 1, 2, 4, 8, 15, 29, 56, 108, 208, 401]


def test_tetranacci_table():
    assert [tetranacci(i) for i in range(11)] == TABLE


def test_tetranacci_minus_one_is_zero():
    assert tetranacci(-1) == 0


def test_tetranacci_below_minus_one_rejected():
    with pytest.raises(ValueError):
        tetranacci(-2)


def test_tetranacci_recurrence_exact_to_200():
    for i in range(4, 201):
        assert tetranacci(i) == sum(tetranacci(i - j) for j in (1, 2, 3, 4))


def test_tetranacci_pinned_deep_values():
    # big-integer checkpoints, far beyond float precision for the later one
    assert tetranacci(24) == 3919944
    assert tetranacci(25) == 7555935
    assert tetranacci(200) % 10**9 == tetranacci(200) - (tetranacci(200) // 10**9) * 10**9


# (start, stop, step): ascending, stepped, descending to T(-1) or T(0), empty
TERM_RANGES = [
    (0, 11, 1),
    (4, 40, 3),
    (600, 610, 1),
    (10, -2, -1),
    (9, -2, -2),
    (20, 0, -2),
    (10, -1, -1),
    (8, -1, -2),
    (3, 3, 1),
    (2, 5, -1),
]


@pytest.mark.parametrize("start, stop, step", TERM_RANGES)
def test_terms_accessors_match_scalar_calls(start, stop, step):
    indices = range(start, stop, step)
    assert tetranacci_terms(start, stop, step) == [tetranacci(i) for i in indices]


def test_terms_accessors_reject_indices_below_the_floor():
    with pytest.raises(ValueError, match="tetranacci index must be >= -1, got -2"):
        tetranacci_terms(3, -3, -1)
    with pytest.raises(ValueError, match="got -2"):
        tetranacci_terms(-2, 4)
    # an empty range names no index at all
    assert tetranacci_terms(-5, -5) == []


def test_fibonacci_convention_starts_one_one():
    assert [fibonacci_comb(i) for i in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_fibonacci_negative_rejected():
    with pytest.raises(ValueError):
        fibonacci_comb(-1)


def test_pow2_values_and_guard():
    assert pow2(0) == 1
    assert pow2(3) == 8
    assert pow2(10) == 1024
    with pytest.raises(ValueError):
        pow2(-1)


def test_closed_count_families():
    assert closed_count("all", 8) == 108
    assert closed_count("no-horizontal", 5) == 8
    assert closed_count("no-squares", 6) == 3
    assert closed_count("no-squares", 7) == 0
    assert closed_count("squares-right", 4) == 4
    assert closed_count("squares-right", 5) == 4


def test_closed_count_matches_fold_for_every_preset():
    # odd lengths included: no-squares is 0 there, squares-right ends in a square
    for name, preset in CLASS_PRESETS.items():
        for length in range(25):
            assert closed_count(name, length) == count_by_enumeration(length, preset), (name, length)


def test_closed_count_rejects_unknown_family_and_negative_size():
    with pytest.raises(ValueError):
        closed_count("H", 3)
    with pytest.raises(ValueError):
        closed_count("no-horizontal", -1)
