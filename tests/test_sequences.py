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
from hexdomino import sequences

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


def test_fibonacci_convention_starts_one_one():
    assert [fibonacci_comb(i) for i in range(9)] == [1, 1, 2, 3, 5, 8, 13, 21, 34]


def test_fibonacci_negative_rejected():
    with pytest.raises(ValueError):
        fibonacci_comb(-1)


def test_memo_hits_keep_both_floors_and_match_the_plain_recurrences():
    tetranacci(120), fibonacci_comb(120)  # both memos past index 100
    # a hit test that checked only the upper end would read _T[-1] or _F[-1]
    with pytest.raises(ValueError, match="got -2"):
        tetranacci(-2)
    with pytest.raises(ValueError, match="got -1"):
        fibonacci_comb(-1)
    t, f = [0, 1, 1, 2], [1, 1]  # T(-1..2), f(0..1)
    while len(t) < 502:
        t.append(t[-1] + t[-2] + t[-3] + t[-4])
    while len(f) < 501:
        f.append(f[-1] + f[-2])
    # ascending, then from the memo's middle back down
    for i in [*range(501), *range(500, -1, -7)]:
        assert tetranacci(i) == t[i + 1] and fibonacci_comb(i) == f[i], i
    assert tetranacci(-1) == 0


def test_a_memo_past_physical_memory_is_refused_unchanged():
    sizes = len(sequences._T), len(sequences._F)
    with pytest.raises(MemoryError):
        tetranacci(10**20)
    with pytest.raises(MemoryError):
        fibonacci_comb(10**20)
    assert (len(sequences._T), len(sequences._F)) == sizes


def test_the_memory_bound_is_a_floor_on_the_digits_the_memo_holds(monkeypatch):
    tetranacci(2000), fibonacci_comb(2000)
    for i in (10, 100, 1000, 2000):  # digits alone, without per-int overhead
        assert sum(x.bit_length() for x in sequences._T[: i + 2]) / 8 >= 0.059 * i * i
        assert sum(x.bit_length() for x in sequences._F[: i + 1]) / 8 >= 0.043 * i * i
    monkeypatch.setattr(sequences, "_MEMORY", 59_000)  # T's bound at i = 1000
    sequences._grow_tetranacci(1000)
    with pytest.raises(MemoryError):
        sequences._grow_tetranacci(1001)
    monkeypatch.setattr(sequences, "_MEMORY", 43_000)  # f's bound at i = 1000
    sequences._grow_fibonacci(1000)
    with pytest.raises(MemoryError):
        sequences._grow_fibonacci(1001)


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
