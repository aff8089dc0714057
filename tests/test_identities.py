"""Identity registry: closed evaluation, oracle verification, partition checks."""
import json
import random
from collections import Counter
from functools import cache
from operator import lshift, mul

import pytest

from hexdomino import (
    CapExceeded,
    closed_count,
    enumerate_tilings,
    evaluate,
    fibonacci_comb as fib,
    get_identity,
    list_identities,
    pow2,
    tetranacci,
    tetranacci as tet,
    thm3_expected_histogram,
    verify_range,
)
from hexdomino import identities
from hexdomino.cli import main
from hexdomino.enumerator import last_tile_group
from hexdomino.identities import ABSENT, GroupCheck, IdentityRecord

REGISTRY_ORDER = [
    "thm1",
    "thm2_num",
    "thm3",
    "thm4",
    "lemma1",
    "thm5_printed",
    "thm5_corrected",
    "lemma2",
    "lemma3",
    "thm6",
    "thm7",
    "thm8",
    "thm8c_printed",
    "thm8c_corrected",
]

LOWER_BOUNDS = {
    "thm1": 4,
    "thm2_num": 6,
    "thm3": 4,
    "thm4": 5,
    "lemma1": 0,
    "thm5_printed": 3,
    "thm5_corrected": 3,
    "lemma2": 0,
    "lemma3": 0,
    "thm6": 3,
    "thm7": 5,
    "thm8": 3,
    "thm8c_printed": 2,
    "thm8c_corrected": 2,
}

# oracle-enumerable spans under the default 24-cell cap
ORACLE_SPANS = {
    "thm1": (4, 24),
    "thm2_num": (6, 24),
    "thm3": (4, 12),
    "thm4": (5, 9),
    "lemma1": (0, 9),
    "thm5_printed": (3, 5),
    "thm5_corrected": (3, 6),
    "lemma2": (0, 12),
    "lemma3": (0, 9),
    "thm6": (3, 6),
    "thm7": (5, 10),
    "thm8": (3, 6),
    "thm8c_printed": (2, 5),
    "thm8c_corrected": (2, 6),
}

PRINTED_MISMATCHES = {"thm5_printed", "thm8c_printed"}


# Reference evaluators: each identity's two sides as stated, one scalar call
# per term, so the registry's term offsets are checked against the paper.
def _thm5_terms(n, first):
    return (
        first
        + sum(pow2(i) * tet(2 * n - 2 * i - 2) for i in range(1, n))
        + 5 * sum(pow2(i) * tet(2 * n - 2 * i - 5) for i in range(0, n - 2))
    )


def _thm8c_terms(n, shift):
    return sum(fib(i - 1) ** 2 * tet(2 * n - 2 * i + 1) for i in range(1, n + 1)) + sum(
        fib(i - 1) * fib(i) * tet(2 * n - 2 * i + shift) for i in range(1, n + 1)
    )


TERM_BY_TERM = {
    "thm1": (lambda n: tet(n), lambda n: tet(n - 1) + tet(n - 2) + tet(n - 3) + tet(n - 4)),
    "thm2_num": (lambda n: 2 * tet(n - 1), lambda n: tet(n) + tet(n - 5)),
    "thm3": (
        lambda n: tet(2 * n),
        lambda n: tet(n) ** 2 + tet(n - 1) ** 2 + tet(n - 2) ** 2
        + 2 * tet(n - 1) * (tet(n - 2) + tet(n - 3)),
    ),
    "thm4": (
        lambda n: tet(n) - 1,
        lambda n: tet(n - 2) + 2 * tet(n - 3) + 3 * sum(tet(i) for i in range(0, n - 3)),
    ),
    "lemma1": (lambda n: closed_count("squares-right", 2 * n), lambda n: pow2(n)),
    "thm5_printed": (
        lambda n: tet(2 * n) - pow2(n),
        lambda n: _thm5_terms(n, 2 * tet(n - 3)),
    ),
    "thm5_corrected": (
        lambda n: tet(2 * n) - pow2(n),
        lambda n: _thm5_terms(n, 2 * tet(2 * n - 3)),
    ),
    "lemma2": (lambda n: closed_count("no-horizontal", n), lambda n: fib(n)),
    "lemma3": (lambda n: closed_count("no-squares", 2 * n), lambda n: fib(n)),
    "thm6": (
        lambda n: tet(2 * n) - fib(n),
        lambda n: sum(tet(2 * n + 1 - 2 * i) * fib(i) for i in range(1, n + 1)),
    ),
    "thm7": (
        lambda n: tet(n) - fib(n),
        lambda n: sum(fib(i) * tet(n - i - 2) for i in range(1, n - 1)),
    ),
    "thm8": (
        lambda n: tet(2 * n) - fib(n) ** 2,
        lambda n: sum(fib(i - 1) ** 2 * tet(2 * n - 2 * i) for i in range(1, n + 1))
        + sum(fib(i - 2) * fib(i - 1) * tet(2 * n - 2 * i + 1) for i in range(2, n + 1)),
    ),
    "thm8c_printed": (
        lambda n: tet(2 * n + 1) - fib(n) * fib(n + 1),
        lambda n: _thm8c_terms(n, 2),
    ),
    "thm8c_corrected": (
        lambda n: tet(2 * n + 1) - fib(n) * fib(n + 1),
        lambda n: _thm8c_terms(n, 0),
    ),
}


def test_registry_size_and_order():
    assert [d.id for d in list_identities()] == REGISTRY_ORDER


def test_registry_provenance():
    for descriptor in list_identities():
        if descriptor.id.endswith("_corrected"):
            assert descriptor.provenance == "corrected-variant"
        else:
            assert descriptor.provenance == "paper-stated"


def test_registry_lower_bounds():
    assert {d.id: d.n_lo for d in list_identities()} == LOWER_BOUNDS
    # unbounded above: every identity still evaluates far past the tested ranges
    for descriptor in list_identities():
        evaluate(descriptor.id, 500)


def test_each_printed_misprint_is_its_corrected_twin_with_the_printed_right_side():
    for printed_id in PRINTED_MISMATCHES:
        printed = get_identity(printed_id)
        corrected = get_identity(printed_id.replace("_printed", "_corrected"))
        for field in ("lhs", "strip_length", "oracle"):
            assert getattr(printed, field) is getattr(corrected, field), (printed_id, field)
        assert printed.n_lo == corrected.n_lo
        assert printed.provenance == "paper-stated" and printed.partition_expected is None


FIRST_TILE = ("thm4", "thm5_corrected", "thm6", "thm7", "thm8", "thm8c_corrected")


def test_each_first_tile_left_side_is_t_less_its_absent_group():
    # tilings holding a tile of the tracked classes = all tilings - those holding none
    for identity_id in FIRST_TILE:
        descriptor = get_identity(identity_id)
        for n in range(descriptor.n_lo, descriptor.n_lo + 41):
            groups = descriptor.partition_expected(n)
            assert next(iter(groups)) == ABSENT, identity_id
            assert descriptor.lhs(n) == tet(descriptor.strip_length(n)) - groups[ABSENT], (
                identity_id, n)


def test_each_lemma_left_side_is_the_closed_count_of_its_preset():
    lemmas = {"lemma1": ("squares-right", 2), "lemma2": ("no-horizontal", 1),
              "lemma3": ("no-squares", 2)}
    for identity_id, (preset, cells_per_n) in lemmas.items():
        descriptor = get_identity(identity_id)
        for n in range(41):
            assert descriptor.strip_length(n) == cells_per_n * n, (identity_id, n)
            assert descriptor.lhs(n) == closed_count(preset, cells_per_n * n), (identity_id, n)


def test_get_identity_unknown():
    with pytest.raises(ValueError):
        get_identity("thm9")


def test_evaluate_pins():
    assert evaluate("thm3", 4) == (108, 108)
    assert evaluate("thm2_num", 9) == (216, 216)
    assert evaluate("thm2_num", 9)[1] == tetranacci(9) + tetranacci(4)  # 208 + 8
    assert evaluate("thm5_printed", 3) == (21, 15)
    assert evaluate("thm5_corrected", 3) == (21, 21)
    assert evaluate("thm8c_printed", 2) == (9, 17)
    assert evaluate("thm8c_corrected", 2) == (9, 9)


def test_evaluate_range_guard():
    with pytest.raises(ValueError):
        evaluate("thm1", 3)
    with pytest.raises(ValueError):
        evaluate("thm7", 4)


def test_closed_equality_to_40_for_sound_identities():
    for descriptor in list_identities():
        if descriptor.id in PRINTED_MISMATCHES:
            continue
        report = verify_range(descriptor.id, descriptor.n_lo, 40, mode="closed")
        assert report.ok, descriptor.id
        assert len(report.records) == 41 - descriptor.n_lo


def test_printed_variants_fail_everywhere_to_40():
    # not just at the first n: the misprint is off at every stated size
    for identity_id in PRINTED_MISMATCHES:
        lo = LOWER_BOUNDS[identity_id]
        report = verify_range(identity_id, lo, 40, mode="closed")
        assert all(not record.equal for record in report.records)


def test_evaluate_matches_term_by_term_sums_to_300():
    assert list(TERM_BY_TERM) == REGISTRY_ORDER
    for identity_id, (lhs, rhs) in TERM_BY_TERM.items():
        for n in range(LOWER_BOUNDS[identity_id], 301):
            expected = (lhs(n), rhs(n))
            assert evaluate(identity_id, n) == expected, (identity_id, n)
            if identity_id in PRINTED_MISMATCHES:
                assert expected[0] != expected[1], (identity_id, n)


def test_partition_terms_add_up_to_the_closed_form_past_the_cap():
    # No enumeration: each expected partition, the first-inclined weights
    # included, sums to the left side far above the oracle's cap.
    for descriptor in list_identities():
        if descriptor.partition_expected is None:
            continue
        for n in range(descriptor.n_lo, 401):
            groups = descriptor.partition_expected(n)
            located = sum(groups.values()) - groups.get(ABSENT, 0)
            assert located == descriptor.lhs(n), (descriptor.id, n)
            if descriptor.id not in PRINTED_MISMATCHES:
                assert located == descriptor.rhs(n), (descriptor.id, n)


def test_first_inclined_weight_memo_is_append_only():
    # The oracle's expected first-inclined groups, g(j) T(length-j), read the f and T
    # memos term by term; the largest n first, so the small ones read a grown memo.
    for n in (250, *range(2, 41)):
        for identity_id, length in (("thm8", 2 * n), ("thm8c_corrected", 2 * n + 1)):
            if n >= LOWER_BOUNDS[identity_id]:
                groups = get_identity(identity_id).partition_expected(n)
                assert list(groups) == [ABSENT, *map(str, range(2, length + 1))]
                for j in range(2, length + 1):
                    weight = fib(j // 2 - 1) * fib((j + 1) // 2 - 1)
                    assert groups[str(j)] == weight * tet(length - j), (identity_id, n, j)
                located = sum(groups.values()) - groups[ABSENT]
                assert located == TERM_BY_TERM[identity_id][1](n), (identity_id, n)


def test_oracle_mode_all_identities():
    for descriptor in list_identities():
        lo, hi = ORACLE_SPANS[descriptor.id]
        report = verify_range(descriptor.id, lo, hi, mode="oracle")
        for record in report.records:
            assert record.oracle_total == record.lhs, (descriptor.id, record.n)
            if descriptor.id in PRINTED_MISMATCHES:
                assert not record.equal and record.checks_ok and not record.ok
            else:
                assert record.ok


def test_oracle_partitions_are_complete():
    # group counts (including the absent group) exhaust all tilings of the strip
    for identity_id in ("thm4", "thm5_corrected", "thm6", "thm7", "thm8", "thm8c_corrected"):
        descriptor = get_identity(identity_id)
        lo, hi = ORACLE_SPANS[identity_id]
        for record in verify_range(identity_id, lo, hi, mode="oracle").records:
            assert record.groups is not None
            total = sum(g.observed for g in record.groups)
            assert total == tetranacci(descriptor.strip_length(record.n))
            located = sum(g.observed for g in record.groups if g.key != "absent")
            assert located == record.oracle_total
            assert all(g.match for g in record.groups)


def test_partition_group_keys_are_locations_or_absent():
    record = verify_range("thm4", 6, 6, mode="oracle").records[0]
    assert [g.key for g in record.groups] == ["absent", "2", "3", "4", "5", "6"]


def test_thm1_tail_groups():
    record = verify_range("thm1", 8, 8, mode="oracle").records[0]
    groups = {g.key: g.observed for g in record.groups}
    assert groups == {
        "square": tetranacci(7),
        "inclined": tetranacci(6),
        "horizontal+square": tetranacci(5),
        "horizontal+horizontal": tetranacci(4),
    }


def test_thm1_groups_equal_exhaustive_last_tile_rule():
    oracle = get_identity("thm1").oracle
    for n in range(1, 19):
        exhaustive = Counter(last_tile_group(t) for t in enumerate_tilings(n))
        assert oracle(n).groups == exhaustive, n


def test_thm1_groups_past_the_cap(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "1000")
    descriptor = get_identity("thm1")
    outcome = descriptor.oracle(1000)
    assert outcome.groups == descriptor.partition_expected(1000)
    assert outcome.total == tet(1000)


def test_thm2_groups_past_the_cap(monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "1000")
    descriptor = get_identity("thm2_num")
    outcome = descriptor.oracle(500)
    assert outcome.groups == descriptor.partition_expected(500)
    assert outcome.total == 2 * tet(499)


def test_thm2_synthetic_groups():
    record = verify_range("thm2_num", 9, 9, mode="oracle").records[0]
    groups = {g.key: g.observed for g in record.groups}
    assert groups == {"9": tetranacci(9), "4": tetranacci(4), "missing": 0, "duplicated": 0}


def test_thm6_has_no_group_at_last_even_location():
    # a first square cannot sit at location 2n: that cell closes the strip
    for record in verify_range("thm6", 3, 6, mode="oracle").records:
        keys = {g.key for g in record.groups}
        assert str(2 * record.n) not in keys


def test_fit_searches_only_the_requested_range(monkeypatch):
    # a huge cap must not make the search for the first n past it step up to the cap
    monkeypatch.setenv("HEXDOMINO_MAX_N", "1000000000")
    assert get_identity("thm4").fit(5, 5, "oracle") == range(5, 6)
    assert get_identity("thm3").fit(0, 40, "oracle") == range(4, 41)
    monkeypatch.setenv("HEXDOMINO_MAX_N", "12")
    assert get_identity("thm3").fit(0, 40, "oracle") == range(4, 7)
    assert get_identity("thm3").fit(4, 7, "oracle") == range(4, 7)
    assert get_identity("thm3").fit(7, 40, "oracle") == range(7, 7)
    assert get_identity("thm4").fit(9, 3, "oracle") == range(9, 4)


def test_verify_range_argument_errors():
    with pytest.raises(ValueError):
        verify_range("thm1", 10, 4)
    with pytest.raises(ValueError):
        verify_range("thm1", 4, 8, mode="fuzzy")
    with pytest.raises(ValueError):
        verify_range("thm1", 2, 8)
    with pytest.raises(CapExceeded):
        verify_range("thm3", 4, 20, mode="oracle")


def test_record_json_shape_closed():
    record = verify_range("thm1", 5, 5, mode="closed").records[0]
    payload = record.to_json_dict()
    assert list(payload) == ["id", "n", "lhs", "rhs", "equal", "mode", "ok"]
    assert payload["lhs"] == "15" and payload["rhs"] == "15"
    assert payload["equal"] is True and payload["ok"] is True


def test_record_json_shape_oracle_with_groups():
    record = verify_range("thm4", 5, 5, mode="oracle").records[0]
    payload = record.to_json_dict()
    assert list(payload) == ["id", "n", "lhs", "rhs", "equal", "mode", "oracle_total", "groups", "ok"]
    assert payload["oracle_total"] == "14"
    assert {"key": "2", "expected": "4", "observed": "4", "match": True} in payload["groups"]


def test_record_json_shape_oracle_without_partition():
    record = verify_range("lemma1", 5, 5, mode="oracle").records[0]
    payload = record.to_json_dict()
    assert "groups" not in payload
    assert payload["oracle_total"] == "32"


def test_an_oracle_group_with_no_expected_term_fails_the_record_and_the_cli(monkeypatch, capsys):
    thm4 = get_identity("thm4")

    def oracle(n):
        outcome = thm4.oracle(n)
        return outcome._replace(groups={**outcome.groups, "stray": 1})

    stray = thm4._replace(oracle=oracle)
    record = stray.record(5, "oracle")
    assert record.groups[-1] == GroupCheck("stray", 0, 1)
    assert '{"key":"stray","expected":"0","observed":"1","match":false}' in record.to_json_line()
    assert record.equal and not record.checks_ok and not record.ok
    monkeypatch.setitem(identities._BY_ID, "thm4", stray)
    argv = ["verify", "--identity", "thm4", "--mode", "oracle", "--from", "5", "--to", "5"]
    assert main([*argv, "--expect-mismatch"]) == 2
    assert capsys.readouterr().out == record.to_json_line() + "\n"


def reference_dict(record):
    """The record as a dict, field by field, for the standard encoder: the reference
    for `to_json_line`."""
    payload = {
        "id": record.id,
        "n": record.n,
        "lhs": str(record.lhs),
        "rhs": str(record.rhs),
        "equal": record.equal,
        "mode": record.mode,
    }
    if record.oracle_total is not None:
        payload["oracle_total"] = str(record.oracle_total)
    if record.groups is not None:
        payload["groups"] = [
            {"key": g.key, "expected": str(g.expected), "observed": str(g.observed),
             "match": g.match}
            for g in record.groups
        ]
    payload["ok"] = record.ok
    return payload


@cache
def oracle_records():
    """Every oracle record under the default cap, for every identity."""
    return tuple(
        record
        for descriptor in list_identities()
        for record in verify_range(descriptor.id, *ORACLE_SPANS[descriptor.id], mode="oracle").records
    )


def test_json_line_is_the_reference_encoding():
    closed = tuple(
        record
        for descriptor in list_identities()
        for record in verify_range(descriptor.id, descriptor.n_lo, 120).records
    )
    # a failed oracle total and group, so `false` shows in every boolean field
    broken = IdentityRecord("thm4", 5, 14, 13, "oracle", 15, (GroupCheck("absent", 1, 2),))
    for record in (*closed, *oracle_records(), broken):
        line = record.to_json_line()
        assert line == json.dumps(reference_dict(record), separators=(",", ":")), (
            record.id, record.n, record.mode)
        assert record.to_json_dict() == reference_dict(record)


def test_closed_cli_lines_are_the_records_lines(capsys):
    argv = ["verify", "--identity", "all", "--from", "0", "--to", "120", "--expect-mismatch"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [r for d in list_identities() for r in verify_range(d.id, d.n_lo, 120).records]
    assert lines == [record.to_json_line() for record in records]
    assert lines == [json.dumps(reference_dict(r), separators=(",", ":")) for r in records]


def test_ids_and_group_keys_need_no_json_escaping():
    keys = {descriptor.id for descriptor in list_identities()}
    for record in oracle_records():
        keys.update(g.key for g in record.groups or ())
    assert {ABSENT, "missing", "duplicated", "low-horizontal:square", "horizontal+square"} <= keys
    for key in keys:
        assert json.dumps(key) == '"%s"' % key, key


def tet_terms(start, stop, step=1):
    return [tet(i) for i in range(start, stop, step)]


def _thm5_sums(n):
    # the two sums term by term: the reference for Horner's rule
    return sum(map(lshift, tet_terms(2 * n - 4, -2, -2), range(1, n))) + 5 * sum(
        map(lshift, tet_terms(2 * n - 5, -1, -2), range(0, n - 2)))


def test_thm5_tail_by_horner_rule_in_either_direction(monkeypatch):
    tail = identities._thm5_tail
    for n in (*range(3, 401), *range(400, 2, -1)):
        assert tail(n) == _thm5_sums(n), n
    monkeypatch.setattr(tail, "state", tail.seed)  # back to n = 3; restored afterwards
    assert tail(700) == _thm5_sums(700)
    assert tail.state[0] == 700 and len(tail.state[1]) == 1  # one value kept, not a table
    with pytest.raises(ValueError):
        tail(2)  # below the stated range: raises, and must leave a valid state
    assert tail(4) == _thm5_sums(4)


# Reference right sides, summed over lists of terms with one product per term, as
# the paper states them.  The stepped sums must equal them exactly.
def _fib_terms(start, stop, step=1):
    return [fib(i) for i in range(start, stop, step)]


def _weight_terms(start, stop, step=1):
    return [fib(j // 2 - 1) * fib((j + 1) // 2 - 1) for j in range(start, stop, step)]


def _by_first_inclined(length):
    return sum(map(mul, _weight_terms(2, length + 1), tet_terms(length - 2, -1, -1)))


reference_rhs = {
    "thm4": lambda n: tet(n - 2) + 2 * tet(n - 3) + 3 * sum(tet_terms(0, n - 3)),
    "thm5_printed": lambda n: 2 * tet(n - 3) + _thm5_sums(n),
    "thm5_corrected": lambda n: 2 * tet(2 * n - 3) + _thm5_sums(n),
    "thm6": lambda n: sum(map(mul, tet_terms(2 * n - 1, -1, -2), _fib_terms(1, n + 1))),
    "thm7": lambda n: sum(map(mul, _fib_terms(1, n - 1), tet_terms(n - 3, -1, -1))),
    "thm8": lambda n: _by_first_inclined(2 * n),
    # even j against T(2n+1-j), odd j against T(2n+3-j)
    "thm8c_printed": lambda n: sum(map(
        mul, _weight_terms(2, 2 * n + 1, 2) + _weight_terms(3, 2 * n + 2, 2),
        tet_terms(2 * n - 1, -1, -2) + tet_terms(2 * n, 0, -2))),
    "thm8c_corrected": lambda n: _by_first_inclined(2 * n + 1),
}

STEPPERS = [v for v in vars(identities).values() if isinstance(v, identities._Stepper)]


def _reset_steppers(monkeypatch):
    for stepper in STEPPERS:
        monkeypatch.setattr(stepper, "state", stepper.seed)  # restored afterwards


@cache
def _reference(identity_id, n):
    return reference_rhs[identity_id](n)


def test_stepped_sums_equal_the_sums_term_by_term(monkeypatch):
    for identity_id in reference_rhs:
        rhs = get_identity(identity_id).rhs
        ascending = list(range(LOWER_BOUNDS[identity_id], 601))
        shuffled = random.Random(identity_id).sample(ascending, len(ascending))
        for n in (*ascending, *reversed(ascending), *shuffled):
            assert rhs(n) == _reference(identity_id, n), (identity_id, n)
    _reset_steppers(monkeypatch)
    for identity_id in reference_rhs:
        assert get_identity(identity_id).rhs(1500) == reference_rhs[identity_id](1500)


# Every n below the stated range at which a right side raises ValueError; at any
# other such n it equals its sum term by term.  thm5's tail starts at its stated
# n = 3, the other stepped sums at n = 0, and T(-2) is undefined.
RAISES_BELOW_RANGE = {
    "thm4": range(-6, 2),
    "thm5_printed": range(-6, 3),
    "thm5_corrected": range(-6, 3),
    "thm6": range(-6, 0),
    "thm7": range(-6, 0),
    "thm8": range(-6, 0),
    "thm8c_printed": range(-6, 0),
    "thm8c_corrected": range(-6, 0),
}


def test_stepped_sums_below_the_stated_range_raise_or_agree(monkeypatch):
    for identity_id in reference_rhs:
        rhs = get_identity(identity_id).rhs
        for n in (600, *range(LOWER_BOUNDS[identity_id] - 1, -7, -1)):
            if n in RAISES_BELOW_RANGE[identity_id]:
                with pytest.raises(ValueError):
                    rhs(n)
            else:
                assert rhs(n) == _reference(identity_id, n), (identity_id, n)
        assert rhs(600) == _reference(identity_id, 600)  # a raise leaves a valid state


def test_closed_all_to_300_steps_each_n_once_but_for_the_shared_twin_sums(monkeypatch):
    _reset_steppers(monkeypatch)
    steps = Counter()
    for name, stepper in vars(identities).items():
        if isinstance(stepper, identities._Stepper):
            def counted(n, window, step=stepper.step, name=name):
                steps[name, n] += 1
                return step(n, window)
            monkeypatch.setattr(stepper, "step", counted)
    assert main(["verify", "--identity", "all", "--from", "0", "--to", "300"]) == 2
    assert sum(steps.values()) == 2682
    # each printed twin restarts the one sum it shares with its corrected twin
    assert {name for (name, n), count in steps.items() if count > 1} == {"_thm5_tail", "_s1"}
    assert max(steps.values()) == 2


def test_steppers_keep_one_window_and_closed_records_grow_no_weight_memo(monkeypatch):
    assert len(STEPPERS) == 7
    _reset_steppers(monkeypatch)
    for descriptor in list_identities():
        report = verify_range(descriptor.id, descriptor.n_lo, 500)
        assert report.ok is (descriptor.id not in PRINTED_MISMATCHES), descriptor.id
    # no memo of weights or terms: the sequence kernels hold the only memos
    assert not [name for name, value in vars(identities).items() if isinstance(value, list)]
    for stepper in STEPPERS:
        assert set(vars(stepper)) == {"first", "step", "seed", "state"}
        last, window = stepper.state
        assert last >= 500 and len(window) == len(stepper.seed[1])


def test_printed_record_flags():
    record = verify_range("thm5_printed", 3, 3, mode="oracle").records[0]
    assert not record.equal
    assert record.oracle_total == 21
    assert record.checks_ok and not record.ok


def test_thm3_expected_histogram_bounds():
    with pytest.raises(ValueError):
        thm3_expected_histogram(1)
    # n=2 uses T(-1)=0 for both horizontal sub-cases
    expected = thm3_expected_histogram(2)
    assert expected["breakable"] == 4
    assert expected["low-horizontal:horizontal"] == 0
    assert sum(expected.values()) == tetranacci(4)
