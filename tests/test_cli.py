"""Command-line behavior: outputs, exit codes, determinism, the cap."""
import hashlib
import io
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hexdomino
from hexdomino import cli, identities, tetranacci
from hexdomino.cli import main

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


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table_value(capsys):
    code, out, _ = run(capsys, "count", "--n", "8")
    assert (code, out) == (0, "108\n")


def test_count_restricted(capsys):
    code, out, _ = run(capsys, "count", "--n", "6", "--classes", "no-horizontal")
    assert (code, out) == (0, "13\n")
    code, out, _ = run(capsys, "count", "--n", "7", "--classes", "no-squares")
    assert (code, out) == (0, "0\n")
    code, out, _ = run(capsys, "count", "--n", "3", "--classes", "squares-right")
    assert (code, out) == (0, "2\n")


def test_count_beyond_cap_uses_closed_form(capsys):
    code, out, _ = run(capsys, "count", "--n", "30")
    assert (code, out) == (0, "201061985\n")
    code, out, _ = run(capsys, "count", "--n", "40", "--classes", "no-horizontal")
    assert (code, out) == (0, "165580141\n")


def test_count_prints_past_int_str_limit(capsys):
    code, out, err = run(capsys, "count", "--n", "20000")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1 and lines[0].isdigit()
    assert len(lines[0]) > 4300
    assert int(lines[0][-9:]) == tetranacci(20000) % 10**9


def test_verify_prints_a_count_past_int_str_limit(capsys):
    # main lifts CPython's int-to-str limit before a record's template formats
    # its counts; put the default limit back first, as in a fresh process.
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "verify", "--identity", "thm1", "--from", "16000", "--to", "16000")
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    assert (code, err) == (0, "")
    (line,) = out.splitlines()
    record = json.loads(line)
    assert len(record["lhs"]) > 4300 and record["lhs"] == record["rhs"]
    assert int(record["lhs"][-9:]) == tetranacci(16000) % 10**9
    assert record["equal"] is True and record["ok"] is True


def test_count_negative_rejected(capsys):
    code, _, err = run(capsys, "count", "--n", "-3")
    assert code == 1
    assert err


def test_enumerate_negative_is_a_usage_error(capsys):
    for fmt in ("tokens", "jsonl"):
        code, out, err = run(capsys, "enumerate", "--n", "-1", "--format", fmt)
        assert (code, out, err) == (1, "", "usage error: --n must be >= 0, got -1\n"), fmt


def test_render_negative_is_a_usage_error(capsys):
    for tiling in ("S1", ""):
        assert run(capsys, "render", "--n", "-1", "--tiling", tiling) == (
            1, "", "usage error: --n must be >= 0, got -1\n"), tiling


def test_bijection_thm2_below_five_is_a_usage_error(capsys):
    for n in ("-1", "4"):
        assert run(capsys, "bijection", "--name", "thm2", "--n", n) == (
            1, "", f"usage error: --n must be >= 5, got {n}\n"), n


def test_sequences_below_the_first_index_is_a_usage_error(capsys):
    for name, first, start in (("T", -1, "-3"), ("f", 0, "-1")):
        assert run(capsys, "sequences", "--name", name, "--from", start, "--to", "2") == (
            1, "", f"usage error: --from must be >= {first}, got {start}\n"), name


def test_enumerate_golden(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4")
    assert code == 0
    assert out.splitlines() == GOLDEN_N4


def test_enumerate_jsonl(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--format", "jsonl")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0] == {"n": 3, "tokens": "S1 S2 S3"}
    assert len(records) == 4


def test_enumerate_line_count_matches_count(capsys):
    for n in ("0", "5", "9"):
        code, out, _ = run(capsys, "enumerate", "--n", n)
        count_code, count_out, _ = run(capsys, "count", "--n", n)
        assert code == count_code == 0
        assert len(out.splitlines()) == int(count_out)


def test_enumerate_over_cap_fails(capsys):
    code, out, err = run(capsys, "enumerate", "--n", "25")
    assert (code, out) == (1, "")
    assert "cap" in err


def test_render(capsys):
    code, out, _ = run(capsys, "render", "--n", "4", "--tiling", "S1 I3 S4")
    assert (code, out) == (0, "[L3] [S4]\n[S1] [L3]\n")


def test_render_rejects_bad_tiling(capsys):
    code, _, err = run(capsys, "render", "--n", "4", "--tiling", "S1 S2")
    assert code == 1
    assert "uncovered" in err


@pytest.mark.parametrize("token", ["S²", "S١", "S01"])
def test_render_rejects_a_location_not_written_in_ascii_digits(capsys, token):
    code, out, err = run(capsys, "render", "--n", "4", "--tiling", f"{token} I3 S4")
    assert (code, out, err) == (1, "", f"error: malformed token '{token}'\n")


@pytest.mark.parametrize("text", ["S1\tI3\nS4", "  S1   I3 S4 ", "S1\u3000I3 S4", "S1\x1cI3 S4"])
def test_render_takes_tokens_behind_single_ascii_spaces_only(capsys, text):
    code, out, err = run(capsys, "render", "--n", "4", "--tiling", text)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed token '") and err.count("\n") == 1


# A bare interpreter spawns the CLI and prints its exit code and peak RSS in
# kB: a child of the test process would start from the test process's memory.
LAUNCH = """import os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def test_render_rejects_a_tile_past_the_strip_before_building_its_mask():
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    for token in ("S3000000000", "S99999999999999999999"):
        result = subprocess.run(
            [sys.executable, "-S", "-c", LAUNCH, "-m", "hexdomino", "render", "--n", "5",
             "--tiling", token],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, peak_kb = map(int, result.stdout.split())
        assert code == 1
        assert result.stderr.splitlines() == [
            f"error: tile {token} covers cell {token[1:]} beyond length 5; cells 1..5 uncovered"
        ]
        assert peak_kb < 100 * 1024, token


def test_render_of_many_tiles_keeps_no_bitmask_per_tile():
    # 20,000 squares: a bitmask per tile would hold 200 million bits, 25 MB
    n = 20000
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, "-m", "hexdomino", "render", "--n", str(n),
         "--tiling", " ".join(f"S{k}" for k in range(1, n + 1))],
        capture_output=True, text=True, env=env, timeout=60,
    )
    upper, lower, status = result.stdout.splitlines()
    code, peak_kb = map(int, status.split())
    assert (code, result.stderr) == (0, "")
    assert upper.split()[-1] == f"[S{n}]" and lower.split()[-1] == f"[S{n - 1}]"
    assert peak_kb < 40 * 1024


def test_enumerate_n20_holds_no_more_than_a_block_of_lines():
    # 283,953 lines, about 17 MB of text: a walk holding every finish or line
    # would peak far above the 15 MB a streaming process uses
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, "-m", "hexdomino", "enumerate", "--n", "20"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    *lines, status = result.stdout.splitlines()
    code, peak_kb = map(int, status.split())
    assert (code, result.stderr, len(lines)) == (0, "", 283953)
    assert lines[0] == " ".join(f"S{c}" for c in range(1, 21))
    assert lines[-1] == " ".join(f"H{c}" for c in range(1, 21) if c % 4 in (0, 3))
    assert peak_kb < 25 * 1024


def test_render_reports_each_run_of_uncovered_cells_once(capsys):
    # one line for a billion uncovered cells, not one per cell
    code, out, err = run(capsys, "render", "--n", "1000000000", "--tiling", "")
    assert (code, out, err) == (1, "", "error: cells 1..1000000000 uncovered\n")
    code, out, err = run(capsys, "render", "--n", "6", "--tiling", "S2 S4")
    assert (code, err) == (1, "error: cell 1 uncovered; cell 3 uncovered; cells 5..6 uncovered\n")


def test_verify_closed_ok(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "thm2_num", "--from", "6", "--to", "12")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["n"] for r in records] == list(range(6, 13))
    assert all(r["ok"] and r["equal"] and r["mode"] == "closed" for r in records)


def test_verify_oracle_groups(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "thm4", "--from", "5", "--to", "6", "--mode", "oracle"
    )
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["oracle_total"] == "14"
    assert first["groups"][0] == {"key": "absent", "expected": "1", "observed": "1", "match": True}


def test_verify_printed_mismatch_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--identity", "thm5_printed", "--from", "3", "--to", "3")
    assert code == 2
    record = json.loads(out.splitlines()[0])
    assert record["equal"] is False and record["ok"] is False
    assert (record["lhs"], record["rhs"]) == ("21", "15")
    code, _, _ = run(
        capsys,
        "verify", "--identity", "thm5_printed", "--from", "3", "--to", "3", "--expect-mismatch",
    )
    assert code == 0


def test_verify_expect_mismatch_keeps_oracle_checks(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--identity", "thm8c_printed", "--from", "2", "--to", "4",
        "--mode", "oracle", "--expect-mismatch",
    )
    assert code == 0
    for line in out.splitlines():
        record = json.loads(line)
        assert record["equal"] is False and record["ok"] is False
        assert record["oracle_total"] == record["lhs"]


def test_verify_all_clamps_ranges(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "all", "--from", "0", "--to", "5", "--mode", "oracle"
    )
    assert code == 2  # printed variants are in range and unequal
    records = [json.loads(line) for line in out.splitlines()]
    by_id: dict = {}
    for record in records:
        by_id.setdefault(record["id"], []).append(record["n"])
    assert by_id["lemma1"] == [0, 1, 2, 3, 4, 5]
    assert by_id["thm1"] == [4, 5]
    assert "thm2_num" not in by_id  # lower bound 6 exceeds --to
    code, _, _ = run(
        capsys,
        "verify", "--identity", "all", "--from", "0", "--to", "5",
        "--mode", "oracle", "--expect-mismatch",
    )
    assert code == 0


def test_verify_all_oracle_clamps_to_cap(capsys, monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "12")
    code, out, _ = run(
        capsys,
        "verify", "--identity", "all", "--from", "3", "--to", "9",
        "--mode", "oracle", "--expect-mismatch",
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    thm3_sizes = [r["n"] for r in records if r["id"] == "thm3"]
    assert thm3_sizes == [4, 5, 6]  # 2n <= 12
    thm1_sizes = [r["n"] for r in records if r["id"] == "thm1"]
    assert thm1_sizes == [4, 5, 6, 7, 8, 9]


def test_verify_all_with_nothing_to_check_is_usage_error(capsys):
    for argv in (
        ("--from", "30", "--to", "40", "--mode", "oracle"),  # every range clamped by the cap
        ("--from", "-5", "--to", "-1"),  # below every identity's stated range
    ):
        code, out, err = run(capsys, "verify", "--identity", "all", *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("usage error:")


def test_verify_single_identity_strict_range(capsys, monkeypatch):
    code, out, err = run(capsys, "verify", "--identity", "thm1", "--from", "2", "--to", "5")
    assert (code, out) == (1, "")
    assert "stated for" in err
    code, out, err = run(
        capsys, "verify", "--identity", "thm3", "--from", "4", "--to", "20", "--mode", "oracle"
    )
    assert (code, out) == (1, "")
    assert "cap exceeded" in err
    # only the last n is over the cap (10 cells against 8): still nothing printed
    monkeypatch.setenv("HEXDOMINO_MAX_N", "8")
    code, out, err = run(
        capsys, "verify", "--identity", "thm3", "--from", "4", "--to", "5", "--mode", "oracle"
    )
    assert (code, out) == (1, "")
    assert "cap exceeded" in err


def test_verify_prints_each_record_before_computing_the_next(monkeypatch):
    events = []

    def logged(descriptor):
        def lhs(n):
            events.append("compute")
            return descriptor.lhs(n)
        return descriptor._replace(lhs=lhs)

    registry = tuple(logged(d) for d in identities.list_identities())
    monkeypatch.setattr(identities, "_REGISTRY", registry)
    monkeypatch.setattr(identities, "_BY_ID", {d.id: d for d in registry})

    class LoggedStdout(io.StringIO):
        def write(self, text):
            events.append("write")
            return super().write(text)

    for argv, expected_code in (
        (("--identity", "thm4", "--mode", "oracle", "--from", "5", "--to", "9"), 0),
    ):
        events.clear()
        stdout = LoggedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["verify", *argv]) == expected_code
        lines = stdout.getvalue().splitlines()
        assert len(lines) > 1
        # one record computed, then its line written, then the next record
        assert [kind for kind, _ in itertools.groupby(events)] == ["compute", "write"] * len(lines)
        assert events.count("write") == len(lines)  # one write call per record


def test_closed_verify_writes_whole_lines_in_blocks(monkeypatch):
    events = []  # ("compute", None) per left side evaluated, ("write", lines) per write

    def logged(descriptor):
        def lhs(n):
            events.append(("compute", None))
            return descriptor.lhs(n)
        return descriptor._replace(lhs=lhs)

    registry = tuple(logged(d) for d in identities.list_identities())
    monkeypatch.setattr(identities, "_REGISTRY", registry)
    monkeypatch.setattr(identities, "_BY_ID", {d.id: d for d in registry})

    class LoggedStdout(io.StringIO):
        def write(self, text):
            events.append(("write", text.count("\n")))
            # whole lines only, the last one pushing the block to _BLOCK_CHARS
            assert text.endswith("\n")
            assert len(text) - len(text[:-1].rpartition("\n")[2]) - 1 < cli._BLOCK_CHARS
            return super().write(text)

    stdout = LoggedStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["verify", "--identity", "all", "--from", "0", "--to", "300"]) == 2
    out = stdout.getvalue()
    lines = out.splitlines()
    assert len(lines) == 4174 and cli._BLOCK_CHARS == 65536
    writes = [count for kind, count in events if kind == "write"]
    assert sum(writes) == len(lines)
    assert 1 < len(writes) <= -(-len(out) // cli._BLOCK_CHARS) + 1
    # each block holds exactly the records computed since the previous write; the
    # first group also holds each identity's check of its last n
    groups = [(kind, len(list(run))) for kind, run in itertools.groupby(e[0] for e in events)]
    assert [kind for kind, _ in groups] == ["compute", "write"] * len(writes)
    computed = [count for kind, count in groups if kind == "compute"]
    assert computed == [writes[0] + len(registry), *writes[1:]]


def test_closed_verify_builds_no_identity_record(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("closed verify built an IdentityRecord")

    monkeypatch.setattr(identities, "IdentityRecord", forbidden)
    argv = ("verify", "--identity", "all", "--from", "0", "--to", "60", "--expect-mismatch")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
    code, out, err = run(capsys, "verify", "--identity", "thm5_printed", "--from", "3", "--to", "9")
    assert (code, err, out.count('"ok":false')) == (2, "", 7)


# sha256 of stdout for fixed commands: any change to these bytes changes the
# output contract that scripts reading the JSONL rely on.
STDOUT_SHA256 = {
    ("verify", "--identity", "all", "--from", "0", "--to", "60", "--expect-mismatch"):
        "f9d112d9a642da3ddea27ef4e2f20c0efe1b5f4d34ceb5ad001e69409001f82c",
    # closed sums near n = 1000, with their memos grown from n = 990 up
    ("verify", "--identity", "all", "--from", "990", "--to", "1000", "--expect-mismatch"):
        "d30c3ca5b5dcf4cdf8530d47afa1cc2bbd52d140a420252e3ace1763ac970501",
    # the closed benchmark workload: lines of 78 to 433 characters, in 64 KiB blocks
    ("verify", "--identity", "all", "--from", "0", "--to", "300", "--expect-mismatch"):
        "3644ae28cd6d3d28bfbd281b252fd1faec11970369f178a95f3eb8fd71735eca",
    # every closed sum stepped across n = 0..1000: the run the README times
    ("verify", "--identity", "all", "--from", "0", "--to", "1000", "--expect-mismatch"):
        "ade276739d488087083715479724380d7d008c97b4a3728b69ebada82cbc492c",
    ("verify", "--identity", "all", "--mode", "oracle", "--from", "0", "--to", "10",
     "--expect-mismatch"):
        "48fe26c63ef2f1c81e5d2c27d0d177a062b0792784f7b77fd2e23d80f7ef6cad",
    ("verify", "--identity", "all", "--mode", "oracle", "--from", "0", "--to", "24",
     "--expect-mismatch"):
        "fdd5c4be24225d644d46c68fd1e66df0d829204013c105c59548937359c2c42b",
    ("enumerate", "--n", "8", "--format", "jsonl"):
        "bf37b4c07d6530cb84850bb2194a19763df6e7f0470622536c60aeaca85a5800",
    ("enumerate", "--n", "14", "--classes", "all"):
        "6b902a6a01d9404e043f6685775dcb019142544b5945de848876c7583314f117",
    ("enumerate", "--n", "14", "--classes", "no-horizontal"):
        "da940962133b71be433a1c8d6ce4c2447ed62ca7c3797783ee3ca856a2309a0d",
    ("enumerate", "--n", "14", "--classes", "no-squares"):
        "f4f206ec81576efc6acccd252879fe176d588c91a9c60dd881b24268adf0635b",
    ("enumerate", "--n", "14", "--classes", "squares-right"):
        "f15967d577f34935ce2b7edaa4e255a7494542fefaa649115c809169f663dcf2",
    ("enumerate", "--n", "12", "--classes", "no-squares", "--format", "jsonl"):
        "271b92ff698a447ddff6aa66e91c12245acab86f3360f25a8e814493dcedd2c8",
    ("bijection", "--name", "lemma3", "--n", "7"):
        "e8c0a233b58ffbff3a7b62c92c87afd3c29379a8f1e60044af65fcf1c4b6ab80",
    # bulk output is written in blocks of 1,024 lines: exactly one block,
    # exactly two, many with a partial last block, and long lines
    ("enumerate", "--n", "20", "--classes", "squares-right"):
        "ef5b00bf5f01579f1714462c9ee32eb9593dbd82c72a171a23fe1ebe4d2541a5",
    ("enumerate", "--n", "22", "--classes", "squares-right"):
        "08b7174fac1fa80ed978d123ebea23909e707d0558b09e7583a991b34f37eb1a",
    ("enumerate", "--n", "16"):
        "590dacc024fea2e8171f711a3aa75750cc6163165b8a125840e97a292ab060bb",
    ("sequences", "--name", "T", "--from", "0", "--to", "2100"):
        "1e472e046461a2ed2c8a64913afa5693fdf0e7a1da1255529a546cc441249313",
}


def test_stdout_matches_recorded_digests(capsys, monkeypatch):
    monkeypatch.delenv("HEXDOMINO_MAX_N", raising=False)
    for argv, digest in STDOUT_SHA256.items():
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_enumerate_builds_no_tiling_and_reads_no_tiling_tokens(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("enumerate built a Tiling or called to_tokens")

    monkeypatch.setattr("hexdomino.strip_model.to_tokens", forbidden)
    monkeypatch.setattr("hexdomino.enumerator.Tiling", forbidden)
    for fmt, lines, digest in (
        ("tokens", 401, "97431fca1fd1847ccbf09662d5ba4d3c4a4e2f501ce39b65e000324b5871bfc8"),
        ("jsonl", 401, "d181d0000f0b9e1856729627bf0ad7d122b3aac5b750fd8c61b891cebd0e1ca2"),
    ):
        code, out, err = run(capsys, "enumerate", "--n", "10", "--format", fmt)
        assert (code, err, out.count("\n")) == (0, "", lines), fmt
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_bulk_output_is_written_in_blocks(monkeypatch):
    for argv, lines, most_writes in (
        (("enumerate", "--n", "16"), 20569, 21),  # 20 full blocks of 1,024 and a partial one
        (("enumerate", "--n", "20", "--classes", "squares-right"), 1024, 1),
        (("enumerate", "--n", "16", "--format", "jsonl"), 20569, 21),
        (("sequences", "--name", "f", "--from", "0", "--to", "2047"), 2048, 2),
        (("enumerate", "--n", "7", "--classes", "no-squares"), 0, 0),
    ):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(list(argv)) == 0
        assert stdout.getvalue().count("\n") == lines, argv
        assert stdout.writes <= most_writes, argv


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "thm9", "--from", "3", "--to", "4")
    assert code == 1
    assert "unknown identity" in err


def test_single_identity_argument_errors_are_usage_errors(capsys, monkeypatch):
    monkeypatch.delenv("HEXDOMINO_MAX_N", raising=False)
    known = ", ".join(sorted(d.id for d in identities.list_identities()))
    for argv, err in (
        (("thm4", "--from", "5", "--to", "4"), "usage error: empty range: lo=5 > hi=4\n"),
        (("thm4", "--from", "3", "--to", "6"),
         "usage error: thm4 is stated for 5 <= n <= inf, got n=3\n"),
        (("thm9", "--from", "3", "--to", "4"),
         f"usage error: unknown identity 'thm9'; known: {known}\n"),
        (("thm3", "--from", "4", "--to", "20", "--mode", "oracle"),
         "cap exceeded: thm3 at n=20 needs a 40-cell enumeration, cap is 24\n"),
    ):
        assert run(capsys, "verify", "--identity", *argv) == (1, "", err), argv
    # the library keeps its ValueErrors
    with pytest.raises(ValueError, match="empty range"):
        identities.verify_range("thm4", 5, 4)


def test_verify_output_is_deterministic(capsys):
    argv = ("verify", "--identity", "all", "--from", "0", "--to", "6")
    code_one, out_one, _ = run(capsys, *argv)
    code_two, out_two, _ = run(capsys, *argv)
    assert code_one == code_two
    assert out_one == out_two


def test_bijection_reports(capsys):
    code, out, _ = run(capsys, "bijection", "--name", "thm2", "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report == {
        "name": "thm2",
        "n": 9,
        "inputs": 108,
        "outputs": 216,
        "expected_total": 216,
        "missing": 0,
        "duplicated": 0,
        "ok": True,
    }
    code, out, _ = run(capsys, "bijection", "--name", "lemma2", "--n", "12")
    assert code == 0
    report = json.loads(out)
    assert report["domain"] == report["codomain"] == report["round_trip_ok"] == 233
    assert report["image_complete"] and report["ok"]
    code, out, _ = run(capsys, "bijection", "--name", "lemma3", "--n", "9")
    assert code == 0
    report = json.loads(out)
    assert report["strip_cells"] == 18 and report["domain"] == 55 and report["ok"]


@pytest.mark.parametrize("name, n", [("lemma2", 8), ("lemma3", 5)])
def test_bijection_checks_that_the_images_are_the_codomain(capsys, monkeypatch, name, n):
    # a map pair that round-trips and is one-to-one, but sends every tiling
    # 100 cells past the codomain's length
    from hexdomino import correspondences
    from hexdomino.correspondences import SingleStripTiling

    forward = getattr(correspondences, f"{name}_to_single")
    backward = getattr(correspondences, f"{name}_from_single")

    def shifted_forward(tiling):
        single = forward(tiling)
        return SingleStripTiling(single.length + 100, single.tiles)

    def shifted_backward(single):
        return backward(SingleStripTiling(single.length - 100, single.tiles))

    monkeypatch.setattr(correspondences, f"{name}_to_single", shifted_forward)
    monkeypatch.setattr(correspondences, f"{name}_from_single", shifted_backward)
    code, out, _ = run(capsys, "bijection", "--name", name, "--n", str(n))
    report = json.loads(out)
    assert report["domain"] == report["codomain"] == report["round_trip_ok"]
    assert (code, report["image_complete"], report["ok"]) == (2, False, False)


def test_bijection_never_lists_its_codomain(capsys, monkeypatch):
    # each image is tallied at its rank among the single-strip tilings
    from hexdomino import correspondences

    def forbidden(*args, **kwargs):
        raise AssertionError("the lemma harness listed the single strip")

    monkeypatch.setattr(correspondences, "enumerate_single_strip", forbidden)
    for name, n, count in (("lemma2", 8, 34), ("lemma3", 5, 8)):
        code, out, err = run(capsys, "bijection", "--name", name, "--n", str(n))
        report = json.loads(out)
        assert (code, err, report["codomain"], report["ok"]) == (0, "", count, True)


def reflected(single):
    """The mirror image of a single-strip tiling: an involution, so a bijection
    of each length's tilings that lists them in another order."""
    n = single.length
    from hexdomino.correspondences import SingleStripTiling, SingleTile

    return SingleStripTiling.of(n, [
        SingleTile(n + 1 - t.location + (t.kind == "D"), t.kind) for t in single.tiles
    ])


def one_image(forward, backward, family):
    first = forward(family[0])
    return (lambda tiling: first), backward


def overlapping(forward, backward, family):
    # the second of two leading squares becomes a domino over the first: n cells long,
    # but it covers cell 1 twice
    from hexdomino.correspondences import SingleStripTiling, SingleTile

    def forward_overlapping(tiling):
        single = forward(tiling)
        if [(t.location, t.kind) for t in single.tiles[:2]] != [(1, "S"), (2, "S")]:
            return single
        tiles = (single.tiles[0], SingleTile(2, "D"), *single.tiles[2:])
        return SingleStripTiling(single.length, tiles)

    return forward_overlapping, backward


def reordered(forward, backward, family):
    return (lambda tiling: reflected(forward(tiling))), (lambda single: backward(reflected(single)))


@pytest.mark.parametrize("name, n, length, preset", [
    ("lemma2", 8, 8, "no-horizontal"), ("lemma3", 5, 10, "no-squares"),
])
@pytest.mark.parametrize("mutant, complete", [
    (one_image, False), (overlapping, False), (reordered, True),
])
def test_bijection_cover_is_a_set_check(capsys, monkeypatch, name, n, length, preset,
                                        mutant, complete):
    # image_complete holds iff the images are the codomain's tilings, each once,
    # in any order: what comparing a set of images with the codomain's set gives
    from hexdomino import CLASS_PRESETS, correspondences, enumerate_tilings

    family = list(enumerate_tilings(length, CLASS_PRESETS[preset]))
    forward, backward = mutant(getattr(correspondences, f"{name}_to_single"),
                               getattr(correspondences, f"{name}_from_single"), family)
    monkeypatch.setattr(correspondences, f"{name}_to_single", forward)
    monkeypatch.setattr(correspondences, f"{name}_from_single", backward)
    code, out, err = run(capsys, "bijection", "--name", name, "--n", str(n))
    report = json.loads(out)
    assert (report["domain"], report["codomain"]) == (len(family), len(family))
    assert report["image_complete"] is complete
    assert report["ok"] is (complete and report["round_trip_ok"] == len(family))
    assert (code, err) == (0 if report["ok"] else 2, "")
    if mutant is reordered:
        assert report["ok"]


def test_bijection_lemma2_at_the_default_cap_holds_no_set_of_tilings():
    # 75,025 images: a set of them and one of the codomain peaked at 140 MB
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, "-m", "hexdomino", "bijection", "--name", "lemma2",
         "--n", "24"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    line, status = result.stdout.splitlines()
    code, peak_kb = map(int, status.split())
    assert (code, result.stderr) == (0, "")
    assert line == ('{"name":"lemma2","n":24,"strip_cells":24,"domain":75025,"codomain":75025,'
                    '"round_trip_ok":75025,"image_complete":true,"ok":true}')
    assert peak_kb < 40 * 1024


def test_bijection_thm2_below_range(capsys):
    code, _, _ = run(capsys, "bijection", "--name", "thm2", "--n", "4")
    assert code == 1
    code, out, _ = run(capsys, "bijection", "--name", "thm2", "--n", "5")
    assert code == 0 and json.loads(out)["ok"]


def test_sequences_tables(capsys):
    code, out, _ = run(capsys, "sequences", "--name", "T", "--from", "-1", "--to", "5")
    assert code == 0
    assert out.splitlines() == ["-1\t0", "0\t1", "1\t1", "2\t2", "3\t4", "4\t8", "5\t15"]
    code, out, _ = run(capsys, "sequences", "--name", "f", "--from", "0", "--to", "6")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t8", "6\t13"]


def test_sequences_bad_range(capsys):
    code, _, err = run(capsys, "sequences", "--name", "T", "--from", "5", "--to", "3")
    assert code == 1
    assert "usage error" in err
    code, _, _ = run(capsys, "sequences", "--name", "f", "--from", "-2", "--to", "3")
    assert code == 1


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "count")[0] == 1
    assert run(capsys, "verify", "--identity", "thm1", "--from", "4")[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "count", "--help")[0] == 0


# sha256 of the help text at 80 columns (argparse wraps help to the terminal).
HELP_SHA256 = {
    (): "d28ca4da4e96f3abe9b909edc74d0b289e54834e5caf345806229fb75a12b93f",
    ("count",): "670fc105b0cbe1203124780eeb7c738237c248a9c9b7033fc0404956ed8d11e0",
    ("enumerate",): "ee025f8d2e9c7614414a4060527db94ac0de1999f4a7d1d5ac3a47ce46f09e1e",
    ("render",): "1c46329dd7cad924e12e5e40b9f19781337fb75226fb73604fcfab06af8c6d42",
    ("verify",): "5262a88fe2679fff08f567472b38c452a319bf609395136852b979d4b71517a2",
    ("bijection",): "8eac34152a7b7428986088fd052d255cca8c254796adacdf5eec4a91208e61b4",
    ("sequences",): "2a7e06698aa8862776eec664e6998af77ffd07921162793476b9155811319991",
}


def test_help_text_is_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for command, digest in HELP_SHA256.items():
        code, out, err = run(capsys, *command, "--help")
        assert (code, err) == (0, ""), command
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


def _invalid_choice(argument, value, choices):
    # argparse quotes the choices through 3.13.0; later 3.12 and 3.13 releases do not
    return {
        f"usage error: argument {argument}: invalid choice: {value!r} (choose from {listed})\n"
        for listed in (", ".join(map(repr, choices)), ", ".join(choices))
    }


def test_usage_error_lines_are_unchanged(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    for argv, lines in (
        (("count", "--n", "x"), {"usage error: argument --n: invalid int value: 'x'\n"}),
        (("count",), {"usage error: the following arguments are required: --n\n"}),
        (("count", "--n", "8", "--n"), {"usage error: argument --n: expected one argument\n"}),
        (("verify", "--identity", "thm4", "--from", "5"),
         {"usage error: the following arguments are required: --to\n"}),
        (("enumerate", "--n", "3", "--classes", "bogus"),
         _invalid_choice("--classes", "bogus", sorted(hexdomino.CLASS_PRESETS))),
        (("render", "--n", "4", "--tiling", "-x"),
         {"usage error: argument --tiling: expected one argument\n"}),
        (("count", "--n", "8", "extra"), {"usage error: unrecognized arguments: extra\n"}),
        (("nope",), _invalid_choice("command", "nope", (
            "count", "enumerate", "render", "verify", "bijection", "sequences"))),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err in lines, argv


def test_abbreviated_joined_and_repeated_flags_still_parse(capsys):
    assert run(capsys, "count", "--cl", "no-squares", "--n", "8") == (0, "5\n", "")
    assert run(capsys, "count", "--n=8") == (0, "108\n", "")
    assert run(capsys, "count", "--n", "8", "--n", "9") == (0, "208\n", "")


def test_cap_env_respected(capsys, monkeypatch):
    monkeypatch.setenv("HEXDOMINO_MAX_N", "6")
    code, _, err = run(capsys, "enumerate", "--n", "7")
    assert code == 1 and "cap" in err
    # count prints the closed form and never reads the cap
    code, out, _ = run(capsys, "count", "--n", "7")
    assert (code, out) == (0, "56\n")


def test_huge_cap_does_not_slow_a_one_record_oracle_run():
    # the cap search looks only at --from..--to, not at every n up to the cap
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]),
               HEXDOMINO_MAX_N="1000000000")
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino", "verify", "--identity", "thm4", "--mode", "oracle",
         "--from", "5", "--to", "5"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert (result.returncode, result.stderr) == (0, "")
    (line,) = result.stdout.splitlines()
    record = json.loads(line)
    assert (record["id"], record["n"], record["ok"]) == ("thm4", 5, True)


def test_cap_env_garbage_is_usage_error(capsys, monkeypatch):
    for raw in ("plenty", "-1"):
        monkeypatch.setenv("HEXDOMINO_MAX_N", raw)
        code, out, err = run(capsys, "enumerate", "--n", "0")
        assert (code, out) == (1, "")
        assert err == f"error: HEXDOMINO_MAX_N must be a non-negative integer, got {raw!r}\n"
        code, out, _ = run(capsys, "verify", "--identity", "thm4", "--from", "5", "--to", "6")
        assert (code, out) == (1, "")
        code, out, _ = run(capsys, "count", "--n", "3")
        assert (code, out) == (0, "4\n")


def test_module_entry_point_reports_errors():
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino.cli",
         "verify", "--identity", "thm4", "--from", "10", "--to", "5"],
        capture_output=True, text=True, env=env,
    )
    assert (result.returncode, result.stdout) == (1, "")
    assert "empty range" in result.stderr


def test_package_runs_as_module():
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino", "count", "--n", "5"],
        capture_output=True, text=True, env=env,
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "15\n", "")


def test_closed_stdout_is_a_one_line_error():
    # a reader that stops early, like `hexdomino enumerate --n 18 | head -1`
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "hexdomino", "enumerate", "--n", "18"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert first.decode() == " ".join(f"S{i}" for i in range(1, 19)) + "\n"
    assert len(err.splitlines()) <= 1, err.decode()


def buffered_env():
    # stdout into a pipe is then block-buffered, as from a shell
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]), COLUMNS="80")
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.mark.parametrize("argv", [
    ("enumerate", "--n", "12"),  # 1,490 lines
    ("--help",),
    ("count", "--n", "x"),  # a usage error, exit 1
    ("verify", "--identity", "thm5_printed", "--from", "3", "--to", "6"),  # a mismatch, exit 2
])
def test_the_process_prints_and_exits_as_main_returns(argv, capsys, monkeypatch):
    # the process ends with os._exit, past the interpreter's own flush at exit
    monkeypatch.setenv("COLUMNS", "80")
    expected = run(capsys, *argv)
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino", *argv],
        capture_output=True, text=True, env=buffered_env(), timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == expected


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_help_into_a_closed_pipe_is_a_one_line_error(unbuffered):
    # the read end is closed before the process starts, so nothing races the write;
    # the help text waits in stdout's buffer until the last flush, or fails at once
    # when stdout is unbuffered, inside argparse's own write
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hexdomino", "--help"], stdout=write_end,
            stderr=subprocess.PIPE, text=True, timeout=60,
            env=dict(buffered_env(), PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (
        1, "error: stdout was closed before the output ended\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, unbuffered", [
    (("count", "--n", "5"), ""),
    (("count", "--n", "5"), "1"),
    (("--help",), ""),
    (("--help",), "1"),
], ids=["", "1", "help", "help-unbuffered"])
def test_a_full_disk_is_a_one_line_error(argv, unbuffered):
    # `hexdomino count --n 5 > /dev/full`: the write fails at the last flush, or
    # at once when stdout is unbuffered (an empty PYTHONUNBUFFERED leaves it buffered)
    env = dict(buffered_env(), PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "hexdomino", *argv], stdout=full,
            stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert (result.returncode, result.stderr) == (
        1, "error: stdout could not be written: No space left on device\n")


@pytest.mark.parametrize("argv", [
    ("count", "--n", "5"),
    ("enumerate", "--n", "5"),
    ("verify", "--identity", "thm4", "--from", "5", "--to", "6"),
], ids=["count", "enumerate", "verify"])
def test_a_closed_stdout_descriptor_is_a_one_line_error(argv):
    # `hexdomino count --n 5 >&-`: Python starts with sys.stdout set to None
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino", *argv], preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE, text=True, env=buffered_env(), timeout=60,
    )
    assert (result.returncode, result.stderr) == (1, "error: stdout is closed\n")


def test_interrupt_is_a_one_line_error():
    # Ctrl-C during a slow oracle run; wait for the first record so the
    # interpreter is inside the verification loop when the signal lands.
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]),
               PYTHONUNBUFFERED="1", HEXDOMINO_MAX_N="2000")
    # The child starts with SIGINT at its default, whatever the test runner
    # inherited: a background job of a non-interactive shell ignores SIGINT,
    # and a Python started with it ignored installs no KeyboardInterrupt
    # handler, so it would run to the end and exit 0.
    proc = subprocess.Popen(
        [sys.executable, "-m", "hexdomino", "verify", "--identity", "thm2_num",
         "--mode", "oracle", "--from", "6", "--to", "2000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    first = proc.stdout.readline()
    time.sleep(1)
    assert proc.poll() is None  # still verifying
    proc.send_signal(signal.SIGINT)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 130
    assert json.loads(first)["id"] == "thm2_num"
    assert err.decode() == "interrupted\n"


def test_out_of_memory_is_a_one_line_error():
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "hexdomino", "count", "--n", "99999999999999999999",
         "--classes", "squares-right"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: out of memory\n")


@pytest.mark.parametrize("argv", [
    ("count", "--n", "99999999999999999999"),
    ("verify", "--identity", "thm8", "--from", "1000000", "--to", "1000000"),
    ("verify", "--identity", "all", "--from", "0", "--to", "99999999999999999999"),
    ("sequences", "--name", "T", "--from", "0", "--to", "99999999999999999999"),
    ("sequences", "--name", "f", "--from", "0", "--to", "99999999999999999999"),
])
def test_a_memo_past_physical_memory_fails_before_growing(argv):
    # T(10^20), and thm8's T(2,000,000) at about 236 GB, are refused before the
    # memo grows a term, so the run ends at once and small; a sequence table, or
    # a verify range, whose last term is past memory prints no line, so stdout
    # holds only the launcher's exit code and peak RSS
    env = dict(os.environ, PYTHONPATH=str(Path(hexdomino.__file__).parents[1]))
    started = time.monotonic()
    result = subprocess.run(
        [sys.executable, "-S", "-c", LAUNCH, "-m", "hexdomino", *argv],
        capture_output=True, text=True, env=env, timeout=30,
    )
    code, peak_kb = map(int, result.stdout.split())
    assert (code, result.stderr) == (1, "error: out of memory\n")
    assert time.monotonic() - started < 10
    assert peak_kb < 100 * 1024


def test_overflow_is_a_one_line_error(capsys, monkeypatch):
    def overflow(preset, length):
        raise OverflowError("int too large to convert")

    monkeypatch.setattr("hexdomino.cli.closed_count", overflow)
    assert run(capsys, "count", "--n", "5") == (1, "", "error: int too large to convert\n")
