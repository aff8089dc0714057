"""Output checks that share no code with the hexdomino package.

Every expected value here is derived from the paper's statements and the
tile geometry (a square covers {k}, an inclined tile {k-1, k}, a horizontal
tile {k-2, k}), never by importing the package under test.  Each check
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import hashlib
import json
import random

# Printed right sides that the paper gets wrong; their records must say
# equal: false at every n, all other identities equal: true.
MISPRINTS = frozenset({"thm5_printed", "thm8c_printed"})


def tetranacci_table(n: int) -> list[int]:
    """[T(0), ..., T(n)] from the 4-term recurrence."""
    table = [1, 1, 2, 4]
    while len(table) <= n:
        table.append(table[-1] + table[-2] + table[-3] + table[-4])
    return table[: n + 1]


def fibonacci_table(n: int) -> list[int]:
    """[f(0), ..., f(n)] with f(0) = f(1) = 1."""
    table = [1, 1]
    while len(table) <= n:
        table.append(table[-1] + table[-2])
    return table[: n + 1]


# id -> (smallest stated n, strip length as a function of n, left side).
# The left sides are the paper's, written out against the two tables.
IDENTITIES = {
    "thm1": (4, lambda n: n, lambda T, f, n: T[n]),
    "thm2_num": (6, lambda n: n, lambda T, f, n: 2 * T[n - 1]),
    "thm3": (4, lambda n: 2 * n, lambda T, f, n: T[2 * n]),
    "thm4": (5, lambda n: n, lambda T, f, n: T[n] - 1),
    "lemma1": (0, lambda n: 2 * n, lambda T, f, n: 2**n),
    "thm5_printed": (3, lambda n: 2 * n, lambda T, f, n: T[2 * n] - 2**n),
    "thm5_corrected": (3, lambda n: 2 * n, lambda T, f, n: T[2 * n] - 2**n),
    "lemma2": (0, lambda n: n, lambda T, f, n: f[n]),
    "lemma3": (0, lambda n: 2 * n, lambda T, f, n: f[n]),
    "thm6": (3, lambda n: 2 * n, lambda T, f, n: T[2 * n] - f[n]),
    "thm7": (5, lambda n: n, lambda T, f, n: T[n] - f[n]),
    "thm8": (3, lambda n: 2 * n, lambda T, f, n: T[2 * n] - f[n] ** 2),
    "thm8c_printed": (2, lambda n: 2 * n + 1, lambda T, f, n: T[2 * n + 1] - f[n] * f[n + 1]),
    "thm8c_corrected": (2, lambda n: 2 * n + 1, lambda T, f, n: T[2 * n + 1] - f[n] * f[n + 1]),
}


def expected_ns(identity: str, start: int, stop: int, cap: int | None) -> list[int]:
    """The n values `verify` reports for one identity, clamped like the CLI."""
    n_lo, strip, _ = IDENTITIES[identity]
    return [
        n for n in range(max(start, n_lo), stop + 1) if cap is None or strip(n) <= cap
    ]


def covers_exactly_once(line: bytes, n: int) -> bool:
    """True iff the token line is a tiling of the n-cell strip."""
    covered: list[int] = []
    for word in line.split():
        kind, digits = word[:1], word[1:]
        if not digits.isdigit():
            return False
        k = int(digits)
        if kind == b"S":
            covered.append(k)
        elif kind == b"I":
            covered += [k - 1, k]
        elif kind == b"H":
            covered += [k - 2, k]
        else:
            return False
    return sorted(covered) == list(range(1, n + 1))


def check_enumeration(out: bytes, n: int, seed: int, sample: int = 256) -> list[str]:
    """Line count is T(n), lines are distinct, and a seeded sample tiles the strip."""
    if not out.endswith(b"\n"):
        return ["output does not end with a newline"]
    lines = out[:-1].split(b"\n")
    problems = []
    want = tetranacci_table(n)[n]
    if len(lines) != want:
        problems.append(f"{len(lines)} lines, expected T({n}) = {want}")
    if len(set(lines)) != len(lines):
        problems.append("duplicate tilings")
    rng = random.Random(seed)
    for i in sorted(rng.sample(range(len(lines)), min(sample, len(lines)))):
        if not covers_exactly_once(lines[i], n):
            problems.append(f"line {i + 1} is not a tiling: {lines[i][:80]!r}")
            break
    return problems


def check_records(
    out: bytes, mode: str, identities: list[str], start: int, stop: int, cap: int | None
) -> list[str]:
    """Every `verify` record is right about its own identity, and none is missing."""
    n_max = max(IDENTITIES[i][1](stop) for i in identities) + 1
    T, f = tetranacci_table(n_max), fibonacci_table(n_max)
    seen: dict[str, list[int]] = {i: [] for i in identities}
    problems = []
    for number, line in enumerate(out.splitlines(), 1):
        try:
            record = json.loads(line)
            identity, n = record["id"], record["n"]
            if identity not in seen:
                raise ValueError(f"unexpected id {identity!r}")
            seen[identity].append(n)
            lhs = str(IDENTITIES[identity][2](T, f, n))
            if record["lhs"] != lhs:
                raise ValueError(f"lhs {record['lhs'][:40]} != {lhs[:40]}")
            should_equal = identity not in MISPRINTS
            if record["equal"] is not should_equal or (record["rhs"] == lhs) is not should_equal:
                raise ValueError(f"equal is {record['equal']}, expected {should_equal}")
            if record["mode"] != mode:
                raise ValueError(f"mode {record['mode']!r}")
            if mode == "oracle":
                if record["oracle_total"] != lhs:
                    raise ValueError("oracle_total != lhs")
                for group in record.get("groups") or ():
                    if group["match"] is not True or group["expected"] != group["observed"]:
                        raise ValueError(f"group {group['key']} does not match")
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"record {number}: {exc}")
            if len(problems) >= 5:
                break
    for identity, ns in seen.items():
        want = expected_ns(identity, start, stop, cap)
        if ns != want:
            problems.append(f"{identity}: got {len(ns)} records, expected {len(want)}")
    return problems


def check_digest(out: bytes, expected: str) -> list[str]:
    """Byte-identical stdout: the sha256 recorded from the reference commit."""
    digest = hashlib.sha256(out).hexdigest()
    return [] if digest == expected else [f"stdout sha256 {digest[:16]}, expected {expected[:16]}"]
