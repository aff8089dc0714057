"""Command-line front end: counting, enumeration, rendering, verification.

Exit codes: 0 on success, 1 on usage, parse, cap and out-of-memory errors, 2
when a verification command ran but found a mismatch, 130 when interrupted.
Identical invocations print byte-identical output; machine output is JSONL
with compact separators.

Each handler imports the layers it runs, so a process loads only those:
`count` and `sequences` load `sequences` alone, closed `verify` adds
`identities`, and only enumerating commands load the tile geometry.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Sequence
from itertools import islice

from .sequences import (
    PRESET_NAMES,
    CapExceeded,
    closed_count,
    fibonacci_comb,
    max_cells,
    tetranacci,
)


# Bulk output goes out in blocks of this many lines, one `write` per block.
# On unbuffered stdout (`python -u`, PYTHONUNBUFFERED) a `print` per line
# costs two system calls, and on a terminal one.
_BLOCK_LINES = 1024


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line plus a newline to stdout, _BLOCK_LINES lines per write."""
    lines = iter(lines)
    write = sys.stdout.write
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")  # the join then ends the block with a newline
        write("\n".join(block))


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; the contract reserves 2 for
    # verification failures, so route usage problems through an exception.
    def error(self, message: str) -> None:
        raise _UsageError(message)


def _at_least(flag: str, value: int, floor: int = 0) -> None:
    if value < floor:
        raise _UsageError(f"{flag} must be >= {floor}, got {value}")


def _cmd_count(args: argparse.Namespace) -> int:
    _at_least("--n", args.n)
    print(closed_count(args.classes, args.n))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    from .enumerator import CLASS_PRESETS, _token_lines

    _at_least("--n", args.n)
    # Tokens hold only S, I, H, digits and spaces, which JSON leaves unescaped.
    frame = ('{"n":%d,"tokens":"' % args.n, '"}') if args.format == "jsonl" else ()
    _write_lines(_token_lines(args.n, CLASS_PRESETS[args.classes], *frame))
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    _at_least("--n", args.n)
    from .strip_model import parse_tokens, render_ascii

    print(render_ascii(parse_tokens(args.tiling, args.n)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .identities import get_identity, list_identities

    cap = max_cells()  # a malformed cap setting fails every verify run, closed mode too
    if args.identity == "all":
        fitted = ((d, d.fit(args.start, args.stop, args.mode)) for d in list_identities())
        runs = [(descriptor, span) for descriptor, span in fitted if span]
        if not runs:
            limit = f" and the enumeration cap {cap}" if args.mode == "oracle" else ""
            raise _UsageError(
                f"no identity has an n in {args.start}..{args.stop} "
                f"inside its stated range{limit}"
            )
    else:
        descriptor = get_identity(args.identity)
        runs = [(descriptor, descriptor.check_range(args.start, args.stop, args.mode))]
    # Every range error is raised above, before the first record is printed.
    # Records stream: each is written, in one call, as soon as it is built.
    write = sys.stdout.write
    all_ok = True
    for descriptor, span in runs:
        for n in span:
            record = descriptor.record(n, args.mode)
            write(record.to_json_line() + "\n")
            passed = record.checks_ok if args.expect_mismatch else record.ok
            all_ok = all_ok and passed
    return 0 if all_ok else 2


def _bijection_payload(name: str, n: int) -> dict:
    from .correspondences import (
        enumerate_single_strip,
        lemma2_from_single,
        lemma2_to_single,
        lemma3_from_single,
        lemma3_to_single,
        thm2_verify,
    )
    from .enumerator import CLASS_PRESETS, enumerate_tilings

    if name == "thm2":
        report = thm2_verify(n)
        return {
            "name": "thm2",
            "n": n,
            "inputs": report.inputs,
            "outputs": report.outputs,
            "expected_total": report.expected_total,
            "missing": len(report.missing),
            "duplicated": len(report.duplicated),
            "ok": report.ok,
        }
    if name == "lemma2":
        length, preset = n, "no-horizontal"
        forward, backward = lemma2_to_single, lemma2_from_single
    else:
        length, preset = 2 * n, "no-squares"
        forward, backward = lemma3_to_single, lemma3_from_single
    domain = 0
    round_trip_ok = 0
    image = set()
    for tiling in enumerate_tilings(length, CLASS_PRESETS[preset]):
        domain += 1
        single = forward(tiling)
        image.add(single)
        if backward(single) == tiling:
            round_trip_ok += 1
    codomain = sum(1 for _ in enumerate_single_strip(n))
    image_complete = len(image) == domain == codomain
    return {
        "name": name,
        "n": n,
        "strip_cells": length,
        "domain": domain,
        "codomain": codomain,
        "round_trip_ok": round_trip_ok,
        "image_complete": image_complete,
        "ok": domain == round_trip_ok and image_complete,
    }


def _cmd_bijection(args: argparse.Namespace) -> int:
    _at_least("--n", args.n, 5 if args.name == "thm2" else 0)
    import json  # the only command that builds a JSON line from a dict
    payload = _bijection_payload(args.name, args.n)
    print(json.dumps(payload, separators=(",", ":")))
    return 0 if payload["ok"] else 2


def _cmd_sequences(args: argparse.Namespace) -> int:
    if args.start > args.stop:
        raise _UsageError(f"--from must be <= --to, got {args.start}..{args.stop}")
    _at_least("--from", args.start, -1 if args.name == "T" else 0)
    term = tetranacci if args.name == "T" else fibonacci_comb
    _write_lines(f"{i}\t{term(i)}" for i in range(args.start, args.stop + 1))
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="hexdomino",
        description="Count, enumerate, and verify square/domino tilings of the "
        "hexagonal double-strip.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    count = sub.add_parser("count", help="count tilings of an n-cell strip")
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--classes", choices=PRESET_NAMES, default="all")
    count.set_defaults(handler=_cmd_count)

    enum = sub.add_parser("enumerate", help="list tilings, one per line")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--classes", choices=PRESET_NAMES, default="all")
    enum.add_argument("--format", choices=("tokens", "jsonl"), default="tokens")
    enum.set_defaults(handler=_cmd_enumerate)

    render = sub.add_parser("render", help="two-row ASCII picture of one tiling")
    render.add_argument("--n", type=int, required=True)
    render.add_argument("--tiling", required=True, help='token string, e.g. "S1 I3 S4"')
    render.set_defaults(handler=_cmd_render)

    verify = sub.add_parser("verify", help="verify identities, JSONL per (id, n)")
    verify.add_argument("--identity", required=True, help="registry id or 'all'")
    verify.add_argument("--from", dest="start", type=int, required=True)
    verify.add_argument("--to", dest="stop", type=int, required=True)
    verify.add_argument("--mode", choices=("closed", "oracle"), default="closed")
    verify.add_argument(
        "--expect-mismatch",
        action="store_true",
        help="exit 0 even when lhs != rhs (enumeration cross-checks still apply)",
    )
    verify.set_defaults(handler=_cmd_verify)

    bijection = sub.add_parser("bijection", help="check a correspondence exhaustively")
    bijection.add_argument("--name", choices=("thm2", "lemma2", "lemma3"), required=True)
    bijection.add_argument("--n", type=int, required=True)
    bijection.set_defaults(handler=_cmd_bijection)

    sequences = sub.add_parser("sequences", help="print a sequence table")
    sequences.add_argument("--name", choices=("T", "f"), required=True)
    sequences.add_argument("--from", dest="start", type=int, required=True)
    sequences.add_argument("--to", dest="stop", type=int, required=True)
    sequences.set_defaults(handler=_cmd_sequences)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Counts are printed in full at any size; CPython otherwise refuses to
    # convert ints of more than 4300 digits to str.
    set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_int_max_str_digits is not None:
        set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except SystemExit as exc:  # --help prints and exits 0 inside argparse
        return int(exc.code or 0)
    except BrokenPipeError:
        # The reader closed stdout (`hexdomino enumerate ... | head`).  Point
        # stdout at devnull so the interpreter's flush at exit cannot fail too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output ended", file=sys.stderr)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OverflowError) as exc:
        label = "cap exceeded" if isinstance(exc, CapExceeded) else "error"
        print(f"{label}: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # e.g. a closed form at a size no memory can hold
        print("error: out of memory", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
