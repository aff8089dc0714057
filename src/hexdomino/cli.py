"""Command-line front end: counting, enumeration, rendering, verification.

Exit codes: 0 on success, 1 on usage, parse, cap and out-of-memory errors, a
closed stdout and failed writes to it, 2 when a verification command ran but
found a mismatch, 130 when interrupted.  `main` returns the code; `entry` ends
the process with it through `os._exit`, skipping the interpreter's teardown.
Identical invocations print byte-identical output; machine output is JSONL
with compact separators.

Each handler imports the layers it runs, so a process loads only those:
`count` and `sequences` load `sequences` alone, closed `verify` adds
`identities`, and only enumerating commands load the tile geometry.

One option table, `_SPEC`, serves two parsers.  `_quick_parse` reads a
command line spelled in full, with each flag once, and loads nothing.  Every
other line goes to argparse, built from the same table: it prints help and
usage errors, and reads abbreviated flags, `--flag=value` and repeated flags.
"""
from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Sequence
from itertools import islice
from types import SimpleNamespace

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
_BLOCK_CHARS = 65536  # closed `verify` blocks, whose lines run from 78 characters to kilobytes


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line plus a newline to stdout, _BLOCK_LINES lines per write."""
    lines = iter(lines)
    write = sys.stdout.write
    while block := list(islice(lines, _BLOCK_LINES)):
        block.append("")  # the join then ends the block with a newline
        write("\n".join(block))


class _UsageError(Exception):
    pass


def _at_least(flag: str, value: int, floor: int = 0) -> None:
    if value < floor:
        raise _UsageError(f"{flag} must be >= {floor}, got {value}")


def _cmd_count(args: SimpleNamespace) -> int:
    _at_least("--n", args.n)
    print(closed_count(args.classes, args.n))
    return 0


def _cmd_enumerate(args: SimpleNamespace) -> int:
    from .enumerator import CLASS_PRESETS, _token_lines

    _at_least("--n", args.n)
    # Tokens hold only S, I, H, digits and spaces, which JSON leaves unescaped.
    frame = ('{"n":%d,"tokens":"' % args.n, '"}') if args.format == "jsonl" else ()
    _write_lines(_token_lines(args.n, CLASS_PRESETS[args.classes], *frame))
    return 0


def _cmd_render(args: SimpleNamespace) -> int:
    _at_least("--n", args.n)
    from .strip_model import parse_tokens, render_ascii

    print(render_ascii(parse_tokens(args.tiling, args.n)))
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
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
        try:
            descriptor = get_identity(args.identity)
            runs = [(descriptor, descriptor.check_range(args.start, args.stop, args.mode))]
        except ValueError as exc:  # an unknown id or a range outside the stated one; not the cap
            raise exc if isinstance(exc, CapExceeded) else _UsageError(str(exc)) from None
    # Range errors, and any left side's error at its last n, come before the first record.
    for descriptor, span in runs:
        descriptor.lhs(span[-1])
    # Closed records go out in blocks of whole lines; each oracle record as soon as it is built.
    text, all_ok = "", True
    for descriptor, span in runs:
        for line, checks_ok, ok in descriptor.lines(span, args.mode):
            text += line + "\n"
            all_ok = all_ok and (checks_ok if args.expect_mismatch else ok)
            if args.mode == "oracle" or len(text) >= _BLOCK_CHARS:
                sys.stdout.write(text)
                text = ""
    if text:
        sys.stdout.write(text)
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
    codomain = set(enumerate_single_strip(n))
    image_complete = len(image) == domain and image == codomain
    return {
        "name": name,
        "n": n,
        "strip_cells": length,
        "domain": domain,
        "codomain": len(codomain),
        "round_trip_ok": round_trip_ok,
        "image_complete": image_complete,
        "ok": domain == round_trip_ok and image_complete,
    }


def _cmd_bijection(args: SimpleNamespace) -> int:
    _at_least("--n", args.n, 5 if args.name == "thm2" else 0)
    import json  # the only command that builds a JSON line from a dict
    payload = _bijection_payload(args.name, args.n)
    print(json.dumps(payload, separators=(",", ":")))
    return 0 if payload["ok"] else 2


def _cmd_sequences(args: SimpleNamespace) -> int:
    if args.start > args.stop:
        raise _UsageError(f"--from must be <= --to, got {args.start}..{args.stop}")
    _at_least("--from", args.start, -1 if args.name == "T" else 0)
    term = tetranacci if args.name == "T" else fibonacci_comb
    term(args.stop)  # a stop past memory fails before the first line is written
    _write_lines(f"{i}\t{term(i)}" for i in range(args.start, args.stop + 1))
    return 0


# One table for both parsers: each command's help, handler and options, each
# option a flag and its `add_argument` keywords.
_SPEC = {
    "count": ("count tilings of an n-cell strip", _cmd_count, (
        ("--n", {"type": int, "required": True}),
        ("--classes", {"choices": PRESET_NAMES, "default": "all"}),
    )),
    "enumerate": ("list tilings, one per line", _cmd_enumerate, (
        ("--n", {"type": int, "required": True}),
        ("--classes", {"choices": PRESET_NAMES, "default": "all"}),
        ("--format", {"choices": ("tokens", "jsonl"), "default": "tokens"}),
    )),
    "render": ("two-row ASCII picture of one tiling", _cmd_render, (
        ("--n", {"type": int, "required": True}),
        ("--tiling", {"required": True, "help": 'token string, e.g. "S1 I3 S4"'}),
    )),
    "verify": ("verify identities, JSONL per (id, n)", _cmd_verify, (
        ("--identity", {"required": True, "help": "registry id or 'all'"}),
        ("--from", {"dest": "start", "type": int, "required": True}),
        ("--to", {"dest": "stop", "type": int, "required": True}),
        ("--mode", {"choices": ("closed", "oracle"), "default": "closed"}),
        ("--expect-mismatch", {"action": "store_true", "help":
            "exit 0 even when lhs != rhs (enumeration cross-checks still apply)"}),
    )),
    "bijection": ("check a correspondence exhaustively", _cmd_bijection, (
        ("--name", {"choices": ("thm2", "lemma2", "lemma3"), "required": True}),
        ("--n", {"type": int, "required": True}),
    )),
    "sequences": ("print a sequence table", _cmd_sequences, (
        ("--name", {"choices": ("T", "f"), "required": True}),
        ("--from", {"dest": "start", "type": int, "required": True}),
        ("--to", {"dest": "stop", "type": int, "required": True}),
    )),
}


def _quick_parse(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for `argv`, or None to leave `argv` to it.

    Takes a command, then each of its flags once, spelled in full, with a value
    that passes its `type` and `choices`.  A value may begin with `-` only as a
    negative integer, which argparse also reads as a value, not a flag.
    """
    if not argv or argv[0] not in _SPEC:
        return None
    _, handler, options = _SPEC[argv[0]]
    spec = dict(options)
    values: dict[str, object] = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = spec.get(flag)
        if keywords is None or flag in values:
            return None
        if keywords.get("action") == "store_true":
            values[flag] = True
            continue
        value = next(tokens, "-")  # a missing value is refused like a flag
        if value.startswith("-") and not value[1:].isdecimal():
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        values[flag] = value
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, keywords in options:
        if flag not in values and keywords.get("required"):
            return None
        store_true = keywords.get("action") == "store_true"
        default = keywords.get("default", False if store_true else None)
        setattr(args, keywords.get("dest", flag[2:].replace("-", "_")), values.get(flag, default))
    return args


def _build_parser():
    """The argparse parser for `_SPEC`: it prints help and usage errors, and
    reads every command line `_quick_parse` refuses."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits with status 2 on bad flags; the contract reserves 2 for
        # verification failures, so route usage problems through an exception.
        def error(self, message: str) -> None:
            raise _UsageError(message)

        def _print_message(self, message: str, file=None) -> None:
            # argparse drops an OSError from this write (of help); let it reach `main`
            (file or sys.stderr).write(message)

    parser = _Parser(
        prog="hexdomino",
        description="Count, enumerate, and verify square/domino tilings of the "
        "hexagonal double-strip.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, handler, options) in _SPEC.items():
        command_parser = sub.add_parser(command, help=help_text)
        for flag, keywords in options:
            command_parser.add_argument(flag, **keywords)
        command_parser.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if sys.stdout is None:  # fd 1 was closed when the process started
        print("error: stdout is closed", file=sys.stderr)
        return 1
    # Counts are printed in full at any size; CPython otherwise refuses to
    # convert ints of more than 4300 digits to str.
    set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", None)
    if set_int_max_str_digits is not None:
        set_int_max_str_digits(0)
    try:
        try:
            args = _quick_parse(argv) or _build_parser().parse_args(argv)
            return args.handler(args)
        except SystemExit as exc:  # --help prints and exits 0 inside argparse
            return int(exc.code or 0)
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
        finally:
            sys.stdout.flush()  # help and errors leave output too
    except OSError as exc:
        # The reader closed stdout (`hexdomino enumerate ... | head`), or the
        # disk is full.  Point stdout at devnull so no later flush fails too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: stdout was closed before the output ended", file=sys.stderr)
        else:
            print(f"error: stdout could not be written: {exc.strerror}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def entry() -> None:
    """Run `main` on the command line and end the process without teardown."""
    code = main(sys.argv[1:])
    if sys.stdout is not None:
        sys.stdout.flush()  # a no-op unless an interrupt cut main's flush short
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
