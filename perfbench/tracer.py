"""Traced run of the hexdomino CLI: per-layer times and counts.

Usage: python3 tracer.py --out TRACE.json -- <hexdomino arguments>

Imports the package, wraps its public functions from outside, then calls
`hexdomino.cli.main(argv)` in this process with stdout untouched, so the
caller can check the output exactly as for an untraced run.  The package
imports functions by name (and `identities` under aliases such as `tet`),
so every wrapper is rebound in each `hexdomino.*` module that holds the
original object.

Coarse calls (one per verified identity or per walk) are kept as spans
(id, name, start, end, parent id) and written to TRACE.json with the
per-layer metrics.  Hot calls (millions of sequence lookups, tokens and
tile lookups) are only aggregated, as count, total time and self time:
a span each would hold hundreds of megabytes.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict
from functools import partial

_clock = time.perf_counter


def _ignore(result) -> None:
    pass


class Tracer:
    """Spans and per-name totals, corrected for the wrappers' own cost.

    Each wrapper costs time inside the interval it records ("inner") and
    outside it, in its caller ("outer").  Both are measured once on a no-op
    at start-up and subtracted, so a caller of millions of cheap calls does
    not report the tracing as its own self time.
    """

    def __init__(self) -> None:
        # A frame is [span id, child seconds, wrapper seconds inside it]; the
        # root frame stands for untraced code.
        self.stack: list[list] = [[None, 0.0, 0.0]]
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.spans: list[tuple | None] = []
        # Wrappers read self.cost, so calibrate with zero corrections first.
        self.cost = {"leaf": (0.0, 0.0), "span": (0.0, 0.0), "steps": (0.0, 0.0)}
        self.cost = {
            "leaf": self._calibrate(self.leaf, _noop, _call_loop),
            "span": self._calibrate(partial(self.span, keep=False), _noop, _call_loop),
            "steps": self._calibrate(self.generator, _noop_steps, _iter_loop),
        }
        for table in (self.total, self.self_time, self.calls):
            table.clear()

    def _calibrate(self, wrap, bare, loop, n: int = 20000, repeats: int = 5):
        """(inner, outer) seconds per call of `wrap("~", bare)`, where `bare` does nothing."""
        empty = min(_time(_empty_loop, n) for _ in range(repeats))
        unwrapped = min(_time(loop, bare, n) for _ in range(repeats))
        wrapped, recorded = float("inf"), 0.0
        for _ in range(repeats):
            self.total.clear()
            took = _time(loop, wrap("~", bare), n)
            if took < wrapped:
                wrapped, recorded = took, self.total["~"]
        inner = max(0.0, (recorded - (unwrapped - empty)) / n)
        outer = max(0.0, (wrapped - recorded - empty) / n)
        return inner, outer

    def _enter(self, keep: bool) -> tuple[list, float]:
        # A frame not kept as a span passes its parent's id on to children.
        if keep:
            frame = [len(self.spans), 0.0, 0.0]
            self.spans.append(None)  # reserve the id; filled on exit
        else:
            frame = [self.stack[-1][0], 0.0, 0.0]
        self.stack.append(frame)
        return frame, _clock()

    def _exit(self, name: str, kind: str, frame: list, start: float, keep: bool) -> None:
        end = _clock()
        inner, outer = self.cost[kind]
        self.stack.pop()
        elapsed = end - start
        self.total[name] += elapsed - frame[2] - inner
        self.self_time[name] += elapsed - frame[1] - inner
        self.calls[name] += 1
        parent = self.stack[-1]
        parent[1] += elapsed + outer
        parent[2] += frame[2] + inner + outer
        if keep:
            self.spans[frame[0]] = (frame[0], name, start, end, parent[0])

    # Callbacks run outside the recorded interval; the calibrated no-op
    # wrappers call the default one, so a callback's cost is accounted for.
    def span(self, name: str, fn, on_result=_ignore, keep: bool = True):
        """Wrap a call that has traced children; keep a span per call if `keep`."""
        def wrapper(*args, **kwargs):
            frame, start = self._enter(keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, "span", frame, start, keep)
            on_result(result)
            return result
        return wrapper

    def leaf(self, name: str, fn, on_result=_ignore):
        """Wrap a hot call with no traced children: count and time only."""
        total, calls, stack = self.total, self.calls, self.stack
        inner, outer = self.cost["leaf"]

        def wrapper(*args, **kwargs):
            start = _clock()
            result = fn(*args, **kwargs)
            elapsed = _clock() - start
            total[name] += elapsed - inner
            calls[name] += 1
            parent = stack[-1]
            parent[1] += elapsed + outer
            parent[2] += inner + outer
            on_result(result)
            return result
        return wrapper

    def generator(self, name: str, fn):
        """Wrap a generator function: time each step spent inside it."""
        def wrapper(*args, **kwargs):
            return self._steps(name, fn(*args, **kwargs))  # argument errors raise here
        return wrapper

    def _steps(self, name: str, iterator):
        while True:
            frame, start = self._enter(keep=False)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(name, "steps", frame, start, keep=False)
            self.calls[name + ".yielded"] += 1
            yield item


def _noop():
    return None


def _noop_steps(n: int):
    return iter(range(n))


def _time(loop, *args) -> float:
    start = _clock()
    loop(*args)
    return _clock() - start


def _empty_loop(n: int) -> None:
    for _ in range(n):
        pass


def _call_loop(fn, n: int) -> None:
    for _ in range(n):
        fn()


def _iter_loop(fn, n: int) -> None:
    for _ in fn(n):
        pass


def rebind(original, replacement) -> None:
    """Point every name bound to `original` in a hexdomino module at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "hexdomino" and not module_name.startswith("hexdomino."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def instrument(tracer: Tracer, counters: dict) -> None:
    """Wrap the layer boundaries of every hexdomino module."""
    from hexdomino import correspondences, enumerator, identities, sequences, strip_model

    def track_leaves(name):
        def on_result(result):
            counters[name] += result if isinstance(result, int) else sum(result.values())
        return on_result

    def track_max(value):
        if value > counters["max_value"]:
            counters["max_value"] = value

    wrappers = [
        (sequences.tetranacci, tracer.leaf("sequences.tetranacci", sequences.tetranacci, track_max)),
        (sequences.fibonacci_comb,
         tracer.leaf("sequences.fibonacci_comb", sequences.fibonacci_comb, track_max)),
        (sequences.pow2, tracer.leaf("sequences.pow2", sequences.pow2, track_max)),
        (strip_model.to_tokens, tracer.leaf("strip_model.to_tokens", strip_model.to_tokens)),
        (strip_model.validate, tracer.leaf("strip_model.validate", strip_model.validate)),
        (strip_model.tile_at, tracer.leaf("strip_model.tile_at", strip_model.tile_at)),
        (enumerator.classify_diagonal,
         tracer.leaf("enumerator.classify_diagonal", enumerator.classify_diagonal)),
        (enumerator.count_by_enumeration,
         tracer.span("enumerator.count_by_enumeration", enumerator.count_by_enumeration,
                     track_leaves("count_leaves"))),
        (enumerator.partition_by_first,
         tracer.span("enumerator.partition_by_first", enumerator.partition_by_first,
                     track_leaves("partition_leaves"))),
        (enumerator.histogram_by_descriptor,
         tracer.span("enumerator.histogram_by_descriptor", enumerator.histogram_by_descriptor)),
        (enumerator.enumerate_tilings,
         tracer.generator("enumerator.enumerate_tilings", enumerator.enumerate_tilings)),
        # One thm2_map call per tiling: timed with its children, but no spans kept.
        (correspondences.thm2_map,
         tracer.span("correspondences.thm2_map", correspondences.thm2_map, keep=False)),
        (correspondences.thm2_verify,
         tracer.span("correspondences.thm2_verify", correspondences.thm2_verify)),
        (identities.verify_range, tracer.span("identities.verify_range", identities.verify_range)),
    ]
    for original, replacement in wrappers:
        rebind(original, replacement)
    of = strip_model.Tiling.of.__func__
    strip_model.Tiling.of = classmethod(tracer.leaf("strip_model.Tiling.of", of))
    identities.IdentityRecord.to_json_dict = tracer.leaf(
        "identities.to_json_dict", identities.IdentityRecord.to_json_dict
    )


def layer_metrics(tracer: Tracer, counters: dict, import_s: float) -> dict:
    """Per-layer metrics; the caller adds cli.stdout_bytes and trace.overhead_s."""
    total, calls, self_s = tracer.total, tracer.calls, tracer.self_time
    walk_s = total["enumerator.count_by_enumeration"] + total["enumerator.partition_by_first"]
    leaves = counters["count_leaves"] + counters["partition_leaves"]
    yielded = calls["enumerator.enumerate_tilings.yielded"]
    built = calls["strip_model.Tiling.of"]
    metrics = {
        "cli.import_s": import_s,
        "cli.self_s": self_s["cli.main"],
        "identities.verify_range.self_s": self_s["identities.verify_range"],
        "identities.to_json_s": total["identities.to_json_dict"],
        "sequences.max_digits": len(str(counters["max_value"])),
        "enumerator.count_by_enumeration.leaves": counters["count_leaves"],
        "enumerator.partition_by_first.leaves": counters["partition_leaves"],
        "enumerator.leaves_per_s": leaves / walk_s if walk_s else 0.0,
        "enumerator.enumerate_tilings.self_s": self_s["enumerator.enumerate_tilings"],
        "enumerator.enumerate_tilings.yielded": yielded,
        "enumerator.classify_diagonal.calls": calls["enumerator.classify_diagonal"],
        "strip_model.tilings_built": built,
        "strip_model.tilings_per_leaf": built / (leaves + yielded) if leaves + yielded else 0.0,
    }
    for name in ("tetranacci", "fibonacci_comb", "pow2"):
        metrics[f"sequences.{name}.calls"] = calls[f"sequences.{name}"]
        metrics[f"sequences.{name}.s"] = total[f"sequences.{name}"]
    for name in ("count_by_enumeration", "partition_by_first", "classify_diagonal",
                 "histogram_by_descriptor"):
        metrics[f"enumerator.{name}.s"] = total[f"enumerator.{name}"]
    for name in ("to_tokens", "validate", "tile_at"):
        metrics[f"strip_model.{name}.calls"] = calls[f"strip_model.{name}"]
        metrics[f"strip_model.{name}.s"] = total[f"strip_model.{name}"]
    for name in ("thm2_verify", "thm2_map"):
        metrics[f"correspondences.{name}.calls"] = calls[f"correspondences.{name}"]
        metrics[f"correspondences.{name}.self_s"] = self_s[f"correspondences.{name}"]
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write spans and metrics")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then hexdomino arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    start = _clock()
    import hexdomino.cli
    import_s = _clock() - start

    tracer, counters = Tracer(), defaultdict(int)
    instrument(tracer, counters)
    try:
        code = tracer.span("cli.main", hexdomino.cli.main)(argv)
    finally:
        sys.stdout.flush()
    with open(args.out, "w") as handle:
        json.dump(
            {
                "metrics": layer_metrics(tracer, counters, import_s),
                "spans": [s for s in tracer.spans if s is not None],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
