"""Benchmark of the hexdomino CLI: end-to-end runs and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload enumerate-n16 --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --compare BEFORE.jsonl AFTER.jsonl

Each operation spawns the real CLI (`hexdomino.cli.entry`, what the
installed `hexdomino` script runs) from `src/` as a child process, one at a
time, through `launch.py`, which reaps it with wait4 for its CPU time and
peak RSS; this process drains its stdout and stderr.  Every output is
checked by `checks.py`, which shares no code with the package.  Each CLI
time is divided by the time of `reference.py`, run right before it, because
the host's CPU speed drifts by more than the bounds from minute to minute.
The last line of stdout is the result object; the line before it records
the seed, interpreter, CPU count, argv, environment and every raw sample.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks

_clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
CLI = "import sys; from hexdomino.cli import entry; entry()"

SETUP_ARGV = ["count", "--n", "0"]
# reference.py N prints T(N) compositions and one summary line.
REFERENCE_N = 17
REFERENCE = [sys.executable, str(HERE / "reference.py"), str(REFERENCE_N)]

# Raw samples per round; the *_rel metrics divide the CLI's by the reference's.
RAW = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb", "first_record_s",
       "reference_wall_s", "reference_cpu_s")
RELATIVE = {
    "wall_rel": ("wall_s", "reference_wall_s"),
    "cpu_rel": ("cpu_s", "reference_cpu_s"),
    "first_record_rel": ("first_record_s", "reference_wall_s"),
}
END_TO_END = tuple(RELATIVE) + ("peak_rss_mb", "setup_s")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    digest: str  # sha256 of the stdout of the reference commit
    env: dict = field(default_factory=dict)

    @property
    def cap(self) -> int | None:
        raw = self.env.get("HEXDOMINO_MAX_N")
        return None if raw is None else int(raw)

    def check(self, out: bytes, seed: int) -> list[str]:
        """Problems with one invocation's stdout; empty when it is correct."""
        problems = checks.check_digest(out, self.digest)
        args = dict(zip(self.argv[1::2], self.argv[2::2]))
        if self.argv[0] == "enumerate":
            problems += checks.check_enumeration(out, int(args["--n"]), seed)
        else:
            ids = list(checks.IDENTITIES) if args["--identity"] == "all" else [args["--identity"]]
            problems += checks.check_records(
                out, args["--mode"], ids, int(args["--from"]), int(args["--to"]), self.cap
            )
        return problems


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "enumerate-n16",
            ("enumerate", "--n", "16"),
            "590dacc024fea2e8171f711a3aa75750cc6163165b8a125840e97a292ab060bb",
        ),
        Workload(
            "oracle-all-cap12",
            ("verify", "--identity", "all", "--mode", "oracle", "--from", "0", "--to", "12",
             "--expect-mismatch"),
            "2090d0b1e103fdba33256412041da87cde69ca9e885c1b7647fe47f3ae536f8c",
            {"HEXDOMINO_MAX_N": "12"},
        ),
        Workload(
            "oracle-walk-cap20",
            ("verify", "--identity", "thm8", "--mode", "oracle", "--from", "3", "--to", "10"),
            "04d2544979ba3804198df9b1c808cae1a57beb544d0e5560caac9ae121793478",
            {"HEXDOMINO_MAX_N": "20"},
        ),
        Workload(
            "closed-all-300",
            ("verify", "--identity", "all", "--mode", "closed", "--from", "0", "--to", "300",
             "--expect-mismatch"),
            "3644ae28cd6d3d28bfbd281b252fd1faec11970369f178a95f3eb8fd71735eca",
        ),
    )
}


@dataclass
class Invocation:
    code: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    first_record_s: float | None


def child_env(extra: dict) -> dict:
    """The caller's environment with the package on the path and no stray cap."""
    env = {k: v for k, v in os.environ.items() if k not in ("HEXDOMINO_MAX_N", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def spawn(command: list[str], env: dict) -> Invocation:
    """Run one child to completion through launch.py, draining its pipes without threads."""
    report_read, report_write = os.pipe()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(HERE / "launch.py"), str(report_write), *command],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=env, cwd=ROOT, pass_fds=(report_write,),
    )
    os.close(report_write)
    out: list[bytes] = []
    err: list[bytes] = []
    report: list[bytes] = []
    first_newline = None
    with os.fdopen(report_read, "rb") as report_file, selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ, out)
        selector.register(proc.stderr, selectors.EVENT_READ, err)
        selector.register(report_file, selectors.EVENT_READ, report)
        while selector.get_map():
            for key, _ in selector.select():
                chunk = os.read(key.fd, 1 << 16)
                if not chunk:
                    selector.unregister(key.fileobj)
                elif key.data is out and first_newline is None and b"\n" in chunk:
                    first_newline = _clock()
                key.data.append(chunk)
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0 or not report:
        raise RuntimeError(f"launcher failed with exit code {proc.returncode}: {err!r}")
    child = json.loads(b"".join(report))
    return Invocation(
        code=child["code"],
        out=b"".join(out),
        err=b"".join(err),
        wall_s=child["end"] - child["start"],
        cpu_s=child["cpu_s"],
        peak_rss_mb=child["maxrss_kb"] / 1024,
        first_record_s=None if first_newline is None else first_newline - child["start"],
    )


def run_cli(argv, env: dict) -> Invocation:
    return spawn([sys.executable, "-c", CLI, *argv], child_env(env))


class Tally:
    """Operations attempted and failed; a failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, inv: Invocation, problems: list[str]) -> None:
        self.attempted += 1
        if inv.code != 0:
            problems = [f"exit code {inv.code}"] + problems
        if inv.err:
            problems = [f"stderr: {inv.err[:200]!r}"] + problems
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems), file=sys.stderr)


def run_reference() -> Invocation:
    """One run of the reference work; a wrong output stops the benchmark."""
    inv = spawn(REFERENCE, child_env({}))
    count = checks.tetranacci_table(REFERENCE_N)[REFERENCE_N]
    if inv.code != 0 or inv.err or inv.out.count(b"\n") != count + 1:
        raise RuntimeError(f"reference run failed: exit code {inv.code}, {inv.err[:200]!r}")
    return inv


def run_untraced(workload: Workload, seed: int, seconds: int, tally: Tally) -> dict:
    """Raw samples of rounds of a no-work CLI, the reference and the workload.

    The first round is not timed: it compiles bytecode and fills the file
    cache, which users pay once.  Timed rounds follow until --seconds would be
    exceeded, at least one.
    """
    samples: dict[str, list[float]] = {key: [] for key in RAW}
    deadline = None
    while True:
        start = _clock()
        setup = run_cli(SETUP_ARGV, {})
        problems = [] if setup.out == b"1\n" else [f"stdout {setup.out[:40]!r}"]
        tally.record("setup", setup, problems)
        reference = run_reference()
        inv = run_cli(workload.argv, workload.env)
        tally.record(workload.name, inv, workload.check(inv.out, seed))
        if deadline is None:
            deadline = _clock() + seconds
            continue
        samples["setup_s"].append(setup.wall_s)
        samples["reference_wall_s"].append(reference.wall_s)
        samples["reference_cpu_s"].append(reference.cpu_s)
        for key in ("wall_s", "cpu_s", "peak_rss_mb", "first_record_s"):
            value = getattr(inv, key)
            samples[key].append(inv.wall_s if value is None else value)
        if _clock() + (_clock() - start) > deadline:
            break
    return samples


def end_to_end(samples: dict) -> dict:
    """Medians of the raw samples; each *_rel is the median of per-round ratios."""
    metrics = {key: statistics.median(samples[key]) for key in ("peak_rss_mb", "setup_s")}
    for name, (cli, reference) in RELATIVE.items():
        metrics[name] = statistics.median(
            a / b for a, b in zip(samples[cli], samples[reference])
        )
    return metrics


def run_traced(workload: Workload, seed: int, seconds: int, tally: Tally) -> dict:
    """Per-layer samples from pairs of one untraced and one traced process."""
    WORK.mkdir(parents=True, exist_ok=True)
    trace_file = WORK / f"trace-{os.getpid()}.json"
    deadline = _clock() + seconds
    samples: dict[str, list[float]] = {}
    try:
        while True:
            start = _clock()
            plain = run_cli(workload.argv, workload.env)
            tally.record(workload.name, plain, workload.check(plain.out, seed))
            traced = spawn(
                [sys.executable, str(HERE / "tracer.py"), "--out", str(trace_file), "--",
                 *workload.argv],
                child_env(workload.env),
            )
            problems = workload.check(traced.out, seed)
            tally.record(workload.name + " (traced)", traced, problems)
            if traced.code == 0 and not traced.err:
                metrics = json.loads(trace_file.read_text())["metrics"]
                metrics["cli.stdout_bytes"] = len(traced.out)
                metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
                for key, value in metrics.items():
                    samples.setdefault(key, []).append(value)
            if _clock() + (_clock() - start) > deadline:
                break
    finally:
        trace_file.unlink(missing_ok=True)
    return samples


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units() -> dict:
    spec = load_spec()
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(args: argparse.Namespace) -> int:
    if not (SRC / "hexdomino" / "cli.py").is_file():
        print(f"error: no hexdomino source at {SRC / 'hexdomino'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tally = Tally()
    if args.trace:
        samples = run_traced(workload, args.seed, args.seconds, tally)
        # Per-layer counts stay whole numbers: take the lower median of an even count.
        metrics = {key: statistics.median_low(values) for key, values in samples.items()}
    else:
        samples = run_untraced(workload, args.seed, args.seconds, tally)
        metrics = end_to_end(samples)
    unit_of = units()
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "argv": ["hexdomino", *workload.argv],
        "env": {"PYTHONPATH": "src", **workload.env},
        "reference": ["perfbench/reference.py", str(REFERENCE_N)],
        "error_rate": tally.failed / tally.attempted,
        "samples": samples,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in sorted(metrics.items())},
    }
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(before: list[float], after: list[float], bound: float, lower_better: bool) -> str:
    """Regression gate of BENCHMARK.json, plus a gain rule on the quartile spread."""
    b1, b2, b3 = quartiles(before)
    a1, a2, a3 = quartiles(after)
    worse = (a2 - b2) / b2 if lower_better else (b2 - a2) / b2
    if worse > bound:
        return "REGRESSION"
    if lower_better:
        all_better = max(after) < min(before)
    else:
        all_better = min(after) > max(before)
    if (b3 - b1) / b2 > bound or (a3 - a1) / a2 > bound:
        return "better" if all_better else "unresolved"
    if -worse * b2 > b3 - b1 and all_better:
        return "better"
    return "same"


def compare(path_a: str, path_b: str) -> int:
    spec = load_spec()
    bounds = {m["name"]: (m["bound"], m["better"] == "lower") for m in spec["end_to_end"]}
    sides = []
    for path in (path_a, path_b):
        values: dict[tuple[str, str], list[float]] = {}
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                workload = record["meta"]["workload"]
                for name, metric in record["result"]["metrics"].items():
                    values.setdefault((workload, name), []).append(metric["value"])
        sides.append(values)
    before, after = sides
    header = f"{'workload':<18} {'metric':<40} {'A q1/med/q3':<32} {'B q1/med/q3':<32} verdict"
    print(header)
    for key in sorted(set(before) & set(after)):
        workload, name = key
        qa = "/".join(f"{q:.4g}" for q in quartiles(before[key]))
        qb = "/".join(f"{q:.4g}" for q in quartiles(after[key]))
        if name in bounds:
            bound, lower_better = bounds[name]
            result = verdict(before[key], after[key], bound, lower_better)
        else:
            result = "-"
        print(f"{workload:<18} {name:<40} {qa:<32} {qb:<32} {result}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="hexdomino CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=32)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append this run's meta and result to a JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two JSONL files written with --out")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
