"""Tests of the benchmark itself: `python3 -m pytest -q perfbench` from the repository root.

They use small inputs, so they take seconds, and they are kept out of the
package's own test suite.
"""
import hashlib
import json
import shutil
import subprocess
import sys

import checks
import run

SMALL_ORACLE = ("verify", "--identity", "all", "--mode", "oracle", "--from", "0", "--to", "8",
                "--expect-mismatch")
SMALL_CAP = {"HEXDOMINO_MAX_N": "8"}


def small_workload(argv, env=None) -> run.Workload:
    """A workload whose reference digest is the untraced output of this tree."""
    out = run.run_cli(argv, env or {}).out
    return run.Workload("small", argv, hashlib.sha256(out).hexdigest(), env or {})


def test_traced_run_prints_what_the_untraced_run_prints():
    for argv, env in ((("enumerate", "--n", "9"), {}), (SMALL_ORACLE, SMALL_CAP)):
        workload = small_workload(argv, env)
        tally = run.Tally()
        metrics = run.run_traced(workload, seed=3, seconds=0, tally=tally)
        assert (tally.attempted, tally.failed) == (2, 0)
        assert set(metrics) == {m["name"] for m in run.load_spec()["per_layer"]}


def test_traced_run_reaches_each_layer():
    metrics = run.run_traced(small_workload(SMALL_ORACLE, SMALL_CAP), 1, 0, run.Tally())
    for name in ("correspondences.thm2_map.calls", "enumerator.classify_diagonal.calls",
                 "enumerator.partition_by_first.leaves", "enumerator.count_by_enumeration.leaves",
                 "strip_model.tile_at.calls", "sequences.tetranacci.calls"):
        assert metrics[name][0] > 0, name
    assert metrics["cli.stdout_bytes"][0] > 0


def test_untraced_run_reports_every_end_to_end_metric():
    tally = run.Tally()
    samples = run.run_untraced(small_workload(("enumerate", "--n", "9")), 2, 0, tally)
    # One untimed round and one timed round, each a no-work CLI and the workload.
    assert (tally.attempted, tally.failed) == (4, 0)
    assert set(run.end_to_end(samples)) == set(run.END_TO_END)
    assert all(len(values) == 1 for values in samples.values())


def test_checks_pass_on_correct_small_outputs():
    out = run.run_cli(("enumerate", "--n", "10"), {}).out
    assert checks.check_enumeration(out, 10, seed=5, sample=10**6) == []
    out = run.run_cli(SMALL_ORACLE, SMALL_CAP).out
    assert checks.check_records(out, "oracle", list(checks.IDENTITIES), 0, 8, 8) == []


def test_corrupted_tiling_line_is_a_failure():
    workload = small_workload(("enumerate", "--n", "8"))
    inv = run.run_cli(workload.argv, {})
    lines = inv.out.split(b"\n")
    lines[5] = lines[5].replace(b"S", b"H", 1)
    inv.out = b"\n".join(lines)
    assert checks.check_enumeration(inv.out, 8, seed=0, sample=10**6)
    tally = run.Tally()
    tally.record("corrupted", inv, workload.check(inv.out, seed=0))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_wrong_or_missing_record_is_a_failure():
    out = run.run_cli(SMALL_ORACLE, SMALL_CAP).out
    lines = out.splitlines()
    ids = list(checks.IDENTITIES)
    record = json.loads(lines[0])
    record["oracle_total"] = str(int(record["oracle_total"]) + 1)
    wrong = b"\n".join([json.dumps(record).encode()] + lines[1:])
    assert checks.check_records(wrong, "oracle", ids, 0, 8, 8)
    missing = b"\n".join(lines[1:])
    assert checks.check_records(missing, "oracle", ids, 0, 8, 8)
    flipped = out.replace(b'"equal":false', b'"equal":true', 1)
    assert checks.check_records(flipped, "oracle", ids, 0, 8, 8)


def test_nonzero_exit_is_a_failure():
    inv = run.run_cli(("count", "--n", "-1"), {})
    assert inv.code == 1
    tally = run.Tally()
    tally.record("bad", inv, [])
    assert tally.failed == 1


def test_metric_names_match_the_spec():
    spec = run.load_spec()
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_verdicts():
    base = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert run.verdict(base, [1.3 * v for v in base], 0.2, lower_better=True) == "REGRESSION"
    assert run.verdict(base, base, 0.2, lower_better=True) == "same"
    assert run.verdict(base, [0.5 * v for v in base], 0.2, lower_better=True) == "better"
    assert run.verdict([1, 2, 3, 4], [1, 2, 3, 4], 0.2, lower_better=True) == "unresolved"


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    files = []
    for side, value in (("a", 1.0), ("b", 2.0)):
        path = tmp_path / f"{side}.jsonl"
        with open(path, "w") as handle:
            for seed in range(3):
                for workload in ("enumerate-n16", "closed-all-300"):
                    result = {"metrics": {"wall_rel": {"value": value + seed / 100, "unit": "ref"}}}
                    handle.write(json.dumps({"meta": {"workload": workload}, "result": result}))
                    handle.write("\n")
        files.append(str(path))
    assert run.compare(*files) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 2 and all(row.endswith("REGRESSION") for row in rows)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enumerate-n16", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
