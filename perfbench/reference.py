"""Fixed reference work that the benchmark times just before each CLI process.

Usage: python3 reference.py N

The host the benchmark was sized on runs the same process 20-50% slower or
faster from one minute to the next, and `cpu_s` moves with `wall_s`, so the
slowdown is in the CPU, not in I/O.  A CLI time divided by the time of this
program, run right before it on the same host, cancels most of that drift.
This file never changes with the package, so the ratio moves only with the
CLI.

Its four parts take about equal time and each resembles one workload, so the
drift they see is a mix of the drift each workload sees: a recursive walk
that builds token strings (enumeration), a recursive walk through closures
that only counts (the frontier walk), per-key counting of strings (the
oracle's histograms) and big integer sums turned into decimal text (the
closed forms).  It prints one line per composition of N into parts 1-4,
then a summary line, and shares no code with the package.
"""
import sys
from collections import Counter


def compositions(n: int, prefix: list[str], lines: list[str]) -> None:
    if n == 0:
        lines.append(" ".join(prefix))
        return
    for part in (1, 2, 3, 4):
        if part <= n:
            prefix.append(f"P{part}.{n}")
            compositions(n - part, prefix, lines)
            prefix.pop()


def count_by_smallest(n: int) -> dict[int, int]:
    groups: dict[int, int] = {}

    def walk(rest: int, smallest: int) -> None:
        if rest == 0:
            groups[smallest] = groups.get(smallest, 0) + 1
            return
        for part in (1, 2, 3, 4):
            if part <= rest:
                walk(rest - part, min(smallest, part))

    walk(n, 5)
    return groups


def main() -> None:
    n = int(sys.argv[1])
    lines: list[str] = []
    compositions(n, [], lines)
    by_smallest = count_by_smallest(n + 1)
    by_tail = Counter(line[-6:] for line in lines)
    for start in (0, 3, 6):
        by_tail.update(line[start:start + 6] for line in lines)
    table = [1, 1, 2, 4]
    digits = 0
    for _ in range(300 * n):
        table.append(table[-1] + table[-2] + table[-3] + table[-4])
        digits += len(str(table[-1]))
    lines.append(f"{sum(by_smallest.values())} {len(by_tail)} {digits}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
