"""Start one command, wait for it, and report its timing and resource use.

Usage: python3 -S launch.py REPORT_FD COMMAND...

The command inherits this process's stdin, stdout, stderr and environment.
When it exits, one JSON object goes to REPORT_FD: spawn and exit times on
the system-wide monotonic clock (the same clock as the caller's
`time.perf_counter`), the exit status, and the child's CPU time and peak RSS
from wait4.

Why a launcher: on Linux a child's `ru_maxrss` is at least the peak RSS of
the process that forked it, because the child starts from its parent's
memory.  The benchmark holds megabytes of output, so it cannot fork the CLI
itself.  This launcher is a bare interpreter (`-S`, no imports beyond the
built-ins it needs), smaller than any CLI process.
"""
import json
import os
import sys
import time


def main() -> None:
    report_fd, command = int(sys.argv[1]), sys.argv[2:]
    start = time.perf_counter()
    pid = os.posix_spawn(command[0], command, os.environ)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    report = {
        "start": start,
        "end": end,
        "code": os.waitstatus_to_exitcode(status),
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }
    with os.fdopen(report_fd, "w") as handle:
        handle.write(json.dumps(report))


if __name__ == "__main__":
    main()
