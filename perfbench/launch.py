"""Run one command and report its wall time, CPU and peak resident set.

    python3 perfbench/launch.py LOG TIMEOUT_S ARG...

runs ``python3 ARG...`` with standard output and error sent to LOG, and
prints one JSON object: ``wall_s``, ``cpu_s`` (user + system of the
command and every process it waited for), ``peak_rss_mb`` and ``exit``.

On Linux a process's peak resident set (``ru_maxrss``) also counts the
memory of the process it was forked from, so a command forked from the
benchmark itself, which holds the in-process passes in memory, would
report the benchmark's size.  This launcher is a fresh, small interpreter
that forks the command, so the figure is the command's own.  An alarm set
before ``exec`` kills the command after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    log, timeout_s, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            os.dup2(fd, 1)
            os.dup2(fd, 2)
            signal.alarm(timeout_s)
            os.execv(sys.executable, [sys.executable, *args])
        finally:
            os._exit(127)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.close(fd)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "exit": os.waitstatus_to_exitcode(status),
    }))


if __name__ == "__main__":
    main()
