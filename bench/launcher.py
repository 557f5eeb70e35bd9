"""Spawns and times the benchmark's child processes from a small process.

Usage: python launcher.py, then one JSON request per stdin line:
{"cmd": [...], "env": {...}, "stdout": path, "stderr": path,
"timeout": seconds}. For each it prints one JSON line with the wall
time from spawn to exit, the child's CPU time, peak RSS and exit code.

Why a separate process: on Linux, exec records the resident set
high-water mark of the address space it replaces into the new
program's ru_maxrss, so a child spawned by the harness would report
at least the harness's own peak RSS, which grows with the inputs and
references it holds. Spawned from here, the floor is this process's
few megabytes. It imports nothing beyond os, sys, json, time and
signal for the same reason.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    pid = 0

    def on_alarm(signum, frame):
        if pid:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    for line in sys.stdin:
        req = json.loads(line)
        out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(req["cmd"][0], req["cmd"], req["env"], file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, req["timeout"])
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            pid = 0
        finally:
            os.close(out)
            os.close(err)
        reply = {
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "code": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
