"""Command launcher for the benchmark.

A child's ``ru_maxrss`` also counts the peak resident set of the address
space it replaced at exec, which is that of the process it was spawned
from. So orcas commands are spawned from this small process, started
before the benchmark generates any input, rather than from the benchmark
itself; otherwise ``peak_rss_mb`` would report the benchmark's own memory.

One JSON request per line on stdin:
    {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
one JSON reply per line on stdout:
    {"status": wait status, "wall_s": seconds, "maxrss_kib": KiB}
The wall time runs from spawn to exit. A command still running after
``timeout`` seconds is killed.
"""

import json
import os
import signal
import sys
import time


def main():
    running = []

    def kill(signum, frame):
        for pid in running:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        request = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
        ]
        argv = request["argv"]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        running.append(pid)
        signal.alarm(request["timeout"])
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        signal.alarm(0)
        running.clear()
        sys.stdout.write(json.dumps({"status": status, "wall_s": wall,
                                     "maxrss_kib": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
