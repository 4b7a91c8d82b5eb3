"""Spawn one command at a time and report its wall time and peak RSS.

The kernel folds the memory of the process that spawns a child into the
child's ``ru_maxrss``, so the benchmark (which holds numpy and reference
data) does not spawn the program itself.  It runs this small process, with
no imports beyond the standard library core, and writes one JSON request
per line to its stdin:

    {"argv": [...], "env": {...}, "stdout": PATH, "stderr": PATH, "timeout": S}

and reads one JSON reply per line from its stdout:

    {"seconds": wall time from spawn to exit, "maxrss_kb": peak RSS,
     "status": wait status, or null when the command was killed at timeout}

It exits when its stdin closes.
"""

import json
import os
import signal
import sys
import time


def _on_alarm(signum, frame):
    raise TimeoutError


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out = os.open(request["stdout"], flags, 0o644)
    err = os.open(request["stderr"], flags, 0o644)
    null = os.open(os.devnull, os.O_RDONLY)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            request["argv"][0], request["argv"], request["env"],
            file_actions=[(os.POSIX_SPAWN_DUP2, null, 0), (os.POSIX_SPAWN_DUP2, out, 1),
                          (os.POSIX_SPAWN_DUP2, err, 2)],
        )
    finally:
        for fd in (out, err, null):
            os.close(fd)
    signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 0.1))
    try:
        _, status, usage = os.wait4(pid, 0)
    except TimeoutError:
        os.kill(pid, signal.SIGKILL)
        _, _, usage = os.wait4(pid, 0)
        status = None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {"seconds": time.perf_counter() - start, "maxrss_kb": usage.ru_maxrss,
            "status": status}


def main():
    signal.signal(signal.SIGALRM, _on_alarm)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
