"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 perfbench/spawn.py TIMEOUT_S STDERR_PATH COMMAND...

The peak RSS comes from os.wait4 on the command alone (RUSAGE_CHILDREN
would report the maximum over every earlier child too).  Commands are
started from this small process rather than from run.py because Linux
carries the high-water RSS of the memory image a process replaces
across exec: a command started straight from the benchmark process,
which holds loaded tables, would report the benchmark's peak instead
of its own.  Standard output of the command is discarded; its standard
error goes to STDERR_PATH.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    timeout_s, stderr_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout_s, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "rc": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
