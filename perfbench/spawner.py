"""Starts the benchmark's request processes and reports how each one ended.

    python perfbench/spawner.py     (one JSON job per line on stdin)

The kernel's peak RSS of a process (ru_maxrss) starts from the peak of the
process that spawned it, so the benchmark, which holds numpy, scipy and
parsed outputs, spawns requests through this small process instead.

Job:   {"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}
Reply: {"rc": exit code, "t0": monotonic time at spawn, "wall": seconds,
        "maxrss_kb": peak RSS of the request process}
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job):
    with open(job["stdout"], "wb") as fo, open(job["stderr"], "wb") as fe:
        t0 = time.monotonic()
        proc = subprocess.Popen(job["argv"], stdout=fo, stderr=fe,
                                stdin=subprocess.DEVNULL)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            timer.join()
        wall = time.monotonic() - t0
    return {"rc": proc.returncode, "t0": t0, "wall": wall,
            "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
