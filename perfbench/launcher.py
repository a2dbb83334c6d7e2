"""Start each requested command, wait for it, and report on it.

Reads one JSON request per stdin line, {"argv", "stdout", "stderr",
"timeout"}, and answers each with one JSON line {"start", "wall_s",
"returncode", "maxrss_mb"}, where start is time.perf_counter() just before
the child was started. Exits at end of input.

The peak resident set that wait4 reports for a child also counts the
process it was forked from. This process stays small, so the figure is the
command's own; run.py grows once it has made warm calls.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=so, stderr=se)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"start": t0, "wall_s": wall, "returncode": proc.returncode,
                          "maxrss_mb": usage.ru_maxrss / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
