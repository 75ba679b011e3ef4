"""Start the benchmark's child processes, one at a time, from a small process.

A child's ru_maxrss counts the pages it inherited from its parent at fork
time: the high-water mark survives exec. A child started by the benchmark
itself, which holds the corpus in memory, would report the benchmark's size.
This process stays small and starts every child instead, so each child's
peak RSS is its own.

Protocol: each line on stdin is a JSON object {"argv": [...], "log": path};
the child's stdout and stderr go to the log file. Each reply on stdout is a
JSON object {"wall_s", "maxrss_kb", "exit"}, taken with wait4 for that child
alone. End of input ends this process.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "exit": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
