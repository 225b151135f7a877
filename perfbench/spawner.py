"""Runs commands one at a time for run.py and reports each one's wall time and peak memory.

Reads one JSON request per line on stdin: {"argv", "stdout", "stderr"}, the
last two file paths. Replies with one JSON line per request. A child's peak
resident size (ru_maxrss) counts the memory of the process that started it,
so commands are started from this small process rather than from run.py,
whose own memory grows with the workload. Imports nothing heavy for the same
reason.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "returncode": proc.returncode,
                          "maxrss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
