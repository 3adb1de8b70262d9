"""Run commands on request and report each one's exit status, wall time and
resource usage.

Linux carries the spawning process's peak RSS into a child's ru_maxrss
across exec, so a tool started from the benchmark's own (large) process
would report the benchmark's RSS.  This helper runs under ``python -S``
with few imports, so that its RSS stays below any meterpipe tool's.

Protocol: one JSON request per stdin line, {"argv", "stdin", "stdout"}
(paths or null); one JSON reply per stdout line, {"status", "wall_s",
"cpu_s", "max_rss_mb", "stderr"}.  Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def run(argv, stdin, stdout):
    fin = open(stdin, "rb") if stdin else subprocess.DEVNULL
    fout = open(stdout, "wb") if stdout else subprocess.DEVNULL
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=fin, stdout=fout, stderr=subprocess.PIPE)
        with proc.stderr:
            err = proc.stderr.read()
        _, status, ru = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for f in (fin, fout):
            if f is not subprocess.DEVNULL:
                f.close()
    return {
        "status": proc.returncode,
        "wall_s": wall_s,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "max_rss_mb": ru.ru_maxrss / 1024,
        "stderr": err.decode("utf-8", "replace")[-2000:],
    }


def main():
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["stdin"], request["stdout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
