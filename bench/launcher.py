"""Small process that starts the benchmark's phase processes.

Linux carries a process's peak RSS across fork and exec, so a child forked
from the benchmark (which holds numpy and the generated data) would report
the benchmark's own size as its peak.  ``run.py`` therefore starts this
launcher before it loads anything, and asks it to start each phase.

Protocol, one JSON object per line: the request on stdin is
``{"cmd", "cwd", "env", "stdout", "stderr", "timeout"}``; the reply on stdout
is ``{"code", "wall_s", "maxrss_kb"}``, where ``wall_s`` runs from just
before the start to the end of ``os.wait4`` and ``maxrss_kb`` is the child's
peak RSS from that same call.  The launcher sets ``DXML_BENCH_LAUNCHED`` in
the child's environment to its ``time.monotonic()`` at the start.  It exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve(requests, replies) -> None:
    for line in requests:
        req = json.loads(line)
        env = dict(req["env"])
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            t0 = time.monotonic()
            env["DXML_BENCH_LAUNCHED"] = repr(t0)
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=env, stdout=out, stderr=err)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        replies.write(json.dumps({"code": code, "wall_s": wall, "maxrss_kb": usage.ru_maxrss})
                      + "\n")
        replies.flush()


if __name__ == "__main__":
    serve(sys.stdin, sys.stdout)
