"""Runs the benchmark's commands from a small helper process.

Linux carries a process's peak resident size over ``exec`` into the program
it starts, so a command started straight from the benchmark process, which
has imported the package and holds its results, would report at least the
benchmark's own peak.  ``Spawner`` starts this file as a helper before the
benchmark imports anything large; commands the helper starts report their
own peak.  The helper reads one JSON request per line on standard input and
answers each with one JSON line.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional


@dataclass
class Proc:
    code: int
    wall_s: float
    rss_mb: float


def run_process(argv: list[str], cwd: Path, env: dict, log: Path,
                timeout: float, err_log: Optional[Path] = None) -> Proc:
    """Run to exit; wall time from spawn to reap and the child's peak RSS."""
    with log.open("wb") as out, open(err_log or os.devnull, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=err if err_log else subprocess.STDOUT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0)


class Spawner:
    """Client side: the helper process and one request at a time."""

    def __init__(self):
        self._helper = subprocess.Popen([sys.executable, __file__],
                                        stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path, env: dict, log: Path,
            timeout: float, err_log: Optional[Path] = None) -> Proc:
        request = {"argv": argv, "cwd": str(cwd), "env": env, "log": str(log),
                   "timeout": timeout,
                   "err_log": str(err_log) if err_log else None}
        self._helper.stdin.write(json.dumps(request) + "\n")
        self._helper.stdin.flush()
        reply = self._helper.stdout.readline()
        if not reply:
            raise RuntimeError("the process-spawning helper exited")
        return Proc(**json.loads(reply))

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._helper.stdin.close()
        try:
            self._helper.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._helper.kill()
            self._helper.wait()


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        proc = run_process(req["argv"], Path(req["cwd"]), req["env"],
                           Path(req["log"]), req["timeout"],
                           Path(req["err_log"]) if req["err_log"] else None)
        sys.stdout.write(json.dumps(asdict(proc)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
