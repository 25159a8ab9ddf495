"""Start the benchmark's commands from a small process, one at a time.

run.py starts this script before it has grown and sends it one request per
line on stdin, as JSON:

    {"argv": [...], "cwd": dir, "env": {...}, "stdout": file, "stderr": file,
     "timeout": seconds}

For each request it forks, execs the command in the child, waits for it
(killing it after ``timeout`` seconds) and answers one line on stdout:

    {"rc": exit code, "timed_out": bool, "spawned": t, "ended": t,
     "maxrss_kb": peak RSS of the command, "floor_kb": this process's peak RSS}

Times are ``time.monotonic()``.  The command's peak RSS comes from
``os.wait4``.  On Linux, exec keeps the peak RSS of the memory image it
replaces, so a command can never read lower than the process it was forked
from; with vfork, which ``subprocess`` uses, that is the caller itself.  A real
fork from this process, which holds nothing but the interpreter, keeps that
floor at ``floor_kb``, below any command's own footprint, however much memory
run.py uses.  stdin closed ends the script.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time


def floor_kb() -> int | None:
    """This process's peak RSS (VmHWM), without the memory of its parent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def launch(req: dict) -> dict:
    spawned = time.monotonic()
    pid = os.fork()
    if pid == 0:  # child: only os calls until exec
        try:
            os.chdir(req["cwd"])
            fds = [
                os.open(os.devnull, os.O_RDONLY),
                os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
                os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            ]
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.closerange(3, 1 << 16)
            os.execve(req["argv"][0], req["argv"], req["env"])
        finally:
            os._exit(127)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        timed_out = not poller.poll(max(req["timeout"], 0.0) * 1000)
        if timed_out:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        else:
            ended = time.monotonic()
        _, status, usage = os.wait4(pid, 0)
        if timed_out:
            ended = time.monotonic()
    finally:
        os.close(pidfd)
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "timed_out": timed_out,
        "spawned": spawned,
        "ended": ended,
        "maxrss_kb": usage.ru_maxrss,
        "floor_kb": floor_kb(),
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(launch(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
