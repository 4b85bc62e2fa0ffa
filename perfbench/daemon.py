"""Lifecycle of the ``repro serve`` daemon the ``serve`` workload drives.

The daemon runs in its own process on TCP loopback with a fresh store
directory.  A pid file records it while it lives; a new daemon is refused
while the one a pid file names is still alive, because a daemon left
behind by a crashed run would share the CPU with this one.  The daemon is
also asked (Linux ``PR_SET_PDEATHSIG``) to receive SIGTERM when its parent
dies, so a killed benchmark does not leave it running.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
from time import perf_counter
from typing import Optional

#: where a run keeps its state, relative to the checkout root
RUNS_DIR = ".perfbench_runs"
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
_PR_SET_PDEATHSIG = 1


def _die_with_parent() -> None:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: the pid file check still guards the next run


def _is_repro_serve(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            argv = fh.read().split(b"\0")
    except OSError:
        return True  # alive, but unreadable: assume the worst
    return b"repro" in argv and b"serve" in argv


class Daemon:
    """One ``python -m repro serve`` process: :meth:`start`, then :meth:`stop`."""

    def __init__(self, root: str, state_dir: str) -> None:
        self.root = root
        self.state_dir = state_dir
        self.pidfile = os.path.join(root, RUNS_DIR, "serve.pid")
        self.proc: Optional[subprocess.Popen] = None
        self.url = ""
        self.start_s = 0.0

    def _refuse_if_alive(self) -> None:
        try:
            with open(self.pidfile) as fh:
                pid = int(fh.read().strip() or 0)
        except (OSError, ValueError):
            return
        if pid and _is_repro_serve(pid):
            raise RuntimeError(
                f"a repro serve daemon from an earlier run is still alive "
                f"(pid {pid}, {self.pidfile}); stop it before benchmarking"
            )
        os.unlink(self.pidfile)

    def start(self) -> None:
        self._refuse_if_alive()
        os.makedirs(self.state_dir, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        log = open(os.path.join(self.state_dir, "serve.log"), "w")
        t0 = perf_counter()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--store-dir", os.path.join(self.state_dir, "store")],
                cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=log,
                preexec_fn=_die_with_parent,
            )
        finally:
            log.close()
        try:
            with open(self.pidfile, "w") as fh:
                fh.write(f"{self.proc.pid}\n")
            line = self._readline(t0 + START_TIMEOUT_S)
            if "listening on " not in line:
                raise RuntimeError(f"repro serve did not start: {line!r}")
        except BaseException:
            self.stop()
            raise
        self.start_s = perf_counter() - t0
        self.url = line.split("listening on ", 1)[1].split()[0]

    def _readline(self, deadline: float) -> str:
        buf = b""
        fd = self.proc.stdout.fileno()
        while not buf.endswith(b"\n"):
            left = deadline - perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise RuntimeError("repro serve did not report listening in time")
            chunk = os.read(fd, 1)
            if not chunk:
                break
            buf += chunk
        return buf.decode(errors="replace")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; always reap."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        finally:
            proc.stdout.close()
            os.unlink(self.pidfile)
