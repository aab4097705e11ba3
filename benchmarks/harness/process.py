"""Parent-side handle on the system-under-test child process."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

#: A run must end well inside the driver's 180 s limit; a child still
#: alive after this long is killed and the run fails.
CHILD_LIMIT_S = 150.0


class ChildError(RuntimeError):
    pass


class ChildProcess:
    """Spawns ``benchmarks.harness.child`` and speaks its line protocol."""

    def __init__(self, tier: str, mode: str, workdir: Path, feed_seed: int) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), str(REPO_ROOT), env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self._process = subprocess.Popen(
            [
                sys.executable, "-m", "benchmarks.harness.child",
                "--tier", tier, "--mode", mode,
                "--workdir", str(workdir), "--feed-seed", str(feed_seed),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=REPO_ROOT,
            env=env,
            # Its own process group, so a kill also reaches the build and
            # shard workers the child forked.
            start_new_session=True,
        )
        self._watchdog = threading.Timer(CHILD_LIMIT_S, self._kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.ready = self._read()

    def _kill(self) -> None:
        try:
            os.killpg(self._process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _read(self) -> dict:
        line = self._process.stdout.readline()
        if not line:
            raise ChildError(
                f"system under test exited (code {self._process.poll()})"
            )
        return json.loads(line)

    def call(self, cmd: str, **arguments) -> dict:
        self._process.stdin.write(json.dumps({"cmd": cmd, **arguments}) + "\n")
        self._process.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Make sure the child has ended (after ``shutdown`` or a failure)."""
        self._watchdog.cancel()
        for stream in (self._process.stdin, self._process.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self._kill()
            self._process.wait()
