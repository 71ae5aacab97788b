"""Process and scratch-space hygiene: the server subprocess and the run's
working directory.

Everything a run creates lives under one :class:`WorkArea` inside the
checkout (``.sosbench/run-*``), and every server it starts is registered
there, so one ``with`` block reaps the processes and removes the files on
every exit path.
"""

from __future__ import annotations

import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import ROOT, SRC

OUT_DIR = ROOT / ".sosbench"
START_TIMEOUT_S = 60.0


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (this one by default), in MiB."""
    with open(f"/proc/{pid or os.getpid()}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc status")


class ServerProcess:
    """``python -m repro serve`` on one data directory, with the defaults
    a user gets (group commit 8, checkpoint every 256 statements) and a
    port the operating system picks."""

    def __init__(self, data_dir: Path, log_path: Path):
        self.data_dir = data_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "", 0

    def start(self) -> None:
        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
        )
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--data-dir", str(self.data_dir), "--port", "0"],
                env=env, stdout=subprocess.PIPE, stderr=log, text=True,
            )
        ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
        banner = self.proc.stdout.readline() if ready else ""
        if "listening on" not in banner:
            self.stop()
            raise RuntimeError(
                f"server did not start: {banner!r}; see {self.log_path}"
            )
        self.host, port = banner.split()[-1].rsplit(":", 1)
        self.port = int(port)

    @property
    def dsn(self) -> str:
        return f"repro://{self.host}:{self.port}"

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def kill(self) -> None:
        """SIGKILL: no drain, no flush — what recovery has to cope with."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM (graceful drain), SIGKILL if that takes too long."""
        self._end(signal.SIGTERM)

    def _end(self, sig: int) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.send_signal(sig)
                try:
                    proc.wait(timeout=15)
                except subprocess.TimeoutExpired:
                    proc.kill()
            proc.wait()
        finally:
            proc.stdout.close()


class WorkArea:
    """The run's scratch directory and the servers started in it."""

    def __init__(self):
        self.path: Optional[Path] = None
        self._servers: list[ServerProcess] = []
        self._count = 0

    def __enter__(self) -> "WorkArea":
        OUT_DIR.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT_DIR))
        return self

    def __exit__(self, *exc) -> None:
        for server in self._servers:
            server.stop()
        shutil.rmtree(self.path, ignore_errors=True)

    def subdir(self, stem: str) -> Path:
        self._count += 1
        path = self.path / f"{stem}-{self._count}"
        path.mkdir()
        return path

    def server(self, data_dir: Optional[Path] = None) -> ServerProcess:
        """Start a server (on a fresh data directory unless one is given)."""
        if data_dir is None:
            data_dir = self.subdir("db") / "data"
        server = ServerProcess(data_dir, self.path / "server.log")
        self._servers.append(server)
        server.start()
        return server
