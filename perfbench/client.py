"""A lean HTTP/1.1 keep-alive client and the server child process.

The client owns one TCP connection with ``TCP_NODELAY`` set, writes
pre-formatted requests and parses exactly the responses the serving front
produces (status line, headers, ``Content-Length`` body).  It does no
more work than that, so its own cost per request stays small next to the
server's and is reported separately (``bench.client_us``).

:class:`Server` spawns ``python -m repro.tools ... serve --asgi --port 0``
(or the traced launcher around the same arguments), reads the bound port
from its banner line and times set-up as spawn to first ``200``.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

_BANNER_PORT = re.compile(r"http://127\.0\.0\.1:(\d+)/")


class ProtocolError(RuntimeError):
    """The server's bytes did not frame as one HTTP/1.1 response."""


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes


class Connection:
    """One keep-alive connection; requests are sent one at a time."""

    def __init__(self, port: int, timeout: float = 30.0):
        self._sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""

    def close(self) -> None:
        self._sock.close()

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ProtocolError("server closed the connection")
        self._buf += chunk

    def read(self) -> Response:
        while True:
            end = self._buf.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        head = self._buf[:end].decode("latin-1").split("\r\n")
        parts = head[0].split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
            raise ProtocolError(f"bad status line {head[0]!r}")
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers["content-length"])
        except (KeyError, ValueError):
            raise ProtocolError("response without a Content-Length") from None
        start = end + 4
        while len(self._buf) < start + length:
            self._fill()
        body = self._buf[start : start + length]
        self._buf = self._buf[start + length :]
        return Response(int(parts[1]), headers, body)

    def exchange(self, raw: bytes) -> Response:
        self._sock.sendall(raw)
        return self.read()


def get_request(path: str, headers: dict[str, str] | None = None) -> bytes:
    lines = [f"GET {path} HTTP/1.1", "Host: bench"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def post_request(path: str, body: str, headers: dict[str, str] | None = None) -> bytes:
    data = body.encode("utf-8")
    lines = [f"POST {path} HTTP/1.1", "Host: bench", f"Content-Length: {len(data)}"]
    lines.extend(f"{name}: {value}" for name, value in (headers or {}).items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + data


class Server:
    """The serving front as a child process, from spawn to stop.

    ``argv`` are the ``repro.tools`` arguments (``serve --asgi ...``);
    with ``trace_out`` set they run under ``perfbench/launch.py``, which
    wraps the layer entry points first and writes spans there on exit.
    """

    def __init__(
        self,
        root: Path,
        argv: list[str],
        *,
        trace_out: Path | None = None,
    ):
        self.root = root
        if trace_out is None:
            self.command = [sys.executable, "-m", "repro.tools", *argv]
        else:
            launcher = str(Path(__file__).resolve().parent / "launch.py")
            self.command = [sys.executable, launcher, str(trace_out), "--", *argv]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self, timeout: float = 120.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.pop("REPRO_PAGE_CACHE", None)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            banner = self._read_line(started + timeout)
            match = _BANNER_PORT.search(banner)
            if match is None:
                raise RuntimeError(f"server banner without a port: {banner!r}")
            self.port = int(match.group(1))
            conn = Connection(self.port)
            try:
                status = conn.exchange(get_request("/")).status
            finally:
                conn.close()
            self.setup_s = time.perf_counter() - started
            if status != 200:
                raise RuntimeError(f"front door answered {status}")
        except BaseException:
            self.stop()
            raise

    def _read_line(self, deadline: float) -> str:
        assert self.proc is not None and self.proc.stdout is not None
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if sel.select(timeout=0.05):
                    line = self.proc.stdout.readline()
                    if not line:
                        break
                    return line
                if self.proc.poll() is not None:
                    break
        raise RuntimeError("server exited or stayed silent before its banner")

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        assert self.proc is not None
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM line in /proc status")

    def stop(self, timeout: float = 30.0) -> None:
        proc = self.proc
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        try:
            proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
