"""A multi-process serving cluster with consistent-hash session sharding.

One serving process holds every audience's woven stack and
every session's trail; this module scales that across *processes*:

- :class:`HashRing` — consistent hashing (SHA-1, virtual nodes) from
  session ids to worker names.  Adding or retiring one worker remaps
  only the sessions that must move, not the whole population.
- :class:`WorkerProcess` — supervises one child ``python -m repro.tools
  serve --port 0`` on an ephemeral port: spawn (parse the serving
  banner), health, graceful ``SIGTERM`` retirement, hard kill.  Each
  worker rebuilds every audience's stack for itself; workers
  share nothing but the session records that migrate between them.
- :class:`ClusterFront` — an ASGI reverse proxy (run it under
  :class:`~repro.navigation.asgi.AsgiHttpServer`): mints/keeps the
  session cookie, routes each request to ``ring.owner(sid)``, forwards
  on a worker thread, and answers the cluster-level management surface
  (aggregate ``/-/stats``, fan-out ``/-/reconfigure/{audience}``).
- :class:`WorkerPool` — the supervisor tying those together: spawns N
  workers, owns the ring, and *rebalances* on retirement — the leaving
  worker's sessions are snapshotted as portable
  :class:`~repro.navigation.session.SessionRecord`\\ s and restored into
  their new ring owners, so a browsing user's breadcrumb trail survives
  the worker swap byte-for-byte.  A worker that dies *unexpectedly* is
  respawned under its own ring name the next time a request routes to
  it (bounded retries, exponential backoff); only when the respawns are
  exhausted does the name leave the ring and its sessions remap.

Sessions are sticky by construction (same sid, same worker) which is
what keeps each session's trail on exactly one process at a time.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import itertools
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import uuid
from bisect import bisect_right
from typing import Any, Iterable, Mapping

from .session import SessionRecord

#: The serving banner every worker prints before accepting requests.
_BANNER = re.compile(r"http://([\d.]+):(\d+)/")

#: Hop-by-hop headers a proxy must not forward either direction.
_HOP_BY_HOP = {
    "connection",
    "keep-alive",
    "proxy-authenticate",
    "proxy-authorization",
    "te",
    "trailers",
    "transfer-encoding",
    "upgrade",
}


class ClusterError(RuntimeError):
    """A worker failed to spawn, retire, or answer."""


class HashRing:
    """Consistent hashing from string keys to member names.

    Each member occupies *replicas* virtual points on a SHA-1 ring; a
    key belongs to the first point clockwise from its own hash.  The
    properties the cluster leans on: the mapping is stable across
    processes (no interpreter hash randomization), uniform enough at a
    few dozen virtual nodes per member, and *minimally disruptive* —
    removing one member remaps only the keys that pointed at it.
    """

    def __init__(self, members: Iterable[str] = (), *, replicas: int = 64):
        if replicas < 1:
            raise ValueError("hash ring replicas must be >= 1")
        self._replicas = replicas
        self._points: list[tuple[int, str]] = []
        self._members: set[str] = set()
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(
            hashlib.sha1(text.encode("utf-8")).digest()[:8], "big"
        )

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        for replica in range(self._replicas):
            self._points.append((self._hash(f"{member}#{replica}"), member))
        self._points.sort()

    def remove(self, member: str) -> None:
        if member not in self._members:
            raise KeyError(member)
        self._members.discard(member)
        self._points = [
            point for point in self._points if point[1] != member
        ]

    def owner(self, key: str) -> str:
        """The member owning *key* (raises :class:`ClusterError` if empty)."""
        if not self._points:
            raise ClusterError("hash ring has no members")
        index = bisect_right(self._points, (self._hash(key), ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]


class WorkerProcess:
    """One supervised serving child on an ephemeral port."""

    def __init__(
        self,
        name: str,
        *,
        audiences: str = "visitor,curator",
        asgi: bool = False,
        snapshot_path: str | None = None,
        extra_args: Iterable[str] = (),
        env: Mapping[str, str] | None = None,
        spawn_timeout: float = 30.0,
    ):
        self.name = name
        self.host = ""
        self.port = 0
        self.process: subprocess.Popen | None = None
        self.snapshot_path = snapshot_path
        self._audiences = audiences
        self._asgi = asgi
        self._extra_args = tuple(extra_args)
        self._env = dict(env) if env is not None else None
        self._spawn_timeout = spawn_timeout
        self._stderr = ""

    @property
    def base(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def spawn(self) -> None:
        """Start the child and wait for its serving banner."""
        argv = [
            sys.executable,
            "-m",
            "repro.tools",
            "serve",
            "--port",
            "0",
            "--audiences",
            self._audiences,
        ]
        if self._asgi:
            argv.append("--asgi")
        if self.snapshot_path:
            argv.extend(["--snapshot", self.snapshot_path])
        argv.extend(self._extra_args)
        env = dict(os.environ)
        if self._env:
            env.update(self._env)
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        banner = self._read_banner()
        match = _BANNER.search(banner)
        if match is None:
            self.process.kill()
            _, stderr = self.process.communicate(timeout=10)
            raise ClusterError(
                f"worker {self.name}: no serving banner (got {banner!r})\n"
                f"{stderr}"
            )
        self.host, self.port = match.group(1), int(match.group(2))

    def _read_banner(self) -> str:
        # readline() on a wedged child would hang the supervisor; a
        # daemon thread turns a silent child into an ordinary failure.
        assert self.process is not None and self.process.stdout is not None
        holder: dict[str, str] = {}
        stdout = self.process.stdout

        def read() -> None:
            holder["line"] = stdout.readline()

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=self._spawn_timeout)
        return holder.get("line", "")

    def request(
        self,
        method: str,
        path: str,
        *,
        headers: Mapping[str, str] | None = None,
        body: bytes = b"",
        timeout: float = 10.0,
    ) -> tuple[int, list[tuple[str, str]], bytes]:
        """One HTTP exchange with this worker (raises on transport errors)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            connection.request(method, path, body=body, headers=dict(headers or {}))
            response = connection.getresponse()
            payload = response.read()
            return response.status, response.getheaders(), payload
        finally:
            connection.close()

    def snapshot_sessions(self) -> list[SessionRecord]:
        """Pull the worker's live sessions via ``GET /-/sessions``."""
        status, _, payload = self.request("GET", "/-/sessions")
        if status != 200:
            raise ClusterError(
                f"worker {self.name}: /-/sessions returned {status}"
            )
        return [
            SessionRecord.from_dict(item)
            for item in json.loads(payload)["sessions"]
        ]

    def restore_sessions(self, records: Iterable[SessionRecord]) -> int:
        """Push *records* into this worker; returns how many restored."""
        records = list(records)
        if not records:
            return 0
        status, _, payload = self.request(
            "POST",
            "/-/sessions/restore",
            headers={"Content-Type": "application/json"},
            body=json.dumps(
                {"sessions": [record.to_dict() for record in records]}
            ).encode("utf-8"),
        )
        if status != 200:
            raise ClusterError(
                f"worker {self.name}: /-/sessions/restore returned {status}"
            )
        result = json.loads(payload)
        if result["errors"]:
            raise ClusterError(
                f"worker {self.name}: restore errors: {result['errors']}"
            )
        return len(result["restored"])

    def terminate(self, *, timeout: float = 15.0) -> int:
        """Graceful ``SIGTERM`` retirement; returns the exit status."""
        if self.process is None:
            return 0
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
            raise ClusterError(
                f"worker {self.name} ignored SIGTERM; killed"
            ) from None
        finally:
            self._close_pipes()
        return self.process.returncode

    def kill(self) -> None:
        """Hard ``SIGKILL`` (a crash stand-in for failover tests)."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=10)
        self._close_pipes()

    def _close_pipes(self) -> None:
        """Keep what the exited child wrote to stderr, then close both
        pipes (idempotent; a running child keeps them)."""
        process = self.process
        if process is None or process.poll() is None:
            return
        stderr = process.stderr
        if stderr is not None and not stderr.closed:
            self._stderr = stderr.read() or ""
        for stream in (process.stdout, stderr):
            if stream is not None:
                stream.close()

    def stderr_text(self) -> str:
        """What the child wrote to stderr, once it has exited."""
        return self._stderr


class WorkerPool:
    """Spawn, route to, rebalance, revive, and retire serving workers."""

    def __init__(
        self,
        count: int = 2,
        *,
        audiences: str = "visitor,curator",
        asgi_workers: bool = False,
        env: Mapping[str, str] | None = None,
        replicas: int = 64,
        spawn_timeout: float = 30.0,
        restart_limit: int = 3,
        restart_backoff: float = 0.25,
    ):
        if count < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._lock = threading.Lock()
        self.ring = HashRing(replicas=replicas)
        self.workers: dict[str, WorkerProcess] = {}
        self.restarts: dict[str, int] = {}
        self._names = itertools.count()
        self._audiences = audiences
        self._asgi_workers = asgi_workers
        self._env = env
        self._spawn_timeout = spawn_timeout
        self._initial_count = count
        self._restart_limit = restart_limit
        self._restart_backoff = restart_backoff
        self._revive_lock = threading.Lock()
        self._sleep = time.sleep

    def start(self) -> None:
        # No traffic has hit the pool yet, so the rebalance sweep would
        # only issue empty snapshots against the earlier workers.
        for _ in range(self._initial_count):
            self.add_worker(rebalance=False)

    def _new_worker(self, name: str) -> WorkerProcess:
        return WorkerProcess(
            name,
            audiences=self._audiences,
            asgi=self._asgi_workers,
            env=self._env,
            spawn_timeout=self._spawn_timeout,
        )

    def add_worker(self, *, rebalance: bool = True) -> WorkerProcess:
        """Spawn one more worker, add it to the ring, and rebalance.

        Joining the ring moves a slice of every existing worker's key
        space onto the newcomer — requests for those sids route to it
        immediately, so their session records must follow (the mirror
        image of :meth:`retire_worker`'s drain).  Each live worker is
        snapshotted and the records the ring now assigns to the new
        name are restored into it.  The donors keep their (now
        unreachable) copies; a session record is a portable snapshot,
        not an owning handle, so the stale copy is dead weight that
        dies with the donor rather than a consistency hazard.

        ``rebalance=False`` skips the migration sweep — only correct
        while the pool holds no sessions (:meth:`start`'s initial fill).
        """
        with self._lock:
            name = f"w{next(self._names)}"
        worker = self._new_worker(name)
        worker.spawn()
        with self._lock:
            self.workers[name] = worker
            self.ring.add(name)
            donors = [
                w
                for donor_name, w in self.workers.items()
                if rebalance and donor_name != name and w.alive
            ]
        for donor in donors:
            records = donor.snapshot_sessions()
            with self._lock:
                moved = [r for r in records if self.ring.owner(r.sid) == name]
            if moved:
                worker.restore_sessions(moved)
        return worker

    def owner_of(self, sid: str) -> WorkerProcess:
        with self._lock:
            name = self.ring.owner(sid)
            worker = self.workers[name]
        if worker.alive:
            return worker
        revived = self.revive_worker(name)
        if revived is not None:
            return revived
        # The name left the ring; the sid now hashes to a survivor
        # (or the ring is empty, and owner() raises ClusterError —
        # which the front turns into a 503).
        with self._lock:
            return self.workers[self.ring.owner(sid)]

    def revive_worker(self, name: str) -> WorkerProcess | None:
        """Replace a dead worker's process, keeping its ring identity.

        A worker that died *unexpectedly* (crash, OOM kill) took its
        sessions with it; what can still be saved is the routing
        identity.  Respawning under the same name keeps every sid that
        hashed to the casualty hashing to its replacement — the sticky
        mapping and every *other* worker's sessions are untouched, and
        affected visitors restart from a fresh session instead of
        503ing forever.  Spawn attempts are bounded with exponential
        backoff; when they are exhausted the name is removed from the
        ring so its sessions remap to the survivors.  Returns the
        replacement, or ``None`` when the name was given up on (or was
        already retired by someone else).
        """
        with self._revive_lock:
            with self._lock:
                current = self.workers.get(name)
            if current is None or current.alive:
                # Retired, or another thread revived it while this one
                # waited on the revive lock.
                return current
            current.kill()  # reap; a no-op when the child is fully gone
            for attempt in range(self._restart_limit):
                if attempt:
                    self._sleep(self._restart_backoff * 2 ** (attempt - 1))
                replacement = self._new_worker(name)
                try:
                    replacement.spawn()
                except ClusterError:
                    continue
                with self._lock:
                    self.workers[name] = replacement
                    self.ring.add(name)  # idempotent: the name never left
                    self.restarts[name] = self.restarts.get(name, 0) + 1
                return replacement
            with self._lock:
                self.workers.pop(name, None)
                if name in self.ring:
                    self.ring.remove(name)
            return None

    def names(self) -> tuple[str, ...]:
        with self._lock:
            return self.ring.members

    def retire_worker(self, name: str) -> int:
        """Drain *name* out of the cluster; returns sessions migrated.

        The rebalance sequence: take the worker out of the ring (new
        requests immediately route elsewhere), snapshot its live
        sessions over HTTP, ``SIGTERM`` it, and restore each record into
        the worker the ring now assigns its sid — the owner every
        subsequent request for that session will hit.
        """
        with self._lock:
            worker = self.workers.pop(name, None)
            if worker is None:
                raise KeyError(name)
            self.ring.remove(name)
        try:
            records = worker.snapshot_sessions() if worker.alive else []
        finally:
            exit_status = worker.terminate()
        if exit_status != 0:
            raise ClusterError(
                f"worker {name} exited {exit_status} on retirement\n"
                f"{worker.stderr_text()}"
            )
        return self._redistribute(records)

    def _redistribute(self, records: Iterable[SessionRecord]) -> int:
        by_owner: dict[str, list[SessionRecord]] = {}
        for record in records:
            by_owner.setdefault(
                self.ring.owner(record.sid), []
            ).append(record)
        migrated = 0
        for owner, owned in by_owner.items():
            with self._lock:
                target = self.workers[owner]
            migrated += target.restore_sessions(owned)
        return migrated

    def stop(self) -> None:
        """Retire every worker (tolerating ones already gone)."""
        with self._lock:
            workers = list(self.workers.values())
            self.workers.clear()
            for name in list(self.ring.members):
                self.ring.remove(name)
        for worker in workers:
            try:
                worker.terminate()
            except ClusterError:
                pass

    def __enter__(self) -> "WorkerPool":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class ClusterFront:
    """The ASGI reverse proxy routing sessions to their ring owners.

    Session identity is decided *here*: the front honours an incoming
    ``X-Repro-Session`` header or ``repro_session`` cookie, mints a sid
    otherwise (setting the cookie on the response), and always forwards
    the sid as the explicit header — so every worker sees a stable
    identity regardless of how the client carries it.  Page requests go
    to ``ring.owner(sid)``; the management surface is cluster-level:

    - ``GET /-/stats`` — per-worker stats plus cluster totals;
    - ``GET /-/sessions`` — every worker's session records, merged;
    - ``POST /-/reconfigure/{audience}`` — fanned out to all workers
      (each holds its own audience scopes; all must re-weave).

    Forwarding is blocking ``http.client`` work and runs on the event
    loop's executor, one slot per in-flight request.
    """

    def __init__(self, pool: WorkerPool):
        self._pool = pool
        self._sid_counter = itertools.count(1)

    async def __call__(self, scope, receive, send) -> None:
        if scope["type"] == "lifespan":
            await self._lifespan(receive, send)
            return
        if scope["type"] != "http":
            raise RuntimeError(
                f"ClusterFront only serves http scopes, not {scope['type']!r}"
            )
        body = await _drain_body(receive)
        loop = asyncio.get_running_loop()
        status, headers, payload = await loop.run_in_executor(
            None, self._respond, scope, body
        )
        await send(
            {
                "type": "http.response.start",
                "status": status,
                "headers": [
                    (name.encode("latin-1"), value.encode("latin-1"))
                    for name, value in headers
                ],
            }
        )
        await send({"type": "http.response.body", "body": payload})

    async def _lifespan(self, receive, send) -> None:
        while True:
            message = await receive()
            if message["type"] == "lifespan.startup":
                await send({"type": "lifespan.startup.complete"})
            elif message["type"] == "lifespan.shutdown":
                await send({"type": "lifespan.shutdown.complete"})
                return

    # -- the synchronous proxy core (runs on the executor) --------------------

    def _respond(self, scope, body: bytes):
        method = scope.get("method", "GET")
        raw_path = scope.get("raw_path") or scope.get("path", "/").encode()
        path = raw_path.decode("latin-1")
        query = scope.get("query_string", b"").decode("latin-1")
        target = f"{path}?{query}" if query else path
        headers = {
            name.decode("latin-1"): value.decode("latin-1")
            for name, value in scope.get("headers", ())
        }
        if path == "/-/stats" and method == "GET":
            return self._cluster_stats()
        if path == "/-/sessions" and method == "GET":
            return self._cluster_sessions()
        if path.startswith("/-/reconfigure/"):
            return self._fan_out(method, target, headers, body)
        sid, minted = self._session_id(headers)
        try:
            worker = self._pool.owner_of(sid)
            status, response_headers, payload = worker.request(
                method,
                target,
                headers=self._forward_headers(headers, sid),
                body=body,
            )
        except (OSError, http.client.HTTPException, ClusterError) as exc:
            return _error(503, f"no worker available for this session: {exc}")
        out = [
            (name, value)
            for name, value in response_headers
            if name.lower() not in _HOP_BY_HOP
        ]
        out.append(("X-Repro-Worker", worker.name))
        if minted:
            out.append(("Set-Cookie", f"repro_session={sid}; Path=/"))
        return status, out, payload

    def _session_id(self, headers: Mapping[str, str]) -> tuple[str, bool]:
        sid = headers.get("x-repro-session")
        if sid:
            return sid, False
        for part in headers.get("cookie", "").split(";"):
            name, _, value = part.strip().partition("=")
            if name == "repro_session" and value:
                return value, False
        minted = f"c{next(self._sid_counter)}-{uuid.uuid4().hex[:12]}"
        return minted, True

    @staticmethod
    def _forward_headers(
        headers: Mapping[str, str], sid: str
    ) -> dict[str, str]:
        forwarded = {
            name: value
            for name, value in headers.items()
            if name.lower() not in _HOP_BY_HOP
            # x-repro-session is replaced below — keeping the client's
            # copy would send the header twice and the worker would see
            # the comma-joined value as the session id.
            and name.lower() not in ("host", "content-length", "x-repro-session")
        }
        forwarded["X-Repro-Session"] = sid
        return forwarded

    def _each_worker(self) -> list[WorkerProcess]:
        return [
            self._pool.workers[name]
            for name in self._pool.names()
            if name in self._pool.workers
        ]

    def _cluster_stats(self):
        workers: dict[str, Any] = {}
        for worker in self._each_worker():
            try:
                status, _, payload = worker.request("GET", "/-/stats")
                workers[worker.name] = (
                    json.loads(payload)
                    if status == 200
                    else {"error": f"stats returned {status}"}
                )
            except (OSError, http.client.HTTPException) as exc:
                workers[worker.name] = {"error": str(exc)}
        sessions = sum(
            stats.get("sessions", {}).get("active", 0)
            for stats in workers.values()
        )
        return _json(
            200,
            {
                "cluster": {
                    "workers": len(workers),
                    "ring": list(self._pool.names()),
                    "sessions": sessions,
                },
                "workers": workers,
            },
        )

    def _cluster_sessions(self):
        merged: list[dict[str, Any]] = []
        for worker in self._each_worker():
            records = worker.snapshot_sessions()
            merged.extend(
                dict(record.to_dict(), worker=worker.name)
                for record in records
            )
        return _json(200, {"sessions": merged})

    def _fan_out(self, method, target, headers, body):
        results: dict[str, Any] = {}
        status = 200
        for worker in self._each_worker():
            worker_status, _, payload = worker.request(
                method,
                target,
                headers=self._forward_headers(headers, "cluster-admin"),
                body=body,
            )
            if worker_status != 200:
                status = worker_status
            try:
                results[worker.name] = json.loads(payload)
            except json.JSONDecodeError:
                results[worker.name] = payload.decode("utf-8", "replace")
        return _json(status, {"workers": results})


def _json(status: int, payload: Any):
    body = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
    return (
        status,
        [
            ("Content-Type", "application/json"),
            ("Content-Length", str(len(body))),
        ],
        body,
    )


def _error(status: int, message: str):
    body = (message + "\n").encode("utf-8")
    return (
        status,
        [
            ("Content-Type", "text/plain; charset=utf-8"),
            ("Content-Length", str(len(body))),
        ],
        body,
    )


async def _drain_body(receive) -> bytes:
    chunks = []
    while True:
        message = await receive()
        if message["type"] == "http.disconnect":
            raise ConnectionError("client disconnected during request body")
        chunks.append(message.get("body", b""))
        if not message.get("more_body"):
            return b"".join(chunks)
