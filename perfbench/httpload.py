"""The benchmark's own closed-loop HTTP load client (stdlib ``http.client``).

Exactly ``connections`` keep-alive connections each send their next
``POST /v1/segment`` only after the previous reply arrived, taking request
bodies from one shared seeded sequence.  It deliberately imports nothing
from the program (no ``repro.loadgen``, no ``ReplicaClient``), so changes to
the program's own clients cannot move this yardstick.
"""

from __future__ import annotations

import http.client
import itertools
import json
import threading
import time
from dataclasses import dataclass

from spans import is_traced

OCTET = "application/octet-stream"


@dataclass
class Reply:
    """One request as the client saw it."""

    index: int
    body_id: int
    start: float
    end: float
    status: "int | None"
    data: bytes
    error: "str | None" = None
    traced: bool = False

    @property
    def rtt(self) -> float:
        """Client round-trip seconds."""
        return self.end - self.start


def get_json(port: int, path: str, timeout: float = 30.0) -> dict:
    """One GET on a fresh connection, decoded as JSON."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        payload = response.read()
        if response.status != 200:
            raise RuntimeError(f"GET {path} answered {response.status}: {payload[:200]!r}")
        return json.loads(payload)
    finally:
        conn.close()


class ClosedLoop:
    """Closed-loop load over a fixed body sequence."""

    def __init__(self, port: int, bodies: list, sequence: list, *,
                 connections: int = 2, timeout: float = 60.0) -> None:
        self.port = port
        self.bodies = bodies
        self.sequence = sequence
        self.connections = connections
        self.timeout = timeout

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=self.timeout)

    def _send(self, conn, index: int, body_id: int) -> Reply:
        start = time.perf_counter()
        try:
            conn.request(
                "POST", "/v1/segment", body=self.bodies[body_id],
                headers={"Content-Type": OCTET, "Accept": OCTET},
            )
            response = conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # the next request reconnects
            return Reply(index, body_id, start, time.perf_counter(), None, b"", repr(exc))
        return Reply(index, body_id, start, time.perf_counter(), response.status, data)

    def run(self, seconds: float, *, recorder=None, trace: bool = False) -> tuple:
        """Drive for ``seconds``; returns ``(replies, wall_seconds)``.

        With ``trace``, the requests :func:`spans.is_traced` picks are
        recorded as ``http.request`` spans.
        """
        lock = threading.Lock()
        counter = itertools.count()
        replies: list = []
        began = time.perf_counter()

        def worker() -> None:
            conn = self._connect()
            try:
                while True:
                    with lock:
                        if time.perf_counter() - began >= seconds:
                            return
                        index = next(counter)
                    body_id = self.sequence[index % len(self.sequence)]
                    if trace and is_traced(index):
                        with recorder.span("http.request", f"req-{index}"):
                            reply = self._send(conn, index, body_id)
                        reply.traced = True
                    else:
                        reply = self._send(conn, index, body_id)
                    with lock:
                        replies.append(reply)
            finally:
                conn.close()

        threads = [
            threading.Thread(target=worker, name=f"perfbench-conn-{n}")
            for n in range(self.connections)
        ]
        if trace:
            recorder.enabled = True
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        if trace:
            recorder.enabled = False
        replies.sort(key=lambda reply: reply.index)
        return replies, wall

    def warm(self, body_ids: list, rounds: int = 3) -> None:
        """Send each body on every connection at once, ``rounds`` times, so
        every worker process is spawned and warm before timing starts."""
        conns = [self._connect() for _ in range(self.connections)]
        try:
            for _ in range(rounds):
                for body_id in body_ids:
                    results: list = [None] * len(conns)

                    def send(slot: int) -> None:
                        results[slot] = self._send(conns[slot], -1, body_id)

                    threads = [
                        threading.Thread(target=send, args=(slot,))
                        for slot in range(len(conns))
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join()
                    for reply in results:
                        if reply.status != 200:
                            raise RuntimeError(
                                f"warm-up request failed: {reply.status} {reply.error}"
                            )
        finally:
            for conn in conns:
                conn.close()
