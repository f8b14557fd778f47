"""A world-model endpoint on 127.0.0.1 for the ``remote`` workload.

One thread serves every connection through a selector, speaking
HTTP/1.1 with keep-alive. Each reply is written with a single send on a
socket with TCP_NODELAY: writing the headers and the body separately
lets Nagle's algorithm hold the body back until the client's delayed
ACK, which stalls every request for tens of milliseconds and would make
the benchmark measure the stub instead of ``RemoteProvider``.

The endpoint answers with the exact Bayes posterior of the query's
belief and last observation. A fixed one reply in twenty is a fault,
chosen by a hash of (episode index, step) so that the same replies
fault in every round of every run: half of them HTTP 503, half a
posterior that sums to 1.5.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import zlib

import numpy as np

FAULT_EVERY = 20

_HEAD_END = b"\r\n\r\n"


def fault_kind(episode_index: int, step: int) -> str | None:
    """'status', 'posterior' or None for the reply to this request."""
    h = zlib.crc32(f"{episode_index}:{step}".encode())
    if h % FAULT_EVERY:
        return None
    return "status" if (h // FAULT_EVERY) % 2 else "posterior"


def _response(status: str, body: bytes) -> bytes:
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: keep-alive\r\n\r\n"
    )
    return head.encode("ascii") + body


class Endpoint:
    """Serves POST /wm/<episode index>; counts connections and bytes."""

    def __init__(self, ref):
        self.ref = ref
        self.connections = 0
        self.requests = 0
        self.request_bytes = 0
        self.response_bytes = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.setblocking(False)
        self._wake_r, self._wake_w = socket.socketpair()
        self._thread = threading.Thread(target=self._serve, name="endpoint")
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self._listener.getsockname()[1]}/wm"

    def stats(self) -> tuple[int, int, int, int]:
        return self.connections, self.requests, self.request_bytes, self.response_bytes

    def close(self) -> None:
        self._wake_w.send(b"x")
        self._thread.join(timeout=30)
        if self._thread.is_alive():
            raise RuntimeError("endpoint thread did not stop")
        for sock in (self._listener, self._wake_r, self._wake_w):
            sock.close()

    def _serve(self) -> None:
        sel = selectors.DefaultSelector()
        sel.register(self._listener, selectors.EVENT_READ, None)
        sel.register(self._wake_r, selectors.EVENT_READ, None)
        try:
            while True:
                for key, _ in sel.select():
                    sock = key.fileobj
                    if sock is self._wake_r:
                        return
                    if sock is self._listener:
                        conn, _ = self._listener.accept()
                        conn.setblocking(True)
                        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                        sel.register(conn, selectors.EVENT_READ, bytearray())
                        self.connections += 1
                        continue
                    try:
                        chunk = sock.recv(65536)
                    except ConnectionError:
                        chunk = b""
                    if not chunk:
                        sel.unregister(sock)
                        sock.close()
                        continue
                    buf = key.data
                    buf += chunk
                    while (reply := self._take_request(buf)) is not None:
                        sock.sendall(reply)
                        self.response_bytes += len(reply)
        finally:
            for key in list(sel.get_map().values()):
                if key.fileobj not in (self._listener, self._wake_r):
                    key.fileobj.close()
            sel.close()

    def _take_request(self, buf: bytearray) -> bytes | None:
        """Remove one complete request from ``buf`` and build its reply."""
        end = buf.find(_HEAD_END)
        if end < 0:
            return None
        head = bytes(buf[:end]).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + len(_HEAD_END) + length
        if len(buf) < total:
            return None
        body = bytes(buf[end + len(_HEAD_END):total])
        del buf[:total]
        self.requests += 1
        self.request_bytes += total
        path = head[0].split()[1]
        return self._reply(int(path.rsplit("/", 1)[1]), json.loads(body))

    def _reply(self, episode_index: int, query: dict) -> bytes:
        last = query["history"][-1]
        kind = fault_kind(episode_index, len(query["history"]) - 1)
        if kind == "status":
            return _response("503 Service Unavailable", b'{"error": "unavailable"}')
        prior = np.array(query["belief"]["probs"], dtype=float)
        joint = prior * self.ref.column(last["channel"], last["outcome"])
        posterior = joint / joint.sum()
        if kind == "posterior":
            posterior = posterior * 1.5
        doc = {
            "posterior": {"labels": list(self.ref.states), "probs": posterior.tolist()},
            "rationale": f"exact update on {last['channel']}={last['outcome']}",
        }
        return _response("200 OK", json.dumps(doc).encode())
