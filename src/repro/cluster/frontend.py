"""Selector-based HTTP frontend — thousands of sockets, one thread.

The service fans in submit/poll traffic from clients *and*
lease/heartbeat/complete traffic from every node.  A thread-per-socket
server burns a stack per idle keep-alive connection; this frontend
instead multiplexes all connections on one :mod:`selectors` event loop
with non-blocking sockets, so connection count is bounded by file
descriptors, not threads.  It is the service's only HTTP server.

The router contract keeps handlers decoupled from the transport::

    router(method, path, query, body) -> (status, payload[, headers])

``payload`` may be a dict (JSON-encoded, sorted keys) or a ``str``
(plain/custom content type via ``headers``).  Handlers run inline on
the event loop and must be fast and non-blocking: the coordinator's
handlers only touch in-memory state and leave execution to workers.

HTTP subset: request line + headers + ``Content-Length`` bodies (no
chunked encoding — every stdlib client used here sends lengths),
keep-alive by default on HTTP/1.1, ``Connection: close`` honored.
"""

from __future__ import annotations

import json
import selectors
import socket
import threading
import traceback
from typing import Any, Callable, Dict, Optional, Tuple

__all__ = ["Router", "SelectorHttpServer"]

Router = Callable[[str, str, Dict[str, str], Optional[dict]], tuple]

MAX_BODY_BYTES = 8 * 1024 * 1024   # plenty for assembly sources
MAX_HEADER_BYTES = 64 * 1024
RECV_SIZE = 65536

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}


class _Connection:
    """Per-socket parse/write state."""

    __slots__ = ("sock", "inbuf", "outbuf", "close_after_write")

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock
        self.inbuf = bytearray()
        self.outbuf = bytearray()
        self.close_after_write = False


def _parse_query(raw: str) -> Dict[str, str]:
    from urllib.parse import parse_qs

    return {key: values[-1] for key, values in parse_qs(raw).items()}


class SelectorHttpServer:
    """One event loop serving a router over non-blocking sockets."""

    def __init__(self, router: Router, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.router = router
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(512)
        self._listener.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ,
                                data=None)
        # Self-pipe so close() can wake a blocked select() promptly.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                data="wake")
        self._thread: Optional[threading.Thread] = None
        self._closed = threading.Event()
        self.connections_total = 0

    # -- lifecycle ------------------------------------------------------

    @property
    def host(self) -> str:
        return self._listener.getsockname()[0]

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self, name: str = "cluster-frontend") -> "SelectorHttpServer":
        self._thread = threading.Thread(target=self.serve_forever,
                                        name=name, daemon=True)
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop the loop and close every connection; idempotent."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._wake_send.send(b"x")
        except OSError:
            pass
        if self._thread is not None \
                and self._thread is not threading.current_thread():
            self._thread.join(timeout=5)
            self._thread = None

    # -- event loop -----------------------------------------------------

    def serve_forever(self) -> None:
        try:
            while not self._closed.is_set():
                for key, mask in self._selector.select(timeout=0.5):
                    if key.data is None:
                        self._accept()
                    elif key.data == "wake":
                        try:
                            self._wake_recv.recv(64)
                        except OSError:
                            pass
                    else:
                        try:
                            self._service(key.data, mask)
                        except Exception:  # noqa: BLE001 — loop must survive
                            traceback.print_exc()
                            self._drop(key.data)
        finally:
            for key in list(self._selector.get_map().values()):
                if isinstance(key.data, _Connection):
                    self._drop(key.data)
            self._selector.unregister(self._listener)
            self._listener.close()
            self._selector.unregister(self._wake_recv)
            self._wake_recv.close()
            self._wake_send.close()
            self._selector.close()

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except (BlockingIOError, OSError):
                return
            sock.setblocking(False)
            self.connections_total += 1
            self._selector.register(sock, selectors.EVENT_READ,
                                    data=_Connection(sock))

    def _service(self, conn: _Connection, mask: int) -> None:
        if mask & selectors.EVENT_READ:
            try:
                blob = conn.sock.recv(RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                blob = None
            except OSError:
                return self._drop(conn)
            else:
                if not blob:
                    return self._drop(conn)
                conn.inbuf += blob
                if not self._consume(conn):
                    return self._drop(conn)
        if mask & selectors.EVENT_WRITE or conn.outbuf:
            self._flush(conn)

    def _flush(self, conn: _Connection) -> None:
        while conn.outbuf:
            try:
                sent = conn.sock.send(conn.outbuf)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                return self._drop(conn)
            del conn.outbuf[:sent]
        if conn.outbuf:
            self._selector.modify(conn.sock,
                                  selectors.EVENT_READ
                                  | selectors.EVENT_WRITE, data=conn)
        else:
            if conn.close_after_write:
                return self._drop(conn)
            self._selector.modify(conn.sock, selectors.EVENT_READ,
                                  data=conn)

    def _drop(self, conn: _Connection) -> None:
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        try:
            conn.sock.close()
        except OSError:
            pass

    # -- request handling -----------------------------------------------

    def _consume(self, conn: _Connection) -> bool:
        """Handle every complete request in the buffer; False ⇒ drop."""
        while True:
            end = conn.inbuf.find(b"\r\n\r\n")
            if end < 0:
                return len(conn.inbuf) <= MAX_HEADER_BYTES
            head = bytes(conn.inbuf[:end]).decode("latin-1")
            lines = head.split("\r\n")
            parts = lines[0].split()
            if len(parts) != 3:
                return False
            method, target, version = parts
            headers: Dict[str, str] = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            try:
                length = int(headers.get("content-length") or 0)
            except ValueError:
                return False
            if length < 0:
                return False  # else the request would never leave inbuf
            if length > MAX_BODY_BYTES:
                self._respond(conn, version, headers, 413,
                              {"error": "request body too large"})
                conn.close_after_write = True
                return True
            total = end + 4 + length
            if len(conn.inbuf) < total:
                return True
            raw_body = bytes(conn.inbuf[end + 4:total])
            del conn.inbuf[:total]
            self._dispatch(conn, method, target, version, headers,
                           raw_body)
            if conn.close_after_write:
                return True

    def _dispatch(self, conn: _Connection, method: str, target: str,
                  version: str, headers: Dict[str, str],
                  raw_body: bytes) -> None:
        path, _, raw_query = target.partition("?")
        body: Optional[dict] = None
        if raw_body:
            try:
                parsed = json.loads(raw_body)
            except (ValueError, RecursionError) as exc:
                # Malformed JSON, bytes that are not UTF-8, or nesting
                # deeper than the parser's recursion limit.
                return self._respond(conn, version, headers, 400, {
                    "error": f"invalid JSON body: "
                             f"{type(exc).__name__}: {exc}"})
            if not isinstance(parsed, dict):
                return self._respond(
                    conn, version, headers, 400,
                    {"error": "request body must be a JSON object"})
            body = parsed
        try:
            outcome = self.router(method, path, _parse_query(raw_query),
                                  body)
        except Exception as exc:  # noqa: BLE001 — loop must survive
            outcome = (500, {"error": f"internal error: {exc!r}"})
        if len(outcome) == 3:
            status, payload, extra = outcome
        else:
            status, payload = outcome
            extra = None
        self._respond(conn, version, headers, status, payload, extra)

    def _respond(self, conn: _Connection, version: str,
                 request_headers: Dict[str, str], status: int,
                 payload: Any, extra: Optional[Dict[str, str]] = None
                 ) -> None:
        if isinstance(payload, str):
            blob = payload.encode("utf-8")
            content_type = "text/plain; charset=utf-8"
        else:
            blob = json.dumps(payload, sort_keys=True).encode("utf-8")
            content_type = "application/json"
        if extra:
            content_type = extra.get("Content-Type", content_type)
        wants_close = request_headers.get("connection", "").lower() \
            == "close" or version == "HTTP/1.0"
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(blob)}",
            f"Connection: {'close' if wants_close else 'keep-alive'}",
        ]
        for name, value in (extra or {}).items():
            if name != "Content-Type":
                head.append(f"{name}: {value}")
        conn.outbuf += ("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
        conn.outbuf += blob
        if wants_close:
            conn.close_after_write = True
        self._flush(conn)

    def __enter__(self) -> "SelectorHttpServer":
        if self._thread is None:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
