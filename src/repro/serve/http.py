"""Stdlib-only asyncio HTTP/1.1 front end for the detection service.

No web framework is baked into the container, and the API surface is six
JSON endpoints — so the server speaks just enough HTTP/1.1 itself:
request-line + headers, ``Content-Length`` bodies, keep-alive. Handlers
are synchronous and cheap (dict lookups against the current
:class:`~repro.serve.snapshot.ScoreSnapshot`); only the two write
endpoints await the service's writer thread, so a slow re-fit never
blocks the event loop or any concurrent read.

Routes
------
======  =============== ====================================================
method  path            answer
======  =============== ====================================================
POST    ``/ingest``     apply one edge delta, wait for the snapshot swap
GET     ``/score/{u}``  one user's live vote count
GET     ``/top?k=K``    the K most suspicious users (clamped, deterministic)
GET     ``/blocks``     MVA detection at ``?threshold=T`` (default N//4)
GET     ``/health``     liveness + degradation
GET     ``/stats``      counters, window state, queue depth
POST    ``/snapshot``   persist DetectionState via the crash-safe commit
======  =============== ====================================================

Error mapping: malformed requests and semantic misuse (a deletion of an
edge the window does not hold, a timestamp before the newest batch's, bad
thresholds) are 400 with a JSON ``error``; unknown
paths 404; wrong methods 405; a request head or body over its limit 413.
A request that cannot be framed (a malformed request line, a bad
``Content-Length``, an oversized head or body) is answered and its
connection closed. Anything that escapes the update path —
injected faults included — is a 500 whose body names the exception type,
and the pre-failure snapshot keeps serving.
"""

from __future__ import annotations

import asyncio
import json
import threading
from urllib.parse import parse_qs, urlsplit

from ..errors import DetectionError, QuorumError, ReproError, StateError
from ..logging_utils import get_logger
from .service import DetectionService

__all__ = ["ScoringServer", "ServerHandle", "start_server_in_thread"]

logger = get_logger("serve")

#: request-body ceiling — a 1M-edge JSON batch is ~20 MB; anything past
#: this is a client bug, not a bigger batch
MAX_BODY_BYTES = 256 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024


class _HttpError(Exception):
    """Internal: abort the request with ``status`` and a JSON error body."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class ScoringServer:
    """Asyncio HTTP server over one :class:`DetectionService`.

    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    after :meth:`start`.
    """

    def __init__(
        self, service: DetectionService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start accepting connections (idempotent)."""
        if self._server is not None:
            return
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on http://%s:%d", self.host, self.port)

    async def serve_forever(self) -> None:
        await self.start()
        await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        self._server = None

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except asyncio.IncompleteReadError:
                    break
                except _HttpError as exc:
                    # the request's framing is lost: answer, then close
                    self._write_response(writer, exc.status, {"error": str(exc)}, False)
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                try:
                    status, payload = await self._dispatch(method, target, body)
                except _HttpError as exc:
                    status, payload = exc.status, {"error": str(exc)}
                except (QuorumError, StateError) as exc:
                    # these DetectionError subclasses are server-side
                    # failures (a lost update, a torn persist) — not the
                    # client's request being wrong
                    status, payload = 500, {
                        "error": str(exc),
                        "type": type(exc).__name__,
                    }
                except (DetectionError, ValueError) as exc:
                    status, payload = 400, {
                        "error": str(exc),
                        "type": type(exc).__name__,
                    }
                except ReproError as exc:
                    status, payload = 500, {
                        "error": str(exc),
                        "type": type(exc).__name__,
                    }
                except Exception as exc:  # noqa: BLE001 - the server must not die
                    logger.exception("unhandled error serving %s %s", method, target)
                    status, payload = 500, {
                        "error": str(exc),
                        "type": type(exc).__name__,
                    }
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover - client died
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request; ``None`` on a clean EOF between requests."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(413, "request head too large") from None
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None
            raise
        if len(head) > MAX_HEADER_BYTES:
            raise _HttpError(413, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line {lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip().lower()
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _HttpError(400, f"Content-Length must be a non-negative integer, got {length!r}")
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body of {length} bytes exceeds the limit")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: dict, keep_alive: bool
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes):
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        if path == "/health":
            self._require(method, "GET")
            return 200, self.service.health()
        if path == "/stats":
            self._require(method, "GET")
            return 200, self._stats()
        if path == "/top":
            self._require(method, "GET")
            return 200, self._top(query)
        if path.startswith("/score/"):
            self._require(method, "GET")
            return 200, self._score(path[len("/score/"):])
        if path == "/blocks":
            self._require(method, "GET")
            return 200, self._blocks(query)
        if path == "/ingest":
            self._require(method, "POST")
            return 200, await self._ingest(self._json_body(body))
        if path == "/snapshot":
            self._require(method, "POST")
            return 200, await self._snapshot(self._json_body(body))
        raise _HttpError(404, f"no route for {path!r}")

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _HttpError(405, f"use {expected} for this endpoint, not {method}")

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        return payload

    @staticmethod
    def _int_param(query: dict, name: str, default: int) -> int:
        raw = query.get(name)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise _HttpError(400, f"query parameter {name!r} must be an integer") from None

    # ------------------------------------------------------------------
    # read endpoints (answer from the current snapshot only)
    # ------------------------------------------------------------------

    def _score(self, raw_label: str) -> dict:
        try:
            label = int(raw_label)
        except ValueError:
            raise _HttpError(400, f"user label must be an integer, got {raw_label!r}") from None
        snapshot = self.service.snapshot
        score = snapshot.score_of(label)
        return {
            "user": label,
            "score": score,
            "flagged": score >= snapshot.default_threshold,
            "threshold": snapshot.default_threshold,
            "known": snapshot.knows_user(label),
            "snapshot_version": snapshot.version,
        }

    def _top(self, query: dict) -> dict:
        snapshot = self.service.snapshot
        k = self._int_param(query, "k", 50)
        entries = snapshot.top(k)
        return {
            "k": len(entries),
            "users": [{"user": label, "score": score} for label, score in entries],
            "snapshot_version": snapshot.version,
        }

    def _blocks(self, query: dict) -> dict:
        snapshot = self.service.snapshot
        threshold = self._int_param(query, "threshold", snapshot.default_threshold)
        users, merchants = snapshot.detection(threshold)
        return {
            "threshold": threshold,
            "users": users,
            "merchants": merchants,
            "n_users": len(users),
            "n_merchants": len(merchants),
            "snapshot_version": snapshot.version,
        }

    def _stats(self) -> dict:
        snapshot = self.service.snapshot
        payload = self.service.stats().as_dict()
        payload.update(
            {
                "snapshot_version": snapshot.version,
                "n_users": snapshot.n_users,
                "n_merchants": snapshot.n_merchants,
                "n_edges": snapshot.n_edges,
                "n_samples": snapshot.n_samples,
                "default_threshold": snapshot.default_threshold,
                "stale_members": list(snapshot.stale_members),
                "windowed": self.service.windowed,
                "watermark": snapshot.watermark,
            }
        )
        return payload

    # ------------------------------------------------------------------
    # write endpoints (serialised through the service's writer thread)
    # ------------------------------------------------------------------

    async def _ingest(self, payload: dict) -> dict:
        known = {
            "users",
            "merchants",
            "weights",
            "remove_users",
            "remove_merchants",
            "timestamp",
        }
        unknown = set(payload) - known
        if unknown:
            raise _HttpError(400, f"unknown ingest fields {sorted(unknown)}")
        future = self.service.submit_ingest(
            payload.get("users"),
            payload.get("merchants"),
            payload.get("weights"),
            remove_users=payload.get("remove_users"),
            remove_merchants=payload.get("remove_merchants"),
            timestamp=payload.get("timestamp"),
        )
        return await asyncio.wrap_future(future)

    async def _snapshot(self, payload: dict) -> dict:
        unknown = set(payload) - {"path"}
        if unknown:
            raise _HttpError(400, f"unknown snapshot fields {sorted(unknown)}")
        future = self.service.submit_save_state(payload.get("path"))
        return await asyncio.wrap_future(future)


class ServerHandle:
    """A server running in a background thread (tests, benchmarks, CLI-less use).

    Use :func:`start_server_in_thread`; call :meth:`stop` when done.
    """

    def __init__(self, server: ScoringServer, loop, thread: threading.Thread) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def stop(self, close_service: bool = True, save: bool = False) -> None:
        """Stop accepting, drain the loop thread, optionally close the service."""
        asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop).result(
            timeout=30
        )
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)
        self._loop.close()
        if close_service:
            self.server.service.close(save=save)


def start_server_in_thread(
    service: DetectionService, host: str = "127.0.0.1", port: int = 0
) -> ServerHandle:
    """Boot a :class:`ScoringServer` on a daemon thread and wait until bound."""
    server = ScoringServer(service, host=host, port=port)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, name="serve-http", daemon=True)
    thread.start()
    if not started.wait(timeout=30):  # pragma: no cover - defensive
        raise DetectionError("HTTP server failed to start within 30s")
    return ServerHandle(server, loop, thread)
