"""Local HTTP fixture serving a history archive for tests and demos.

Routes:
  GET /history?lat=..&lon=..[&heading=..][&max=..][&before=..] -> JSON rows
      {"image_url", "date", "lat", "lon", "heading"}; no heading matches
      any heading, no max returns every match
  GET /image/<relpath>  -> the archive image as PNG: a stored PNG file's
      own bytes, any other image transcoded
  GET /stats            -> {"hits", "history", "image"} request counters

Each image_url is relative to the server's base URL. Connections are kept
alive between requests (HTTP/1.1).
"""

from __future__ import annotations

import dataclasses
import json
import socket
import threading
from datetime import date
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, unquote, urlparse

from . import codecs
from .history import HistoryQuery, LocalArchive, MatchPolicy, dump_manifest, filter_entries, resolve_inside


# Every thread a HistoryFixtureServer starts carries this name prefix.
THREAD_NAME = "history-fixture"


class _Handler(BaseHTTPRequestHandler):
    server_version = "HistoryFixture/1"
    protocol_version = "HTTP/1.1"  # keep the connection open between requests
    # Responses are buffered, and handle_one_request flushes each one, so
    # headers and a body that fits the buffer leave in one write. A larger
    # body follows the headers in a second write, which with Nagle's
    # algorithm on would wait for the client's delayed ACK (~40 ms).
    wbufsize = 1 << 16
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # keep test output quiet
        pass

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, doc) -> None:
        self._send(status, json.dumps(doc).encode(), "application/json")

    def do_GET(self):  # noqa: N802 (http.server API)
        fixture: "HistoryFixtureServer" = self.server.fixture  # type: ignore[attr-defined]
        parsed = urlparse(self.path)
        if parsed.path == "/stats":
            self._send_json(200, fixture.stats())
            return
        if parsed.path == "/history":
            fixture.count("history")
            if fixture.force_history_status is not None:
                self._send_json(fixture.force_history_status, {"error": "forced failure"})
                return
            try:
                qs = parse_qs(parsed.query)
                query = HistoryQuery(
                    location=(float(qs["lat"][0]), float(qs["lon"][0])),
                    heading=float(qs["heading"][0]) if "heading" in qs else 0.0,
                    max_records=int(qs["max"][0]) if "max" in qs else max(len(fixture.archive.entries), 1),
                    before=date.fromisoformat(qs["before"][0]) if "before" in qs else None,
                )
            except (KeyError, ValueError) as exc:
                self._send_json(400, {"error": str(exc)})
                return
            policy = fixture.archive.policy
            if "heading" not in qs:
                policy = dataclasses.replace(policy, heading_tol_deg=180.0)
            entries = filter_entries(fixture.archive.entries, query, policy)
            rows = [dataclasses.replace(e, path=f"image/{e.path}") for e in entries]
            self._send(200, dump_manifest(rows, path_key="image_url"), "application/json")
            return
        if parsed.path.startswith("/image/"):
            fixture.count("image")
            rel = unquote(parsed.path[len("/image/") :])
            full = resolve_inside(fixture.archive.real_root, rel)
            if full is None:
                self._send_json(403, {"error": "path escapes archive"})
                return
            try:
                with open(full, "rb") as fh:
                    data = fh.read()
                # A stored PNG goes out as it is; clients decode every body.
                fmt = codecs.sniff_format(data)
                if fmt != "png":
                    data = codecs.encode_image(codecs.decode_image(data, fmt), "png")
            except (OSError, ValueError):
                self._send_json(404, {"error": f"no readable image at {rel}"})
                return
            self._send(200, data, "image/png")
            return
        self._send_json(404, {"error": "unknown path"})


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer that keeps its open connections and handler
    threads, so close_connections() can end idle kept-alive ones."""

    def __init__(self, address):
        super().__init__(address, _Handler)
        self._open: set[socket.socket] = set()
        self._handlers: list[threading.Thread] = []
        self._lock = threading.Lock()

    def process_request(self, request, client_address):
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            name=f"{THREAD_NAME}-handler",
            daemon=True,
        )
        with self._lock:
            self._open.add(request)
            self._handlers = [t for t in self._handlers if t.is_alive()]
            self._handlers.append(thread)
        thread.start()

    def shutdown_request(self, request):
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def close_connections(self, timeout: float) -> None:
        """Shut every open connection down and wait for every handler to end."""
        with self._lock:
            sockets, handlers = list(self._open), list(self._handlers)
        for sock in sockets:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # its handler closed it first
        for thread in handlers:
            thread.join(timeout)


class HistoryFixtureServer:
    """Threaded archive server; use as a context manager in tests.

    It serves self.archive, a LocalArchive built before the socket is
    bound: a missing or malformed archive raises ManifestMissing or
    ManifestMalformed here, and later edits to the manifest are not seen.
    """

    def __init__(self, root, host: str = "127.0.0.1", port: int = 0, policy: MatchPolicy = MatchPolicy()):
        self.archive = LocalArchive(root, policy)
        self.force_history_status: int | None = None
        self._counters = {"history": 0, "image": 0}
        self._lock = threading.Lock()
        self._httpd = _Server((host, port))
        self._httpd.fixture = self  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def count(self, kind: str) -> None:
        with self._lock:
            self._counters[kind] += 1

    def stats(self) -> dict:
        with self._lock:
            return {
                "hits": self._counters["history"] + self._counters["image"],
                "history": self._counters["history"],
                "image": self._counters["image"],
            }

    def start(self) -> "HistoryFixtureServer":
        # A short poll interval keeps stop() quick: shutdown() waits for it.
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, kwargs={"poll_interval": 0.05}, name=f"{THREAD_NAME}-serve", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, then close every open connection, idle kept-alive
        ones included, so no client is answered after stop() returns."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd.close_connections(timeout=5)
        if self._thread:
            self._thread.join(timeout=5)

    def __enter__(self) -> "HistoryFixtureServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
