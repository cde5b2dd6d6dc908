"""The web API: GET /cd/{uri} returns the JSON estimate document.

Implemented as a plain WSGI application so it can be served by any WSGI
server (the CLI uses wsgiref with a thread per request) and invoked
directly in tests.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import unquote

from .aggregate import REPORT_STYLES, aggregate, render_report
from .core import MalformedUri, PlausibilityWindow, normalize_uri
from .replay import Cassette, LiveTransport, RecordingTransport, ReplayTransport
from .sources import ALL_METHODS, Endpoints, SourceContext, gather_evidence

# `serve` handles at most this many requests at once.
MAX_REQUESTS = 32
# A connection that sends nothing for the upstream timeout plus this many
# seconds is dropped.
IDLE_MARGIN_S = 1.0


@dataclass
class ServiceConfig:
    listen: str = "127.0.0.1:8000"
    enabled_methods: frozenset[str] = frozenset(ALL_METHODS)
    timeout_ms: int = 10_000
    parallelism: int = 6
    mode: str = "live"  # live | replay | record
    cassette_path: Optional[str] = None
    now_override: Optional[int] = None
    report_style: str = "legacy"
    endpoints: Endpoints = field(default_factory=Endpoints)

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.mode in ("replay", "record") and not self.cassette_path:
            raise ValueError(f"{self.mode} mode requires a cassette path")
        if not self.enabled_methods:
            raise ValueError("at least one method must be enabled")
        unknown = set(self.enabled_methods) - ALL_METHODS
        if unknown:
            raise ValueError(f"unknown methods: {sorted(unknown)}")
        if self.report_style not in REPORT_STYLES:
            raise ValueError(f"unknown report style: {self.report_style!r}")


def build_context(config: ServiceConfig) -> SourceContext:
    """Wire the transport and clock the config asks for.

    In replay mode the clock defaults to the cassette's recording time so
    replays are deterministic without an explicit override.
    """
    now = config.now_override
    if config.mode == "replay":
        cassette = Cassette.load(config.cassette_path)
        transport = ReplayTransport(cassette)
        if now is None:
            now = cassette.recorded_at
    elif config.mode == "record":
        if now is None:
            now = int(time.time())
        sink = Cassette(recorded_at=now)
        transport = RecordingTransport(
            LiveTransport(timeout_s=config.timeout_ms / 1000.0), sink
        )
    elif config.mode == "live":
        transport = LiveTransport(timeout_s=config.timeout_ms / 1000.0)
        if now is None:
            now = int(time.time())
    else:
        raise ValueError(f"unknown transport mode: {config.mode!r}")
    return SourceContext(
        transport=transport,
        window=PlausibilityWindow(now=now),
        endpoints=config.endpoints,
        parallelism=config.parallelism,
    )


def estimate_for(raw_uri: str, ctx: SourceContext, config: ServiceConfig) -> dict:
    uri = normalize_uri(raw_uri)
    evidence = gather_evidence(uri, ctx, enabled=config.enabled_methods)
    return render_report(aggregate(uri, evidence), style=config.report_style)


def make_app(config: ServiceConfig, ctx: Optional[SourceContext] = None):
    """Build the WSGI callable. A shared context is built once; replay
    cassettes are read-only so concurrent requests are safe."""
    if ctx is None:
        ctx = build_context(config)

    def app(environ, start_response):
        path = environ.get("PATH_INFO", "")
        query = environ.get("QUERY_STRING", "")

        if path == "/healthz":
            return _respond(start_response, 200, {"status": "ok"})

        if not path.startswith("/cd/"):
            return _respond(start_response, 404, {"error": "not found"})

        # The target URI is everything after /cd/, taken verbatim
        # (including any query string), percent-decoded once.
        raw = path[len("/cd/"):]
        if query:
            raw += "?" + query
        raw = unquote(raw)
        try:
            report = estimate_for(raw, ctx, config)
        except MalformedUri as exc:
            return _respond(start_response, 400, {"error": str(exc)})
        except Exception as exc:
            logging.getLogger(__name__).exception("estimate failed for %r", raw)
            return _respond(start_response, 500, {"error": f"internal: {exc}"})
        return _respond(start_response, 200, report)

    return app


def _respond(start_response, status: int, body: dict):
    payload = json.dumps(body, indent=2).encode("utf-8")
    reason = {
        200: "OK", 400: "Bad Request", 404: "Not Found", 500: "Internal Server Error"
    }.get(status, "")
    start_response(
        f"{status} {reason}",
        [
            ("Content-Type", "application/json; charset=UTF-8"),
            ("Content-Length", str(len(payload))),
        ],
    )
    return [payload]


def serve(config: ServiceConfig, ctx: Optional[SourceContext] = None) -> None:
    """Run the API on config.listen until interrupted, a thread per request
    so /healthz answers while an estimate waits on a slow upstream. In
    record mode the captured cassette is saved however serving ends, after
    every request in flight has finished recording."""
    # Imported here: wsgiref loads http.server and ssl, which batch and
    # evaluation runs never need.
    from socketserver import ThreadingMixIn
    from threading import BoundedSemaphore
    from wsgiref.simple_server import WSGIRequestHandler, WSGIServer, make_server

    class ThreadingWSGIServer(ThreadingMixIn, WSGIServer):
        daemon_threads = False  # server_close joins only non-daemon threads
        # At the cap the accept loop waits; later connections queue in the
        # listen backlog until a request thread ends.
        slots = BoundedSemaphore(MAX_REQUESTS)

        def process_request(self, request, client_address):
            self.slots.acquire()
            try:
                super().process_request(request, client_address)
            except BaseException:
                self.slots.release()
                raise

        def process_request_thread(self, request, client_address):
            try:
                super().process_request_thread(request, client_address)
            finally:
                self.slots.release()

    class RequestHandler(WSGIRequestHandler):
        # A socket timeout ends a connection that sends nothing, so closing
        # the server, which joins every request thread, never hangs on one.
        timeout = config.timeout_ms / 1000.0 + IDLE_MARGIN_S

        def handle(self):
            try:
                super().handle()
            except TimeoutError:
                pass  # the server closes the connection

    if ctx is None:
        ctx = build_context(config)
    host, _, port = config.listen.partition(":")
    server = make_server(
        host or "127.0.0.1",
        int(port or 8000),
        make_app(config, ctx),
        server_class=ThreadingWSGIServer,
        handler_class=RequestHandler,
    )
    try:
        server.serve_forever()
    finally:
        try:
            server.server_close()
        finally:
            if config.mode == "record":
                ctx.transport.sink.save(config.cassette_path)
