"""The benchmark's workloads and the closed loop that drives them.

Every workload runs the program through its public API on a cassette
written by ``run.py``; this module never builds a world itself. Each URI
is checked against the synthetic world's identity
``estimate == true_creation + min(present lags)``; a URI that raises,
gets a non-200 response or breaks the identity is a failure.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import carbondate.cli as cli
from carbondate.core import day_to_timestamp, parse_iso_day, parse_iso_timestamp
from carbondate.replay import Cassette, RecordingTransport
from carbondate.service import ServiceConfig, build_context, make_app
from carbondate.sources import SourceContext

from tracing import REQUEST_SPAN

UPSTREAM_DELAY_S = 0.005
SERVICE_CLIENTS = 2


class Item(NamedTuple):
    uri: str
    expected: Optional[int]  # true_creation + min(present lags); None if no source


class BenchTransport:
    """A transport wrapper with RecordingTransport's request(method, url) shape.

    Adds a fixed upstream delay after every request, answered or not. With
    a tracer, each request records a span called name (busy time of the
    inner transport; an UnmatchedInteraction shows as the span's info) and
    each delay an ``upstream.wait`` span; request counts are span counts.
    """

    def __init__(self, inner, delay_s: float = 0.0, tracer=None, name: str = REQUEST_SPAN):
        self.delay_s = delay_s
        self._request = inner.request if tracer is None else tracer.wrap(name, inner.request)
        self._sleep = time.sleep if tracer is None else tracer.wrap("upstream.wait", time.sleep)

    def request(self, method: str, url: str):
        try:
            return self._request(method, url)
        finally:
            if self.delay_s:
                self._sleep(self.delay_s)


def bench_transport(inner, delay_s: float, tracer):
    """inner itself when there is nothing to add, so untraced runs pay nothing."""
    if tracer is None and not delay_s:
        return inner
    return BenchTransport(inner, delay_s, tracer)


def report_date_to_timestamp(value: str) -> Optional[int]:
    """Inverse of the report's date rendering: "" / day / second precision."""
    if not value:
        return None
    if len(value) == 10:
        return day_to_timestamp(parse_iso_day(value))
    return parse_iso_timestamp(value)


def batch_uri(ctx: SourceContext, config: ServiceConfig) -> Callable[[Item], bool]:
    """One URI through the ``carbondate batch`` path, names looked up on cli."""

    def one(item: Item) -> bool:
        uri = cli.normalize_uri(item.uri)
        evidence = cli.gather_evidence(uri, ctx, enabled=config.enabled_methods)
        estimate = cli.aggregate(uri, evidence)
        json.dumps(cli.render_report(estimate, style=config.report_style))
        return estimate.estimated == item.expected

    return one


def wsgi_get(app, path: str) -> tuple[int, bytes]:
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])

    body = b"".join(app({"PATH_INFO": path, "QUERY_STRING": "", "REQUEST_METHOD": "GET"},
                        start_response))
    return captured["status"], body


@dataclass
class ReplayState:
    config: ServiceConfig
    ctx: SourceContext
    base: object  # the transport build_context made
    app: Optional[Callable] = None


class Workload:
    """setup() is what a user pays before the first URI; start() readies a
    pass over the items and returns the per-URI call."""

    name = ""
    world = "default"
    n = 2000
    clients = 1
    delay_s = 0.0  # added after every upstream request
    segments = 20  # timed segments of an end-to-end run
    trace_uris = 2000

    def setup(self, cassette_path: str) -> ReplayState:
        config = ServiceConfig(mode="replay", cassette_path=cassette_path)
        ctx = build_context(config)
        return ReplayState(config, ctx, ctx.transport)

    def start(self, state: ReplayState, tracer) -> Callable[[Item], bool]:
        raise NotImplementedError


class BatchReplay(Workload):
    name = "batch-replay"

    def start(self, state, tracer):
        state.ctx.transport = bench_transport(state.base, self.delay_s, tracer)
        one = batch_uri(state.ctx, state.config)
        return one if tracer is None else tracer.wrap("batch.uri", one)


class ServiceDeepBacklinks(Workload):
    name = "service-deep-backlinks"
    world = "deep-backlinks"
    clients = SERVICE_CLIENTS
    delay_s = UPSTREAM_DELAY_S
    segments = 1  # p99 needs 1000 URIs, which take about 20 s here
    trace_uris = 300

    def setup(self, cassette_path):
        state = super().setup(cassette_path)
        state.ctx.transport = bench_transport(state.base, self.delay_s, None)
        state.app = make_app(state.config, state.ctx)
        return state

    def start(self, state, tracer):
        state.ctx.transport = bench_transport(state.base, self.delay_s, tracer)
        app = state.app if tracer is None else tracer.wrap("service.app", state.app)

        def one(item: Item) -> bool:
            status, body = wsgi_get(app, "/cd/" + item.uri)
            if status != 200:
                return False
            report = json.loads(body)
            return report_date_to_timestamp(report["Estimated Creation Date"]) == item.expected

        return one


WORKLOADS = {w.name: w for w in (BatchReplay(), ServiceDeepBacklinks())}


class LoopResult(NamedTuple):
    latencies: list[float]
    failures: int
    busy_s: float  # wall time of the loops


def closed_loop(
    one: Callable[[Item], bool],
    items: list[Item],
    clients: int,
    stop: Callable[[int], bool],
) -> list[tuple[float, bool]]:
    """Each client takes the next item only after its previous one is done.

    Items are taken in order; stop(started) is asked before each one.
    """
    lock = threading.Lock()
    taken = [0]
    buffers: list[list[tuple[float, bool]]] = [[] for _ in range(clients)]

    def client(buf: list) -> None:
        while True:
            with lock:
                i = taken[0]
                if i >= len(items) or stop(i):
                    return
                taken[0] = i + 1
            t0 = perf_counter()
            try:
                ok = one(items[i])
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ok = False
            buf.append((perf_counter() - t0, ok))

    if clients == 1:
        client(buffers[0])
    else:
        threads = [threading.Thread(target=client, args=(b,)) for b in buffers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return [r for buf in buffers for r in buf]


def run_passes(
    workload: Workload,
    state: ReplayState,
    items: list[Item],
    tracer=None,
    min_seconds: float = 0.0,
    min_uris: int = 0,
) -> LoopResult:
    """Passes over items until both min_seconds and min_uris are reached;
    with neither, exactly one full pass."""
    results: list[tuple[float, bool]] = []
    busy = 0.0
    deadline = perf_counter() + min_seconds
    bounded = min_seconds > 0 or min_uris > 0

    def stop(started: int) -> bool:
        return perf_counter() >= deadline and len(results) + started >= min_uris

    while True:
        one = workload.start(state, tracer)
        t0 = perf_counter()
        results += closed_loop(one, items, workload.clients, stop if bounded else lambda _: False)
        busy += perf_counter() - t0
        if not bounded or stop(0):
            break
    failures = sum(1 for _, ok in results if not ok)
    return LoopResult([lat for lat, _ in results], failures, busy)


def record_pass(state: ReplayState, items: list[Item], path: str, tracer) -> int:
    """The replay write path as ``carbondate batch --record`` drives it.

    One batch pass through RecordingTransport over the replay transport into
    an empty cassette, then save and reload. Spans: ``replay.record`` around
    each recorded request, ``replay.lookup`` inside it, ``replay.save``.
    Returns the URIs that failed; all of them if the reload differs.
    """
    sink = Cassette(recorded_at=state.base.cassette.recorded_at)
    recorder = RecordingTransport(BenchTransport(state.base, tracer=tracer), sink)
    transport = BenchTransport(recorder, tracer=tracer, name="replay.record")
    one = batch_uri(dataclasses.replace(state.ctx, transport=transport), state.config)
    done = closed_loop(one, items, 1, lambda _: False)
    tracer.wrap("replay.save", sink.save)(path)
    if Cassette.load(path).entries != sink.entries:
        return len(items)
    return sum(1 for _, ok in done if not ok)
