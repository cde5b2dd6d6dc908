"""Spans recorded from outside the program, around calls into its layers.

``instrument`` replaces, for the duration of a ``with`` block, the names
the program's callers look up at call time: the entries of
``sources.PROBES``, ``parse_timemap`` and ``first_linking_memento`` as
``carbondate.sources`` sees them, ``gather_evidence``/``aggregate``/
``render_report`` as ``carbondate.service`` and ``carbondate.cli`` see
them, and ``Cassette.load``. Transport spans (``replay.lookup``, one per
upstream request, and ``upstream.wait``) come from ``harness.BenchTransport``.
No program file changes.

Spans are kept in memory. A span's parent is the span open on the same
thread; a probe running on a pool thread is adopted by the
``gather_evidence`` span of the same URI. Spans of one URI share a trace id.

Which end-to-end figure each layer figure should move:

    replay.load_s                 setup_s, peak_rss_mb; both workloads
    replay.lookup_busy_s          uris_per_s on batch-replay; not the service
    replay.record_busy_s, save_s  the write path; no end-to-end workload
    timemaps.parse_*              uris_per_s on batch-replay
    timemaps.search_*             latency_p99_ms on service-deep-backlinks
    sources.hop_depth_*           bound service latency at depth x delay
    sources.fanout_overhead_ms    uris_per_s on batch-replay
"""

from __future__ import annotations

import itertools
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple, Optional

import carbondate.cli as cli
import carbondate.service as service
import carbondate.sources as sources
from carbondate.replay import Cassette

REQUEST_SPAN = "replay.lookup"  # the span of every upstream request
PROBE_SPANS = {f"sources.{m}": m for m in sources.PROBES}
STATUSES = ("ok", "empty", "error")


class Span(NamedTuple):
    sid: int
    parent: int  # 0 for a root span
    trace: int
    name: str
    t0: float
    t1: float
    info: object  # what the span's info function took from the call, or the exception name

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_by_key: dict = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        info: Optional[Callable] = None,
        register: bool = False,
        adopt: bool = False,
    ) -> Callable:
        """Return fn recording a span per call.

        info(args, result) gives the span's info. With register, the span
        is findable by its first argument while open; with adopt, a span
        opened on a thread with nothing open takes that span as parent.
        """

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            if stack:
                parent, trace = stack[-1]
            elif adopt:
                parent, trace = self._open_by_key.get(args[0], (0, 0))
            else:
                parent, trace = 0, 0
            sid = next(self._ids)
            here = (sid, trace or sid)
            stack.append(here)
            if register:
                self._open_by_key[args[0]] = here
            outcome = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if info is not None:
                    outcome = info(args, result)
                return result
            except Exception as exc:
                outcome = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if register:
                    del self._open_by_key[args[0]]
                self.spans.append(Span(sid, parent, here[1], name, t0, t1, outcome))

        return traced


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's layer entry points for the duration of the block."""
    gather = tracer.wrap(
        "sources.gather", sources.gather_evidence, info=lambda a, r: (a[0], r), register=True
    )
    agg = tracer.wrap("aggregate.aggregate", service.aggregate)
    render = tracer.wrap("aggregate.render", service.render_report)
    patches = [
        (sources, "parse_timemap",
         tracer.wrap("timemaps.parse", sources.parse_timemap,
                     info=lambda a, tm: len(tm.mementos))),
        (sources, "first_linking_memento",
         tracer.wrap("timemaps.search", sources.first_linking_memento,
                     info=lambda a, r: r.fetches)),
        (service, "gather_evidence", gather),
        (service, "aggregate", agg),
        (service, "render_report", render),
        (cli, "gather_evidence", gather),
        (cli, "aggregate", agg),
        (cli, "render_report", render),
        (Cassette, "load",
         classmethod(tracer.wrap("replay.load", Cassette.load.__func__))),
    ]
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    probes = dict(sources.PROBES)
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        for method, probe in probes.items():
            sources.PROBES[method] = tracer.wrap(
                f"sources.{method}", probe, info=lambda a, r: r.status, adopt=True
            )
        yield tracer
    finally:
        sources.PROBES.update(probes)
        for owner, name, original in saved:
            setattr(owner, name, original)


def _sum_duration(spans) -> float:
    return sum(s.duration for s in spans)


def self_time(spans: list[Span], name: str) -> float:
    """Duration of the spans called name minus that of their direct
    children, which run on the same thread one after another."""
    children: dict[int, float] = defaultdict(float)
    for s in spans:
        children[s.parent] += s.duration
    return sum(s.duration - children[s.sid] for s in spans if s.name == name)


def hop_depths(spans: list[Span]) -> dict[int, int]:
    """Per trace (URI): the largest number of requests any one probe made.

    Probes make their requests one after another, so with a fixed delay
    per request this bounds the URI's latency at depth x delay.
    """
    by_id = {s.sid: s for s in spans}

    def probe_of(s: Span) -> Optional[Span]:
        while s.parent:
            s = by_id[s.parent]
            if s.name in PROBE_SPANS:
                return s
        return None

    requests_per_probe: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name == REQUEST_SPAN:
            probe = probe_of(s)
            if probe is not None:
                requests_per_probe[probe.sid] += 1
    depths: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.name in PROBE_SPANS:
            depths[s.trace] = max(depths[s.trace], requests_per_probe[s.sid])
    return dict(depths)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        children[s.parent].append(s)

    depths = list(hop_depths(spans).values()) or [0]

    gathers = by_name["sources.gather"]
    fanout = [
        s.duration - max((c.duration for c in children[s.sid]), default=0.0)
        for s in gathers
    ]
    lookups = by_name[REQUEST_SPAN]
    m = {
        "replay.lookup_busy_s": _sum_duration(lookups),
        "replay.lookups": len(lookups),
        "replay.misses": sum(1 for s in lookups if s.info == "UnmatchedInteraction"),
        "timemaps.parse_calls": len(by_name["timemaps.parse"]),
        "timemaps.mementos_parsed": sum(
            s.info for s in by_name["timemaps.parse"] if isinstance(s.info, int)
        ),
        "timemaps.parse_busy_s": _sum_duration(by_name["timemaps.parse"]),
        "timemaps.search_fetches": sum(s.info for s in by_name["timemaps.search"]),
        "timemaps.search_self_s": self_time(spans, "timemaps.search"),
        "sources.requests_per_uri": len(lookups) / max(len(gathers), 1),
        "sources.hop_depth_p50": statistics.median(depths),
        "sources.hop_depth_max": max(depths),
    }
    for name, method in sorted(PROBE_SPANS.items(), key=lambda kv: kv[1]):
        probe_spans = by_name[name]
        m[f"sources.{method}.busy_s"] = _sum_duration(probe_spans)
        for status in STATUSES:
            m[f"sources.{method}.{status}"] = sum(1 for s in probe_spans if s.info == status)
    m["sources.fanout_overhead_ms"] = 1000.0 * sum(fanout) / max(len(fanout), 1)
    m["sources.upstream_wait_s"] = _sum_duration(by_name["upstream.wait"])
    m["aggregate.busy_s"] = _sum_duration(by_name["aggregate.aggregate"]) + _sum_duration(
        by_name["aggregate.render"]
    )
    m["service.self_s"] = self_time(spans, "service.app")
    return m
