"""The six dating methods, each an adapter from a transport to evidence.

Every probe takes the target URI plus a SourceContext and returns an
EvidenceResult; probes never raise. Failures are isolated per source so
one broken upstream never suppresses the others.
"""

from __future__ import annotations

import json
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional
from urllib.parse import quote

from .core import (
    CanonicalUri,
    PlausibilityWindow,
    day_to_timestamp,
    filter_plausible,
    normalize_uri,
    parse_http_date,
    parse_iso_day,
    parse_iso_timestamp,
)
from .timemaps import (
    FetchFailed,
    earliest_memento,
    first_linking_memento,
    parse_timemap,
)

METHOD_LAST_MODIFIED = "last_modified"
METHOD_ARCHIVES = "archives"
METHOD_SHORTENER = "shortener"
METHOD_SOCIAL = "social"
METHOD_SEARCH_INDEX = "search_index"
METHOD_BACKLINKS = "backlinks"

ALL_METHODS = frozenset(
    {
        METHOD_LAST_MODIFIED,
        METHOD_ARCHIVES,
        METHOD_SHORTENER,
        METHOD_SOCIAL,
        METHOD_SEARCH_INDEX,
        METHOD_BACKLINKS,
    }
)

SOCIAL_POST_LIMIT = 500
SEARCH_WINDOW_YEARS = 15

FLAG_CLIPPED_WINDOW = "clipped_window"
FLAG_PARTIAL_FETCH = "partial_fetch"

# Workers of one context's executor: stdlib's own ceiling for a default
# ThreadPoolExecutor. Threads start only when no idle one is free.
POOL_WORKERS = 32
_POOL_LOCK = threading.Lock()


@dataclass(frozen=True)
class Endpoints:
    """Upstream service locations. Overridable for recording against
    alternative providers; the defaults are what cassettes are keyed on."""

    timemap_base: str = "http://aggregator.mementoweb.org/timemap/link/"
    shortener_base: str = "http://api.shortener.example.com/v3"
    social_base: str = "http://api.social.example.com/v2"
    index_base: str = "http://api.searchindex.example.com/v1"

    def timemap_url(self, uri: str) -> str:
        return self.timemap_base + uri

    def shortener_lookup_url(self, uri: str) -> str:
        return f"{self.shortener_base}/lookup?url={quote(uri, safe='')}"

    def shortener_info_url(self, short_id: str) -> str:
        return f"{self.shortener_base}/info?id={quote(short_id, safe='')}"

    def social_search_url(self, uri: str) -> str:
        return (
            f"{self.social_base}/search?uri={quote(uri, safe='')}"
            f"&limit={SOCIAL_POST_LIMIT}"
        )

    def crawl_url(self, uri: str) -> str:
        return (
            f"{self.index_base}/crawl?uri={quote(uri, safe='')}"
            f"&years={SEARCH_WINDOW_YEARS}"
        )

    def backlinks_url(self, uri: str) -> str:
        return f"{self.index_base}/backlinks?uri={quote(uri, safe='')}"


@dataclass
class SourceContext:
    transport: object
    window: PlausibilityWindow
    endpoints: Endpoints = field(default_factory=Endpoints)
    # Most probes of one URI in flight at once through a transport that
    # blocks; one that declares ``blocking = False`` runs them inline.
    parallelism: int = 6
    _pool: Optional[ThreadPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )

    def pool(self) -> ThreadPoolExecutor:
        """The executor every URI of this context fans out on, started on
        first use. A copy made by dataclasses.replace starts its own; the
        workers exit once the context is garbage-collected."""
        if self._pool is None:
            with _POOL_LOCK:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=POOL_WORKERS, thread_name_prefix="carbondate-probe"
                    )
        return self._pool


@dataclass(frozen=True)
class EvidenceResult:
    method: str
    status: str  # ok | empty | error
    estimate: Optional[int] = None
    granularity: str = "second"  # second | day
    detail: dict = field(default_factory=dict)
    error: Optional[str] = None
    flags: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if (self.status == "ok") != (self.estimate is not None):
            raise ValueError("status=ok iff estimate present")


def _ok(method: str, estimate: int, **kw) -> EvidenceResult:
    return EvidenceResult(method=method, status="ok", estimate=estimate, **kw)


def _empty(method: str, **kw) -> EvidenceResult:
    return EvidenceResult(method=method, status="empty", **kw)


def _error(method: str, message: str, **kw) -> EvidenceResult:
    return EvidenceResult(method=method, status="error", error=message, **kw)


def _malformed(method: str, what: str, value: object, **kw) -> EvidenceResult:
    """error for a value of the wrong JSON type in an upstream answer."""
    return _error(
        method, f"malformed document: {what} is a {type(value).__name__}", **kw
    )


def _dated(
    method: str, raw: object, parse: Callable[[str], int], ctx: SourceContext, **kw
) -> EvidenceResult:
    """ok with parse(raw) when it parses and is plausible; otherwise empty,
    keeping raw in detail under "unparsable" or "implausible". A raw value
    that is not a string is a malformed document."""
    if not isinstance(raw, str):
        return _malformed(method, "date", raw, **kw)
    try:
        t = parse(raw)
    except ValueError:
        return _empty(method, detail={"unparsable": raw})
    t = filter_plausible(t, ctx.window)
    if t is None:
        return _empty(method, detail={"implausible": raw})
    return _ok(method, t, **kw)


def _fetch(ctx: SourceContext, url: str) -> str:
    """Body of a GET; a transport failure or a non-200 raises FetchFailed."""
    try:
        resp = ctx.transport.request("GET", url)
    except Exception as exc:
        raise FetchFailed(str(exc)) from exc
    if resp.status != 200:
        raise FetchFailed(f"HTTP {resp.status} for {url}", status=resp.status)
    return resp.body


def _get_json(ctx: SourceContext, url: str) -> dict:
    """The JSON object a GET returns; raises as _fetch does, or ValueError
    for a body that is not a JSON object."""
    doc = json.loads(_fetch(ctx, url))
    if not isinstance(doc, dict):
        raise ValueError(f"malformed document: body is a {type(doc).__name__}")
    return doc


def probe_last_modified(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Headers-only request; one vote, never authoritative."""
    method = METHOD_LAST_MODIFIED
    try:
        resp = ctx.transport.request("HEAD", str(uri))
    except Exception as exc:
        return _error(method, str(exc))
    value = resp.header("Last-Modified")
    if value is None:
        return _empty(method)
    return _dated(method, value, parse_http_date, ctx)


def query_archives(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Earliest capture across all public archives, with a per-archive map."""
    method = METHOD_ARCHIVES
    try:
        tm = parse_timemap(_fetch(ctx, ctx.endpoints.timemap_url(str(uri))), uri)
    except Exception as exc:
        if isinstance(exc, FetchFailed) and exc.status == 404:
            return _empty(method)
        return _error(method, str(exc))
    overall = earliest_memento(tm, ctx.window)
    if overall is None:
        return _empty(method)
    by_archive: dict[str, int] = {}
    for m in tm.mementos:
        t = filter_plausible(m.candidate(), ctx.window)
        if t is None:
            continue
        if m.archive_host not in by_archive or t < by_archive[m.archive_host]:
            by_archive[m.archive_host] = t
    return _ok(method, overall.candidate(), detail={"by_archive": by_archive})


def query_shortener(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Two-step lookup: long URI -> aggregate short id -> creation time."""
    method = METHOD_SHORTENER
    try:
        lookup = _get_json(ctx, ctx.endpoints.shortener_lookup_url(str(uri)))
    except Exception as exc:
        if isinstance(exc, FetchFailed) and exc.status == 404:
            return _empty(method)
        return _error(method, f"lookup failed: {exc}")
    short_id = lookup.get("id")
    if not short_id:
        return _empty(method)
    if not isinstance(short_id, str):
        return _malformed(method, "id", short_id)
    try:
        info = _get_json(ctx, ctx.endpoints.shortener_info_url(short_id))
    except Exception as exc:
        return _error(method, f"info query failed: {exc}", detail={"id": short_id})
    created = info.get("created_at")
    if not created:
        return _empty(method, detail={"id": short_id})
    return _dated(method, created, parse_iso_timestamp, ctx, detail={"id": short_id})


def query_social(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Earliest of the most recent posts linking to the URI (<= 500).

    The upstream service unifies shortened variants itself. Exactly 500
    returned posts means the window may clip the true first post, which
    sets a confidence flag.
    """
    method = METHOD_SOCIAL
    try:
        data = _get_json(ctx, ctx.endpoints.social_search_url(str(uri)))
    except Exception as exc:
        return _error(method, str(exc))
    posts = data.get("posts", [])
    if not isinstance(posts, list):
        return _malformed(method, "posts", posts)
    timestamps = []
    for post in posts:
        posted_at = post.get("posted_at") if isinstance(post, dict) else None
        if not isinstance(posted_at, str):
            continue
        try:
            t = parse_iso_timestamp(posted_at)
        except ValueError:
            continue
        t = filter_plausible(t, ctx.window)
        if t is not None:
            timestamps.append(t)
    detail = {}
    if "total" in data:
        detail["total_posts"] = data["total"]
    if not timestamps:
        return _empty(method, detail=detail)
    flags = frozenset(
        {FLAG_CLIPPED_WINDOW} if len(posts) >= SOCIAL_POST_LIMIT else ()
    )
    return _ok(method, min(timestamps), detail=detail, flags=flags)


def query_search_index(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """First/last crawl date from a search index; day granularity only.

    The reported day promotes to 00:00:00Z, the earliest instant
    consistent with it.
    """
    method = METHOD_SEARCH_INDEX
    try:
        data = _get_json(ctx, ctx.endpoints.crawl_url(str(uri)))
    except Exception as exc:
        return _error(method, str(exc))
    crawl_date = data.get("crawl_date")
    if not crawl_date:
        return _empty(method)
    return _dated(
        method,
        crawl_date,
        lambda s: day_to_timestamp(parse_iso_day(s)),
        ctx,
        granularity="day",
    )


def query_backlinks(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Minimum first-appearance time of the target link across backlinks.

    Each backlink page's capture history is binary-searched for the first
    version containing the link. The listing service is known to
    under-report; absence of backlinks is an empty result, not an error.
    """
    method = METHOD_BACKLINKS
    try:
        data = _get_json(ctx, ctx.endpoints.backlinks_url(str(uri)))
    except Exception as exc:
        return _error(method, str(exc))
    backlinks = data.get("backlinks", [])
    if not backlinks:
        return _empty(method)
    if not isinstance(backlinks, list):
        return _malformed(method, "backlinks", backlinks)

    first_seen: list[int] = []
    flags: set[str] = set()
    for raw in backlinks:
        if not isinstance(raw, str):
            continue
        try:
            backlink = normalize_uri(raw)
        except ValueError:
            continue
        try:
            tm = parse_timemap(
                _fetch(ctx, ctx.endpoints.timemap_url(str(backlink))), backlink
            )
        except Exception:
            flags.add(FLAG_PARTIAL_FETCH)
            continue
        result = first_linking_memento(tm, uri, partial(_fetch, ctx))
        if result.degraded:
            flags.add(FLAG_PARTIAL_FETCH)
        t = filter_plausible(result.found_at, ctx.window)
        if t is not None:
            first_seen.append(t)
    if not first_seen:
        return _empty(method, flags=frozenset(flags))
    return _ok(
        method,
        min(first_seen),
        detail={"backlinks_checked": len(backlinks)},
        flags=frozenset(flags),
    )


PROBES = {
    METHOD_LAST_MODIFIED: probe_last_modified,
    METHOD_ARCHIVES: query_archives,
    METHOD_SHORTENER: query_shortener,
    METHOD_SOCIAL: query_social,
    METHOD_SEARCH_INDEX: query_search_index,
    METHOD_BACKLINKS: query_backlinks,
}


def gather_evidence(
    uri: CanonicalUri,
    ctx: SourceContext,
    enabled: Optional[frozenset[str]] = None,
) -> list[EvidenceResult]:
    """Run every enabled source, failures isolated, one result per method.

    Through a transport that blocks, sources run in up to ctx.parallelism
    lanes: the caller's thread is one, the others run on ctx.pool(), and
    each lane takes the next method not yet started. A transport that
    declares ``blocking = False`` answers from memory, so threads would
    only add overhead; its sources run one after another on the caller's
    thread. Results come back in method-name order so concurrency never
    changes the output.
    """
    methods = sorted(enabled if enabled is not None else ALL_METHODS)
    if not methods:
        raise ValueError("enabled method set must be non-empty")
    unknown = set(methods) - ALL_METHODS
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    def run(method: str) -> EvidenceResult:
        try:
            return PROBES[method](uri, ctx)
        except Exception as exc:  # probes should not raise; belt and braces
            return _error(method, f"internal: {exc}")

    lanes = min(ctx.parallelism, len(methods))
    if not getattr(ctx.transport, "blocking", True) or lanes <= 1:
        return [run(m) for m in methods]

    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(methods)):
        todo.put(i)
    results: list[Optional[EvidenceResult]] = [None] * len(methods)

    def lane() -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            results[i] = run(methods[i])

    pool = ctx.pool()
    helpers = [pool.submit(lane) for _ in range(lanes - 1)]
    lane()
    # The queue is empty now: a helper that has not started would find
    # nothing to do, so only running ones are waited for.
    for helper in helpers:
        if not helper.cancel():
            helper.result()
    return results
