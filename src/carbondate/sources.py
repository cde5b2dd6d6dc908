"""The six dating methods, each an adapter from a transport to evidence.

Every probe takes the target URI plus a SourceContext and returns an
EvidenceResult; probes never raise. Failures are isolated per source so
one broken upstream never suppresses the others.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
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
from .replay import HttpResponse
from .timemaps import FetchFailed, first_linking_memento, parse_timemap

METHOD_LAST_MODIFIED = "last_modified"
METHOD_ARCHIVES = "archives"
METHOD_SHORTENER = "shortener"
METHOD_SOCIAL = "social"
METHOD_SEARCH_INDEX = "search_index"
METHOD_BACKLINKS = "backlinks"

SOCIAL_POST_LIMIT = 500
SEARCH_WINDOW_YEARS = 15

FLAG_CLIPPED_WINDOW = "clipped_window"
FLAG_PARTIAL_FETCH = "partial_fetch"

# Workers of one context's executor: stdlib's own ceiling for a default
# ThreadPoolExecutor. Threads start only when no idle one is free.
POOL_WORKERS = 32

@dataclass(frozen=True)
class Endpoints:
    """Upstream service locations. Overridable for recording against
    alternative providers; the defaults are what cassettes are keyed on."""

    timemap_base: str = "http://aggregator.mementoweb.org/timemap/link/"
    shortener_base: str = "http://api.shortener.example.com/v3"
    social_base: str = "http://api.social.example.com/v2"
    index_base: str = "http://api.searchindex.example.com/v1"

    def __post_init__(self) -> None:
        if bad := {k: v for k, v in vars(self).items() if not isinstance(v, str)}:
            raise ValueError(f"endpoints are not strings: {bad!r}")

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
    # The executor every URI of this context fans out on. It starts no
    # thread before the first fan-out; a copy made by dataclasses.replace
    # gets its own, and the workers exit once the context is collected.
    pool: ThreadPoolExecutor = field(
        default_factory=lambda: ThreadPoolExecutor(
            max_workers=POOL_WORKERS, thread_name_prefix="carbondate-probe"
        ),
        init=False, repr=False, compare=False,
    )


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


def _failed(method: str, exc: Exception, prefix: str = "", **kw) -> EvidenceResult:
    """empty when the upstream answered 404, since the source has no record
    of the URI; error with prefix and the failure's text otherwise."""
    if isinstance(exc, FetchFailed) and exc.status == 404:
        return _empty(method, **kw)
    return _error(method, f"{prefix}{exc}", **kw)


def _unusable(
    method: str, value: object, kind: type, what: str, **kw
) -> Optional[EvidenceResult]:
    """The result for a JSON field that holds no usable value: empty when it
    is missing, null or an empty kind, malformed when it is any other type;
    None for a non-empty kind."""
    if isinstance(value, kind):
        return None if value else _empty(method, **kw)
    if value is None:
        return _empty(method, **kw)
    return _error(method, f"malformed document: {what} is a {type(value).__name__}", **kw)


def _dated(
    method: str, raw: object, parse: Callable[[str], int], ctx: SourceContext, **kw
) -> EvidenceResult:
    """ok with parse(raw) when it parses and is plausible; otherwise empty,
    keeping raw in detail under "unparsable" or "implausible". A raw that
    is missing, empty or not a string gets _unusable's result."""
    if unusable := _unusable(method, raw, str, "date", **kw):
        return unusable
    try:
        t = parse(raw)
    except ValueError:
        return _empty(method, detail={"unparsable": raw})
    t = filter_plausible(t, ctx.window)
    if t is None:
        return _empty(method, detail={"implausible": raw})
    return _ok(method, t, **kw)


def _json_object(resp: HttpResponse) -> dict:
    """The body as a JSON object; ValueError for any other document."""
    doc = json.loads(resp.body)
    if not isinstance(doc, dict):
        raise ValueError(f"malformed document: body is a {type(doc).__name__}")
    return doc


def _get(ctx: SourceContext, url: str, parse=_json_object, verb: str = "GET"):
    """parse of the 200 response to a request: a transport failure or any
    other status raises FetchFailed; parse's own exceptions pass through."""
    try:
        resp = ctx.transport.request(verb, url)
    except Exception as exc:
        raise FetchFailed(str(exc)) from exc
    if resp.status != 200:
        raise FetchFailed(f"HTTP {resp.status} for {url}", status=resp.status)
    return parse(resp)


def probe_last_modified(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Headers-only request; one vote, never authoritative."""
    method = METHOD_LAST_MODIFIED
    try:
        raw = _get(ctx, str(uri), lambda resp: resp.header("Last-Modified"), verb="HEAD")
    except FetchFailed as exc:
        return _failed(method, exc)
    return _dated(method, raw, parse_http_date, ctx)


def query_archives(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Earliest capture across all public archives, with a per-archive map."""
    method = METHOD_ARCHIVES
    try:
        url = ctx.endpoints.timemap_url(str(uri))
        tm = _get(ctx, url, lambda resp: parse_timemap(resp.body, uri))
    except Exception as exc:
        return _failed(method, exc)
    by_archive: dict[str, int] = {}
    for m in tm.mementos:
        t = filter_plausible(m.candidate(), ctx.window)
        if t is None:
            continue
        if m.archive_host not in by_archive or t < by_archive[m.archive_host]:
            by_archive[m.archive_host] = t
    if not by_archive:
        return _empty(method)
    return _ok(method, min(by_archive.values()), detail={"by_archive": by_archive})


def query_shortener(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Two-step lookup: long URI -> aggregate short id -> creation time."""
    method = METHOD_SHORTENER
    try:
        lookup = _get(ctx, ctx.endpoints.shortener_lookup_url(str(uri)))
    except Exception as exc:
        return _failed(method, exc, "lookup failed: ")
    short_id = lookup.get("id")
    if unusable := _unusable(method, short_id, str, "id"):
        return unusable
    try:
        info = _get(ctx, ctx.endpoints.shortener_info_url(short_id))
    except Exception as exc:
        return _failed(method, exc, "info query failed: ", detail={"id": short_id})
    created = info.get("created_at")
    return _dated(method, created, parse_iso_timestamp, ctx, detail={"id": short_id})


def query_social(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Earliest of the most recent posts linking to the URI (<= 500).

    The upstream service unifies shortened variants itself. Exactly 500
    returned posts means the window may clip the true first post, which
    sets a confidence flag.
    """
    method = METHOD_SOCIAL
    try:
        data = _get(ctx, ctx.endpoints.social_search_url(str(uri)))
    except Exception as exc:
        return _failed(method, exc)
    detail = {"total_posts": data["total"]} if "total" in data else {}
    posts = data.get("posts")
    if unusable := _unusable(method, posts, list, "posts", detail=detail):
        return unusable
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
        data = _get(ctx, ctx.endpoints.crawl_url(str(uri)))
    except Exception as exc:
        return _failed(method, exc)
    return _dated(
        method, data.get("crawl_date"), lambda s: day_to_timestamp(parse_iso_day(s)),
        ctx, granularity="day",
    )


def query_backlinks(uri: CanonicalUri, ctx: SourceContext) -> EvidenceResult:
    """Minimum first-appearance time of the target link across backlinks.

    Each backlink page's capture history is binary-searched for the first
    version containing the link. The listing service is known to
    under-report; absence of backlinks is an empty result, not an error.
    """
    method = METHOD_BACKLINKS
    try:
        data = _get(ctx, ctx.endpoints.backlinks_url(str(uri)))
    except Exception as exc:
        return _failed(method, exc)
    backlinks = data.get("backlinks")
    if unusable := _unusable(method, backlinks, list, "backlinks"):
        return unusable

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
            url = ctx.endpoints.timemap_url(str(backlink))
            tm = _get(ctx, url, lambda resp: parse_timemap(resp.body, backlink))
        except Exception as exc:
            # A 404 means the archives hold no capture of the page.
            if _failed(method, exc).status == "error":
                flags.add(FLAG_PARTIAL_FETCH)
            continue
        result = first_linking_memento(
            tm, uri, lambda url: _get(ctx, url, lambda resp: resp.body)
        )
        if result.degraded:
            flags.add(FLAG_PARTIAL_FETCH)
        t = filter_plausible(result.found_at, ctx.window)
        if t is not None:
            first_seen.append(t)
    if not first_seen:
        return _empty(method, flags=frozenset(flags))
    detail = {"backlinks_checked": len(backlinks)}
    return _ok(method, min(first_seen), detail=detail, flags=frozenset(flags))


PROBES = {
    METHOD_LAST_MODIFIED: probe_last_modified,
    METHOD_ARCHIVES: query_archives,
    METHOD_SHORTENER: query_shortener,
    METHOD_SOCIAL: query_social,
    METHOD_SEARCH_INDEX: query_search_index,
    METHOD_BACKLINKS: query_backlinks,
}
ALL_METHODS = frozenset(PROBES)


def gather_evidence(
    uri: CanonicalUri,
    ctx: SourceContext,
    enabled: Optional[frozenset[str]] = None,
) -> list[EvidenceResult]:
    """Run every enabled source, failures isolated, one result per method.

    Through a transport that blocks, every source but the first is handed
    to ctx.pool. The caller runs the first, then each one the executor has
    not started, so a busy executor slows a URI but never blocks it; only
    then does it wait for the ones already running. A transport that
    declares ``blocking = False`` answers from memory, so threads would
    only add overhead; its sources run one after another on the caller's
    thread. Results come back in method-name order so concurrency never
    changes the output.
    """
    methods = sorted(enabled if enabled is not None else ALL_METHODS)
    if not methods:
        raise ValueError("enabled method set must be non-empty")
    if unknown := set(methods) - ALL_METHODS:
        raise ValueError(f"unknown methods: {sorted(unknown)}")

    def run(method: str) -> EvidenceResult:
        try:
            return PROBES[method](uri, ctx)
        except Exception as exc:  # probes should not raise; belt and braces
            return _error(method, f"internal: {exc}")

    if not getattr(ctx.transport, "blocking", True):
        return [run(m) for m in methods]

    first, *rest = methods
    futures = [ctx.pool.submit(run, m) for m in rest]
    results = [run(first)]
    ran_here = [run(m) if f.cancel() else None for m, f in zip(rest, futures)]
    return results + [r if r is not None else f.result() for r, f in zip(ran_here, futures)]
