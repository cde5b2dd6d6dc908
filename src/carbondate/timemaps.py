"""Timemap parsing and the first-linking-capture binary search.

A timemap is an application/link-format document listing every archived
capture (memento) of a resource. Besides extracting the earliest capture,
this module searches a backlink page's capture history for the first
version that links to a target URI, assuming link presence is monotone
over time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Callable, Optional
from urllib.parse import urljoin, urlsplit

from .core import (
    CanonicalUri,
    PlausibilityWindow,
    UnparsableDate,
    filter_plausible,
    normalize_uri,
    parse_http_date,
)


class MalformedTimemap(ValueError):
    """Raised when a timemap body yields no parsable link entries at all."""


class FetchFailed(RuntimeError):
    """A body could not be retrieved; status is the HTTP answer, if any."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class Memento:
    archive_host: str
    capture_uri: str
    memento_datetime: int
    original_last_modified: Optional[int] = None

    def candidate(self) -> int:
        """Earliest instant this capture vouches for."""
        if self.original_last_modified is not None:
            return min(self.memento_datetime, self.original_last_modified)
        return self.memento_datetime


@dataclass(frozen=True)
class Timemap:
    original: CanonicalUri
    mementos: tuple[Memento, ...] = field(default_factory=tuple)


# The non-empty pieces between separators outside double quotes, since
# quoted values may contain them (RFC 6690 section 2). Entries also keep
# the commas of a <URI-Reference> whole. An unbalanced quote or bracket
# runs to the end of the text.
_TOP_LEVEL_ENTRIES = re.compile(r'(?:[^,"<]+|"[^"]*"?|<[^>]*>?)+')
_TOP_LEVEL_PARAMS = re.compile(r'(?:[^;"]+|"[^"]*"?)+')


_ENTRY = re.compile(r"^\s*<([^>]*)>\s*(.*)$", re.DOTALL)


def _parse_entry(entry: str) -> Optional[tuple[str, dict[str, str]]]:
    m = _ENTRY.match(entry)
    if not m:
        return None
    target, rest = m.groups()
    params: dict[str, str] = {}
    for param in _TOP_LEVEL_PARAMS.findall(rest):
        param = param.strip()
        if not param or "=" not in param:
            continue
        key, value = param.split("=", 1)
        value = value.strip()
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        params[key.strip().lower()] = value
    return target, params


def parse_timemap(body: str, original: CanonicalUri) -> Timemap:
    """Parse a link-format timemap body into a sorted Timemap.

    Entries whose rel contains "memento" and carry a parsable datetime
    attribute become mementos; everything else (original, timegate, self)
    is ignored. An optional last-modified attribute, when present and
    parsable, is kept alongside the capture datetime.
    """
    parsed_any = False
    mementos: list[Memento] = []
    for entry in _TOP_LEVEL_ENTRIES.findall(body):
        if not entry.strip():
            continue
        parsed = _parse_entry(entry)
        if parsed is None:
            continue
        parsed_any = True
        target, params = parsed
        rels = params.get("rel", "").split()
        if "memento" not in rels:
            continue
        if "datetime" not in params:
            continue
        try:
            dt = parse_http_date(params["datetime"])
        except UnparsableDate:
            continue
        last_mod: Optional[int] = None
        if "last-modified" in params:
            try:
                last_mod = parse_http_date(params["last-modified"])
            except UnparsableDate:
                last_mod = None
        host = urlsplit(target).hostname or ""
        mementos.append(
            Memento(
                archive_host=host.lower(),
                capture_uri=target,
                memento_datetime=dt,
                original_last_modified=last_mod,
            )
        )
    if not parsed_any:
        raise MalformedTimemap("no link entries parsed")
    mementos.sort(key=lambda m: (m.memento_datetime, m.archive_host))
    return Timemap(original=original, mementos=tuple(mementos))


def earliest_memento(tm: Timemap, window: PlausibilityWindow) -> Optional[Memento]:
    """The memento with the smallest plausible candidate timestamp.

    A memento's candidate is min(memento_datetime, original last-modified
    when present). Ties break on archive host for deterministic replay.
    """
    surviving = [
        m for m in tm.mementos if filter_plausible(m.candidate(), window) is not None
    ]
    if not surviving:
        return None
    return min(surviving, key=lambda m: (m.candidate(), m.archive_host))


class _AnchorCollector(HTMLParser):
    def __init__(self) -> None:
        super().__init__(convert_charrefs=True)
        self.hrefs: list[str] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag.lower() != "a":
            return
        for name, value in attrs:
            if name.lower() == "href" and value:
                self.hrefs.append(value)


# Wayback-style rewriting embeds the original URI after a 14-digit
# datetime token (optionally suffixed with a modifier like im_ or id_).
_REWRITTEN = re.compile(r"/\d{14}(?:[a-z]{2}_)?/(https?://.+)$", re.IGNORECASE)


def strip_archive_rewrite(href: str) -> str:
    """Undo archive URL rewriting, returning the embedded original URI."""
    m = _REWRITTEN.search(href)
    return m.group(1) if m else href


def contains_link(
    body: str, target: CanonicalUri, base_uri: Optional[str] = None
) -> bool:
    """True iff any anchor href in the HTML body resolves to target.

    Archive-rewritten prefixes are stripped before normalization; relative
    hrefs are resolved against base_uri when given. Unparsable hrefs are
    skipped.
    """
    collector = _AnchorCollector()
    try:
        collector.feed(body)
    except Exception:
        return False
    for href in collector.hrefs:
        candidate = strip_archive_rewrite(href.strip())
        try:
            if "://" not in candidate:
                if base_uri is None:
                    continue
                candidate = strip_archive_rewrite(urljoin(base_uri, candidate))
            if normalize_uri(candidate) == target:
                return True
        except ValueError:  # MalformedUri, or an href urljoin cannot split
            continue
    return False


@dataclass
class LinkSearchResult:
    found_at: Optional[int]  # memento_datetime of the first linking capture
    fetches: int
    degraded: bool  # a fetch failed mid-search and was treated as "absent"


def first_linking_memento(
    tm: Timemap,
    target: CanonicalUri,
    fetch: Callable[[str], str],
) -> LinkSearchResult:
    """Binary-search the capture history for the first version linking to target.

    Assumes monotone link presence: once the backlink page links to the
    target, later captures do too. Violations still return the binary
    search's answer (a documented approximation). A failed body fetch is
    treated as "link absent" at that probe so the search always
    terminates; the result is then flagged as degraded.

    Fetch count is at most ceil(log2(n)) + 1.
    """
    n = len(tm.mementos)
    if n == 0:
        return LinkSearchResult(found_at=None, fetches=0, degraded=False)

    cache: dict[int, bool] = {}
    state = {"fetches": 0, "degraded": False}

    def present(i: int) -> bool:
        if i not in cache:
            state["fetches"] += 1
            try:
                body = fetch(tm.mementos[i].capture_uri)
                cache[i] = contains_link(
                    body, target, base_uri=str(tm.original)
                )
            except FetchFailed:
                state["degraded"] = True
                cache[i] = False
        return cache[i]

    # Search for the first index with the link; lo == n means "none".
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if present(mid):
            hi = mid
        else:
            lo = mid + 1
    found = tm.mementos[lo].memento_datetime if lo < n else None
    return LinkSearchResult(
        found_at=found, fetches=state["fetches"], degraded=state["degraded"]
    )
