"""Timemap parsing and the first-linking-capture binary search.

A timemap is an application/link-format document listing every archived
capture (memento) of a resource. Besides parsing timemaps, this module
searches a backlink page's capture history for the first version that
links to a target URI, assuming link presence is monotone over time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from html.parser import HTMLParser
from typing import Callable, Optional
from urllib.parse import urljoin, urlsplit

from .core import CanonicalUri, UnparsableDate, normalize_uri, parse_http_date


class MalformedTimemap(ValueError):
    """Raised when a timemap body yields no parsable link entries at all."""


class FetchFailed(RuntimeError):
    """A body could not be retrieved; status is the HTTP answer, if any."""

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


@dataclass(frozen=True, slots=True)
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
# The shape of nearly every aggregator entry: a rel and, optionally, a
# quoted datetime. A full match gives the target, host, rel and datetime
# that _parse_entry and urlsplit would; any other entry (a port, userinfo,
# an upper-case scheme or host, more params) goes through them.
_MEMENTO_ENTRY = re.compile(
    r'\s*<(https?://([a-z0-9.-]+)(?:[/?#][^>\s]*)?)>;rel="([^"]*)"'
    r'(?:;datetime="([^"]*)")?\s*'
)


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
        fast = _MEMENTO_ENTRY.fullmatch(entry)
        if fast:
            target, host, rel, when = fast.groups()
            params: dict[str, str] = {}
        else:
            parsed = _parse_entry(entry)
            if parsed is None:
                continue
            target, params = parsed
            host = None
            rel, when = params.get("rel", ""), params.get("datetime")
        parsed_any = True
        if "memento" not in rel.split() or when is None:
            continue
        try:
            dt = parse_http_date(when)
        except UnparsableDate:
            continue
        last_mod: Optional[int] = None
        if "last-modified" in params:
            try:
                last_mod = parse_http_date(params["last-modified"])
            except UnparsableDate:
                last_mod = None
        if host is None:
            host = (urlsplit(target).hostname or "").lower()
        mementos.append(Memento(host, target, dt, last_mod))
    if not parsed_any:
        raise MalformedTimemap("no link entries parsed")
    mementos.sort(key=lambda m: (m.memento_datetime, m.archive_host))
    return Timemap(original=original, mementos=tuple(mementos))


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


# Plain HTML, on which HTMLParser reports exactly the attributes written:
# text with no markup and no character references; start tags with ASCII
# names and only double-quoted attribute values free of "<>&; end tags;
# HTML whitespace only. Raw-text elements, whose content HTMLParser reads
# differently from one version to the next, are left out. Text and tags
# are told apart by "<", and start and end tags by the character after it,
# so a body that does not match fails in time linear in its length.
_START_TAG = (
    r"(?!(?i:script|style|textarea|title|xmp|iframe|noembed|noframes|noscript|plaintext)"
    r"[ \t\n\r\f/>])[A-Za-z][A-Za-z0-9]*"
    r'(?:[ \t\n\r\f]+[A-Za-z][-A-Za-z0-9_.:]*="[^"<>&]*")*[ \t\n\r\f]*/?>'
)
_END_TAG = r"/[A-Za-z][A-Za-z0-9]*[ \t\n\r\f]*>"
_PLAIN_HTML = re.compile(rf"[^<&]*(?:<(?:{_END_TAG}|{_START_TAG})[^<&]*)*")
# In a plain body: the attributes of each a start tag, then each attribute.
_A_TAG = re.compile(r"<[aA]((?:[ \t\n\r\f/][^>]*)?)>")
_ATTRIBUTE = re.compile(r'([A-Za-z][-A-Za-z0-9_.:]*)="([^"]*)"')


def _hrefs(body: str) -> list[str]:
    """The non-empty href values of body's a tags in document order, as
    _AnchorCollector reports them."""
    if _PLAIN_HTML.fullmatch(body):
        return [
            value
            for attributes in _A_TAG.findall(body)
            for name, value in _ATTRIBUTE.findall(attributes)
            if value and name.lower() == "href"
        ]
    collector = _AnchorCollector()
    collector.feed(body)
    return collector.hrefs


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
    try:
        hrefs = _hrefs(body)
    except Exception:
        return False
    for href in hrefs:
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

    # Search for the first index with the link; lo == n means "none". Each
    # step drops mid from [lo, hi), so no capture is fetched twice.
    fetches = 0
    degraded = False
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        fetches += 1
        try:
            body = fetch(tm.mementos[mid].capture_uri)
            linked = contains_link(body, target, base_uri=str(tm.original))
        except FetchFailed:
            degraded = True
            linked = False
        if linked:
            hi = mid
        else:
            lo = mid + 1
    found = tm.mementos[lo].memento_datetime if lo < n else None
    return LinkSearchResult(found_at=found, fetches=fetches, degraded=degraded)
