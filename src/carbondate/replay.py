"""Deterministic HTTP transport: record live interactions, replay them offline.

Cassettes are JSON-lines files: a header line with version, recording
time, and the volatile-header list, then one interaction per line.
Matching is keyed on (HTTP method, normalized URL); volatile headers
never participate in the key.
"""

from __future__ import annotations

import gc
import json
import os
import re
import sys
import threading
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import orjson

from .core import parse_iso_timestamp, render_iso_timestamp

CASSETTE_VERSION = 1
DEFAULT_VOLATILE_HEADERS = ("date", "x-request-id", "set-cookie", "etag")


class UnmatchedInteraction(KeyError):
    """Replay had no recorded response for the requested key."""


@dataclass(frozen=True, slots=True)
class HttpResponse:
    """One recorded or live answer.

    ``headers`` is read-only: a cassette keeps one map for all its
    responses whose kept headers are equal, so changing one changes them all.
    """

    status: int
    headers: dict[str, str]
    body: str

    def header(self, name: str) -> Optional[str]:
        lname = name.lower()
        for k, v in self.headers.items():
            if k.lower() == lname:
                return v
        return None


@dataclass(frozen=True, slots=True)
class Interaction:
    method: str
    url: str
    response: HttpResponse

    def to_json(self) -> dict:
        return {
            "request": {"method": self.method, "url": self.url},
            "response": {
                "status": self.response.status,
                "headers": self.response.headers,
                "body": self.response.body,
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "Interaction":
        """The interaction a cassette line holds; ValueError unless its
        types are the ones HttpResponse promises."""
        return _EntryReader(()).read(obj)[1]


_new = object.__new__
# The frozen dataclasses' __init__ sets each field through
# object.__setattr__; their slot descriptors set it at half the cost.
_set_status, _set_headers, _set_body = (
    HttpResponse.__dict__[name].__set__ for name in ("status", "headers", "body")
)
_set_method, _set_url, _set_response = (
    Interaction.__dict__[name].__set__ for name in ("method", "url", "response")
)
_NO_HEADERS: dict[str, str] = {}


class _EntryReader:
    """Checks cassette lines and builds the interactions they hold and
    their keys.

    Lines repeat a few methods and header maps, so each distinct one is
    checked and converted once: a method upper-cased and interned, a map
    type-checked and passed through _keep().
    """

    __slots__ = ("volatile", "methods", "maps", "kept", "origin")

    def __init__(self, volatile: tuple[str, ...]):
        self.volatile = volatile
        self.methods: dict[str, str] = {}
        # Keyed by the items of maps that passed the check. No JSON value
        # other than a str equals a str, so a tuple equal to such a key holds
        # strings only and a hit needs no check.
        self.maps: dict[tuple, dict[str, str]] = {}
        # _keep()'s table of the maps kept so far.
        self.kept: dict[tuple, dict[str, str]] = {}
        # Scheme, host and "/" of the last canonical URL; a space matches
        # no URL canonical() gets that far with.
        self.origin = " "

    def read(self, obj: dict) -> tuple[tuple[str, str], Interaction]:
        """The entry's match_key and its interaction."""
        req, resp = obj["request"], obj["response"]
        status = resp["status"]
        # Exactly an int: "200" or 200.9 is a malformed line, not a 200.
        if type(status) is not int or not 100 <= status <= 599:
            raise ValueError(f"status code is not an integer in 100-599: {status!r}")
        headers = resp.get("headers", _NO_HEADERS)
        try:
            headers = self.maps[tuple(headers.items())]
        except (KeyError, AttributeError, TypeError):
            headers = self._headers(headers)
        method = req["method"]
        try:
            method = self.methods[method]
        except (KeyError, TypeError):
            method = self._method(method)
        url, body = req["url"], resp.get("body", "")
        if type(url) is not str:
            raise ValueError(f"not a string: {url!r}")
        if type(body) is not str:
            raise ValueError(f"not a string: {body!r}")
        response = _new(HttpResponse)
        _set_status(response, status)
        _set_headers(response, headers)
        _set_body(response, body)
        interaction = _new(Interaction)
        _set_method(interaction, method)
        _set_url(interaction, url)
        _set_response(interaction, response)
        # The method is upper-case already, so a canonical URL is its own key.
        return (method, url) if self.canonical(url) else match_key(method, url), interaction

    def canonical(self, url: str) -> bool:
        """Whether _CANONICAL_URL fully matches url. Lines of one host tend
        to follow each other, so the scheme and host are matched only when
        they differ from the last canonical URL's."""
        # Where the pattern matches, the first "/" from index 8 on ends the
        # host: "https://" is 8 characters and a host is never empty. str.split
        # and the pattern's \s count the same characters as whitespace.
        end = url.find("/", 8)
        if end < 0 or "?" in url or "#" in url or url.split(None, 1)[0] != url:
            return False
        if url.startswith(self.origin):
            return True
        if not _CANONICAL_ORIGIN.fullmatch(url, 0, end):
            return False
        self.origin = url[: end + 1]
        return True

    def _headers(self, headers) -> dict[str, str]:
        # dict() would turn a list of pairs into a map; a line must hold one.
        if type(headers) is not dict:
            raise ValueError(f"headers are not a JSON object: {headers!r}")
        for value in headers.values():
            if type(value) is not str:
                raise ValueError(f"not a string: {value!r}")
        kept = _keep(headers, self.volatile, self.kept)
        self.maps[tuple(headers.items())] = kept
        return kept

    def _method(self, method) -> str:
        if type(method) is not str:
            raise ValueError(f"not a string: {method!r}")
        upper = self.methods[method] = sys.intern(_upper(method))
        return upper


def _keep(headers: dict[str, str], volatile: tuple[str, ...], table: dict) -> dict:
    """headers without those whose lower-cased name is in volatile, as the
    one map in table shared by every call that keeps the same items. The
    table is keyed by a kept map's names, then its values: a flat key holds
    no tuple per header."""
    kept = {k: v for k, v in headers.items() if k.lower() not in volatile}
    return table.setdefault((*kept, *kept.values()), kept)


# A URL urlsplit/urlunsplit would return unchanged: lowercase scheme and a
# non-empty lowercase host, a path, and no query or fragment.
_ORIGIN = r"https?://[a-z0-9.-]+(?::[0-9]*)?"
_CANONICAL_URL = re.compile(rf"{_ORIGIN}/[^?#\s]*")
_CANONICAL_ORIGIN = re.compile(_ORIGIN)
# The same, then key=value pairs that parse_qsl/urlencode would write back
# unchanged: keys of unreserved characters; values of unreserved characters,
# "+", and uppercase %XX escapes of the ASCII bytes that are neither
# unreserved nor space, which urlencode escapes again the same way. A value
# is written as runs of plain characters between escapes, which the regex
# engine scans faster than one alternation per character.
_VALUE_CHARS = r"[A-Za-z0-9._~+-]*"
_QUERY_PAIR = (
    rf"[A-Za-z0-9._~-]+={_VALUE_CHARS}"
    rf"(?:%(?:[01][0-9A-F]|2[1-9A-CF]|3[A-F]|[46]0|5[B-E]|7[B-DF]){_VALUE_CHARS})*"
)
_CANONICAL_QUERY_URL = re.compile(
    rf"({_CANONICAL_URL.pattern})\?({_QUERY_PAIR}(?:&{_QUERY_PAIR})*)"
)


def _sorted_query(query: str) -> Optional[str]:
    """The query with its pairs sorted by key, or None if a key repeats
    (urllib would then order those pairs by their decoded values)."""
    if "&" not in query:
        return query
    pairs = sorted(pair.split("=", 1) for pair in query.split("&"))
    for before, after in zip(pairs, pairs[1:]):
        if before[0] == after[0]:
            return None
    return "&".join([f"{key}={value}" for key, value in pairs])


def _upper(method: str) -> str:
    """method.upper(), and the very object when it is upper-case already."""
    if method.isascii() and method.isupper():
        return method
    return method.upper()


def match_key(method: str, url: str) -> tuple[str, str]:
    """Canonical lookup key: upper method + URL with lowercased scheme/host
    and sorted query parameters."""
    method = _upper(method)
    # Only a URL with a "?" can match _CANONICAL_QUERY_URL, and no such URL
    # matches _CANONICAL_URL.
    if "?" not in url:
        if _CANONICAL_URL.fullmatch(url):
            return method, url
    elif m := _CANONICAL_QUERY_URL.fullmatch(url):
        query = _sorted_query(m[2])
        if query is not None:
            return method, f"{m[1]}?{query}"
    parts = urlsplit(url)
    query = urlencode(sorted(parse_qsl(parts.query, keep_blank_values=True)))
    normalized = urlunsplit(
        (
            parts.scheme.lower(),
            (parts.netloc or "").lower(),
            parts.path or "/",
            query,
            "",
        )
    )
    return method, normalized


@dataclass
class Cassette:
    recorded_at: int
    volatile_headers: tuple[str, ...] = DEFAULT_VOLATILE_HEADERS
    entries: dict[tuple[str, str], Interaction] = field(default_factory=dict)
    # _keep()'s table of the header maps add() stores; load() keeps its own
    # only while it reads, so a loaded cassette's stays empty.
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Stored lower-cased, so add(), save() and load() apply one rule.
        self.volatile_headers = tuple(h.lower() for h in self.volatile_headers)

    def add(self, interaction: Interaction) -> None:
        """Insert unless the key is already present."""
        key = match_key(interaction.method, interaction.url)
        if key in self.entries:
            return
        response = interaction.response
        headers = _keep(response.headers, self.volatile_headers, self._kept)
        interaction = replace(interaction, response=replace(response, headers=headers))
        self.entries[key] = interaction

    def lookup(self, method: str, url: str) -> Interaction:
        # A request for exactly the recorded URL needs no normalizing. The
        # url test matters: match_key is not idempotent on every string.
        hit = self.entries.get((method, url))
        if hit is not None and hit.url == url:
            return hit
        key = match_key(method, url)
        try:
            return self.entries[key]
        except KeyError:
            raise UnmatchedInteraction(f"{key[0]} {key[1]}") from None

    def save(self, path: str) -> None:
        """Write the cassette through a temporary file in the same
        directory, so a failed write leaves any earlier file whole."""
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as f:
                header = {
                    "version": CASSETTE_VERSION,
                    "recorded_at": render_iso_timestamp(self.recorded_at),
                    "volatile_headers": list(self.volatile_headers),
                }
                f.write(json.dumps(header) + "\n")
                for interaction in self.entries.values():
                    f.write(json.dumps(interaction.to_json()) + "\n")
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    @classmethod
    def load(cls, path: str) -> "Cassette":
        """The cassette saved at path, read as UTF-8 text a line at a time:
        holding the whole file would add its size to the peak memory of
        the load. ValueError for a file that is not one."""
        # Nothing built here can form a cycle, so the collector would only
        # rescan the growing entry table.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            with open(path, "r", encoding="utf-8") as f:
                objects = _json_lines(f)
                header = next(objects, None)
                if header is None:
                    raise ValueError(f"empty cassette file: {path}")
                version = header.get("version")
                if version != CASSETTE_VERSION:
                    raise ValueError(
                        f"unsupported cassette version {version!r} in {path};"
                        f" expected {CASSETTE_VERSION}"
                    )
                volatile = header.get("volatile_headers", [])
                if type(volatile) is not list or any(type(h) is not str for h in volatile):
                    raise ValueError(
                        f"volatile_headers is not a list of strings in {path}: {volatile!r}"
                    )
                cassette = cls(
                    recorded_at=parse_iso_timestamp(header["recorded_at"]),
                    volatile_headers=volatile,
                )
                # add()'s rule: the first line of a key wins.
                entries = cassette.entries
                read = _EntryReader(cassette.volatile_headers).read
                for obj in objects:
                    key, entry = read(obj)
                    if key not in entries:
                        entries[key] = entry
        except (AttributeError, KeyError, TypeError, OverflowError,
                RecursionError) as exc:
            raise ValueError(f"malformed cassette {path}: {exc!r}") from exc
        finally:
            if gc_enabled:
                gc.enable()
        return cassette


def _json_lines(f) -> Iterator:
    """Decode each non-blank line of a text file.

    Lines orjson refuses (NaN, lone surrogate escapes, 1e400) are decoded
    again by json. orjson reads integers beyond 64 bits as floats where
    json keeps ints; no such number is a valid version, status, header
    value or body, so the load rejects either reading.
    """
    for line in f:
        try:
            obj = orjson.loads(line)
        except orjson.JSONDecodeError:
            if not line.strip():
                continue
            obj = json.loads(line)
        yield obj


class ReplayTransport:
    """Serves recorded responses; raises UnmatchedInteraction otherwise.

    Read-only after construction, so concurrent lookups are safe.
    Answers come from memory, so callers need not overlap requests.
    """

    blocking = False

    def __init__(self, cassette: Cassette):
        self.cassette = cassette

    def request(self, method: str, url: str) -> HttpResponse:
        return self.cassette.lookup(method, url).response


class RecordingTransport:
    """Pass-through wrapper that appends every interaction to a cassette.

    Repeated requests for an already-recorded key are answered from the
    cassette, keeping keys unique.
    """

    def __init__(self, inner, sink: Cassette):
        self.inner = inner
        self.sink = sink
        self._lock = threading.Lock()

    def request(self, method: str, url: str) -> HttpResponse:
        with self._lock:
            try:
                return self.sink.lookup(method, url).response
            except UnmatchedInteraction:
                pass
        response = self.inner.request(method, url)
        with self._lock:
            self.sink.add(Interaction(method=method.upper(), url=url, response=response))
        return response

    def save(self, path: str) -> None:
        """Save the sink; a thread still recording waits until it is written."""
        with self._lock:
            self.sink.save(path)


# The most body bytes LiveTransport reads of one response, after any
# content decoding. A longer body fails the request, so a probe reports an
# error instead of parsing a truncated document.
MAX_BODY_BYTES = 16 * 1024 * 1024
_CHUNK_BYTES = 64 * 1024


def _read_body(resp, **kwargs) -> None:
    """requests response hook: read the body, at most MAX_BODY_BYTES of it.

    requests calls it on every response, including each redirect it
    follows, before it would read that body in full itself.
    """
    chunks, size = [], 0
    for chunk in resp.iter_content(_CHUNK_BYTES):
        size += len(chunk)
        if size > MAX_BODY_BYTES:
            resp.close()
            raise ValueError(f"body of {resp.url} exceeds {MAX_BODY_BYTES} bytes")
        chunks.append(chunk)
    # .content and .text read _content, which a streamed response leaves unset.
    resp._content = b"".join(chunks)


class LiveTransport:
    """Real HTTP via requests.

    Each thread keeps one requests.Session, so the requests it sends reuse
    open connections; probes run on a pool of threads, and a Session is
    not meant to be shared between them.
    """

    def __init__(self, timeout_s: float = 10.0):
        self.timeout_s = timeout_s
        self._local = threading.local()

    def _session(self):
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
        return session

    def request(self, method: str, url: str) -> HttpResponse:
        with self._session().request(
            method, url, timeout=self.timeout_s, allow_redirects=True, stream=True,
            hooks={"response": _read_body},
        ) as resp:
            return HttpResponse(
                status=resp.status_code,
                headers=dict(resp.headers),
                body=resp.text,
            )
