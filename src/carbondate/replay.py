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

    ``headers`` is read-only: a loaded cassette keeps one map for all its
    responses whose headers are equal, so changing one changes them all.
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
        method, url, status, headers, body = _entry_fields(obj)
        return cls(method, url, HttpResponse(status, dict(headers), body))


def _entry_fields(obj: dict) -> tuple[str, str, int, dict[str, str], str]:
    """Method, URL, status, headers and body of a cassette line, checked.

    The method comes back upper-cased and interned, so all entries share
    one string per method; the headers map is obj's own.
    """
    req, resp = obj["request"], obj["response"]
    status = resp["status"]
    # Exactly an int: "200" or 200.9 is a malformed line, not a 200.
    if type(status) is not int or not 100 <= status <= 599:
        raise ValueError(f"status code is not an integer in 100-599: {status!r}")
    method, url = req["method"], req["url"]
    headers = resp.get("headers", {})
    # dict() would turn a list of pairs into a map; a line must hold one.
    if type(headers) is not dict:
        raise ValueError(f"headers are not a JSON object: {headers!r}")
    body = resp.get("body", "")
    for value in (method, url, body, *headers.values()):
        if type(value) is not str:
            raise ValueError(f"not a string: {value!r}")
    return sys.intern(_upper(method)), url, status, headers, body


# A URL urlsplit/urlunsplit would return unchanged: lowercase scheme and a
# non-empty lowercase host, a path, and no query or fragment.
_CANONICAL_URL = re.compile(r"https?://[a-z0-9.-]+(?::[0-9]*)?/[^?#\s]*")
# The same, then key=value pairs that parse_qsl/urlencode would write back
# unchanged: keys of unreserved characters; values of unreserved characters,
# "+", and uppercase %XX escapes of the ASCII bytes that are neither
# unreserved nor space, which urlencode escapes again the same way.
_QUERY_PAIR = (
    r"[A-Za-z0-9._~-]+=(?:[A-Za-z0-9._~+-]"
    r"|%(?:[01][0-9A-F]|2[1-9A-CF]|3[A-F]|[46]0|5[B-E]|7[B-DF]))*"
)
_CANONICAL_QUERY_URL = re.compile(
    rf"({_CANONICAL_URL.pattern})\?({_QUERY_PAIR}(?:&{_QUERY_PAIR})*)"
)


def _sorted_query(query: str) -> Optional[str]:
    """The query with its pairs sorted by key, or None if a key repeats
    (urllib would then order those pairs by their decoded values)."""
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
    if _CANONICAL_URL.fullmatch(url):
        return method, url
    m = _CANONICAL_QUERY_URL.fullmatch(url)
    if m:
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

    def add(self, interaction: Interaction) -> None:
        """Insert unless the key is already present."""
        key = match_key(interaction.method, interaction.url)
        if key in self.entries:
            return
        response = interaction.response
        headers = self._kept(response.headers)
        if headers is not response.headers:
            interaction = replace(interaction, response=replace(response, headers=headers))
        self.entries[key] = interaction

    def _kept(self, headers: dict[str, str]) -> dict[str, str]:
        """headers itself, or a new map without the volatile ones."""
        volatile = self.volatile_headers
        if any(k.lower() in volatile for k in headers):
            return {k: v for k, v in headers.items() if k.lower() not in volatile}
        return headers

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
        # Nothing built here can form a cycle, so the collector would only
        # rescan the growing entry table.
        gc_enabled = gc.isenabled()
        gc.disable()
        try:
            with open(path, "rb") as f:
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
                    volatile_headers=tuple(h.lower() for h in volatile),
                )
                # add()'s rules, with one map kept per distinct header map,
                # chosen before the entry is built.
                entries = cassette.entries
                maps: dict[tuple, dict[str, str]] = {}
                for obj in objects:
                    method, url, status, headers, body = _entry_fields(obj)
                    key = match_key(method, url)
                    if key not in entries:
                        headers = cassette._kept(headers)
                        headers = maps.setdefault(tuple(headers.items()), headers)
                        entries[key] = Interaction(
                            method, url, HttpResponse(status, headers, body)
                        )
        except (AttributeError, KeyError, TypeError, OverflowError,
                RecursionError) as exc:
            raise ValueError(f"malformed cassette {path}: {exc!r}") from exc
        finally:
            if gc_enabled:
                gc.enable()
        return cassette


def _json_lines(f) -> Iterator:
    """Decode each non-blank line of a binary file as json.loads would
    read the file's text, whose lines also end at a lone carriage return.

    Lines orjson refuses (NaN, lone surrogate escapes, invalid UTF-8,
    1e400) are decoded again by json. orjson reads integers beyond 64 bits
    as floats where json keeps ints; no such number is a valid version,
    status, header value or body, so the load rejects either reading.
    """
    for raw in f:
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                obj = orjson.loads(line)
            except orjson.JSONDecodeError:
                text = line.decode("utf-8")
                if not text.strip():
                    continue
                obj = json.loads(text)
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


class LiveTransport:
    """Real HTTP via requests. Only used outside of tests."""

    def __init__(self, timeout_s: float = 10.0):
        self.timeout_s = timeout_s

    def request(self, method: str, url: str) -> HttpResponse:
        import requests

        resp = requests.request(
            method, url, timeout=self.timeout_s, allow_redirects=True
        )
        return HttpResponse(
            status=resp.status_code,
            headers=dict(resp.headers),
            body=resp.text,
        )
