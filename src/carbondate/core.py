"""Temporal and identifier primitives shared by every other module.

Timestamps are plain integers: seconds since the Unix epoch, always UTC.
Calendar dates are ``datetime.date``. Keeping these as primitives makes
min() aggregation and day arithmetic trivial and avoids accidental
local-zone values. All clocks are injected; nothing here reads wall time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Optional
from urllib.parse import urlsplit

# Archives began in 1995; anything earlier is an upstream clock error.
EARLIEST_PLAUSIBLE = 788918400  # 1995-01-01T00:00:00Z


class MalformedUri(ValueError):
    """Raised when no scheme/host can be extracted from a raw URI string."""


class UnparsableDate(ValueError):
    """Raised when a string is not an RFC 1123, RFC 850, or asctime date."""


@dataclass(frozen=True, order=True)
class CanonicalUri:
    """Normalized absolute identifier of a web resource.

    Construct via :func:`normalize_uri`; direct construction skips
    normalization and is only appropriate for already-canonical parts.
    """

    scheme: str
    host: str
    port: Optional[int]
    path: str
    query: Optional[str] = None

    def __str__(self) -> str:
        netloc = self.host if self.port is None else f"{self.host}:{self.port}"
        q = f"?{self.query}" if self.query else ""
        return f"{self.scheme}://{netloc}{self.path}{q}"

    def display(self) -> str:
        """Human-facing form: a bare root path is shown without the slash."""
        s = str(self)
        if self.path == "/" and not self.query:
            return s[:-1]
        return s


@dataclass(frozen=True)
class PlausibilityWindow:
    """Closed interval [earliest, now] of believable evidence timestamps."""

    now: int
    earliest: int = EARLIEST_PLAUSIBLE

    def __post_init__(self) -> None:
        if not self.earliest < self.now:
            raise ValueError("plausibility window requires earliest < now")

    def contains(self, t: int) -> bool:
        return self.earliest <= t <= self.now


_PCT = re.compile(r"%[0-9a-fA-F]{2}")
_HOST_OK = re.compile(r"^[a-z0-9._~!$&'()*+,;=-]+$")
# Already canonical: lower-case http(s), a host urlsplit keeps whole, and a
# path with no "%", query, fragment, port or whitespace to normalize.
_CANONICAL = re.compile(r"(https?)://([a-z0-9._~-]+)(/[A-Za-z0-9._~!$&'()*+,;=:@/-]*)?")


def _upper_pct(s: str) -> str:
    # Percent-encoding normalization: uppercase the hex digits only.
    # Idempotent, never re-encodes.
    return _PCT.sub(lambda m: m.group(0).upper(), s)


def normalize_uri(raw: str) -> CanonicalUri:
    """Normalize a raw URI string into its canonical form.

    Lowercases scheme and host, strips default ports, turns an empty path
    into "/", uppercases percent-escapes, and drops any fragment. Only
    http and https are accepted.
    """
    m = _CANONICAL.fullmatch(raw) if isinstance(raw, str) else None
    if m:
        scheme, host, path = m.groups()
        return CanonicalUri(scheme=scheme, host=host, port=None, path=path or "/")
    if not raw or not raw.strip():
        raise MalformedUri("empty URI")
    try:
        parts = urlsplit(raw.strip())
    except ValueError as exc:
        raise MalformedUri(str(exc)) from exc
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        raise MalformedUri(f"unsupported or missing scheme in {raw!r}")
    try:
        hostname = parts.hostname
        port = parts.port
    except ValueError as exc:
        raise MalformedUri(str(exc)) from exc
    if not hostname:
        raise MalformedUri(f"no host in {raw!r}")
    host = hostname.lower()
    if not _HOST_OK.match(host):
        raise MalformedUri(f"invalid host in {raw!r}")
    if port == (80 if scheme == "http" else 443):
        port = None
    path = _upper_pct(parts.path) or "/"
    query = _upper_pct(parts.query) if parts.query else None
    return CanonicalUri(scheme=scheme, host=host, port=port, path=path, query=query)


_RFC1123 = re.compile(
    r"^\w{3}, (\d{2}) (\w{3}) (\d{4}) (\d{2}):(\d{2}):(\d{2}) (?:GMT|UTC)$"
)
_RFC850 = re.compile(
    r"^\w{6,9}, (\d{2})-(\w{3})-(\d{2}) (\d{2}):(\d{2}):(\d{2}) (?:GMT|UTC)$"
)
_ASCTIME = re.compile(
    r"^\w{3} (\w{3}) ([ \d]\d) (\d{2}):(\d{2}):(\d{2}) (\d{4})$"
)
_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
         "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
    )
}


_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORD = _EPOCH.toordinal()


def epoch_seconds(year: int, mon_name: str, day: int, hh: int, mm: int, ss: int) -> int:
    """Epoch seconds of a UTC date given by its HTTP-date fields.

    Raises UnparsableDate for an unknown month name or a day or time that
    does not exist.
    """
    month = _MONTHS.get(mon_name.capitalize())
    if month is None:
        raise UnparsableDate(f"unknown month {mon_name!r}")
    try:
        if hh < 24 and mm < 60 and ss < 60:
            days = date(year, month, day).toordinal() - _EPOCH_ORD
            return days * 86400 + hh * 3600 + mm * 60 + ss
        # datetime rejects the hour, minute or second with its own message.
        dt = datetime(year, month, day, hh, mm, ss, tzinfo=timezone.utc)
    except ValueError as exc:
        raise UnparsableDate(str(exc)) from exc
    return int(dt.timestamp())


def parse_http_date(s: str) -> int:
    """Parse an HTTP-date (RFC 1123, RFC 850, or asctime) to epoch seconds.

    GMT is treated as UTC. Two-digit RFC 850 years resolve to 1970-2069
    (pivot 70).
    """
    s = s.strip()
    m = _RFC1123.match(s)
    if m:
        dd, mon, yyyy, hh, mi, ss = m.groups()
        return epoch_seconds(int(yyyy), mon, int(dd), int(hh), int(mi), int(ss))
    m = _RFC850.match(s)
    if m:
        dd, mon, yy, hh, mi, ss = m.groups()
        y2 = int(yy)
        year = 1900 + y2 if y2 >= 70 else 2000 + y2
        return epoch_seconds(year, mon, int(dd), int(hh), int(mi), int(ss))
    m = _ASCTIME.match(s)
    if m:
        mon, dd, hh, mi, ss, yyyy = m.groups()
        return epoch_seconds(int(yyyy), mon, int(dd), int(hh), int(mi), int(ss))
    raise UnparsableDate(f"not an HTTP-date: {s!r}")


def render_http_date(t: int) -> str:
    """Render epoch seconds as an RFC 1123 date (the inverse of parsing)."""
    dt = datetime.fromtimestamp(t, tz=timezone.utc)
    return dt.strftime("%a, %d %b %Y %H:%M:%S GMT")


def filter_plausible(t: Optional[int], window: PlausibilityWindow) -> Optional[int]:
    """Pass t through iff it falls inside the plausibility window."""
    if t is None:
        return None
    return t if window.contains(t) else None


def truncate_to_day(t: int) -> date:
    """UTC calendar date containing the instant t."""
    return datetime.fromtimestamp(t, tz=timezone.utc).date()


def day_to_timestamp(d: date) -> int:
    """Midnight UTC at the start of day d, as epoch seconds."""
    return int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())


# ASCII digits only, so every Python version reads the same strings.
_ISO_TIMESTAMP = re.compile(
    r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2}):([0-9]{2})(?:\.[0-9]+)?"
    r"(?:Z|([+-])([01][0-9]|2[0-3]):?([0-5][0-9]))?"
)


def parse_iso_timestamp(s: str) -> int:
    """Parse "YYYY-MM-DDTHH:MM:SS" to epoch seconds.

    An optional ".digits" fraction follows, and is dropped. Then an
    optional zone: "Z", "+HH:MM" or "+HHMM" (or "-"); none means UTC. Any
    other form, or a date or time that does not exist, is a ValueError.
    """
    m = _ISO_TIMESTAMP.fullmatch(s.strip())
    if m is None:
        raise ValueError(f"not a YYYY-MM-DDTHH:MM:SS timestamp: {s!r}")
    *fields, sign, off_h, off_m = m.groups()
    t = int(datetime(*map(int, fields), tzinfo=timezone.utc).timestamp())
    if sign:
        t -= int(sign + off_h) * 3600 + int(sign + off_m) * 60
    return t


def render_iso_timestamp(t: int) -> str:
    """Render epoch seconds as "YYYY-MM-DDTHH:MM:SS" (UTC, no suffix)."""
    # isoformat writes four-digit years from year 1 to 9999, which
    # parse_iso_timestamp reads back; strftime writes year 999 as "999".
    if type(t) is int and -62135596800 <= t < 253402300800:
        return (_EPOCH + timedelta(seconds=t)).isoformat()
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


def parse_iso_day(s: str) -> date:
    """Parse a strict "YYYY-MM-DD" string into a date."""
    if not re.match(r"^\d{4}-\d{2}-\d{2}$", s.strip()):
        raise ValueError(f"not a YYYY-MM-DD date: {s!r}")
    return date.fromisoformat(s.strip())
