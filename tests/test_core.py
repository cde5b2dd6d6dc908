from __future__ import annotations

import re
from datetime import date, datetime, timezone
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbondate.core import (
    _HOST_OK,
    _MONTHS,
    CanonicalUri,
    MalformedUri,
    PlausibilityWindow,
    UnparsableDate,
    day_to_timestamp,
    epoch_seconds,
    filter_plausible,
    normalize_uri,
    parse_http_date,
    parse_iso_timestamp,
    render_http_date,
    render_iso_timestamp,
    truncate_to_day,
)

from conftest import outcome

NOW = parse_iso_timestamp("2013-03-01T00:00:00")


def normalize_uri_reference(raw):
    """normalize_uri with every raw string through urlsplit."""
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

    def upper_pct(s):
        return re.sub(r"%[0-9a-fA-F]{2}", lambda m: m.group(0).upper(), s)

    path = upper_pct(parts.path) or "/"
    query = upper_pct(parts.query) if parts.query else None
    return CanonicalUri(scheme=scheme, host=host, port=port, path=path, query=query)


def build_reference(year, mon_name, day, hh, mm, ss):
    """epoch_seconds through datetime alone."""
    month = _MONTHS.get(mon_name.capitalize())
    if month is None:
        raise UnparsableDate(f"unknown month {mon_name!r}")
    try:
        dt = datetime(year, month, day, hh, mm, ss, tzinfo=timezone.utc)
    except ValueError as exc:
        raise UnparsableDate(str(exc)) from exc
    return int(dt.timestamp())


def render_iso_reference(t):
    """isoformat for an int second of years 1 to 9999, strftime otherwise."""
    if type(t) is int and -62135596800 <= t < 253402300800:
        return datetime.fromtimestamp(t, tz=timezone.utc).replace(tzinfo=None).isoformat()
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%S")


URI_PIECES = st.tuples(
    st.sampled_from(["http", "https", "HTTP", "hTTps", "ftp", ""]),
    st.sampled_from(["://", ":/", ":", "//"]),
    st.sampled_from(["", "user@", "u:p@"]),
    st.text(alphabet="abcXY09.-_~!", max_size=12),
    st.sampled_from(["", ":80", ":443", ":8080", ":", ":x"]),
    st.text(alphabet="/aZ9._~!$&'()*+,;=:@-%2fC?#[] \t\u00e9", max_size=16),
)


class TestNormalizeUri:
    def test_default_port_and_case(self):
        u = normalize_uri("HTTP://Example.COM:80")
        assert u.scheme == "http"
        assert u.host == "example.com"
        assert u.port is None
        assert u.path == "/"

    def test_bare_host_gets_root_path(self):
        u = normalize_uri("http://www.mementoweb.org")
        assert u.host == "www.mementoweb.org"
        assert u.path == "/"
        assert u.display() == "http://www.mementoweb.org"

    def test_rejects_non_uri(self):
        with pytest.raises(MalformedUri):
            normalize_uri("not a uri")

    def test_rejects_empty_and_other_schemes(self):
        for raw in ["", "   ", "ftp://example.com/", "//example.com/x"]:
            with pytest.raises(MalformedUri):
                normalize_uri(raw)

    def test_fragment_dropped_query_kept(self):
        u = normalize_uri("https://example.com/a?b=1#frag")
        assert u.query == "b=1"
        assert "frag" not in str(u)

    def test_non_default_port_kept(self):
        assert normalize_uri("http://example.com:8080/").port == 8080
        assert normalize_uri("https://example.com:443/").port is None

    def test_spelling_variants_collapse(self):
        variants = [
            "http://Example.com",
            "http://example.com:80/",
            "HTTP://EXAMPLE.COM",
        ]
        forms = {normalize_uri(v) for v in variants}
        assert len(forms) == 1

    @given(
        st.sampled_from(["http", "https", "HTTP"]),
        st.from_regex(r"[A-Za-z0-9][A-Za-z0-9.-]{0,20}", fullmatch=True),
        st.sampled_from(["", "/", "/a/b", "/a%2fb", "/x?y=1"]),
    )
    def test_idempotent(self, scheme, host, tail):
        raw = f"{scheme}://{host}{tail}"
        try:
            once = normalize_uri(raw)
        except MalformedUri:
            return
        assert normalize_uri(str(once)) == once

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(URI_PIECES.map("".join), st.text(max_size=30)))
    @example("http://example.com/a%2fb")
    @example("http://example.com/a?b")
    @example("http://example.com/a#b")
    @example("http://Example.com/")
    @example("HTTP://example.com/")
    @example("http://example.com:80/")
    @example("http://u@example.com/")
    @example(" http://example.com/")
    @example("http://example.com/a b")
    @example("http://example.com/a ")
    @example("http://example.com/a\tb")
    @example("http://ex_ample.com/x")
    @example("http://example.com/\u00e9")
    def test_matches_urlsplit_reference(self, raw):
        assert outcome(normalize_uri, raw) == outcome(normalize_uri_reference, raw)


class TestParseHttpDate:
    def test_rfc1123(self):
        assert parse_http_date("Wed, 27 Feb 2013 17:27:20 GMT") == 1361986040

    def test_epoch(self):
        assert parse_http_date("Thu, 01 Jan 1970 00:00:00 GMT") == 0

    def test_rfc850_two_digit_year(self):
        # Frozen from an independent reference parser.
        assert parse_http_date("Sunday, 06-Nov-94 08:49:37 GMT") == 784111777

    def test_rfc850_pivot(self):
        # 70-99 -> 1900s, 00-69 -> 2000s.
        t_99 = parse_http_date("Friday, 31-Dec-99 23:59:59 GMT")
        assert truncate_to_day(t_99).year == 1999
        t_00 = parse_http_date("Saturday, 01-Jan-00 00:00:00 GMT")
        assert truncate_to_day(t_00).year == 2000
        t_69 = parse_http_date("Wednesday, 01-Jan-69 00:00:00 GMT")
        assert truncate_to_day(t_69).year == 2069

    def test_asctime(self):
        assert parse_http_date("Wed Feb 27 17:27:20 2013") == 1361986040
        assert parse_http_date("Sun Nov  6 08:49:37 1994") == 784111777

    @pytest.mark.parametrize(
        "bad",
        [
            "2013-02-27T17:27:20Z",
            "27 Feb 2013",
            "Wed, 30 Feb 2013 00:00:00 GMT",
            "garbage",
            "",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(UnparsableDate):
            parse_http_date(bad)

    @given(st.integers(min_value=0, max_value=4102444800))
    def test_rfc1123_round_trip(self, t):
        assert parse_http_date(render_http_date(t)) == t

    @settings(max_examples=500, deadline=None)
    @given(
        st.integers(0, 9999),
        st.sampled_from(sorted(_MONTHS) + ["feb", "DEC", "Foo"]),
        st.integers(0, 32),
        st.integers(0, 99),
        st.integers(0, 99),
        st.integers(0, 99),
    )
    @example(2013, "Apr", 31, 0, 0, 0)
    @example(2013, "Feb", 29, 0, 0, 0)
    @example(2012, "Feb", 29, 12, 0, 0)
    @example(2013, "Jan", 1, 24, 0, 0)
    @example(2013, "Jan", 1, 23, 60, 0)
    @example(2013, "Jan", 1, 23, 59, 60)
    @example(0, "Jan", 1, 0, 0, 0)
    @example(1, "Jan", 1, 0, 0, 0)
    @example(9999, "Dec", 31, 23, 59, 59)
    def test_build_matches_datetime(self, year, mon, day, hh, mm, ss):
        args = (year, mon, day, hh, mm, ss)
        assert outcome(epoch_seconds, *args) == outcome(build_reference, *args)


class TestPlausibility:
    def test_pre_1995_rejected(self, window):
        assert filter_plausible(parse_iso_timestamp("1994-12-31T23:59:59"), window) is None

    def test_future_rejected(self, window):
        assert filter_plausible(window.now + 1, window) is None

    def test_in_window_passes(self, window):
        t = parse_iso_timestamp("2009-09-30T11:58:25")
        assert filter_plausible(t, window) == t

    def test_bounds_inclusive(self, window):
        assert filter_plausible(window.earliest, window) == window.earliest
        assert filter_plausible(window.now, window) == window.now

    def test_projection(self, window):
        for t in [0, window.earliest, NOW - 5, NOW + 5]:
            once = filter_plausible(t, window)
            assert filter_plausible(once, window) == once

    def test_window_requires_order(self):
        with pytest.raises(ValueError):
            PlausibilityWindow(now=0)


class TestDays:
    def test_truncate(self):
        assert truncate_to_day(1361986040) == date(2013, 2, 27)
        assert truncate_to_day(1254311905) == date(2009, 9, 30)
        assert truncate_to_day(0) == date(1970, 1, 1)

    @given(st.integers(min_value=0, max_value=4102444800))
    def test_truncate_brackets_instant(self, t):
        d = truncate_to_day(t)
        start = day_to_timestamp(d)
        assert start <= t < start + 86400

    def test_iso_round_trip(self):
        s = "2009-09-30T11:58:25"
        assert render_iso_timestamp(parse_iso_timestamp(s)) == s

    @pytest.mark.parametrize("text, expected", [
        ("2011-03-24T10:44:12", 1300963452),
        ("  2011-03-24T10:44:12Z\n", 1300963452),
        ("2011-03-24T10:44:12+00:00", 1300963452),
        ("2011-03-24T10:44:12+01:30", 1300958052),
        ("2011-03-24T10:44:12+0130", 1300958052),
        ("2011-03-24T10:44:12-0500", 1300981452),
        ("2011-03-24T10:44:12-23:59", 1301049792),
        ("2011-03-24T10:44:12.5Z", 1300963452),
        ("2011-03-24T10:44:12.123456789+01:30", 1300958052),
        ("1969-12-31T23:59:59.5", -1),
        ("0001-01-01T00:00:00", -62135596800),
        ("9999-12-31T23:59:59", 253402300799),
        ("2012-02-29T00:00:00", 1330473600),
        # Basic format, week and ordinal dates, date-only, reduced precision.
        ("20110324T104412", ValueError),
        ("2011-03-24T104412", ValueError),
        ("2011-W12-4T10:44", ValueError),
        ("2011-W12-4", ValueError),
        ("2011-083T10:44:12", ValueError),
        ("2011-03-24", ValueError),
        ("2011-03-24T10", ValueError),
        ("2011-03-24T10:44", ValueError),
        ("2011-03-24T10:44:12+01", ValueError),
        ("2011-03-24T10:44:12+01:30:00", ValueError),
        # Other separators, suffixes and digits.
        ("2011-03-24 10:44:12", ValueError),
        ("2011-03-24t10:44:12", ValueError),
        ("2011-03-24T10:44:12z", ValueError),
        ("2011-03-24T10:44:12.Z", ValueError),
        ("2011-03-24T10:44:12,5Z", ValueError),
        ("2011-03-24T10:44:12 Z", ValueError),
        ("\uff12\uff10\uff11\uff11-03-24T10:44:12", ValueError),
        ("", ValueError),
        # Fields and offsets that do not exist.
        ("2011-02-29T00:00:00", ValueError),
        ("2011-03-24T24:00:00", ValueError),
        ("2011-03-24T10:44:60", ValueError),
        ("0000-01-01T00:00:00", ValueError),
        ("2011-03-24T10:44:12+24:00", ValueError),
        ("2011-03-24T10:44:12+01:60", ValueError),
    ])
    def test_iso_grammar(self, text, expected):
        if expected is ValueError:
            with pytest.raises(ValueError):
                parse_iso_timestamp(text)
        else:
            assert parse_iso_timestamp(text) == expected

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.integers(-(10**12), 3 * 10**11),
        st.integers(-(10**25), 10**25),
    ))
    @example(0)
    @example(-1)
    @example(253402300799)  # the last second of 9999
    @example(253402300800)
    @example(-30631392000)  # 0999-05-01, written with four digits
    @example(-62135596800)  # the first second of year 1
    @example(-62135596801)
    @example(10**20)
    def test_render_iso_matches_strftime(self, t):
        assert outcome(render_iso_timestamp, t) == outcome(render_iso_reference, t)

    @pytest.mark.parametrize("text", ["0001-01-01T00:00:00", "0999-06-01T00:00:00"])
    def test_iso_round_trip_before_year_1000(self, text):
        assert render_iso_timestamp(parse_iso_timestamp(text)) == text
