from __future__ import annotations

import json
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbondate.core import parse_iso_timestamp
from carbondate.replay import (
    Cassette,
    HttpResponse,
    Interaction,
    RecordingTransport,
    ReplayTransport,
    UnmatchedInteraction,
    match_key,
)

NOW = parse_iso_timestamp("2013-03-01T00:00:00")


def interaction(method="HEAD", url="http://example.com/", status=200, headers=None,
                body="hello"):
    return Interaction(
        method=method,
        url=url,
        response=HttpResponse(status=status, headers=headers or {}, body=body),
    )


class StubTransport:
    """Scripted inner transport for recording tests."""

    def __init__(self, responses):
        self.responses = responses
        self.calls = 0

    def request(self, method, url):
        self.calls += 1
        return self.responses[(method, url)]


def urllib_key(method, url):
    """match_key without its fast path: the urllib round trip alone."""
    parts = urlsplit(url)
    query = urlencode(sorted(parse_qsl(parts.query, keep_blank_values=True)))
    return method.upper(), urlunsplit(
        (parts.scheme.lower(), parts.netloc.lower(), parts.path or "/", query, "")
    )


CANONICAL_URLS = st.from_regex(
    r"https?://[a-z0-9.-]+(?::[0-9]*)?/[^?#\s]*", fullmatch=True
)
URL_PIECES = st.builds(
    "".join,
    st.lists(
        st.sampled_from(
            ["http", "HTTPS", ":", "//", "/", "E.com", "e.com", ":80", "?", "#",
             "b=2", "&", "a=1", "=", " ", "\t", "%20", "x", "", "\x00", "\u00e9"]
        ),
        max_size=10,
    ),
)
URLS = st.one_of(CANONICAL_URLS, URL_PIECES, st.text(max_size=30))


class TestMatchKey:
    @settings(max_examples=300, deadline=None)
    @given(url=URLS, method=st.sampled_from(["GET", "get", "Head"]))
    @example(url="http:////", method="GET")
    @example(url="http://e.com/a b", method="GET")
    def test_fast_path_equals_urllib_path(self, url, method):
        assert match_key(method, url) == urllib_key(method, url)

    def test_host_case_insensitive(self):
        assert match_key("get", "http://EXAMPLE.com/a") == match_key(
            "GET", "http://example.com/a"
        )

    def test_query_order_insensitive(self):
        assert match_key("GET", "http://e.com/?b=2&a=1") == match_key(
            "GET", "http://e.com/?a=1&b=2"
        )

    def test_path_significant(self):
        assert match_key("GET", "http://e.com/a") != match_key("GET", "http://e.com/b")


class TestReplay:
    def test_lookup_returns_recorded(self):
        c = Cassette(recorded_at=NOW)
        c.add(interaction(headers={"Last-Modified": "x"}))
        t = ReplayTransport(c)
        resp = t.request("HEAD", "http://example.com/")
        assert resp.header("last-modified") == "x"

    def test_unmatched_raises(self):
        t = ReplayTransport(Cassette(recorded_at=NOW))
        with pytest.raises(UnmatchedInteraction) as exc:
            t.request("GET", "http://nowhere.example/")
        assert "nowhere.example" in str(exc.value)

    def test_replay_is_stateless(self):
        c = Cassette(recorded_at=NOW)
        c.add(interaction(body="same"))
        t = ReplayTransport(c)
        first = t.request("HEAD", "http://example.com/")
        second = t.request("HEAD", "http://example.com/")
        assert first == second


class TestLookupFastPath:
    @settings(max_examples=200, deadline=None)
    @given(
        recorded=st.lists(
            st.tuples(st.sampled_from(["GET", "get", "HEAD"]), URLS), max_size=8
        ),
        requested=st.tuples(st.sampled_from(["GET", "get", "HEAD", "head"]), URLS),
        pick=st.integers(min_value=0),
    )
    @example(recorded=[("GET", "http:////")], requested=("GET", "http://"), pick=0)
    @example(recorded=[("GET", "HTTP:////a")], requested=("GET", "http://a"), pick=0)
    @example(recorded=[("get", "http://e.com/")], requested=("GET", "http://e.com/"), pick=1)
    def test_equals_normalize_first_reference(self, recorded, requested, pick):
        # Half the time request exactly a recorded URL, to hit the dict first.
        if recorded and pick % 2:
            requested = (requested[0], recorded[pick % len(recorded)][1])
        c = Cassette(recorded_at=NOW)
        reference = {}
        for i, (method, url) in enumerate(recorded):
            entry = interaction(method=method, url=url, body=str(i))
            c.add(entry)
            reference.setdefault(urllib_key(method, url), entry)
        expected = reference.get(urllib_key(*requested))
        if expected is None:
            with pytest.raises(UnmatchedInteraction):
                c.lookup(*requested)
        else:
            assert c.lookup(*requested) == expected


class TestRecording:
    def test_passthrough_appends(self):
        inner = StubTransport({("HEAD", "http://e.com/"): HttpResponse(200, {}, "b")})
        sink = Cassette(recorded_at=NOW)
        t = RecordingTransport(inner, sink)
        resp = t.request("HEAD", "http://e.com/")
        assert resp.body == "b"
        assert len(sink.entries) == 1

    def test_duplicate_request_replayed_from_sink(self):
        inner = StubTransport({("HEAD", "http://e.com/"): HttpResponse(200, {}, "b")})
        sink = Cassette(recorded_at=NOW)
        t = RecordingTransport(inner, sink)
        t.request("HEAD", "http://e.com/")
        t.request("HEAD", "http://e.com/")
        assert inner.calls == 1
        assert len(sink.entries) == 1

    def test_500_recorded(self):
        inner = StubTransport({("GET", "http://e.com/"): HttpResponse(500, {}, "boom")})
        sink = Cassette(recorded_at=NOW)
        t = RecordingTransport(inner, sink)
        assert t.request("GET", "http://e.com/").status == 500
        assert sink.lookup("GET", "http://e.com/").response.status == 500


class TestCassetteFile:
    def test_save_load_round_trip(self, tmp_path):
        c = Cassette(recorded_at=NOW)
        c.add(interaction(url="http://a.example/", body="one"))
        c.add(interaction(method="GET", url="http://b.example/?q=1", body="two"))
        path = tmp_path / "c.jsonl"
        c.save(str(path))
        loaded = Cassette.load(str(path))
        assert loaded.recorded_at == NOW
        assert loaded.lookup("GET", "http://b.example/?q=1").response.body == "two"
        assert len(loaded.entries) == 2

    def test_volatile_headers_dropped(self):
        c = Cassette(recorded_at=NOW)
        c.add(interaction(headers={"Date": "whenever", "X-Keep": "yes"}))
        stored = c.lookup("HEAD", "http://example.com/").response
        assert stored.header("Date") is None
        assert stored.header("X-Keep") == "yes"

    def test_bad_status_rejected(self):
        with pytest.raises(ValueError):
            Interaction.from_json(
                {
                    "request": {"method": "GET", "url": "http://e.com/"},
                    "response": {"status": 700, "headers": {}, "body": ""},
                }
            )

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            Cassette.load(str(path))

    def write_cassette(self, path, header):
        lines = [json.dumps(header), json.dumps(interaction().to_json())]
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("version", [None, 0, 2, "1"])
    def test_other_version_rejected(self, tmp_path, version):
        header = {"recorded_at": "2013-03-01T00:00:00"}
        if version is not None:
            header["version"] = version
        path = tmp_path / "c.jsonl"
        self.write_cassette(path, header)
        with pytest.raises(ValueError, match="version"):
            Cassette.load(str(path))

    @pytest.mark.parametrize("header", [
        {"version": 1, "recorded_at": "garbage"},
        {"version": 1},
        [1],
    ])
    def test_malformed_header_is_value_error(self, tmp_path, header):
        path = tmp_path / "c.jsonl"
        self.write_cassette(path, header)
        with pytest.raises(ValueError):
            Cassette.load(str(path))
