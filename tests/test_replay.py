from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pytest
from hypothesis import HealthCheck, example, given, settings
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
REPO_ROOT = Path(__file__).resolve().parent.parent


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
# Query strings near the shape match_key sorts itself: short keys that can
# repeat or prefix each other, "+", and escapes in either case, of
# unreserved, reserved, space and non-ASCII bytes.
_VALUE = r"(?:[a0+~-]|%[0-9A-Fa-f]{2}|%(?:20|21|2B|3a|41|7B|7E|C3)){0,3}"
QUERY_URLS = st.from_regex(
    r"https?://[a-z0-9.-]+(?::[0-9]*)?/[^?#\s]*"
    rf"\?[ab~-]{{1,2}}={_VALUE}(?:&[ab~+-]{{0,2}}=?{_VALUE}){{0,3}}",
    fullmatch=True,
)
URLS = st.one_of(CANONICAL_URLS, QUERY_URLS, URL_PIECES, st.text(max_size=30))


class TestMatchKey:
    @settings(max_examples=300, deadline=None)
    @given(url=URLS, method=st.sampled_from(["GET", "get", "Head"]))
    @example(url="http:////", method="GET")
    @example(url="http://e.com/a b", method="GET")
    @example(url="http://e.com/?a=1&a-=2", method="GET")
    @example(url="http://e.com/?a-=1&a=2", method="GET")
    @example(url="http://e.com/?b=%41&a=1", method="GET")
    @example(url="http://e.com/?a=%3a", method="GET")
    @example(url="http://e.com/?a=1&a=0", method="GET")
    @example(url="http://e.com/?a", method="GET")
    @example(url="http://e.com/?a=%7B&a=b", method="GET")
    @example(url="http://e.com/?a=%7E", method="GET")
    @example(url="http://e.com/?a=%20", method="GET")
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

    def test_query_key_sorted_without_urllib(self, monkeypatch):
        monkeypatch.setattr("carbondate.replay.urlsplit", None)
        assert match_key("GET", "http://e.com/s?uri=http%3A%2F%2Fa.b%2F&limit=500") == (
            "GET", "http://e.com/s?limit=500&uri=http%3A%2F%2Fa.b%2F"
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

    @pytest.mark.parametrize("status", ["200", " 404 ", 200.9, 200.0, True, None, 99, 600])
    def test_status_must_be_an_int_in_range(self, tmp_path, status):
        entry = interaction().to_json()
        entry["response"]["status"] = status
        with pytest.raises(ValueError, match="status"):
            Interaction.from_json(entry)
        path = tmp_path / "c.jsonl"
        header = {"version": 1, "recorded_at": "2013-03-01T00:00:00"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match="status"):
            Cassette.load(str(path))

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

    def test_failed_save_keeps_previous_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        first = Cassette(recorded_at=NOW)
        first.add(interaction(body="first"))
        first.save(str(path))
        before = path.read_bytes()
        second = Cassette(recorded_at=NOW)
        second.add(interaction(body="second"))
        # json.dumps fails on this body after the header and the first
        # entry are written.
        second.add(interaction(url="http://b.example/", body=object()))
        with pytest.raises(TypeError):
            second.save(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["c.jsonl"]

    def test_fixture_script_rebuilds_fixture(self, tmp_path):
        out = tmp_path / "mementoweb.jsonl"
        subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "make_mementoweb_cassette.py"),
             str(out)],
            check=True,
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        made = Cassette.load(str(out))
        fixture = Cassette.load(str(REPO_ROOT / "fixtures" / "mementoweb.jsonl"))
        assert made.recorded_at == fixture.recorded_at
        assert made.entries == fixture.entries


def reference_load(path):
    """Cassette.load as it read files with the stdlib json module alone."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    header = json.loads(lines[0])
    if header.get("version") != 1:
        raise ValueError("version")
    cassette = Cassette(
        recorded_at=parse_iso_timestamp(header["recorded_at"]),
        volatile_headers=tuple(h.lower() for h in header.get("volatile_headers", [])),
    )
    for line in lines[1:]:
        cassette.add(Interaction.from_json(json.loads(line)))
    return cassette


def loaded_state(cassette):
    # repr, not ==, so that a NaN read twice compares equal.
    return cassette.recorded_at, cassette.volatile_headers, repr(list(cassette.entries.items()))


ANY_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([2**64, -(2**63) - 1, 10**30, "\ud800", "x\udfff", "é"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=2), st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)


def mostly(strategy):
    """strategy seven times in eight, any JSON value otherwise."""
    return st.sampled_from([strategy] * 7 + [ANY_JSON]).flatmap(lambda chosen: chosen)


HEADER_OBJECTS = mostly(st.fixed_dictionaries(
    {"version": mostly(st.just(1)), "recorded_at": mostly(st.just("2013-03-01T00:00:00"))},
    optional={"volatile_headers": mostly(st.lists(st.sampled_from(["Date", "x-a"])))},
))
ENTRY_OBJECTS = mostly(st.fixed_dictionaries({
    "request": mostly(st.fixed_dictionaries({
        "method": mostly(st.sampled_from(["GET", "head"])),
        "url": mostly(st.sampled_from(
            ["http://e.com/", "http://E.com/?b=1&a=2", "http://e.com/?a=1&b=2"]
        )),
    })),
    "response": mostly(st.fixed_dictionaries(
        {"status": mostly(st.sampled_from([200, 404, 301, "200", 200.5, 99, 700, float("inf")]))},
        optional={
            "headers": mostly(st.dictionaries(
                st.sampled_from(["Date", "ETag", "X-A", "x-a"]), mostly(st.text(max_size=3)),
                max_size=3,
            )),
            "body": mostly(st.text(max_size=5)),
        },
    )),
}))


@st.composite
def json_lines(draw, objects):
    """One line: JSON text of an object, possibly with a duplicate key,
    truncated, holding a byte that is not UTF-8, or blank."""
    text = json.dumps(draw(objects), ensure_ascii=draw(st.sampled_from([True] * 3 + [False])))
    how = draw(st.sampled_from(
        ["as is"] * 12 + ["duplicate key", "truncated", "bad byte", "blank"]
    ))
    if how == "duplicate key" and text.startswith("{") and len(text) > 2:
        extra = '"response": ' + json.dumps(draw(ANY_JSON))
        text = draw(st.sampled_from(
            ["{" + extra + ", " + text[1:], text[:-1] + ", " + extra + "}"]
        ))
    line = text.encode("utf-8", "surrogatepass")
    if how == "truncated":
        line = line[: draw(st.integers(0, len(line)))]
    elif how == "bad byte":
        at = draw(st.integers(0, len(line)))
        bad = draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
        line = line[:at] + bad + line[at:]
    elif how == "blank":
        line = draw(st.sampled_from([b"", b" \t", "\u3000".encode(), b"\x1c", b"\xc2\x85"]))
    return line


@st.composite
def cassette_files(draw):
    lines = [draw(json_lines(HEADER_OBJECTS))]
    lines += draw(st.lists(json_lines(ENTRY_OBJECTS), max_size=5))
    return b"".join(line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for line in lines)


class TestCassetteLoadRobustness:
    @settings(
        max_examples=400, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )
    @given(data=cassette_files(), collecting=st.booleans())
    @example(
        data=b'{"version": 1, "recorded_at": "2013-03-01T00:00:00"}\r'
        + "\u3000\r\n".encode() + json.dumps(interaction().to_json()).encode() + b"\n",
        collecting=True,
    )
    def test_loads_like_json_or_raises_value_error(self, tmp_path, data, collecting):
        path = tmp_path / "c.jsonl"
        path.write_bytes(data)
        try:
            expected = loaded_state(reference_load(str(path)))
        except Exception:
            expected = None
        was_enabled = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            try:
                got = loaded_state(Cassette.load(str(path)))
            except ValueError:
                got = None
            assert gc.isenabled() is collecting
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert got == expected

    @pytest.mark.parametrize("field, value", [
        ("body", float("nan")),
        ("body", "\ud800"),
        ("body", 2**64 + 1),
        ("body", -(2**63) - 1),
        ("body", [10**30]),
        ("headers", {"X-Big": 10**30}),
    ])
    def test_values_orjson_refuses_or_misreads(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        header = {"version": 1, "recorded_at": "2013-03-01T00:00:00"}
        entry = interaction().to_json()
        entry["response"][field] = value
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        assert loaded_state(Cassette.load(str(path))) == loaded_state(reference_load(str(path)))
