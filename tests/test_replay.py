from __future__ import annotations

import gc
import http.server
import json
import os
import socket
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import carbondate.cli as cli
import carbondate.replay as replay
import carbondate.timemaps as timemaps
from carbondate.core import PlausibilityWindow, normalize_uri, parse_iso_timestamp
from carbondate.replay import (
    _CANONICAL_URL,
    Cassette,
    HttpResponse,
    Interaction,
    LiveTransport,
    RecordingTransport,
    ReplayTransport,
    UnmatchedInteraction,
    _EntryReader,
    match_key,
)
from carbondate.sources import (
    FLAG_PARTIAL_FETCH,
    Endpoints,
    SourceContext,
    query_archives,
    query_backlinks,
)
from carbondate.synth import generate_world

NOW = parse_iso_timestamp("2013-03-01T00:00:00")
# Names that differ only in case, so a volatile list and a header map
# spell one name differently.
HEADER_NAMES = st.text(alphabet="dDaAtT-", min_size=1, max_size=4)
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

    def test_recorded_before_year_1000_round_trips(self, tmp_path):
        t = parse_iso_timestamp("0999-06-01T00:00:00")
        path = tmp_path / "c.jsonl"
        Cassette(recorded_at=t).save(str(path))
        assert Cassette.load(str(path)).recorded_at == t

    def test_volatile_headers_dropped(self):
        c = Cassette(recorded_at=NOW)
        c.add(interaction(headers={"Date": "whenever", "X-Keep": "yes"}))
        stored = c.lookup("HEAD", "http://example.com/").response
        assert stored.header("Date") is None
        assert stored.header("X-Keep") == "yes"

    def test_volatile_list_is_lower_cased_on_add_and_save(self, tmp_path):
        c = Cassette(recorded_at=NOW, volatile_headers=("Date",))
        c.add(interaction(headers={"date": "whenever", "X-Keep": "yes"}))
        assert c.lookup("HEAD", "http://example.com/").response.headers == {"X-Keep": "yes"}
        path = tmp_path / "c.jsonl"
        c.save(str(path))
        header = json.loads(path.read_text().splitlines()[0])
        assert header["volatile_headers"] == ["date"]

    @settings(max_examples=200, deadline=None)
    @given(
        volatile=st.lists(HEADER_NAMES, max_size=3),
        maps=st.lists(st.dictionaries(HEADER_NAMES, st.text(max_size=3), max_size=4),
                      min_size=1, max_size=5),
    )
    def test_add_save_load_round_trip(self, volatile, maps):
        c = Cassette(recorded_at=NOW, volatile_headers=tuple(volatile))
        for i, headers in enumerate(maps):
            c.add(interaction(url=f"http://e.com/{i}", headers=headers))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "c.jsonl")
            c.save(path)
            loaded = Cassette.load(path)
        assert loaded.entries == c.entries
        dropped = {name.lower() for name in volatile}
        for cassette in (c, loaded):
            for e in cassette.entries.values():
                assert not {name.lower() for name in e.response.headers} & dropped

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

    @pytest.mark.parametrize("part, key, value", [
        ("response", "body", [1, 2]),
        ("response", "headers", {"Last-Modified": 5}),
        ("request", "url", 5),
        ("request", "method", ["GET"]),
    ])
    def test_values_must_be_strings(self, tmp_path, part, key, value):
        entry = interaction().to_json()
        entry[part][key] = value
        with pytest.raises(ValueError, match="string"):
            Interaction.from_json(entry)
        path = tmp_path / "c.jsonl"
        header = {"version": 1, "recorded_at": "2013-03-01T00:00:00"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match="string"):
            Cassette.load(str(path))

    @pytest.mark.parametrize("headers", [[["Last-Modified", "x"]], ["ab"], "", None])
    def test_headers_must_be_an_object(self, tmp_path, headers):
        entry = interaction().to_json()
        entry["response"]["headers"] = headers
        with pytest.raises(ValueError, match="not a JSON object"):
            Interaction.from_json(entry)
        path = tmp_path / "c.jsonl"
        header = {"version": 1, "recorded_at": "2013-03-01T00:00:00"}
        path.write_text(json.dumps(header) + "\n" + json.dumps(entry) + "\n")
        with pytest.raises(ValueError, match="not a JSON object"):
            Cassette.load(str(path))

    @pytest.mark.parametrize("volatile", ["date", [1], ["date", None], {"date": 1}])
    def test_volatile_headers_must_be_a_list_of_strings(self, tmp_path, volatile):
        path = tmp_path / "c.jsonl"
        header = {"version": 1, "recorded_at": "2013-03-01T00:00:00",
                  "volatile_headers": volatile}
        self.write_cassette(path, header)
        with pytest.raises(ValueError, match="not a list of strings"):
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

    def test_fixture_script_needs_an_output_path(self, tmp_path):
        fixture = tmp_path / "fixtures" / "mementoweb.jsonl"
        fixture.parent.mkdir()
        committed = (REPO_ROOT / "fixtures" / "mementoweb.jsonl").read_bytes()
        fixture.write_bytes(committed)
        run = subprocess.run(
            [sys.executable, str(REPO_ROOT / "scripts" / "make_mementoweb_cassette.py")],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert run.returncode == 2
        assert run.stderr.startswith("usage:")
        assert fixture.read_bytes() == committed


def reference_load(path):
    """Cassette.load as it read files with the stdlib json module alone."""
    with open(path, "r", encoding="utf-8") as f:
        lines = [line for line in f if line.strip()]
    header = json.loads(lines[0])
    if header.get("version") != 1:
        raise ValueError("version")
    volatile = header.get("volatile_headers", [])
    if not isinstance(volatile, list) or not all(isinstance(h, str) for h in volatile):
        raise ValueError("volatile_headers")
    cassette = Cassette(
        recorded_at=parse_iso_timestamp(header["recorded_at"]),
        volatile_headers=tuple(h.lower() for h in volatile),
    )
    for line in lines[1:]:
        cassette.add(Interaction.from_json(json.loads(line)))
    return cassette


def loaded_state(cassette):
    # repr, not ==, so that a NaN read twice compares equal.
    return cassette.recorded_at, cassette.volatile_headers, repr(list(cassette.entries.items()))


def load_outcome(load, path):
    """The loaded state, or ValueError for a file load rejects."""
    try:
        return loaded_state(load(path))
    except ValueError:
        return ValueError


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


WELL_FORMED_HEADER = st.fixed_dictionaries(
    {"version": st.just(1), "recorded_at": st.just("2013-03-01T00:00:00")},
    optional={"volatile_headers": st.lists(st.sampled_from(["Date", "x-a"]))},
)
HEADER_OBJECTS = mostly(st.fixed_dictionaries(
    {"version": mostly(st.just(1)), "recorded_at": mostly(st.just("2013-03-01T00:00:00"))},
    optional={"volatile_headers": mostly(st.lists(st.sampled_from(["Date", "x-a"])))},
))
METHODS = st.sampled_from(["GET", "get", "Get", "head"])
ENTRY_URLS = st.sampled_from(["http://e.com/", "http://E.com/?b=1&a=2", "http://e.com/?a=1&b=2"])
HEADER_KEYS = st.sampled_from(["Date", "ETag", "X-A", "x-a"])
# Header maps from few keys and values, in any key order. "1", 1 and true
# can fill one key: only "1" is a header value, and 1 and true compare
# equal, as do the maps holding them.
HEADER_MAPS = st.lists(
    st.tuples(HEADER_KEYS, mostly(st.sampled_from(["1", 1, True, "", "ab"]))), max_size=3,
).map(dict)
WELL_FORMED_MAPS = st.lists(
    st.tuples(HEADER_KEYS, st.sampled_from(["1", "", "ab"])), max_size=3,
).map(dict)


def entry_objects(wrap, methods, urls, statuses, maps):
    """Entry objects whose method, URL, status and header map come from
    pools, so that lines repeat them; wrap may make any part malformed."""
    return wrap(st.fixed_dictionaries({
        "request": wrap(st.fixed_dictionaries({
            "method": st.sampled_from(methods), "url": st.sampled_from(urls),
        })),
        "response": wrap(st.fixed_dictionaries(
            {"status": st.sampled_from(statuses)},
            optional={"headers": st.sampled_from(maps), "body": wrap(st.text(max_size=5))},
        )),
    }))


@st.composite
def json_lines(draw, objects, faults=True):
    """One line: JSON text of an object, possibly with a duplicate key,
    truncated, holding a byte that is not UTF-8, or blank."""
    text = json.dumps(draw(objects), ensure_ascii=draw(st.sampled_from([True] * 3 + [False])))
    how = draw(st.sampled_from(
        ["as is"] * 12 + (["duplicate key", "truncated", "bad byte"] if faults else []) + ["blank"]
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
    """A header line, then entry lines that draw methods, URLs, statuses
    and header maps from pools of up to three, so lines repeat them as
    cassettes do.

    In half the files any part of any line may be malformed. In the other
    half only a header map may be: one that repeats a well-formed map's
    keys with 1 or true for a value. Those files mostly load, so the
    repeats reach the load's caches.
    """
    faults = draw(st.booleans())
    wrap = mostly if faults else (lambda strategy: strategy)

    def pool(strategy):
        return draw(st.lists(wrap(strategy), min_size=1, max_size=3))

    statuses = [200, 404, 301] + (["200", 200.5, 99, 700, float("inf")] if faults else [])
    maps = pool(HEADER_MAPS if faults else WELL_FORMED_MAPS)
    if not faults and maps[0] and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(maps[0])))
        maps.append({**maps[0], key: draw(st.sampled_from([1, True]))})
    entries = entry_objects(
        wrap, pool(METHODS), pool(ENTRY_URLS), pool(st.sampled_from(statuses)), maps
    )
    lines = [draw(json_lines(HEADER_OBJECTS if faults else WELL_FORMED_HEADER, faults))]
    lines += draw(st.lists(json_lines(entries, faults), max_size=6))
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

    @pytest.mark.parametrize("cut", [b"\r", b"\r\n"])
    def test_carriage_return_ends_a_line(self, tmp_path, cut):
        # Read as text, the file holds two lines, neither of them JSON,
        # though orjson would read the bytes as one object.
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"version": 1,' + cut + b' "recorded_at": "2013-03-01T00:00:00"}\n')
        assert load_outcome(reference_load, str(path)) is ValueError
        assert load_outcome(Cassette.load, str(path)) is ValueError

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
        got = load_outcome(Cassette.load, str(path))
        assert got == load_outcome(reference_load, str(path))
        # Only the lone surrogate is a string; any other body or header
        # value makes the line malformed, however orjson reads it.
        assert (got is ValueError) == (value != "\ud800")


class TestCompactLayout:
    """A loaded cassette holds one header map per distinct map and one
    string per method, in entries without a __dict__."""

    @pytest.fixture(scope="class")
    def world_file(self, tmp_path_factory):
        _, cassette = generate_world(seed=7, n=200)
        path = tmp_path_factory.mktemp("compact") / "world.jsonl"
        cassette.save(str(path))
        return path

    def test_layout(self, world_file, tmp_path):
        loaded = Cassette.load(str(world_file))
        responses = [e.response for e in loaded.entries.values()]
        distinct_maps = {tuple(r.headers.items()) for r in responses}
        assert 1 < len(distinct_maps) < len(responses)
        assert len({id(r.headers) for r in responses}) == len(distinct_maps)

        methods = [e.method for e in loaded.entries.values()]
        methods += [method for method, _ in loaded.entries]
        assert {"GET", "HEAD"} <= set(methods)
        assert len({id(m) for m in methods}) == len(set(methods))

        interaction = next(iter(loaded.entries.values()))
        assert not hasattr(interaction, "__dict__")
        assert not hasattr(interaction.response, "__dict__")

        again = tmp_path / "again.jsonl"
        loaded.save(str(again))
        assert again.read_bytes() == world_file.read_bytes()

    def test_add_leaves_callers_headers_alone(self):
        headers = {"Date": "whenever", "X-Keep": "yes"}
        c = Cassette(recorded_at=NOW)
        c.add(interaction(headers=headers))
        assert headers == {"Date": "whenever", "X-Keep": "yes"}
        assert c.lookup("HEAD", "http://example.com/").response.headers == {"X-Keep": "yes"}

    def test_recordings_apart_only_in_volatile_headers_share_one_map(self):
        c = Cassette(recorded_at=NOW)
        for i in range(50):
            date = f"Tue, 01 Jan 2013 00:{i:02d}:00 GMT"
            c.add(interaction(url=f"http://e.com/{i}", headers={"Date": date, "X-Keep": "1"}))
        maps = [e.response.headers for e in c.entries.values()]
        assert len(maps) == 50
        assert all(m is maps[0] for m in maps)
        assert maps[0] == {"X-Keep": "1"}
        # The table add() shares maps through is keyed by the kept items alone.
        assert list(c._kept.values()) == [{"X-Keep": "1"}]

    def test_loaded_cassette_holds_no_table_of_maps(self, world_file):
        assert Cassette.load(str(world_file))._kept == {}


def write_entries(path, *entries, volatile=None):
    """A cassette file of the given entry objects, one per line."""
    header = {"version": 1, "recorded_at": "2013-03-01T00:00:00"}
    if volatile is not None:
        header["volatile_headers"] = volatile
    path.write_text("".join(json.dumps(obj) + "\n" for obj in (header, *entries)))


def entry(url, headers=None, method="GET"):
    return interaction(method=method, url=url, headers=headers).to_json()


class TestLoadCaches:
    """Cassette.load checks each distinct method and header map once."""

    def test_maps_apart_only_in_volatile_values_share_one_kept_map(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_entries(
            path,
            entry("http://e.com/1", {"Date": "Mon, 01 Jan 2001", "X-Keep": "1"}),
            entry("http://e.com/2", {"Date": "Tue, 02 Jan 2001", "X-Keep": "1"}),
            entry("http://e.com/3", {"X-Keep": "1", "ETag": "abc"}),
            volatile=["Date", "ETag"],
        )
        maps = [e.response.headers for e in Cassette.load(str(path)).entries.values()]
        assert maps == [{"X-Keep": "1"}] * 3
        assert maps[0] is maps[1] is maps[2]

    @pytest.mark.parametrize("value", [1, True, None, 1.0, ["1"], {"1": "1"}])
    def test_accepted_map_keys_with_a_value_not_a_string(self, tmp_path, value):
        path = tmp_path / "c.jsonl"
        write_entries(
            path,
            entry("http://e.com/1", {"X-A": "1"}),
            entry("http://e.com/2", {"X-A": value}),
        )
        with pytest.raises(ValueError, match="not a string"):
            Cassette.load(str(path))

    def test_maps_apart_only_in_key_order_stay_apart(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_entries(
            path,
            entry("http://e.com/1", {"A": "1", "B": "2"}),
            entry("http://e.com/2", {"B": "2", "A": "1"}),
        )
        maps = [e.response.headers for e in Cassette.load(str(path)).entries.values()]
        assert [list(m) for m in maps] == [["A", "B"], ["B", "A"]]

    def test_methods_in_any_case_share_one_string(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_entries(
            path,
            *(entry(f"http://e.com/{m}", method=m) for m in ("get", "GET", "Get")),
            entry("http://e.com/GET", method="get"),
        )
        loaded = Cassette.load(str(path))
        assert [e.url for e in loaded.entries.values()] == [
            "http://e.com/get", "http://e.com/GET", "http://e.com/Get",
        ]
        methods = [e.method for e in loaded.entries.values()]
        methods += [method for method, _ in loaded.entries]
        assert methods == ["GET"] * 6
        assert len({id(m) for m in methods}) == 1

    def test_from_json_copies_the_callers_headers(self):
        obj = entry("http://e.com/", {"Date": "whenever"})
        loaded = Interaction.from_json(obj)
        assert loaded == interaction(method="GET", url="http://e.com/",
                                     headers={"Date": "whenever"})
        assert loaded.response.headers is not obj["response"]["headers"]


# Near-canonical URLs: ports, case, empty hosts, and "?", "#", whitespace
# and other characters in the path.
URL_NEAR_CANONICAL = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(["http://", "https://", "HTTP://", "http:/", "ftp://", ""]),
        st.sampled_from(["e.com", "E.com", "a-b.c", "", "e.com:80", "e.com:", "e.com:x", "é.com"]),
        st.sampled_from(["/", "", "/a", "?a", "#a"]),
        st.lists(
            st.sampled_from(["/b", "?", "#", "\x1c", "\u3000", " ", "\t", "\x00", "é", "%20"]),
            max_size=3,
        ).map("".join),
    ),
)


class TestCanonicalTest:
    @settings(max_examples=300, deadline=None)
    @given(urls=st.lists(st.one_of(URL_NEAR_CANONICAL, URLS), max_size=6))
    @example(urls=[
        "http://e.com/a", "http://e.com/a\x1cb", "http://e.com/a\u3000", "http://e.com/a?b",
        "http://e.com/a#b", "http://e.com:8080/a", "http://e.com:/a", "http://E.com/a",
        "https://e.com/", "http://e.com", "http:///a/b", "http://e.com:x/", "http://e.com /",
    ])
    @example(urls=["http://e.com/a", "http://e.com:x/a", "http://e.com.b/a", "http://e.comé/a"])
    def test_agrees_with_the_pattern(self, urls):
        reader = _EntryReader(())  # one reader for every URL, as in a load
        for url in urls:
            assert reader.canonical(url) == (_CANONICAL_URL.fullmatch(url) is not None)


class _Upstream(http.server.BaseHTTPRequestHandler):
    """Serves server.bodies by path, and server.redirects as 302s to a
    location with a body, over keep-alive connections; notes each
    connection in server.connections.

    As an HTTP proxy it answers an absolute-form GET or HEAD from
    server.cassette with the recorded status, headers and body, or a 404
    for a URL with no recording, and notes the request in server.proxied.
    """

    protocol_version = "HTTP/1.1"
    timeout = 5
    # Headers and body go out in two writes; Nagle's algorithm would hold
    # the body back until the client's delayed ACK of the headers.
    disable_nagle_algorithm = True

    def setup(self):
        super().setup()
        self.server.connections.append(self.client_address)

    def do_HEAD(self):
        self.proxy()

    def proxy(self):
        self.server.proxied.append((self.command, self.path))
        try:
            response = self.server.cassette.lookup(self.command, self.path).response
        except UnmatchedInteraction:
            response = HttpResponse(status=404, headers={}, body="")
        body = response.body.encode()
        self.send_response(response.status)
        for name, value in response.headers.items():
            if name.lower() != "content-length":
                self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def do_GET(self):
        if self.path.startswith("http://"):
            self.proxy()
            return
        if self.path in self.server.redirects:
            location, body = self.server.redirects[self.path]
            self.send_response(302)
            self.send_header("Location", location)
        else:
            body = self.server.bodies.get(self.path)
            self.send_response(404 if body is None else 200)
            body = body or b""
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class _UpstreamServer(http.server.ThreadingHTTPServer):
    block_on_close = False  # a client may keep its connection open

    def handle_error(self, request, client_address):
        pass  # a client that stops reading a body resets its connection


@pytest.fixture
def upstream():
    server = _UpstreamServer(("127.0.0.1", 0), _Upstream)
    server.connections = []
    server.bodies = {}
    server.redirects = {}
    server.cassette = Cassette(recorded_at=0)
    server.proxied = []
    server.base = f"http://127.0.0.1:{server.server_port}"
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


class TestLiveTransport:
    def test_requests_on_one_thread_share_a_connection(self, upstream):
        upstream.bodies.update({"/a": b"one", "/b": b"two", "/c": "thr\u00e9e".encode()})
        transport = LiveTransport(timeout_s=5)
        got = [transport.request("GET", upstream.base + p) for p in ("/a", "/b", "/c")]
        assert [(r.status, r.body) for r in got] == [(200, "one"), (200, "two"), (200, "thr\u00e9e")]
        assert len(upstream.connections) == 1

    def test_each_thread_opens_its_own_connection(self, upstream):
        upstream.bodies["/a"] = b"one"
        transport = LiveTransport(timeout_s=5)
        for _ in range(2):
            thread = threading.Thread(
                target=lambda: [transport.request("GET", upstream.base + "/a") for _ in range(2)]
            )
            thread.start()
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(upstream.connections) == 2

    def test_body_over_the_cap_fails(self, upstream, monkeypatch):
        monkeypatch.setattr(replay, "MAX_BODY_BYTES", 100)
        upstream.bodies.update({
            "/fits": b"x" * 100, "/over": b"x" * 101, "/far-over": b"x" * 300_000,
        })
        transport = LiveTransport(timeout_s=5)
        assert transport.request("GET", upstream.base + "/fits").body == "x" * 100
        for path in ("/over", "/far-over"):
            with pytest.raises(ValueError, match="exceeds 100 bytes"):
                transport.request("GET", upstream.base + path)
            # A body left unread does not spoil the next request.
            assert transport.request("GET", upstream.base + "/fits").body == "x" * 100

    def test_redirect_body_over_the_cap_fails(self, upstream, monkeypatch):
        monkeypatch.setattr(replay, "MAX_BODY_BYTES", 100)
        upstream.bodies["/fits"] = b"x" * 100
        upstream.redirects.update({
            "/moved": ("/fits", b"y" * 100), "/moved-far": ("/fits", b"y" * 300_000),
        })
        transport = LiveTransport(timeout_s=5)
        assert transport.request("GET", upstream.base + "/moved").body == "x" * 100
        with pytest.raises(ValueError, match="exceeds 100 bytes"):
            transport.request("GET", upstream.base + "/moved-far")

    def context(self, upstream):
        return SourceContext(
            transport=LiveTransport(timeout_s=5),
            window=PlausibilityWindow(now=NOW),
            endpoints=Endpoints(
                timemap_base=upstream.base + "/timemap/",
                index_base=upstream.base + "/v1",
            ),
        )

    @pytest.mark.parametrize("cap, status", [(1000, "ok"), (100, "error")])
    def test_oversized_timemap_is_an_archives_error(self, upstream, monkeypatch, cap, status):
        monkeypatch.setattr(replay, "MAX_BODY_BYTES", cap)
        upstream.bodies["/timemap/http://example.com/"] = (
            '<http://example.com/>;rel="original",\n'
            '<http://archive.example.org/web/20100101000000/http://example.com/>;'
            'rel="memento";datetime="Fri, 01 Jan 2010 00:00:00 GMT"'
        ).encode()
        result = query_archives(normalize_uri("http://example.com/"), self.context(upstream))
        assert result.status == status
        if status == "error":
            assert "exceeds 100 bytes" in result.error

    @pytest.mark.parametrize("cap, status, searched", [(1000, "ok", 1), (500, "empty", 0)])
    def test_oversized_capture_never_reaches_the_link_search(
        self, upstream, monkeypatch, cap, status, searched
    ):
        monkeypatch.setattr(replay, "MAX_BODY_BYTES", cap)
        bodies = []
        real = timemaps.contains_link

        def contains_link(body, *args, **kwargs):
            bodies.append(body)
            return real(body, *args, **kwargs)

        monkeypatch.setattr(timemaps, "contains_link", contains_link)
        page = "http://blog.example.net/post"
        capture = f"{upstream.base}/web/20100101000000/{page}"
        upstream.bodies.update({
            "/v1/backlinks?uri=http%3A%2F%2Fexample.com%2F":
                json.dumps({"backlinks": [page]}).encode(),
            f"/timemap/{page}": (
                f'<{page}>;rel="original",\n'
                f'<{capture}>;rel="memento";datetime="Fri, 01 Jan 2010 00:00:00 GMT"'
            ).encode(),
            "/web/20100101000000/" + page:
                b'<a href="http://example.com/">x</a>' + b" " * 600,
        })
        result = query_backlinks(normalize_uri("http://example.com/"), self.context(upstream))
        assert result.status == status
        assert len(bodies) == searched
        assert (FLAG_PARTIAL_FETCH in result.flags) == (searched == 0)


class TestRecordThroughProxy:
    def test_recording_run_replays_to_the_same_reports(
        self, upstream, tmp_path, monkeypatch, capsys
    ):
        world, cassette = generate_world(seed=7, n=30)
        cassette.save(str(tmp_path / "world.jsonl"))
        upstream.cassette = cassette
        for name in ("HTTP_PROXY", "http_proxy"):
            monkeypatch.setenv(name, upstream.base)
        for name in ("NO_PROXY", "no_proxy", "CARBONDATE_CONFIG"):
            monkeypatch.delenv(name, raising=False)
        # Only the proxy's address resolves, so a request that bypassed the
        # proxy fails here instead of leaving the machine.
        real_getaddrinfo = socket.getaddrinfo

        def loopback_only(host, *args, **kwargs):
            if host != "127.0.0.1":
                raise OSError(f"{host} was resolved instead of going through the proxy")
            return real_getaddrinfo(host, *args, **kwargs)

        monkeypatch.setattr(socket, "getaddrinfo", loopback_only)
        uris = tmp_path / "uris.txt"
        uris.write_text("".join(r.uri + "\n" for r in world.resources))
        out = tmp_path / "out.jsonl"

        def batch(*flags):
            argv = ["batch", str(uris), "--now", "2013-03-01T00:00:00", *flags]
            assert cli.main(argv) == 0
            return capsys.readouterr().out.splitlines()

        recorded = batch("--record", str(out))
        assert len(recorded) == len(world.resources) == 30
        assert len(upstream.proxied) == len(Cassette.load(str(out)).entries)
        assert recorded == batch("--replay", str(out))
        assert recorded == batch("--replay", str(tmp_path / "world.jsonl"))
