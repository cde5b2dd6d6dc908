from __future__ import annotations

import dataclasses
import gc
import json
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import carbondate.sources as sources

from carbondate.core import (
    PlausibilityWindow,
    normalize_uri,
    parse_iso_timestamp,
    render_http_date,
    render_iso_timestamp,
)
from carbondate.replay import Cassette, HttpResponse, Interaction, ReplayTransport
from carbondate.sources import (
    ALL_METHODS,
    FLAG_CLIPPED_WINDOW,
    Endpoints,
    SourceContext,
    gather_evidence,
    probe_last_modified,
    query_archives,
    query_backlinks,
    query_search_index,
    query_shortener,
    query_social,
)
from carbondate.synth import generate_world

NOW = parse_iso_timestamp("2013-03-01T04:44:47")
URI = normalize_uri("http://site.example.com/")
EP = Endpoints()


def make_ctx(interactions):
    cassette = Cassette(recorded_at=NOW)
    for method, url, response in interactions:
        cassette.add(Interaction(method=method, url=url, response=response))
    return SourceContext(
        transport=ReplayTransport(cassette),
        window=PlausibilityWindow(now=NOW),
        parallelism=1,
    )


def jresp(obj, status=200):
    return HttpResponse(status=status, headers={}, body=json.dumps(obj))


def head_resp(last_modified=None):
    headers = {"Content-Type": "text/html"}
    if last_modified is not None:
        headers["Last-Modified"] = last_modified
    return HttpResponse(status=200, headers=headers, body="")


class TestLastModified:
    def test_parses_header(self):
        ctx = make_ctx([("HEAD", str(URI), head_resp("Wed, 27 Feb 2013 17:27:20 GMT"))])
        r = probe_last_modified(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == parse_iso_timestamp("2013-02-27T17:27:20")

    def test_no_header_is_empty(self):
        ctx = make_ctx([("HEAD", str(URI), head_resp())])
        assert probe_last_modified(URI, ctx).status == "empty"

    def test_future_value_implausible(self):
        future = render_http_date(NOW + 10 * 365 * 86400)
        ctx = make_ctx([("HEAD", str(URI), head_resp(future))])
        r = probe_last_modified(URI, ctx)
        assert r.status == "empty"
        assert r.estimate is None

    def test_transport_failure_is_error(self):
        ctx = make_ctx([])
        assert probe_last_modified(URI, ctx).status == "error"

    def test_unparsable_header_is_empty(self):
        ctx = make_ctx([("HEAD", str(URI), head_resp("last tuesday"))])
        r = probe_last_modified(URI, ctx)
        assert r.status == "empty"
        assert r.detail == {"unparsable": "last tuesday"}


class TestArchives:
    def timemap_body(self, entries):
        lines = [f'<{URI}>;rel="original"']
        for capture_uri, t in entries:
            lines.append(
                f'<{capture_uri}>;rel="memento";datetime="{render_http_date(t)}"'
            )
        return ",\n".join(lines)

    def test_per_archive_detail(self):
        t1 = parse_iso_timestamp("2009-09-30T11:58:25")
        t2 = parse_iso_timestamp("2010-04-02T00:00:00")
        body = self.timemap_body(
            [
                ("http://wayback.archive-it.org/all/1/x", t1),
                ("http://api.wayback.archive.org/m/1/x", t1),
                ("http://webarchive.nationalarchives.gov.uk/1/x", t2),
            ]
        )
        ctx = make_ctx([
            ("GET", EP.timemap_url(str(URI)), HttpResponse(200, {}, body)),
        ])
        r = query_archives(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == t1
        assert r.detail["by_archive"] == {
            "wayback.archive-it.org": t1,
            "api.wayback.archive.org": t1,
            "webarchive.nationalarchives.gov.uk": t2,
        }

    def test_empty_timemap(self):
        body = f'<{URI}>;rel="original"'
        ctx = make_ctx([("GET", EP.timemap_url(str(URI)), HttpResponse(200, {}, body))])
        assert query_archives(URI, ctx).status == "empty"

    def test_implausible_archive_filtered(self):
        # Brute-force min after filtering: 1994 capture must not win.
        t_old = parse_iso_timestamp("1994-06-01T00:00:00")
        t_ok = parse_iso_timestamp("2001-05-01T00:00:00")
        body = self.timemap_body(
            [("http://a.org/1", t_old), ("http://b.org/1", t_ok)]
        )
        ctx = make_ctx([("GET", EP.timemap_url(str(URI)), HttpResponse(200, {}, body))])
        r = query_archives(URI, ctx)
        assert r.estimate == t_ok
        assert "a.org" not in r.detail["by_archive"]


class TestShortener:
    def test_two_step_lookup(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({"id": "abc"})),
            ("GET", EP.shortener_info_url("abc"),
             jresp({"created_at": "2011-03-24T10:44:12"})),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == parse_iso_timestamp("2011-03-24T10:44:12")

    def test_never_shortened(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({"id": None})),
        ])
        assert query_shortener(URI, ctx).status == "empty"

    def test_truncated_cassette_step2_error(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({"id": "abc"})),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "error"
        assert "info query failed" in r.error

    def test_lookup_404_is_empty(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({}, status=404)),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "empty"
        assert r.error is None

    def test_lookup_500_is_error(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({}, status=500)),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "error"
        assert r.error.startswith("lookup failed: HTTP 500")

    def test_unparsable_created_at_is_empty(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({"id": "abc"})),
            ("GET", EP.shortener_info_url("abc"), jresp({"created_at": "soon"})),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "empty"
        assert r.detail == {"unparsable": "soon"}


class TestSocial:
    def posts(self, isos):
        return [{"id": f"p{i}", "posted_at": s} for i, s in enumerate(isos)]

    def test_min_over_posts(self):
        isos = ["2010-05-01T00:00:00", "2009-11-09T20:53:20", "2011-01-01T12:00:00"]
        ctx = make_ctx([
            ("GET", EP.social_search_url(str(URI)),
             jresp({"total": 3, "posts": self.posts(isos)})),
        ])
        r = query_social(URI, ctx)
        # Linear-scan oracle over every returned post.
        oracle = min(parse_iso_timestamp(s) for s in isos)
        assert r.estimate == oracle
        assert r.detail["total_posts"] == 3
        assert not r.flags

    def test_singleton(self):
        ctx = make_ctx([
            ("GET", EP.social_search_url(str(URI)),
             jresp({"posts": self.posts(["2012-02-12T06:33:00"])})),
        ])
        assert query_social(URI, ctx).estimate == parse_iso_timestamp(
            "2012-02-12T06:33:00"
        )

    def test_full_window_sets_clipped_flag(self):
        isos = ["2012-02-12T06:33:00"] + [
            render_iso_timestamp(parse_iso_timestamp("2012-02-12T06:33:00") + i * 3600)
            for i in range(1, 500)
        ]
        ctx = make_ctx([
            ("GET", EP.social_search_url(str(URI)),
             jresp({"total": 9000, "posts": self.posts(isos)})),
        ])
        r = query_social(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == parse_iso_timestamp("2012-02-12T06:33:00")
        assert FLAG_CLIPPED_WINDOW in r.flags

    def test_no_posts(self):
        ctx = make_ctx([
            ("GET", EP.social_search_url(str(URI)), jresp({"total": 0, "posts": []})),
        ])
        assert query_social(URI, ctx).status == "empty"


class TestSearchIndex:
    def test_day_granularity(self):
        ctx = make_ctx([
            ("GET", EP.crawl_url(str(URI)), jresp({"crawl_date": "2009-11-16"})),
        ])
        r = query_search_index(URI, ctx)
        assert r.status == "ok"
        assert r.granularity == "day"
        assert r.estimate == parse_iso_timestamp("2009-11-16T00:00:00")

    def test_unindexed(self):
        ctx = make_ctx([("GET", EP.crawl_url(str(URI)), jresp({}))])
        assert query_search_index(URI, ctx).status == "empty"

    def test_future_day_implausible(self):
        ctx = make_ctx([
            ("GET", EP.crawl_url(str(URI)), jresp({"crawl_date": "2021-01-01"})),
        ])
        assert query_search_index(URI, ctx).status == "empty"

    def test_unparsable_day_is_empty(self):
        ctx = make_ctx([
            ("GET", EP.crawl_url(str(URI)), jresp({"crawl_date": "16/11/2009"})),
        ])
        r = query_search_index(URI, ctx)
        assert r.status == "empty"
        assert r.detail == {"unparsable": "16/11/2009"}


class TestBacklinks:
    def backlink_world(self, first_appearances):
        """One backlink per entry; first linking capture at the given time."""
        interactions = [
            ("GET", EP.backlinks_url(str(URI)),
             jresp({"backlinks": [f"http://bl{i}.example.net/" for i in
                                  range(len(first_appearances))]})),
        ]
        for i, t in enumerate(first_appearances):
            backlink = f"http://bl{i}.example.net/"
            captures = [(t - 90 * 86400, False), (t, True), (t + 30 * 86400, True)]
            lines = [f'<{backlink}>;rel="original"']
            for ct, _ in captures:
                lines.append(
                    f'<http://arch.example.org/web/x{i}n{ct}/{backlink}>'
                    f';rel="memento";datetime="{render_http_date(ct)}"'
                )
            interactions.append(
                ("GET", EP.timemap_url(backlink), HttpResponse(200, {}, ",\n".join(lines)))
            )
            for ct, linked in captures:
                body = (
                    f'<a href="{URI}">t</a>' if linked else "<html>none</html>"
                )
                interactions.append(
                    ("GET", f"http://arch.example.org/web/x{i}n{ct}/{backlink}",
                     HttpResponse(200, {}, body))
                )
        return make_ctx(interactions)

    def test_min_over_backlinks(self):
        times = [
            parse_iso_timestamp("2010-05-01T00:00:00"),
            parse_iso_timestamp("2009-03-02T00:00:00"),
            parse_iso_timestamp("2012-01-01T00:00:00"),
        ]
        ctx = self.backlink_world(times)
        r = query_backlinks(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == min(times)

    def test_zero_backlinks(self):
        ctx = make_ctx([("GET", EP.backlinks_url(str(URI)), jresp({"backlinks": []}))])
        assert query_backlinks(URI, ctx).status == "empty"

    def test_listing_failure_is_error(self):
        ctx = make_ctx([])
        assert query_backlinks(URI, ctx).status == "error"

    def test_backlink_that_is_not_a_string_skipped(self):
        ctx = make_ctx([("GET", EP.backlinks_url(str(URI)), jresp({"backlinks": [7]}))])
        r = query_backlinks(URI, ctx)
        assert r.status == "empty"
        assert r.error is None


class TestMalformedDocuments:
    @pytest.mark.parametrize("probe, url, body", [
        (query_social, EP.social_search_url(str(URI)), []),
        (query_social, EP.social_search_url(str(URI)), {"posts": {"id": "p0"}}),
        (query_shortener, EP.shortener_lookup_url(str(URI)), [1]),
        (query_shortener, EP.shortener_lookup_url(str(URI)), {"id": 5}),
        (query_search_index, EP.crawl_url(str(URI)), {"crawl_date": 5}),
        (query_search_index, EP.crawl_url(str(URI)), "2009-11-16"),
        (query_backlinks, EP.backlinks_url(str(URI)), {"backlinks": "http://bl.example.net/"}),
    ])
    def test_wrong_json_type_is_error(self, probe, url, body):
        r = probe(URI, make_ctx([("GET", url, jresp(body))]))
        assert r.status == "error"
        assert "malformed document" in r.error

    def test_created_at_that_is_not_a_string_is_error(self):
        ctx = make_ctx([
            ("GET", EP.shortener_lookup_url(str(URI)), jresp({"id": "abc"})),
            ("GET", EP.shortener_info_url("abc"), jresp({"created_at": [2011]})),
        ])
        r = query_shortener(URI, ctx)
        assert r.status == "error"
        assert r.error == "malformed document: date is a list"
        assert r.detail == {"id": "abc"}

    def test_bad_posts_skipped(self):
        posts = [5, ["x"], {"posted_at": 5}, {"posted_at": "2010-05-01T00:00:00"}]
        ctx = make_ctx([("GET", EP.social_search_url(str(URI)), jresp({"posts": posts}))])
        r = query_social(URI, ctx)
        assert r.status == "ok"
        assert r.estimate == parse_iso_timestamp("2010-05-01T00:00:00")


class TestGatherEvidence:
    def test_one_entry_per_enabled_method(self):
        ctx = make_ctx([("HEAD", str(URI), head_resp())])
        results = gather_evidence(URI, ctx, enabled=frozenset({"last_modified"}))
        assert [r.method for r in results] == ["last_modified"]
        assert results[0].status == "empty"

    def test_failures_isolated(self):
        # Only last_modified is recorded; the other five hit unmatched
        # interactions and must come back as per-method errors.
        ctx = make_ctx([("HEAD", str(URI), head_resp("Wed, 27 Feb 2013 17:27:20 GMT"))])
        results = gather_evidence(URI, ctx)
        by_method = {r.method: r for r in results}
        assert set(by_method) == set(ALL_METHODS)
        assert by_method["last_modified"].status == "ok"
        for m in ALL_METHODS - {"last_modified"}:
            assert by_method[m].status == "error"

    def test_deterministic_order(self):
        ctx = make_ctx([])
        for parallelism in (1, 4):
            ctx.parallelism = parallelism
            results = gather_evidence(URI, ctx)
            assert [r.method for r in results] == sorted(ALL_METHODS)

    def test_empty_enabled_set_rejected(self):
        ctx = make_ctx([])
        with pytest.raises(ValueError):
            gather_evidence(URI, ctx, enabled=frozenset())


class CountingTransport:
    """A wrapper that declares nothing about blocking, as live and recording
    transports do; notes which threads made requests."""

    def __init__(self, inner):
        self.inner = inner
        self.threads = set()

    def request(self, method, url):
        self.threads.add(threading.get_ident())
        return self.inner.request(method, url)


class InFlightTransport:
    """Declares nothing about blocking; holds each request briefly and
    notes the most requests it ever had in flight at once."""

    def __init__(self, inner):
        self.inner = inner
        self.lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def request(self, method, url):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(0.0005)
            return self.inner.request(method, url)
        finally:
            with self.lock:
                self.in_flight -= 1


class TestConcurrencyPaths:
    @pytest.fixture(scope="class")
    def world(self):
        return generate_world(seed=7, n=60)

    @staticmethod
    def ctx_for(transport, cassette, parallelism=6):
        return SourceContext(
            transport=transport,
            window=PlausibilityWindow(now=cassette.recorded_at),
            parallelism=parallelism,
        )

    @staticmethod
    def uris(world, n=None):
        return [normalize_uri(r.uri) for r in world[0].resources[:n]]

    def test_replay_starts_no_thread(self, world, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("replay must run on the caller's thread")

        monkeypatch.setattr(sources, "ThreadPoolExecutor", no_pool)
        resources, cassette = world[0].resources, world[1]
        ctx = self.ctx_for(ReplayTransport(cassette), cassette)
        for r in resources[:10]:
            results = gather_evidence(normalize_uri(r.uri), ctx)
            assert [e.method for e in results] == sorted(ALL_METHODS)
            assert not any((e.error or "").startswith("internal") for e in results)

    def test_blocking_transport_fans_out_to_identical_evidence(self, world):
        resources, cassette = world[0].resources, world[1]
        inline = self.ctx_for(ReplayTransport(cassette), cassette)
        wrapped = CountingTransport(ReplayTransport(cassette))
        pooled = self.ctx_for(wrapped, cassette)
        for r in resources:
            uri = normalize_uri(r.uri)
            assert gather_evidence(uri, pooled) == gather_evidence(uri, inline)
        assert wrapped.threads - {threading.get_ident()}, "no request left the caller's thread"

    def test_one_executor_for_every_uri(self, world, monkeypatch):
        made = []

        class CountingExecutor(sources.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(sources, "ThreadPoolExecutor", CountingExecutor)
        cassette = world[1]
        ctx = self.ctx_for(CountingTransport(ReplayTransport(cassette)), cassette)
        for uri in self.uris(world, 50):
            gather_evidence(uri, ctx)
        assert len(made) == 1

    @pytest.mark.parametrize("parallelism", [2, 3, 6])
    def test_parallelism_caps_requests_in_flight(self, world, parallelism):
        # One caller, one URI at a time: every request in flight is that URI's.
        cassette = world[1]
        inline = self.ctx_for(ReplayTransport(cassette), cassette)
        transport = InFlightTransport(ReplayTransport(cassette))
        pooled = self.ctx_for(transport, cassette, parallelism)
        for uri in self.uris(world, 20):
            assert gather_evidence(uri, pooled) == gather_evidence(uri, inline)
        assert 1 < transport.peak <= parallelism

    def test_callers_sharing_a_context_get_serial_evidence(self, world):
        cassette = world[1]
        serial = self.ctx_for(ReplayTransport(cassette), cassette)
        uris = self.uris(world)
        expected = [gather_evidence(uri, serial) for uri in uris]
        shared = self.ctx_for(CountingTransport(ReplayTransport(cassette)), cassette)
        got = [None] * 4

        def caller(k):
            got[k] = [gather_evidence(uri, shared) for uri in uris]

        callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == [expected] * 4

    def test_workers_exit_when_context_is_collected(self, world):
        cassette = world[1]
        before = set(threading.enumerate())
        ctx = self.ctx_for(CountingTransport(ReplayTransport(cassette)), cassette)
        for uri in self.uris(world, 5):
            gather_evidence(uri, ctx)
        workers = [t for t in threading.enumerate() if t not in before]
        assert workers
        del ctx
        gc.collect()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)

    def test_copy_gets_its_own_executor(self, world):
        cassette = world[1]
        ctx = self.ctx_for(CountingTransport(ReplayTransport(cassette)), cassette)
        copy = dataclasses.replace(ctx)
        assert copy.pool() is not ctx.pool()
        assert copy == ctx


# Upstream answers for the robustness property: well-formed, wrongly typed
# and garbage documents, and any status.
DATES = ["2009-11-16", "2010-05-01T00:00:00", "2030-01-01T00:00:00Z", "1990-01-01",
         "Wed, 27 Feb 2013 17:27:20 GMT", "Mon, 01 Jan 1990 00:00:00 GMT"]
LINKS = [str(URI), "http://bl.example.net/", "//[x", "not a uri"]
FIELDS = ["id", "created_at", "posts", "posted_at", "total", "crawl_date", "backlinks"]
JSON_VALUES = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
        st.text(max_size=8), st.sampled_from(DATES + LINKS),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(FIELDS), inner, max_size=3)
    ),
    max_leaves=8,
)
TIMEMAP = ",\n".join([
    f'<{URI}>;rel="original"',
    '<http://arch.example.org/1/x>;rel="memento";datetime="Wed, 30 Sep 2009 11:58:25 GMT"',
    '<http://arch.example.org/2/x>;rel="memento";datetime="Fri, 02 Apr 2010 00:00:00 GMT"',
])
PAGE = f'<a href="//[x">x</a><a href="{URI}">t</a>'
RESPONSES = st.one_of(
    st.none(),  # the transport raises
    st.builds(
        HttpResponse,
        status=st.one_of(st.sampled_from([200, 200, 200, 404, 500]), st.integers(100, 599)),
        headers=st.dictionaries(
            st.sampled_from(["Last-Modified", "X-A"]),
            st.one_of(st.text(max_size=30), st.sampled_from(DATES)),
        ),
        body=st.one_of(
            st.text(max_size=30), JSON_VALUES.map(json.dumps), st.sampled_from([TIMEMAP, PAGE])
        ),
    ),
)
# URL prefixes in the order they are tried; "" takes every capture page.
ROUTES = (
    EP.timemap_base, EP.shortener_lookup_url(""), EP.shortener_info_url(""),
    EP.social_base, EP.index_base + "/crawl", EP.index_base + "/backlinks", "",
)


class ScriptedTransport:
    """Answers from memory with the response scripted for the request's route."""

    blocking = False

    def __init__(self):
        self.answers = {}

    def request(self, method, url):
        route = "HEAD" if method == "HEAD" else next(r for r in ROUTES if url.startswith(r))
        response = self.answers[route]
        if response is None:
            raise ConnectionError(f"scripted failure for {url}")
        return response


class TestArbitraryUpstream:
    @pytest.fixture(scope="class")
    def contexts(self):
        inline = SourceContext(
            transport=ScriptedTransport(), window=PlausibilityWindow(now=NOW), parallelism=6
        )
        pooled = SourceContext(
            transport=CountingTransport(inline.transport), window=inline.window, parallelism=6
        )
        return inline, pooled

    @settings(max_examples=300, deadline=None)
    @given(answers=st.fixed_dictionaries({r: RESPONSES for r in ("HEAD",) + ROUTES}))
    def test_probes_never_raise_and_stay_in_the_window(self, contexts, answers):
        inline, pooled = contexts
        inline.transport.answers = answers
        evidence = gather_evidence(URI, inline)
        assert gather_evidence(URI, pooled) == evidence
        for e in evidence:
            assert not (e.error or "").startswith("internal:"), e.error
            if e.status == "ok":
                assert inline.window.contains(e.estimate)
