from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbondate.core import (
    normalize_uri,
    parse_iso_timestamp,
    render_http_date,
)
from carbondate.timemaps import (
    _TOP_LEVEL_ENTRIES,
    _TOP_LEVEL_PARAMS,
    FetchFailed,
    MalformedTimemap,
    Memento,
    Timemap,
    contains_link,
    earliest_memento,
    first_linking_memento,
    parse_timemap,
    strip_archive_rewrite,
)

ORIGINAL = normalize_uri("http://example.com/")


def entry(uri, iso, rel="memento", last_modified=None):
    attrs = f'rel="{rel}";datetime="{render_http_date(parse_iso_timestamp(iso))}"'
    if last_modified:
        attrs += f';last-modified="{render_http_date(parse_iso_timestamp(last_modified))}"'
    return f"<{uri}>;{attrs}"


def make_timemap(times, host="web.archive.org"):
    mementos = tuple(
        Memento(
            archive_host=host,
            capture_uri=f"http://{host}/web/{i}/http://example.com/",
            memento_datetime=t,
        )
        for i, t in enumerate(times)
    )
    return Timemap(original=ORIGINAL, mementos=mementos)


def split_top_level_loop(text, sep):
    """Reference splitter: split on sep outside double quotes and, for
    entries (","), outside <...>."""
    out, buf, closer = [], [], None
    for ch in text:
        if closer is not None:
            if ch == closer:
                closer = None
        elif ch == '"':
            closer = '"'
        elif ch == "<" and sep == ",":
            closer = ">"
        elif ch == sep:
            out.append("".join(buf))
            buf = []
            continue
        buf.append(ch)
    out.append("".join(buf))
    return out


class TestTopLevelSplit:
    @settings(max_examples=500, deadline=None)
    @given(
        text=st.one_of(
            st.text(alphabet=',;"<>= ax\n', max_size=40), st.text(max_size=40)
        ),
        sep=st.sampled_from([",", ";"]),
    )
    @example(text='a,"b,c', sep=",")
    @example(text='<u>;rel="x;y";datetime="d"', sep=";")
    @example(text='<a,b>;x=",<",<c', sep=",")
    @example(text='<a;b>;x=1', sep=";")
    def test_regex_equals_character_loop(self, text, sep):
        splitter = {",": _TOP_LEVEL_ENTRIES, ";": _TOP_LEVEL_PARAMS}[sep]
        expected = [piece for piece in split_top_level_loop(text, sep) if piece]
        assert splitter.findall(text) == expected

    def test_quoted_separators_kept(self):
        body = '<http://a.example/>;rel="memento";datetime="%s";title="a, b; c"' % (
            render_http_date(parse_iso_timestamp("2010-01-01T00:00:00"))
        )
        body += ",\n" + entry("http://b.example/", "2011-01-01T00:00:00")
        tm = parse_timemap(body, ORIGINAL)
        assert [m.capture_uri for m in tm.mementos] == [
            "http://a.example/",
            "http://b.example/",
        ]


    def test_comma_in_capture_uri_kept(self):
        body = ",\n".join([
            '<http://example.com/>;rel="original"',
            entry("http://a.example/x,y", "2010-01-01T00:00:00"),
            entry("http://b.example/", "2011-01-01T00:00:00"),
        ])
        tm = parse_timemap(body, ORIGINAL)
        assert [m.capture_uri for m in tm.mementos] == [
            "http://a.example/x,y",
            "http://b.example/",
        ]


class TestParseTimemap:
    def test_sorted_output(self):
        body = ",\n".join(
            [
                '<http://example.com/>;rel="original"',
                entry("http://a.org/web/2/x", "2011-01-01T00:00:00"),
                entry("http://a.org/web/0/x", "2009-01-01T00:00:00"),
                entry("http://a.org/web/1/x", "2010-01-01T00:00:00"),
            ]
        )
        tm = parse_timemap(body, ORIGINAL)
        times = [m.memento_datetime for m in tm.mementos]
        assert times == sorted(times)
        assert len(tm.mementos) == 3

    def test_non_memento_rels_ignored(self):
        body = ",\n".join(
            [
                '<http://example.com/>;rel="original"',
                '<http://gate.org/tg/http://example.com/>;rel="timegate"',
            ]
        )
        tm = parse_timemap(body, ORIGINAL)
        assert tm.mementos == ()

    def test_equal_datetimes_two_archives(self):
        iso = "2009-09-30T11:58:25"
        body = ",\n".join(
            [
                entry("http://wayback.archive-it.org/all/20090930115825/x", iso),
                entry("http://api.wayback.archive.org/memento/20090930115825/x", iso),
            ]
        )
        tm = parse_timemap(body, ORIGINAL)
        assert len(tm.mementos) == 2
        assert tm.mementos[0].memento_datetime == tm.mementos[1].memento_datetime
        hosts = {m.archive_host for m in tm.mementos}
        assert hosts == {"wayback.archive-it.org", "api.wayback.archive.org"}

    def test_first_last_memento_rels_count(self):
        body = ",\n".join(
            [
                entry("http://a.org/1", "2009-01-01T00:00:00", rel="first memento"),
                entry("http://a.org/2", "2010-01-01T00:00:00", rel="last memento"),
            ]
        )
        assert len(parse_timemap(body, ORIGINAL).mementos) == 2

    def test_garbage_raises(self):
        with pytest.raises(MalformedTimemap):
            parse_timemap("complete garbage with no links", ORIGINAL)

    def test_last_modified_attribute_kept(self):
        body = entry(
            "http://a.org/1", "2010-04-02T00:00:00",
            last_modified="2009-01-05T00:00:00",
        )
        m = parse_timemap(body, ORIGINAL).mementos[0]
        assert m.original_last_modified == parse_iso_timestamp("2009-01-05T00:00:00")


class TestEarliestMemento:
    def test_minimum(self, window):
        tm = make_timemap(
            [parse_iso_timestamp(f"{y}-06-01T00:00:00") for y in (2009, 2010, 2011)]
        )
        found = earliest_memento(tm, window)
        assert found is tm.mementos[0]

    def test_clock_error_filtered(self, window):
        tm = make_timemap([parse_iso_timestamp("1901-01-01T00:00:00")])
        assert earliest_memento(tm, window) is None

    def test_candidate_uses_original_last_modified(self, window):
        # Brute-force oracle: min over both fields of every memento.
        m = Memento(
            archive_host="a.org",
            capture_uri="http://a.org/1",
            memento_datetime=parse_iso_timestamp("2010-04-02T00:00:00"),
            original_last_modified=parse_iso_timestamp("2009-01-05T00:00:00"),
        )
        tm = Timemap(original=ORIGINAL, mementos=(m,))
        best = earliest_memento(tm, window)
        oracle = min(
            v
            for mem in tm.mementos
            for v in (mem.memento_datetime, mem.original_last_modified)
            if v is not None
        )
        assert best.candidate() == oracle == parse_iso_timestamp("2009-01-05T00:00:00")

    def test_tie_breaks_on_host(self, window):
        t = parse_iso_timestamp("2009-09-30T11:58:25")
        tm = Timemap(
            original=ORIGINAL,
            mementos=(
                Memento("wayback.archive-it.org", "http://x/1", t),
                Memento("api.wayback.archive.org", "http://x/2", t),
            ),
        )
        assert earliest_memento(tm, window).archive_host == "api.wayback.archive.org"

    def test_bound_over_all_survivors(self, window):
        tm = make_timemap(
            [parse_iso_timestamp(f"20{y:02d}-01-01T00:00:00") for y in range(1, 13)]
        )
        best = earliest_memento(tm, window)
        for m in tm.mementos:
            assert best.candidate() <= m.candidate()


class TestContainsLink:
    target = normalize_uri("http://www.mementoweb.org")

    def test_exact_match(self):
        body = '<html><a href="http://www.mementoweb.org">m</a></html>'
        assert contains_link(body, self.target)

    def test_no_anchors(self):
        assert not contains_link("<html><p>nothing here</p></html>", self.target)

    def test_wayback_rewritten_href(self):
        body = '<a href="/web/20100402000000/http://www.mementoweb.org/">m</a>'
        assert contains_link(body, self.target)

    def test_rewrite_round_trip(self):
        rewritten = "http://web.archive.org/web/20100402000000/http://www.mementoweb.org/"
        assert strip_archive_rewrite(rewritten) == "http://www.mementoweb.org/"
        body = f'<a href="{rewritten}">m</a>'
        assert contains_link(body, self.target)

    def test_relative_href_resolved_against_base(self):
        body = '<a href="/about">about</a>'
        assert contains_link(
            body, normalize_uri("http://example.com/about"),
            base_uri="http://example.com/",
        )

    def test_unrelated_link(self):
        assert not contains_link('<a href="http://other.org/">x</a>', self.target)

    def test_broken_html_skipped(self):
        assert not contains_link("<a href=<<<>>>", self.target)

    def test_href_urljoin_cannot_split_skipped(self):
        body = '<a href="//[x">bad</a><a href="/">root</a>'
        assert contains_link(
            body, normalize_uri("http://example.com/"), base_uri="http://example.com/"
        )


class TestFirstLinkingMemento:
    target = normalize_uri("http://target.example.com/")

    def run_search(self, n, first_link, fail_at=frozenset()):
        times = [1_300_000_000 + i * 1000 for i in range(n)]
        tm = make_timemap(times)
        fetches = []

        def fetch(capture_uri):
            idx = int(capture_uri.split("/web/")[1].split("/")[0])
            fetches.append(idx)
            if idx in fail_at:
                raise FetchFailed("boom")
            if first_link is not None and idx >= first_link:
                return '<a href="http://target.example.com/">t</a>'
            return "<html>no link</html>"

        result = first_linking_memento(tm, self.target, fetch)
        return result, tm, fetches

    def linear_oracle(self, n, first_link):
        # Exhaustive scan over every capture.
        for i in range(n):
            if first_link is not None and i >= first_link:
                return i
        return None

    def test_all_link(self):
        result, tm, _ = self.run_search(10, first_link=0)
        assert result.found_at == tm.mementos[0].memento_datetime

    def test_none_link(self):
        result, _, _ = self.run_search(10, first_link=None)
        assert result.found_at is None

    def test_empty_timemap(self):
        tm = Timemap(original=ORIGINAL, mementos=())
        result = first_linking_memento(tm, self.target, lambda u: "")
        assert result.found_at is None and result.fetches == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
    def test_exhaustive_boundaries(self, n):
        for k in list(range(n)) + [None]:
            result, tm, _ = self.run_search(n, first_link=k)
            oracle = self.linear_oracle(n, k)
            expected = (
                tm.mementos[oracle].memento_datetime if oracle is not None else None
            )
            assert result.found_at == expected
            assert result.fetches <= math.ceil(math.log2(n)) + 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=65, max_value=512), st.data())
    def test_randomized_matches_oracle(self, n, data):
        k = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        result, tm, _ = self.run_search(n, first_link=k)
        oracle = self.linear_oracle(n, k)
        expected = tm.mementos[oracle].memento_datetime if oracle is not None else None
        assert result.found_at == expected
        assert result.fetches <= math.ceil(math.log2(n)) + 1

    def test_failed_fetch_degrades_not_raises(self):
        result, _, _ = self.run_search(16, first_link=4, fail_at={5})
        assert result.degraded or result.found_at is not None
        # Search still terminated and returned an answer or absence.
        assert result.fetches <= math.ceil(math.log2(16)) + 1

    def test_large_timemap_fetch_budget(self):
        n = 23_000
        rng = random.Random(42)
        k = rng.randrange(n)
        result, tm, _ = self.run_search(n, first_link=k)
        assert result.found_at == tm.mementos[k].memento_datetime
        assert result.fetches <= 15
