from __future__ import annotations

import math
import random
import time
from urllib.parse import urljoin, urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carbondate.core import (
    UnparsableDate,
    normalize_uri,
    parse_http_date,
    parse_iso_timestamp,
    render_http_date,
)
from carbondate.timemaps import (
    _TOP_LEVEL_ENTRIES,
    _TOP_LEVEL_PARAMS,
    _MEMENTO_ENTRY,
    _AnchorCollector,
    _hrefs,
    _parse_entry,
    FetchFailed,
    MalformedTimemap,
    Memento,
    Timemap,
    contains_link,
    first_linking_memento,
    parse_timemap,
    strip_archive_rewrite,
)

from conftest import outcome

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


def parse_timemap_reference(body, original):
    """parse_timemap with every entry through _parse_entry and urlsplit."""
    parsed_any = False
    mementos = []
    for entry in _TOP_LEVEL_ENTRIES.findall(body):
        if not entry.strip():
            continue
        parsed = _parse_entry(entry)
        if parsed is None:
            continue
        parsed_any = True
        target, params = parsed
        if "memento" not in params.get("rel", "").split() or "datetime" not in params:
            continue
        try:
            dt = parse_http_date(params["datetime"])
        except UnparsableDate:
            continue
        last_mod = None
        if "last-modified" in params:
            try:
                last_mod = parse_http_date(params["last-modified"])
            except UnparsableDate:
                last_mod = None
        host = urlsplit(target).hostname or ""
        mementos.append(Memento(host.lower(), target, dt, last_mod))
    if not parsed_any:
        raise MalformedTimemap("no link entries parsed")
    mementos.sort(key=lambda m: (m.memento_datetime, m.archive_host))
    return Timemap(original=original, mementos=tuple(mementos))


def contains_link_reference(body, target, base_uri=None):
    """contains_link with every body through HTMLParser."""
    collector = _AnchorCollector()
    try:
        collector.feed(body)
    except Exception:
        return False
    for href in collector.hrefs:
        candidate = strip_archive_rewrite(href.strip())
        try:
            if "://" not in candidate:
                if base_uri is None:
                    continue
                candidate = strip_archive_rewrite(urljoin(base_uri, candidate))
            if normalize_uri(candidate) == target:
                return True
        except ValueError:
            continue
    return False


# Markup on both sides of the plain-HTML grammar.
HTML_BODIES = st.lists(st.one_of(
    st.sampled_from([
        '<a href="http://www.mementoweb.org/">', "<A HREF='/'>", "<a hReF=/>",
        "<a\nhref = http://www.mementoweb.org>", "</a>", "<p>", "<a name=x>",
        "href", "<a h ref=/>", "<a data-href=/>", "&#104;ref", "<!-- <a href=/> -->",
        '<a href="/">', '<A HREF="http://www.mementoweb.org/">', '<a href="/" href="/x">',
        '<a href="/"/>', '<a href="/" />', '<a title="t" href="/">', '<a href="">', "</a >",
        "</A\n>", '<a\vhref="/">', '<a href="/"\v>', "<P>", "</p>", "<br/>", '<h1 id="x:y">',
        "<script>", "</script>", "<Style>", "<title>", "<textarea>", "<xmp>", "<iframe>",
        "<noembed>", "<noframes>", "<noscript>", "<plaintext>", "<scripts>", "&", "&amp;",
        '<a href="a&amp;b">', '<a href="a>b">', "<", ">", '"', " ", "\t", "\r\n", "\f", "\v",
    ]),
    st.text(max_size=10),
), max_size=6).map("".join)

DATES = [
    "Fri, 10 Feb 2006 20:02:36 GMT",
    "Sun Nov  6 08:49:37 1994",
    "Fri, 30 Feb 2006 20:02:36 GMT",
    "soon",
]
EXTRA_PARAMS = [
    ("title", '"a, b"'), ("rel", '"original"'), ("datetime", f'"{DATES[1]}"'), ("type", "x"),
]


@st.composite
def timemap_entry(draw):
    """An entry in the exact memento shape, or one piece away from it."""
    miss = draw(st.one_of(st.none(), st.sampled_from([
        "scheme", "userinfo", "host", "port", "space inside", "extra param",
        "reordered", "spaced separator", "last-modified", "key",
    ])))
    schemes = ["HTTP", "Https", "ftp"] if miss == "scheme" else ["http", "https"]
    host_chars = "ab9.-" + ("_A" if miss == "host" else "")
    target = "".join([
        draw(st.sampled_from(schemes)),
        "://",
        "user@" if miss == "userinfo" else "",
        draw(st.text(alphabet=host_chars, min_size=1, max_size=8)),
        draw(st.sampled_from([":8080", ":80", ":"])) if miss == "port" else "",
        draw(st.sampled_from(["", "/", "?", "#"])),
        draw(st.text(alphabet='/?#a%,;"[]é', max_size=8)),
    ])
    if miss == "space inside":
        target = draw(st.sampled_from([" " + target, target + " ", target.replace("/", " /", 1)]))
    key = draw(st.sampled_from(["REL", "Rel", "rev", "title"])) if miss == "key" else "rel"
    rel = draw(st.sampled_from(["memento", "first memento", "original", "memento;x", "", "x,memento"]))
    params = [(key, f'"{rel}"'), ("datetime", '"%s"' % draw(st.sampled_from(DATES)))]
    if miss == "extra param":
        params.append(draw(st.sampled_from(EXTRA_PARAMS)))
    if miss == "last-modified":
        params.append(("last-modified", '"%s"' % draw(st.sampled_from(DATES))))
    if miss == "reordered":
        params.reverse()
    sep = draw(st.sampled_from([" ;", "; ", ";\n"])) if miss == "spaced separator" else ";"
    space = draw(st.sampled_from(["", " ", "\n "]))
    return f"{space}<{target}>" + "".join(f"{sep}{k}={v}" for k, v in params) + space


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
    @settings(max_examples=500, deadline=None)
    @given(st.lists(timemap_entry(), max_size=4).map(",".join))
    @example('<http://a.example:8080/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('<http://u@a.example/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('<HTTP://a.example/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('<http://A.example/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('< http://a.example/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('<http://a.example/x >;rel="memento";datetime="%s"' % DATES[0])
    @example('<http://a.example/x>;rel="memento";datetime="%s";title="t"' % DATES[0])
    @example('<http://a.example/x>;datetime="%s";rel="memento"' % DATES[0])
    @example(
        '<http://a.example/x>;rel="memento";datetime="%s";last-modified="%s"' % tuple(DATES[:2])
    )
    @example('<http://a.example/x>;rel="x;memento";datetime="%s"' % DATES[0])
    @example('<http://a.example/x>;rev="memento";datetime="%s"' % DATES[0])
    @example('<http://a_b.example/x>;rel="memento";datetime="%s"' % DATES[0])
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 20:02:36 UTC"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 jan 2006 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Tue, 31 Feb 2006 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Sat, 01 Jan 0000 00:00:00 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 24:00:00 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 23:60:00 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 23:59:60 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="F1i, 10 Feb 2006 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 20:02:36 GMT "')
    @example('<http://a.example/x>;rel="memento";datetime="Friday, 10-Feb-06 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri Feb 10 20:02:36 2006"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006 20:02:36 GMT;x"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri, 10 Feb 2006, 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="memento";datetime="Fri;, 10 Feb 2006 20:02:36 GMT"')
    @example('<http://a.example/x>;rel="first memento"')
    @example('<http://a.example:8080/x>;rel="original"')
    def test_matches_general_parser(self, body):
        assert outcome(parse_timemap, body, ORIGINAL) == outcome(
            parse_timemap_reference, body, ORIGINAL
        )

    @pytest.mark.parametrize("when", [
        DATES[0], DATES[1], "Friday, 10-Feb-06 20:02:36 GMT", "Fri, 10 Feb 2006 20:02:36 UTC",
        "Fri, 10 jan 2006 20:02:36 GMT", "Fri, 10 Feb 2006 24:00:00 GMT", "soon", "a;b,c", "",
    ])
    def test_any_quoted_datetime_takes_the_entry_regex(self, when):
        assert _MEMENTO_ENTRY.fullmatch(f'<http://a.example/x>;rel="memento";datetime="{when}"')

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

    @settings(max_examples=500, deadline=None)
    @given(HTML_BODIES, st.sampled_from([None, "http://www.mementoweb.org/"]))
    # Bodies without the text "href": two in the plain-HTML grammar, two
    # outside it.
    @example("<html><p>no links</p></html>", "http://www.mementoweb.org/")
    @example('<p>x</p><a title="t">y</a >', None)
    @example("<!DOCTYPE html><p>a &amp; b</p><script>x<y</script>", None)
    @example("<a name=x>y</a><!-- <a> -->", "http://www.mementoweb.org/")
    def test_contains_link_matches_reference(self, body, base_uri):
        assert contains_link(body, self.target, base_uri) == contains_link_reference(
            body, self.target, base_uri
        )

    @settings(max_examples=500, deadline=None)
    @given(HTML_BODIES)
    @example('<p>x</p><a href="/" href="http://www.mementoweb.org/">m</a >')
    @example('<a HREF="/a"/><A title="t" href="/b" /></a\n>')
    @example('<a href="">e</a><a href="/s">s</a><script></script>')
    def test_hrefs_match_html_parser(self, body):
        def reference(body):
            collector = _AnchorCollector()
            collector.feed(body)
            return collector.hrefs

        assert outcome(_hrefs, body) == outcome(reference, body)

    @pytest.mark.parametrize("body", [
        "href" + "x" * 100_000 + "&",
        '<a href="/"' + ' x="1"' * 20_000 + "<",
        '<a href="/"' + " \t" * 50_000 + "/x",
        '<a href="/">' + "<p>x" * 25_000 + "&",
    ])
    def test_adversarial_body_returns(self, body):
        # The plain-HTML grammar fails these at their last character. It
        # takes milliseconds; a grammar with nested quantifiers over the
        # same text takes minutes.
        start = time.perf_counter()
        found = contains_link(body, self.target, "http://www.mementoweb.org/")
        assert time.perf_counter() - start < 5
        assert found == contains_link_reference(body, self.target, "http://www.mementoweb.org/")

    def test_href_urljoin_cannot_split_skipped(self):
        body = '<a href="//[x">bad</a><a href="/">root</a>'
        assert contains_link(
            body, normalize_uri("http://example.com/"), base_uri="http://example.com/"
        )


class TestFirstLinkingMemento:
    target = normalize_uri("http://target.example.com/")

    # A capture's body by whether it links to the target.
    bodies = {True: '<a href="http://target.example.com/">t</a>', False: "<html>no link</html>"}

    def run_search(self, n, first_link, fail_at=frozenset()):
        links = [first_link is not None and i >= first_link for i in range(n)]
        return self.search(links, fail_at)

    def search(self, links, fail_at=frozenset()):
        """Search captures where links[i] says whether capture i links; a
        fetch of a capture in fail_at raises FetchFailed."""
        tm = make_timemap([1_300_000_000 + i * 1000 for i in range(len(links))])
        fetches = []

        def fetch(capture_uri):
            idx = int(capture_uri.split("/web/")[1].split("/")[0])
            fetches.append(idx)
            if idx in fail_at:
                raise FetchFailed("boom")
            return self.bodies[links[idx]]

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
            result, tm, fetches = self.run_search(n, first_link=k)
            oracle = self.linear_oracle(n, k)
            expected = (
                tm.mementos[oracle].memento_datetime if oracle is not None else None
            )
            assert result.found_at == expected
            assert result.fetches <= math.ceil(math.log2(n)) + 1
            assert len(set(fetches)) == len(fetches) == result.fetches

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=65, max_value=512), st.data())
    def test_randomized_matches_oracle(self, n, data):
        k = data.draw(st.one_of(st.none(), st.integers(min_value=0, max_value=n - 1)))
        result, tm, fetches = self.run_search(n, first_link=k)
        oracle = self.linear_oracle(n, k)
        expected = tm.mementos[oracle].memento_datetime if oracle is not None else None
        assert result.found_at == expected
        assert result.fetches <= math.ceil(math.log2(n)) + 1
        assert len(set(fetches)) == len(fetches) == result.fetches

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.booleans(), max_size=64), st.booleans(), st.data())
    def test_any_presence_and_failures_against_fetch_all_oracle(self, links, sort, data):
        links = sorted(links) if sort else links
        n = len(links)
        fail_at = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
        result, tm, fetched = self.search(links, fail_at)
        times = [m.memento_datetime for m in tm.mementos]
        # The oracle fetches every capture, and none of its fetches fails.
        linking = [i for i in range(n) if contains_link(self.bodies[links[i]], self.target)]
        assert len(set(fetched)) == len(fetched) == result.fetches
        assert result.fetches <= (math.ceil(math.log2(n)) + 1 if n else 0)
        if result.found_at is not None:
            found = times.index(result.found_at)
            assert found in fetched and found not in fail_at and found in linking
            assert found >= linking[0]
        failed = fail_at & set(fetched)
        assert result.degraded == bool(failed)
        if links == sorted(links) and not failed:
            assert result.found_at == (times[linking[0]] if linking else None)

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
