#!/usr/bin/env python3
"""Build the shipped replay cassette for http://www.mementoweb.org.

The recorded values mirror the service's published sample response for
that URI. Run with:

    PYTHONPATH=src python3 scripts/make_mementoweb_cassette.py OUT.jsonl

The committed fixtures/mementoweb.jsonl has the same entries in an older
request layout; it is not to be regenerated (see README).
"""

from __future__ import annotations

import sys
from pathlib import Path

from carbondate.core import parse_iso_timestamp, render_http_date
from carbondate.replay import Cassette
from carbondate.sources import Endpoints
from carbondate.synth import put

URI = "http://www.mementoweb.org/"
DISPLAY_URI = "http://www.mementoweb.org"
RECORDED_AT = "2013-03-01T04:44:47"

ARCHIVE_CAPTURES = [
    ("api.wayback.archive.org", "2009-09-30T11:58:25",
     "http://api.wayback.archive.org/memento/20090930115825/http://www.mementoweb.org/"),
    ("wayback.archive-it.org", "2009-09-30T11:58:25",
     "http://wayback.archive-it.org/all/20090930115825/http://www.mementoweb.org/"),
    ("webarchive.nationalarchives.gov.uk", "2010-04-02T00:00:00",
     "http://webarchive.nationalarchives.gov.uk/20100402000000/http://www.mementoweb.org/"),
]

BACKLINK = "http://www.cs.odu.edu/"
BACKLINK_CAPTURES = [
    ("2010-06-14T08:20:11", False),
    ("2011-01-16T21:42:12", True),
    ("2011-05-02T17:05:40", True),
    ("2012-03-21T03:11:58", True),
]


def link_body(original: str, captures: list[tuple[str, str]]) -> str:
    lines = [f'<{original}>;rel="original"']
    for capture_uri, iso in captures:
        http_date = render_http_date(parse_iso_timestamp(iso))
        lines.append(f'<{capture_uri}>;rel="memento";datetime="{http_date}"')
    return ",\n".join(lines)


def wayback_uri(iso: str, original: str) -> str:
    ts = iso.replace("-", "").replace("T", "").replace(":", "")
    return f"http://web.archive.org/web/{ts}/{original}"


def build() -> Cassette:
    endpoints = Endpoints()
    cassette = Cassette(recorded_at=parse_iso_timestamp(RECORDED_AT))

    last_modified = render_http_date(parse_iso_timestamp("2012-04-20T21:52:07"))
    put(cassette, URI, "", "text/html; charset=UTF-8", method="HEAD",
        headers={"Last-Modified": last_modified, "Server": "Apache"})
    archive_caps = [(cu, iso) for _, iso, cu in ARCHIVE_CAPTURES]
    put(cassette, endpoints.timemap_url(URI), link_body(URI, archive_caps),
        "application/link-format")

    put(cassette, endpoints.shortener_lookup_url(URI), {"id": "lM9Ah"})
    put(cassette, endpoints.shortener_info_url("lM9Ah"),
        {"created_at": "2011-03-24T10:44:12"})

    posts = [
        {"id": "t564", "posted_at": "2009-11-09T20:53:20"},
        {"id": "t891", "posted_at": "2009-12-01T09:14:02"},
        {"id": "t1402", "posted_at": "2010-03-17T15:40:55"},
        {"id": "t2210", "posted_at": "2011-06-08T22:01:33"},
    ]
    put(cassette, endpoints.social_search_url(URI), {"total": 187, "posts": posts})
    put(cassette, endpoints.crawl_url(URI), {"crawl_date": "2009-11-16"})

    put(cassette, endpoints.backlinks_url(URI), {"backlinks": [BACKLINK]})
    backlink_caps = [(wayback_uri(iso, BACKLINK), iso) for iso, _ in BACKLINK_CAPTURES]
    put(cassette, endpoints.timemap_url(BACKLINK), link_body(BACKLINK, backlink_caps),
        "application/link-format")
    for iso, has_link in BACKLINK_CAPTURES:
        ts = iso.replace("-", "").replace("T", "").replace(":", "")
        if has_link:
            anchor = f'<a href="/web/{ts}/{URI}">Memento project</a>'
        else:
            anchor = ""
        body = f"<html><body><h1>Department news</h1>{anchor}</body></html>"
        put(cassette, wayback_uri(iso, BACKLINK), body, "text/html")

    return cassette


def main() -> int:
    # No default path: the committed fixture must not be overwritten.
    if len(sys.argv) != 2:
        print(f"usage: {Path(sys.argv[0]).name} OUT.jsonl", file=sys.stderr)
        return 2
    out = Path(sys.argv[1])
    out.parent.mkdir(parents=True, exist_ok=True)
    build().save(str(out))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
