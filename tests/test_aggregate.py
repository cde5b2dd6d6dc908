from __future__ import annotations

import random

import pytest

from carbondate.aggregate import (
    TIE_BREAK_ORDER,
    DuplicateMethod,
    aggregate,
    render_report,
)
from carbondate.core import normalize_uri, parse_iso_timestamp
from carbondate.sources import ALL_METHODS, EvidenceResult

URI = normalize_uri("http://www.mementoweb.org")


def ok(method, iso, granularity="second", detail=None):
    return EvidenceResult(
        method=method,
        status="ok",
        estimate=parse_iso_timestamp(iso),
        granularity=granularity,
        detail=detail or {},
    )


def empty(method):
    return EvidenceResult(method=method, status="empty")


FIG4_EVIDENCE = [
    ok("last_modified", "2012-04-20T21:52:07"),
    ok("shortener", "2011-03-24T10:44:12"),
    ok("social", "2009-11-09T20:53:20"),
    ok("backlinks", "2011-01-16T21:42:12"),
    ok("search_index", "2009-11-16T00:00:00", granularity="day"),
    ok(
        "archives",
        "2009-09-30T11:58:25",
        detail={
            "by_archive": {
                "wayback.archive-it.org": parse_iso_timestamp("2009-09-30T11:58:25"),
                "api.wayback.archive.org": parse_iso_timestamp("2009-09-30T11:58:25"),
                "webarchive.nationalarchives.gov.uk": parse_iso_timestamp(
                    "2010-04-02T00:00:00"
                ),
            }
        },
    ),
]


class TestAggregate:
    def test_published_example_set(self):
        ce = aggregate(URI, FIG4_EVIDENCE)
        assert ce.estimated == parse_iso_timestamp("2009-09-30T11:58:25")
        assert ce.winning_method == "archives"

    def test_all_empty(self):
        ce = aggregate(URI, [empty(m) for m in sorted(ALL_METHODS)])
        assert ce.estimated is None
        assert ce.winning_method is None

    def test_duplicate_method_rejected(self):
        with pytest.raises(DuplicateMethod):
            aggregate(URI, [empty("social"), ok("social", "2010-01-01T00:00:00")])

    def test_fuzzed_against_bruteforce_min(self):
        rng = random.Random(20130301)
        base = parse_iso_timestamp("2000-01-01T00:00:00")
        for _ in range(1000):
            evidence = []
            for m in sorted(ALL_METHODS):
                roll = rng.random()
                if roll < 0.35:
                    evidence.append(empty(m))
                elif roll < 0.45:
                    evidence.append(
                        EvidenceResult(method=m, status="error", error="x")
                    )
                else:
                    evidence.append(
                        EvidenceResult(
                            method=m,
                            status="ok",
                            estimate=base + rng.randrange(0, 400_000_000),
                        )
                    )
            ce = aggregate(URI, evidence)
            oracle = [e.estimate for e in evidence if e.status == "ok"]
            if oracle:
                assert ce.estimated == min(oracle)
                assert ce.winning_method in {
                    e.method for e in evidence if e.estimate == ce.estimated
                }
            else:
                assert ce.estimated is None

    def test_permutation_invariant(self):
        rng = random.Random(7)
        shuffled = FIG4_EVIDENCE[:]
        for _ in range(10):
            rng.shuffle(shuffled)
            ce = aggregate(URI, shuffled)
            assert ce.estimated == parse_iso_timestamp("2009-09-30T11:58:25")
            assert ce.winning_method == "archives"

    def test_tie_break_uses_fixed_order(self):
        t = "2010-06-01T00:00:00"
        ce = aggregate(URI, [ok("social", t), ok("last_modified", t)])
        assert ce.winning_method == "last_modified"
        assert TIE_BREAK_ORDER.index("last_modified") < TIE_BREAK_ORDER.index("social")

    def test_adding_evidence_never_increases_estimate(self):
        subset = FIG4_EVIDENCE[:3]
        grown = aggregate(URI, FIG4_EVIDENCE)
        assert grown.estimated <= aggregate(URI, subset).estimated


class TestRenderReport:
    def test_published_value_set(self):
        report = render_report(aggregate(URI, FIG4_EVIDENCE))
        assert report == {
            "URI": "http://www.mementoweb.org",
            "Estimated Creation Date": "2009-09-30T11:58:25",
            "Last Modified": "2012-04-20T21:52:07",
            "Bitly": "2011-03-24T10:44:12",
            "Topsy.com": "2009-11-09T20:53:20",
            "Backlinks": "2011-01-16T21:42:12",
            "Google.com": "2009-11-16",
            "Archives": {
                "Earliest": "2009-09-30T11:58:25",
                "By Archive": {
                    "api.wayback.archive.org": "2009-09-30T11:58:25",
                    "wayback.archive-it.org": "2009-09-30T11:58:25",
                    "webarchive.nationalarchives.gov.uk": "2010-04-02T00:00:00",
                },
            },
        }

    def test_key_order_matches_published_schema(self):
        report = render_report(aggregate(URI, FIG4_EVIDENCE))
        assert list(report) == [
            "URI", "Estimated Creation Date", "Last Modified", "Bitly",
            "Topsy.com", "Backlinks", "Google.com", "Archives",
        ]
        assert list(report["Archives"]) == ["Earliest", "By Archive"]

    def test_fully_absent(self):
        report = render_report(aggregate(URI, [empty(m) for m in sorted(ALL_METHODS)]))
        assert report["URI"] == "http://www.mementoweb.org"
        for key in ["Estimated Creation Date", "Last Modified", "Bitly",
                    "Topsy.com", "Backlinks", "Google.com"]:
            assert report[key] == ""
        assert report["Archives"] == {"Earliest": "", "By Archive": {}}

    def test_archives_only(self):
        evidence = [e for e in FIG4_EVIDENCE if e.method == "archives"] + [
            empty(m) for m in sorted(ALL_METHODS - {"archives"})
        ]
        report = render_report(aggregate(URI, evidence))
        assert report["Archives"]["Earliest"] == "2009-09-30T11:58:25"
        assert report["Bitly"] == ""
        assert report["Estimated Creation Date"] == "2009-09-30T11:58:25"

    def test_generic_style(self):
        report = render_report(aggregate(URI, FIG4_EVIDENCE), style="generic")
        assert list(report.items()) == [
            ("uri", "http://www.mementoweb.org"),
            ("estimated", "2009-09-30T11:58:25"),
            ("winning_method", "archives"),
            ("last_modified", "2012-04-20T21:52:07"),
            ("shortener", "2011-03-24T10:44:12"),
            ("social", "2009-11-09T20:53:20"),
            ("backlinks", "2011-01-16T21:42:12"),
            ("search_index", "2009-11-16"),
            ("archives", {
                "earliest": "2009-09-30T11:58:25",
                "by_archive": {
                    "api.wayback.archive.org": "2009-09-30T11:58:25",
                    "wayback.archive-it.org": "2009-09-30T11:58:25",
                    "webarchive.nationalarchives.gov.uk": "2010-04-02T00:00:00",
                },
            }),
        ]
        assert list(report["archives"]) == ["earliest", "by_archive"]

    def test_unknown_style_rejected(self):
        with pytest.raises(ValueError):
            render_report(aggregate(URI, FIG4_EVIDENCE), style="xml")
