"""Acceptance suite: one test per release criterion, each printing a
pass line once its assertions hold (run with -s to see them inline)."""

from __future__ import annotations

import json
import math
import random
import time
from datetime import date

import numpy as np
import pytest

from carbondate.aggregate import aggregate
from carbondate.core import (
    PlausibilityWindow,
    normalize_uri,
    parse_iso_timestamp,
    render_http_date,
    render_iso_timestamp,
    truncate_to_day,
)
from carbondate.evaluation import ablate, auc, build_record, polyfit2, summarize
from carbondate.replay import Cassette, HttpResponse, Interaction, ReplayTransport
from carbondate.service import ServiceConfig, make_app
from carbondate.sources import (
    ALL_METHODS,
    Endpoints,
    EvidenceResult,
    SourceContext,
    gather_evidence,
)
from carbondate.synth import DAY, SourceLagModel, generate_world
from carbondate.timemaps import Memento, Timemap, first_linking_memento

DAY_S = 86400


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def wsgi_get(app, path):
    captured = {}

    def start_response(status, headers):
        captured["status"] = int(status.split()[0])

    body = b"".join(
        app({"PATH_INFO": path, "QUERY_STRING": "", "REQUEST_METHOD": "GET"},
            start_response)
    )
    return captured["status"], json.loads(body.decode("utf-8"))


def test_criterion_1_fig4_reproduction(mementoweb_cassette_path):
    start = time.monotonic()
    app = make_app(
        ServiceConfig(mode="replay", cassette_path=mementoweb_cassette_path)
    )
    status, body = wsgi_get(app, "/cd/http://www.mementoweb.org")
    elapsed = time.monotonic() - start
    assert status == 200
    assert body["Estimated Creation Date"] == "2009-09-30T11:58:25"
    assert body["Last Modified"] == "2012-04-20T21:52:07"
    assert body["Bitly"] == "2011-03-24T10:44:12"
    assert body["Topsy.com"] == "2009-11-09T20:53:20"
    assert body["Backlinks"] == "2011-01-16T21:42:12"
    assert body["Google.com"] == "2009-11-16"
    assert body["Archives"]["Earliest"] == "2009-09-30T11:58:25"
    assert body["Archives"]["By Archive"] == {
        "wayback.archive-it.org": "2009-09-30T11:58:25",
        "api.wayback.archive.org": "2009-09-30T11:58:25",
        "webarchive.nationalarchives.gov.uk": "2010-04-02T00:00:00",
    }
    assert elapsed < 1.0
    report(1, f"replayed sample response exactly in {elapsed:.3f}s")


def test_criterion_2_aggregator_oracle():
    start = time.monotonic()
    rng = random.Random(1200)
    uri = normalize_uri("http://example.com/")
    base = parse_iso_timestamp("2000-01-01T00:00:00")
    for _ in range(1000):
        evidence = []
        for m in sorted(ALL_METHODS):
            roll = rng.random()
            if roll < 0.4:
                evidence.append(EvidenceResult(method=m, status="empty"))
            else:
                evidence.append(
                    EvidenceResult(
                        method=m, status="ok",
                        estimate=base + rng.randrange(0, 400_000_000),
                    )
                )
        ce = aggregate(uri, evidence)
        oracle = [e.estimate for e in evidence if e.status == "ok"]
        assert ce.estimated == (min(oracle) if oracle else None)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(2, f"1000 fuzzed evidence sets matched brute-force min in {elapsed:.2f}s")


def _search_fixture(n, first_link):
    times = [1_200_000_000 + i * 600 for i in range(n)]
    tm = Timemap(
        original=normalize_uri("http://backlink.example.com/"),
        mementos=tuple(
            Memento("arch.example.org", f"http://arch.example.org/web/{i}/x", t)
            for i, t in enumerate(times)
        ),
    )

    def fetch(capture_uri):
        idx = int(capture_uri.rsplit("/web/", 1)[1].split("/")[0])
        if first_link is not None and idx >= first_link:
            return '<a href="http://target.example.com/">t</a>'
        return "<html></html>"

    return tm, fetch


def test_criterion_3_binary_search():
    start = time.monotonic()
    target = normalize_uri("http://target.example.com/")

    def check(n, k):
        tm, fetch = _search_fixture(n, k)
        result = first_linking_memento(tm, target, fetch)
        expected = tm.mementos[k].memento_datetime if k is not None else None
        assert result.found_at == expected, (n, k)
        assert result.fetches <= math.ceil(math.log2(n)) + 1, (n, k)

    for n in range(1, 65):  # exhaustive boundary positions
        for k in list(range(n)) + [None]:
            check(n, k)
    rng = random.Random(3)
    for _ in range(200):  # randomized above 64
        n = rng.randint(65, 512)
        k = rng.choice([None, rng.randrange(n)])
        check(n, k)

    tm, fetch = _search_fixture(23_000, 14_971)
    result = first_linking_memento(tm, target, fetch)
    assert result.found_at == tm.mementos[14_971].memento_datetime
    assert result.fetches <= 15
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(3, f"binary search matched linear oracle; 23k fixture in "
              f"{result.fetches} fetches; total {elapsed:.1f}s")


def test_criterion_4_plausibility_filter():
    now = parse_iso_timestamp("2013-03-01T00:00:00")
    window = PlausibilityWindow(now=now)
    endpoints = Endpoints()
    rng = random.Random(1800)
    lo = int(date(1800, 1, 2).toordinal() - date(1970, 1, 1).toordinal()) * DAY_S
    hi = int(date(2100, 1, 1).toordinal() - date(1970, 1, 1).toordinal()) * DAY_S

    cassette = Cassette(recorded_at=now)
    uris = []
    for k in range(150):
        t = rng.randrange(lo, hi)
        uri = f"http://fuzz{k:03d}.example.org/"
        uris.append(uri)
        cassette.add(Interaction(
            method="HEAD", url=uri,
            response=HttpResponse(200, {"Last-Modified": render_http_date(t)}, ""),
        ))
        body = ",\n".join([
            f'<{uri}>;rel="original"',
            f'<http://a.example.org/web/{k}/{uri}>;rel="memento"'
            f';datetime="{render_http_date(t)}"',
        ])
        cassette.add(Interaction(
            method="GET", url=endpoints.timemap_url(uri),
            response=HttpResponse(200, {}, body),
        ))
        cassette.add(Interaction(
            method="GET", url=endpoints.social_search_url(uri),
            response=HttpResponse(200, {}, json.dumps(
                {"total": 1,
                 "posts": [{"id": "p", "posted_at": render_iso_timestamp(t)}]}
            )),
        ))
        cassette.add(Interaction(
            method="GET", url=endpoints.crawl_url(uri),
            response=HttpResponse(200, {}, json.dumps(
                {"crawl_date": truncate_to_day(t).isoformat()}
            )),
        ))
        cassette.add(Interaction(
            method="GET", url=endpoints.shortener_lookup_url(uri),
            response=HttpResponse(200, {}, json.dumps({"id": f"f{k}"})),
        ))
        cassette.add(Interaction(
            method="GET", url=endpoints.shortener_info_url(f"f{k}"),
            response=HttpResponse(200, {}, json.dumps(
                {"created_at": render_iso_timestamp(t)}
            )),
        ))
        cassette.add(Interaction(
            method="GET", url=endpoints.backlinks_url(uri),
            response=HttpResponse(200, {}, json.dumps({"backlinks": []})),
        ))

    ctx = SourceContext(transport=ReplayTransport(cassette), window=window)
    checked = 0
    for raw in uris:
        uri = normalize_uri(raw)
        evidence = gather_evidence(uri, ctx)
        for e in evidence:
            if e.estimate is not None:
                assert window.earliest <= e.estimate <= window.now, e
                checked += 1
        ce = aggregate(uri, evidence)
        if ce.estimated is not None:
            assert window.earliest <= ce.estimated <= window.now
    report(4, f"no implausible timestamp escaped ({checked} estimates checked)")


def test_criterion_5_auc_numerics():
    assert auc([0] * 120) == 0.0
    for c in (1.0, 42.0, 763.5):
        assert auc([c] * 17) == pytest.approx(c, abs=1e-6)
    assert auc([0, 10]) == pytest.approx(5.0, abs=1e-6)
    for deltas in ([0, 2, 4, 6, 8, 10], list(range(11)), [3, 3, 7, 11, 11]):
        expected = float(
            np.trapezoid(sorted(deltas), dx=1 / (len(deltas) - 1))
        )
        assert auc(deltas) == pytest.approx(expected, abs=1e-6)
    report(5, "AUC exact on zero/constant/linear and grid-aligned curves")


def _acceptance_world():
    models = {
        "archives": SourceLagModel(0.00, DAY, 30 * DAY),
        "social": SourceLagModel(0.30, 0, 0),  # the zero-lag source
        "last_modified": SourceLagModel(0.50, 5 * DAY, 100 * DAY),
        "shortener": SourceLagModel(0.40, DAY, 50 * DAY),
        "search_index": SourceLagModel(0.50, DAY, 20 * DAY, whole_days=True),
        "backlinks": SourceLagModel(1.00, DAY, DAY),  # never present
    }
    return generate_world(seed=200, n=200, models=models)


def test_criterion_6_synthetic_end_to_end():
    start = time.monotonic()
    world, cassette = _acceptance_world()
    ctx = SourceContext(
        transport=ReplayTransport(cassette),
        window=PlausibilityWindow(now=world.now),
    )
    records = []
    for resource in world.resources:
        uri = normalize_uri(resource.uri)
        evidence = gather_evidence(uri, ctx)
        estimates = {e.method: e.estimate for e in evidence}
        records.append(
            build_record(
                resource.uri, truncate_to_day(resource.true_creation), estimates
            )
        )
    summary = summarize(records)

    # (a) estimated fraction == fraction of resources with >= 1 present source
    present_any = sum(
        1 for r in world.resources if any(lag is not None for lag in r.lags.values())
    )
    assert summary.estimated_count == present_any

    # (b) exact fraction == fraction with >= 1 zero-lag present source
    zero_lag_present = sum(
        1 for r in world.resources if any(lag == 0 for lag in r.lags.values()
                                          if lag is not None)
    )
    assert summary.exact_count == zero_lag_present

    # (c) ablating the zero-lag source strictly increases delta-AUC
    social_ablation = ablate(records, "social")
    assert social_ablation["auc"] > summary.auc_full

    # (d) ablating a never-winning source changes AUC by exactly 0%
    backlink_ablation = ablate(records, "backlinks")
    assert backlink_ablation["percent_change"] == 0.0
    assert backlink_ablation["auc"] == summary.auc_full

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    report(6, f"200-resource world: estimated {summary.estimated_count}/200, "
              f"exact {summary.exact_count}/200, ablations behave; {elapsed:.1f}s")


def test_criterion_7_reporting_schema_not_absolute_numbers():
    # The published absolute results (75.90% estimated, 32.78% exact,
    # AUC 762.64 and the per-method ablation AUCs) are not reproducible
    # offline: the 1200-URI corpus is unavailable and two upstream
    # services no longer exist. This suite covers the machinery through
    # criteria 2-6 instead and pins only the report schema here.
    world, cassette = _acceptance_world()
    ctx = SourceContext(
        transport=ReplayTransport(cassette),
        window=PlausibilityWindow(now=world.now),
    )
    records = []
    for resource in world.resources[:20]:
        uri = normalize_uri(resource.uri)
        estimates = {
            e.method: e.estimate for e in gather_evidence(uri, ctx)
        }
        records.append(
            build_record(
                resource.uri, truncate_to_day(resource.true_creation), estimates
            )
        )
    summary = summarize(records)
    summary.ablations["social"] = ablate(records, "social")
    obj = summary.to_json()
    assert set(obj) >= {"n", "estimated", "exact", "methods", "auc", "ablations"}
    assert set(obj["estimated"]) == {"count", "fraction"}
    for stats in obj["methods"].values():
        assert set(stats) == {"best", "contributed"}
    assert set(obj["ablations"]["social"]) >= {
        "disabled", "auc", "auc_full", "percent_change",
    }
    report(7, "table-shaped report schema verified; absolute values "
              "documented as non-reproducible")


def test_criterion_8_polyfit2():
    fit = polyfit2([(x, 3 * x * x - 2 * x + 1) for x in np.linspace(-4, 4, 25)])
    assert abs(fit.a - 3) < 1e-9 and abs(fit.b + 2) < 1e-9 and abs(fit.c - 1) < 1e-9

    flat = polyfit2([(x, 2 * x + 3) for x in np.linspace(0, 9, 10)])
    assert abs(flat.a) < 1e-9 and abs(flat.b - 2) < 1e-9 and abs(flat.c - 3) < 1e-9

    rng = np.random.default_rng(8)
    for _ in range(5):
        x = rng.uniform(-10, 10, size=50)
        y = rng.normal(0, 3, size=50)
        fit = polyfit2(list(zip(x, y)))
        ref = np.polyfit(x, y, 2)
        assert np.allclose([fit.a, fit.b, fit.c], ref, atol=1e-6)
    report(8, "quadratic fit recovers exact and reference coefficients")
