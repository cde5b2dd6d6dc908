from __future__ import annotations

import dataclasses
import json

import pytest

from carbondate.aggregate import aggregate
from carbondate.core import PlausibilityWindow, normalize_uri, parse_iso_timestamp
from carbondate.replay import Cassette, HttpResponse, ReplayTransport
from carbondate.sources import SourceContext, gather_evidence
from carbondate.synth import (
    DAY,
    InvalidLagModel,
    SourceLagModel,
    SyntheticWorld,
    default_lag_models,
    generate_world,
    put,
)


def zero_lag_models():
    return {
        m: SourceLagModel(0.0, 0, 0, whole_days=(m == "search_index"))
        for m in default_lag_models()
    }


def replay_ctx(world, cassette):
    return SourceContext(
        transport=ReplayTransport(cassette), window=PlausibilityWindow(now=world.now)
    )


class TestLagModelValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(absence_prob=-0.1, min_lag_s=0, max_lag_s=1),
            dict(absence_prob=1.5, min_lag_s=0, max_lag_s=1),
            dict(absence_prob=0.5, min_lag_s=-1, max_lag_s=1),
            dict(absence_prob=0.5, min_lag_s=10, max_lag_s=1),
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(InvalidLagModel):
            SourceLagModel(**kwargs)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidLagModel):
            generate_world(1, 1, models={"tarot": SourceLagModel(0.0, 0, 0)})

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_world(1, 0)


class TestGenerateWorld:
    def test_deterministic(self):
        w1, c1 = generate_world(seed=1, n=10)
        w2, c2 = generate_world(seed=1, n=10)
        assert w1.to_json() == w2.to_json()
        assert {k: i.to_json() for k, i in c1.entries.items()} == {
            k: i.to_json() for k, i in c2.entries.items()
        }

    def test_different_seeds_differ(self):
        w1, _ = generate_world(seed=1, n=10)
        w2, _ = generate_world(seed=2, n=10)
        assert w1.to_json() != w2.to_json()

    def test_zero_lag_world_reports_creation_exactly(self):
        world, cassette = generate_world(seed=1, n=1, models=zero_lag_models())
        ctx = replay_ctx(world, cassette)
        resource = world.resources[0]
        uri = normalize_uri(resource.uri)
        evidence = gather_evidence(uri, ctx)
        for e in evidence:
            assert e.status == "ok", (e.method, e.error)
            assert e.estimate == resource.true_creation
        assert aggregate(uri, evidence).estimated == resource.true_creation

    def test_replay_matches_min_lag_identity(self):
        world, cassette = generate_world(seed=99, n=40)
        ctx = replay_ctx(world, cassette)
        for resource in world.resources:
            uri = normalize_uri(resource.uri)
            ce = aggregate(uri, gather_evidence(uri, ctx))
            assert ce.estimated == resource.expected_estimate(), resource.uri

    def test_archive_lag_bounds_hold_in_cassette(self):
        # Recompute the bound by scanning the emitted cassette directly.
        models = default_lag_models()
        models["archives"] = SourceLagModel(0.0, DAY, 365 * DAY)
        world, cassette = generate_world(seed=3, n=200, models=models)
        ctx = replay_ctx(world, cassette)
        for resource in world.resources:
            uri = normalize_uri(resource.uri)
            evidence = {e.method: e for e in gather_evidence(uri, ctx)}
            est = evidence["archives"].estimate
            assert resource.true_creation + DAY <= est
            assert est <= resource.true_creation + 365 * DAY

    def test_absent_sources_have_no_upstream_record(self):
        models = default_lag_models()
        models["shortener"] = SourceLagModel(1.0, 0, 0)
        world, cassette = generate_world(seed=5, n=5, models=models)
        ctx = replay_ctx(world, cassette)
        for resource in world.resources:
            uri = normalize_uri(resource.uri)
            evidence = {e.method: e for e in gather_evidence(uri, ctx)}
            assert evidence["shortener"].status == "error"

    def test_descriptor_round_trip(self, tmp_path):
        world, _ = generate_world(seed=11, n=7)
        path = tmp_path / "world.json"
        world.save(str(path))
        loaded = SyntheticWorld.load(str(path))
        assert loaded.to_json() == world.to_json()
        # File is valid JSON with ISO timestamps.
        obj = json.loads(path.read_text())
        assert len(obj["resources"]) == 7

    def test_descriptor_round_trip_before_year_1000(self, tmp_path):
        world, _ = generate_world(seed=11, n=1)
        t = parse_iso_timestamp("0999-06-01T00:00:00")
        world.now = t
        world.resources[0] = dataclasses.replace(world.resources[0], true_creation=t)
        path = tmp_path / "world.json"
        world.save(str(path))
        assert SyntheticWorld.load(str(path)).to_json() == world.to_json()


class TestPut:
    def test_json_body_and_header_order(self):
        cassette = Cassette(recorded_at=0)
        put(cassette, "http://a.example/info", {"id": "s1"})
        last_modified = {"Last-Modified": "Fri, 20 Apr 2012 21:52:07 GMT"}
        put(cassette, "http://a.example/", "", "text/html", method="HEAD",
            headers=last_modified)
        info = cassette.lookup("GET", "http://a.example/info").response
        json_type = {"Content-Type": "application/json"}
        assert info == HttpResponse(200, json_type, '{"id": "s1"}')
        head = cassette.lookup("HEAD", "http://a.example/").response
        assert head.headers == {"Content-Type": "text/html", **last_modified}
        assert list(head.headers) == ["Content-Type", "Last-Modified"]
        assert head.body == ""

    def test_first_recording_wins(self):
        cassette = Cassette(recorded_at=0)
        put(cassette, "http://a.example/info", {"id": "first"})
        put(cassette, "http://a.example/info", {"id": "second"})
        info = cassette.lookup("GET", "http://a.example/info").response
        assert info.body == '{"id": "first"}'

    def test_recordings_share_one_header_map_per_content_type(self):
        _, cassette = generate_world(seed=7, n=50)
        by_type = {}
        for entry in cassette.entries.values():
            headers = entry.response.headers
            if len(headers) == 1:
                by_type.setdefault(headers["Content-Type"], set()).add(id(headers))
        assert set(by_type) == {"application/json", "application/link-format", "text/html"}
        assert all(len(ids) == 1 for ids in by_type.values())

    def test_extra_headers_leave_the_shared_map_alone(self):
        cassette = Cassette(recorded_at=0)
        lm = "Tue, 01 Jan 2013 00:00:00 GMT"
        put(cassette, "http://a.example/x", "x", "text/html")
        put(cassette, "http://a.example/y", "y", "text/html", method="HEAD",
            headers={"Last-Modified": lm})
        put(cassette, "http://a.example/z", "z", "text/html")
        shared = cassette.lookup("GET", "http://a.example/x").response.headers
        assert cassette.lookup("GET", "http://a.example/z").response.headers is shared
        assert shared == {"Content-Type": "text/html"}
        head = cassette.lookup("HEAD", "http://a.example/y").response.headers
        assert head == {"Content-Type": "text/html", "Last-Modified": lm}
