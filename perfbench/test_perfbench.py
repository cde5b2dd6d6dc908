"""Tests of the benchmark itself: its worlds, its counts and its checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from carbondate.aggregate import aggregate, render_report  # noqa: E402
from carbondate.core import normalize_uri  # noqa: E402
from carbondate.replay import Cassette  # noqa: E402
from carbondate.sources import gather_evidence  # noqa: E402

import harness  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worlds  # noqa: E402

SEED, N = 7, 60

# Exact counts of one pass over the default world (seed 7, n 60) and over
# the deep-backlinks world built from it. Probe statuses are the same in
# both: the extra backlinks change no outcome.
STATUSES = {
    "archives": (42, 0, 18),
    "backlinks": (14, 0, 46),
    "last_modified": (26, 0, 34),
    "search_index": (32, 0, 28),
    "shortener": (36, 0, 24),
    "social": (47, 0, 13),
}
COUNTS = {
    "default": {"replay.lookups": 438, "replay.misses": 163, "timemaps.search_fetches": 28},
    "deep-backlinks": {"replay.lookups": 691, "replay.misses": 163,
                       "timemaps.search_fetches": 239},
}
HOP_DEPTHS = {  # depth -> URIs
    "default": {1: 17, 2: 29, 4: 14},
    "deep-backlinks": {1: 17, 2: 29, 22: 13, 23: 1},
}
WORKLOAD_OF = {"default": "batch-replay", "deep-backlinks": "service-deep-backlinks"}

EXACT = (
    ["replay.lookups", "replay.misses", "timemaps.parse_calls", "timemaps.mementos_parsed",
     "timemaps.search_fetches", "sources.requests_per_uri", "sources.hop_depth_p50",
     "sources.hop_depth_max"]
    + [f"sources.{m}.{s}" for m in sorted(tracing.PROBE_SPANS.values()) for s in tracing.STATUSES]
)


def prepared(kind: str, tmp_path: Path):
    world, cassette = worlds.build_world(kind, SEED, N)
    path = tmp_path / f"{kind}.jsonl"
    cassette.save(str(path))
    items = [harness.Item(r.uri, r.expected_estimate()) for r in world.resources]
    return world, str(path), items


def traced_pass(workload, path: str, items, parallelism: int):
    state = workload.setup(path)
    state.ctx.parallelism = parallelism
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        result = harness.run_passes(workload, state, items, tracer)
    return result, tracer.spans


@pytest.fixture
def fast_delay(monkeypatch):
    monkeypatch.setattr(harness.WORKLOADS["service-deep-backlinks"], "delay_s", 0.0001)


def exact_counts(spans) -> dict:
    m = tracing.layer_metrics(spans)
    return {k: m[k] for k in EXACT}


@pytest.mark.parametrize("kind", ["default", "deep-backlinks"])
def test_exact_counts_pinned_and_independent_of_parallelism(kind, tmp_path, fast_delay):
    workload = harness.WORKLOADS[WORKLOAD_OF[kind]]
    _, path, items = prepared(kind, tmp_path)
    counts = {}
    for parallelism in (1, 6):
        result, spans = traced_pass(workload, path, items, parallelism)
        assert result.failures == 0
        counts[parallelism] = exact_counts(spans)
        depths = Counter(tracing.hop_depths(spans).values())
        assert dict(depths) == HOP_DEPTHS[kind]
    assert counts[1] == counts[6]
    for name, value in COUNTS[kind].items():
        assert counts[6][name] == value, name
    for method, expected in STATUSES.items():
        got = tuple(counts[6][f"sources.{method}.{s}"] for s in tracing.STATUSES)
        assert got == expected, method


def test_reports_identical_at_parallelism_1_and_6(tmp_path):
    _, path, items = prepared("default", tmp_path)
    ctx = harness.WORKLOADS["batch-replay"].setup(path).ctx
    reports = {}
    for parallelism in (1, 6):
        ctx.parallelism = parallelism
        reports[parallelism] = [
            json.dumps(render_report(aggregate(u, gather_evidence(u, ctx))))
            for u in (normalize_uri(item.uri) for item in items)
        ]
    assert reports[1] == reports[6]


def test_deep_world_keeps_the_identity_for_every_uri(tmp_path):
    world, path, items = prepared("deep-backlinks", tmp_path)
    ctx = harness.WORKLOADS["batch-replay"].setup(path).ctx
    ctx.parallelism = 1
    for r in world.resources:
        uri = normalize_uri(r.uri)
        assert aggregate(uri, gather_evidence(uri, ctx)).estimated == r.expected_estimate(), r.uri


def test_deep_world_hop_depth_shape(tmp_path, fast_delay):
    world, path, items = prepared("deep-backlinks", tmp_path)
    workload = harness.WORKLOADS["service-deep-backlinks"]
    _, spans = traced_pass(workload, path, items, 6)
    depths = tracing.hop_depths(spans)
    assert len(depths) == len(world.resources)
    # Listing, then per backlink a timemap and a binary search over its
    # captures: 2..3 fetches for the original 4, 5..6 for each of the 32.
    low = 1 + (1 + 2) + worlds.EXTRA_BACKLINKS * (1 + 5)
    high = 1 + (1 + 3) + worlds.EXTRA_BACKLINKS * (1 + 6)
    linked = [d for d in depths.values() if d > 2]
    assert len(linked) == sum(1 for r in world.resources if r.lags["backlinks"] is not None)
    assert all(low <= d <= high for d in linked)
    waits = sum(1 for s in spans if s.name == "upstream.wait")
    assert waits == sum(1 for s in spans if s.name == tracing.REQUEST_SPAN)


def test_record_pass_writes_every_answered_request_once(tmp_path):
    _, path, items = prepared("default", tmp_path)
    state = harness.WORKLOADS["batch-replay"].setup(path)
    tracer = tracing.Tracer()
    out = tmp_path / "recorded.jsonl"
    assert harness.record_pass(state, items, str(out), tracer) == 0
    answered = COUNTS["default"]["replay.lookups"] - COUNTS["default"]["replay.misses"]
    assert len(Cassette.load(str(out)).entries) == answered
    assert tracing.self_time(tracer.spans, "replay.record") > 0
    assert tracing.self_time(tracer.spans, "replay.save") > 0


def test_identity_check_catches_a_wrong_estimate(tmp_path):
    _, path, items = prepared("default", tmp_path)
    workload = harness.WORKLOADS["batch-replay"]
    state = workload.setup(path)
    wrong = [harness.Item(i.uri, (i.expected or 0) + 1) for i in items[:5]]
    assert harness.run_passes(workload, state, wrong).failures == 5


def test_fixture_gate(monkeypatch):
    run.check_fixture()
    monkeypatch.setattr(run, "MEMENTOWEB_RESPONSE", run.MEMENTOWEB_RESPONSE.replace(b"2009", b"2008"))
    with pytest.raises(run.BenchmarkError):
        run.check_fixture()


def test_metric_names_match_benchmark_json(tmp_path, monkeypatch):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    world, path, items = prepared("default", tmp_path)
    Path(path).rename(tmp_path / "cassette.jsonl")
    workload = harness.WORKLOADS["batch-replay"]
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "WARMUP_S", 0.0)
    monkeypatch.setattr(measure, "MIN_TIMED_URIS", 20)
    monkeypatch.setattr(workload, "trace_uris", 20)
    _, failed, e2e, _ = measure.end_to_end(workload, items, tmp_path, 0.0)
    assert failed == 0
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    _, failed, layers, _ = measure.per_layer(workload, items, tmp_path, world)
    assert failed == 0
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
