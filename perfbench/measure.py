"""Measure one workload on a world that ``run.py`` wrote, in a fresh process.

    python3 perfbench/measure.py --workload NAME --dir WORLD_DIR --seconds S --trace 0|1

The world was generated by another process, so the peak RSS reported here
is the program's alone. With --trace 0 it prints the end-to-end metrics of
an untraced run; with --trace 1 the per-layer metrics of one traced pass
over a fixed sample of URIs, next to an untraced pass over the same sample
for the tracing overhead, and one recorded pass over the sample for the
replay write path. The last stdout line is
``{"attempted": .., "failed": .., "metrics": {name: value}, "segments": [..]}``,
segments holding the per-segment figures the end-to-end medians come from.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from carbondate.core import normalize_uri, truncate_to_day  # noqa: E402
from carbondate.evaluation import ablate, build_record, summarize  # noqa: E402
from carbondate.sources import ALL_METHODS  # noqa: E402
from carbondate.synth import SyntheticWorld  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 7
# The first seconds of a busy process run faster on a shared host; time
# only after them.
WARMUP_S = 2.0
# p99 then has at least ten samples beyond it.
MIN_TIMED_URIS = 1000


def repeated_setup(workload, world_dir: Path) -> tuple[object, list[float]]:
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None
        gc.collect()
        t0 = perf_counter()
        state = workload.setup(str(world_dir / "cassette.jsonl"))
        times.append(perf_counter() - t0)
    return state, times


def warm_up(workload, state, items) -> harness.LoopResult:
    return harness.run_passes(workload, state, items, min_seconds=WARMUP_S, min_uris=1)


def segment_metrics(timed: harness.LoopResult) -> dict[str, float]:
    lat_ms = [x * 1000.0 for x in timed.latencies]
    return {
        "uris_per_s": (len(lat_ms) - timed.failures) / timed.busy_s,
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p99_ms": statistics.quantiles(lat_ms, n=100, method="inclusive")[98],
    }


def end_to_end(workload, items, world_dir: Path, seconds: float):
    """Medians over the workload's segments, each seconds/segments long and
    at least MIN_TIMED_URIS URIs, so one burst of load on the machine moves
    one segment and not the result."""
    state, setup_times = repeated_setup(workload, world_dir)
    warm = warm_up(workload, state, items)
    segments = [
        harness.run_passes(
            workload, state, items,
            min_seconds=seconds / workload.segments, min_uris=MIN_TIMED_URIS,
        )
        for _ in range(workload.segments)
    ]
    per_segment = [segment_metrics(s) for s in segments]
    metrics = {name: statistics.median(m[name] for m in per_segment) for name in per_segment[0]}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs = [warm] + segments
    attempted = sum(len(r.latencies) for r in runs)
    return attempted, sum(r.failures for r in runs), metrics, per_segment


def evaluation_busy_s(spans, world: SyntheticWorld) -> float:
    """summarize plus one ablate per method over the pass's evidence, as
    carbondate-eval computes them."""
    days = {str(normalize_uri(r.uri)): truncate_to_day(r.true_creation) for r in world.resources}
    records = []
    for s in spans:
        if s.name == "sources.gather":
            uri, evidence = s.info
            estimates = {e.method: e.estimate for e in evidence}
            records.append(build_record(str(uri), days[str(uri)], estimates))
    t0 = perf_counter()
    summarize(records)
    for method in sorted(ALL_METHODS):
        ablate(records, method)
    return perf_counter() - t0


def write_spans(spans, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for s in spans:
            info = s.info if isinstance(s.info, (int, str)) else None
            f.write(json.dumps([s.sid, s.parent, s.trace, s.name, s.t0, s.t1, info]) + "\n")


def per_layer(workload, items, world_dir: Path, world: SyntheticWorld):
    setup_tracer = tracing.Tracer()
    with tracing.instrument(setup_tracer):
        state, _ = repeated_setup(workload, world_dir)
    loads = [s.duration for s in setup_tracer.spans if s.name == "replay.load"]

    sample = items[: workload.trace_uris]
    warm = warm_up(workload, state, items)
    plain = harness.run_passes(workload, state, sample)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = harness.run_passes(workload, state, sample, tracer)

    recording = tracing.Tracer()
    record_failed = harness.record_pass(
        state, sample, str(world_dir / "recorded.jsonl"), recording
    )

    metrics = {"replay.load_s": statistics.median(loads)}
    metrics.update(tracing.layer_metrics(tracer.spans))
    metrics["replay.record_busy_s"] = tracing.self_time(recording.spans, "replay.record")
    metrics["replay.save_s"] = tracing.self_time(recording.spans, "replay.save")
    metrics["evaluation.busy_s"] = evaluation_busy_s(tracer.spans, world)
    metrics["trace.overhead_frac"] = traced.busy_s / plain.busy_s - 1.0
    runs = (warm, plain, traced)
    attempted = sum(len(r.latencies) for r in runs) + len(sample)
    failed = sum(r.failures for r in runs) + record_failed
    metrics["failed_frac"] = failed / attempted
    write_spans(tracer.spans, world_dir / "spans.jsonl")
    return attempted, failed, metrics, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    workload = harness.WORKLOADS[args.workload]
    world = SyntheticWorld.load(str(args.dir / "world.json"))
    items = [harness.Item(r.uri, r.expected_estimate()) for r in world.resources]
    if args.trace:
        attempted, failed, metrics, segments = per_layer(workload, items, args.dir, world)
    else:
        attempted, failed, metrics, segments = end_to_end(
            workload, items, args.dir, args.seconds
        )
    print(json.dumps(
        {"attempted": attempted, "failed": failed, "metrics": metrics, "segments": segments}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
