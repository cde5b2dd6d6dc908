#!/usr/bin/env python3
"""Interleaved A/B timing of the ``carbondate batch`` path on two source trees.

    python3 scripts/ab_batch.py SRC_A SRC_B [--rounds 10] [--n 2000]

SRC_A and SRC_B are directories that hold a ``carbondate`` package, such
as the ``src`` of two checkouts. The world ``generate_world(seed=7, n)`` is
built once with SRC_A and its cassette written to a temporary directory.
Each round then runs one child process per tree, and the tree that goes
first alternates from round to round, so a change in host load falls on
both sides. A child loads the cassette as ``carbondate batch --replay``
does, makes one warm-up pass and ``PASSES`` timed passes over every URI
(``normalize_uri``, ``gather_evidence``, ``aggregate``, ``render_report``),
and checks each estimate against the world's identity.

A child also times its ``build_context``, which loads the cassette
(``load_s``). Each round prints both trees' URI/s, p99 latency and load
time; the end prints the medians of the three, the ratio B/A and how many
rounds B won (higher URI/s, lower p99 and ``load_s``). The exit code is 1
when a child fails or any estimate is wrong.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

SEED = 7
PASSES = 3


def child(src: str, world_dir: Path) -> dict:
    """Time the batch path of the tree at src; runs in its own process."""
    sys.path.insert(0, src)
    from carbondate.aggregate import aggregate, render_report
    from carbondate.core import normalize_uri
    from carbondate.service import ServiceConfig, build_context
    from carbondate.sources import gather_evidence

    config = ServiceConfig(mode="replay", cassette_path=str(world_dir / "cassette.jsonl"))
    t0 = perf_counter()
    ctx = build_context(config)
    load_s = perf_counter() - t0
    items = json.loads((world_dir / "items.json").read_text())

    def one(raw: str, expected) -> bool:
        uri = normalize_uri(raw)
        evidence = gather_evidence(uri, ctx, enabled=config.enabled_methods)
        estimate = aggregate(uri, evidence)
        json.dumps(render_report(estimate, style=config.report_style))
        return estimate.estimated == expected

    wrong = sum(not one(raw, expected) for raw, expected in items)
    latencies = []
    t0 = perf_counter()
    for _ in range(PASSES):
        for raw, expected in items:
            start = perf_counter()
            ok = one(raw, expected)
            latencies.append(perf_counter() - start)
            wrong += not ok
    busy = perf_counter() - t0
    return {
        "uris_per_s": len(latencies) / busy,
        "p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1000.0,
        "load_s": load_s,
        "wrong": wrong,
    }


def build(src: str, n: int, world_dir: Path) -> None:
    sys.path.insert(0, src)
    from carbondate.synth import generate_world

    world, cassette = generate_world(seed=SEED, n=n)
    cassette.save(str(world_dir / "cassette.jsonl"))
    items = [[r.uri, r.expected_estimate()] for r in world.resources]
    (world_dir / "items.json").write_text(json.dumps(items))


def run_child(src: str, world_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, src, src, "--child", str(world_dir)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", metavar="SRC_A")
    parser.add_argument("src_b", metavar="SRC_B")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--n", type=int, default=2000, help="generate_world size")
    # A child process times SRC_A on the world already written to this directory.
    parser.add_argument("--child", metavar="WORLD_DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.src_a, args.child)))
        return 0
    srcs = {"A": str(Path(args.src_a).resolve()), "B": str(Path(args.src_b).resolve())}
    for name, src in srcs.items():
        if not (Path(src) / "carbondate" / "__init__.py").is_file():
            parser.error(f"SRC_{name} holds no carbondate package: {src}")

    runs: dict[str, list[dict]] = {"A": [], "B": []}
    with tempfile.TemporaryDirectory() as tmp:
        world_dir = Path(tmp)
        build(srcs["A"], args.n, world_dir)
        for r in range(args.rounds):
            for side in ("AB" if r % 2 == 0 else "BA"):
                runs[side].append(run_child(srcs[side], world_dir))
            a, b = runs["A"][-1], runs["B"][-1]
            print(
                f"round {r + 1:2}: A {a['uris_per_s']:8.0f} uri/s p99 {a['p99_ms']:6.3f} ms"
                f" load {a['load_s']:6.3f} s | B {b['uris_per_s']:8.0f} uri/s"
                f" p99 {b['p99_ms']:6.3f} ms load {b['load_s']:6.3f} s"
            )

    for metric, unit, b_wins in (
        ("uris_per_s", "uri/s", lambda a, b: b > a),
        ("p99_ms", "ms", lambda a, b: b < a),
        ("load_s", "s", lambda a, b: b < a),
    ):
        a_vals = [x[metric] for x in runs["A"]]
        b_vals = [x[metric] for x in runs["B"]]
        med_a, med_b = statistics.median(a_vals), statistics.median(b_vals)
        wins = sum(b_wins(a, b) for a, b in zip(a_vals, b_vals))
        print(
            f"median {metric}: A {med_a:.3f} {unit}, B {med_b:.3f} {unit},"
            f" B/A x{med_b / med_a:.3f}, B better in {wins}/{args.rounds} rounds"
        )
    wrong = sum(x["wrong"] for side in runs.values() for x in side)
    if wrong:
        print(f"error: {wrong} estimates broke the world's identity", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
