#!/usr/bin/env python3
"""One SHA-256 over everything carbondate outputs for three fixed inputs.

    PYTHONPATH=src python3 scripts/output_digest.py [--n 400] [--deep-n 150]

The inputs are ``generate_world(seed=7, n)``, the benchmark's deep-backlinks
world (seed 7, ``--deep-n`` resources, built by ``perfbench/worlds.py``)
and ``fixtures/mementoweb.jsonl``. For each, the digest covers the bytes
of the cassette as saved, and again after ``Cassette.load`` of that file
and a second save. Every URI then runs through the loaded cassette three
times: inline on ``ReplayTransport``, and twice through a wrapper that
blocks, so the probes fan out to the executor with a different thread
interleaving each time. Each pass adds every ``EvidenceResult`` and both
report styles. The passes must agree, or the script exits 1.

Two checkouts give the same digest exactly when their outputs are byte
for byte the same. The last stdout line is the hex digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from carbondate.aggregate import REPORT_STYLES, aggregate, render_report  # noqa: E402
from carbondate.core import PlausibilityWindow, normalize_uri  # noqa: E402
from carbondate.replay import Cassette, ReplayTransport  # noqa: E402
from carbondate.sources import SourceContext, gather_evidence  # noqa: E402
from carbondate.synth import generate_world  # noqa: E402

from worlds import build_world  # noqa: E402

SEED = 7
FIXTURE = ROOT / "fixtures" / "mementoweb.jsonl"
FIXTURE_URIS = ["http://www.mementoweb.org"]


class BlockingTransport:
    """The inner transport without its ``blocking = False``, so probes fan out."""

    def __init__(self, inner):
        self.request = inner.request


def result_line(e) -> bytes:
    fields = [e.method, e.status, e.estimate, e.granularity, e.detail, e.error,
              sorted(e.flags)]
    return json.dumps(fields).encode() + b"\n"


def replay_pass(transport, cassette: Cassette, uris: list[str]) -> bytes:
    ctx = SourceContext(transport=transport, window=PlausibilityWindow(now=cassette.recorded_at))
    out = []
    for raw in uris:
        uri = normalize_uri(raw)
        evidence = gather_evidence(uri, ctx)
        out += [result_line(e) for e in evidence]
        estimate = aggregate(uri, evidence)
        for style in sorted(REPORT_STYLES):
            out.append(json.dumps(render_report(estimate, style)).encode() + b"\n")
    return b"".join(out)


def digest_input(h, name: str, cassette: Cassette, uris: list[str], tmp: Path) -> None:
    saved, again = tmp / f"{name}.jsonl", tmp / f"{name}-again.jsonl"
    cassette.save(str(saved))
    loaded = Cassette.load(str(saved))
    loaded.save(str(again))
    h.update(saved.read_bytes())
    h.update(again.read_bytes())

    replay = ReplayTransport(loaded)
    inline = replay_pass(replay, loaded, uris)
    for attempt in (1, 2):
        blocking = replay_pass(BlockingTransport(replay), loaded, uris)
        if blocking != inline:
            raise SystemExit(f"error: {name}: blocking pass {attempt} differs from the inline one")
        h.update(blocking)
    h.update(inline)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=400, help="generate_world size")
    parser.add_argument("--deep-n", type=int, default=150, help="deep world size")
    args = parser.parse_args(argv)

    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = [
            ("default", generate_world(seed=SEED, n=args.n)),
            ("deep-backlinks", build_world("deep-backlinks", SEED, args.deep_n)),
        ]
        for name, (world, cassette) in inputs:
            uris = [r.uri for r in world.resources]
            digest_input(h, name, cassette, uris, Path(tmp))
        fixture = Cassette.load(str(FIXTURE))
        digest_input(h, "mementoweb", fixture, FIXTURE_URIS, Path(tmp))
    print(h.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
