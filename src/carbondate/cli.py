"""Command-line entry points: the service, batch estimation, and the
evaluation harness."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .aggregate import REPORT_STYLES, aggregate, render_report
from .core import (
    MalformedUri,
    normalize_uri,
    parse_iso_timestamp,
    truncate_to_day,
)
from .evaluation import (
    ablate,
    build_record,
    load_gold,
    records_to_jsonl,
    sorted_deltas_csv,
    summarize,
)
from .service import ServiceConfig, build_context, serve
from .sources import ALL_METHODS, gather_evidence
from .synth import SyntheticWorld, generate_world


def _config_from_args(args) -> ServiceConfig:
    kwargs = {}
    config_path = os.environ.get("CARBONDATE_CONFIG")
    if config_path:
        with open(config_path, "r", encoding="utf-8") as f:
            kwargs.update(json.load(f))
    if getattr(args, "listen", None) is not None:
        kwargs["listen"] = args.listen
    if getattr(args, "sources", None) is not None:
        kwargs["enabled_methods"] = args.sources.split(",")
    if getattr(args, "timeout_ms", None) is not None:
        kwargs["timeout_ms"] = args.timeout_ms
    if getattr(args, "replay", None) is not None:
        kwargs["mode"] = "replay"
        kwargs["cassette_path"] = args.replay
    elif getattr(args, "record", None) is not None:
        kwargs["mode"] = "record"
        kwargs["cassette_path"] = args.record
    if getattr(args, "now", None) is not None:
        kwargs["now_override"] = parse_iso_timestamp(args.now)
    if getattr(args, "format", None):
        kwargs["report_style"] = args.format
    return ServiceConfig(**kwargs)


def _add_transport_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sources", help="comma-separated method names")
    parser.add_argument("--timeout-ms", type=int, dest="timeout_ms")
    cassette = parser.add_mutually_exclusive_group()
    cassette.add_argument("--replay", metavar="PATH", help="replay from cassette")
    cassette.add_argument("--record", metavar="PATH", help="record into cassette")
    parser.add_argument("--now", help="clock override, ISO 8601")
    parser.add_argument("--format", choices=list(REPORT_STYLES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carbondate",
        description="Estimate the creation date of web resources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_serve = sub.add_parser("serve", help="run the web API")
    p_serve.add_argument("--listen", default=None, help="host:port")
    _add_transport_flags(p_serve)

    p_batch = sub.add_parser("batch", help="estimate URIs from a file")
    p_batch.add_argument("input", help="file with one URI per line")
    p_batch.add_argument("--out", help="output JSON-lines file (default stdout)")
    _add_transport_flags(p_batch)

    p_world = sub.add_parser("make-world", help="generate a synthetic world")
    p_world.add_argument("--seed", type=int, default=1)
    p_world.add_argument("--n", type=int, default=200)
    p_world.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)

    if args.command == "serve":
        try:
            config = _config_from_args(args)
            ctx = build_context(config)
            serve(config, ctx)  # OSError when the address cannot be bound
        except (OSError, TypeError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.command == "batch":
        return _run_batch(args)
    if args.command == "make-world":
        out = Path(args.out)
        try:
            world, cassette = generate_world(seed=args.seed, n=args.n)
            out.mkdir(parents=True, exist_ok=True)
            world.save(str(out / "world.json"))
            cassette.save(str(out / "cassette.jsonl"))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {out / 'world.json'} and {out / 'cassette.jsonl'}")
        return 0
    return 2


def _run_batch(args) -> int:
    try:
        config = _config_from_args(args)
        with open(args.input, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
        ctx = build_context(config)
        sink = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except (OSError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        for raw in lines:
            try:
                uri = normalize_uri(raw)
                evidence = gather_evidence(uri, ctx, enabled=config.enabled_methods)
                report = render_report(
                    aggregate(uri, evidence), style=config.report_style
                )
            except MalformedUri as exc:
                report = {"input": raw, "error": str(exc)}
            sink.write(json.dumps(report) + "\n")
    finally:
        try:
            if args.out:
                sink.close()
        finally:
            # Saved however the loop ends, so an interrupt keeps what was
            # captured before it.
            if config.mode == "record":
                ctx.transport.save(config.cassette_path)
    return 0


def eval_main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="carbondate-eval",
        description="Score estimates against ground truth",
    )
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gold", metavar="FILE", help="gold CSV (uri,real_date,category)")
    group.add_argument("--world", metavar="FILE", help="synthetic world descriptor")
    parser.add_argument("--replay", metavar="PATH", required=True)
    parser.add_argument(
        "--ablate", action="append", default=[], metavar="METHOD",
        help="also report with METHOD disabled (repeatable)",
    )
    parser.add_argument("--now", help="clock override, ISO 8601")
    parser.add_argument("--out", metavar="DIR", help="write reports here")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ablate) - ALL_METHODS)
    if unknown:
        print(f"error: unknown --ablate methods: {unknown}", file=sys.stderr)
        return 1

    try:
        config = ServiceConfig(
            mode="replay",
            cassette_path=args.replay,
            now_override=None if args.now is None else parse_iso_timestamp(args.now),
        )
        ctx = build_context(config)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        if args.world:
            world = SyntheticWorld.load(args.world)
            truths = [(r.uri, truncate_to_day(r.true_creation)) for r in world.resources]
        else:
            gold = load_gold(args.gold, ctx.window)
            truths = [(str(g.uri), g.real_date) for g in gold]
        truths = [(normalize_uri(raw), real) for raw, real in truths]
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # FormatError, MalformedUri too
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = []
    statuses = {m: {"ok": 0, "empty": 0, "error": 0} for m in sorted(ALL_METHODS)}
    for uri, real in truths:
        evidence = gather_evidence(uri, ctx)
        for e in evidence:
            statuses[e.method][e.status] += 1
        estimates = {e.method: e.estimate for e in evidence}
        records.append(build_record(str(uri), real, estimates))

    summary = summarize(records)
    for method in args.ablate:
        summary.ablations[method] = ablate(records, method)

    summary_json = json.dumps({**summary.to_json(), "statuses": statuses}, indent=2)
    if args.out:
        out = Path(args.out)
        (out / "summary.json").write_text(summary_json + "\n", encoding="utf-8")
        (out / "records.jsonl").write_text(
            records_to_jsonl(records), encoding="utf-8"
        )
        (out / "deltas.csv").write_text(
            sorted_deltas_csv(records), encoding="utf-8"
        )
    print(summary_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
