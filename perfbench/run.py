"""Offline benchmark of carbondate: seeded inputs, checked answers, named metrics.

    python3 perfbench/run.py --workload batch-replay --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

For each workload this builds the seeded synthetic world, writes it under
``.bench_out/``, and measures it in a child process (``measure.py``), so
memory is the program's own. ``--trace 0`` gives the end-to-end metrics,
``--trace 1`` the per-layer ones; ``all`` runs every workload both ways.
Every URI is checked against the world's identity, and once per invocation
``fixtures/mementoweb.jsonl`` served through ``make_app`` must reproduce the
published response byte for byte.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``); a ``provenance``
line before it records the code, interpreter, machine and inputs. The exit
code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import monotonic

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
FIXTURE = ROOT / "fixtures" / "mementoweb.jsonl"
DEFAULT_SEED = 7
# One workload run, world building included, must end within 180 s.
RUN_BUDGET_S = 165.0

# The response published for the fixture, as the service must serve it.
MEMENTOWEB_RESPONSE = b"""{
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
      "webarchive.nationalarchives.gov.uk": "2010-04-02T00:00:00"
    }
  }
}"""


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a checked result."""


def git_commit() -> str:
    """HEAD of the repository holding the benchmark, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_fixture() -> None:
    from carbondate.service import ServiceConfig, make_app

    import harness

    app = make_app(ServiceConfig(mode="replay", cassette_path=str(FIXTURE)))
    status, body = harness.wsgi_get(app, "/cd/http://www.mementoweb.org")
    if status != 200 or body != MEMENTOWEB_RESPONSE:
        raise BenchmarkError(
            f"fixture response differs from the published one (HTTP {status}):\n"
            + body.decode("utf-8", "replace")
        )


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    import harness
    import worlds

    deadline = monotonic() + RUN_BUDGET_S
    workload = harness.WORKLOADS[name]
    world_dir = OUT_DIR / f"{name}-seed{seed}"
    world_dir.mkdir(parents=True, exist_ok=True)
    world, cassette = worlds.build_world(workload.world, seed, workload.n)
    world.save(str(world_dir / "world.json"))
    cassette.save(str(world_dir / "cassette.jsonl"))
    del world, cassette

    cmd = [
        sys.executable, str(BENCH_DIR / "measure.py"), "--workload", name,
        "--dir", str(world_dir), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, timeout=max(deadline - monotonic(), 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name}: measurement did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{name}: measurement exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["provenance"] = {
        "workload": name,
        "trace": trace,
        "seed": seed,
        "world": workload.world,
        "world_size": workload.n,
        "upstream_delay_ms": workload.delay_s * 1000.0,
        "clients": workload.clients,
        "seconds": seconds,
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    (world_dir / f"result-trace{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "carbondate" / "__init__.py").is_file() or not FIXTURE.is_file():
        print("error: the program (src/carbondate) or its fixture is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        runs = [(name, trace) for name in names for trace in (0, 1)]
    elif args.workload in names:
        runs = [(args.workload, args.trace)]
    else:
        parser.error(f"--workload must be one of {names} or all")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        check_fixture()
        results = [
            (name, trace, measure(name, args.seed, args.seconds, trace))
            for name, trace in runs
        ]
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    correct = True
    metrics = {}
    for name, trace, result in results:
        print("provenance " + json.dumps(result["provenance"], sort_keys=True))
        if set(result["metrics"]) != set(units[trace]):
            print(f"error: {name} metrics differ from BENCHMARK.json", file=sys.stderr)
            correct = False
        correct = correct and result["failed"] == 0
        for metric, unit in units[trace].items():
            value = result["metrics"].get(metric)
            print(f"{name:24} {metric:34} {value!r:>24} {unit}")
            key = metric if len(runs) == 1 else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": unit}
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for _, _, r in results),
        "failed": sum(r["failed"] for _, _, r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
