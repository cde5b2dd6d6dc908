"""The serve, batch, make-world and carbondate-eval paths run without
numpy, and serve and batch load neither the live-fetch nor the server
modules: numpy is needed only by ``evaluation.polyfit2``."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from conftest import MEMENTOWEB_CASSETTE, REPO_ROOT

# The published response for the fixture, as the service encodes it.
PUBLISHED = {
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

# Runs in a fresh interpreter where any numpy import raises ImportError.
CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
fixture, uris_file = sys.argv[1:]

from carbondate import cli
from carbondate.service import ServiceConfig, make_app

batch_out = io.StringIO()
with contextlib.redirect_stdout(batch_out):
    rc = cli.main(["batch", "--replay", fixture, uris_file])

seen = []
app = make_app(ServiceConfig(mode="replay", cassette_path=fixture))
environ = {"PATH_INFO": "/cd/http://www.mementoweb.org", "QUERY_STRING": "",
           "REQUEST_METHOD": "GET"}
body = b"".join(app(environ, lambda status, headers: seen.append(status)))

print(json.dumps({
    "rc": rc,
    "batch": batch_out.getvalue(),
    "status": seen,
    "body": body.decode("utf-8"),
    "loaded": sorted(
        name for name, mod in sys.modules.items()
        if mod is not None
        and name.split(".")[0] in ("numpy", "requests", "wsgiref")
    ),
}))
"""


def test_batch_and_app_run_without_numpy(tmp_path):
    uris = tmp_path / "uris.txt"
    uris.write_text("http://www.mementoweb.org\n")
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(MEMENTOWEB_CASSETTE), str(uris)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rc"] == 0
    assert got["batch"] == json.dumps(PUBLISHED) + "\n"
    assert got["status"] == ["200 OK"]
    assert got["body"] == json.dumps(PUBLISHED, indent=2)
    assert got["loaded"] == []


# make-world, then carbondate-eval on that world, where any numpy import
# raises ImportError.
EVAL_CHILD = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
out_dir, = sys.argv[1:]

from carbondate import cli

with contextlib.redirect_stdout(io.StringIO()):
    world_rc = cli.main(["make-world", "--seed", "7", "--n", "30", "--out", out_dir])
eval_out = io.StringIO()
with contextlib.redirect_stdout(eval_out):
    eval_rc = cli.eval_main([
        "--world", out_dir + "/world.json", "--replay", out_dir + "/cassette.jsonl",
        "--ablate", "social",
    ])

print(json.dumps({
    "rc": [world_rc, eval_rc],
    "summary": json.loads(eval_out.getvalue()),
    "numpy": "numpy" in sys.modules and sys.modules["numpy"] is not None,
}))
"""


def test_eval_runs_without_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", EVAL_CHILD, str(tmp_path / "world")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rc"] == [0, 0]
    assert not got["numpy"]
    summary = got["summary"]
    assert summary["n"] == 30
    assert summary["auc"] > 0
    social = summary["ablations"]["social"]
    assert social["auc_full"] == summary["auc"]
    assert social["auc"] is not None
