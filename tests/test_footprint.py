"""The serve and batch paths load neither numpy nor the live-fetch and
server modules: numpy is needed only by ``carbondate-eval``'s scoring."""

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
