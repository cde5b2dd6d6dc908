from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_tree_against_itself():
    src = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "ab_batch.py"), src, src,
         "--rounds", "2", "--n", "12"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "round  1", "round  2", "median uris_per_s", "median p99_ms", "median load_s",
    ]
    for line in lines[2:]:
        assert re.search(r"B better in [0-2]/2 rounds$", line)
