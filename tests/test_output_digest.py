from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_digest(hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "output_digest.py"),
         "--n", "30", "--deep-n", "10"],
        check=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONHASHSEED": hash_seed},
    )
    return proc.stdout.strip().splitlines()[-1]


def test_digest_is_reproducible():
    # Two string-hash seeds: set and dict orders that depend on them must
    # not reach the digest.
    first, second = run_digest("1"), run_digest("2")
    assert re.fullmatch(r"[0-9a-f]{64}", first)
    assert first == second
