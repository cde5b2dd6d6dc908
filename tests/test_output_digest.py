from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
# Every output at the sizes below, byte for byte. A change that means to
# alter an output updates this digest and says which output and why.
SMALL_DIGEST = "450ffd0990ad3f2ef18ebb834641dbca085500e2c8bd9535c90b43d0536dfa1a"


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
    assert first == SMALL_DIGEST
