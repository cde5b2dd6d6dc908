from __future__ import annotations

from pathlib import Path

import pytest

from carbondate.core import PlausibilityWindow, parse_iso_timestamp

REPO_ROOT = Path(__file__).resolve().parent.parent
MEMENTOWEB_CASSETTE = REPO_ROOT / "fixtures" / "mementoweb.jsonl"

# Clock for tests that replay 2013-era fixtures.
NOW_2013 = parse_iso_timestamp("2013-03-01T04:44:47")


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.fixture
def window() -> PlausibilityWindow:
    return PlausibilityWindow(now=NOW_2013)


@pytest.fixture
def mementoweb_cassette_path() -> str:
    assert MEMENTOWEB_CASSETTE.exists(), "run scripts/make_mementoweb_cassette.py"
    return str(MEMENTOWEB_CASSETTE)
