"""Benchmark inputs: the default synthetic world and a deep-backlinks variant.

The deep world starts from ``generate_world`` and gives every resource that
has a backlink ``EXTRA_BACKLINKS`` more backlink pages, each with a
``DEEP_CAPTURES``-capture history. ``query_backlinks`` walks backlinks one
after another and binary-searches each history, so these URIs need about
``1 + (1 + 2..3) + 3 * (1 + 5..6)`` sequential requests instead of 4. Every
extra page first links to the target strictly after the original backlink
does, so the estimate and the identity
``estimate == true_creation + min(present lags)`` are unchanged.

Only public types of the program are used to build it.
"""

from __future__ import annotations

import json
import random
from datetime import datetime, timezone

from carbondate.core import render_http_date
from carbondate.replay import Cassette, HttpResponse, Interaction, match_key
from carbondate.sources import Endpoints
from carbondate.synth import SyntheticWorld, generate_world

DAY = 86400
EXTRA_BACKLINKS = 3
DEEP_CAPTURES = 32
CAPTURE_SPACING_S = 3 * DAY

LINK_FORMAT = {"Content-Type": "application/link-format"}
HTML = {"Content-Type": "text/html"}


def _ts14(t: int) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y%m%d%H%M%S")


def _capture_uri(page: str, t: int) -> str:
    return f"http://archive.example.org/web/{_ts14(t)}/{page}"


def _timemap(page: str, times: list[int]) -> str:
    lines = [f'<{page}>;rel="original"']
    lines += [
        f'<{_capture_uri(page, t)}>;rel="memento";datetime="{render_http_date(t)}"'
        for t in times
    ]
    return ",\n".join(lines)


def _put(cassette: Cassette, url: str, response: HttpResponse) -> None:
    """Insert or replace the GET recording for url."""
    cassette.entries[match_key("GET", url)] = Interaction(
        method="GET", url=url, response=response
    )


def deepen_backlinks(
    world: SyntheticWorld, cassette: Cassette, seed: int, endpoints: Endpoints
) -> None:
    """Add the extra backlink pages to the cassette in place."""
    rng = random.Random(f"deep-backlinks/{seed}")
    for k, truth in enumerate(world.resources):
        lag = truth.lags.get("backlinks")
        if lag is None:
            continue
        first_link = truth.true_creation + lag
        listing_url = endpoints.backlinks_url(truth.uri)
        listing = json.loads(cassette.lookup("GET", listing_url).response.body)
        for j in range(EXTRA_BACKLINKS):
            page = f"http://deep{j}.links{k:04d}.example.net/post"
            link_at = first_link + (j + 1) * DAY
            before = rng.randint(1, DEEP_CAPTURES - 1)
            times = [
                link_at + (i - before) * CAPTURE_SPACING_S
                for i in range(DEEP_CAPTURES)
            ]
            _put(
                cassette,
                endpoints.timemap_url(page),
                HttpResponse(200, dict(LINK_FORMAT), _timemap(page, times)),
            )
            for t in times:
                if t >= link_at:
                    href = f"/web/{_ts14(t)}/{truth.uri}"
                    body = f'<html><body><p>post</p><a href="{href}">ref</a></body></html>'
                else:
                    body = "<html><body><p>post</p></body></html>"
                _put(cassette, _capture_uri(page, t), HttpResponse(200, dict(HTML), body))
            listing["backlinks"].append(page)
        _put(
            cassette,
            listing_url,
            HttpResponse(200, {"Content-Type": "application/json"}, json.dumps(listing)),
        )


def build_world(kind: str, seed: int, n: int) -> tuple[SyntheticWorld, Cassette]:
    """The world a workload runs on: "default" or "deep-backlinks"."""
    world, cassette = generate_world(seed=seed, n=n)
    if kind == "deep-backlinks":
        deepen_backlinks(world, cassette, seed, Endpoints())
    elif kind != "default":
        raise ValueError(f"unknown world kind: {kind!r}")
    return world, cassette
