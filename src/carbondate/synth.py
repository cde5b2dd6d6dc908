"""Synthetic worlds: resources with known creation dates plus a cassette
presenting all six upstream wire formats consistently.

Every generated source timestamp is exactly true_creation + lag, so a
replayed run has a closed-form expected outcome: the estimate equals the
creation time plus the smallest present-source lag. Creation times sit on
UTC midnights and day-granularity lags are whole days, which keeps that
identity exact even for the day-granularity search-index source.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timezone
from typing import Optional

from .core import (
    PlausibilityWindow,
    day_to_timestamp,
    parse_iso_timestamp,
    render_http_date,
    render_iso_timestamp,
    truncate_to_day,
)
from .replay import Cassette, HttpResponse, Interaction
from .sources import ALL_METHODS, Endpoints

DAY = 86400


class InvalidLagModel(ValueError):
    """Lag bounds negative, inverted, or probability outside [0, 1]."""


@dataclass(frozen=True)
class SourceLagModel:
    """How one evidence source lags behind resource creation.

    absence_prob is the chance the source has no record at all; lags are
    drawn uniformly from [min_lag_s, max_lag_s]. whole_days forces lags to
    day multiples (required for the day-granularity search index).
    """

    absence_prob: float
    min_lag_s: int
    max_lag_s: int
    whole_days: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.absence_prob <= 1.0:
            raise InvalidLagModel(f"absence_prob out of [0,1]: {self.absence_prob}")
        if self.min_lag_s < 0 or self.max_lag_s < 0:
            raise InvalidLagModel("lag bounds must be non-negative")
        if self.min_lag_s > self.max_lag_s:
            raise InvalidLagModel("min lag exceeds max lag")

    def draw(self, rng: random.Random) -> Optional[int]:
        if rng.random() < self.absence_prob:
            return None
        if self.whole_days:
            lo, hi = -(-self.min_lag_s // DAY), self.max_lag_s // DAY
            if lo > hi:
                raise InvalidLagModel("whole-day range empty for given bounds")
            return rng.randint(lo, hi) * DAY
        return rng.randint(self.min_lag_s, self.max_lag_s)


def default_lag_models() -> dict[str, SourceLagModel]:
    # Archive lag runs from a few hours up to more than a year; social
    # reaction is minutes to days.
    return {
        "archives": SourceLagModel(0.30, 4 * 3600, 400 * DAY),
        "last_modified": SourceLagModel(0.40, 0, 500 * DAY),
        "shortener": SourceLagModel(0.50, 600, 30 * DAY),
        "social": SourceLagModel(0.40, 60, 3 * DAY),
        "search_index": SourceLagModel(0.40, DAY, 30 * DAY, whole_days=True),
        "backlinks": SourceLagModel(0.70, DAY, 300 * DAY),
    }


@dataclass(frozen=True)
class ResourceTruth:
    uri: str
    true_creation: int  # midnight UTC
    lags: dict[str, Optional[int]]  # method -> seconds, None when absent

    def expected_estimate(self) -> Optional[int]:
        present = [lag for lag in self.lags.values() if lag is not None]
        if not present:
            return None
        return self.true_creation + min(present)


@dataclass
class SyntheticWorld:
    seed: int
    now: int
    resources: list[ResourceTruth] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "now": render_iso_timestamp(self.now),
            "resources": [
                {
                    "uri": r.uri,
                    "true_creation": render_iso_timestamp(r.true_creation),
                    "lags": r.lags,
                }
                for r in self.resources
            ],
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_json(), f, indent=2)

    @classmethod
    def load(cls, path: str) -> "SyntheticWorld":
        """The world saved at path; ValueError for a file that is not one."""
        with open(path, "r", encoding="utf-8") as f:
            obj = json.load(f)
        try:
            world = cls(seed=obj["seed"], now=parse_iso_timestamp(obj["now"]))
            for r in obj["resources"]:
                world.resources.append(
                    ResourceTruth(
                        uri=r["uri"],
                        true_creation=parse_iso_timestamp(r["true_creation"]),
                        lags={m: lag for m, lag in r["lags"].items()},
                    )
                )
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValueError(f"malformed world {path}: {exc!r}") from exc
        return world


def _ts14(t: int) -> str:
    return datetime.fromtimestamp(t, tz=timezone.utc).strftime("%Y%m%d%H%M%S")


def _capture_uri(page: str, t: int) -> str:
    return f"http://archive.example.org/web/{_ts14(t)}/{page}"


def _timemap_body(original: str, times: list[int]) -> str:
    """Render a link-format timemap with one capture of original per time."""
    lines = [f'<{original}>;rel="original"']
    last = len(times) - 1
    for i, t in enumerate(times):
        rel = "first memento" if i == 0 else "last memento" if i == last else "memento"
        capture = _capture_uri(original, t)
        lines.append(f'<{capture}>;rel="{rel}";datetime="{render_http_date(t)}"')
    return ",\n".join(lines)


def put(
    cassette: Cassette,
    url: str,
    body,
    content_type: str = "application/json",
    *,
    method: str = "GET",
    headers: Optional[dict[str, str]] = None,
) -> None:
    """Add a 200 answer whose headers start with Content-Type; encode a JSON body."""
    if content_type == "application/json":
        body = json.dumps(body)
    headers = {"Content-Type": content_type, **(headers or {})}
    response = HttpResponse(status=200, headers=headers, body=body)
    cassette.add(Interaction(method=method, url=url, response=response))


def generate_world(
    seed: int,
    n: int,
    models: Optional[dict[str, SourceLagModel]] = None,
) -> tuple[SyntheticWorld, Cassette]:
    """Deterministically build n resources and the cassette describing them."""
    if n < 1:
        raise ValueError("n must be >= 1")
    models = dict(models) if models is not None else default_lag_models()
    unknown = set(models) - ALL_METHODS
    if unknown:
        raise InvalidLagModel(f"unknown methods in lag model: {sorted(unknown)}")
    for m in ALL_METHODS:
        if m not in models:
            models[m] = SourceLagModel(1.0, 0, 0)  # absent everywhere
    endpoints = Endpoints()
    now = parse_iso_timestamp("2013-03-01T00:00:00")
    window = PlausibilityWindow(now=now)

    max_lag = max(model.max_lag_s for model in models.values())
    first_day = day_to_timestamp(truncate_to_day(window.earliest)) + 1100 * DAY
    last_day = day_to_timestamp(truncate_to_day(now - max_lag)) - DAY
    if last_day <= first_day:
        raise InvalidLagModel("lag bounds leave no room for creation dates")

    rng = random.Random(seed)
    world = SyntheticWorld(seed=seed, now=now)
    cassette = Cassette(recorded_at=now)

    for k in range(n):
        uri = f"http://site{k:04d}.example.org/page"
        creation = first_day + rng.randrange((last_day - first_day) // DAY) * DAY
        lags = {m: models[m].draw(rng) for m in sorted(models)}
        truth = ResourceTruth(uri=uri, true_creation=creation, lags=lags)
        world.resources.append(truth)
        _emit_resource(cassette, endpoints, window, uri, creation, lags, rng, k)

    return world, cassette


def _emit_resource(
    cassette: Cassette,
    endpoints: Endpoints,
    window: PlausibilityWindow,
    uri: str,
    creation: int,
    lags: dict[str, Optional[int]],
    rng: random.Random,
    k: int,
) -> None:
    now = window.now

    lag = lags.get("last_modified")
    if lag is not None:
        last_modified = {"Last-Modified": render_http_date(creation + lag)}
        put(cassette, uri, "", "text/html", method="HEAD", headers=last_modified)

    lag = lags.get("archives")
    if lag is not None:
        first = creation + lag
        times = [first, min(first + 45 * DAY, now), min(first + 170 * DAY, now)]
        put(cassette, endpoints.timemap_url(uri), _timemap_body(uri, times),
            "application/link-format")

    lag = lags.get("shortener")
    if lag is not None:
        short_id = f"s{k:04d}x"
        put(cassette, endpoints.shortener_lookup_url(uri), {"id": short_id})
        put(cassette, endpoints.shortener_info_url(short_id),
            {"created_at": render_iso_timestamp(creation + lag)})

    lag = lags.get("social")
    if lag is not None:
        first_post = creation + lag
        count = rng.randint(1, 8)
        posts = [{"id": f"p{k}_0", "posted_at": render_iso_timestamp(first_post)}]
        for j in range(1, count):
            t = min(first_post + rng.randint(1, 90 * DAY), now)
            posts.append({"id": f"p{k}_{j}", "posted_at": render_iso_timestamp(t)})
        put(cassette, endpoints.social_search_url(uri), {"total": count, "posts": posts})

    lag = lags.get("search_index")
    if lag is not None:
        day = truncate_to_day(creation + lag).isoformat()
        put(cassette, endpoints.crawl_url(uri), {"crawl_date": day})

    lag = lags.get("backlinks")
    if lag is not None:
        backlink = f"http://links{k:04d}.example.net/blog"
        first_link_t = creation + lag
        pre = (first_link_t - 200 * DAY, first_link_t - 90 * DAY)
        times = [t for t in pre if t >= window.earliest + DAY]
        times += [first_link_t, min(first_link_t + 60 * DAY, now)]
        put(cassette, endpoints.backlinks_url(uri), {"backlinks": [backlink]})
        put(cassette, endpoints.timemap_url(backlink), _timemap_body(backlink, times),
            "application/link-format")
        for t in times:
            body = "<html><body><p>post</p></body></html>"
            if t >= first_link_t:
                href = f"/web/{_ts14(t)}/{uri}"
                body = f'<html><body><p>post</p><a href="{href}">ref</a></body></html>'
            put(cassette, _capture_uri(backlink, t), body, "text/html")
