"""Combine per-method evidence into a single creation-date estimate.

The estimate is simply the minimum over all successful method estimates;
absence (no method succeeded) is a valid answer, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import CanonicalUri, render_iso_timestamp, truncate_to_day
from .sources import (
    METHOD_ARCHIVES,
    METHOD_BACKLINKS,
    METHOD_LAST_MODIFIED,
    METHOD_SEARCH_INDEX,
    METHOD_SHORTENER,
    METHOD_SOCIAL,
    EvidenceResult,
)

# Archival evidence is the baseline method, hence first in tie-breaking.
TIE_BREAK_ORDER = (
    METHOD_ARCHIVES,
    METHOD_LAST_MODIFIED,
    METHOD_SHORTENER,
    METHOD_SOCIAL,
    METHOD_BACKLINKS,
    METHOD_SEARCH_INDEX,
)


class DuplicateMethod(ValueError):
    """Two evidence entries claimed the same method."""


@dataclass(frozen=True)
class CreationEstimate:
    uri: CanonicalUri
    estimated: Optional[int]
    winning_method: Optional[str]
    evidence: tuple[EvidenceResult, ...]

    def by_method(self) -> dict[str, EvidenceResult]:
        return {e.method: e for e in self.evidence}


def pick_least(
    values: dict[str, Optional[int]],
) -> tuple[Optional[int], Optional[str]]:
    """Least present value and the method holding it, ties broken by
    TIE_BREAK_ORDER; (None, None) when every value is absent."""
    present = {m: v for m, v in values.items() if v is not None}
    if not present:
        return None, None
    least = min(present.values())
    return least, next(m for m in TIE_BREAK_ORDER if present.get(m) == least)


def aggregate(uri: CanonicalUri, evidence: list[EvidenceResult]) -> CreationEstimate:
    """Minimum over ok estimates; ties broken by the fixed method order."""
    seen: set[str] = set()
    for e in evidence:
        if e.method in seen:
            raise DuplicateMethod(e.method)
        seen.add(e.method)
    estimated, winner = pick_least({e.method: e.estimate for e in evidence})
    return CreationEstimate(
        uri=uri, estimated=estimated, winning_method=winner, evidence=tuple(evidence)
    )


@dataclass(frozen=True)
class ReportStyle:
    """The key names of one report layout, in output order."""

    uri: str
    estimated: str
    winning_method: Optional[str]  # None: the layout omits the winner
    methods: tuple[tuple[str, str], ...]  # (method, key) pairs
    archives: tuple[str, str, str]  # block, earliest and by-archive keys


_REPORTED_METHODS = (
    METHOD_LAST_MODIFIED,
    METHOD_SHORTENER,
    METHOD_SOCIAL,
    METHOD_BACKLINKS,
    METHOD_SEARCH_INDEX,
)

# legacy uses the historical key names; generic the method registry names.
REPORT_STYLES = {
    "legacy": ReportStyle(
        uri="URI",
        estimated="Estimated Creation Date",
        winning_method=None,
        methods=tuple(
            zip(
                _REPORTED_METHODS,
                ("Last Modified", "Bitly", "Topsy.com", "Backlinks", "Google.com"),
            )
        ),
        archives=("Archives", "Earliest", "By Archive"),
    ),
    "generic": ReportStyle(
        uri="uri",
        estimated="estimated",
        winning_method="winning_method",
        methods=tuple(zip(_REPORTED_METHODS, _REPORTED_METHODS)),
        archives=("archives", "earliest", "by_archive"),
    ),
}


def _render_value(result: Optional[EvidenceResult]) -> str:
    if result is None or result.status != "ok":
        return ""
    assert result.estimate is not None
    if result.granularity == "day":
        return truncate_to_day(result.estimate).isoformat()
    return render_iso_timestamp(result.estimate)


def render_report(ce: CreationEstimate, style: str = "legacy") -> dict:
    """Shape the estimate as the service's JSON document.

    The key names and their order come from REPORT_STYLES[style]. Absent
    values are empty strings so the schema stays fixed-shape.
    """
    keys = REPORT_STYLES.get(style)
    if keys is None:
        raise ValueError(f"unknown report style: {style!r}")
    by_method = ce.by_method()
    report = {
        keys.uri: ce.uri.display(),
        keys.estimated: _render_value(by_method.get(ce.winning_method)),
    }
    if keys.winning_method is not None:
        report[keys.winning_method] = ce.winning_method or ""
    for method, key in keys.methods:
        report[key] = _render_value(by_method.get(method))
    archives = by_method.get(METHOD_ARCHIVES)
    by_archive = {}
    if archives is not None and archives.status == "ok":
        by_archive = {
            host: render_iso_timestamp(t)
            for host, t in sorted(archives.detail.get("by_archive", {}).items())
        }
    block, earliest, by_archive_key = keys.archives
    report[block] = {earliest: _render_value(archives), by_archive_key: by_archive}
    return report
