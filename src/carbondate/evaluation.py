"""Evaluation machinery: per-method day deltas, best-delta statistics,
area under the sorted-delta curve, ablation, and degree-2 curve fitting.

The AUC is the exact integral of the polyline through the sorted deltas
placed evenly on the normalized resource index [0, 1], which makes the
value comparable across dataset sizes. It is not the mean delta:
``auc([0, 0, 3])`` is 0.75, the mean is 1.0.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date
from typing import Optional, Sequence

from .aggregate import pick_least
from .core import (
    CanonicalUri,
    MalformedUri,
    PlausibilityWindow,
    day_to_timestamp,
    normalize_uri,
    parse_iso_day,
    truncate_to_day,
)
from .sources import ALL_METHODS


class FormatError(ValueError):
    """Gold-standard file had malformed or implausible rows."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


class EmptyInput(ValueError):
    pass


class UnknownMethod(KeyError):
    pass


class DegenerateInput(ValueError):
    """Fit design matrix is rank-deficient."""


@dataclass(frozen=True)
class GoldRecord:
    uri: CanonicalUri
    real_date: date
    category: str


@dataclass(frozen=True)
class EvalRecord:
    uri: str
    real_date: date
    method_deltas: dict[str, Optional[int]]
    best_delta: Optional[int]
    winning_method: Optional[str]


def load_gold(path: str, window: PlausibilityWindow) -> list[GoldRecord]:
    """Read the gold CSV (uri,real_date,category), rejecting bad rows.

    All problems are collected and reported together with line numbers.
    """
    records: list[GoldRecord] = []
    problems: list[str] = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        # Rows are read by these names, so "uri, real_date" reads as well.
        reader.fieldnames = [c.strip() for c in reader.fieldnames or ()]
        if reader.fieldnames != ["uri", "real_date", "category"]:
            raise FormatError([f"bad header: {reader.fieldnames}"])
        for row in reader:
            lineno = reader.line_num
            # DictReader pads a short row with None and puts the extra
            # fields of a long one under the None key.
            if row["category"] is None or None in row:
                kind = "short" if row["category"] is None else "long"
                problems.append(
                    f"line {lineno}: {kind} row, expected uri,real_date,category"
                )
                continue
            try:
                uri = normalize_uri(row["uri"])
            except MalformedUri as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
            try:
                real = parse_iso_day(row["real_date"])
            except ValueError:
                problems.append(
                    f"line {lineno}: bad date {row['real_date']!r}"
                )
                continue
            if not window.contains(day_to_timestamp(real)):
                problems.append(
                    f"line {lineno}: implausible date {row['real_date']!r}"
                )
                continue
            records.append(
                GoldRecord(uri=uri, real_date=real, category=row["category"].strip())
            )
    if problems:
        raise FormatError(problems)
    return records


def method_delta(real: date, est: Optional[int]) -> Optional[int]:
    """Absolute day difference between the true date and an estimate."""
    if est is None:
        return None
    return abs((real - truncate_to_day(est)).days)


def _record(uri: str, real: date, deltas: dict[str, Optional[int]]) -> EvalRecord:
    """The record of these deltas: the least present one wins, ties broken
    in aggregate's fixed method order."""
    least, winner = pick_least(deltas)
    return EvalRecord(
        uri=uri,
        real_date=real,
        method_deltas=deltas,
        best_delta=least,
        winning_method=winner,
    )


def build_record(
    uri: str, real: date, estimates: dict[str, Optional[int]]
) -> EvalRecord:
    return _record(
        uri, real, {m: method_delta(real, est) for m, est in estimates.items()}
    )


def auc(deltas: Sequence[float]) -> float:
    """Integral of the polyline through the sorted deltas, spaced evenly on
    [0, 1]; a single delta is a flat curve. The first and last sorted
    deltas are the least and the greatest, so no sort is needed."""
    if len(deltas) == 0:
        raise EmptyInput("no deltas to integrate")
    if len(deltas) == 1:
        return float(deltas[0])
    ends = (min(deltas) + max(deltas)) / 2
    return (math.fsum(deltas) - ends) / (len(deltas) - 1)


@dataclass(frozen=True)
class QuadraticFit:
    a: float
    b: float
    c: float
    residual: float


def polyfit2(points: Sequence[tuple[float, float]]) -> QuadraticFit:
    """Least-squares a*x^2 + b*x + c via the normal equations. The one
    function of the package that needs numpy, imported when first called."""
    import numpy as np

    if len(points) < 3:
        raise DegenerateInput("need at least 3 points")
    x = np.asarray([p[0] for p in points], dtype=float)
    y = np.asarray([p[1] for p in points], dtype=float)
    design = np.column_stack([x**2, x, np.ones_like(x)])
    gram = design.T @ design
    if np.linalg.matrix_rank(design) < 3:
        raise DegenerateInput("design matrix is rank-deficient")
    coeffs = np.linalg.solve(gram, design.T @ y)
    residual = float(np.linalg.norm(design @ coeffs - y))
    return QuadraticFit(
        a=float(coeffs[0]), b=float(coeffs[1]), c=float(coeffs[2]), residual=residual
    )


@dataclass
class EvalSummary:
    n: int
    estimated_count: int
    exact_count: int
    method_best: dict[str, int]
    method_contributed: dict[str, int]
    auc_full: Optional[float]
    ablations: dict[str, dict] = field(default_factory=dict)

    @property
    def estimated_fraction(self) -> float:
        return self.estimated_count / self.n if self.n else 0.0

    @property
    def exact_fraction(self) -> float:
        return self.exact_count / self.n if self.n else 0.0

    def to_json(self) -> dict:
        methods = sorted(
            set(self.method_best) | set(self.method_contributed)
        )
        return {
            "n": self.n,
            "estimated": {
                "count": self.estimated_count,
                "fraction": round(self.estimated_fraction, 6),
            },
            "exact": {
                "count": self.exact_count,
                "fraction": round(self.exact_fraction, 6),
            },
            "methods": {
                m: {
                    "best": self.method_best.get(m, 0),
                    "contributed": self.method_contributed.get(m, 0),
                }
                for m in methods
            },
            "auc": self.auc_full,
            "ablations": self.ablations,
        }


def summarize(records: Sequence[EvalRecord]) -> EvalSummary:
    """Roll per-record deltas up into the tabular report shape."""
    n = len(records)
    estimated = [r for r in records if r.best_delta is not None]
    method_best: dict[str, int] = {}
    method_contributed: dict[str, int] = {}
    for r in records:
        for m, d in r.method_deltas.items():
            if d is not None:
                method_contributed[m] = method_contributed.get(m, 0) + 1
        if r.winning_method is not None:
            method_best[r.winning_method] = method_best.get(r.winning_method, 0) + 1
    auc_full = (
        auc([r.best_delta for r in estimated]) if estimated else None
    )
    return EvalSummary(
        n=n,
        estimated_count=len(estimated),
        exact_count=sum(1 for r in estimated if r.best_delta == 0),
        method_best=method_best,
        method_contributed=method_contributed,
        auc_full=auc_full,
    )


def ablate(records: Sequence[EvalRecord], disabled: str) -> dict:
    """Re-score with one method excluded; report AUC and percent change.

    Percent change follows (auc_full - auc_ablated) / auc_full.
    """
    if disabled not in ALL_METHODS:
        raise UnknownMethod(disabled)
    full = summarize(records)
    reduced = [
        _record(
            r.uri,
            r.real_date,
            {m: d for m, d in r.method_deltas.items() if m != disabled},
        )
        for r in records
    ]
    partial = summarize(reduced)
    percent: Optional[float] = None
    if full.auc_full:
        ablated_auc = partial.auc_full if partial.auc_full is not None else 0.0
        percent = (full.auc_full - ablated_auc) / full.auc_full * 100.0
    return {
        "disabled": disabled,
        "auc": partial.auc_full,
        "auc_full": full.auc_full,
        "percent_change": percent,
        "estimated_count": partial.estimated_count,
        "exact_count": partial.exact_count,
    }


def records_to_jsonl(records: Sequence[EvalRecord]) -> str:
    lines = []
    for r in records:
        lines.append(
            json.dumps(
                {
                    "uri": r.uri,
                    "real_date": r.real_date.isoformat(),
                    "method_deltas": r.method_deltas,
                    "best_delta": r.best_delta,
                    "winning_method": r.winning_method,
                }
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def sorted_deltas_csv(records: Sequence[EvalRecord]) -> str:
    """Sorted best deltas for external plotting (index,delta)."""
    present = sorted(r.best_delta for r in records if r.best_delta is not None)
    out = ["index,delta"]
    out += [f"{i},{d}" for i, d in enumerate(present)]
    return "\n".join(out) + "\n"
