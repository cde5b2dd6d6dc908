from __future__ import annotations

import random
from datetime import date
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carbondate.aggregate import pick_least
from carbondate.core import PlausibilityWindow, parse_iso_timestamp
from carbondate.evaluation import (
    DegenerateInput,
    EmptyInput,
    FormatError,
    UnknownMethod,
    ablate,
    auc,
    build_record,
    load_gold,
    method_delta,
    polyfit2,
    sorted_deltas_csv,
    summarize,
)

NOW = parse_iso_timestamp("2013-03-01T00:00:00")
WINDOW = PlausibilityWindow(now=NOW)


class TestLoadGold:
    def write(self, tmp_path, rows, header="uri,real_date,category"):
        path = tmp_path / "gold.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_valid_rows(self, tmp_path):
        path = self.write(tmp_path, [
            "http://a.example/,2010-01-02,news",
            "http://b.example/,2011-06-30,social",
            "http://c.example/,2012-12-31,manual",
        ])
        records = load_gold(path, WINDOW)
        assert len(records) == 3
        assert records[0].real_date == date(2010, 1, 2)

    def test_pre_1995_rejected_with_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            "http://a.example/,1990-01-01,news",
        ])
        with pytest.raises(FormatError) as exc:
            load_gold(path, WINDOW)
        assert "line 2" in str(exc.value)

    def test_wrong_separator_rejected(self, tmp_path):
        path = self.write(tmp_path, ["http://a.example/,2012:02:11,news"])
        with pytest.raises(FormatError):
            load_gold(path, WINDOW)

    def test_all_problems_collected(self, tmp_path):
        path = self.write(tmp_path, [
            "not a uri,2010-01-01,news",
            "http://b.example/,junk,news",
        ])
        with pytest.raises(FormatError) as exc:
            load_gold(path, WINDOW)
        assert len(exc.value.problems) == 2

    def test_short_row_reported_with_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            "http://a.example/,2010-01-02,news",
            "",
            "http://b.example.com/,2011-02-02",
            "http://c.example/",
        ])
        with pytest.raises(FormatError) as exc:
            load_gold(path, WINDOW)
        # The blank line is skipped but still counted.
        assert [p.split(":")[0] for p in exc.value.problems] == [
            "line 4", "line 5",
        ]
        assert all("short row" in p for p in exc.value.problems)

    def test_long_row_reported_with_line_number(self, tmp_path):
        path = self.write(tmp_path, [
            "http://a.example/,2010-01-02,news",
            "http://b.example.com/,2011-02-02,news,extra,more",
        ])
        with pytest.raises(FormatError) as exc:
            load_gold(path, WINDOW)
        assert exc.value.problems == [
            "line 3: long row, expected uri,real_date,category"
        ]

    def test_bad_header(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("url,date\nhttp://a.example/,2010-01-01\n")
        with pytest.raises(FormatError):
            load_gold(str(path), WINDOW)

    @pytest.mark.parametrize("header", ["uri, real_date, category", " uri ,real_date\t,category "])
    def test_header_names_read_stripped(self, tmp_path, header):
        rows = ["http://a.example/,2010-01-02,news"]
        assert load_gold(self.write(tmp_path, rows, header), WINDOW) == load_gold(
            self.write(tmp_path, rows), WINDOW
        )

    def test_empty_file_is_a_bad_header(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text("")
        with pytest.raises(FormatError, match="bad header"):
            load_gold(str(path), WINDOW)


class TestMethodDelta:
    def test_same_day_is_zero(self):
        assert method_delta(
            date(2012, 2, 11), parse_iso_timestamp("2012-02-11T23:59:00")
        ) == 0

    def test_next_day_is_one(self):
        assert method_delta(
            date(2012, 2, 11), parse_iso_timestamp("2012-02-12T06:33:00")
        ) == 1

    def test_calendar_day_count(self):
        # Calendar-day oracle: 2009-12-30 .. 2010-01-01 spans 2 days.
        assert method_delta(
            date(2010, 1, 1), parse_iso_timestamp("2009-12-30T12:00:00")
        ) == 2

    def test_absent(self):
        assert method_delta(date(2010, 1, 1), None) is None

    @given(
        st.integers(min_value=788918400, max_value=1362096000),
        st.integers(min_value=788918400, max_value=1362096000),
    )
    def test_symmetric_nonnegative(self, a, b):
        from carbondate.core import truncate_to_day

        d = method_delta(truncate_to_day(a), b)
        assert d >= 0
        assert d == abs((truncate_to_day(a) - truncate_to_day(b)).days)


class TestBestDelta:
    def test_min(self):
        least, winner = pick_least({"archives": 5, "social": 0})
        assert least == 0 and winner == "social"

    def test_all_absent(self):
        assert pick_least({"archives": None, "social": None}) == (None, None)

    def test_fuzzed_matches_bruteforce(self):
        rng = random.Random(4)
        methods = ["archives", "backlinks", "last_modified",
                   "search_index", "shortener", "social"]
        for _ in range(500):
            deltas = {
                m: (rng.randrange(0, 1000) if rng.random() < 0.6 else None)
                for m in methods
            }
            least, winner = pick_least(deltas)
            present = [d for d in deltas.values() if d is not None]
            if present:
                assert least == min(present)
                assert deltas[winner] == least
            else:
                assert least is None and winner is None


class TestAuc:
    def test_all_zero_is_exactly_zero(self):
        assert auc([0] * 50) == 0.0

    def test_constant(self):
        assert auc([7.0] * 13) == pytest.approx(7.0, abs=1e-6)

    def test_two_point_linear(self):
        # Closed-form integral of the interpolant between 0 and 10 is 5.
        assert auc([0, 10]) == pytest.approx(5.0, abs=1e-6)

    def test_singleton(self):
        assert auc([4]) == pytest.approx(4.0, abs=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            auc([])

    def test_trapezoid_simpson_agree_on_grid_aligned_piecewise_linear(self):
        # Node count chosen so nodes land on the integration grid.
        for deltas in ([0, 2, 4, 6, 8, 10], list(range(11)), [1, 1, 5, 9, 9]):
            got = auc(deltas)
            expected = float(np.trapezoid(sorted(deltas), dx=1 / (len(deltas) - 1)))
            assert got == pytest.approx(expected, abs=1e-6)

    def test_not_the_mean(self):
        assert auc([0, 0, 3]) == 0.75

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=10**6),
            st.floats(min_value=0, max_value=1e9, allow_nan=False, allow_infinity=False),
        ),
        min_size=1,
        max_size=200,
    ))
    def test_matches_exact_segment_sum(self, deltas):
        # Each segment of the polyline is a trapezoid of width 1/(n-1),
        # summed without rounding.
        ys = sorted(Fraction(d) for d in deltas)
        if len(ys) == 1:
            exact = ys[0]
        else:
            exact = sum((a + b) / 2 for a, b in zip(ys, ys[1:])) / (len(ys) - 1)
        assert auc(deltas) == pytest.approx(float(exact), rel=1e-12, abs=0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=2000), min_size=1, max_size=60),
        st.integers(min_value=0, max_value=500),
    )
    def test_monotone_in_deltas(self, deltas, bump):
        base = auc(deltas)
        raised = auc([d + bump for d in deltas])
        assert raised >= base - 1e-9


class TestPolyfit2:
    def test_exact_quadratic(self):
        pts = [(x, x * x) for x in np.linspace(-3, 3, 20)]
        fit = polyfit2(pts)
        assert fit.a == pytest.approx(1.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.c == pytest.approx(0.0, abs=1e-9)
        assert fit.residual == pytest.approx(0.0, abs=1e-9)

    def test_degree_collapse_to_linear(self):
        pts = [(x, 2 * x + 3) for x in np.linspace(0, 5, 12)]
        fit = polyfit2(pts)
        assert fit.a == pytest.approx(0.0, abs=1e-9)
        assert fit.b == pytest.approx(2.0, abs=1e-9)
        assert fit.c == pytest.approx(3.0, abs=1e-9)

    def test_random_cloud_matches_reference_fit(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(-5, 5, size=50)
        y = 0.7 * x**2 - 1.3 * x + 4 + rng.normal(0, 0.5, size=50)
        fit = polyfit2(list(zip(x, y)))
        ref = np.polyfit(x, y, 2)
        assert fit.a == pytest.approx(ref[0], abs=1e-6)
        assert fit.b == pytest.approx(ref[1], abs=1e-6)
        assert fit.c == pytest.approx(ref[2], abs=1e-6)

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInput):
            polyfit2([(1, 1), (2, 2)])
        with pytest.raises(DegenerateInput):
            polyfit2([(1, 1), (1, 2), (1, 3), (1, 4)])


def make_records(specs):
    """specs: list of (real_date, {method: delta_or_None})."""
    out = []
    for i, (real, deltas) in enumerate(specs):
        estimates = {}
        for m, d in deltas.items():
            if d is None:
                estimates[m] = None
            else:
                estimates[m] = parse_iso_timestamp(f"{real.isoformat()}T00:00:00") + d * 86400
        out.append(build_record(f"http://r{i}.example/", real, estimates))
    return out


class TestSummarizeAndAblate:
    def test_counts(self):
        d = date(2010, 6, 1)
        records = make_records([
            (d, {"archives": 0, "social": 3}),
            (d, {"archives": 2, "social": None}),
            (d, {"archives": None, "social": None}),
        ])
        s = summarize(records)
        assert s.n == 3
        assert s.estimated_count == 2
        assert s.exact_count == 1
        assert s.method_contributed == {"archives": 2, "social": 1}
        assert s.method_best == {"archives": 2}

    def test_exact_count_permutation_invariant(self):
        d = date(2010, 6, 1)
        records = make_records([
            (d, {"archives": 0}), (d, {"archives": 5}), (d, {"archives": 0}),
        ])
        for _ in range(5):
            random.shuffle(records)
            assert summarize(records).exact_count == 2

    def test_ablate_never_winning_method_is_zero_percent(self):
        d = date(2010, 6, 1)
        records = make_records([
            (d, {"archives": 1, "backlinks": 9}),
            (d, {"archives": 2, "backlinks": 7}),
            (d, {"archives": 3, "backlinks": None}),
        ])
        result = ablate(records, "backlinks")
        assert result["percent_change"] == pytest.approx(0.0, abs=1e-12)
        assert result["auc"] == result["auc_full"]

    def test_ablate_winning_method_changes_auc(self):
        d = date(2010, 6, 1)
        records = make_records([
            (d, {"archives": 10, "social": 0}),
            (d, {"archives": 12, "social": 0}),
            (d, {"archives": 14, "social": 1}),
        ])
        result = ablate(records, "social")
        assert result["auc"] > result["auc_full"]
        assert result["percent_change"] < 0

    def test_disabling_never_decreases_best_delta(self):
        rng = random.Random(9)
        d = date(2011, 3, 3)
        methods = ["archives", "social", "shortener"]
        records = make_records([
            (d, {m: (rng.randrange(20) if rng.random() < 0.7 else None)
                 for m in methods})
            for _ in range(50)
        ])
        for disabled in methods:
            result = ablate(records, disabled)
            reduced_best = []
            for r in records:
                deltas = {m: v for m, v in r.method_deltas.items() if m != disabled}
                least, _ = pick_least(deltas)
                if r.best_delta is not None and least is not None:
                    assert least >= r.best_delta
            assert result["estimated_count"] <= summarize(records).estimated_count

    def test_unknown_method(self):
        with pytest.raises(UnknownMethod):
            ablate([], "astrology")

    def test_summary_json_shape(self):
        d = date(2010, 6, 1)
        s = summarize(make_records([(d, {"archives": 0})]))
        obj = s.to_json()
        assert obj["n"] == 1
        assert obj["estimated"]["fraction"] == 1.0
        assert obj["exact"]["count"] == 1
        assert obj["methods"]["archives"]["best"] == 1

    def test_sorted_deltas_csv(self):
        d = date(2010, 6, 1)
        records = make_records([(d, {"archives": 5}), (d, {"archives": 1})])
        text = sorted_deltas_csv(records)
        assert text.splitlines() == ["index,delta", "0,1", "1,5"]
