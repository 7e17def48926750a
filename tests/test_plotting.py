"""Tests for the terminal plotting helpers (repro.experiments.plotting)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.plotting import bar_chart, line_plot


class TestLinePlot:
    def test_rejects_empty_series(self):
        with pytest.raises(ValueError):
            line_plot({})
        with pytest.raises(ValueError):
            line_plot({"a": []})

    def test_rejects_tiny_plot_area(self):
        with pytest.raises(ValueError):
            line_plot({"a": [(0, 0), (1, 1)]}, width=4)

    def test_renders_title_and_labels(self):
        out = line_plot(
            {"er": [(0, 0.0), (10, 1.0)]},
            title="ER trend", x_label="round", y_label="ER",
        )
        assert "ER trend" in out
        assert "round" in out
        assert "ER" in out

    def test_monotone_series_is_monotone_on_grid(self):
        out = line_plot({"a": [(0, 0.0), (1, 1.0), (2, 2.0)]}, width=20, height=8)
        rows = [line.split("|", 1)[1] for line in out.splitlines() if "|" in line]
        cols = {}
        for row_idx, row in enumerate(rows):
            for col_idx, ch in enumerate(row):
                if ch == "*":
                    cols.setdefault(col_idx, row_idx)
        ordered = [cols[c] for c in sorted(cols)]
        # Higher y = smaller row index; x increasing must not descend.
        assert ordered == sorted(ordered, reverse=True)

    def test_legend_only_for_multi_series(self):
        single = line_plot({"only": [(0, 0), (1, 1)]})
        multi = line_plot({"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]})
        assert "only" not in single
        assert "a" in multi and "b" in multi
        assert "o b" in multi  # second glyph assigned in order

    def test_constant_series_does_not_crash(self):
        out = line_plot({"flat": [(0, 5.0), (10, 5.0)]})
        assert "*" in out

    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
            min_size=1, max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_any_finite_series_renders(self, points):
        out = line_plot({"s": points}, width=30, height=8)
        body_rows = [ln for ln in out.splitlines() if "|" in ln]
        assert len(body_rows) == 8
        assert all(len(row.split("|", 1)[1]) <= 30 for row in body_rows)
        assert "*" in out


class TestBarChart:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bar_chart({})

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bar_chart({"a": -1.0})

    def test_longest_bar_is_max_value(self):
        out = bar_chart({"small": 1.0, "big": 4.0}, width=20)
        lines = {ln.split("|")[0].strip(): ln for ln in out.splitlines()}
        assert lines["big"].count("#") > lines["small"].count("#")
        assert "4" in lines["big"]

    def test_zero_values_render(self):
        out = bar_chart({"a": 0.0, "b": 0.0})
        assert out.count("#") == 2  # one minimal tick per bar

    def test_unit_suffix(self):
        out = bar_chart({"cost": 1.5}, unit=" s")
        assert "1.5 s" in out
