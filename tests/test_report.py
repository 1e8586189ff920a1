"""Tests for the reporting helpers (geomean, tables, JSON rendering)."""

import json

import pytest

from repro.errors import ConfigError
from repro.eval.report import (
    format_table,
    fraction_within,
    geomean,
    percentile,
    render_rows,
    to_json,
)


class TestGeomean:
    def test_value(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_single_value(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            geomean([])

    def test_zero_rejected(self):
        with pytest.raises(ConfigError):
            geomean([1.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ConfigError):
            geomean([1.0, -2.0])

    def test_accepts_any_iterable(self):
        assert geomean(v for v in (3.0, 3.0)) == pytest.approx(3.0)


class TestFractionWithin:
    def test_counts_at_or_below_bound(self):
        assert fraction_within([1.0, 2.0, 3.0, 4.0], 2.0) == 0.5

    def test_non_finite_values_miss(self):
        values = [1.0, float("inf"), float("nan")]
        assert fraction_within(values, 10.0) == pytest.approx(1 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            fraction_within([], 1.0)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_extremes(self):
        assert percentile([5.0, 1.0], 0) == 1.0
        # q / 100 underflows to 0.0: still rank 1, the minimum
        assert percentile([5.0, 1.0], 5e-324) == 1.0
        assert percentile([7.0], 99) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            percentile([], 50)

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ConfigError):
            percentile([1.0], 101)
        with pytest.raises(ConfigError):
            percentile([1.0], -1)


class TestFormatTable:
    def test_alignment_and_separator(self):
        text = format_table(["name", "v"], [["alpha", 1], ["b", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        # every line padded to the same visual width
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting_uses_4_significant_digits(self):
        text = format_table(["v"], [[3.14159265]])
        assert "3.142" in text
        assert "3.14159" not in text

    def test_non_floats_rendered_verbatim(self):
        text = format_table(["a", "b"], [[True, "xyz"]])
        assert "True" in text and "xyz" in text


class TestRenderRows:
    ROWS = [{"name": "a", "v": 1.25}, {"name": "b", "v": 2.0}]

    def test_table_path(self):
        text = render_rows(self.ROWS)
        assert text.splitlines()[0].startswith("name")
        assert "1.25" in text

    def test_empty_rows_notice(self):
        assert render_rows([]) == "(no rows)"

    def test_json_path_round_trips(self):
        assert json.loads(render_rows(self.ROWS, as_json=True)) == \
            self.ROWS

    def test_json_empty_rows(self):
        assert json.loads(render_rows([], as_json=True)) == []

    def test_missing_cells_blank(self):
        text = render_rows([{"a": 1, "b": 2}, {"a": 3}])
        assert text  # second row simply leaves column b empty


class TestToJson:
    def test_stringifies_unserialisable(self):
        payload = json.loads(to_json({"path": object()}))
        assert isinstance(payload["path"], str)
