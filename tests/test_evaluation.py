import json

import numpy as np
import pytest

from graphcompose.errors import DataError, UsageError
from graphcompose.evaluation import (
    RunResult,
    accuracy,
    aggregate,
    average_rank,
    format_cell,
    render_report,
)


class TestAccuracy:
    def test_hand_oracle(self):
        p = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
        labels = np.array([0, 1, 1, 1])
        assert accuracy(p, labels, [0, 1, 2, 3]) == pytest.approx(0.75)
        assert accuracy(p, labels, [0, 1]) == 1.0
        assert accuracy(p, labels, [2]) == 0.0

    def test_argmax_tie_takes_lowest_class(self):
        p = np.array([[0.5, 0.5]])
        assert accuracy(p, np.array([0]), [0]) == 1.0
        assert accuracy(p, np.array([1]), [0]) == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(UsageError):
            accuracy(np.ones((2, 2)), np.array([0, 1]), [])

    @pytest.mark.parametrize("ids", [[1.7], [True, False], np.array([0.0, 1.0])],
                             ids=["floats", "bools", "float-array"])
    def test_rejects_node_ids_that_are_not_integers(self, ids):
        # numpy would read [1.7] as row 1 and [True, False] as rows [1, 0].
        with pytest.raises(UsageError, match="accuracy needs integer row ids"):
            accuracy(np.eye(2), np.array([0, 1]), ids)

    @pytest.mark.parametrize("ids", [[-1], [2]], ids=["negative", "past-the-end"])
    def test_rejects_node_ids_outside_the_rows(self, ids):
        # numpy would read -1 as the last row, and fail on 2 with an IndexError.
        with pytest.raises(UsageError, match=r"accuracy needs a nonempty set of rows in \[0, 2\)"):
            accuracy(np.eye(2), np.array([0, 1]), ids)


class TestAggregate:
    def test_mean_and_sample_std(self):
        mean, std = aggregate([0.8, 0.9])
        assert mean == pytest.approx(0.85)
        # Sample std with N-1: sqrt(((0.05)^2 + (0.05)^2) / 1)
        assert std == pytest.approx(np.sqrt(0.005 / 1), abs=1e-12)

    def test_matches_numpy_ddof1(self):
        vals = [0.71, 0.74, 0.69, 0.77, 0.73]
        mean, std = aggregate(vals)
        assert mean == pytest.approx(np.mean(vals))
        assert std == pytest.approx(np.std(vals, ddof=1))

    def test_single_value_rejected(self):
        with pytest.raises(UsageError):
            aggregate([0.8])


class TestCells:
    def test_format(self):
        assert format_cell(0.822, 0.011) == "82.2 (1.1)"
        assert format_cell(0.7) == "70.0"


class TestRunResult:
    def test_roundtrip(self):
        r = RunResult("gcn", "cora", 1, 4, 0.815, 0.82, {"learning_rate": 0.01})
        assert RunResult.from_dict(r.to_dict()) == r

    def test_accuracy_range_checked(self):
        with pytest.raises(DataError):
            RunResult("gcn", "cora", 1, 0, 1.5, 0.8, {})

    def test_numpy_integer_indices_stay_json_numbers(self):
        r = RunResult("gcn", "cora", np.int64(2), np.int32(3), 0.8, 0.7, {})
        assert json.loads(json.dumps(r.to_dict()))["size_index"] == 2
        assert type(r.split_index) is int

    def test_malformed_record(self):
        with pytest.raises(DataError):
            RunResult.from_dict({"method": "gcn"})


class TestAverageRank:
    def test_simple_ordering(self):
        table = {
            "a": {"d1": 0.9, "d2": 0.8},
            "b": {"d1": 0.8, "d2": 0.9},
            "c": {"d1": 0.7, "d2": 0.7},
        }
        out = average_rank(table)
        np.testing.assert_array_equal(out.ranks, [[1, 2], [2, 1], [3, 3]])
        np.testing.assert_allclose(out.average_rank, [1.5, 1.5, 3.0])

    def test_fractional_ties(self):
        table = {
            "a": {"d": 0.8},
            "b": {"d": 0.8},
            "c": {"d": 0.9},
            "e": {"d": 0.5},
        }
        out = average_rank(table)
        # c first; a and b share ranks 2 and 3.
        by = dict(zip(out.methods, out.ranks[:, 0]))
        assert by["c"] == 1.0
        assert by["a"] == by["b"] == 2.5
        assert by["e"] == 4.0

    def test_three_way_tie(self):
        table = {m: {"d": 0.5} for m in ("a", "b", "c")}
        out = average_rank(table)
        np.testing.assert_allclose(out.ranks[:, 0], [2.0, 2.0, 2.0])

    def test_missing_pair_named(self):
        table = {"a": {"d1": 0.9, "d2": 0.8}, "b": {"d1": 0.8}}
        with pytest.raises(DataError, match=r"\(b, d2\)"):
            average_rank(table)

    def test_extra_dataset_rejected(self):
        table = {"a": {"d1": 0.9}, "b": {"d1": 0.8, "d2": 0.7}}
        with pytest.raises(DataError):
            average_rank(table)

    def test_first_method_missing_a_dataset_names_the_cell(self):
        table = {"a": {"d2": 0.9}, "b": {"d1": 0.8, "d2": 0.7}, "c": {"d3": 0.5}}
        with pytest.raises(DataError) as info:
            average_rank(table)
        assert str(info.value) == (
            "comparison table is incomplete; missing cells: "
            "(a, d1), (a, d3), (b, d3), (c, d2), (c, d1)"
        )

    def test_datasets_keep_first_seen_order(self):
        table = average_rank({"a": {"d2": 0.9, "d1": 0.8}, "b": {"d1": 0.7, "d2": 0.6}})
        assert table.datasets == ("d2", "d1")
        np.testing.assert_array_equal(table.means, [[0.9, 0.8], [0.6, 0.7]])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            average_rank({})


class TestRenderReport:
    def test_layout(self):
        table = average_rank(
            {
                "gcn": {"d1": 0.822, "d2": 0.688},
                "sgcn": {"d1": 0.816, "d2": 0.690},
            }
        )
        stats = {
            "gcn": {"d1": (0.822, 0.011), "d2": (0.688, None)},
            "sgcn": {"d1": (0.816, 0.02), "d2": (0.690, None)},
        }
        text = render_report(stats, table)
        lines = text.splitlines()
        assert lines[0].split() == ["method", "d1", "d2", "R"]
        assert set(lines[1]) == {"-"}
        assert "82.2 (1.1)" in lines[2]
        assert "68.8" in lines[2]
        assert lines[2].rstrip().endswith("1.5")
        assert lines[3].rstrip().endswith("1.5")

    def test_rank_column_reflects_order(self):
        table = average_rank(
            {
                "best": {"d1": 0.9, "d2": 0.9},
                "worst": {"d1": 0.1, "d2": 0.1},
            }
        )
        stats = {
            "best": {"d1": (0.9, None), "d2": (0.9, None)},
            "worst": {"d1": (0.1, None), "d2": (0.1, None)},
        }
        lines = render_report(stats, table).splitlines()
        best_line = next(l for l in lines if l.startswith("best"))
        worst_line = next(l for l in lines if l.startswith("worst"))
        assert best_line.rstrip().endswith("1.0")
        assert worst_line.rstrip().endswith("2.0")
