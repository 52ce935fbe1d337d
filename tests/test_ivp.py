"""Calibration table construction, probability intervals, prediction."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ivenn.ivp import (
    CalibrationTable,
    calibrate,
    category_rows,
    load_table,
    predict,
    predict_many,
    save_table,
)
from ivenn.taxonomy import (
    DISTANCE_KINDS,
    TaxonomyConfig,
    TaxonomyKind,
    category_count,
    fit_taxonomy,
)


def category_bounds(table, category):
    # one category's per-class (lower, upper) bounds
    return table.rows.lower[category], table.rows.upper[category]


def table_from_counts(counts, kind=TaxonomyKind.BASE_V1, **cfg_kw):
    counts = np.asarray(counts, dtype=np.int64)
    cfg = TaxonomyConfig(kind=kind, class_count=counts.shape[1], **cfg_kw)
    assert counts.shape[0] == category_count(cfg)
    return CalibrationTable(counts=counts, config=cfg)


class TestIntervals:
    def test_hand_counts(self):
        table = table_from_counts([[3, 1, 0], [0, 0, 0], [0, 0, 0]])
        lower, upper = category_bounds(table, 0)
        assert lower.tolist() == [0.6, 0.2, 0.0]
        assert upper.tolist() == [0.8, 0.4, 0.2]

    def test_empty_category_vacuous(self):
        table = table_from_counts([[3, 1, 0], [0, 0, 0], [0, 0, 0]])
        lower, upper = category_bounds(table, 1)
        assert lower.tolist() == [0.0, 0.0, 0.0]
        assert upper.tolist() == [1.0, 1.0, 1.0]

    def test_single_class_category(self):
        table = table_from_counts([[0, 0, 7], [0, 0, 0], [0, 0, 0]])
        lower, upper = category_bounds(table, 0)
        assert lower[2] == 7 / 8 and upper[2] == 1.0

    def test_endpoints_are_correctly_rounded_rationals(self):
        """L and U must be exactly the rounded values of n/(N+1) and
        (n+1)/(N+1); the width law U-L = 1/(N+1) then holds exactly in the
        underlying rationals (a float subtraction check cannot express it:
        1 - 2/3 != 1/3 in doubles)."""
        rng = np.random.default_rng(73)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            counts = rng.integers(0, 40, size=(c, c))
            table = table_from_counts(counts)
            for cat in range(c):
                n = counts[cat]
                total = int(n.sum())
                lower, upper = category_bounds(table, cat)
                for j in range(c):
                    assert lower[j] == float(Fraction(int(n[j]), total + 1))
                    assert upper[j] == float(Fraction(int(n[j]) + 1, total + 1))
                assert lower.sum() <= 1.0 <= upper.sum()


class TestCalibrate:
    def test_counts_land_in_assigned_category(self):
        # k = index size makes every query see the same neighbor multiset
        # (labels 1,1,1,1,1,0,0,0): predicted class 1, 3 disagreements,
        # width 4, so every example lands in category 1*4+3 = 7
        train = np.arange(8.0)[:, None]
        train_labels = np.array([1, 1, 1, 1, 1, 0, 0, 0])
        tax = fit_taxonomy(
            TaxonomyConfig(kind=TaxonomyKind.KNN_V2, class_count=2, k=8),
            train,
            train_labels,
        )
        cal = np.array([[0.5], [3.0], [9.0], [-2.0]])
        table = calibrate(tax, [0, 0, 1, 0], embeddings=cal)
        assert table.counts[7].tolist() == [3, 1]
        assert table.counts.sum() == 4

    def test_empty_calibration_set(self):
        tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=3))
        table = calibrate(tax, [], softmaxes=None)
        assert table.counts.shape == (3, 3)
        assert table.counts.sum() == 0

    def test_order_invariance(self):
        rng = np.random.default_rng(79)
        emb = np.vstack([rng.normal(size=(25, 2)) + (5.0 * j, 0.0) for j in range(3)])
        labels = np.repeat(np.arange(3), 25)
        tax = fit_taxonomy(
            TaxonomyConfig(kind=TaxonomyKind.NC_V1, class_count=3), emb, labels
        )
        cal_emb = rng.normal(size=(40, 2)) * 4.0
        cal_labels = rng.integers(0, 3, 40)
        table = calibrate(tax, cal_labels, embeddings=cal_emb)
        perm = rng.permutation(40)
        permuted = calibrate(tax, cal_labels[perm], embeddings=cal_emb[perm])
        np.testing.assert_array_equal(table.counts, permuted.counts)

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(list(TaxonomyKind)),
        c=st.integers(2, 4),
        k=st.integers(1, 7),
        m=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_counts_independent_of_input_order(self, kind, c, k, m, seed):
        rng = np.random.default_rng(seed)
        tax, _ = random_fitted(rng, kind, c, k)
        queries, scores = random_inputs(rng, m, c)
        labels = rng.integers(0, c, m)
        perm = rng.permutation(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            table = calibrate(tax, labels, embeddings=queries, softmaxes=scores)
            permuted = calibrate(
                tax, labels[perm], embeddings=queries[perm], softmaxes=scores[perm]
            )
        assert table.counts.sum() == m
        assert table.counts.tobytes() == permuted.counts.tobytes()

    def test_label_out_of_range(self):
        tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=2))
        with pytest.raises(ValueError, match="labels"):
            calibrate(tax, [0, 2], softmaxes=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_float_labels_count_only_when_integral(self):
        tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=2))
        scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7], [0.4, 0.6]])
        table = calibrate(tax, [0.0, 1.0, 0.0, 1.0], softmaxes=scores)
        assert table.counts.tolist() == [[1, 1], [1, 1]]
        # these must not be truncated to the labels above
        with pytest.raises(ValueError, match=r"^label 0\.5 in row 0 is not an integer"):
            calibrate(tax, [0.5, 1.0, 0.0, 1.9], softmaxes=scores)
        with pytest.raises(ValueError, match=r"^label 1\.9 in row 3 is not an integer"):
            calibrate(tax, np.array([1.0, 1.0, 0.0, 1.9]), softmaxes=scores)


class TestPredict:
    def setup_method(self):
        # BASE_V1 categories equal the argmax class, so the softmax vector
        # steers each prediction into a chosen table row
        self.tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=3))

    def test_hand_counts(self):
        table = table_from_counts([[3, 1, 0], [0, 0, 0], [0, 0, 0]])
        pred = predict(table, self.tax, softmax=(1.0, 0.0, 0.0))
        assert pred.predicted_class == 0 and pred.category == 0
        assert (pred.lower[0], pred.upper[0]) == (0.6, 0.8)
        assert not pred.empty_category

    def test_empty_category_flagged(self):
        table = table_from_counts([[3, 1, 0], [0, 0, 0], [0, 0, 0]])
        pred = predict(table, self.tax, softmax=(0.0, 0.0, 1.0))
        assert pred.empty_category
        assert pred.predicted_class == 0
        np.testing.assert_array_equal(pred.lower, 0.0)
        np.testing.assert_array_equal(pred.upper, 1.0)
        np.testing.assert_array_equal(pred.mean, 0.5)

    def test_tied_counts_lowest_index(self):
        table = table_from_counts([[2, 2], [0, 0]], kind=TaxonomyKind.BASE_V1)
        tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=2))
        pred = predict(table, tax, softmax=(1.0, 0.0))
        np.testing.assert_array_equal(pred.mean, 0.5)
        assert pred.predicted_class == 0

    def test_mean_is_interval_midpoint(self):
        table = table_from_counts([[5, 2, 1], [0, 0, 0], [0, 0, 0]])
        pred = predict(table, self.tax, softmax=(0.9, 0.1, 0.0))
        np.testing.assert_allclose(pred.mean, (pred.lower + pred.upper) / 2.0)
        assert pred.predicted_class == int(np.argmax(pred.mean))

    def test_taxonomy_mismatch_rejected(self):
        table = table_from_counts([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        other = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3))
        with pytest.raises(ValueError, match="does not match"):
            predict(table, other, softmax=(1.0, 0.0, 0.0))
        narrower = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=2))
        with pytest.raises(ValueError, match="does not match"):
            predict(table, narrower, softmax=(1.0, 0.0))

    def test_monotone_in_added_count(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            counts = rng.integers(0, 10, size=(3, 3))
            j = int(rng.integers(3))
            base = table_from_counts(counts)
            bumped_counts = counts.copy()
            bumped_counts[0, j] += 1
            bumped = table_from_counts(bumped_counts)
            lo_before, _ = category_bounds(base, 0)
            lo_after, _ = category_bounds(bumped, 0)
            assert lo_after[j] >= lo_before[j]


class TestCategoryRows:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.integers(2, 6).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(0, 10**6), min_size=c, max_size=c), min_size=1, max_size=6
            )
        )
    )
    def test_rows_are_the_counts_rationals(self, counts):
        rows = category_rows(counts)
        # a table whose first len(counts) categories hold the counts: k-NN V2
        # with k = len(counts) has at least that many categories
        c = len(counts[0])
        cfg = TaxonomyConfig(kind=TaxonomyKind.KNN_V2, class_count=c, k=len(counts))
        table = CalibrationTable(counts + [[0] * c] * (category_count(cfg) - len(counts)), cfg)
        for k, n in enumerate(counts):
            total = sum(n)
            assert rows.totals[k] == total and rows.empty[k] == (total == 0)
            for j, n_j in enumerate(n):
                assert rows.lower[k, j] == float(Fraction(n_j, total + 1))
                assert rows.upper[k, j] == float(Fraction(n_j + 1, total + 1))
            # the argmax of the integer counts is the argmax of the midpoints
            assert rows.predicted[k] == n.index(max(n)) == int(np.argmax(rows.mean[k]))
            pred = table.predictions[k]
            assert (pred.category, pred.predicted_class) == (k, rows.predicted[k])
            assert pred.lower.tobytes() == rows.lower[k].tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        counts=arrays(
            np.int64,
            st.tuples(st.integers(1, 8), st.integers(2, 6)),
            elements=st.integers(0, 2**40) | st.integers(0, 3),
        )
    )
    def test_width_law_exact_on_random_tables(self, counts):
        # every row: N is the exact integer sum, L and U are the correctly
        # rounded n/(N+1) and (n+1)/(N+1), rationals exactly 1/(N+1) apart,
        # and the float width misses 1/(N+1) by at most the two roundings
        rows = category_rows(counts)
        for k, n in enumerate(counts.tolist()):
            total = sum(n)
            assert int(rows.totals[k]) == total
            width = Fraction(1, total + 1)
            for j, n_j in enumerate(n):
                assert rows.lower[k, j] == float(Fraction(n_j, total + 1))
                assert rows.upper[k, j] == float(Fraction(n_j + 1, total + 1))
                rounding = Fraction(np.spacing(rows.lower[k, j]) + np.spacing(rows.upper[k, j])) / 2
                got = Fraction(rows.upper[k, j]) - Fraction(rows.lower[k, j])
                assert abs(got - width) <= rounding

    def test_rows_are_read_only(self):
        table = table_from_counts([[3, 1, 0], [0, 0, 0], [0, 0, 0]])
        pred = predict(table, fit_taxonomy(table.config), softmax=(1.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="read-only"):
            pred.lower[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            table.rows.predicted[0] = 2

    def test_table_shape_must_match_config(self):
        cfg = TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3)
        with pytest.raises(ValueError, match=r"needs \(6, 3\)"):
            CalibrationTable(counts=np.zeros((3, 3), dtype=np.int64), config=cfg)


def random_fitted(rng, kind, c, k):
    """A fitted taxonomy on coarse-grid points (many distance ties) and a
    random table for it, with some categories left empty."""
    labels = np.concatenate([np.arange(c), rng.integers(0, c, 12)])
    emb = rng.integers(0, 4, size=(len(labels), 2)) + rng.choice([0.0, 0.5], size=(len(labels), 2))
    tax = fit_taxonomy(TaxonomyConfig(kind=kind, class_count=c, k=k), emb, labels)
    counts = rng.integers(0, 6, size=(tax.category_count, c))
    counts *= rng.integers(0, 2, size=(tax.category_count, 1))
    return tax, CalibrationTable(counts=counts, config=tax.config)


def random_inputs(rng, m, c):
    queries = rng.integers(0, 4, size=(m, 2)) + rng.choice([0.0, 0.5], size=(m, 2))
    weights = rng.integers(0, 5, size=(m, c)).astype(float)
    weights[weights.sum(axis=1) == 0, 0] = 1.0
    return queries, weights / weights.sum(axis=1, keepdims=True)


class TestPredictMany:
    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(list(TaxonomyKind)),
        c=st.integers(2, 4),
        k=st.integers(1, 7),
        m=st.integers(0, 25),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_row_wise_predict(self, kind, c, k, m, seed):
        rng = np.random.default_rng(seed)
        tax, table = random_fitted(rng, kind, c, k)
        queries, scores = random_inputs(rng, m, c)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            cats = predict_many(table, tax, embeddings=queries, softmaxes=scores)
            singles = [
                predict(table, tax, embedding=q, softmax=sv) for q, sv in zip(queries, scores)
            ]
        assert len(cats) == m
        rows = table.rows
        for i, one in enumerate(singles):
            assert cats[i] == one.category
            assert rows.predicted[cats[i]] == one.predicted_class
            assert rows.empty[cats[i]] == one.empty_category
            assert rows.lower[cats][i].tobytes() == one.lower.tobytes()
            assert rows.upper[cats][i].tobytes() == one.upper.tobytes()
            assert rows.mean[cats][i].tobytes() == one.mean.tobytes()
            assert table.predictions[cats[i]] is one

    def test_config_checked_once_for_the_batch(self):
        table = table_from_counts([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        other = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3))
        with pytest.raises(ValueError, match="does not match"):
            predict_many(table, other, softmaxes=np.eye(3))


class TestPredictRejects:
    """predict refuses a mismatched table and non-finite input instead of
    returning a confident prediction."""

    def setup_method(self):
        rng = np.random.default_rng(101)
        self.emb = np.vstack([rng.normal(size=(20, 2)) + (5.0 * c, 0.0) for c in range(3)])
        self.labels = np.repeat(np.arange(3), 20)

    def fitted(self, kind, **kw):
        tax = fit_taxonomy(TaxonomyConfig(kind=kind, class_count=3, **kw), self.emb, self.labels)
        return tax, calibrate(tax, self.labels, embeddings=self.emb)

    def test_every_config_field_compared(self):
        knn7, knn7_table = self.fitted(TaxonomyKind.KNN_V2, k=7)
        knn5, _ = self.fitted(TaxonomyKind.KNN_V2, k=5)
        with pytest.raises(ValueError, match="does not match.*k 5 vs 7"):
            predict(knn7_table, knn5, embedding=self.emb[0])
        _, nc_table = self.fitted(TaxonomyKind.NC_V2, theta=0.5)
        nc_other, _ = self.fitted(TaxonomyKind.NC_V2, theta=0.6)
        with pytest.raises(ValueError, match="does not match.*theta 0.6 vs 0.5"):
            predict(nc_table, nc_other, embedding=self.emb[0])
        for field in ("max_output_threshold", "second_output_threshold", "output_gap_threshold"):
            table = table_from_counts(np.zeros((6, 3)), kind=TaxonomyKind.BASE_V2)
            cfg = TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3, **{field: 0.4})
            tax = fit_taxonomy(cfg)
            with pytest.raises(ValueError, match=f"does not match.*{field} 0.4 vs"):
                predict(table, tax, softmax=(0.6, 0.3, 0.1))
        # the table's own config, or an equal copy of it, still matches
        assert predict(knn7_table, knn7, embedding=self.emb[0]).category >= 0
        refit = fit_taxonomy(knn7_table.config, self.emb, self.labels)
        assert predict(knn7_table, refit, embedding=self.emb[0]).category >= 0

    def test_non_finite_scores_rejected(self):
        tax = fit_taxonomy(TaxonomyConfig(kind=TaxonomyKind.BASE_V2, class_count=3))
        table = calibrate(tax, [0, 1], softmaxes=[(0.8, 0.1, 0.1), (0.1, 0.8, 0.1)])
        with pytest.raises(ValueError, match="softmax row 0 must be finite"):
            predict(table, tax, softmax=[np.nan, 0.5, 0.5])
        scores = np.full((5, 3), 1 / 3)
        scores[3, 1] = np.inf
        with pytest.raises(ValueError, match="softmax row 3 must be finite"):
            calibrate(tax, [0, 1, 2, 0, 1], softmaxes=scores)
        with pytest.raises(ValueError, match="softmax row 3 must be finite"):
            predict_many(table, tax, softmaxes=scores)

    def test_non_finite_embedding_rejected(self):
        for kind in DISTANCE_KINDS:
            tax, table = self.fitted(kind)
            for bad in (np.nan, np.inf, -np.inf):
                with pytest.raises(ValueError, match="row 0 is not finite"):
                    predict(table, tax, embedding=np.array([bad, 0.0]))
            with pytest.raises(ValueError, match="row 0 is not finite"):
                predict(table, tax, embedding=np.array([1e200, 0.0]))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(89)
        counts = rng.integers(0, 50, size=(6, 3))
        cfg = TaxonomyConfig(
            kind=TaxonomyKind.NC_V2, class_count=3, theta=1.2345678901234567
        )
        table = CalibrationTable(counts=counts.astype(np.int64), config=cfg)
        path = tmp_path / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        np.testing.assert_array_equal(loaded.counts, table.counts)
        assert loaded.config == cfg

    def test_round_trip_none_theta_and_thresholds(self, tmp_path):
        table = table_from_counts(
            np.zeros((8, 4), dtype=np.int64),
            kind=TaxonomyKind.BASE_V2,
            max_output_threshold=0.6,
        )
        path = tmp_path / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.config == table.config
        assert loaded.config.theta is None
        assert loaded.counts.sum() == 0

    def test_knn_table_round_trip(self, tmp_path):
        rng = np.random.default_rng(97)
        cfg = TaxonomyConfig(kind=TaxonomyKind.KNN_V2, class_count=3, k=5)
        counts = rng.integers(0, 9, size=(category_count(cfg), 3)).astype(np.int64)
        table = CalibrationTable(counts=counts, config=cfg)
        save_table(table, tmp_path / "t.txt")
        loaded = load_table(tmp_path / "t.txt")
        np.testing.assert_array_equal(loaded.counts, counts)
        assert loaded.config.k == 5

    def test_wrong_file_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("not a table\n")
        with pytest.raises(ValueError, match="not a"):
            load_table(path)

    def test_file_cut_before_counts_rejected(self, tmp_path):
        # without its counts line the file would load as an all-zero table,
        # every prediction the vacuous [0, 1]
        table = table_from_counts(np.ones((3, 3), dtype=np.int64))
        path = tmp_path / "table.txt"
        save_table(table, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: text.index("counts:")], encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: no 'counts:' line$"):
            load_table(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("1 1 4\n", "1 1 4\n-1 0 5\n", r":11: category -1 outside \[0, 3\)"),
            ("1 1 4\n", "1 1 4\n7 0 5\n", r":11: category 7 outside \[0, 3\)"),
            ("1 1 4\n", "1 1 4\n0 3 5\n", r":11: class 3 outside \[0, 3\)"),
            ("1 1 4\n", "1 1 4\n0 0 -3\n", r":11: count -3 is negative"),
            ("1 1 4\n", "1 1 4\n0 0 99999999999999999999\n",
             r":11: count 9{20} is negative or outside int64"),
            ("1 1 4\n", "1 1 4\n0 0 2\n0 0 7\n", r":12: cell \(0, 0\) repeated"),
            ("1 1 4\n", "1 1 4\n0 0\n",
             r":11: expected 'category class count' integers, got '0 0'"),
            ("1 1 4\n", "1 1 4\n0 0 5 1\n", r":11: expected 'category class count' integers"),
            ("1 1 4\n", "1 1 4\n0 0 1.5\n", r":11: expected 'category class count' integers"),
            ("theta = none\n", "", r": header has no theta"),
            ("k = 5\n", "k = 5\nthetta = 3\n", r":5: unknown key 'thetta'"),
            ("k = 5\n", "k = 5\nk = 7\n", r":5: k repeated"),
            ("k = 5\n", "k = x\n", r":4: k: invalid int value: 'x'"),
            ("k = 5\n", "k 5\n", r":4: expected key = value, got 'k 5'"),
        ],
        ids=["negative category", "category past K", "class past c", "negative count",
             "count past int64", "repeated cell", "two fields", "four fields", "float count",
             "missing key", "unknown key", "repeated key", "bad value", "no equals sign"],
    )
    def test_bad_count_line_names_path_and_line(self, tmp_path, old, new, message):
        # 3 categories, 3 classes; the header and "counts:" take lines 1-9 and
        # the one saved cell line 10. Each case edits the saved text, in the
        # count lines or in the header.
        table = table_from_counts([[0, 0, 0], [0, 4, 0], [0, 0, 0]])
        path = tmp_path / "table.txt"
        save_table(table, path)
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(ValueError, match=r"table\.txt" + message):
            load_table(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("k = 5\n", "k = 0\n", "k must be at least 1"),
            ("class_count = 3\n", "class_count = 1\n", "class_count must be at least 2"),
            ("theta = none\n", "theta = -1.0\n", "theta must be positive"),
            ("theta = none\n", "theta = nan\n", "theta must be finite, got nan"),
        ],
        ids=["k", "class_count", "theta", "theta nan"],
    )
    def test_bad_header_value_names_path(self, tmp_path, old, new, message):
        # each value parses, so only the config check can reject it
        path = tmp_path / "table.txt"
        save_table(table_from_counts([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), path)
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            load_table(path)

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(TaxonomyKind),
        class_count=st.integers(2, 6),
        k=st.integers(1, 12),
        theta=st.none() | st.floats(min_value=0, exclude_min=True, allow_infinity=False),
        thresholds=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 3),
    )
    def test_header_round_trip_in_the_hand_written_format(
        self, tmp_path_factory, kind, class_count, k, theta, thresholds
    ):
        cfg = TaxonomyConfig(kind, class_count, k, theta, *thresholds)
        counts = np.arange(category_count(cfg) * class_count).reshape(-1, class_count)
        table = CalibrationTable(counts=counts.astype(np.int64), config=cfg)
        path = tmp_path_factory.mktemp("table") / "table.txt"
        save_table(table, path)
        loaded = load_table(path)
        assert loaded.config == cfg
        np.testing.assert_array_equal(loaded.counts, table.counts)
        # the v1 table header, spelled out key by key
        header = (
            "# ivenn-calibration-table-v1\n"
            f"kind = {cfg.kind.value}\n"
            f"class_count = {cfg.class_count}\n"
            f"k = {cfg.k}\n"
            f"theta = {'none' if cfg.theta is None else repr(cfg.theta)}\n"
            f"max_output_threshold = {cfg.max_output_threshold!r}\n"
            f"second_output_threshold = {cfg.second_output_threshold!r}\n"
            f"output_gap_threshold = {cfg.output_gap_threshold!r}\n"
            "counts:\n"
        )
        assert path.read_bytes().startswith(header.encode("utf-8"))


class TestCountsTheWidthLawHoldsFor:
    @pytest.mark.parametrize(
        "counts, message",
        [
            ([[-1, 2], [0, 0]], r"^category 0 counts \[-1, 2\]: negative or N > 2\^53 - 1$"),
            ([[0.7, 2.0], [1.0, 0.0]], r"^count 0\.7 in row 0 is not an integer$"),
            ([[0, 0], [2**53 - 1, 1]], r"^category 1 counts \[9007199254740991, 1\]: negative"),
        ],
        ids=["negative", "fraction", "total 2^53"],
    )
    def test_table_rejects_counts(self, counts, message):
        cfg = TaxonomyConfig(kind=TaxonomyKind.BASE_V1, class_count=2)
        with pytest.raises(ValueError, match=message):
            CalibrationTable(counts=np.array(counts), config=cfg)

    def test_int64_max_count_in_a_file_is_named(self, tmp_path):
        # a total summed in int64 would wrap to a negative N
        path = tmp_path / "table.txt"
        save_table(table_from_counts([[0, 0, 0], [0, 4, 0], [0, 0, 0]]), path)
        with open(path, "a") as f:
            f.write(f"1 0 {2**63 - 1}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: category 1 counts"):
            load_table(path)

    def test_largest_total_keeps_exact_bounds(self, tmp_path):
        n = [2**53 - 1 - 12345, 12345]
        path = tmp_path / "table.txt"
        save_table(table_from_counts([[0, 0], n]), path)
        rows = load_table(path).rows
        assert rows.totals[1] == 2**53 - 1
        for j, n_j in enumerate(n):
            assert rows.lower[1, j] == float(Fraction(n_j, 2**53))
            assert rows.upper[1, j] == float(Fraction(n_j + 1, 2**53))

    def test_blank_count_lines_are_skipped(self, tmp_path):
        table = table_from_counts([[0, 0, 3], [0, 4, 0], [0, 0, 0]])
        path = tmp_path / "table.txt"
        save_table(table, path)
        path.write_text(path.read_text().replace("counts:\n", "counts:\n\n  \n", 1))
        np.testing.assert_array_equal(load_table(path).counts, table.counts)
