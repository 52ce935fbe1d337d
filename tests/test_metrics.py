"""Hand-computed oracles for every scalar metric and the cumulative curves."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_data import _reference_curves

from ivenn.ivp import category_rows
from ivenn.metrics import (
    EvalBatch,
    _count_bin_index,
    accuracy,
    brier,
    build_report,
    cumulative,
    curves_csv,
    diameter,
    ece_mce,
    nll,
    report_text,
    save_report,
)


def make_record(lower, upper, true_label):
    return tuple(lower), tuple(upper), true_label


def point_record(means, true_label):
    # zero-width intervals: the midpoint vector is exactly `means`
    return make_record(means, means, true_label)


def batch_of(records):
    """An EvalBatch from intervals, one row per (lower, upper, label) record."""
    lower, upper, labels = zip(*records)
    return EvalBatch.from_intervals(lower, upper, labels)


class TestCumulative:
    def test_error_running_sum(self):
        recs = [
            point_record((1.0, 0.0), 0),  # correct
            point_record((1.0, 0.0), 1),  # wrong
            point_record((0.0, 1.0), 1),  # correct
        ]
        assert cumulative(batch_of(recs)).E.tolist() == [0.0, 1.0, 1.0]

    def test_lep_uep_increments(self):
        recs = [make_record((0.6, 0.0), (0.8, 0.2), 0) for _ in range(3)]
        curves = cumulative(batch_of(recs))
        np.testing.assert_allclose(curves.LEP, [0.2, 0.4, 0.6], atol=1e-12)
        np.testing.assert_allclose(curves.UEP, [0.4, 0.8, 1.2], atol=1e-12)

    def test_certain_correct_prediction_all_zero(self):
        recs = [make_record((1.0, 0.0), (1.0, 0.0), 0)]
        curves = cumulative(batch_of(recs))
        assert curves.E[0] == curves.LEP[0] == curves.UEP[0] == 0.0

    def test_monotone_and_ordered(self):
        rng = np.random.default_rng(101)
        recs = []
        for _ in range(100):
            lo = rng.uniform(0.0, 0.5, size=3)
            recs.append(make_record(lo, lo + rng.uniform(0.0, 0.4), int(rng.integers(3))))
        curves = cumulative(batch_of(recs))
        for arr in (curves.E, curves.LEP, curves.UEP):
            assert np.all(np.diff(arr) >= -1e-15)
        assert np.all(curves.LEP <= curves.UEP + 1e-15)

    def test_empty_rejected(self):
        # a batch of no examples is refused when it is made, from either source
        empty = np.empty((0, 2))
        with pytest.raises(ValueError, match=r"^need at least one record$"):
            EvalBatch.from_intervals(empty, empty, [])
        rows = category_rows([[1, 2]])
        with pytest.raises(ValueError, match=r"^need at least one record$"):
            EvalBatch(np.zeros(0, dtype=np.int64), rows, [])

    def test_labels_checked_when_made(self):
        # a label past the classes was once scored as another category's
        # class: category 0 with label 2 read nll 2.3026 and brier 1.62, the
        # values of category 1 with label 0
        rows = category_rows([[3, 1], [0, 4]])
        with pytest.raises(ValueError, match=r"^labels: row 0: label 2 outside \[0, 2\)$"):
            EvalBatch(np.zeros(1, dtype=np.int64), rows, [2])
        # one label for three examples was broadcast to all three
        with pytest.raises(ValueError, match=r"^labels have shape \(1,\), expected \(3,\)$"):
            EvalBatch(np.array([0, 1, 1]), rows, [0])

    def test_categories_checked_when_made(self):
        # a negative category once wrapped to a row from the end: category -1
        # with label 0 was scored as category 1 (nll_sum 2.3026) with no error
        rows = category_rows([[3, 1], [0, 4]])
        with pytest.raises(ValueError, match=r"^category: row 0: category -1 outside \[0, 2\)$"):
            EvalBatch(np.array([-1]), rows, [0])
        with pytest.raises(ValueError, match=r"^category: row 1: category 2 outside \[0, 2\)$"):
            EvalBatch(np.array([0, 2, 1]), rows, [0, 1, 1])
        # a (3, 1) column was accepted, and build_report failed in numpy
        with pytest.raises(ValueError, match=r"^category has shape \(3, 1\), expected \(m,\)$"):
            EvalBatch(np.array([[0], [1], [1]]), rows, [0, 1, 1])
        with pytest.raises(ValueError, match=r"^category has shape \(\), expected \(m,\)$"):
            EvalBatch(np.array(0), rows, [0])

    @pytest.mark.parametrize(
        "lower, upper, message",
        [
            # nan bounds were scored as a report of nan
            ([[np.nan, np.nan], [0.2, 0.6]], [[np.nan, np.nan], [0.3, 0.7]],
             r"^lower bounds row 0 is not finite \(nan or inf\)$"),
            ([[0.2, 0.6], [0.2, 0.6]], [[0.3, 0.7], [0.3, np.inf]],
             r"^upper bounds row 1 is not finite \(nan or inf\)$"),
            # lower above upper gave a diameter of -0.7
            ([[0.9, 0.1]], [[0.2, 0.3]], r"^interval row 0 needs 0 <= lower <= upper <= 1$"),
            ([[0.2, 0.6], [-0.1, 0.6]], [[0.3, 0.7]] * 2,
             r"^interval row 1 needs 0 <= lower <= upper <= 1$"),
            ([[0.2, 0.6]], [[0.3, 1.5]], r"^interval row 0 needs 0 <= lower <= upper <= 1$"),
        ],
        ids=["nan lower", "inf upper", "lower above upper", "below 0", "above 1"],
    )
    def test_bad_bounds_refused(self, lower, upper, message):
        with pytest.raises(ValueError, match=message):
            EvalBatch.from_intervals(lower, upper, [0] * len(lower))

    def test_interval_shapes_checked(self):
        for lower, upper, labels, message in [
            # one example as a flat vector
            ((0.5, 0.5), (0.5, 0.5), [0], r"^lower bounds have shape \(2,\), expected \(m, dim\)$"),
            # bounds of different widths
            ([(0.5, 0.5)], [(0.5, 0.5, 0.0)], [0],
             r"^upper bounds have shape \(1, 3\), expected \(m, 2\)$"),
            # bounds of different lengths
            ([(0.5, 0.5)], [(0.5, 0.5)] * 2, [0], r"^upper bounds have 2 rows, lower bounds 1$"),
            # a label without a row
            ([(0.5, 0.5)], [(0.5, 0.5)], [0, 1], r"^labels have shape \(2,\), expected \(1,\)$"),
        ]:
            with pytest.raises(ValueError, match=message):
                EvalBatch.from_intervals(lower, upper, labels)
        # the labels follow the one label rule
        with pytest.raises(ValueError, match=r"^labels: row 1: label 2 outside \[0, 2\)$"):
            EvalBatch.from_intervals([(0.5, 0.5)] * 2, [(0.5, 0.5)] * 2, [1, 2])

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.integers(2, 5),
        categories=st.integers(1, 12),
        m=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_curves_ordered_and_nondecreasing(self, c, categories, m, seed):
        # exact, no tolerance: 1 - U <= 1 - L per example, both >= 0, and a
        # running sum rounds monotonically
        curves = cumulative(random_batch(np.random.default_rng(seed), c, categories, m))
        assert np.all(curves.LEP <= curves.UEP)
        for arr in (curves.E, curves.LEP, curves.UEP):
            assert len(arr) == m and arr[0] >= 0.0
            assert np.all(np.diff(arr) >= 0.0)


class TestAccuracy:
    def test_extremes_and_fraction(self):
        right = point_record((1.0, 0.0), 0)
        wrong = point_record((1.0, 0.0), 1)
        assert accuracy(batch_of([right] * 5)) == 1.0
        assert accuracy(batch_of([wrong] * 5)) == 0.0
        assert accuracy(batch_of([right, right, right, wrong])) == 0.75

    def test_matches_cumulative(self):
        rng = np.random.default_rng(103)
        recs = [
            point_record(rng.dirichlet(np.ones(3)), int(rng.integers(3)))
            for _ in range(60)
        ]
        assert accuracy(batch_of(recs)) == 1.0 - cumulative(batch_of(recs)).E[-1] / len(recs)


class TestNll:
    def test_certain_truth_is_zero(self):
        recs = [make_record((1.0, 0.0), (1.0, 0.0), 0) for _ in range(4)]
        assert nll(batch_of(recs)) == 0.0

    def test_half_probability_is_ln2(self):
        recs = [point_record((0.5, 0.5), 0)]
        np.testing.assert_allclose(nll(batch_of(recs)), math.log(2.0), rtol=0, atol=1e-12)

    def test_zero_probability_clamped(self):
        recs = [point_record((1.0, 0.0), 1)]
        np.testing.assert_allclose(nll(batch_of(recs)), -math.log(1e-12), rtol=0, atol=1e-12)
        assert math.isfinite(nll(batch_of(recs * 100)))

    def test_permutation_invariant_and_doubling(self):
        rng = np.random.default_rng(107)
        recs = [
            point_record(rng.dirichlet(np.ones(3)), int(rng.integers(3)))
            for _ in range(40)
        ]
        perm = [recs[i] for i in rng.permutation(40)]
        np.testing.assert_allclose(nll(batch_of(perm)), nll(batch_of(recs)), rtol=1e-12)
        np.testing.assert_allclose(
            nll(batch_of(recs + recs)), 2.0 * nll(batch_of(recs)), rtol=1e-12
        )


class TestBrier:
    def test_one_hot_correct_is_zero(self):
        recs = [point_record((0.0, 1.0, 0.0), 1)]
        assert brier(batch_of(recs)) == 0.0

    def test_two_class_half(self):
        np.testing.assert_allclose(
            brier(batch_of([point_record((0.5, 0.5), 0)])), 0.5, rtol=0, atol=1e-12
        )

    def test_uniform_three_class(self):
        recs = [point_record((1 / 3, 1 / 3, 1 / 3), 2)]
        np.testing.assert_allclose(brier(batch_of(recs)), 2.0 / 3.0, rtol=0, atol=1e-12)

    def test_duplication_invariant(self):
        rng = np.random.default_rng(109)
        recs = [
            point_record(rng.dirichlet(np.ones(4)), int(rng.integers(4)))
            for _ in range(30)
        ]
        np.testing.assert_allclose(brier(batch_of(recs + recs)), brier(batch_of(recs)), rtol=1e-12)
        assert accuracy(batch_of(recs + recs)) == accuracy(batch_of(recs))


class TestDiameter:
    def test_mean_of_widths(self):
        recs = [
            make_record((0.6, 0.0), (0.8, 0.2), 0),
            make_record((0.3, 0.0), (0.7, 0.3), 0),
        ]
        np.testing.assert_allclose(diameter(batch_of(recs)), 0.3, rtol=0, atol=1e-12)

    def test_constant_width_law(self):
        # every interval from one category of total N=4 has width 1/5
        recs = [make_record((0.6, 0.2), (0.8, 0.4), 0) for _ in range(10)]
        np.testing.assert_allclose(diameter(batch_of(recs)), 0.2, rtol=0, atol=1e-12)

    def test_vacuous_intervals(self):
        recs = [make_record((0.0, 0.0), (1.0, 1.0), 0)]
        assert diameter(batch_of(recs)) == 1.0


class TestEceMce:
    def test_single_bin_gap(self):
        recs = [point_record((0.8, 0.2), 0)] * 3 + [point_record((0.8, 0.2), 1)]
        ece, mce, stats = ece_mce(batch_of(recs), bins=10)
        np.testing.assert_allclose(ece, 0.05, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mce, 0.05, rtol=0, atol=1e-12)
        assert len(stats) == 1
        assert stats[0].bin_index == 7 and stats[0].count == 4

    def test_perfectly_calibrated(self):
        recs = [point_record((0.75, 0.25), 0)] * 3 + [point_record((0.75, 0.25), 1)]
        ece, mce, _ = ece_mce(batch_of(recs), bins=10)
        assert ece == 0.0 and mce == 0.0

    def test_two_bins_weighted_vs_max(self):
        bin_a = [point_record((0.65, 0.35), 0)] * 15 + [point_record((0.65, 0.35), 1)] * 5
        bin_b = [point_record((0.85, 0.15), 0)] * 11 + [point_record((0.85, 0.15), 1)] * 9
        ece, mce, stats = ece_mce(batch_of(bin_a + bin_b), bins=10)
        np.testing.assert_allclose(ece, 0.2, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mce, 0.3, rtol=0, atol=1e-12)
        assert [s.bin_index for s in stats] == [6, 8]

    def test_right_inclusive_binning(self):
        # confidence exactly 0.7 belongs to bin 6 = (0.6, 0.7]
        recs = [point_record((0.7, 0.3), 0)] * 2
        _, _, stats = ece_mce(batch_of(recs), bins=10)
        assert [s.bin_index for s in stats] == [6]
        # confidence 1.0 stays in the last bin
        recs = [point_record((1.0, 0.0), 0)]
        _, _, stats = ece_mce(batch_of(recs), bins=10)
        assert [s.bin_index for s in stats] == [9]

    def test_bounds_random(self):
        rng = np.random.default_rng(113)
        recs = [
            point_record(rng.dirichlet(np.ones(3)), int(rng.integers(3)))
            for _ in range(200)
        ]
        ece, mce, _ = ece_mce(batch_of(recs), bins=10)
        assert 0.0 <= ece <= mce <= 1.0

    def test_bad_bins(self):
        with pytest.raises(ValueError, match="bins"):
            ece_mce(batch_of([point_record((1.0, 0.0), 0)]), bins=0)


class TestReport:
    def make_records(self, seed=127, n=80):
        rng = np.random.default_rng(seed)
        recs = []
        for _ in range(n):
            if rng.random() < 0.1:
                recs.append(make_record((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 0))
            else:
                lo = rng.dirichlet(np.ones(3)) * 0.8
                recs.append(make_record(lo, lo + 0.05, int(rng.integers(3))))
        return recs

    def test_fields_consistent(self):
        recs = self.make_records()
        report = build_report(batch_of(recs), bins=10)
        assert report.n == len(recs)
        assert report.accuracy == accuracy(batch_of(recs))
        np.testing.assert_allclose(report.nll_mean, report.nll_sum / report.n, rtol=1e-15)
        assert report.ece <= report.mce
        assert 0.0 <= report.diameter <= 1.0
        assert report.empty_category_count == sum(
            1 for lower, upper, _ in recs if upper[0] - lower[0] == 1.0
        )

    def test_serialization_deterministic(self):
        recs = self.make_records()
        a, b = build_report(batch_of(recs)), build_report(batch_of(recs))
        assert report_text(a) == report_text(b)
        assert curves_csv(a.curves) == curves_csv(b.curves)
        text = report_text(a)
        assert text.startswith("# ivenn-report-v1\n")
        assert f"n = {len(recs)}" in text
        assert "bins:" in text

    def test_curves_csv_shape(self):
        recs = self.make_records(n=5)
        lines = curves_csv(build_report(batch_of(recs)).curves).strip().split("\n")
        assert lines[0] == "n,E,LEP,UEP"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert first[0] == "1" and len(first) == 4

    def test_curves_depend_on_order(self):
        right = point_record((1.0, 0.0), 0)
        wrong = point_record((1.0, 0.0), 1)
        a = cumulative(batch_of([right, wrong])).E.tolist()
        b = cumulative(batch_of([wrong, right])).E.tolist()
        assert a != b


def loop_report(batch, bins):
    """The metrics written as one loop over the examples, summing left to
    right: the arithmetic every columnar path must reproduce bit for bit."""
    E = LEP = UEP = nll_total = brier_total = 0.0
    curves, widths, errs, empties = [], [], [], []
    hits, counts, conf_sums = [0] * bins, [0] * bins, [0.0] * bins
    r = batch.rows
    for k, y in zip(batch.category.tolist(), batch.labels.tolist()):
        lower, upper, mean = r.lower[k], r.upper[k], r.mean[k]
        j = int(r.predicted[k])
        err = 0 if j == y else 1
        confidence = float(mean[j])
        errs.append(err)
        empties.append(bool(r.empty[k]))
        E += err
        LEP += 1.0 - float(upper[j])
        UEP += 1.0 - float(lower[j])
        curves.append((E, LEP, UEP))
        nll_total -= math.log(max(float(mean[y]), 1e-12))
        t = np.zeros_like(mean)
        t[y] = 1.0
        brier_total += float(((mean - t) ** 2).sum())
        widths.append(float(upper[j] - lower[j]))
        m = min(max(math.ceil(confidence * bins) - 1, 0), bins - 1)
        counts[m] += 1
        hits[m] += 1 - err
        conf_sums[m] += confidence
    n = len(errs)
    ece = mce = 0.0
    stats = []
    for m in range(bins):
        if counts[m]:
            acc, conf = hits[m] / counts[m], conf_sums[m] / counts[m]
            ece += counts[m] / n * abs(acc - conf)
            mce = max(mce, abs(acc - conf))
            stats.append((m, counts[m], acc, conf))
    return dict(
        curves=curves, nll_sum=nll_total, brier=brier_total / n,
        diameter=float(np.mean(widths)), ece=ece, mce=mce, bin_stats=stats,
        empty=sum(empties), accuracy=1.0 - sum(errs) / n,
    )


def assert_matches_loop(report, batch, bins, check_bins=True):
    want = loop_report(batch, bins)
    curves = report.curves
    assert list(zip(curves.E.tolist(), curves.LEP.tolist(), curves.UEP.tolist())) == want["curves"]
    for field in ("nll_sum", "brier", "diameter", "accuracy"):
        assert repr(getattr(report, field)) == repr(want[field]), field
    assert report.empty_category_count == want["empty"]
    if check_bins:
        assert (repr(report.ece), repr(report.mce)) == (repr(want["ece"]), repr(want["mce"]))
        got = [(b.bin_index, b.count, b.accuracy, b.confidence) for b in report.bin_stats]
        assert repr(got) == repr(want["bin_stats"])


def exact_bin(n, total, bins):
    conf = Fraction(2 * n + 1, 2 * (total + 1))
    return min(max(math.ceil(conf * bins) - 1, 0), bins - 1)


def random_batch(rng, c, categories, m):
    counts = rng.integers(0, 60, size=(categories, c))
    counts *= rng.random((categories, 1)) > 0.1  # a few empty categories
    rows = category_rows(counts)
    return EvalBatch(rng.integers(0, categories, m), rows, rng.integers(0, c, m))


def without_counts(batch):
    """The same examples as an EvalBatch from their intervals: one row each
    and no counts, so binned by the float confidence."""
    k = batch.category
    return EvalBatch.from_intervals(batch.rows.lower[k], batch.rows.upper[k], batch.labels)


class TestColumns:
    def test_records_match_the_loop(self):
        recs = TestReport().make_records(n=300)
        recs += [point_record((1.0, 0.0, 0.0), 0), point_record((0.0, 0.2, 0.8), 0)]
        assert_matches_loop(build_report(batch_of(recs), bins=10), batch_of(recs), 10)
        # the loop's 0.0 - log(1.0) is +0.0, not -0.0
        assert repr(nll(batch_of([point_record((1.0, 0.0), 0)]))) == "0.0"

    @settings(max_examples=150, deadline=None)
    @given(
        c=st.integers(2, 5),
        categories=st.integers(1, 12),
        m=st.integers(1, 200),
        bins=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_matches_records_and_loop(self, c, categories, m, bins, seed):
        batch = random_batch(np.random.default_rng(seed), c, categories, m)
        records = without_counts(batch)
        cats = batch.category
        n = batch.rows.counts[np.arange(categories), batch.rows.predicted][cats]
        total = batch.rows.totals[cats]
        # a confidence on a bin edge is where float binning may land one bin
        # high; everything else must agree to the last bit
        on_edge = bool(((bins * (2 * n + 1)) % (2 * (total + 1)) == 0).any())
        from_batch = build_report(batch, bins=bins)
        assert_matches_loop(from_batch, batch, bins, check_bins=not on_edge)
        assert_matches_loop(build_report(records, bins=bins), records, bins)
        if not on_edge:
            assert report_text(from_batch) == report_text(build_report(records, bins=bins))
        assert curves_csv(from_batch.curves) == curves_csv(build_report(records, bins=bins).curves)
        exact = [exact_bin(int(a), int(b), bins) for a, b in zip(n, total)]
        got = [s.bin_index for s in from_batch.bin_stats]
        assert got == sorted(set(exact))
        assert [s.count for s in from_batch.bin_stats] == [exact.count(b) for b in got]


class TestExactBinning:
    def test_edge_confidence_regression(self):
        # counts (1, 1, 1, 1): predicted class 0 with n = 1, N = 4, so the
        # confidence is 3/10 exactly, the right edge of bin 2. The float
        # midpoint (0.2 + 0.4) / 2 is 0.30000000000000004, one bin high.
        rows = category_rows([[1, 1, 1, 1]])
        assert rows.mean[0, 0] == 0.30000000000000004
        batch = EvalBatch(np.zeros(1, dtype=np.int64), rows, np.zeros(1, dtype=np.int64))
        assert [s.bin_index for s in ece_mce(batch, bins=10)[2]] == [2]
        # intervals carry no counts and keep the float path
        assert [s.bin_index for s in ece_mce(without_counts(batch), bins=10)[2]] == [3]

    @settings(max_examples=500, deadline=None)
    @given(
        total=st.integers(0, 2**53 - 1),
        frac=st.fractions(0, 1),
        bins=st.integers(1, 10**4),
    )
    def test_integer_bins_are_exact(self, total, frac, bins):
        # totals up to the width law's bound, where bins * (2n + 1) passes int64
        n = int(frac * total)
        got = _count_bin_index(np.array([n]), np.array([total]), bins)
        assert got.tolist() == [exact_bin(n, total, bins)]

    def test_edge_pairs_below_400(self):
        # every (n, N) with N < 400 at 10 bins: the integer bins are exact,
        # while the float midpoint misbins exactly 14 of them
        n, total = np.array([(a, b) for b in range(400) for a in range(b + 1)]).T
        integer = _count_bin_index(n, total, 10)
        exact = [exact_bin(a, b, 10) for a, b in zip(n.tolist(), total.tolist())]
        assert integer.tolist() == exact
        conf = (n / (total + 1) + (n + 1) / (total + 1)) / 2.0
        floats = np.clip(np.ceil(conf * 10).astype(np.int64) - 1, 0, 9)
        assert int((floats != integer).sum()) == 14


class TestCurvesGrid:
    """curves.csv keeps every row for up to 1024 examples, else 1024 rows at
    n = ceil(i m / 1024), each cell the full curve's value at n."""

    @pytest.mark.parametrize("m", [1, 1023, 1024, 1025, 30000])
    def test_grid(self, tmp_path, m):
        report = build_report(random_batch(np.random.default_rng(m), 3, 7, m))
        curves = report.curves
        assert len(curves.E) == m  # the report keeps every example
        text = curves_csv(curves)
        header, *rows = text.splitlines()
        assert header == "n,E,LEP,UEP"
        assert len(rows) == min(m, 1024)
        cells = [row.split(",") for row in rows]
        n = [int(row[0]) for row in cells]
        assert n[0] == -(-m // 1024) and n[-1] == m
        assert all(a < b for a, b in zip(n, n[1:]))
        for row, i in zip(cells, n):
            assert row[1:] == [repr(float(a[i - 1])) for a in (curves.E, curves.LEP, curves.UEP)]
        if m <= 1024:
            assert text == _reference_curves(curves.E.tolist(), curves.LEP.tolist(),
                                             curves.UEP.tolist())
        save_report(report, tmp_path / "report.txt", tmp_path / "curves.csv")
        assert (tmp_path / "curves.csv").read_text() == text
