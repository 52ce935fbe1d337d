"""Evaluation metrics for interval-valued classifiers.

A test-set run is one EvalBatch: per example, the intervals it was given
and its true label. From it we compute cumulative error/error-probability
curves, accuracy, negative log-likelihood, Brier score, mean interval
diameter, and expected/maximum calibration error, and assemble everything
into one report.

The per-example probability estimate o_i^j is the interval midpoint for
class j; the confidence of a prediction is the midpoint of its predicted
class. Cumulative lower/upper error probabilities accumulate 1 - U(yhat)
and 1 - L(yhat): when the predictor is well calibrated these bracket the
cumulative error count.

An EvalBatch is an ivp.IvpBatch with labels: example i reads row
category[i] of each field of its CategoryRows, so per-row and
per-(row, class) terms are computed once. Built from predictions, its rows
are the table's categories and carry their integer counts, so the
confidence bin is exact. Built from explicit intervals, each example is its
own row, no counts are known, and the bin comes from the float confidence.
Sums run left to right in example order (cumsum, bincount weights), as a
loop over the examples would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ivenn.data import (
    _write_csv,
    check_finite_rows,
    csv_lines,
    float_rows,
    index_values,
    open_artifact,
    row_labels,
)
from ivenn.ivp import CategoryRows, IvpBatch

# Floor for probabilities entering log; midpoints never reach 1 for a
# nonempty category, so no upper guard is needed.
_LOG_EPS = 1e-12

_REPORT_FORMAT = "ivenn-report-v1"


@dataclass(frozen=True)
class CumulativeCurves:
    """Running sums in prediction order: errors, lower and upper error
    probabilities. LEP <= E-expectation <= UEP holds only in aggregate; the
    structural guarantees are monotonicity and LEP <= UEP pointwise."""

    E: np.ndarray
    LEP: np.ndarray
    UEP: np.ndarray


@dataclass(frozen=True)
class BinStat:
    bin_index: int
    count: int
    accuracy: float
    confidence: float


@dataclass(frozen=True)
class CalibrationReport:
    n: int
    accuracy: float
    nll_sum: float
    nll_mean: float
    brier: float
    diameter: float
    ece: float
    mce: float
    empty_category_count: int
    curves: CumulativeCurves
    bin_stats: tuple


@dataclass(frozen=True)
class EvalBatch(IvpBatch):
    """A predicted batch with its true labels: example i gets row
    category[i] of each field of `rows` and has class labels[i]; both
    columns are checked against `rows` when made. Built from predictions as
    `EvalBatch(batch.category, batch.rows, labels)`, or from explicit
    intervals (`from_intervals`)."""

    labels: np.ndarray  # (m,) true classes

    def __post_init__(self):
        category = np.asarray(self.category)
        if category.ndim != 1:
            raise ValueError(f"category has shape {category.shape}, expected (m,)")
        category = index_values(category, len(self.rows.lower), "category", "category")
        labels = row_labels(self.labels, len(category), self.rows.lower.shape[1])
        if not len(labels):
            raise ValueError("need at least one record")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "category", category)

    @classmethod
    def from_intervals(cls, lower, upper, labels):
        """One row per example from (m, c) interval bounds and labels: the
        predicted class maximizes the midpoint, ties to the lowest class,
        and a row of vacuous [0, 1] intervals is empty. No counts are known.
        Every bound is finite and 0 <= lower <= upper <= 1."""
        lower = float_rows(lower, None, "lower bounds")
        upper = float_rows(upper, lower.shape[1], "upper bounds")
        if len(upper) != len(lower):
            raise ValueError(f"upper bounds have {len(upper)} rows, lower bounds {len(lower)}")
        check_finite_rows(lower, "lower bounds")
        check_finite_rows(upper, "upper bounds")
        bad = ((lower < 0.0) | (lower > upper) | (upper > 1.0)).any(axis=1)
        if bad.any():
            raise ValueError(f"interval row {int(np.argmax(bad))} needs 0 <= lower <= upper <= 1")
        mean = (lower + upper) / 2.0
        empty = (lower == 0.0).all(axis=1) & (upper == 1.0).all(axis=1)
        rows = CategoryRows(None, None, lower, upper, mean, np.argmax(mean, axis=1), empty)
        return cls(np.arange(len(lower)), rows, labels)

    @property
    def err(self):
        return self.rows.predicted[self.category] != self.labels

    def at_predicted(self, a):
        """Per-row value of a (K, c) field of `rows` at the predicted class."""
        return a[np.arange(len(a)), self.rows.predicted]


def _cell_terms(batch):
    """Per-example log(o_true) and squared error to the one-hot truth,
    each computed once per distinct (row, true class) cell."""
    mean = batch.rows.mean
    c = mean.shape[1]
    cells, inverse = np.unique(batch.category * c + batch.labels, return_inverse=True)
    rows, classes = np.divmod(cells, c)
    o = mean[rows]
    o_true = o[np.arange(len(o)), classes].tolist()
    log_o = np.array([math.log(max(v, _LOG_EPS)) for v in o_true])
    sq = ((o - np.eye(c)[classes]) ** 2).sum(axis=1)
    return log_o[inverse], sq[inverse]


def _nll(log_o):
    # 0 - (l1 + l2 + ...) rounds exactly as the loop 0 - l1 - l2 - ...,
    # signed zero included
    return 0.0 - float(np.cumsum(log_o)[-1])


def _brier(sq):
    return float(np.cumsum(sq)[-1]) / len(sq)


def _bin_index(conf, bins):
    # Right-inclusive equal-width bins on [0, 1]: bin m covers (m/M, (m+1)/M].
    return np.clip(np.ceil(conf * bins).astype(np.int64) - 1, 0, bins - 1)


def _count_bin_index(n, total, bins):
    # The same bins for the exact confidence (2n + 1) / (2 (N + 1)), the
    # midpoint of [n/(N+1), (n+1)/(N+1)], in integers: a float midpoint can
    # land one bin high on an edge (n=1, N=4 gives 0.30000000000000004).
    # Python integers, one row at a time, since bins * (2n + 1) can pass
    # int64. ceil(x / y) - 1 is (x - 1) // y; for 0 <= n <= N the confidence
    # lies in (0, 1), so the bin lies in [0, bins - 1].
    m = int(bins)
    return np.array(
        [(m * (2 * a + 1) - 1) // (2 * (b + 1)) for a, b in zip(n.tolist(), total.tolist())],
        dtype=np.int64,
    )


def check_bins(bins):
    if bins < 1:
        raise ValueError("bins must be >= 1")


def ece_mce(batch, bins=10):
    """Expected and maximum calibration error over equal-width confidence
    bins, plus the per-bin stats. Empty bins do not contribute."""
    check_bins(bins)
    r = batch.rows
    conf = batch.at_predicted(r.mean)
    if r.counts is None:
        row_bin = _bin_index(conf, bins)
    else:
        row_bin = _count_bin_index(batch.at_predicted(r.counts), r.totals, bins)
    b = row_bin[batch.category]
    counts = np.bincount(b, minlength=bins)
    hits = np.bincount(b[~batch.err], minlength=bins)
    conf_sums = np.bincount(b, weights=conf[batch.category], minlength=bins)
    n = len(b)
    ece = 0.0
    mce = 0.0
    stats = []
    for m in range(bins):
        if counts[m] == 0:
            continue
        acc_m = float(hits[m] / counts[m])
        conf_m = float(conf_sums[m] / counts[m])
        gap = abs(acc_m - conf_m)
        ece += int(counts[m]) / n * gap
        mce = max(mce, gap)
        stats.append(
            BinStat(
                bin_index=m,
                count=int(counts[m]),
                accuracy=acc_m,
                confidence=conf_m,
            )
        )
    return ece, mce, tuple(stats)


def cumulative(batch):
    """Running sums of errors and of 1-U(yhat), 1-L(yhat), in example order."""
    lep_inc = 1.0 - batch.at_predicted(batch.rows.upper)
    uep_inc = 1.0 - batch.at_predicted(batch.rows.lower)
    return CumulativeCurves(
        E=np.cumsum(batch.err.astype(float)),
        LEP=np.cumsum(lep_inc[batch.category]),
        UEP=np.cumsum(uep_inc[batch.category]),
    )


def accuracy(batch):
    return 1.0 - int(batch.err.sum()) / len(batch.category)


def nll(batch):
    """Summed negative log-likelihood of the true class under the interval
    midpoints. The report derives the mean from this."""
    return _nll(_cell_terms(batch)[0])


def brier(batch):
    """Mean over samples of the squared error between the midpoint vector
    and the one-hot truth, summed over classes."""
    return _brier(_cell_terms(batch)[1])


def diameter(batch):
    """Mean interval width at the predicted class."""
    width = batch.at_predicted(batch.rows.upper) - batch.at_predicted(batch.rows.lower)
    return float(np.mean(width[batch.category]))


def build_report(batch, bins=10):
    ece, mce, stats = ece_mce(batch, bins)
    log_o, sq = _cell_terms(batch)
    total_nll = _nll(log_o)
    n = len(batch.category)
    return CalibrationReport(
        n=n,
        accuracy=accuracy(batch),
        nll_sum=total_nll,
        nll_mean=total_nll / n,
        brier=_brier(sq),
        diameter=diameter(batch),
        ece=ece,
        mce=mce,
        empty_category_count=int(batch.rows.empty[batch.category].sum()),
        curves=cumulative(batch),
        bin_stats=stats,
    )


def report_text(report):
    """One metric per line; floats via repr so equal runs serialize to
    identical bytes."""
    lines = [f"# {_REPORT_FORMAT}"]
    lines.append(f"n = {report.n}")
    lines.append(f"accuracy = {report.accuracy!r}")
    lines.append(f"errors = {int(report.curves.E[-1])}")
    lines.append(f"nll_sum = {report.nll_sum!r}")
    lines.append(f"nll_mean = {report.nll_mean!r}")
    lines.append(f"brier = {report.brier!r}")
    lines.append(f"diameter = {report.diameter!r}")
    lines.append(f"ece = {report.ece!r}")
    lines.append(f"mce = {report.mce!r}")
    lines.append(f"empty_categories = {report.empty_category_count}")
    lines.append(f"final_E = {float(report.curves.E[-1])!r}")
    lines.append(f"final_LEP = {float(report.curves.LEP[-1])!r}")
    lines.append(f"final_UEP = {float(report.curves.UEP[-1])!r}")
    lines.append("bins:")
    lines.append("bin count accuracy confidence")
    for b in report.bin_stats:
        lines.append(f"{b.bin_index} {b.count} {b.accuracy!r} {b.confidence!r}")
    return "\n".join(lines) + "\n"


def _curves_table(curves):
    # the header and columns of curves.csv
    n = np.arange(1, len(curves.E) + 1)
    return ["n", "E", "LEP", "UEP"], (n, curves.E, curves.LEP, curves.UEP)


def curves_csv(curves):
    """Cumulative curves as CSV with columns n, E, LEP, UEP."""
    header, columns = _curves_table(curves)
    return "\n".join([",".join(header), *csv_lines(*columns)]) + "\n"


def save_report(report, report_path, curves_path):
    """Write report_text(report) to report_path and curves_csv(report.curves)
    to curves_path, the curves a block of rows at a time, so no more than one
    block is held as text."""
    with open_artifact(report_path) as f:
        f.write(report_text(report))
    header, columns = _curves_table(report.curves)
    _write_csv(curves_path, header, *columns)
