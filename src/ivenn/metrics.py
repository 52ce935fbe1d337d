"""Evaluation metrics for interval-valued classifiers.

A test-set run is an ordered sequence of EvalRecord (prediction + truth).
From it we compute cumulative error/error-probability curves, accuracy,
negative log-likelihood, Brier score, mean interval diameter, and
expected/maximum calibration error, and assemble everything into one report.

The per-example probability estimate o_i^j is the interval midpoint for
class j; the confidence of a prediction is the midpoint of its predicted
class. Cumulative lower/upper error probabilities accumulate 1 - U(yhat)
and 1 - L(yhat): when the predictor is well calibrated these bracket the
cumulative error count.

Every metric runs on columns. An EvalBatch (a predicted batch plus its
labels) is already columnar: each example indexes its category's row, so
per-category and per-(category, class) terms are computed once, and the
confidence bin comes from the integer counts, exactly. A list of records
is converted to float columns once, one row per record, and binned by its
float confidence. Sums run left to right in input order (cumsum, bincount
weights), as a loop over the records would, so equal inputs give equal
bytes either way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ivenn.data import _write_csv, csv_lines, open_artifact
from ivenn.ivp import IvpBatch, IvpPrediction

# Floor for probabilities entering log; midpoints never reach 1 for a
# nonempty category, so no upper guard is needed.
_LOG_EPS = 1e-12

_REPORT_FORMAT = "ivenn-report-v1"


@dataclass(frozen=True)
class EvalRecord:
    prediction: IvpPrediction
    true_label: int

    @property
    def err(self):
        return 0 if self.prediction.predicted_class == self.true_label else 1

    @property
    def confidence(self):
        return float(self.prediction.mean[self.prediction.predicted_class])


@dataclass(frozen=True)
class EvalBatch(Sequence):
    """A predicted batch with its true labels: a sequence of EvalRecord
    whose records are built only when indexed."""

    predictions: IvpBatch
    labels: np.ndarray  # (m,) int

    def __len__(self):
        return len(self.labels)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        return EvalRecord(prediction=self.predictions[i], true_label=int(self.labels[i]))


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


class _Columns(NamedTuple):
    # example i reads row key[i] of the per-row fields
    key: np.ndarray  # (m,)
    labels: np.ndarray  # (m,) true classes
    lower: np.ndarray  # (K, c)
    upper: np.ndarray  # (K, c)
    mean: np.ndarray  # (K, c)
    predicted: np.ndarray  # (K,)
    empty: np.ndarray  # (K,)
    counts: np.ndarray | None  # (K, c) integer counts, when known
    totals: np.ndarray | None  # (K,)

    @property
    def err(self):
        return self.predicted[self.key] != self.labels

    def at_predicted(self, a):
        """Per-row value of a (K, c) field at the predicted class."""
        return a[np.arange(len(a)), self.predicted]


def _columns(records):
    # the records as columns; columns pass through unchanged
    if isinstance(records, _Columns):
        return records
    if not len(records):
        raise ValueError("need at least one record")
    if isinstance(records, EvalBatch):
        p = records.predictions
        r = p.rows
        return _Columns(
            p.category, np.asarray(records.labels), r.lower, r.upper, r.mean,
            r.predicted, r.empty, r.counts, r.totals,
        )
    preds = [r.prediction for r in records]
    return _Columns(
        key=np.arange(len(preds)),
        labels=np.array([r.true_label for r in records], dtype=np.int64),
        lower=np.array([p.lower for p in preds], dtype=float),
        upper=np.array([p.upper for p in preds], dtype=float),
        mean=np.array([p.mean for p in preds], dtype=float),
        predicted=np.array([p.predicted_class for p in preds], dtype=np.int64),
        empty=np.array([p.empty_category for p in preds], dtype=bool),
        counts=None,
        totals=None,
    )


def _cell_terms(col):
    """Per-example log(o_true) and squared error to the one-hot truth,
    each computed once per distinct (row, true class) cell."""
    c = col.mean.shape[1]
    cells, inverse = np.unique(col.key * c + col.labels, return_inverse=True)
    rows, classes = np.divmod(cells, c)
    o = col.mean[rows]
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
    num, den = bins * (2 * n + 1), 2 * (total + 1)
    return np.clip(-(-num // den) - 1, 0, bins - 1)


def check_bins(bins):
    if bins < 1:
        raise ValueError("bins must be >= 1")


def ece_mce(records, bins=10):
    """Expected and maximum calibration error over equal-width confidence
    bins, plus the per-bin stats. Empty bins do not contribute."""
    col = _columns(records)
    check_bins(bins)
    conf = col.at_predicted(col.mean)
    if col.counts is None:
        row_bin = _bin_index(conf, bins)
    else:
        row_bin = _count_bin_index(col.at_predicted(col.counts), col.totals, bins)
    b = row_bin[col.key]
    counts = np.bincount(b, minlength=bins)
    hits = np.bincount(b[~col.err], minlength=bins)
    conf_sums = np.bincount(b, weights=conf[col.key], minlength=bins)
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


def cumulative(records):
    """Running sums of errors and of 1-U(yhat), 1-L(yhat), in input order."""
    col = _columns(records)
    lep_inc = 1.0 - col.at_predicted(col.upper)
    uep_inc = 1.0 - col.at_predicted(col.lower)
    return CumulativeCurves(
        E=np.cumsum(col.err.astype(float)),
        LEP=np.cumsum(lep_inc[col.key]),
        UEP=np.cumsum(uep_inc[col.key]),
    )


def accuracy(records):
    col = _columns(records)
    return 1.0 - int(col.err.sum()) / len(col.key)


def nll(records):
    """Summed negative log-likelihood of the true class under the interval
    midpoints. The report derives the mean from this."""
    return _nll(_cell_terms(_columns(records))[0])


def brier(records):
    """Mean over samples of the squared error between the midpoint vector
    and the one-hot truth, summed over classes."""
    return _brier(_cell_terms(_columns(records))[1])


def diameter(records):
    """Mean interval width at the predicted class."""
    col = _columns(records)
    width = col.at_predicted(col.upper) - col.at_predicted(col.lower)
    return float(np.mean(width[col.key]))


def build_report(records, bins=10):
    col = _columns(records)
    ece, mce, stats = ece_mce(col, bins)
    log_o, sq = _cell_terms(col)
    total_nll = _nll(log_o)
    n = len(col.key)
    return CalibrationReport(
        n=n,
        accuracy=accuracy(col),
        nll_sum=total_nll,
        nll_mean=total_nll / n,
        brier=_brier(sq),
        diameter=diameter(col),
        ece=ece,
        mce=mce,
        empty_category_count=int(col.empty[col.key].sum()),
        curves=cumulative(col),
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


def save_curves(curves, path):
    """Write curves_csv(curves) to path, a block of rows at a time, so no
    more than one block is held as text."""
    header, columns = _curves_table(curves)
    _write_csv(path, header, *columns)


def save_report(report, report_path, curves_path):
    """Write report_text(report) to report_path and its curves to curves_path."""
    with open_artifact(report_path) as f:
        f.write(report_text(report))
    save_curves(report.curves, curves_path)
