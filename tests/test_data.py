"""CSV ingestion, deterministic splits, synthetic blobs."""

import contextlib
import hashlib
import io
import itertools
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivenn import cli, data
from ivenn.data import Dataset, SplitSpec, load_csv, save_csv, split, synth_gaussians
from ivenn.ivp import calibrate, category_rows, load_table
from ivenn.metrics import (
    CumulativeCurves,
    EvalBatch,
    build_report,
    curves_csv,
    report_text,
    save_report,
)
from ivenn.mlp import (
    TrainConfig,
    forward_batch,
    init_params,
    save_params,
    train_classifier,
    train_siamese,
)
from ivenn.pipeline import RunConfig, _write_predictions, load_predictions, run_pipeline
from ivenn.space import build_centroids, build_index, nearest_centroid_many, silhouette
from ivenn.taxonomy import Taxonomy, TaxonomyConfig, TaxonomyKind, fit_taxonomy, resolve_theta

ROOT = Path(__file__).resolve().parent.parent

WELL_FORMED = """id,label,f0,f1
0,0,1.5,-2.0
1,1,0.25,0.75
2,0,3.0,4.0
"""

WITH_SOFTMAX = """id,label,f0,s0,s1
0,0,1.0,0.9,0.1
1,1,2.0,0.3,0.7
"""


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(WELL_FORMED)
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.feature_dim == 2 and ds.class_count == 2
        np.testing.assert_array_equal(ds.ids, [0, 1, 2])
        np.testing.assert_array_equal(ds.features[0], [1.5, -2.0])
        assert ds.softmaxes is None

    def test_softmax_block(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(WITH_SOFTMAX)
        ds = load_csv(path)
        assert ds.class_count == 2 and ds.feature_dim == 1
        np.testing.assert_array_equal(ds.softmaxes[1], [0.3, 0.7])

    def test_short_row_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,f1\n0,0,1.0,2.0\n1,1,3.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3"):
            load_csv(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,0,oops\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: f0 cell 'oops' is not a number"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(f"id,label,f0,f1\n0,0,1.0,2.0\n1,1,3.0,{cell}\n2,0,{cell},1.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: non-finite"):
            load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_score_names_line(self, tmp_path, cell):
        path = tmp_path / "d.csv"
        path.write_text(
            f"id,label,f0,s0,s1\n0,0,1.0,0.5,0.5\n1,1,2.0,0.5,0.5\n2,1,3.0,{cell},0.5\n"
        )
        with pytest.raises(ValueError, match=r"d\.csv:4: non-finite"):
            load_csv(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n\n1,0,oops\n")
        with pytest.raises(ValueError, match=r"d\.csv:4: f0 cell 'oops' is not a number"):
            load_csv(path)
        path.write_text("\nid,label,f0,f1\n0,0,1.0,2.0\n\n\n1,1,3.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:6: expected 4 columns"):
            load_csv(path)
        path.write_text("id,label,f0\n\n0,0,1.0\n\n1,0,nan\n")
        with pytest.raises(ValueError, match=r"d\.csv:5: non-finite"):
            load_csv(path)
        path.write_text("id,label,f0\n0,0,1.0\n\n\n1,5,2.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:5: label 5"):
            load_csv(path, class_count=2)

    def test_bad_softmax_sum(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,s0,s1\n0,0,1.0,0.5,0.4\n")
        with pytest.raises(ValueError, match="sum to 1"):
            load_csv(path)

    def test_bad_score_row_names_line(self, tmp_path):
        # it was named by its index among the rows, `softmax row 1`
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0,s0,s1\n0,0,1.0,0.5,0.5\n\n2,1,0.1,0.9,0.2\n")
        message = r"softmax row must be finite, nonnegative and sum to 1 \(tol 1e-6\)$"
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: {message}"):
            load_csv(path)

    def test_label_outside_declared_classes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n1,5,2.0\n")
        with pytest.raises(ValueError, match=r"d\.csv:3.*label 5"):
            load_csv(path, class_count=2)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("label,id,f0\n0,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "absent.csv")

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(131)
        soft = rng.dirichlet(np.ones(3), size=20)
        ds = Dataset(
            ids=np.arange(20, dtype=np.int64),
            features=rng.normal(size=(20, 4)),
            labels=rng.integers(0, 3, 20),
            class_count=3,
            softmaxes=soft,
        )
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.features, ds.features)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.softmaxes, ds.softmaxes)

    @pytest.mark.parametrize("row", [3, 1900])
    def test_byte_that_is_not_utf8_names_its_line(self, tmp_path, row):
        # 2000 rows, so row 1900 lies past the first text buffer
        path = tmp_path / "d.csv"
        text = _rows(2000).encode()
        at = text.index(f"\n{row},".encode()) + 1
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(ValueError, match=rf"d\.csv:{2 + row}: byte 0xff is not UTF-8$"):
            load_csv(path)


HEADER = "id,label,f0,f1\n"


def _loaded(ids, labels, features, class_count, scores=None):
    """The Dataset that a load of these rows gives: int64 ids and labels,
    float64 features and scores."""
    return Dataset(ids=np.array(ids, np.int64), labels=np.array(labels, np.int64),
                   features=np.array(features, float), class_count=class_count,
                   softmaxes=None if scores is None else np.array(scores, float))


NO_ROWS = np.empty((0, 2))
ROWS_1_TO_4 = _loaded([1, 2, 3, 4], [0, 1, 0, 1], [[1, 2], [3, 4], [5, 6], [7, 8]], 2)
ROWS_1_TO_3 = _loaded([1, 2, 3], [0, 1, 0], [[1, 2], [3, 4], [5, 6]], 2)

# (name, file text, class_count, what load_csv gives: the Dataset, or the
# error text after `path:`), numpy's reader alone deciding what loads; the
# cases sit where a reader's rules are easy to get wrong
EDGE_INPUTS = [
    ("spaces_and_tabs", HEADER + " 1 ,\t0, 1.5\t,-2 \n", None, _loaded([1], [0], [[1.5, -2]], 1)),
    ("crlf", "id,label,f0,f1\r\n1,0,1.5,2\r\n2,1,3,4\r\n", None,
     _loaded([1, 2], [0, 1], [[1.5, 2], [3, 4]], 2)),
    ("signs", HEADER + "+1,-0,-0,+0.5\n", None, _loaded([1], [0], [[-0.0, 0.5]], 1)),
    ("whitespace_only_lines", HEADER + "1,0,1,2\n  \t \n2,1,3,4\n \n", None,
     _loaded([1, 2], [0, 1], [[1, 2], [3, 4]], 2)),
    # underscores and non-ASCII digits are not numbers to numpy's reader
    ("underscores", HEADER + "1_000,0,1_0.5,2\n", None, "2: id cell '1_000' is not an integer"),
    ("arabic_indic_digit", HEADER + "\u0661,0,\u0661.5,2\n", None,
     "2: id cell '\u0661' is not an integer"),
    ("label_1.0", HEADER + "1,1.0,1,2\n", None, "2: label cell '1.0' is not an integer"),
    ("empty_cell", HEADER + "1,0,,2\n", None, "2: f0 cell '' is not a number"),
    ("hash_in_cell", HEADER + "1,0,1,2#note\n", None, "2: f1 cell '2#note' is not a number"),
    ("quoted_cell", HEADER + '1,0,"1",2\n', None, "2: f0 cell '\"1\"' is not a number"),
    ("header_only", HEADER, None, _loaded([], [], NO_ROWS, 1)),
    ("header_only_scores", "id,label,f0,s0,s1\n", None,
     _loaded([], [], np.empty((0, 1)), 2, NO_ROWS)),
    ("single_row", HEADER + "5,1,0.5,0.25\n", None, _loaded([5], [1], [[0.5, 0.25]], 2)),
    ("single_row_scores", "id,label,f0,s0,s1\n5,1,0.5,0.25,0.75\n", None,
     _loaded([5], [1], [[0.5]], 2, [[0.25, 0.75]])),
    ("trailing_comma", HEADER + "1,0,1,2,\n", None, "2: expected 4 columns, got 5"),
    ("float_overflow", HEADER + "1,0,1e400,2\n", None, "2: non-finite cell (nan or inf)"),
    ("nan", HEADER + "1,0,nan,2\n", None, "2: non-finite cell (nan or inf)"),
    ("inf", HEADER + "1,0,2,-Infinity\n", None, "2: non-finite cell (nan or inf)"),
    ("too_few_columns", HEADER + "1,0,1,2\n2,1,3\n", None, "3: expected 4 columns, got 3"),
    ("too_many_columns", HEADER + "1,0,1,2\n2,1,3,4,5\n", None, "3: expected 4 columns, got 5"),
    ("int64_extremes", HEADER + "-9223372036854775808,0,1,2\n9223372036854775807,1,3,4\n", None,
     _loaded([-(2**63), 2**63 - 1], [0, 1], [[1, 2], [3, 4]], 2)),
    ("id_overflow", HEADER + "9223372036854775808,0,1,2\n", None,
     "2: id 9223372036854775808 outside int64"),
    ("label_overflow", HEADER + "1,-9223372036854775809,1,2\n", None,
     "2: label -9223372036854775809 outside int64"),
    ("label_out_of_range", HEADER + "1,0,1,2\n2,4,3,4\n", 3, "3: label 4 outside [0, 3)"),
    ("subnormal_and_extremes", HEADER + "1,0,5e-324,1.7976931348623157e308\n", None,
     _loaded([1], [0], [[5e-324, 1.7976931348623157e308]], 1)),
    # several rows, so that small blocks put these at or past a block edge
    ("blank_lines_between_rows", HEADER + "1,0,1,2\n\n2,1,3,4\n \n\n3,0,5,6\n4,1,7,8\n\n", None,
     ROWS_1_TO_4),
    ("blank_lines_before_header", "\n \n\n" + HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n", None,
     ROWS_1_TO_3),
    ("no_trailing_newline", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6", None, ROWS_1_TO_3),
    ("lone_cr_line_ends", "id,label,f0,f1\r1,0,1,2\r2,1,3,4\r\r3,0,5,6\r", None, ROWS_1_TO_3),
    ("lone_cr_then_lf", HEADER + "1,0,1,2\r2,1,3,4\r3,0,5,6\n4,1,7,8\n5,0,9,9\n", None,
     _loaded([1, 2, 3, 4, 5], [0, 1, 0, 1, 0], [[1, 2], [3, 4], [5, 6], [7, 8], [9, 9]], 2)),
    ("crlf_many_rows", "id,label,f0,f1\r\n1,0,1,2\r\n2,1,3,4\r\n\r\n3,0,5,6\r\n4,1,7,8", None,
     ROWS_1_TO_4),
    ("bad_cell_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n\n3,0,5,6\n4,1,oops,8\n", None,
     "6: f0 cell 'oops' is not a number"),
    ("short_row_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n4,1,7\n5,0,9,9\n", None,
     "5: expected 4 columns, got 3"),
    ("nan_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n\n3,0,5,6\n4,1,7,nan\n", None,
     "6: non-finite cell (nan or inf)"),
    ("label_out_of_range_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n\n4,3,7,8\n", 3,
     "6: label 3 outside [0, 3)"),
    ("id_overflow_in_later_block",
     HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n9223372036854775808,1,7,8\n", None,
     "5: id 9223372036854775808 outside int64"),
    # numpy's reader strips whitespace around a cell, \x1c-\x1f included
    ("x1c_padded_int", HEADER + "\x1c1,0\x1f,1.5,2\n", None, _loaded([1], [0], [[1.5, 2]], 1)),
    ("x1c_padded_cell", HEADER + "1,0,\x1c1.5,2\n2,1,3,4\n", None,
     _loaded([1, 2], [0, 1], [[1.5, 2], [3, 4]], 2)),
]


def _outcome(path, class_count):
    """load_csv's dataset or error text from a parse of the file: the column
    cache is left out, no sidecar read or written, so that a second outcome
    of one file parses it again."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_cached_columns", lambda *args: (None, None))
        mp.setattr(data, "_save_columns", lambda *args: None)
        try:
            return load_csv(path, class_count)
        except ValueError as exc:
            return str(exc)


def _expected(path, want):
    """An EDGE_INPUTS outcome as _outcome gives it for the file at path."""
    return f"{path}:{want}" if isinstance(want, str) else want


def _assert_same_outcome(got, want):
    """got and want, each an _outcome, are the same error text or datasets
    with bit-identical C-contiguous arrays."""
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got.class_count == want.class_count
    for name in ("ids", "labels", "features", "softmaxes"):
        a, b = getattr(got, name), getattr(want, name)
        if b is None:
            assert a is None
            continue
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


class TestReaderParity:
    """load_csv gives what EDGE_INPUTS writes down: bit-identical arrays, or
    the same error text. The tests keep their names from when a Python row
    loop parsed what numpy's reader refused; it now only names a refused
    row (data._refusal), which `skips_row_loop` means is never called."""

    @pytest.mark.parametrize(
        "text,class_count,want", [case[1:] for case in EDGE_INPUTS],
        ids=[case[0] for case in EDGE_INPUTS],
    )
    def test_matches_row_loop(self, tmp_path, text, class_count, want):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        _assert_same_outcome(_outcome(path, class_count), _expected(path, want))

    def test_well_formed_file_skips_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("\n" + WITH_SOFTMAX + "\n")
        monkeypatch.setattr(data, "_refusal", _fail)
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.softmaxes, [[0.9, 0.1], [0.3, 0.7]])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_skip_row_loop(self, tmp_path, monkeypatch, end):
        # numpy is fed no blank line, so none refuses a block
        path = tmp_path / "d.csv"
        text = "\n\n" + HEADER + "".join(f"{i},{i % 2},{i},0.5\n\n" for i in range(7))
        path.write_bytes(text.replace("\n", end).encode())
        monkeypatch.setattr(data, "_refusal", _fail)
        ds = load_csv(path)
        assert ds.ids.tolist() == list(range(7)) and ds.labels.tolist() == [0, 1] * 3 + [0]
        np.testing.assert_array_equal(ds.features, [[i, 0.5] for i in range(7)])
        assert ds.features.flags.c_contiguous

    def test_whitespace_lines_of_2000_rows_name_no_row(self, tmp_path, monkeypatch):
        # a line of any whitespace, \x1c-\x1f and Unicode spaces included,
        # after every third row
        spaces = [" ", "\t", "\x0c", "\x1c", "\x1f", "\xa0", "\u3000", " \t\u3000"]
        lines = _rows(2000).splitlines(keepends=True)
        text = "".join(ln + spaces[i % len(spaces)] * (i % 3 == 0) + "\n" * (i % 3 == 0)
                       for i, ln in enumerate(lines))
        path = tmp_path / "d.csv"
        path.write_text(text)
        (tmp_path / "plain.csv").write_text(_rows(2000))
        monkeypatch.setattr(data, "_refusal", _fail)
        _assert_same_outcome(_outcome(path, None), _outcome(tmp_path / "plain.csv", None))

    def test_float_in_int_column_refused_on_any_warning(self, tmp_path, monkeypatch):
        # numpy 1.23 to 1.26 read 1.0 into an int column with only a
        # DeprecationWarning; the stub does so on any numpy
        loadtxt = np.loadtxt

        def numpy_1(lines, dtype, max_rows=None, **options):
            rows = list(itertools.islice(lines, max_rows))
            if any("1.0" in row for row in rows):
                warnings.warn("1.0 read as an integer", DeprecationWarning)
            return loadtxt([row.replace("1.0", "1") for row in rows], dtype, **options)

        monkeypatch.setattr(np, "loadtxt", numpy_1)
        path = tmp_path / "d.csv"
        path.write_text(HEADER + "0,0,0.5,2\n1,1.0,1.5,2\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: label cell '1\.0' is not an integer$"):
            load_csv(path)
        path.write_text(HEADER + "0,0,0.5,2\n1,1,1.5,2\n")
        assert load_csv(path).labels.tolist() == [0, 1]

    @pytest.mark.parametrize("column,line", [("id", 0), ("label", 1)])
    @pytest.mark.parametrize("value", ["99999999999999999999", "-9223372036854775809"])
    def test_int64_overflow_names_line(self, tmp_path, column, line, value):
        path = tmp_path / "d.csv"
        cells = ["1", "0", "1.0"]
        cells[line] = value
        path.write_text("id,label,f0\n0,0,1.0\n\n" + ",".join(cells) + "\n")
        with pytest.raises(ValueError, match=rf"d\.csv:4: {column} {value} outside int64"):
            load_csv(path)

    def test_embed_with_overflowing_id_exits_2(self, tmp_path, capsys):
        model = str(tmp_path / "model.npz")
        save_params(init_params([1, 2]), model)
        path = tmp_path / "d.csv"
        path.write_text("id,label,f0\n0,0,1.0\n99999999999999999999,1,2.0\n")
        assert cli.main(
            ["embed", "--model", model, "--data", str(path), "--out", str(tmp_path / "e.csv")]
        ) == 2
        assert "d.csv:3: id 99999999999999999999 outside int64" in capsys.readouterr().err

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n),
                st.lists(st.integers(0, 2), min_size=n, max_size=n),
                st.lists(
                    st.lists(
                        st.floats(allow_nan=False, allow_infinity=False),
                        min_size=2, max_size=2,
                    ),
                    min_size=n, max_size=n,
                ),
            )
        )
    )
    def test_round_trip_bit_exact(self, tmp_path_factory, columns):
        ids, labels, features = columns
        ds = Dataset(
            ids=np.array(ids, dtype=np.int64),
            features=np.array(features),
            labels=np.array(labels, dtype=np.int64),
            class_count=3,
        )
        path = tmp_path_factory.mktemp("rt") / "d.csv"
        save_csv(ds, path)
        back = load_csv(path, class_count=3)
        for name in ("ids", "labels", "features"):
            a, b = getattr(back, name), getattr(ds, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="class", params=[1, 64], ids=["1_row_blocks", "2_row_blocks"])
def small_blocks(request):
    # a 1-byte block holds one row of any file; a 64-byte block holds two rows
    # of the 3- and 4-column files these tests write, and one of a 5-column file
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_READ_BLOCK_BYTES", request.param)
        yield


@pytest.mark.usefixtures("small_blocks")
class TestLoadCsvInBlocks(TestLoadCsv):
    """The path:line errors and round trips, parsed across block edges."""


@pytest.mark.usefixtures("small_blocks")
class TestReaderParityInBlocks(TestReaderParity):
    """Reader parity, parsed across block edges."""


@pytest.fixture(scope="class", params=[None, 64], ids=["fifo", "fifo_2_row_blocks"])
def through_fifos(request):
    """Each load of a regular file reads it through a FIFO at its path, fed by
    a thread, so the load holds the bytes of an input that it cannot read
    twice and hashes and caches nothing; the file is put back after."""
    opened = data._opened

    @contextlib.contextmanager
    def fifo_opened(path):
        if os.path.islink(path) or not os.path.isfile(path):
            with opened(path) as source:
                yield source
            return
        held = f"{os.fspath(path)}.held"
        os.rename(path, held)
        os.mkfifo(path)
        payload = Path(held).read_bytes()
        writer = threading.Thread(target=Path(path).write_bytes, args=(payload,), daemon=True)
        writer.start()
        try:
            with opened(path) as source:
                yield source
        finally:
            writer.join(timeout=20)
            os.replace(held, path)
            assert not writer.is_alive(), "the FIFO's writer hung"

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_opened", fifo_opened)
        if request.param:
            mp.setattr(data, "_READ_BLOCK_BYTES", request.param)
        yield


@pytest.mark.usefixtures("through_fifos")
class TestLoadCsvThroughFifos(TestLoadCsv):
    """The path:line errors and round trips, read through a FIFO."""

    def test_load_of_a_fifo_caches_nothing(self, tmp_path, monkeypatch):
        # as for any input that is not a regular file: no sidecar is mapped
        # or written
        monkeypatch.setattr(data, "_cached_columns", _fail)
        path = _text_file(tmp_path, WELL_FORMED)
        assert len(load_csv(path)) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]


@pytest.mark.usefixtures("through_fifos")
class TestReaderParityThroughFifos(TestReaderParity):
    """Reader parity, read through a FIFO."""


BLANK_SPACES = [" ", "\t", "\x0c", "\x1c", "\xa0", "\u3000"]


@settings(max_examples=200, deadline=None)
@given(
    case=st.sampled_from(EDGE_INPUTS),
    inserts=st.lists(
        st.tuples(st.integers(0, 20), st.text(st.sampled_from(BLANK_SPACES), min_size=1, max_size=3),
                  st.sampled_from(["\n", "\r\n", "\r"])),
        min_size=1, max_size=6,
    ),
    block_bytes=st.sampled_from([None, 1, 64]),
)
# a line of one space after the header: numpy's reader once met it and
# refused the whole body, and the row loop then refused the \x1c cell
@example(case=EDGE_INPUTS[-1], inserts=[(1, " ", "\n")], block_bytes=None)
def test_blank_lines_change_nothing(tmp_path_factory, case, inserts, block_bytes):
    """Whitespace-only lines anywhere in a body give the same Dataset, or the
    same error with its line shifted by the lines put before it."""
    _, text, class_count, want = case
    starts = [0] + [m.end() for m in re.finditer(r"\r\n|\r|\n", text)]  # of each line
    at = sorted((starts[i % len(starts)], blank, end) for i, blank, end in inserts)
    pieces, done = [], 0
    for pos, blank, end in at:
        # a CR before an LF would end one line with the two
        pieces += [text[done:pos], blank, "\r\n" if text[pos : pos + 1] == "\n" else end]
        done = pos
    path = tmp_path_factory.mktemp("blank") / "d.csv"
    path.write_bytes(("".join(pieces) + text[done:]).encode())
    if isinstance(want, str):
        line, message = want.split(":", 1)
        before = sum(pos <= starts[int(line) - 1] for pos, _, _ in at)
        want = f"{int(line) + before}:{message}"
    with pytest.MonkeyPatch.context() as mp:
        if block_bytes:
            mp.setattr(data, "_READ_BLOCK_BYTES", block_bytes)
        _assert_same_outcome(_outcome(path, class_count), _expected(path, want))


def _rows(n, end="\n", blank=False):
    """A file of n rows with `end` line ends, a blank line after each row
    when blank is set."""
    rows = [f"{i},{i % 2},{i}.5,{-i}e-3" for i in range(n)]
    return HEADER.replace("\n", end) + "".join(row + end + end * blank for row in rows)


def _drawn(*counts):
    """The Dataset of _rows bodies of these row counts, one after another."""
    rows = [i for n in counts for i in range(n)]
    features = [[float(f"{i}.5"), float(f"{-i}e-3")] for i in rows]
    return _loaded(rows, [i % 2 for i in rows], features, 2)


def test_parse_holds_the_columns_and_one_block(tmp_path):
    # a file of about 8 blocks; holding the parsed table beside its columns
    # would peak at twice the columns
    dim = 32
    n = 8 * data._READ_BLOCK_BYTES // (8 * (2 + dim))
    rng = np.random.default_rng(17)
    path = tmp_path / "d.csv"
    save_csv(Dataset(ids=np.arange(n), features=rng.normal(size=(n, dim)),
                     labels=rng.integers(0, 3, n), class_count=3), path)
    tracemalloc.start()
    try:
        ds = load_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(ds) == n
    columns = ds.ids.nbytes + ds.labels.nbytes + ds.features.nbytes
    assert peak < columns + 2 * data._READ_BLOCK_BYTES


class _AllocationsOf:
    """numpy as data.py sees it, recording the row count of each array that
    np.empty allocates: the reader's columns."""

    def __init__(self, sizes):
        self.sizes = sizes

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        self.sizes.append(shape[0])
        return np.empty(shape, *args, **kwargs)


@pytest.fixture(
    scope="class", params=[None, 1, 64], ids=["one_block", "1_row_blocks", "2_row_blocks"]
)
def body_blocks(request):
    # 1-byte blocks split every CRLF between two blocks of the line count
    with pytest.MonkeyPatch.context() as mp:
        if request.param:
            mp.setattr(data, "_READ_BLOCK_BYTES", request.param)
        yield


@pytest.mark.usefixtures("body_blocks")
class TestBodyOf40Rows:
    """A body of 40 rows, with any mix of line ends and blank lines, is
    parsed by _read_columns' block loop into columns of as many rows as the
    body has lines, and gives the columns that _rows wrote or the named
    row's path:line error."""

    @pytest.mark.parametrize(
        "text,counts",
        [(_rows(40), [40]), (_rows(40, blank=True), [40]),
         ("\n \n" + _rows(41, blank=True), [41]), (_rows(40, "\r\n"), [40]),
         (_rows(40, "\r\n", blank=True), [40]), (_rows(40).rstrip("\n"), [40]),
         (_rows(40, "\r"), [40]),
         (HEADER + _rows(30, "\r")[len(HEADER):] + _rows(30)[len(HEADER):], [30, 30])],
        ids=["lf", "blank_after_each_row", "blank_before_header", "crlf",
             "crlf_blank_after_each_row", "no_trailing_newline", "lone_cr", "lone_cr_then_lf"],
    )
    def test_same_columns(self, tmp_path, monkeypatch, text, counts):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        sizes = []
        monkeypatch.setattr(data, "np", _AllocationsOf(sizes))
        monkeypatch.setattr(data, "_refusal", _fail)
        got = _outcome(path, None)
        # every line after the header's counts, blank or not: one column
        # each of id, label and the features
        lines = text.splitlines()
        header = next(i for i, line in enumerate(lines) if line.strip())
        assert sizes == [len(lines) - 1 - header] * 3
        _assert_same_outcome(got, _drawn(*counts))

    @pytest.mark.parametrize("row", [3, 17, 33])
    @pytest.mark.parametrize(
        "bad,message",
        [("1,0,oops,2", "f0 cell 'oops' is not a number"),
         ("1,0,1", "expected 4 columns, got 3"),
         ("1,0,nan,2", "non-finite cell (nan or inf)"),
         ("99999999999999999999,0,1,2", "id 99999999999999999999 outside int64"),
         ("1,7,1,2", "label 7 outside [0, 3)")],
        ids=["bad_cell", "short_row", "nan", "id_overflow", "label_out_of_range"],
    )
    def test_bad_row_names_its_line(self, tmp_path, row, bad, message):
        lines = _rows(40, blank=True).split("\n")
        lines[1 + 2 * row] = bad
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines))
        assert _outcome(path, 3) == f"{path}:{2 + 2 * row}: {message}"

    def test_body_is_one_stream_after_the_header(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        calls, stream = [], data._Input.text
        monkeypatch.setattr(
            data._Input, "text", lambda self, *a, **k: calls.append((a, k)) or stream(self, *a, **k)
        )
        assert len(load_csv(path)) == 40
        # the header's stream, then one of the whole file whose lines to the
        # header's are skipped: the line count reads raw blocks
        assert calls == [((), {}), ((), {})]


def test_digest_reads_from_byte_0(tmp_path):
    # the digest and the line count read source.blocks(), not the source's
    # own position
    path = tmp_path / "d.csv"
    path.write_text(_rows(40))
    with data._opened(path) as source:
        source.read(10)
        assert data._sha256(source) == hashlib.sha256(path.read_bytes()).digest()
        assert b"".join(source.blocks()) == path.read_bytes()


def _sidecar_of(path):
    return path.parent / f".{path.name}.columns"


def _trust_stamp(path):
    """Set the sidecar's mtime a second past the CSV's mtime and ctime, so
    that a stamp it records is not racy: it is trusted if it matches."""
    st = os.stat(path)
    later = max(st.st_mtime_ns, st.st_ctime_ns) + 10**9
    os.utime(_sidecar_of(path), ns=(later, later))


def _racy_stamp(path):
    """Set the sidecar's mtime back to the CSV's ctime, so that a stamp it
    records is racy: the CSV is hashed whether it matches or not."""
    ctime = os.stat(path).st_ctime_ns
    os.utime(_sidecar_of(path), ns=(ctime, ctime))


def _tick_past(path):
    """Return once the filesystem's clock is past the file's ctime, so that
    a file changed or written next gets a later time, on a coarse clock too."""
    probe, ctime = path.parent / ".tick", os.stat(path).st_ctime_ns
    probe.touch()
    while os.stat(probe).st_mtime_ns <= ctime:
        os.utime(probe)
    probe.unlink()


def _text_file(folder, text, name="d.csv"):
    path = folder / name
    path.write_text(text)
    return path


def _through_fifo(fifo, payload, call):
    """call(fifo)'s value or ValueError, made while a thread writes payload
    into fifo, a new FIFO; each thread must finish within 20 s, so a read
    that opens the FIFO again, and waits for a writer that has gone, fails."""
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(payload,), daemon=True)
    writer.start()
    got = []

    def load():
        try:
            got.append(call(fifo))
        except ValueError as exc:
            got.append(str(exc))

    loader = threading.Thread(target=load, daemon=True)
    loader.start()
    loader.join(timeout=20)
    writer.join(timeout=20)
    assert got and not writer.is_alive(), "the read of the FIFO hung"
    return got[0]


def _piped(args, payload, cwd):
    """Run `python args...` with src on the path and payload piped into its
    stdin; the finished process, within 60 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], input=payload, capture_output=True,
                          env=env, cwd=cwd, timeout=60)


class TestColumnCache:
    """A load of unchanged bytes takes its columns from the sidecar that the
    first load wrote, with every check of a parse; anything else parses."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths whose rows are parsed: a load reads the header either
        way, and then parses the rows or maps a sidecar."""
        calls, parse = [], data._read_columns
        monkeypatch.setattr(
            data, "_read_columns", lambda source, *a: calls.append(source.path) or parse(source, *a)
        )
        return calls

    @pytest.fixture
    def hashes(self, monkeypatch):
        """A 1 for each SHA-256 pass that a load takes."""
        calls, sha256 = [], data.hashlib.sha256
        monkeypatch.setattr(data.hashlib, "sha256", lambda: calls.append(1) or sha256())
        return calls

    @pytest.mark.parametrize(
        "text,class_count", [case[1:3] for case in EDGE_INPUTS],
        ids=[case[0] for case in EDGE_INPUTS],
    )
    def test_hit_gives_the_parse_outcome(self, tmp_path, parses, text, class_count):
        # the first load writes a sidecar only when it returns a dataset, and
        # the second then parses no row
        def load():
            try:
                return load_csv(path, class_count)
            except ValueError as exc:
                return str(exc)

        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        parsed = _outcome(path, class_count)
        _assert_same_outcome(load(), parsed)
        refused = isinstance(parsed, str)
        assert _sidecar_of(path).exists() != refused
        parses.clear()
        _assert_same_outcome(load(), parsed)
        assert parses == ([path] if refused else [])

    def test_second_load_parses_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("\n" + WITH_SOFTMAX + "\n")
        miss = load_csv(path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [".d.csv.columns", "d.csv"]

        def fail(*args, **kwargs):
            raise AssertionError("a row was parsed")

        # a hit parses no row and counts no line
        for name in ("read_csv", "_read_columns", "_loadtxt", "_refusal", "_line_ends"):
            monkeypatch.setattr(data, name, fail)
        hit = load_csv(path)
        _assert_same_outcome(hit, miss)
        assert all(a.flags.writeable for a in (hit.ids, hit.labels, hit.features, hit.softmaxes))
        # the columns are the process's own: a write reaches no later load
        hit.features[0, 0] = 99.0
        assert load_csv(path).features[0, 0] == 1.0

    @pytest.mark.parametrize(
        "edit,want", [(b"7", 78.5), (b"x", "d.csv:40: f0 cell 'x8.5' is not a number")]
    )
    def test_same_length_edit_with_mtime_restored_is_parsed(self, tmp_path, parses, edit, want):
        # the edit keeps the file's size, mtime and inode, but not its ctime,
        # which user space cannot set: the stamp is hashed, and the key is
        # the bytes' SHA-256
        path = tmp_path / "d.csv"
        text = _rows(40).encode()
        path.write_bytes(text)
        assert load_csv(path).features[38, 0] == 38.5
        st = os.stat(path)
        _tick_past(path)
        with open(path, "r+b") as f:
            f.seek(text.index(b"\n38,0,38.5,") + 6)
            f.write(edit)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        edited = os.stat(path)
        assert (edited.st_size, edited.st_mtime_ns, edited.st_ino) == (
            st.st_size, st.st_mtime_ns, st.st_ino)
        assert edited.st_ctime_ns > st.st_ctime_ns
        _trust_stamp(path)
        parses.clear()
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                load_csv(path)
        else:
            assert load_csv(path).features[38, 0] == want
        assert parses == [path]

    def test_fifo_is_parsed_with_no_sidecar(self, tmp_path, parses):
        # a FIFO is read once, into memory, and parsed from there; it is never
        # hashed, which would consume it, nor cached
        fifo = tmp_path / "d.fifo"
        got = _through_fifo(fifo, WELL_FORMED.encode(), load_csv)
        assert parses == [fifo]
        _assert_same_outcome(got, _outcome(_text_file(tmp_path, WELL_FORMED), None))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.fifo"]

    def test_link_is_parsed_with_no_sidecar(self, tmp_path, parses, hashes):
        # only a regular file is hashed and cached, by its own name: not
        # /dev/stdin or another link, whose directory may not be the data's
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "d.csv", tmp_path / "d.csv"
        target.write_text(WELL_FORMED)
        link.symlink_to(target)
        for _ in range(2):
            assert len(load_csv(link)) == 3
        assert parses == [link, link] and not hashes
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.csv", "d.csv", "data"]

    def test_read_only_directory_loads_with_no_sidecar(self, tmp_path):
        if os.geteuid() == 0:
            pytest.skip("root writes into a read-only directory")
        path = tmp_path / "d.csv"
        path.write_text(WELL_FORMED)
        tmp_path.chmod(0o555)
        try:
            assert len(load_csv(path)) == 3 and len(load_csv(path)) == 3
        finally:
            tmp_path.chmod(0o755)
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    @pytest.mark.parametrize("fails", ["mkstemp", "fchmod", "rename"])
    def test_failed_write_loads_with_no_sidecar(self, tmp_path, monkeypatch, fails):
        # before, while and after the temporary file is written
        def full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(data.tempfile if fails == "mkstemp" else data.os, fails, full)
        path = tmp_path / "d.csv"
        path.write_text(WELL_FORMED)
        assert len(load_csv(path)) == 3
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    def test_csv_changed_during_the_parse_is_not_cached(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text(WELL_FORMED)
        parse = data._read_columns

        def parse_then_touch(*args):
            columns = parse(*args)
            os.utime(path, ns=(0, 0))
            return columns

        monkeypatch.setattr(data, "_read_columns", parse_then_touch)
        assert len(load_csv(path)) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    # the head is the tag (16 bytes), the digest (32), the stamp (40) and
    # the row count (8); a stamp is forced trusted or racy, not left to the
    # clock, and a wrong digest is seen only when the stamp is hashed
    @pytest.mark.parametrize(
        "damage,stamp,parsed",
        [(lambda b: b"", _trust_stamp, True),
         (lambda b: b[:10], _trust_stamp, True),
         (lambda b: b[: data._HEAD_BYTES], _trust_stamp, True),
         (lambda b: b[:-1], _trust_stamp, True),
         (lambda b: b + b"\0", _trust_stamp, True),
         (lambda b: bytes(len(b)), _trust_stamp, True),
         (lambda b: b[:16] + bytes(32) + b[48:], _racy_stamp, True),
         (lambda b: b[:48] + bytes(40) + b[88:], _trust_stamp, False)],
        ids=["empty", "short_head", "head_only", "short_column", "long", "zeros", "wrong_key",
             "wrong_stamp"],
    )
    def test_damaged_sidecar_is_parsed_and_rewritten(
        self, tmp_path, parses, damage, stamp, parsed
    ):
        # a wrong stamp alone is hashed, and the digest, which matches, maps
        # the columns with no parse
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        miss = load_csv(path)
        sidecar = _sidecar_of(path)
        good = sidecar.read_bytes()
        sidecar.write_bytes(damage(good))
        stamp(path)
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert parses == [path] * parsed and sidecar.read_bytes() == good
        assert sorted(p.name for p in tmp_path.iterdir()) == [".d.csv.columns", "d.csv"]

    @pytest.mark.parametrize(
        "sidecar_uid,euid,trusted",
        [(0, 1, True), (2, 2, True), (1, 0, False), (1, 2, False)],
        ids=["csv_owner", "loading_user", "someone_else", "someone_else_again"],
    )
    def test_sidecar_of_another_user_is_parsed(
        self, tmp_path, monkeypatch, parses, sidecar_uid, euid, trusted
    ):
        # anyone who can read the CSV can plant a sidecar with its digest; uids
        # are given relative to the CSV's owner
        path, other = tmp_path / "d.csv", tmp_path / "o.csv"
        path.write_text(_rows(40))
        other.write_text(_rows(40).replace(".5,", ".25,"))
        load_csv(path), load_csv(other)
        head = data._HEAD_BYTES
        planted = _sidecar_of(path).read_bytes()[:head] + _sidecar_of(other).read_bytes()[head:]
        _sidecar_of(path).write_bytes(planted)
        owner, fstat = os.stat(path).st_uid, os.fstat

        def owned_fstat(fd):
            cls, (fields, extra) = fstat(fd).__reduce__()
            return cls(fields[:4] + (owner + sidecar_uid,) + fields[5:], extra)

        monkeypatch.setattr(data.os, "fstat", owned_fstat)
        monkeypatch.setattr(data.os, "geteuid", lambda: owner + euid)
        parses.clear()
        got = load_csv(path)
        assert got.features[38, 0] == (38.25 if trusted else 38.5)
        assert parses == ([] if trusted else [path])

    def test_bad_class_count_is_refused_on_a_hit(self, tmp_path, parses):
        scored, plain = tmp_path / "s.csv", tmp_path / "p.csv"
        scored.write_text(WITH_SOFTMAX)
        plain.write_text(HEADER + "1,0,1,2\n\n2,2,3,4\n")
        load_csv(scored), load_csv(plain)
        parses.clear()
        for path, message in [(scored, "s.csv: header has 2 score columns, expected 3"),
                              (plain, "p.csv:4: label 2 outside [0, 2)")]:
            count = 3 if path == scored else 2
            with pytest.raises(ValueError, match=re.escape(message)):
                load_csv(path, count)
            assert _outcome(path, count).endswith(message)
        # the header error comes before any row is parsed, on a hit or a miss
        assert parses == [plain]

    def test_stamped_hit_reads_only_the_header(self, tmp_path, monkeypatch, parses, hashes):
        # a stamp that matches and is not racy is trusted: no hash, and no
        # read of the CSV but the one text chunk that holds the header
        path = tmp_path / "d.csv"
        path.write_text(_rows(2000))
        miss = load_csv(path)
        _trust_stamp(path)
        reads, read = [], data._Input.read

        def logged(source, n=-1):
            at, chunk = source.at, read(source, n)
            reads.append((at, len(chunk)))
            return chunk

        monkeypatch.setattr(data._Input, "read", logged)
        hashes.clear()
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert not hashes and not parses
        assert reads and all(at < len(HEADER) for at, _ in reads)
        assert sum(size for _, size in reads) < os.path.getsize(path)

    def test_racy_stamp_is_hashed_then_trusted(self, tmp_path, parses, hashes):
        # a CSV changed in the tick in which its sidecar was written can keep
        # its stamp: a hash vouches for it, and the sidecar it rewrites is
        # newer, so the next load trusts the same stamp
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        miss = load_csv(path)
        good = _sidecar_of(path).read_bytes()
        _racy_stamp(path)
        _tick_past(path)
        hashes.clear()
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert hashes == [1] and not parses
        assert _sidecar_of(path).read_bytes() == good
        hashes.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert not hashes and not parses

    def test_chmod_is_hashed_and_stamped_afresh(self, tmp_path, parses, hashes):
        # a chmod moves only the ctime: the bytes are hashed, still map, and
        # the sidecar records the new stamp, as readable as the CSV now is
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        miss = load_csv(path)
        ctime = os.stat(path).st_ctime_ns
        _tick_past(path)
        path.chmod(0o600)
        assert os.stat(path).st_ctime_ns > ctime
        _trust_stamp(path)
        hashes.clear()
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert hashes == [1] and not parses
        assert stat.S_IMODE(os.stat(_sidecar_of(path)).st_mode) == 0o600
        _trust_stamp(path)
        hashes.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert not hashes and not parses

    @pytest.mark.parametrize("same_bytes", [True, False], ids=["same_bytes", "other_bytes"])
    def test_csv_renamed_over_is_hashed(self, tmp_path, parses, hashes, same_bytes):
        # a new file renamed over the CSV, of its size and mtime, has another
        # inode: its bytes are hashed, and map only if they are the same
        path, new = tmp_path / "d.csv", tmp_path / "new.csv"
        text = _rows(40)
        path.write_text(text)
        miss = load_csv(path)
        st = os.stat(path)
        new.write_text(text if same_bytes else text.replace("38.5", "78.5"))
        os.utime(new, ns=(st.st_atime_ns, st.st_mtime_ns))
        os.replace(new, path)
        renamed = os.stat(path)
        assert (renamed.st_size, renamed.st_mtime_ns) == (st.st_size, st.st_mtime_ns)
        assert renamed.st_ino != st.st_ino
        _trust_stamp(path)
        hashes.clear()
        parses.clear()
        got = load_csv(path)
        assert hashes == [1] and parses == ([] if same_bytes else [path])
        if same_bytes:
            _assert_same_outcome(got, miss)
        else:
            _assert_same_outcome(got, _outcome(path, None))
            assert got.features[38, 0] == 78.5
        # the sidecar now records the new file's stamp
        _trust_stamp(path)
        hashes.clear()
        _assert_same_outcome(load_csv(path), got)
        assert not hashes

    def test_v1_sidecar_is_parsed_and_replaced(self, tmp_path, parses):
        # a v1 head was the tag, the digest and the row count (56 bytes)
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        miss = load_csv(path)
        sidecar = _sidecar_of(path)
        good = sidecar.read_bytes()
        sidecar.write_bytes(b"ivenn columns v1" + good[16:48] + good[88:])
        _trust_stamp(path)
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert parses == [path] and sidecar.read_bytes() == good


class TestOneOpen:
    """Each load opens its CSV by name once and holds it to the end of its
    checks; the only other opens are of its sidecar."""

    @pytest.fixture
    def opens(self, monkeypatch):
        """opens() -> the names opened since the last call."""
        names, real_open, real_os_open = [], open, os.open

        def logged(opener):
            def spy(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    names.append(os.fspath(file))
                return opener(file, *args, **kwargs)
            return spy

        monkeypatch.setattr("builtins.open", logged(real_open))
        monkeypatch.setattr(os, "open", logged(real_os_open))

        def opens():
            opened = names[:]
            names.clear()
            return opened

        return opens

    @pytest.mark.parametrize(
        "load", ["hit", "stamped_hit", "miss", "row_loop", "bad_label", "not_utf8"]
    )
    def test_one_open_of_the_csv(self, tmp_path, monkeypatch, opens, load):
        # row_loop: a row that numpy refuses, named by data._refusal
        body = {"row_loop": HEADER + "1_000,0,1_0.5,2\n",
                "bad_label": HEADER + "1,0,1,2\n\n2,4,3,4\n",
                "not_utf8": HEADER + "1,0,1,2\n2,1,\udcff,4\n"}.get(load, _rows(40))
        (tmp_path / "data").mkdir()
        path = tmp_path / "data" / "d.csv"
        path.write_bytes(body.encode("utf-8", "surrogateescape"))
        named, refusal = [], data._refusal
        monkeypatch.setattr(data, "_refusal", lambda *a: named.append(1) or refusal(*a))
        if load in ("hit", "stamped_hit"):  # a hit that hashes and rewrites, and one that trusts
            load_csv(path)
            (_racy_stamp if load == "hit" else _trust_stamp)(path)
            opens()
        errs = {"row_loop": 2, "bad_label": 4, "not_utf8": 3}.get(load)  # the line named
        outcome = _outcome(path, 3) if errs else load_csv(path)
        names = opens()
        assert names.count(str(path)) == 1, names
        assert all(name.startswith(str(_sidecar_of(path))) for name in names if name != str(path))
        assert bool(named) == (load == "row_loop")
        if load == "stamped_hit":
            assert names == [str(path), str(_sidecar_of(path))]
        if errs:
            assert isinstance(outcome, str) and f"d.csv:{errs}:" in outcome


def test_set_up_checks_each_value_once(tmp_path, monkeypatch):
    # load_csv checks the columns it returns; neither the Dataset it builds
    # nor the parts that split gathers from it are checked again
    n, rng = 200, np.random.default_rng(5)
    path = tmp_path / "d.csv"
    save_csv(Dataset(ids=np.arange(n), features=rng.normal(size=(n, 3)), labels=np.arange(n) % 3,
                     class_count=3, softmaxes=rng.dirichlet(np.ones(3), size=n)), path)
    rows = {"scores": [], "labels": [], "finite": []}
    scores, labels, isfinite = data.check_score_rows, data.class_labels, np.isfinite
    monkeypatch.setattr(data, "check_score_rows",
                        lambda S, *a: rows["scores"].append(len(S)) or scores(S, *a))
    monkeypatch.setattr(data, "class_labels",
                        lambda v, *a: rows["labels"].append(len(v)) or labels(v, *a))
    monkeypatch.setattr(np, "isfinite",
                        lambda x, *a: rows["finite"].append(len(x)) or isfinite(x, *a))
    hashes, sha256 = [], hashlib.sha256
    monkeypatch.setattr(data.hashlib, "sha256", lambda: hashes.append(1) or sha256())
    # a miss, a hit on a racy stamp (hashed) and a hit on a trusted one
    for stamp, hashed in [(None, 1), (_racy_stamp, 1), (_trust_stamp, 0)]:
        if stamp:
            stamp(path)
        for seen in [*rows.values(), hashes]:
            seen.clear()
        parts = split(load_csv(path), SplitSpec(seed=0))
        assert sum(map(len, parts)) == n
        # the features and the scores each pass through isfinite once
        assert rows == {"scores": [n], "labels": [n], "finite": [n, n]}
        assert len(hashes) == hashed
    assert _sidecar_of(path).exists()


@pytest.fixture(scope="module")
def nc_run(tmp_path_factory):
    """The output directory of a 3-class nc_v2 run, its data CSV, its config
    file and a model for `embed`."""
    out = tmp_path_factory.mktemp("run")
    save_csv(synth_gaussians(3, 3, 60, 4.0, seed=2), out / "d.csv")
    cfg = RunConfig(data_csv=str(out / "d.csv"), out_dir=str(out), taxonomy="nc_v2",
                    embedding="identity", seed=1)
    run_pipeline(cfg)
    save_params(init_params([3, 2]), out / "model.npz")
    (out / "run.cfg").write_text(f"data_csv = {out / 'd.csv'}\ntaxonomy = nc_v2\n"
                                 "embedding = identity\nseed = 1\n")
    return out


def _fail(*args):
    raise AssertionError("a row of a well-formed file was named as refused")


def _report(path, out):
    return cli.main(["report", "--predictions", str(path), "--report-out",
                     str(out / "r.txt"), "--curves-out", str(out / "c.csv")])


class TestPredictionsReader:
    """predictions.csv is parsed by the block reader every CSV goes through."""

    ROW_BYTES = 8 * (3 + 3)  # id,label,category, then n0..n2 of 3 classes

    def test_well_formed_file_skips_row_loop(self, nc_run, monkeypatch):
        monkeypatch.setattr(data, "_refusal", _fail)
        assert len(load_predictions(nc_run / "predictions.csv").labels) == 18

    @pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES], ids=["1_row", "2_rows"])
    def test_small_blocks_give_the_same_batch_and_report(
        self, nc_run, tmp_path, monkeypatch, block_bytes
    ):
        path = nc_run / "predictions.csv"
        whole = load_predictions(path)
        monkeypatch.setattr(data, "_READ_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(data, "_refusal", _fail)
        blocks = load_predictions(path)
        assert blocks.labels.tobytes() == whole.labels.tobytes()
        assert blocks.category.tobytes() == whole.category.tobytes()
        for name in ("counts", "totals", "lower", "upper", "predicted"):
            a, b = getattr(blocks.rows, name), getattr(whole.rows, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        assert _report(path, tmp_path) == 0
        assert (tmp_path / "r.txt").read_bytes() == (nc_run / "report.txt").read_bytes()
        assert (tmp_path / "c.csv").read_bytes() == (nc_run / "curves.csv").read_bytes()

    @pytest.mark.parametrize("block_bytes", [None, 1, 2 * ROW_BYTES],
                             ids=["whole_file", "1_row_blocks", "2_row_blocks"])
    def test_bad_cell_after_blank_lines_names_its_line(
        self, nc_run, tmp_path, monkeypatch, block_bytes
    ):
        if block_bytes:
            monkeypatch.setattr(data, "_READ_BLOCK_BYTES", block_bytes)
        lines = (nc_run / "predictions.csv").read_text().splitlines()
        cells = lines[5].split(",")
        cells[4] = "abc"  # n1
        lines[5] = ",".join(cells)
        path = tmp_path / "p.csv"
        path.write_text("\n\n" + "\n".join(lines[:3] + ["", " "] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=rf"p\.csv:10: n1 cell 'abc' is not an integer$"):
            load_predictions(path)

    @pytest.mark.parametrize("label", ["-1", "3", "9223372036854775807"])
    def test_label_outside_the_classes_names_its_line(self, nc_run, tmp_path, label):
        lines = (nc_run / "predictions.csv").read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = label
        lines[3] = ",".join(cells)
        path = tmp_path / "p.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _report(path, tmp_path) == 2
        with pytest.raises(ValueError, match=rf"p\.csv:4: label {label} outside \[0, 3\)$"):
            load_predictions(path)


class TestInputErrorsNameTheFile:
    @pytest.mark.parametrize("command", ["embed", "evaluate"])
    def test_bad_header_names_the_file(self, nc_run, tmp_path, capsys, command):
        path = tmp_path / "hdr.csv"
        path.write_text("label,id,f0,f1\n0,0,1.0,2.0\n")
        out = str(tmp_path / "out")
        argv = {
            "embed": ["embed", "--model", str(nc_run / "model.npz"), "--data", str(path),
                      "--out", out],
            "evaluate": ["evaluate", "--data", str(path), "--out-dir", out],
        }[command]
        assert cli.main(argv) == 2
        assert f"{path}: header must start with 'id,label,f0,...'" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["d.csv", "predictions.csv", "table.txt", "run.cfg"])
    def test_byte_that_is_not_utf8_names_the_file_and_line(self, nc_run, tmp_path, capsys, name):
        lines = (nc_run / name).read_bytes().split(b"\n")
        lines[3] = lines[3][:3] + b"\xff" + lines[3][3:]
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines))
        message = f"{path}:4: byte 0xff is not UTF-8"
        if name == "table.txt":
            with pytest.raises(ValueError, match=re.escape(message)):
                load_table(path)
            return
        if name == "d.csv":
            argv = ["embed", "--model", str(nc_run / "model.npz"), "--data", str(path),
                    "--out", str(tmp_path / "e.csv")]
            assert cli.main(argv) == 2
        elif name == "run.cfg":
            assert cli.main(["calibrate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        else:
            assert _report(path, tmp_path) == 2
        assert f"error: {message}\n" == capsys.readouterr().err


class TestPipedInput:
    """A FIFO or a pipe is read once, into memory, and parsed from there, by
    load_csv and by `ivenn report`'s read_csv, with the errors of a file."""

    @pytest.mark.parametrize(
        "text,class_count,line",
        [("id,label,f0\n0,0,1.0\n\n1,0,oops\n", None, 4),
         ("id,label,f0\n0,0,1.0\n\n1,0,nan\n", None, 4),
         ("id,label,f0\n0,0,1.0\n\n1,5,1.0\n", 2, 4),
         ("id,label,f0\n0,0,1.0\n1,0,1\udcff\n", None, 3),
         ("id,label,f0,s0\n0,0,1.0,1.0\n\n1,0,1,0.5\n", None, 4)],
        ids=["bad_cell", "nan", "label_out_of_range", "not_utf8", "bad_score_row"],
    )
    def test_fifo_with_a_bad_row_names_its_line(self, tmp_path, text, class_count, line):
        fifo, payload = tmp_path / "d.fifo", text.encode("utf-8", "surrogateescape")
        got = _through_fifo(fifo, payload, lambda path: load_csv(path, class_count))
        (tmp_path / "d.csv").write_bytes(payload)
        want = _outcome(tmp_path / "d.csv", class_count)
        assert isinstance(got, str) and got == want.replace("d.csv", "d.fifo")
        assert got.startswith(f"{fifo}:{line}: ")

    def test_piped_stdin_loads(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(_rows(2000, blank=True))
        code = (
            "import hashlib\n"
            "from ivenn import data\n"
            "ds = data.load_csv('/dev/stdin')\n"
            "arrays = (ds.ids, ds.labels, ds.features)\n"
            "print(hashlib.sha256(b''.join(a.tobytes() for a in arrays)).hexdigest())\n"
        )
        done = _piped(["-c", code], path.read_bytes(), tmp_path)
        assert done.returncode == 0, done.stderr
        digest = done.stdout.strip()
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]  # nothing cached
        ds = load_csv(path)
        arrays = (ds.ids, ds.labels, ds.features)
        assert digest.decode() == hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

    def test_report_reads_piped_stdin(self, nc_run, tmp_path):
        argv = ["-m", "ivenn.cli", "report", "--predictions", "/dev/stdin",
                "--report-out", "r.txt", "--curves-out", "c.csv"]
        done = _piped(argv, (nc_run / "predictions.csv").read_bytes(), tmp_path)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "r.txt").read_bytes() == (nc_run / "report.txt").read_bytes()
        assert (tmp_path / "c.csv").read_bytes() == (nc_run / "curves.csv").read_bytes()

    def test_predictions_of_a_fifo(self, nc_run, tmp_path):
        path = nc_run / "predictions.csv"
        got = _through_fifo(tmp_path / "p.fifo", path.read_bytes(), load_predictions)
        want = load_predictions(path)
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.category.tobytes() == want.category.tobytes()
        for name in ("counts", "totals", "lower", "upper", "predicted"):
            assert getattr(got.rows, name).tobytes() == getattr(want.rows, name).tobytes()

    def test_table_of_a_fifo(self, nc_run, tmp_path):
        table = (nc_run / "table.txt").read_bytes()
        got = _through_fifo(tmp_path / "t.fifo", table, load_table)
        assert got.counts.tobytes() == load_table(nc_run / "table.txt").counts.tobytes()
        bad = table.replace(b"\n", b"\n\xff", 1)
        fifo = tmp_path / "bad.fifo"
        assert _through_fifo(fifo, bad, load_table) == f"{fifo}:2: byte 0xff is not UTF-8"

    def test_config_on_piped_stdin_names_a_bad_byte(self, tmp_path):
        done = _piped(["-m", "ivenn.cli", "evaluate", "--config", "/dev/stdin"],
                      b"seed = 1\n\xff\n", tmp_path)
        assert done.returncode == 2
        assert done.stderr.decode() == "error: /dev/stdin:2: byte 0xff is not UTF-8\n"
        assert not list(tmp_path.iterdir())


def _reference_rows(header, ids, labels, values):
    # the per-cell formatting every dataset CSV has always been written with
    lines = [",".join(header)]
    for i in range(len(ids)):
        row = [str(int(ids[i])), str(int(labels[i]))]
        row += [repr(float(v)) for v in values[i]]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_predictions(ids, labels, category, rows):
    # predictions.csv (v3) as per-row f-strings: each example's counts
    counts = rows.counts.tolist()
    c = len(counts[0])
    lines = ["id,label,category," + ",".join(f"n{j}" for j in range(c))]
    lines += [f"{i},{y},{k}," + ",".join(f"{n}" for n in counts[k])
              for i, y, k in zip(ids, labels, category)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_curves(E, LEP, UEP):
    # the per-row f-string curves.csv was first written with
    lines = ["n,E,LEP,UEP"]
    lines += [f"{i},{e!r},{lep!r},{uep!r}" for i, (e, lep, uep) in enumerate(zip(E, LEP, UEP), 1)]
    return "\n".join(lines) + "\n"


# float cells whose shortest repr is easy to get wrong
FLOAT_EDGES = [-0.0, 5e-324, 0.30000000000000004, 1.7976931348623157e308]


def _curves(n):
    """Curves-shaped columns of n rows, FLOAT_EDGES among their cells, and
    their _reference_curves bytes."""
    values = np.concatenate([FLOAT_EDGES, np.random.default_rng(n).normal(size=7)])
    E, LEP, UEP = np.resize(values, (3, n))
    want = _reference_curves(E.tolist(), LEP.tolist(), UEP.tolist()).encode()
    return (np.arange(1, n + 1), E, LEP, UEP), want


def _write_curves(tmp_path, n):
    """The bytes _write_csv gives _curves(n), and the reference bytes."""
    columns, want = _curves(n)
    path = tmp_path / "c.csv"
    data._write_csv(path, ["n", "E", "LEP", "UEP"], *columns)
    return path.read_bytes(), want


def _writes(monkeypatch, columns):
    """The bytes of each write that _write_csv makes of curves-shaped
    columns, to a recording file from a patched open_artifact: the header,
    then one write per block."""
    writes = []

    class Recording(io.BytesIO):
        def write(self, chunk):
            writes.append(bytes(chunk))
            return super().write(chunk)

    monkeypatch.setattr(data, "open_artifact", lambda path, mode: Recording())
    data._write_csv("c.csv", ["n", "E", "LEP", "UEP"], *columns)
    return writes


class TestCsvWriter:
    EXTREMES = Dataset(
        ids=np.array([-(2**63), 2**63 - 1, 7], dtype=np.int64),
        features=np.array(
            [[-0.0, 5e-324], [1.7976931348623157e308, -1.7976931348623157e308], [0.1, 1e-300]]
        ),
        labels=np.array([0, 1, 1]),
        class_count=2,
        softmaxes=np.array([[1.0, 0.0], [0.25, 0.75], [0.1, 0.9]]),
    )

    def test_save_csv_bytes(self, tmp_path):
        path = tmp_path / "d.csv"
        save_csv(self.EXTREMES, path)
        assert path.read_bytes() == (
            b"id,label,f0,f1,s0,s1\n"
            b"-9223372036854775808,0,-0.0,5e-324,1.0,0.0\n"
            b"9223372036854775807,1,1.7976931348623157e+308,"
            b"-1.7976931348623157e+308,0.25,0.75\n"
            b"7,1,0.1,1e-300,0.1,0.9\n"
        )

    def test_save_csv_writes_each_column_as_its_file_type(self, tmp_path):
        # a Dataset built in code may hold float ids or integer features
        ds = Dataset(
            ids=np.array([3.0, 4.0]), features=np.array([[1], [-2]]), labels=np.array([0, 1]),
            class_count=2, softmaxes=np.array([[1, 0], [0, 1]]),
        )
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        assert path.read_bytes() == b"id,label,f0,s0,s1\n3,0,1.0,1.0,0.0\n4,1,-2.0,0.0,1.0\n"
        assert load_csv(path).ids.tolist() == [3, 4]

    def test_embed_bytes(self, tmp_path):
        data_path, model = tmp_path / "d.csv", tmp_path / "model.npz"
        save_csv(self.EXTREMES, data_path)
        params = init_params([2, 3, 2], seed=4)
        save_params(params, model)
        out = tmp_path / "e.csv"
        with np.errstate(over="ignore"):  # tanh saturates on the 1.8e308 row
            assert cli.main(
                ["embed", "--model", str(model), "--data", str(data_path), "--out", str(out)]
            ) == 0
            emb = forward_batch(params, self.EXTREMES.features)
        assert out.read_bytes() == _reference_rows(
            ["id", "label", "e0", "e1"], self.EXTREMES.ids, self.EXTREMES.labels, emb
        )

    def test_predictions_bytes(self, tmp_path):
        rows = category_rows([[2**62, 3], [0, 0]])
        ids = [-(2**63), 2**63 - 1, 7]
        labels, category = [0, 1, 1], [1, 0, 0]
        batch = EvalBatch(np.array(category), rows, np.array(labels))
        path = tmp_path / "predictions.csv"
        _write_predictions(path, np.array(ids, dtype=np.int64), batch)
        assert path.read_bytes() == _reference_predictions(ids, labels, category, rows)

    def test_curves_bytes(self, tmp_path):
        E, LEP, UEP = FLOAT_EDGES, FLOAT_EDGES[::-1], FLOAT_EDGES[1:] + FLOAT_EDGES[:1]
        curves = CumulativeCurves(E=np.array(E), LEP=np.array(LEP), UEP=np.array(UEP))
        assert curves_csv(curves) == _reference_curves(E, LEP, UEP)
        one = EvalBatch.from_intervals([(0.5, 0.5)], [(0.5, 0.5)], [0])
        report = replace(build_report(one), curves=curves)
        save_report(report, tmp_path / "report.txt", tmp_path / "curves.csv")
        assert (tmp_path / "report.txt").read_text() == report_text(report)
        assert (tmp_path / "curves.csv").read_bytes() == _reference_curves(E, LEP, UEP).encode()

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 10, 11, 41])
    def test_rows_beside_a_block_edge(self, tmp_path, monkeypatch, n):
        # 4-row blocks of curves.csv's 4 cells a row
        monkeypatch.setattr(data, "_WRITE_BLOCK_CELLS", 16)
        got, want = _write_curves(tmp_path, n)
        assert got == want

    def test_pipe_is_written(self, tmp_path):
        path = tmp_path / "c.fifo"
        os.mkfifo(path)
        columns, want = _curves(41)
        got = []
        reader = threading.Thread(target=lambda: got.append(path.read_bytes()), daemon=True)
        reader.start()
        try:
            data._write_csv(path, ["n", "E", "LEP", "UEP"], *columns)
        finally:
            reader.join(timeout=10)
        assert not reader.is_alive() and got == [want]

    @pytest.mark.parametrize("n, rows", [(0, []), (8, [4, 4]), (10, [4, 4, 2])])
    def test_blocks_hold_at_most_the_block_rows(self, monkeypatch, n, rows):
        # the bound on the cells held as Python objects at once: 4-row
        # blocks of curves.csv's 4 cells a row
        monkeypatch.setattr(data, "_WRITE_BLOCK_CELLS", 16)
        columns, want = _curves(n)
        header, *blocks = _writes(monkeypatch, columns)
        assert [block.count(b"\n") for block in blocks] == rows
        assert header + b"".join(blocks) == want

    @pytest.mark.parametrize("cells, rows", [(19, [4, 4, 2]), (4, [1] * 10), (3, [1] * 10)])
    def test_a_block_is_whole_rows_within_the_cells(self, monkeypatch, cells, rows):
        # a budget rounds down to whole rows, and is one row when a row has
        # more cells than the budget
        monkeypatch.setattr(data, "_WRITE_BLOCK_CELLS", cells)
        columns, want = _curves(10)
        header, *blocks = _writes(monkeypatch, columns)
        assert [block.count(b"\n") for block in blocks] == rows
        assert header + b"".join(blocks) == want


class TestCsvWriterInOneRowBlocks(TestCsvWriter):
    """Every artifact's bytes with each row its own block, so each row of
    every column is cut from its neighbours."""

    @pytest.fixture(autouse=True)
    def one_row_blocks(self, monkeypatch):
        # a budget of one cell is one row, however wide
        monkeypatch.setattr(data, "_WRITE_BLOCK_CELLS", 1)

    # these set their own block cells, so TestCsvWriter runs them
    test_rows_beside_a_block_edge = None
    test_blocks_hold_at_most_the_block_rows = None
    test_a_block_is_whole_rows_within_the_cells = None


def _reference_csv(header, columns):
    # per-row f-strings: each cell of a row as its Python int, float or str,
    # a float by its repr
    def cell(v):
        if isinstance(v, np.integer):
            return f"{int(v)}"
        if isinstance(v, np.floating):
            return f"{float(v)!r}"
        return f"{v}"

    lines = [",".join(header)]
    for i in range(len(columns[0])):
        row = [v for col in columns for v in ([col[i]] if col.ndim == 1 else list(col[i]))]
        lines.append(",".join(cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


INT64_CELLS = st.one_of(
    st.sampled_from([-(2**63), 2**63 - 1, -1, 0]), st.integers(-(2**63), 2**63 - 1)
)
# the edges, nan, infinities, the smallest normal and subnormals, and reprs
# that switch to an exponent
FLOAT_CELLS = st.one_of(
    st.sampled_from(
        [*FLOAT_EDGES, np.nan, np.inf, -np.inf, 2.2250738585072014e-308, 2.225e-308, -1e-320,
         1e16, 9999999999999998.0, 1e-4, 1e-5, 1.5e-7, 1e22, 123456789012345680.0]
    ),
    st.floats(),
)
# "%" cells check that a cell is never read as a template
STR_CELLS = st.one_of(
    st.sampled_from(["", "%s", "%", "%%d", "a,b"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
)
CELLS = {"int": (INT64_CELLS, np.int64), "float": (FLOAT_CELLS, np.float64),
         "str": (STR_CELLS, object)}


@st.composite
def _csv_columns(draw):
    """1 to 4 columns of 0 to 50 rows: int64, float or str cells, each column
    1-D or a 2-D block of 1 to 3 columns."""
    n = draw(st.integers(0, 50))
    columns = []
    for kind in draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=4)):
        width = draw(st.sampled_from([None, 1, 2, 3]))
        shape = (n,) if width is None else (n, width)
        cells, dtype = CELLS[kind]
        values = draw(st.lists(cells, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        columns.append(np.array(values, dtype=dtype).reshape(shape))
    return columns


@pytest.fixture(scope="module")
def write_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writes")


@contextlib.contextmanager
def _block_rows(rows, width):
    # blocks of that many rows of width cells, or the default budget
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(data, "_WRITE_BLOCK_CELLS", rows * width)
        yield


class TestCsvWriterProperties:
    @settings(max_examples=150, deadline=None)
    @given(columns=_csv_columns(), rows=st.sampled_from([1, 2, 3, 5, None]))
    def test_bytes_are_the_per_row_reference(self, write_dir, columns, rows):
        width = sum(1 if col.ndim == 1 else col.shape[1] for col in columns)
        header = [f"c{j}" for j in range(width)]
        path = write_dir / "w.csv"
        with _block_rows(rows, width):
            data._write_csv(path, header, *columns)
        assert path.read_bytes() == _reference_csv(header, columns)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_predictions_of_every_label_and_category(self, write_dir, drawn):
        # c classes and the categories knn_v2 gives for some k; labels and
        # categories drawn apart, so any (label, category) pair can occur
        c = drawn.draw(st.integers(2, 6))
        k = drawn.draw(st.integers(1, 15))
        K = c * (k - k // c)
        most = (2**53 - 1) // c
        whole = st.integers(0, c - 1).map(lambda j: [2**53 - 1 if i == j else 0 for i in range(c)])
        shared = st.lists(st.one_of(st.sampled_from([0, 1, most]), st.integers(0, most)),
                          min_size=c, max_size=c)
        rows = category_rows(drawn.draw(st.lists(st.one_of(whole, shared), min_size=K, max_size=K)))
        n = drawn.draw(st.integers(1, 60))
        ids = drawn.draw(st.lists(INT64_CELLS, min_size=n, max_size=n))
        labels = drawn.draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
        category = drawn.draw(st.lists(st.integers(0, K - 1), min_size=n, max_size=n))
        path = write_dir / "predictions.csv"
        batch = EvalBatch(np.array(category), rows, np.array(labels))
        with _block_rows(drawn.draw(st.sampled_from([1, 3, None])), 2):
            _write_predictions(path, np.array(ids, dtype=np.int64), batch)
        assert path.read_bytes() == _reference_predictions(ids, labels, category, rows)
        got = load_predictions(path)
        assert got.labels.tolist() == labels
        assert got.category.tolist() == np.unique(category, return_inverse=True)[1].tolist()
        for name in ("counts", "totals", "lower", "upper", "mean", "predicted", "empty"):
            want = getattr(rows, name)[batch.category]
            assert getattr(got.rows, name)[got.category].tobytes() == want.tobytes()

    def test_wide_write_holds_one_block_of_cells(self, tmp_path):
        # a 784-D save_csv of 400 rows: blocks of whole rows within
        # _WRITE_BLOCK_CELLS held 0.93 MiB traced; 4096-row blocks held every
        # row at once, 15.6 MiB
        n = 400
        features = np.random.default_rng(5).normal(size=(n, 784))
        ds = Dataset(ids=np.arange(n), features=features, labels=np.arange(n) % 10,
                     class_count=10)
        path = tmp_path / "wide.csv"
        tracemalloc.start()
        try:
            save_csv(ds, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
        header = ["id", "label", *(f"f{j}" for j in range(784))]
        assert path.read_bytes() == _reference_rows(header, ds.ids, ds.labels, features)


@pytest.fixture
def no_fork(monkeypatch):
    """os.fork raises AssertionError, with two CPUs offered, so a read or a
    write that would start a child beside a second CPU fails."""

    def fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(os, "fork", fork, raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.usefixtures("no_fork")
class TestOneProcess:
    """Every CSV is read and written by the calling process, whatever its
    size, and each read or write gives its reference bytes."""

    @staticmethod
    def _knn_sized(path):
        # the k-NN workloads' data.csv: 9000 rows of 8 features, 1.5 MB, over
        # the 1 MiB past which a read once forked
        ds = synth_gaussians(3, 8, 3000, 3.0, seed=0)
        save_csv(ds, path)
        assert path.stat().st_size > 1 << 20
        return ds

    def test_pipeline_run_on_a_miss_and_a_hit(self, tmp_path, monkeypatch):
        # the reference run is given the dataset, so it reads no CSV
        path = tmp_path / "d.csv"
        ds = self._knn_sized(path)
        cfg = RunConfig(data_csv=str(path), taxonomy="nc_v2", embedding="identity")
        names = ("report.txt", "curves.csv", "predictions.csv", "table.txt")
        runs = {}
        for run in ("reference", "miss", "hit"):
            if run == "hit":
                assert _sidecar_of(path).exists()
                monkeypatch.setattr(data, "_read_columns", _fail)
            out = tmp_path / run
            run_pipeline(replace(cfg, out_dir=str(out)), ds if run == "reference" else None)
            runs[run] = [(out / name).read_bytes() for name in names]
        assert runs["miss"] == runs["reference"] and runs["hit"] == runs["reference"]

    def test_embed_of_32_dimensions(self, tmp_path):
        data_path, model, out = tmp_path / "d.csv", tmp_path / "model.npz", tmp_path / "emb.csv"
        ds = self._knn_sized(data_path)
        params = init_params([8, 10, 32], seed=4)
        save_params(params, model)
        argv = ["embed", "--model", str(model), "--data", str(data_path), "--out", str(out)]
        assert cli.main(argv) == 0
        header = ["id", "label", *(f"e{j}" for j in range(32))]
        emb = forward_batch(params, ds.features)
        assert out.read_bytes() == _reference_rows(header, ds.ids, ds.labels, emb)

    def test_save_csv_of_60k_rows(self, tmp_path):
        # the base-csv workload's data.csv with its score block
        scores = np.random.default_rng(0).dirichlet(np.ones(3), size=60_000)
        ds = replace(synth_gaussians(3, 8, 20_000, 3.0, seed=0), softmaxes=scores)
        path = tmp_path / "d.csv"
        save_csv(ds, path)
        header = ["id", "label", *(f"f{j}" for j in range(8)), "s0", "s1", "s2"]
        want = _reference_rows(header, ds.ids, ds.labels, np.hstack([ds.features, scores]))
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", [1, 40_000])
    def test_predictions_write(self, tmp_path, n):
        # predictions.csv holds integer cells only
        rows = category_rows([[2, 3], [0, 5]])
        category = np.arange(n) % 2
        ids, labels = np.arange(n, dtype=np.int64), category
        path = tmp_path / "predictions.csv"
        _write_predictions(path, ids, EvalBatch(category, rows, labels))
        assert path.read_bytes() == _reference_predictions(ids, labels, category, rows)

    @pytest.mark.parametrize("n", [900, 30_000])
    def test_curves_write(self, tmp_path, n):
        # 90k float cells at 30,000 rows, where the writer once forked
        got, want = _write_curves(tmp_path, n)
        assert got == want


# values that are not int64 integers, each with the message naming the first
# of them after the column's name
NON_INTEGERS = [
    ([1.0, 2.5, np.nan], "2.5 in row 1 is not an integer"),
    ([np.nan, 2.5], "nan in row 0 is not an integer"),
    ([1.0, np.inf], "inf in row 1 is not an integer"),
    ([1.0, 2.0**63], "9.223372036854776e+18 in row 1 is not an integer"),
    (np.array([1, 2**63], dtype=np.uint64), "9223372036854775808 in row 1 is not"),
    (np.array(["1", "2"]), "'1' in row 0 is not an integer"),
]
NON_INTEGER_IDS = ["half", "nan", "inf", "past int64", "uint64 past int64", "text"]


class TestDatasetValidation:
    def test_label_range(self):
        with pytest.raises(ValueError, match="labels"):
            Dataset(
                ids=np.array([0]),
                features=np.zeros((1, 2)),
                labels=np.array([3]),
                class_count=2,
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            Dataset(
                ids=np.array([0, 1]),
                features=np.zeros((1, 2)),
                labels=np.array([0, 0]),
                class_count=1,
            )

    @pytest.mark.parametrize("features", [np.array(1.5), np.zeros(1), np.zeros((1, 2, 1))],
                             ids=["0-d", "1-d", "3-d"])
    def test_features_not_2d(self, features):
        # the one row-batch rule, data.float_rows
        message = rf"^features have shape {re.escape(str(features.shape))}, expected \(m, dim\)$"
        with pytest.raises(ValueError, match=message):
            Dataset(ids=np.array([0]), features=features, labels=np.array([0]), class_count=1)

    @pytest.mark.parametrize("column", ["ids", "labels"])
    @pytest.mark.parametrize("value", [np.array(0), np.array(0.5), np.zeros((1, 1))],
                             ids=["0-d", "0-d fraction", "2-d"])
    def test_ids_and_labels_not_1d(self, column, value):
        columns = {"ids": np.array([0]), "labels": np.array([0]), column: value}
        # labels follow the one label rule, data.row_labels
        message = {"ids": "ids and labels must be 1-D arrays",
                   "labels": rf"^labels have shape {re.escape(str(value.shape))}, expected \(1,\)$"}
        with pytest.raises(ValueError, match=message[column]):
            Dataset(features=np.zeros((1, 2)), class_count=1, **columns)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_non_finite_or_negative_score_row(self, bad):
        scores = np.array([[0.5, 0.25, 0.25], [bad, 0.5, 0.5 - (bad if bad < 0 else 0)]])
        with pytest.raises(ValueError, match="softmax row 1 must be finite, nonnegative"):
            Dataset(
                ids=np.array([0, 1]),
                features=np.zeros((2, 1)),
                labels=np.array([0, 1]),
                class_count=3,
                softmaxes=scores,
            )

    def test_integral_ids_become_int64(self):
        for ids in (np.array([7.0, -3.0]), np.array([7, 3], dtype=np.uint8), [7, 3]):
            ds = Dataset(ids=ids, features=np.zeros((2, 1)), labels=np.array([0, 0]),
                         class_count=1)
            assert ds.ids.dtype == np.int64 and ds.ids.tolist() == [int(i) for i in ids]

    @pytest.mark.parametrize("ids, message", NON_INTEGERS, ids=NON_INTEGER_IDS)
    def test_first_non_integer_id_named(self, ids, message):
        with pytest.raises(ValueError, match=f"^{re.escape('id ' + message)}"):
            Dataset(ids=np.asarray(ids), features=np.zeros((len(ids), 1)),
                    labels=np.zeros(len(ids), dtype=int), class_count=1)

    def test_integral_labels_become_int64(self):
        for labels in (np.array([1.0, -0.0]), np.array([1, 0], dtype=np.uint8), [1, 0]):
            ds = Dataset(ids=[0, 1], features=np.zeros((2, 1)), labels=labels, class_count=2)
            assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0]

    @pytest.mark.parametrize(
        "labels, message",
        [([0.5, 1.0, 0.0, 1.9], "0.5 in row 0 is not an integer"), *NON_INTEGERS],
        ids=["fraction", *NON_INTEGER_IDS],
    )
    def test_first_non_integer_label_named(self, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape('label ' + message)}"):
            Dataset(ids=np.arange(len(labels)), features=np.zeros((len(labels), 1)),
                    labels=np.asarray(labels), class_count=2)

    def test_subset_takes_indices_in_range(self):
        ds = Dataset(ids=[5, 6, 7], features=np.zeros((3, 1)), labels=[0, 1, 0], class_count=2)
        assert ds.subset([2, 0]).ids.tolist() == [7, 5]
        assert len(ds.subset([])) == 0
        # a mask was taken as the indices [1, 0, 1], and -1 as the last example
        with pytest.raises(ValueError, match=r"^index True in row 0 is not an integer$"):
            ds.subset([True, False, True])
        with pytest.raises(ValueError, match=r"^indices: row 0: index -1 outside \[0, 3\)$"):
            ds.subset([-1])
        with pytest.raises(ValueError, match=r"^indices: row 1: index 3 outside \[0, 3\)$"):
            ds.subset([0, 3])

    def test_softmax_shape(self):
        with pytest.raises(ValueError, match="softmaxes"):
            Dataset(
                ids=np.array([0]),
                features=np.zeros((1, 2)),
                labels=np.array([0]),
                class_count=2,
                softmaxes=np.ones((1, 3)) / 3.0,
            )

    def test_built_from_lists(self):
        # a list of features or of softmax rows once failed on .ndim or .shape
        ds = Dataset(ids=[1], features=[[1.0]], labels=[0], class_count=2,
                     softmaxes=[[0.5, 0.5]])
        assert ds.features.dtype == ds.softmaxes.dtype == np.float64
        assert ds.features.tolist() == [[1.0]] and ds.softmaxes.tolist() == [[0.5, 0.5]]
        with pytest.raises(ValueError, match=r"^features have shape \(1,\), expected \(m, dim\)$"):
            Dataset(ids=[1], features=[1.0], labels=[0], class_count=2)
        with pytest.raises(ValueError, match=r"^softmaxes have shape \(1, 1\), expected \(m, 2\)$"):
            Dataset(ids=[1], features=[[1.0]], labels=[0], class_count=2, softmaxes=[[1.0]])
        with pytest.raises(ValueError, match=r"^ids and softmaxes must have equal length$"):
            Dataset(ids=[1], features=[[1.0]], labels=[0], class_count=2,
                    softmaxes=[[0.5, 0.5]] * 2)


PAST_INT64 = 2**70


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: data.class_labels([PAST_INT64], 3), f"label {PAST_INT64} in row 0"),
        (lambda: data.class_labels([0, PAST_INT64], 3), f"label {PAST_INT64} in row 1"),
        (lambda: data.class_labels([None], 3), "label None in row 0"),
        (lambda: data.int64_values(np.array(0.5), "label"), "label 0.5 in row 0"),
        (lambda: calibrate(fit_taxonomy(TaxonomyConfig(TaxonomyKind.BASE_V1, 2)), [PAST_INT64],
                           softmaxes=[[0.5, 0.5]]), f"label {PAST_INT64} in row 0"),
        (lambda: Dataset(ids=np.array([PAST_INT64], dtype=object), features=np.zeros((1, 1)),
                         labels=[0], class_count=1), f"id {PAST_INT64} in row 0"),
    ],
    ids=["past int64", "past int64 in row 1", "None", "0-d fraction", "calibrate",
         "object id"],
)
def test_non_integer_in_any_array_named(call, message):
    # a 0-d value, or a value in an object array, once failed while the
    # message was built (AttributeError on .item(), IndexError on the row)
    with pytest.raises(ValueError, match=f"^{re.escape(message)} is not an integer$"):
        call()


def labelled_entry_points(n):
    """Each public function that takes n rows with their labels, as a call
    on the labels alone: fixed rows X, and structures fitted to X with the
    labels arange(n) % 2."""
    X = np.random.default_rng(n).normal(size=(n, 2))
    y = np.arange(n) % 2
    tax = fit_taxonomy(TaxonomyConfig(TaxonomyKind.KNN_V1, 2, k=1), X, y)
    rows = calibrate(tax, y, embeddings=X).rows
    train = TrainConfig(epochs=1, batch_size=4, pairs_per_epoch=4)
    return {
        "Dataset": lambda labels: Dataset(ids=np.arange(n), features=X, labels=labels,
                                          class_count=2),
        "build_centroids": lambda labels: build_centroids(X, labels, 2),
        "build_index": lambda labels: build_index(X, labels),
        "Taxonomy": lambda labels: Taxonomy(tax.config, index=replace(tax.index, labels=labels)),
        "resolve_theta": lambda labels: resolve_theta(build_centroids(X, y, 2), X, labels),
        "silhouette": lambda labels: silhouette(X, labels),
        "train_siamese": lambda labels: train_siamese(X, labels, [2, 2], train),
        "train_classifier": lambda labels: train_classifier(X, labels, [2, 2], train),
        "calibrate": lambda labels: calibrate(tax, labels, embeddings=X),
        "EvalBatch": lambda labels: EvalBatch(np.zeros(n, dtype=np.int64), rows, labels),
        "EvalBatch.from_intervals": lambda labels: EvalBatch.from_intervals(
            np.zeros((n, 2)), np.ones((n, 2)), labels),
    }


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 12), shape=st.sampled_from(["n - 1", "n + 1", "0", "1", "(n, 1)"]))
def test_one_label_per_row_everywhere(n, shape):
    # calibrate once broadcast a single label or an (n, 1) column into its
    # counts, and other functions trained, indexed or failed in numpy on them
    y = np.arange(n) % 2
    bad = {"n - 1": y[:-1], "n + 1": np.arange(n + 1) % 2, "0": y[:0], "1": y[:1],
           "(n, 1)": y[:, None]}[shape]
    message = rf"^labels have shape {re.escape(str(bad.shape))}, expected \({n},\)$"
    for call in labelled_entry_points(n).values():
        call(y)
        with pytest.raises(ValueError, match=message):
            call(bad)


class TestSplit:
    def make(self, n, classes=4, seed=0):
        rng = np.random.default_rng(seed)
        return Dataset(
            ids=np.arange(n, dtype=np.int64),
            features=rng.normal(size=(n, 2)),
            labels=rng.integers(0, classes, n),
            class_count=classes,
        )

    def test_floor_arithmetic(self):
        proper, cal, test = split(self.make(100), SplitSpec(seed=5))
        assert (len(test), len(cal), len(proper)) == (10, 18, 72)

    def test_deterministic(self):
        ds = self.make(80)
        a = split(ds, SplitSpec(seed=9))
        b = split(ds, SplitSpec(seed=9))
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.ids, pb.ids)

    def test_ten_examples_one_test(self):
        ds = self.make(10, classes=2, seed=3)
        proper, cal, test = split(ds, SplitSpec(seed=1))
        assert len(test) == 1

    def test_disjoint_and_exhaustive(self):
        ds = self.make(97)
        proper, cal, test = split(ds, SplitSpec(seed=2))
        all_ids = np.concatenate([proper.ids, cal.ids, test.ids])
        assert len(all_ids) == 97
        assert len(np.unique(all_ids)) == 97

    def test_missing_class_hints_reseed(self):
        ds = Dataset(
            ids=np.arange(30, dtype=np.int64),
            features=np.zeros((30, 1)),
            labels=np.array([0] * 29 + [1]),
            class_count=2,
        )
        # some seed must push the lone class-1 example out of proper training
        with pytest.raises(ValueError, match="seed"):
            for seed in range(200):
                split(ds, SplitSpec(seed=seed))

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="empty part"):
            split(self.make(5, classes=2), SplitSpec(seed=0))

    def test_bad_fractions(self):
        with pytest.raises(ValueError, match="test_fraction"):
            split(self.make(100), SplitSpec(test_fraction=1.5))


def _synth_by_class(class_count, dim, n_per_class, separation, seed):
    """synth_gaussians' (features, labels) drawn one class at a time."""
    rng = np.random.default_rng(seed)
    features, labels = [], []
    for cls in range(class_count):
        center = np.zeros(dim)
        center[cls] = separation / np.sqrt(2.0)
        features.append(center + rng.standard_normal((n_per_class, dim)))
        labels.append(np.full(n_per_class, cls))
    return np.concatenate(features), np.concatenate(labels)


class TestSynthGaussians:
    @pytest.mark.parametrize(
        "shape",
        [(3, 3, 500, 4.0, 0), (10, 784, 60, 3.0, [1, 0]), (2, 2, 7, 0.0, 5),
         (4, 6, 1, 2.5, 9), (3, 8, 1, 0.0, [7, 0, 0])],
    )
    def test_one_draw_is_the_per_class_draws(self, shape):
        ds = synth_gaussians(*shape)
        features, labels = _synth_by_class(*shape)
        assert ds.features.tobytes() == features.tobytes()
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_array_equal(ds.ids, np.arange(len(labels)))

    def test_shapes_and_determinism(self):
        a = synth_gaussians(3, 5, 40, 4.0, seed=11)
        b = synth_gaussians(3, 5, 40, 4.0, seed=11)
        assert len(a) == 120 and a.feature_dim == 5
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert np.bincount(a.labels).tolist() == [40, 40, 40]

    def test_center_distances_equal_separation(self):
        ds = synth_gaussians(4, 6, 500, 7.0, seed=13)
        cs = build_centroids(ds.features, ds.labels, 4)
        for i in range(4):
            for j in range(i + 1, 4):
                d = np.linalg.norm(cs[i] - cs[j])
                assert abs(d - 7.0) < 0.3  # sample noise around the exact 7

    def test_wide_separation_is_separable(self):
        ds = synth_gaussians(3, 3, 200, 10.0, seed=17)
        cs = build_centroids(ds.features, ds.labels, 3)
        correct = int((nearest_centroid_many(cs, ds.features)[0] == ds.labels).sum())
        assert correct / len(ds) > 0.99

    def test_zero_separation_indistinguishable(self):
        ds = synth_gaussians(3, 3, 300, 0.0, seed=19)
        cs = build_centroids(ds.features, ds.labels, 3)
        correct = int((nearest_centroid_many(cs, ds.features)[0] == ds.labels).sum())
        assert correct / len(ds) < 0.5

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="n_per_class"):
            synth_gaussians(2, 2, 0, 1.0, seed=0)
        with pytest.raises(ValueError, match="dim"):
            synth_gaussians(5, 3, 10, 1.0, seed=0)
        with pytest.raises(ValueError, match="2 classes"):
            synth_gaussians(1, 3, 10, 1.0, seed=0)



@pytest.mark.parametrize(
    "text, class_count, message",
    [
        ("id,label,s0,s1\n0,0,0.5,0.5\n", None, "header declares no feature columns"),
        ("id,label,f0,x\n0,0,1.0,2.0\n", None, "unrecognized header column 'x'"),
        ("id,label,f0,s0,s1\n0,0,1.0,0.5,0.5\n", 3, "header has 2 score columns, expected 3"),
    ],
    ids=["no feature column", "unknown column", "score block width"],
)
def test_bad_header_is_named(tmp_path, text, class_count, message):
    path = tmp_path / "d.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
        load_csv(path, class_count)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Dataset(np.arange(2), np.zeros((2, 1)), np.zeros(2, int), 0),
         "class_count must be positive"),
        (lambda: synth_gaussians(2, 2, 5, -1.0, seed=0), "separation must be nonnegative"),
        (lambda: Dataset(np.array([7, 8]), np.array([[0.0], [np.inf]]), np.zeros(2, int), 2),
         r"features of example id 8 is not finite \(nan or inf\)"),
    ],
    ids=["class_count 0", "negative separation", "non-finite feature"],
)
def test_bad_argument_is_named(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
