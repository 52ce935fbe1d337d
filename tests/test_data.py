"""CSV ingestion, deterministic splits, synthetic blobs."""

import os
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
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


HEADER = "id,label,f0,f1\n"

# (name, file text, class_count): inputs where numpy's C reader and the
# Python row loop might part ways
EDGE_INPUTS = [
    ("spaces_and_tabs", HEADER + " 1 ,\t0, 1.5\t,-2 \n", None),
    ("crlf", "id,label,f0,f1\r\n1,0,1.5,2\r\n2,1,3,4\r\n", None),
    ("signs", HEADER + "+1,-0,-0,+0.5\n", None),
    ("whitespace_only_lines", HEADER + "1,0,1,2\n  \t \n2,1,3,4\n \n", None),
    ("underscores", HEADER + "1_000,0,1_0.5,2\n", None),
    ("arabic_indic_digit", HEADER + "\u0661,0,\u0661.5,2\n", None),
    ("label_1.0", HEADER + "1,1.0,1,2\n", None),
    ("empty_cell", HEADER + "1,0,,2\n", None),
    ("hash_in_cell", HEADER + "1,0,1,2#note\n", None),
    ("quoted_cell", HEADER + '1,0,"1",2\n', None),
    ("header_only", HEADER, None),
    ("header_only_scores", "id,label,f0,s0,s1\n", None),
    ("single_row", HEADER + "5,1,0.5,0.25\n", None),
    ("single_row_scores", "id,label,f0,s0,s1\n5,1,0.5,0.25,0.75\n", None),
    ("trailing_comma", HEADER + "1,0,1,2,\n", None),
    ("float_overflow", HEADER + "1,0,1e400,2\n", None),
    ("nan", HEADER + "1,0,nan,2\n", None),
    ("inf", HEADER + "1,0,2,-Infinity\n", None),
    ("too_few_columns", HEADER + "1,0,1,2\n2,1,3\n", None),
    ("too_many_columns", HEADER + "1,0,1,2\n2,1,3,4,5\n", None),
    ("int64_extremes", HEADER + "-9223372036854775808,0,1,2\n9223372036854775807,1,3,4\n", None),
    ("id_overflow", HEADER + "9223372036854775808,0,1,2\n", None),
    ("label_overflow", HEADER + "1,-9223372036854775809,1,2\n", None),
    ("label_out_of_range", HEADER + "1,0,1,2\n2,4,3,4\n", 3),
    ("subnormal_and_extremes", HEADER + "1,0,5e-324,1.7976931348623157e308\n", None),
    # several rows, so that small blocks put these at or past a block edge
    ("blank_lines_between_rows", HEADER + "1,0,1,2\n\n2,1,3,4\n \n\n3,0,5,6\n4,1,7,8\n\n", None),
    ("blank_lines_before_header", "\n \n\n" + HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n", None),
    ("no_trailing_newline", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6", None),
    ("lone_cr_line_ends", "id,label,f0,f1\r1,0,1,2\r2,1,3,4\r\r3,0,5,6\r", None),
    ("crlf_many_rows", "id,label,f0,f1\r\n1,0,1,2\r\n2,1,3,4\r\n\r\n3,0,5,6\r\n4,1,7,8", None),
    ("bad_cell_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n\n3,0,5,6\n4,1,oops,8\n", None),
    ("short_row_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n4,1,7\n5,0,9,9\n", None),
    ("nan_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n\n3,0,5,6\n4,1,7,nan\n", None),
    ("label_out_of_range_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n\n4,3,7,8\n", 3),
    ("id_overflow_in_later_block", HEADER + "1,0,1,2\n2,1,3,4\n3,0,5,6\n9223372036854775808,1,7,8\n", None),
]


def _outcome(path, class_count):
    """load_csv's dataset or error text from a parse of the file: the column
    cache is left out, as for a file that is not regular, so that a second
    outcome of one file parses it again."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_content_key", lambda path: None)
        try:
            return load_csv(path, class_count)
        except ValueError as exc:
            return str(exc)


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
    """load_csv must give what the Python row loop gives: bit-identical
    arrays, or the same error text."""

    @pytest.mark.parametrize(
        "text,class_count", [case[1:] for case in EDGE_INPUTS],
        ids=[case[0] for case in EDGE_INPUTS],
    )
    def test_matches_row_loop(self, tmp_path, monkeypatch, text, class_count):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = _outcome(path, class_count)

        def reject(*args, **kwargs):
            raise ValueError("C reader disabled")

        monkeypatch.setattr(np, "loadtxt", reject)
        _assert_same_outcome(fast, _outcome(path, class_count))

    def test_well_formed_file_skips_row_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "d.csv"
        path.write_text("\n" + WITH_SOFTMAX + "\n")

        def fail(*args):
            raise AssertionError("row loop ran on a well-formed file")

        monkeypatch.setattr(data, "_parse_rows", fail)
        ds = load_csv(path)
        np.testing.assert_array_equal(ds.softmaxes, [[0.9, 0.1], [0.3, 0.7]])

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_blank_lines_skip_row_loop(self, tmp_path, monkeypatch, end):
        # numpy warns on each blank line once it reads a bounded block
        path = tmp_path / "d.csv"
        text = "\n\n" + HEADER + "".join(f"{i},{i % 2},{i},0.5\n\n" for i in range(7))
        path.write_bytes(text.replace("\n", end).encode())

        def fail(*args):
            raise AssertionError("row loop ran on a well-formed file")

        monkeypatch.setattr(data, "_parse_rows", fail)
        ds = load_csv(path)
        assert ds.ids.tolist() == list(range(7)) and ds.labels.tolist() == [0, 1] * 3 + [0]
        np.testing.assert_array_equal(ds.features, [[i, 0.5] for i in range(7)])
        assert ds.features.flags.c_contiguous

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


@pytest.fixture(
    scope="class", params=[None, 64], ids=["two_processes", "two_processes_2_row_blocks"]
)
def two_processes(request):
    # any body with an LF after its midpoint is cut, and two CPUs are offered
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_FORK_BYTES", 0)
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        if request.param:
            mp.setattr(data, "_READ_BLOCK_BYTES", request.param)
        yield


@pytest.mark.usefixtures("two_processes")
class TestLoadCsvInTwoProcesses(TestLoadCsv):
    """The path:line errors and round trips, parsed by two processes."""


@pytest.mark.usefixtures("two_processes")
class TestReaderParityInTwoProcesses(TestReaderParity):
    """Reader parity, parsed by two processes."""


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _rows(n, end="\n", blank=False):
    """A file of n rows with `end` line ends, a blank line after each row
    when blank is set."""
    rows = [f"{i},{i % 2},{i}.5,{-i}e-3" for i in range(n)]
    return HEADER.replace("\n", end) + "".join(row + end + end * blank for row in rows)


@pytest.mark.usefixtures("two_processes")
class TestTwoProcesses:
    """A body cut in two gives the columns, or the path:line error, of the
    serial reader, and no load leaves a child process behind."""

    @pytest.fixture
    def parse(self, monkeypatch):
        """parse(path) -> (two-process outcome, serial outcome, whether the
        first tried to fork a child)."""

        def parse(path, class_count=None):
            forks = []
            if hasattr(os, "fork"):
                fork = os.fork
                monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
            two = _outcome(path, class_count)
            _no_child_left()
            with monkeypatch.context() as mp:
                mp.setattr(data, "_FORK_BYTES", 1 << 62)
                return two, _outcome(path, class_count), bool(forks)

        return parse

    @pytest.mark.parametrize(
        "text",
        [_rows(40), _rows(40, blank=True), "\n \n" + _rows(41, blank=True), _rows(40, "\r\n"),
         _rows(40, "\r\n", blank=True), _rows(40).rstrip("\n"),
         HEADER + _rows(30, "\r")[len(HEADER):] + _rows(30)[len(HEADER):]],
        ids=["lf", "blank_beside_cut", "blank_before_header", "crlf", "crlf_blank_beside_cut",
             "no_trailing_newline", "lone_cr_then_lf"],
    )
    def test_same_columns(self, tmp_path, parse, monkeypatch, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode())
        fills, fill = [], data._fill
        monkeypatch.setattr(data, "_fill", lambda *a, **k: fills.append(os.getpid()) or fill(*a, **k))
        two, one, split = parse(path)
        # this process parsed its half and the serial reference, and no fallback
        assert split and fills.count(os.getpid()) == 2 and not isinstance(one, str)
        _assert_same_outcome(two, one)

    def test_lone_cr_file_is_parsed_serially(self, tmp_path, parse):
        # tell() gives no byte offset after a header ended by a lone CR
        path = tmp_path / "d.csv"
        path.write_bytes(_rows(40, "\r").encode())
        two, one, split = parse(path)
        assert not split and len(one) == 40
        _assert_same_outcome(two, one)

    @pytest.mark.parametrize("row", [3, 17, 33])
    @pytest.mark.parametrize(
        "bad", ["1,0,oops,2", "1,0,1", "1,0,nan,2", "99999999999999999999,0,1,2", "1,7,1,2"],
        ids=["bad_cell", "short_row", "nan", "id_overflow", "label_out_of_range"],
    )
    def test_bad_row_names_the_serial_line(self, tmp_path, parse, row, bad):
        lines = _rows(40, blank=True).split("\n")
        lines[1 + 2 * row] = bad
        path = tmp_path / "d.csv"
        path.write_text("\n".join(lines))
        two, one, split = parse(path, 3)
        assert split and isinstance(one, str) and f"d.csv:{2 + 2 * row}:" in one
        assert two == one

    @pytest.mark.parametrize("row", [3, 1900])
    def test_byte_that_is_not_utf8_names_the_serial_line(self, tmp_path, row):
        # 2000 rows, so the second half lies past the first half's text buffer
        path = tmp_path / "d.csv"
        text = _rows(2000).encode()
        at = text.index(f"\n{row},".encode()) + 1
        path.write_bytes(text[:at] + b"\xff" + text[at:])
        with pytest.raises(ValueError, match=rf"d\.csv:{2 + row}: byte 0xff is not UTF-8$"):
            load_csv(path)
        _no_child_left()

    @pytest.mark.parametrize(
        "child", ["exits_1", "fails_after_its_count", "sends_too_few_bytes", "claims_too_many_rows"]
    )
    def test_failed_child_gives_the_same_columns(self, tmp_path, parse, monkeypatch, child):
        parent, fill, parent_fills = os.getpid(), data._fill, []

        def fill_in_child(lines, dtype, n):
            if os.getpid() == parent:
                # the half beside the child, then the re-parse and the serial
                # reference, each with the failed child already reaped
                if parent_fills:
                    _no_child_left()
                parent_fills.append(1)
            columns, filled = fill(lines, dtype, n)
            if os.getpid() == parent:
                return columns, filled
            if child == "exits_1":
                os._exit(1)
            if child == "fails_after_its_count":  # a count of 0, then no column
                return [None] * len(columns), 0
            if child == "sends_too_few_bytes":  # one row of each column for two
                return [column[:1] for column in columns], 2
            return [np.zeros_like(column) for column in columns], n + 1

        monkeypatch.setattr(data, "_fill", fill_in_child)
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        two, one, split = parse(path)
        assert split and len(parent_fills) == 3
        _assert_same_outcome(two, one)

    def test_parent_counts_only_its_own_half(self, tmp_path, monkeypatch):
        # the child counts the lines after the cut and sends that count
        text = _rows(40).encode()
        cut = text.index(b"\n", (len(HEADER) + len(text)) // 2) + 1
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        parent, calls, count = os.getpid(), [], data._line_count
        monkeypatch.setattr(
            data, "_line_count", lambda *a: calls.append((os.getpid(), *a[1:])) or count(*a)
        )
        assert len(load_csv(path)) == 40
        _no_child_left()
        assert [call[1:] for call in calls if call[0] == parent] == [(0, cut)]

    def test_failed_fork_gives_the_same_columns(self, tmp_path, parse, monkeypatch):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        fills, fill = [], data._fill
        monkeypatch.setattr(data, "_fill", lambda *a, **k: fills.append(1) or fill(*a, **k))
        monkeypatch.setattr(os, "fork", fork)
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        two, one, split = parse(path)
        # the load went straight to the serial path: one _fill for it and one
        # for the serial reference, with no half parsed before the fallback
        assert split and len(fills) == 2
        _assert_same_outcome(two, one)

    def test_fork_beside_a_thread_warns_nothing(self, tmp_path, parse):
        # Python 3.12+ warns on a fork in a process with threads
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                two, one, split = parse(path)
        finally:
            done.set()
            thread.join(timeout=10)
        assert split and not caught and not thread.is_alive()
        _assert_same_outcome(two, one)

    @pytest.mark.parametrize("no_second_cpu", ["no_fork", "one_cpu"])
    def test_serial_without_fork_or_second_cpu(self, tmp_path, parse, monkeypatch, no_second_cpu):
        if no_second_cpu == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        two, one, split = parse(path)
        assert not split
        _assert_same_outcome(two, one)


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


def _sidecar_of(path):
    return path.parent / f".{path.name}.columns"


class TestColumnCache:
    """A load of unchanged bytes takes its columns from the sidecar that the
    first load wrote, with every check of a parse; anything else parses."""

    @pytest.fixture
    def parses(self, monkeypatch):
        """The paths read_csv is called with."""
        calls, parse = [], data.read_csv
        monkeypatch.setattr(data, "read_csv", lambda p, *a: calls.append(p) or parse(p, *a))
        return calls

    @pytest.mark.parametrize(
        "text,class_count", [case[1:] for case in EDGE_INPUTS],
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

        for name in ("read_csv", "_read_columns", "_parse_rows"):
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
        # the key is the bytes' SHA-256, not the file's size, mtime or inode
        path = tmp_path / "d.csv"
        text = _rows(40).encode()
        path.write_bytes(text)
        assert load_csv(path).features[38, 0] == 38.5
        st = os.stat(path)
        with open(path, "r+b") as f:
            f.seek(text.index(b"\n38,0,38.5,") + 6)
            f.write(edit)
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert data._stamp(os.stat(path)) == data._stamp(st)  # size, mtime and inode
        parses.clear()
        if isinstance(want, str):
            with pytest.raises(ValueError, match=re.escape(want)):
                load_csv(path)
        else:
            assert load_csv(path).features[38, 0] == want
        assert parses == [path]

    def test_fifo_is_parsed_with_no_sidecar(self, tmp_path, monkeypatch):
        # hashing a FIFO would consume it; read_csv opens its path more than
        # once, so it cannot read a FIFO whole and is stubbed here by a parse
        # of a regular copy, while no one writes the FIFO
        fifo, copy = tmp_path / "d.fifo", tmp_path / "copy" / "d.csv"
        os.mkfifo(fifo)
        copy.parent.mkdir()
        copy.write_text(WELL_FORMED)
        parse, seen = data.read_csv, []
        monkeypatch.setattr(data, "read_csv", lambda path, *a: seen.append(path) or parse(copy, *a))
        done = []
        loader = threading.Thread(target=lambda: done.append(load_csv(fifo)), daemon=True)
        loader.start()
        loader.join(timeout=10)
        assert done, "the load opened the FIFO"
        assert seen == [fifo] and len(done[0]) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["copy", "d.fifo"]

    def test_link_is_parsed_with_no_sidecar(self, tmp_path, parses):
        # only a regular file is cached, by its own name: not /dev/stdin or
        # another link, whose directory may not be the data's
        (tmp_path / "data").mkdir()
        target, link = tmp_path / "data" / "d.csv", tmp_path / "d.csv"
        target.write_text(WELL_FORMED)
        link.symlink_to(target)
        assert data._content_key("/dev/stdin") is None
        for _ in range(2):
            assert len(load_csv(link)) == 3
        assert parses == [link, link]
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
        parse = data.read_csv

        def parse_then_touch(*args):
            columns = parse(*args)
            os.utime(path, ns=(0, 0))
            return columns

        monkeypatch.setattr(data, "read_csv", parse_then_touch)
        assert len(load_csv(path)) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]

    @pytest.mark.parametrize(
        "damage",
        [lambda b: b"", lambda b: b[:10], lambda b: b[:56], lambda b: b[:-1], lambda b: b + b"\0",
         lambda b: bytes(len(b)), lambda b: b[:16] + bytes(32) + b[48:]],
        ids=["empty", "short_head", "head_only", "short_column", "long", "zeros", "wrong_key"],
    )
    def test_damaged_sidecar_is_parsed_and_rewritten(self, tmp_path, parses, damage):
        path = tmp_path / "d.csv"
        path.write_text(_rows(40))
        miss = load_csv(path)
        sidecar = _sidecar_of(path)
        good = sidecar.read_bytes()
        sidecar.write_bytes(damage(good))
        parses.clear()
        _assert_same_outcome(load_csv(path), miss)
        assert parses == [path] and sidecar.read_bytes() == good
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
        head = len(data._CACHE_HEAD) + 40
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
        assert parses == [scored, plain]


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
    raise AssertionError("row loop ran on a well-formed file")


def _report(path, out):
    return cli.main(["report", "--predictions", str(path), "--report-out",
                     str(out / "r.txt"), "--curves-out", str(out / "c.csv")])


class TestPredictionsReader:
    """predictions.csv is parsed by the block reader every CSV goes through."""

    ROW_BYTES = 8 * (5 + 3 * 3)  # id..N, n0..n2, then L0,U0..L2,U2 of 3 classes

    def test_well_formed_file_skips_row_loop(self, nc_run, monkeypatch):
        monkeypatch.setattr(data, "_parse_rows", _fail)
        assert len(load_predictions(nc_run / "predictions.csv").labels) == 18

    @pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES], ids=["1_row", "2_rows"])
    def test_small_blocks_give_the_same_batch_and_report(
        self, nc_run, tmp_path, monkeypatch, block_bytes
    ):
        path = nc_run / "predictions.csv"
        whole = load_predictions(path)
        monkeypatch.setattr(data, "_READ_BLOCK_BYTES", block_bytes)
        monkeypatch.setattr(data, "_parse_rows", _fail)
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
        cells[10] = "abc"  # L1
        lines[5] = ",".join(cells)
        path = tmp_path / "p.csv"
        path.write_text("\n\n" + "\n".join(lines[:3] + ["", " "] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=rf"p\.csv:10: L1 cell 'abc' is not a number$"):
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


def _reference_rows(header, ids, labels, values):
    # the per-cell formatting every dataset CSV has always been written with
    lines = [",".join(header)]
    for i in range(len(ids)):
        row = [str(int(ids[i])), str(int(labels[i]))]
        row += [repr(float(v)) for v in values[i]]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_predictions(ids, labels, category, rows):
    # the per-row f-strings predictions.csv (v2) was first written with
    suffix = [
        ",".join(
            [str(p), str(total), *map(str, n)] + [repr(v) for pair in zip(lo, up) for v in pair]
        )
        for p, total, n, lo, up in zip(
            rows.predicted.tolist(), rows.totals.tolist(), rows.counts.tolist(),
            rows.lower.tolist(), rows.upper.tolist(),
        )
    ]
    lines = ["id,label,category,predicted,N,n0,n1,L0,U0,L1,U1"]
    lines += [f"{i},{y},{k},{suffix[k]}" for i, y, k in zip(ids, labels, category)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_curves(E, LEP, UEP):
    # the per-row f-string curves.csv was first written with
    lines = ["n,E,LEP,UEP"]
    lines += [f"{i},{e!r},{lep!r},{uep!r}" for i, (e, lep, uep) in enumerate(zip(E, LEP, UEP), 1)]
    return "\n".join(lines) + "\n"


# float cells whose shortest repr is easy to get wrong
FLOAT_EDGES = [-0.0, 5e-324, 0.30000000000000004, 1.7976931348623157e308]


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
        rows = category_rows([[2**62, 3], [0, 0]])._replace(
            lower=np.reshape(FLOAT_EDGES, (2, 2)),
            upper=np.reshape(FLOAT_EDGES[::-1], (2, 2)),
        )
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


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs offered; the list of os.fork calls made."""
    if not hasattr(os, "fork"):
        pytest.skip("the platform cannot fork")
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls


def test_unwanted_child_is_never_forked(forks, monkeypatch):
    # two CPUs are offered, so only `wanted` keeps the child from running
    def fork():
        raise AssertionError("os.fork called for a child the caller did not want")

    monkeypatch.setattr(os, "fork", fork)
    with data._forked(lambda pipe: None, False) as child:
        assert child is None
    assert not forks


@pytest.fixture
def two_process_writes(forks, monkeypatch):
    """Every CSV write forks a child for its second half; the fork calls."""
    monkeypatch.setattr(data, "_FORK_FLOATS", -1)
    return forks


@pytest.mark.usefixtures("two_process_writes")
class TestCsvWriterInTwoProcesses(TestCsvWriter):
    """The writer's bytes, each CSV's second half formatted by a child."""

    @pytest.fixture(autouse=True)
    def forks_a_child(self, two_process_writes):
        yield
        assert two_process_writes  # every test writes some CSV through a child
        _no_child_left()


def _curves(n):
    """Curves-shaped columns of n rows, FLOAT_EDGES among their cells, and
    their _reference_curves bytes (the serial writer's, by TestCsvWriter)."""
    values = np.concatenate([FLOAT_EDGES, np.random.default_rng(n).normal(size=7)])
    E, LEP, UEP = np.resize(values, (3, n))
    want = _reference_curves(E.tolist(), LEP.tolist(), UEP.tolist()).encode()
    return (np.arange(1, n + 1), E, LEP, UEP), want


def _write_curves(tmp_path, n):
    """The bytes _write_csv gives _curves(n), and the reference bytes; no
    child is left once the write returns."""
    columns, want = _curves(n)
    path = tmp_path / "c.csv"
    data._write_csv(path, ["n", "E", "LEP", "UEP"], *columns)
    _no_child_left()
    return path.read_bytes(), want


class TestTwoProcessWrites:
    """A CSV whose rows from n // 2 on a child formats has the serial
    writer's bytes, whether the child runs, fails or never starts."""

    @pytest.mark.parametrize("n", [0, 1, 2, 41])
    def test_same_bytes(self, tmp_path, two_process_writes, n):
        got, want = _write_curves(tmp_path, n)
        assert two_process_writes and got == want

    @pytest.mark.parametrize("n", [7, 8, 9, 10, 11])
    def test_cut_beside_a_block_edge(self, tmp_path, two_process_writes, monkeypatch, n):
        monkeypatch.setattr(data, "_WRITE_BLOCK_ROWS", 4)  # a cut at row 3, 4 or 5
        got, want = _write_curves(tmp_path, n)
        assert two_process_writes and got == want

    @pytest.mark.parametrize("child", ["exits_1_before_sending", "exits_1_after_part"])
    def test_failed_child_gives_the_same_bytes(
        self, tmp_path, two_process_writes, monkeypatch, child
    ):
        parent, blocks = os.getpid(), data._csv_blocks

        def blocks_in_child(columns, start, stop):
            if os.getpid() == parent:
                return blocks(columns, start, stop)
            if child == "exits_1_before_sending":
                os._exit(1)
            # the first of its 5 blocks is sent, then writing None raises
            return [next(blocks(columns, start, stop)), None]

        monkeypatch.setattr(data, "_WRITE_BLOCK_ROWS", 4)
        monkeypatch.setattr(data, "_csv_blocks", blocks_in_child)
        got, want = _write_curves(tmp_path, 40)
        assert two_process_writes and got == want

    def test_failed_fork_gives_the_same_bytes(self, tmp_path, two_process_writes, monkeypatch):
        def fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        got, want = _write_curves(tmp_path, 41)
        assert got == want

    def test_fork_beside_a_thread_warns_nothing(self, tmp_path, two_process_writes):
        # Python 3.12+ warns on a fork in a process with threads
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got, want = _write_curves(tmp_path, 41)
        finally:
            done.set()
            thread.join(timeout=10)
        assert two_process_writes and not caught and not thread.is_alive()
        assert got == want

    def test_pipe_is_written_by_the_parent(self, tmp_path, two_process_writes):
        # a FIFO cannot be truncated back to the parent's rows if a child
        # fails, so none is started and the parent formats every row
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
        _no_child_left()
        assert not two_process_writes and not reader.is_alive() and got == [want]

    @pytest.mark.parametrize("no_second_cpu", ["no_fork", "one_cpu"])
    def test_serial_without_fork_or_second_cpu(
        self, tmp_path, two_process_writes, monkeypatch, no_second_cpu
    ):
        if no_second_cpu == "no_fork":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        got, want = _write_curves(tmp_path, 41)
        assert not two_process_writes and got == want


def _file_of_body(path, size):
    """Write a dataset file whose body, the bytes after HEADER, is `size`
    bytes; the last row's f0 is padded with zeros to fit."""
    rows, length = [], 0
    while length + 40 < size:
        i = len(rows)
        rows.append(f"{i},{i % 2},{i}.5,{-i}e-3\n")
        length += len(rows[-1])
    i = len(rows)
    last = f"{i},{i % 2},{i}.5,0\n"
    rows.append(last.replace(".5,", ".5" + "0" * (size - length - len(last)) + ",", 1))
    path.write_text(HEADER + "".join(rows))
    assert path.stat().st_size == len(HEADER) + size


class TestWhenAReadForks:
    """A read forks for a body of over _FORK_BYTES only, and gives the
    serial reader's columns either way."""

    @staticmethod
    def _serial(path):
        """A parse of path in one process, past the sidecar that the forked
        load wrote."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_FORK_BYTES", 1 << 62)
            return _outcome(path, None)

    @pytest.mark.parametrize("extra", [0, 1], ids=["at_the_gate", "one_byte_over"])
    def test_fork_over_the_body_bytes(self, tmp_path, forks, extra):
        path = tmp_path / "d.csv"
        _file_of_body(path, data._FORK_BYTES + extra)
        got = load_csv(path)
        _no_child_left()
        assert bool(forks) == bool(extra)
        _assert_same_outcome(got, self._serial(path))

    def test_knn_workload_sized_file_forks(self, tmp_path, forks):
        # the shape of the k-NN workloads' data.csv: 9000 rows of 8 features
        path = tmp_path / "d.csv"
        save_csv(synth_gaussians(3, 8, 3000, 3.0, seed=0), path)
        _no_child_left()
        forks.clear()  # the write's own fork
        got = load_csv(path)
        _no_child_left()
        assert forks and len(got) == 9000
        _assert_same_outcome(got, self._serial(path))


class TestWhenAWriteForks:
    """A write forks for columns of over _FORK_FLOATS float cells only."""

    def test_small_curves_write_serially(self, tmp_path, forks):
        got, want = _write_curves(tmp_path, 900)
        assert not forks and got == want

    @pytest.mark.parametrize("n", [1, 40_000])
    def test_predictions_write_serially(self, tmp_path, forks, n):
        # their float cells are formatted once per category, so the rows hold none
        rows = category_rows([[2, 3], [0, 5]])
        category = np.arange(n) % 2
        ids, labels = np.arange(n, dtype=np.int64), category
        path = tmp_path / "predictions.csv"
        _write_predictions(path, ids, EvalBatch(category, rows, labels))
        assert not forks
        assert path.read_bytes() == _reference_predictions(ids, labels, category, rows)

    @pytest.mark.parametrize("cells", [data._FORK_FLOATS, data._FORK_FLOATS + 1])
    def test_fork_over_the_float_cells(self, tmp_path, forks, cells):
        path = tmp_path / "d.csv"
        data._write_csv(path, ["id", "x"], np.arange(cells), np.arange(cells) / 8)
        _no_child_left()
        assert bool(forks) == (cells > data._FORK_FLOATS)
        assert path.read_bytes() == "".join(
            ["id,x\n", *(f"{i},{i / 8!r}\n" for i in range(cells))]
        ).encode()


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


class TestSynthGaussians:
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
