"""Dataset container, CSV ingestion, deterministic splits, synthetic data.

The on-disk format is a single CSV with header

    id,label,f0,...,f{D-1}[,s0,...,s{c-1}]

where the optional s block carries an externally produced per-class score
vector (each row summing to 1) for score-threshold taxonomies. Blank and
whitespace-only lines are skipped; there are no comments and no quoting;
ids and labels are int64. `read_csv` is the only CSV parser: it serves
this file and predictions.csv. It parses the body with numpy's C reader a
block of at most _READ_BLOCK_BYTES (1 MiB) of rows at a time, so parsing
holds the columns plus one block; on two CPUs, a forked child parses the
rows past the middle of a body over _FORK_BYTES (4 MiB), holding its own
columns plus one block. Only a file it rejects goes through the Python
row loop, which accepts the same literals as Python's int() and float()
and names the line of a bad row and the column of a bad cell. Every CSV
is written _WRITE_BLOCK_ROWS (4096) rows at a time, and every artifact
through `open_artifact`, which writes a new file in place of an old one.
On two CPUs, a forked child formats the second half of a CSV whose
columns hold over _FORK_FLOATS (2^16) float cells and holds that half's
text, while the parent writes the first half and then copies the child's
text into the file, holding one block. Both the reader and the writer
fork through `_forked`, which reaps the child on every path; the bytes
written and the columns read are the one-process path's.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import shutil
import signal
import stat
import warnings
from dataclasses import dataclass

import numpy as np

_WRITE_BLOCK_ROWS = 4096
_READ_BLOCK_BYTES = 1 << 20
_FORK_BYTES = 4 << 20
_FORK_FLOATS = 1 << 16
# numpy warns on a blank line once max_rows is set, and on a body with no rows
_NO_DATA = r"(Input line \d+|loadtxt: input) contained no data"


def check_score_rows(S, path=None):
    """Raise unless every row of the (m, c) score array is finite,
    nonnegative and sums to 1 within 1e-6, naming the first that is not by
    `path:line` when the rows are the file's at path, else as row i."""
    # NaN fails both comparisons, so a non-finite row is caught here too;
    # `all` over a row is about 3x faster than its minimum at 3 columns
    ok = (S >= 0.0).all(axis=1) & (np.abs(np.add.reduce(S, axis=1) - 1.0) <= 1e-6)
    if not ok.all():
        row = int(np.argmin(ok))
        name = f"{path}:{line_number(path, row + 1)}: softmax row" if path else f"softmax row {row}"
        raise ValueError(f"{name} must be finite, nonnegative and sum to 1 (tol 1e-6)")


def int64_values(values, name):
    """The values as int64. ValueError names the first that is not an
    integer in int64's range (a float one would be written as 82.0)."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        ok = values <= np.iinfo(np.int64).max
    elif values.dtype.kind == "f":
        ok = (np.trunc(values) == values) & (-(2.0**63) <= values) & (values < 2.0**63)
    elif values.dtype.kind == "O":  # such as a Python int past int64, or None
        in_range = np.vectorize(lambda v: type(v) is int and -(2**63) <= v < 2**63, otypes=[bool])
        ok = in_range(values)
    else:
        ok = np.zeros(values.shape, dtype=bool)
    if not ok.all():
        # a 0-d value is row 0; an object array holds Python objects, not numpy scalars
        i = int(np.argmin(ok))
        value = values.reshape(-1)[i : i + 1].tolist()[0]
        row = np.unravel_index(i, values.shape)[0] if values.ndim else 0
        raise ValueError(f"{name} {value!r} in row {row} is not an integer")
    return values.astype(np.int64, copy=False)


def row_labels(labels, n, class_count):
    """The labels of n rows as a 1-D int64 array, each in [0, class_count)
    (class_labels), or any int64 (int64_values) when class_count is None.
    ValueError names the shape of labels that are not one per row."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels have shape {labels.shape}, expected ({n},)")
    if class_count is None:
        return int64_values(labels, "label")
    return class_labels(labels, class_count)


def float_rows(X, dim, what):
    """X as a float (m, dim) array, of any width when dim is None.
    ValueError names `what` and both shapes."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or dim not in (None, X.shape[1]):
        width = "dim" if dim is None else dim
        raise ValueError(f"{what} have shape {X.shape}, expected (m, {width})")
    return X


def check_finite_rows(X, what, names=None):
    """Raise naming `what` and the first row of the 2-D X that holds a nan
    or inf, as `row i`, or as names[i] when names are given (an example id,
    a class); only an array that is not all finite is searched row by row."""
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        name = f"row {row}" if names is None else names[row]
        raise ValueError(f"{what} {name} is not finite (nan or inf)")


def check_finite(cfg, name):
    """Raise naming field `name` of the config `cfg` if it is set but not
    finite: nan fails every comparison, so a range check lets it through."""
    value = getattr(cfg, name)
    if value is not None and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class Dataset:
    ids: np.ndarray  # (n,) int64
    features: np.ndarray  # (n, feature_dim) float64
    labels: np.ndarray  # (n,) int64, each in [0, class_count)
    class_count: int
    softmaxes: np.ndarray | None = None  # (n, class_count) rows summing to 1

    def __post_init__(self):
        if np.ndim(self.ids) != 1:
            raise ValueError("ids and labels must be 1-D arrays")
        if self.class_count < 1:
            raise ValueError("class_count must be positive")
        object.__setattr__(self, "ids", int64_values(self.ids, "id"))
        n = len(self.ids)
        object.__setattr__(self, "labels", row_labels(self.labels, n, self.class_count))
        object.__setattr__(self, "features", float_rows(self.features, None, "features"))
        if len(self.features) != n:
            raise ValueError("ids and features must have equal length")
        check_finite_rows(self.features, "features of example id", self.ids)
        if self.softmaxes is not None:
            softmaxes = float_rows(self.softmaxes, self.class_count, "softmaxes")
            object.__setattr__(self, "softmaxes", softmaxes)
            if len(softmaxes) != n:
                raise ValueError("ids and softmaxes must have equal length")
            check_score_rows(softmaxes)

    def __len__(self):
        return len(self.ids)

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def subset(self, indices):
        """The examples at the indices, each an integer in [0, len(self))."""
        indices = index_values(indices, len(self), "index", "indices")
        return Dataset(
            ids=self.ids[indices],
            features=self.features[indices],
            labels=self.labels[indices],
            class_count=self.class_count,
            softmaxes=None if self.softmaxes is None else self.softmaxes[indices],
        )


def _parse_header(cols, class_count):
    """The row dtype of a dataset CSV with these header cells."""
    if len(cols) < 3 or cols[0] != "id" or cols[1] != "label":
        raise ValueError("header must start with 'id,label,f0,...'")
    dim = 0
    while 2 + dim < len(cols) and cols[2 + dim] == f"f{dim}":
        dim += 1
    if dim == 0:
        raise ValueError("header declares no feature columns")
    c = 0
    while 2 + dim + c < len(cols) and cols[2 + dim + c] == f"s{c}":
        c += 1
    if 2 + dim + c != len(cols):
        raise ValueError(f"unrecognized header column {cols[2 + dim + c]!r}")
    if c and class_count is not None and class_count != c:
        raise ValueError(f"header has {c} score columns, expected {class_count}")
    fields = [("id", "<i8"), ("label", "<i8"), ("f", "<f8", (dim,))]
    return np.dtype(fields + [("s", "<f8", (c,))] if c else fields)


def line_number(path, k):
    """The 1-based line in the file of its k-th (0-based) non-blank line;
    only error paths pay for the scan."""
    seen = -1
    with open(path, encoding="utf-8") as f:
        for number, ln in enumerate(f, start=1):
            seen += bool(ln.strip())
            if seen == k:
                return number
    raise IndexError(k)


def index_values(values, count, name, column, path=None):
    """The values as int64 (int64_values), each in [0, count). ValueError
    names the first outside, by `path:line` when the values are the rows of
    the file at path, else as row i of `column`."""
    values = int64_values(values, name)
    outside = (values < 0) | (values >= count)
    if outside.any():
        row = int(np.argmax(outside))
        where = f"{path}:{line_number(path, row + 1)}:" if path else f"{column}: row {row}:"
        raise ValueError(f"{where} {name} {values[row]} outside [0, {count})")
    return values


def class_labels(values, class_count, path=None):
    """The values as int64 labels, each in [0, class_count) (index_values)."""
    return index_values(values, class_count, "label", "labels", path)


def not_utf8(path, exc):
    """The ValueError for exc, a UnicodeDecodeError met reading path: it names
    `path:line` of the first byte that is not UTF-8, found by a rescan that
    decodes such a byte to a lone surrogate (U+DC80..U+DCFF)."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        number = next(n for n, ln in enumerate(f, 1) if any("\udc80" <= c <= "\udcff" for c in ln))
    return ValueError(f"{path}:{number}: byte 0x{exc.object[exc.start]:02x} is not UTF-8")


def _line_count(path, start=0, stop=math.inf):
    """Lines in bytes [start, stop) of the file as text mode splits them (LF,
    CRLF and a lone CR each end one; the last may have no end)."""
    count, last = 0, b""
    with open(path, "rb") as f:
        f.seek(start)
        while chunk := f.read(min(_READ_BLOCK_BYTES, stop - f.tell())):
            # numpy counts a byte about four times faster than bytes.count
            count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
            count -= last == b"\r" and chunk[:1] == b"\n"  # a CRLF split between reads
            last = chunk[-1:]
    return count + (last not in (b"", b"\n", b"\r"))


def _fill(lines, dtype, count, ends=True):
    """Parse the lines with numpy's C reader, _READ_BLOCK_BYTES of rows at a
    time, into one column per dtype field; return the columns and the rows
    filled. The first block allocates the columns: its own rows if it ends
    the lines and `ends` says they end the body, else count() rows."""
    rows = max(1, _READ_BLOCK_BYTES // dtype.itemsize)
    columns, filled = None, 0
    while True:
        block = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1, max_rows=rows)
        if columns is None:
            n = len(block) if len(block) < rows and ends else count()
            columns = [np.empty((n, *dtype[name].shape), dtype[name].base) for name in dtype.names]
        for column, name in zip(columns, dtype.names):
            column[filled : filled + len(block)] = block[name]
        filled += len(block)
        if len(block) < rows:
            return columns, filled
        del block  # so the next block is not read while this one is alive


@contextlib.contextmanager
def _forked(send):
    """Fork a child that runs send(pipe), pipe the write end of a pipe as a
    binary file, and exits through os._exit: 0 only once send has returned
    and every byte is written, else 1. Yields (the read end as a binary
    file, a function that waits for the child and tells whether it exited
    0), or None, with no child, unless os.fork exists, the CPU affinity set
    (os.cpu_count() where it cannot be read) holds a second CPU and the fork
    succeeds. The child is reaped on every path, and killed first if the
    parent has not waited for it."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if (cpus or 1) < 2 or not hasattr(os, "fork"):
        yield None
        return
    r, w = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12+ warns of a fork beside threads (OpenBLAS's pool); each
        # child runs only numpy's text reader or str formatting, with no
        # import, logging or BLAS call
        warnings.filterwarnings("ignore", r"This process .* use of fork\(\)", DeprecationWarning)
        try:
            pid = os.fork()
        except OSError:  # no memory or process left for a child
            pid = None
    if pid is None:
        os.close(r)
        os.close(w)
        yield None
        return
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                send(pipe)
            os._exit(0)  # only once every byte is written
        finally:
            os._exit(1)
    os.close(w)
    status = []

    def exited_0():
        status.append(os.waitpid(pid, 0)[1])
        return status[0] == 0

    try:
        with open(r, "rb") as pipe:
            yield pipe, exited_0
    finally:
        if not status:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fill_in_two(path, f, dtype):
    """_fill over the body left in the open text file f, cut at the first LF
    past its byte midpoint, with a forked child (_forked) parsing the rows
    after the cut; None, with f where it was, unless the body is over
    _FORK_BYTES, tell() gives a byte offset (not after a lone CR), a child
    runs and it sends every row it parsed. A fork that fails returns None
    before any row is parsed. The columns are allocated after the first
    block, as in the serial path: allocated before it, they raised the
    benchmark's base-csv peak memory by about 3 MB."""
    size = os.fstat(f.fileno()).st_size
    if size - (start := f.tell()) <= _FORK_BYTES:
        return None
    with open(path, "rb") as raw:
        raw.seek((start + size) // 2)
        if not raw.readline(_READ_BLOCK_BYTES).endswith(b"\n") or (cut := raw.tell()) >= size:
            return None

    def send(pipe):  # the child's row count, then each column's bytes
        with open(path, encoding="utf-8") as rest:
            rest.seek(cut)
            mine, sent = _fill(rest, dtype, lambda: _line_count(path, cut))
        pipe.write(sent.to_bytes(8, "little"))
        for column in mine:
            pipe.write(column[:sent].view(np.uint8))

    with _forked(send) as child:
        if child is None:
            return None
        pipe, exited_0 = child
        head = itertools.islice(f, lines := _line_count(path, start, cut))
        columns, filled = _fill(head, dtype, lambda: lines + _line_count(path, cut), ends=False)
        sent = int.from_bytes(pipe.read(8), "little")
        parts = [c[filled : filled + sent].view(np.uint8) for c in columns]
        ok = filled + sent <= len(columns[0]) and all(pipe.readinto(p) == p.nbytes for p in parts)
        if ok and exited_0():
            return columns, filled + sent
    f.seek(start)  # where the serial path starts
    return None


def _read_columns(path, f, dtype):
    """Parse the rest of an open CSV file with numpy's C reader into one
    C-contiguous column per field of the structured dtype (_fill_in_two, else
    _fill), or return None when it rejects the text. Blank lines leave some
    of the columns allocated for every line unfilled; one copy trims them."""
    with warnings.catch_warnings():
        # a blank line or a body with no rows only warns; any other warning
        # sends the file to the row loop
        warnings.simplefilter("error", UserWarning)
        warnings.filterwarnings("ignore", _NO_DATA, UserWarning)
        try:
            serial = functools.partial(_fill, f, dtype, lambda: _line_count(path) - 1)
            columns, filled = _fill_in_two(path, f, dtype) or serial()
        except (ValueError, UserWarning):
            return None
    if filled < len(columns[0]):
        columns = [column[:filled].copy() for column in columns]
    return columns


def _parse_rows(path, header, dtype):
    """The Python row loop: parse every non-blank line after the header into
    one column per dtype field, each cell as int() or float() would, or
    raise naming `path:line` of the first bad row and a bad cell's column."""
    bases = [dtype[n].base for n in dtype.names for _ in range(math.prod(dtype[n].shape))]
    rows = []
    with open(path, encoding="utf-8") as f:
        lines = ((number, ln) for number, ln in enumerate(f, start=1) if ln.strip())
        next(lines)  # the header
        for number, ln in lines:
            where, cells = f"{path}:{number}:", ln.rstrip("\n").split(",")
            if len(cells) != len(header):
                raise ValueError(f"{where} expected {len(header)} columns, got {len(cells)}")
            row = []
            for name, base, text in zip(header, bases, cells):
                try:
                    row.append(int(text) if base.kind == "i" else float(text))
                except ValueError:
                    kind = "an integer" if base.kind == "i" else "a number"
                    raise ValueError(f"{where} {name} cell {text!r} is not {kind}") from None
                if base.kind == "i" and not -(2**63) <= row[-1] < 2**63:
                    raise ValueError(f"{where} {name} {text.strip()} outside int64")
            rows.append(tuple(row))
    # one scalar field per cell has the dtype's layout
    table = np.array(rows, [(str(i), base) for i, base in enumerate(bases)]).view(dtype)
    return [np.ascontiguousarray(table[name]) for name in dtype.names]


def read_csv(path, dtype_of):
    """Parse a CSV file. The stripped cells of its first non-blank line are
    the header, and dtype_of(header) is the structured dtype of every other
    non-blank line. Returns (header, one C-contiguous column per dtype
    field). A ValueError from dtype_of is raised again naming the file, and
    a byte that is not UTF-8 is named by `path:line`."""
    try:
        with open(path, encoding="utf-8") as f:
            header = f.readline()
            while header and not header.strip():
                header = f.readline()
            if not header:
                raise ValueError(f"{path}: empty file")
            header = [cell.strip() for cell in header.split(",")]
            try:
                dtype = dtype_of(header)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
            columns = _read_columns(path, f, dtype)
        if columns is None:
            columns = _parse_rows(path, header, dtype)
    except UnicodeDecodeError as exc:
        raise not_utf8(path, exc) from None
    return header, columns


def load_csv(path, class_count=None):
    """Parse a dataset CSV. Malformed rows are rejected with their line
    number in the file, blank lines counted. When the file has no score
    block and class_count is not given, it is inferred as max(label) + 1."""
    dtype_of = functools.partial(_parse_header, class_count=class_count)
    _, (ids, labels, features, *scores) = read_csv(path, dtype_of)
    softmaxes = scores[0] if scores else None
    blocks = [features] + scores
    if not all(np.isfinite(block).all() for block in blocks):
        row = int(np.argmin(np.logical_and.reduce([np.isfinite(b).all(axis=1) for b in blocks])))
        raise ValueError(f"{path}:{line_number(path, row + 1)}: non-finite cell (nan or inf)")
    if softmaxes is not None:
        class_count = softmaxes.shape[1]
        check_score_rows(softmaxes, path)
    if class_count is None:
        class_count = int(labels.max()) + 1 if len(labels) else 1
    return Dataset(
        ids=ids,
        features=features,
        labels=class_labels(labels, class_count, path),
        class_count=class_count,
        softmaxes=softmaxes,
    )


def csv_lines(*columns):
    """One `,`-joined line per row of the columns, each a 1-D array or a 2-D
    block of columns. Every cell is formatted as str() formats it, which is
    repr for a float, so load_csv reads back the same bits."""
    cells = [cell for col in columns for cell in np.atleast_2d(np.asarray(col).T).tolist()]
    return list(map(",".join(["{}"] * len(cells)).format, *cells))


def open_artifact(path, mode="w"):
    """Open path to write an artifact ("w" text, "wb" bytes) as a new file.
    An existing regular file, or a link to one, is unlinked first. ext4
    flushes a file to disk when it is closed after being truncated (and a
    temp file when renamed over another), so rewriting a 3 MB artifact in
    place took 110-156 ms and unlinking and writing afresh 0.3 ms. The
    write never reaches another name hard-linked to the old file, and a
    symlinked artifact becomes a regular file. A device or pipe such as
    /dev/stdout is written in place."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def _csv_blocks(columns, start, stop):
    """The UTF-8 csv_lines of rows [start, stop) of the columns, each row
    ended by LF, _WRITE_BLOCK_ROWS rows to a bytes object."""
    for block in range(start, stop, _WRITE_BLOCK_ROWS):
        rows = slice(block, min(block + _WRITE_BLOCK_ROWS, stop))
        yield ("\n".join(csv_lines(*(col[rows] for col in columns))) + "\n").encode()


def _write_csv(path, header, *columns):
    """Write the header, then the columns' csv_lines a block of rows at a
    time, to bound the memory held in Python objects. When the columns hold
    over _FORK_FLOATS float cells (repr is most of the cost), a forked child
    (_forked) formats rows [n // 2, n) whole and sends them down a pipe,
    while the parent writes the rows before them and then copies the pipe
    into the file; if the child fails, the parent truncates the file back
    to its own rows and formats the rest itself."""
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0])
    fork = sum(col.size for col in columns if col.dtype.kind == "f") > _FORK_FLOATS
    cut = n // 2 if fork else n

    def send(pipe):  # the whole half is formatted before the pipe can block
        pipe.writelines(list(_csv_blocks(columns, cut, n)))

    # forked before the file is opened, so the child inherits no write buffer
    forked = _forked(send) if fork else contextlib.nullcontext()
    with forked as child, open_artifact(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(_csv_blocks(columns, 0, cut))
        if child and f.seekable():  # a device such as /dev/stdout cannot be truncated
            pipe, exited_0 = child
            end = f.tell()
            shutil.copyfileobj(pipe, f, _READ_BLOCK_BYTES)
            if exited_0():
                return
            f.seek(end)
            f.truncate()
        f.writelines(_csv_blocks(columns, cut, n))


def save_csv(ds, path):
    """Inverse of load_csv; the round trip is exact. Every cell is written as
    the file's type: int64 ids and labels, float features and scores."""
    cols = ["id", "label"] + [f"f{i}" for i in range(ds.feature_dim)]
    blocks = [np.asarray(ds.features, dtype=float)]
    if ds.softmaxes is not None:
        cols += [f"s{j}" for j in range(ds.class_count)]
        blocks.append(np.asarray(ds.softmaxes, dtype=float))
    ids, labels = (np.asarray(a, dtype=np.int64) for a in (ds.ids, ds.labels))
    _write_csv(path, cols, ids, labels, *blocks)


@dataclass(frozen=True)
class SplitSpec:
    """Test examples come off the top, then a calibration share of what
    remains; fractional remainders stay in proper training."""

    test_fraction: float = 0.10
    calibration_fraction: float = 0.20
    seed: int = 0

    def __post_init__(self):
        for name in ("test_fraction", "calibration_fraction"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def split(ds, spec):
    """Deterministic (proper_training, calibration, test) partition.

    Raises when a part comes out empty or some class is missing from proper
    training, since the underlying model cannot learn an absent class.
    """
    n = len(ds)
    n_test = int(n * spec.test_fraction)
    n_cal = int((n - n_test) * spec.calibration_fraction)
    n_proper = n - n_test - n_cal
    if n_test == 0 or n_cal == 0 or n_proper == 0:
        raise ValueError(
            f"split of {n} examples leaves an empty part "
            f"(test={n_test}, calibration={n_cal}, proper={n_proper})"
        )
    perm = np.random.default_rng(spec.seed).permutation(n)
    test = ds.subset(perm[:n_test])
    calibration = ds.subset(perm[n_test : n_test + n_cal])
    proper = ds.subset(perm[n_test + n_cal :])
    present = np.unique(proper.labels)
    if len(present) != ds.class_count:
        missing = sorted(set(range(ds.class_count)) - set(int(c) for c in present))
        raise ValueError(
            f"classes {missing} missing from proper training; "
            f"try another seed or more data"
        )
    return proper, calibration, test


def synth_gaussians(class_count, dim, n_per_class, separation, seed):
    """Unit-variance isotropic Gaussian blobs, one per class, every pair of
    centers exactly `separation` apart (centers are scaled standard basis
    vectors, hence dim >= class_count)."""
    if class_count < 2:
        raise ValueError("need at least 2 classes")
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    if dim < class_count:
        raise ValueError(
            f"dim must be >= class_count to place {class_count} "
            f"equidistant centers, got dim={dim}"
        )
    if separation < 0:
        raise ValueError("separation must be nonnegative")
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    n = class_count * n_per_class
    features = np.empty((n, dim))
    labels = np.empty(n, dtype=np.int64)
    for cls in range(class_count):
        center = np.zeros(dim)
        center[cls] = scale
        rows = slice(cls * n_per_class, (cls + 1) * n_per_class)
        features[rows] = center + rng.standard_normal((n_per_class, dim))
        labels[rows] = cls
    return Dataset(
        ids=np.arange(n, dtype=np.int64),
        features=features,
        labels=labels,
        class_count=class_count,
    )
