"""Dataset container, CSV ingestion, deterministic splits, synthetic data.

The on-disk format is a single CSV with header

    id,label,f0,...,f{D-1}[,s0,...,s{c-1}]

where the optional s block carries an externally produced per-class score
vector (each row summing to 1) for score-threshold taxonomies. Blank and
whitespace-only lines are skipped; there are no comments and no quoting;
ids and labels are int64. `read_csv` is the only CSV parser: it serves
this file and predictions.csv. It parses the body with numpy's C reader a
block of at most _READ_BLOCK_BYTES (1 MiB) of rows at a time, so parsing
holds the columns plus one block. Only a file it rejects goes through the
Python row loop, which accepts the same literals as Python's int() and
float() and names the line of a bad row and the column of a bad cell.
Every CSV is written _WRITE_BLOCK_ROWS (4096) rows at a time, and every
artifact through `open_artifact`, which writes a new file in place of an
old one.
"""

from __future__ import annotations

import functools
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

_WRITE_BLOCK_ROWS = 4096
_READ_BLOCK_BYTES = 1 << 20
# numpy warns on a blank line once max_rows is set, and on a body with no rows
_NO_DATA = r"(Input line \d+|loadtxt: input) contained no data"


def check_score_rows(S):
    """Raise unless every row of the (m, c) score array is finite,
    nonnegative and sums to 1 within 1e-6."""
    # NaN fails both comparisons, so a non-finite row is caught here too
    ok = (np.minimum.reduce(S, axis=1) >= 0.0) & (np.abs(np.add.reduce(S, axis=1) - 1.0) <= 1e-6)
    if not ok.all():
        raise ValueError(
            f"softmax row {int(np.argmin(ok))} must be finite, nonnegative "
            f"and sum to 1 (tol 1e-6)"
        )


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


def check_finite_rows(X, what):
    """Raise naming `what` and the first row of the 2-D X that holds a nan
    or inf; only an array that is not all finite is searched row by row."""
    if not np.isfinite(X).all():
        row = int(np.argmin(np.isfinite(X).all(axis=1)))
        raise ValueError(f"{what} row {row} is not finite (nan or inf)")


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
        features = np.asarray(self.features, dtype=float)
        object.__setattr__(self, "features", features)
        if features.ndim != 2:
            raise ValueError("features must be a 2-D array")
        if features.shape[0] != n:
            raise ValueError("ids and features must have equal length")
        if not np.isfinite(features).all():
            row = int(np.argmin(np.isfinite(features).all(axis=1)))
            raise ValueError(f"features of example id {self.ids[row]} are not finite (nan or inf)")
        if self.softmaxes is not None:
            object.__setattr__(self, "softmaxes", np.asarray(self.softmaxes, dtype=float))
            if self.softmaxes.shape != (n, self.class_count):
                raise ValueError(
                    f"softmaxes must have shape ({n}, {self.class_count})"
                )
            check_score_rows(self.softmaxes)

    def __len__(self):
        return len(self.ids)

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def subset(self, indices):
        indices = np.asarray(indices, dtype=int)
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


def _line_count(path):
    """Lines in the file as text mode splits them (LF, CRLF and a lone CR
    each end one; the last may have no end). A CRLF split across two reads
    counts twice, which keeps this an upper bound."""
    count, last = 0, b""
    with open(path, "rb") as f:
        while chunk := f.read(_READ_BLOCK_BYTES):
            # numpy counts a byte about four times faster than bytes.count
            count += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
            last = chunk[-1:]
    return count + (last not in (b"", b"\n", b"\r"))


def _read_columns(path, f, dtype):
    """Parse the rest of an open CSV file with numpy's C reader into one
    C-contiguous column per field of the structured dtype, or return None
    when it rejects the text.

    The rows are read a block of at most _READ_BLOCK_BYTES at a time. When
    the first block is not the whole file, the columns are allocated for
    every line of the file and filled block by block, then trimmed with one
    copy if blank lines left some unfilled; parsing holds the columns plus
    one block."""
    rows = max(1, _READ_BLOCK_BYTES // dtype.itemsize)
    with warnings.catch_warnings():
        # a blank line or a body with no rows only warns; any other warning
        # sends the file to the row loop
        warnings.simplefilter("error", UserWarning)
        warnings.filterwarnings("ignore", _NO_DATA, UserWarning)
        read = functools.partial(
            np.loadtxt, f, dtype=dtype, delimiter=",", comments=None, ndmin=1, max_rows=rows
        )
        try:
            block = read()
            n = len(block) if len(block) < rows else _line_count(path) - 1
            columns = [np.empty((n, *dtype[name].shape), dtype[name].base) for name in dtype.names]
            filled = 0
            while True:
                for column, name in zip(columns, dtype.names):
                    column[filled : filled + len(block)] = block[name]
                filled += len(block)
                if len(block) < rows:
                    break
                del block  # so the next block is not read while this one is alive
                block = read()
        except (ValueError, UserWarning):
            return None
    if filled < n:
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
    bad = ~np.isfinite(features).all(axis=1)
    if softmaxes is not None:
        class_count = softmaxes.shape[1]
        bad |= ~np.isfinite(softmaxes).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise ValueError(f"{path}:{line_number(path, row + 1)}: non-finite cell (nan or inf)")
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


def _write_csv(path, header, *columns):
    """Write the header, then the columns' csv_lines a block of rows at a
    time, to bound the memory held in Python objects."""
    with open_artifact(path) as f:
        f.write(",".join(header) + "\n")
        for block in range(0, len(columns[0]), _WRITE_BLOCK_ROWS):
            rows = slice(block, block + _WRITE_BLOCK_ROWS)
            f.write("\n".join(csv_lines(*(col[rows] for col in columns))) + "\n")


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
