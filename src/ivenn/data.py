"""Dataset container, CSV ingestion, deterministic splits, synthetic data.

The on-disk format is a single CSV with header

    id,label,f0,...,f{D-1}[,s0,...,s{c-1}]

where the optional s block carries an externally produced per-class score
vector (each row summing to 1) for score-threshold taxonomies. Blank lines
(whitespace only) are skipped; there are no comments and no quoting; ids and
labels are int64. `read_csv`, the only CSV parser, serves it and predictions.csv.

A load opens its input once and holds it until its checks are done (see
_Input). `load_csv` checks each value once, not again on its Dataset nor on
the parts `split` gathers: a gather cannot make a cell non-finite or a score
row stop summing to 1.

`load_csv` alone keeps a column cache. After it loads, without error, a
regular file that its path names itself (not a link such as /dev/stdin), it
writes the parsed columns to `.<name>.columns` beside it, headed by a format
tag, the CSV's SHA-256, its stat stamp (device, inode, size, mtime and ctime)
and the row count. A sidecar is read only if its tag and size match and it
belongs to the loading user or the CSV's owner. A later load whose stamp is
the recorded one maps the columns copy-on-write from it without reading the
body, if the stamp is not racy (git's rule, racy-git.txt): the CSV's mtime
and ctime are both strictly older than the sidecar's mtime. Any other load
hashes the CSV; on the recorded digest it maps the columns and rewrites the
sidecar with the new stamp, and on another, or with no sidecar, it parses,
writing a new sidecar if it can. The Dataset or error is the same either
way. The trade: an in-place edit that keeps the size, mtime and ctime goes
unseen. User space cannot set a ctime, so only a clock set back (as root),
a filesystem that keeps no ctime, or two writes within one tick of a coarse
clock with a load reading between them can make one. On base-csv's 13.4 MB
data.csv a hit on a trusted stamp took 0.7-0.8 ms, and one that hashes and
rewrites the sidecar 12.7-13.3 ms (medians of 15, 2 vCPUs).

The body reader counts the body's lines, then parses those that are not
blank into columns of that many rows, a block at a time (see _fill).
numpy's C reader alone decides what loads (see _loadtxt); a refused block
is rescanned only to name its first bad row (see _refusal). A CSV is read
and written by the calling process alone, so a first load (a miss) parses
every row on one CPU: one of base-csv's data.csv took 185-195 ms (medians
of 15 misses, 2 vCPUs). A CSV is written a block of at most
_WRITE_BLOCK_CELLS cells (whole rows, at least one) at a time, each
formatted by one `%`, every artifact through `open_artifact`.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import math
import mmap
import os
import re
import stat
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

# A write block holds at most this many cells as Python objects (whole rows,
# at least one), so its memory follows its cells, not its rows: as many as
# 4096 rows of base-csv's predictions.csv held when written as id, label and
# counts. A 784-D save_csv of 5000 rows peaked at 158.7 MiB traced in
# 4096-row blocks and at 0.9 MiB in these (15 rows), with the same bytes.
_WRITE_BLOCK_CELLS = 4096 * 3
# The SHA-256 of base-csv's 13.4 MB data.csv took 11.3-12.1 ms in 256 KiB
# blocks, 11.6-12.5 ms in 1 MiB ones (medians of 60, 3 runs, 2 vCPUs); a
# miss's line count 2.2-3.2 ms.
_READ_BLOCK_BYTES = 1 << 18
# a blank line, whitespace only (\x1c-\x1f too), is skipped wherever a CSV is read
_blank = str.isspace
# A sidecar starts with this tag, the CSV's SHA-256 digest, its stamp (see
# _stamp) and the row count as 8 little-endian bytes: _HEAD_BYTES (96) in
# all, so every column is 8-aligned.
_CACHE_HEAD = b"ivenn columns v2"
_HEAD_BYTES = len(_CACHE_HEAD) + 32 + 40 + 8


def check_score_rows(S, where=None):
    """Raise unless every row of the (m, c) score array is finite,
    nonnegative and sums to 1 within 1e-6, naming the first that is not by
    where(i), a file's `path:line:`, when given, else as row i."""
    # NaN fails the sum's test. The columns are summed left to right, as
    # add.reduce sums a row of up to 7 (same bits): 0.48 against 2.3 ms at
    # 60k x 3, and as fast for one row, as served; rows only on a failure
    ok = np.abs(functools.reduce(np.add, S.T) - 1.0) <= 1e-6
    if not (ok.all() and S.min(initial=0.0) >= 0.0):
        row = int(np.argmin(ok & (S >= 0.0).all(axis=1)))
        name = f"{where(row)} softmax row" if where else f"softmax row {row}"
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

    @classmethod
    def _checked(cls, *columns):
        """A Dataset of the fields' values, checked and of the types that
        __post_init__ leaves, built without running its checks again."""
        ds = object.__new__(cls)
        ds.__dict__.update(zip(cls.__dataclass_fields__, columns))
        return ds

    def subset(self, indices):
        """The examples at the indices, each an integer in [0, len(self)).
        The rows are not checked again: a gather cannot make a finite cell
        non-finite, a label leave its range or a score row stop summing to 1."""
        indices = index_values(indices, len(self), "index", "indices")
        # take gathers rows about 3x faster than fancy indexing, same bytes
        rows = [a.take(indices, axis=0) for a in (self.ids, self.features, self.labels)]
        scores = None if self.softmaxes is None else self.softmaxes.take(indices, axis=0)
        return Dataset._checked(*rows, self.class_count, scores)


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


def index_values(values, count, name, column, where=None):
    """The values as int64 (int64_values), each in [0, count). ValueError
    names the first outside by where(i), a file's `path:line:`, when the
    values are a file's rows, else as row i of `column`."""
    values = int64_values(values, name)
    outside = (values < 0) | (values >= count)
    if outside.any():
        row = int(np.argmax(outside))
        named = where(row) if where else f"{column}: row {row}:"
        raise ValueError(f"{named} {name} {values[row]} outside [0, {count})")
    return values


def class_labels(values, class_count, where=None):
    """The values as int64 labels, each in [0, class_count) (index_values)."""
    return index_values(values, class_count, "label", "labels", where)


class _Input(io.RawIOBase):
    """An input opened once, as a raw stream with a position of its own: a
    regular file's descriptor, read by offset (os.pread), or the bytes of
    any other input (a FIFO, a pipe), read whole as it cannot be read twice."""

    def __init__(self, path, st, src):
        self.path, self.st, self.src, self.at = path, st, src, 0
        self.size = st.st_size if isinstance(src, int) else len(src)

    def readable(self):
        return True

    def read(self, n=-1):
        n = self.size - self.at if n < 0 else min(n, self.size - self.at)
        src, at = self.src, self.at
        chunk = os.pread(src, n, at) if isinstance(src, int) else src[at : at + n]
        self.at += len(chunk)
        return chunk

    def text(self, **options):
        """The bytes, from the first, as a UTF-8 io.TextIOWrapper with options."""
        return io.TextIOWrapper(_Input(self.path, self.st, self.src), encoding="utf-8", **options)

    def lines(self, first=0, **options):
        """(line number, line) of each line not _blank, read by text(**options),
        from the first-th on (the header is the 0th)."""
        with self.text(**options) as f:
            numbered = ((number, ln) for number, ln in enumerate(f, start=1) if not _blank(ln))
            yield from itertools.islice(numbered, first, None)

    def where(self, row):
        """`path:line:` of row `row` (0-based) after the header: error paths scan."""
        return f"{self.path}:{next(self.lines(row + 1))[0]}:"

    def not_utf8(self, exc):
        """The ValueError for exc, a UnicodeDecodeError met reading this
        input, naming `path:line` of its first byte that is not UTF-8: a
        rescan decodes such a byte to a lone surrogate (U+DC80..U+DCFF)."""
        lines = self.lines(errors="surrogateescape")
        line = next(n for n, t in lines if any("\udc80" <= c <= "\udcff" for c in t))
        return ValueError(f"{self.path}:{line}: byte 0x{exc.object[exc.start]:02x} is not UTF-8")


@contextlib.contextmanager
def _opened(path):
    """The input at path, opened once and held as an _Input; a
    UnicodeDecodeError met reading it is raised as _Input.not_utf8's."""
    with open(path, "rb", buffering=0) as f:
        st = os.fstat(f.fileno())
        source = _Input(path, st, f.fileno() if stat.S_ISREG(st.st_mode) else f.readall())
        try:
            yield source
        except UnicodeDecodeError as exc:
            raise source.not_utf8(exc) from None


def read_text(path):
    """The input at path, its bytes read once (a FIFO or a pipe reads too),
    as text mode reads it; a byte that is not UTF-8 is named by `path:line`."""
    with _opened(path) as source, source.text() as f:
        return f.read()


def _line_ends(chunk, last):
    """The line ends (LF, CRLF and a lone CR) in chunk, read just after the
    byte `last`: a CRLF split between them ends one line."""
    # numpy counts a byte about four times faster than bytes.count
    count = int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord("\n")))
    if b"\r" in chunk:
        count += chunk.count(b"\r") - chunk.count(b"\r\n")
    return count - (last == b"\r" and chunk[:1] == b"\n")


def _loadtxt(lines, dtype, rows=None):
    """numpy's C reader's rows of dtype in lines of CSV cells, or None if it
    refuses them: the one rule for what loads. Any warning but one of no rows
    refuses: numpy 1.23-1.26 read 1.0 into an int with a DeprecationWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=1, max_rows=rows)
        except (ValueError, Warning):  # a UnicodeDecodeError too: a rescan meets it
            return None


def _fill(lines, dtype, n, refusal):
    """Parse the lines, none blank, with _loadtxt, _READ_BLOCK_BYTES of rows
    at a time, into one column of n rows (n >= the lines) per dtype field;
    return the columns and the rows filled, or raise refusal(rows filled)
    at a refused block. The columns are allocated after the first block:
    before it, they raised base-csv's bench peak memory by about 3 MB."""
    rows = max(1, _READ_BLOCK_BYTES // dtype.itemsize)
    columns, filled = None, 0
    while True:
        if (block := _loadtxt(lines, dtype, rows)) is None:
            raise refusal(filled)
        if columns is None:
            columns = [np.empty((n, *dtype[f].shape), dtype[f].base) for f in dtype.names]
        for column, name in zip(columns, dtype.names):
            column[filled : filled + len(block)] = block[name]
        filled += len(block)
        if len(block) < rows:
            return columns, filled
        del block  # so the next block is not read while this one is alive


def _refusal(source, header, dtype, first):
    """The ValueError naming `path:line` of the first row, from the first-th
    (0-based) on, that _loadtxt refuses alone, and its column count or first
    cell refused as its column's type; no value is parsed here."""

    def parses(text, of):  # an empty cell reads as no row
        return (rows := _loadtxt([text], of)) is not None and len(rows) == 1

    bases = [dtype[n].base for n in dtype.names for _ in range(math.prod(dtype[n].shape))]
    for number, ln in source.lines(first + 1):
        if parses(ln, dtype):
            continue
        where, cells = f"{source.path}:{number}:", ln.rstrip("\n").split(",")
        if len(cells) != len(header):
            return ValueError(f"{where} expected {len(header)} columns, got {len(cells)}")
        for name, base, text in zip(header, bases, cells):
            if not parses(text, base):
                value, integer = text.strip(), base.kind == "i"
                if integer and re.fullmatch("[+-]?[0-9]+", value) and not parses(value, base):
                    return ValueError(f"{where} {name} {value} outside int64")
                kind = "an integer" if integer else "a number"
                return ValueError(f"{where} {name} cell {text!r} is not {kind}")
        return ValueError(f"{where} row refused")
    return ValueError(f"{source.path}: body refused")


def _read_columns(source, header, dtype, skip):
    """Parse the body, the _Input source's lines after the first `skip` (to
    the header), into one C-contiguous column per field of dtype: by _fill,
    blank lines left out, into columns of as many rows as the body has
    lines, trimmed by one copy, or raise the _refusal of its first bad row."""
    raw, ends, last = _Input(source.path, source.st, source.src), 0, b""
    while block := raw.read(_READ_BLOCK_BYTES):
        ends += _line_ends(block, last)
        last = block[-1:]
    lines = ends + (last not in (b"", b"\n", b"\r"))  # the last line may have no end
    refusal = functools.partial(_refusal, source, header, dtype)
    with source.text() as f:
        body = itertools.filterfalse(_blank, itertools.islice(f, skip, None))
        columns, filled = _fill(body, dtype, lines - skip, refusal)
    if filled < len(columns[0]):
        columns = [column[:filled].copy() for column in columns]
    return columns


def _scanned(source, dtype_of):
    """Read the _Input source's header, its first non-blank line. Returns
    (the header's stripped cells, dtype_of(cells), a function that parses
    the body); a ValueError from dtype_of is raised naming the file."""
    skip, header = next(source.lines(), (0, None))
    if header is None:
        raise ValueError(f"{source.path}: empty file")
    header = [cell.strip() for cell in header.split(",")]
    try:
        dtype = dtype_of(header)
    except ValueError as exc:
        raise ValueError(f"{source.path}: {exc}") from None
    return header, dtype, functools.partial(_read_columns, source, header, dtype, skip)


@contextlib.contextmanager
def read_csv(path, dtype_of):
    """Parse a CSV input, held open while the caller checks what this yields:
    (its header's stripped cells, one C-contiguous column per field of the
    rows' dtype_of(cells), and where(i), naming row i's `path:line:`)."""
    with _opened(path) as source:
        header, _, parse = _scanned(source, dtype_of)
        yield header, parse(), source.where


def _sidecar(path):
    """The column cache of the CSV at path: `.<name>.columns` beside it."""
    head, name = os.path.split(os.fspath(path))
    return os.path.join(head, f".{name}.columns")


def _stamp(st):
    """A CSV's stat stamp as its sidecar records it: st_dev, st_ino,
    st_size, st_mtime_ns and st_ctime_ns, each as 8 little-endian bytes."""
    fields = (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns)
    return b"".join((value % 2**64).to_bytes(8, "little") for value in fields)


def _sha256(source):
    """The SHA-256 digest of the _Input source's bytes, read from byte 0."""
    digest = hashlib.sha256()
    while block := source.read(_READ_BLOCK_BYTES):
        digest.update(block)
    return digest.digest()


def _cached_columns(path, source, owner, dtype):
    """(the CSV's columns of the dtype, mapped copy-on-write from its
    sidecar, or None; the SHA-256 of the _Input source if this load took it,
    else None). The sidecar's tag and size must match, and it must belong to
    this process's user or the CSV's owner, uid `owner`: anyone who can read
    the CSV can write a matching head. An OSError counts as no sidecar.

    The columns are trusted unhashed if the sidecar records source.st's
    stamp and that stamp is not racy: the CSV's mtime and ctime are both
    strictly older than the sidecar's mtime, so the CSV cannot have changed
    within the tick in which the sidecar was written. Otherwise the source
    is hashed, and the columns are the sidecar's only if it records that
    digest."""
    st, fields, buf = source.st, [dtype[name] for name in dtype.names], None
    try:
        with open(_sidecar(path), "rb") as f:
            sidecar = os.fstat(f.fileno())
            head = f.read(_HEAD_BYTES)
            n = int.from_bytes(head[-8:], "little")
            starts = np.cumsum([len(head)] + [n * field.itemsize for field in fields]).tolist()
            if (
                sidecar.st_uid in (os.geteuid(), owner)
                and len(head) == _HEAD_BYTES
                and head.startswith(_CACHE_HEAD)
                and sidecar.st_size == starts[-1]
            ):
                # Mapped: in four base-csv bench runs each (2 vCPUs), heap
                # columns peaked at 58.2-65.8 MB against 60.8-63.4 (the heap
                # they grow is kept) and an anonymous map set up in 24-28 ms
                # against 16-23. A sidecar truncated in place would fault
                # (SIGBUS): ivenn renames.
                buf = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_COPY)
    except OSError:
        pass
    trusted = (
        buf is not None
        and head[-48:-8] == _stamp(st)
        and max(st.st_mtime_ns, st.st_ctime_ns) < sidecar.st_mtime_ns
    )
    digest = None if trusted else _sha256(source)
    if buf is None or (digest and digest != head[len(_CACHE_HEAD) : -48]):
        return None, digest
    columns = [
        np.frombuffer(buf, field.base, n * math.prod(field.shape), at).reshape(n, *field.shape)
        for field, at in zip(fields, starts)
    ]
    return columns, digest


def _save_columns(path, st, digest, columns):
    """Write the columns of the CSV at path to its sidecar, headed by the
    digest of its bytes and the stamp of st, the CSV's fstat before they
    were read: to a temporary name beside it, renamed into place after any
    stale sidecar is unlinked (see open_artifact), unless the CSV's stamp
    changed since st. A sidecar is never rewritten in place, since another
    process may hold it mapped. An OSError (no write permission, a full
    disk) leaves no temporary file and is not raised."""
    target = _sidecar(path)
    folder, name = os.path.split(target)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=folder)
        with open(fd, "wb") as f:
            os.fchmod(fd, stat.S_IMODE(st.st_mode) & 0o666)  # as readable as the CSV
            f.write(_CACHE_HEAD + digest + _stamp(st) + len(columns[0]).to_bytes(8, "little"))
            f.writelines(column.data for column in columns)
        if _stamp(os.lstat(path)) == _stamp(st):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(target)
            os.rename(tmp, target)
            tmp = None
    except OSError:  # a sidecar that cannot be written costs a parse
        pass
    finally:
        if tmp:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def load_csv(path, class_count=None):
    """Parse a dataset CSV, or map its columns from the column cache, and
    check each value once (see the module docstring). A bad row is named by
    its line in the file, blank lines counted. With no score block and no
    class_count given, the class count is max(label) + 1."""
    dtype_of = functools.partial(_parse_header, class_count=class_count)
    with _opened(path) as source:
        st = os.lstat(path)  # only a regular file that its path names itself is cached
        cached = stat.S_ISREG(st.st_mode) and os.path.samestat(st, source.st)
        _, dtype, parse = _scanned(source, dtype_of)
        hit, digest = _cached_columns(path, source, st.st_uid, dtype) if cached else (None, None)
        ids, labels, features, *scores = columns = hit or parse()
        blocks = [features] + scores
        if not all(np.isfinite(block).all() for block in blocks):
            row = int(np.argmin(np.all([np.isfinite(b).all(axis=1) for b in blocks], axis=0)))
            raise ValueError(f"{source.where(row)} non-finite cell (nan or inf)")
        softmaxes = scores[0] if scores else None
        if softmaxes is not None:
            class_count = softmaxes.shape[1]
            check_score_rows(softmaxes, source.where)
        if class_count is None:
            class_count = int(labels.max()) + 1 if len(labels) else 1
        class_labels(labels, class_count, source.where)
    if class_count < 1:  # reached with no rows, as any label is outside
        raise ValueError("class_count must be positive")
    if digest:  # hashed: a miss, or a hit on a stamp not trusted, stamped afresh
        _save_columns(path, source.st, digest, columns)
    return Dataset._checked(ids, features, labels, class_count, softmaxes)


def _csv_text(columns):
    """The rows of the columns, each a 1-D array or a 2-D block of columns,
    as CSV text with each row ended by LF. One `%` over a template of the
    whole block formats every cell, flattened row by row; `%s` is str(),
    which is repr for a float, so load_csv reads back the same bits."""
    cells = [cell for col in columns for cell in np.atleast_2d(np.asarray(col).T).tolist()]
    width, rows = len(cells), len(cells[0])
    flat = [None] * (width * rows)
    for j, cell in enumerate(cells):
        flat[j::width] = cell
    return ((",".join(["%s"] * width) + "\n") * rows) % tuple(flat)


def csv_lines(*columns):
    """One `,`-joined line per row of the columns, each a 1-D array or a 2-D
    block of columns, formatted as _csv_text formats them."""
    return _csv_text(columns).split("\n")[:-1]


def remove_artifact(path):
    """Unlink path if it is a regular file or a link to one, else leave it."""
    try:
        if stat.S_ISREG(os.stat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass


def open_artifact(path, mode="w"):
    """Open path to write an artifact ("w" text, "wb" bytes) as a new file.
    An existing regular file, or a link to one, is unlinked first. ext4
    flushes a file to disk when it is closed after being truncated (and a
    temp file when renamed over another), so rewriting a 3 MB artifact in
    place took 110-156 ms and unlinking and writing afresh 0.3 ms. The
    write never reaches another name hard-linked to the old file, and a
    symlinked artifact becomes a regular file. A device or pipe such as
    /dev/stdout is written in place."""
    remove_artifact(path)
    return open(path, mode, encoding=None if "b" in mode else "utf-8")


def _csv_blocks(columns):
    """The UTF-8 _csv_text of the columns' rows, a bytes object for each
    block of max(1, _WRITE_BLOCK_CELLS // width) rows of width cells."""
    width = sum(1 if col.ndim < 2 else col.shape[1] for col in columns)
    step = max(1, _WRITE_BLOCK_CELLS // width)
    for block in range(0, len(columns[0]), step):
        rows = slice(block, block + step)
        yield _csv_text([col[rows] for col in columns]).encode()


def _write_csv(path, header, *columns):
    """Write the header, then the columns' rows a block of at most
    _WRITE_BLOCK_CELLS cells at a time, to bound the memory held in Python
    objects."""
    columns = [np.asarray(col) for col in columns]
    with open_artifact(path, "wb") as f:
        f.write((",".join(header) + "\n").encode())
        f.writelines(_csv_blocks(columns))


def save_csv(ds, path):
    """Inverse of load_csv; the round trip is exact. Every cell is written as
    the file's type: int64 ids and labels, float features and scores."""
    cols = ["id", "label"] + [f"f{i}" for i in range(ds.feature_dim)]
    blocks = [ds.features]
    if ds.softmaxes is not None:
        cols += [f"s{j}" for j in range(ds.class_count)]
        blocks.append(ds.softmaxes)
    _write_csv(path, cols, ds.ids, ds.labels, *blocks)


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
    # bincount, not np.unique: that imports numpy.ma on first use, and
    # mid-run its module objects pin the top of a heap grown by the data
    counts = np.bincount(proper.labels, minlength=ds.class_count)
    if missing := np.flatnonzero(counts == 0).tolist():
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
