"""Mutation fuzz of every input the CLI reads: a data CSV under `embed`, a
predictions.csv under `report`, a config file under `calibrate`, a
table.txt under `load_table` (one mutated line each) and model.npz bytes
under `embed`. Whatever the mutation, the reader succeeds or names the file;
it never raises anything else."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivenn import cli
from ivenn.data import save_csv, synth_gaussians
from ivenn.ivp import load_table
from ivenn.mlp import init_params, save_params
from ivenn.pipeline import RunConfig, run_pipeline

# a cell written as "1_0", an Arabic-Indic one or "\x1c1" (a padded 1) loads only
# if numpy's reader takes it, whatever the lines around it
MUTATIONS = ["delete", "duplicate", "truncate", "reverse", "digit", "nan", "inf", "1e400",
             "0xff", "1_0", "\u0661", "\x1c1"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small data CSV, a model that embeds it, a 2-class predictions.csv and
    table.txt, and a config file that calibrates on the data CSV."""
    out = tmp_path_factory.mktemp("fuzz")
    save_csv(synth_gaussians(2, 2, 15, 4.0, seed=3), out / "d.csv")
    save_params(init_params([2, 2]), out / "model.npz")
    run_pipeline(RunConfig(data_csv=str(out / "d.csv"), out_dir=str(out), taxonomy="nc_v1",
                           embedding="identity", seed=1))
    (out / "run.cfg").write_text(f"# fuzz run\ndata_csv = {out / 'd.csv'}\ntaxonomy = knn_v1\n"
                                 "embedding = identity\nseed = 1\nk = 3\n")
    return out


def mutate(text, kind, i, j, digit):
    """The file's bytes with line i (mod the line count) mutated by `kind`:
    j picks the cell (or the byte position), `digit` replaces the cell's
    first digit."""
    lines = text.split(b"\n")[:-1]
    i %= len(lines)
    line = lines[i]
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "truncate":
        lines[i] = line[: j % len(line)]
    elif kind == "reverse":
        lines[i] = line[::-1]
    elif kind == "digit":
        cells = line.split(b",")
        cell = cells[j % len(cells)]
        k = next((k for k, byte in enumerate(cell) if chr(byte).isdigit()), 0)
        cells[j % len(cells)] = cell[:k] + str(digit).encode() + cell[k + 1 :]
        lines[i] = b",".join(cells)
    elif kind == "0xff":
        k = j % (len(line) + 1)
        lines[i] = line[:k] + b"\xff" + line[k:]
    else:
        cells = line.split(b",")
        cells[j % len(cells)] = kind.encode()
        lines[i] = b",".join(cells)
    return b"\n".join(lines) + b"\n"


@pytest.mark.parametrize("command", ["embed", "report"])
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(MUTATIONS),
    i=st.integers(0, 1000),
    j=st.integers(0, 1000),
    digit=st.integers(0, 9),
)
@example(kind="digit", i=3, j=1, digit=7)  # a label outside the classes
# a count cell: line 3's n1, 2, becomes 7, so its counts disagree with those
# of line 2, of the same category
@example(kind="digit", i=2, j=4, digit=7)
# line 3's label as "1_0" or "\x1c1" (a label of 1), and its f0 (embed) or
# category (report) as "\u0661"
@example(kind="1_0", i=2, j=1, digit=0)
@example(kind="\u0661", i=2, j=2, digit=0)
@example(kind="\x1c1", i=2, j=1, digit=0)
def test_mutated_line_exits_0_or_names_the_file(inputs, command, kind, i, j, digit):
    source = {"embed": "d.csv", "report": "predictions.csv"}[command]
    path = inputs / f"mutated_{source}"
    path.unlink(missing_ok=True)  # ext4 flushes a file truncated in place when it is closed
    path.write_bytes(mutate((inputs / source).read_bytes(), kind, i, j, digit))
    argv = {
        "embed": ["embed", "--model", str(inputs / "model.npz"), "--data", str(path),
                  "--out", str(inputs / "e.csv")],
        "report": ["report", "--predictions", str(path), "--report-out",
                   str(inputs / "r.txt"), "--curves-out", str(inputs / "c.csv")],
    }[command]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code == 0 or (code == 2 and str(path) in err.getvalue()), (code, err.getvalue())


def _main(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


LINES = dict(kind=st.sampled_from(MUTATIONS), i=st.integers(0, 1000), j=st.integers(0, 1000),
             digit=st.integers(0, 9))


@settings(max_examples=60, deadline=None)
@given(**LINES)
@example(kind="digit", i=5, j=0, digit=0)  # k = 0
@example(kind="reverse", i=2, j=0, digit=0)  # an unknown key
@example(kind="0xff", i=3, j=4, digit=0)
def test_mutated_config_line_exits_0_or_names_the_file(inputs, kind, i, j, digit):
    # the file is named by every error met reading or validating it; a
    # stage that then fails on what it configured names the stage
    path = inputs / "mutated.cfg"
    path.unlink(missing_ok=True)
    path.write_bytes(mutate((inputs / "run.cfg").read_bytes(), kind, i, j, digit))
    code, err = _main(["calibrate", "--config", str(path), "--out-dir", str(inputs / "cal")])
    named = str(path) in err or err.startswith("error: stage '")
    assert code == 0 or (code == 2 and named), (code, err)


@settings(max_examples=60, deadline=None)
@given(**LINES)
def test_mutated_table_line_loads_or_names_the_file(inputs, kind, i, j, digit):
    path = inputs / "mutated_table.txt"
    path.unlink(missing_ok=True)
    path.write_bytes(mutate((inputs / "table.txt").read_bytes(), kind, i, j, digit))
    try:
        load_table(path)
    except ValueError as exc:
        assert str(path) in str(exc), str(exc)


def mutate_bytes(data, kind, at, value):
    """The bytes with the byte at `at` (mod the length) set to `value` or
    deleted, or the file cut there, or the 8 bytes from it (a zip64 size
    field) zeroed."""
    at %= len(data)
    if kind == "set":
        return data[:at] + bytes([value]) + data[at + 1 :]
    if kind == "delete":
        return data[:at] + data[at + 1 :]
    if kind == "truncate":
        return data[:at]
    return data[:at] + bytes(len(data[at : at + 8])) + data[at + 8 :]


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["set", "delete", "truncate", "zero8"]),
       at=st.integers(0, 10**6), value=st.integers(0, 255))
# in the central directory of the fixture's 1340-byte archive:
@example(kind="zero8", at=1056, value=0)  # a member read back as raw bytes
@example(kind="set", at=1053, value=1)  # an unknown compression method
@example(kind="set", at=1051, value=1)  # a member flagged as encrypted
@example(kind="set", at=1336, value=1)  # a seek before the file start
def test_mutated_model_bytes_exit_0_or_name_the_file(inputs, kind, at, value):
    path = inputs / "mutated_model.npz"
    path.unlink(missing_ok=True)
    path.write_bytes(mutate_bytes((inputs / "model.npz").read_bytes(), kind, at, value))
    code, err = _main(["embed", "--model", str(path), "--data", str(inputs / "d.csv"),
                       "--out", str(inputs / "e.csv")])
    assert code == 0 or (code == 2 and str(path) in err), (code, err)
