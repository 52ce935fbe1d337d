"""Line-mutation fuzz of the CLI's CSV inputs: a data CSV under `embed` and
a predictions.csv under `report`. Whatever one mutated line holds, the
command exits 0, or exits 2 naming the file; it never raises."""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ivenn import cli
from ivenn.data import save_csv, synth_gaussians
from ivenn.mlp import init_params, save_params
from ivenn.pipeline import RunConfig, run_pipeline

MUTATIONS = ["delete", "duplicate", "truncate", "reverse", "digit", "nan", "inf", "1e400",
             "0xff"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A small data CSV, a model that embeds it and a 2-class predictions.csv."""
    out = tmp_path_factory.mktemp("fuzz")
    save_csv(synth_gaussians(2, 2, 15, 4.0, seed=3), out / "d.csv")
    save_params(init_params([2, 2]), out / "model.npz")
    run_pipeline(RunConfig(data_csv=str(out / "d.csv"), out_dir=str(out), taxonomy="nc_v1",
                           embedding="identity", seed=1))
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
