import csv
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdeforge import bandwidth, cli, estimator, geometry, simulate
from kdeforge.cli import DataError, ingest
from kdeforge.estimator import DensityModel, EvalGrid, Sample
from kdeforge.kernels import KernelFamily, KernelSpec


@pytest.fixture
def normal_csv(tmp_path, rng):
    path = tmp_path / "normal.csv"
    data = rng.normal(size=300)
    path.write_text("\n".join(repr(float(v)) for v in data) + "\n")
    return str(path)


@pytest.fixture
def bimodal_csv(tmp_path, rng):
    path = tmp_path / "bimodal.csv"
    data = np.concatenate([rng.normal(-2.5, 1.0, 200), rng.normal(2.5, 1.0, 200)])
    path.write_text("x\n" + "\n".join(repr(float(v)) for v in data) + "\n")
    return str(path)


@pytest.fixture
def grouped_csv(tmp_path, rng):
    path = tmp_path / "groups.csv"
    lines = ["value,status"]
    for v in rng.normal(0.0, 1.0, 150):
        lines.append(f"{float(v)!r},healthy")
    for v in rng.normal(1.2, 1.0, 150):
        lines.append(f"{float(v)!r},diseased")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# --- ingestion ---


def test_ingest_plain_and_header(tmp_path):
    p = tmp_path / "a.csv"
    p.write_text("1.0\n2.0\n3.0\n")
    assert ingest(str(p)).n == 3
    p.write_text("x\n1.0\n2.0\n")
    sample = ingest(str(p))
    assert sample.n == 2
    assert sample.dim == 1


def test_ingest_multicolumn(tmp_path):
    p = tmp_path / "b.csv"
    p.write_text("x,y\n1.0,2.0\n3.0,4.0\n")
    sample = ingest(str(p))
    assert sample.dim == 2
    np.testing.assert_array_equal(sample.data, [[1.0, 2.0], [3.0, 4.0]])


def test_ingest_error_reports_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x\n1.0\noops\n3.0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest(str(p))
    p.write_text("x,y\n1.0,2.0\n3.0\n")
    with pytest.raises(DataError, match="line 3"):
        ingest(str(p))
    p.write_text("x\n1.0\ninf\n")
    with pytest.raises(DataError, match="non-finite"):
        ingest(str(p))


def test_ingest_missing_and_empty(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest(str(tmp_path / "nope.csv"))
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        ingest(str(p))
    p.write_text("x,y\n")
    with pytest.raises(DataError, match="no data rows"):
        ingest(str(p))


def test_ingest_groups(grouped_csv):
    groups = ingest(grouped_csv, group_col="status")
    assert set(groups) == {"healthy", "diseased"}
    assert groups["healthy"].n == 150
    assert groups["healthy"].dim == 1


def test_ingest_group_errors(tmp_path):
    p = tmp_path / "g.csv"
    p.write_text("value,status\n1.0,a\n2.0,b\n3.0,c\n")
    with pytest.raises(DataError, match="exactly 2 groups"):
        ingest(str(p), group_col="status")
    with pytest.raises(DataError, match="not in header"):
        ingest(str(p), group_col="missing")



# The np.loadtxt fast path must give what the row parser gives: the same
# data, bit for bit, or the same error.
_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e500", '"1.5"', "'2'", "1#2", "#",
                     "1_0", "", " ", " 3.25 ", "+.5", "5.", "0x10", "1e", "x",
                     "\u0661", "1 2", "\t7\t"]),
)
_BLANK = st.sampled_from(["", " ", ",", ",,", "  ,  "])  # blank and comma-only lines
_ROWS = st.one_of(st.lists(_CELLS, min_size=1, max_size=4).map(",".join), _BLANK)


def _outcome(parse, path):
    try:
        sample = parse(path)
    except Exception as exc:
        return type(exc), str(exc)
    return sample.data.shape, sample.data.tobytes()


@settings(max_examples=300, deadline=None)
@given(lead=st.lists(_BLANK, max_size=2),
       header=st.sampled_from([None, "x", "x,y", "value,1.0"]),
       rows=st.lists(_ROWS, min_size=1, max_size=6),
       newline=st.sampled_from(["\n", "\r\n"]))
@example(lead=[], header=None, rows=["1.0,2.0", "3.0"], newline="\n")   # ragged
@example(lead=[], header="x", rows=["1.0", "inf"], newline="\n")
@example(lead=[], header="x", rows=["nan"], newline="\n")
@example(lead=[], header=None, rows=['"1.5"', "2.0"], newline="\n")    # quoted cell
@example(lead=[], header=None, rows=["1.0", "1#2"], newline="\n")
@example(lead=[], header=None, rows=["1_0", "2.0"], newline="\n")
@example(lead=[""], header="x,y", rows=["", "1.0,2.0", ",", "3.0,4.0"], newline="\r\n")
@example(lead=[], header=None, rows=["0.5,1.5,2.5"], newline="\n")      # single row
@example(lead=[], header="x", rows=[""], newline="\n")                  # header only
def test_ingest_fast_path_matches_row_parser(tmp_path_factory, lead, header, rows,
                                             newline):
    lines = lead + ([header] if header is not None else []) + rows
    path = tmp_path_factory.mktemp("ingest") / "in.csv"
    path.write_bytes(newline.join(lines).encode() + newline.encode())
    assert _outcome(ingest, str(path)) == _outcome(lambda p: cli._ingest_rows(p, None),
                                                   str(path))


def test_ingest_takes_the_fast_path_on_plain_tables(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("\nx,y\n\n1.0,2.0\r\n3.0,4.0\n")
    np.testing.assert_array_equal(cli._load_table(str(p)), [[1.0, 2.0], [3.0, 4.0]])
    p.write_text("0.25\n")
    assert cli._load_table(str(p)).shape == (1, 1)
    for text in ["x\n", "1.0\n1_0\n", "1.0\nnan\n", '"1.0"\n', "1.0\n,\n"]:
        p.write_text(text)
        assert cli._load_table(str(p)) is None, text


# --- exit codes ---


def test_exit_codes(tmp_path, normal_csv, capsys):
    assert cli.main(["density", "--input", normal_csv,
                     "--output", str(tmp_path / "d.csv")]) == 0
    # config error: fixed method without a bandwidth
    assert cli.main(["density", "--input", normal_csv,
                     "--bandwidth-method", "fixed"]) == 2
    # config error: bootstrap without a seed
    assert cli.main(["ci", "--input", normal_csv, "--method", "boot"]) == 2
    # data error: missing file
    assert cli.main(["density", "--input", str(tmp_path / "nope.csv")]) == 3
    # argparse rejection
    assert cli.main(["density", "--input", normal_csv, "--kernel", "bogus"]) == 2
    capsys.readouterr()


def test_undecodable_input_is_data_error(tmp_path, capsys):
    p = tmp_path / "bytes.csv"
    p.write_bytes(b"1.0\n\xff2.0\n3.0\n")
    assert cli.main(["density", "--input", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(p) in err


@pytest.mark.parametrize("command", ["density", "ci", "cdf"])
def test_grid_range_overflow_is_data_error(tmp_path, capsys, command):
    # h is finite (6.35e307), but the data range +/- 3h overflows float64
    p = tmp_path / "huge.csv"
    p.write_text("1.0\n1e308\n-1e308\n")
    assert cli.main([command, "--input", str(p), "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "data range [-1e+308, 1e+308]" in err


def test_infinite_bandwidth_is_data_error(tmp_path, capsys):
    # the sds of the first column overflow; 2-D h is their mean
    p = tmp_path / "huge2.csv"
    p.write_text("1.0,0.5\n1e308,0.2\n-1e308,0.9\n3.0,0.1\n")
    out = tmp_path / "h.json"
    assert cli.main(["bandwidth", "--input", str(p), "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error:")
    assert not out.exists()


def test_non_finite_json_is_data_error(tmp_path, capsys, monkeypatch, normal_csv):
    monkeypatch.setattr(cli, "select_bandwidth", lambda *args: float("inf"))
    out = tmp_path / "h.json"
    assert cli.main(["bandwidth", "--input", normal_csv, "--output", str(out)]) == 3
    assert capsys.readouterr().err.startswith("data error: non-finite value")
    assert not out.exists()


def test_degenerate_sample_is_data_error(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    p.write_text("1.0\n1.0\n1.0\n")
    assert cli.main(["bandwidth", "--input", str(p)]) == 3
    capsys.readouterr()


# --- subcommand outputs ---


def test_density_csv_and_json(tmp_path, normal_csv, capsys):
    out_csv = tmp_path / "dens.csv"
    assert cli.main(["density", "--input", normal_csv, "--grid", "64",
                     "--output", str(out_csv)]) == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "density"]
    assert len(rows) == 65
    assert all(float(r[1]) >= 0 for r in rows[1:])

    out_json = tmp_path / "dens.json"
    assert cli.main(["density", "--input", normal_csv, "--grid", "64",
                     "--format", "json", "--output", str(out_json)]) == 0
    payload = json.loads(out_json.read_text())
    assert payload["schema"] == 1
    assert len(payload["values"]) == 64
    assert "density: n=300" in capsys.readouterr().out


def test_bandwidth_subcommand(tmp_path, normal_csv, capsys):
    out = tmp_path / "h.json"
    assert cli.main(["bandwidth", "--input", normal_csv,
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "rot"
    assert 0.1 < payload["bandwidth"] < 1.0
    assert cli.main(["bandwidth", "--input", normal_csv, "--bandwidth-method",
                     "lscv", "--lscv-grid", "0.1:1.0:8",
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "lscv"
    assert cli.main(["bandwidth", "--input", normal_csv, "--bandwidth-method",
                     "fixed", "--bandwidth", "0.25", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["bandwidth"] == 0.25
    # a fixed bandwidth must be positive; a bad LSCV grid is a config error
    # for LSCV and ignored by every other method
    bad = ["bandwidth", "--input", normal_csv, "--lscv-grid", "0.1:1.0"]
    assert cli.main(bad + ["--bandwidth-method", "fixed", "--bandwidth", "0"]) == 2
    assert cli.main(bad + ["--bandwidth-method", "lscv"]) == 2
    assert cli.main(bad + ["--bandwidth-method", "plugin"]) == 0
    capsys.readouterr()


def test_ci_and_band_subcommands(tmp_path, normal_csv, capsys):
    out = tmp_path / "ci.json"
    assert cli.main(["ci", "--input", normal_csv, "--grid", "64",
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "ci-plugin"
    assert np.all(np.array(payload["lower"]) <= np.array(payload["upper"]))

    assert cli.main(["ci", "--input", normal_csv, "--method", "boot",
                     "--boot", "50", "--seed", "3", "--grid", "64",
                     "--output", str(out)]) == 0
    assert json.loads(out.read_text())["method"] == "ci-bootstrap"

    assert cli.main(["band", "--input", normal_csv, "--boot", "50",
                     "--seed", "3", "--grid", "64", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "band-bootstrap"
    assert payload["halfwidth"] > 0

    assert cli.main(["band", "--input", normal_csv, "--method", "debias",
                     "--boot", "50", "--seed", "3", "--grid", "64",
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["target"] == "true"

    assert cli.main(["band", "--input", normal_csv, "--method", "evt",
                     "--grid", "64", "--output", str(out)]) == 0
    assert json.loads(out.read_text())["warnings"] == ["slow-convergence"]
    capsys.readouterr()


def test_modes_subcommand(tmp_path, bimodal_csv, capsys):
    out = tmp_path / "modes.csv"
    assert cli.main(["modes", "--input", bimodal_csv,
                     "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "density"]
    locs = sorted(float(r[0]) for r in rows[1:])
    assert len(locs) == 2
    assert abs(locs[0] + 2.5) < 0.5
    assert abs(locs[1] - 2.5) < 0.5
    assert "found 2 local modes" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["ci", "band"])
def test_ci_and_band_reject_multivariate_data(tmp_path, rng, capsys, command):
    p = tmp_path / "bi.csv"
    p.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in
                                    rng.normal(size=(50, 2)).tolist()) + "\n")
    assert cli.main([command, "--input", str(p), "--seed", "3"]) == 3
    assert f"{command} requires univariate data" in capsys.readouterr().err


def test_levelset_subcommand(tmp_path, bimodal_csv, capsys):
    out = tmp_path / "ls.csv"
    assert cli.main(["levelset", "--input", bimodal_csv, "--grid", "128",
                     "--lambda", "0.08", "--output", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "components=2" in msg
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "in_set", "component"]
    # missing --lambda is a config error, found before the input is read
    assert cli.main(["levelset", "--input", bimodal_csv]) == 2
    assert cli.main(["levelset", "--input", str(tmp_path / "nope.csv")]) == 2
    assert "requires --lambda" in capsys.readouterr().err


def test_tree_and_persist_subcommands(tmp_path, bimodal_csv, capsys):
    out = tmp_path / "tree.json"
    assert cli.main(["tree", "--input", bimodal_csv, "--grid", "128",
                     "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert sum(1 for n in payload["nodes"] if n["parent"] is None) == 1

    out2 = tmp_path / "persist.csv"
    assert cli.main(["persist", "--input", bimodal_csv, "--grid", "128",
                     "--output", str(out2)]) == 0
    with open(out2, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["birth", "death"]
    assert len(rows) - 1 == len(payload["nodes"])
    capsys.readouterr()


def test_morse_subcommand(tmp_path, bimodal_csv, capsys):
    out = tmp_path / "morse.csv"
    assert cli.main(["morse", "--input", bimodal_csv, "--grid", "48",
                     "--output", str(out)]) == 0
    assert "2 modes" in capsys.readouterr().out
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "ascent", "descent", "cell"]


def test_ridge_subcommand(tmp_path, rng, capsys):
    theta = rng.uniform(0, 2 * np.pi, 250)
    pts = 3.0 * np.column_stack([np.cos(theta), np.sin(theta)])
    pts += rng.normal(0, 0.15, pts.shape)
    p = tmp_path / "circle.csv"
    p.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in pts) + "\n")
    out = tmp_path / "ridge.csv"
    assert cli.main(["ridge", "--input", str(p), "--bandwidth-method", "fixed",
                     "--bandwidth", "0.7", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x0", "x1", "proj_grad_norm", "lambda2"]
    assert len(rows) > 50
    assert all(float(r[3]) < 0 for r in rows[1:])
    capsys.readouterr()


def test_cdf_subcommand(tmp_path, normal_csv, capsys):
    out = tmp_path / "cdf.csv"
    assert cli.main(["cdf", "--input", normal_csv, "--grid", "128",
                     "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    vals = [float(r[1]) for r in rows[1:]]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] < 0.01 and vals[-1] > 0.99
    capsys.readouterr()


def test_roc_subcommand(tmp_path, grouped_csv, capsys):
    out = tmp_path / "roc.csv"
    assert cli.main(["roc", "--input", grouped_csv, "--group-col", "status",
                     "--grid", "51", "--output", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "roc"]
    assert len(rows) == 52
    assert float(rows[1][1]) == 0.0 and float(rows[-1][1]) == 1.0

    out2 = tmp_path / "rocband.csv"
    assert cli.main(["roc", "--input", grouped_csv, "--group-col", "status",
                     "--grid", "51", "--seed", "5", "--boot", "40",
                     "--output", str(out2)]) == 0
    with open(out2, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "roc", "lower", "upper"]

    assert cli.main(["roc", "--input", grouped_csv]) == 2  # no --group-col
    capsys.readouterr()


@pytest.fixture
def bivariate_csv(tmp_path, rng):
    path = tmp_path / "bivariate.csv"
    data = np.concatenate([rng.normal(-2.0, 0.7, (60, 2)), rng.normal(2.0, 0.7, (60, 2))])
    path.write_text("x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in data)
                    + "\n")
    return str(path)


INT_COLUMNS = {"in_set", "component", "ascent", "descent", "cell"}


def reference_csv(header, columns) -> bytes:
    """csv.writer over per-row lists: integer columns as ints, every other
    cell as repr(float(v))."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([int(v) if name in INT_COLUMNS else repr(float(v))
                         for name, v in zip(header, row)])
    return buf.getvalue().encode()


CSV_ARTIFACTS = [  # (subcommand, input fixture, extra arguments)
    ("density", "normal_csv", ["--grid", "40"]),
    ("density", "bivariate_csv", ["--grid", "12"]),
    ("modes", "bimodal_csv", []),
    ("levelset", "bivariate_csv", ["--grid", "16", "--lambda", "0.02"]),
    ("ridge", "bivariate_csv", []),
    ("morse", "bivariate_csv", ["--grid", "12"]),
    ("persist", "bimodal_csv", ["--grid", "64"]),
    ("cdf", "normal_csv", ["--grid", "50"]),
    ("roc", "grouped_csv", ["--group-col", "status", "--grid", "21"]),
    ("roc", "grouped_csv", ["--group-col", "status", "--grid", "21",
                            "--seed", "5", "--boot", "30"]),
]


@pytest.mark.parametrize("command,fixture,extra", CSV_ARTIFACTS)
def test_csv_artifacts_match_csv_writer_reference(tmp_path, monkeypatch, request,
                                                  capsys, command, fixture, extra):
    written = []
    write_csv = cli._write_csv

    def spy(path, header, columns):
        written.append((header, [np.asarray(c) for c in columns]))
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "_write_csv", spy)
    out = tmp_path / "out.csv"
    argv = [command, "--input", request.getfixturevalue(fixture), *extra,
            "--output", str(out)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    ((header, columns),) = written
    assert len(columns) == len(header) and len(columns[0]) > 0
    assert out.read_bytes() == reference_csv(header, columns)
    if command == "roc" and "--seed" in extra:
        assert header == ["t", "roc", "lower", "upper"]
    if command == "levelset":
        assert set(columns[2].tolist()) == {False, True}


GRID_CSVS = [  # (subcommand, dimension, extra arguments)
    ("density", 1, ["--grid", "33"]),
    ("density", 2, ["--grid", "17"]),
    ("levelset", 2, ["--grid", "17", "--lambda", "0.02"]),
    ("morse", 2, ["--grid", "17"]),
]


@pytest.mark.parametrize("command,dim,extra", GRID_CSVS)
def test_grid_csv_coordinates_match_grid_points(tmp_path, rng, capsys, command,
                                                dim, extra):
    # data closed under negation give axes symmetric about 0, and a 2^k + 1
    # resolution puts 0.0 on each of them
    half = rng.normal(2.0, 0.7, (60, dim))
    data = np.concatenate([half, -half])
    path = tmp_path / "symmetric.csv"
    path.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in data)
                    + "\n")
    out = tmp_path / "out.csv"
    assert cli.main([command, "--input", str(path), *extra, "--output", str(out)]) == 0
    capsys.readouterr()

    sample = Sample(data)
    model = DensityModel(sample, KernelSpec(KernelFamily.GAUSSIAN, dim),
                         bandwidth.rule_of_thumb(sample))
    grid = estimator.evaluate_grid(model, resolution=int(extra[1]))
    assert all(0.0 in ax for ax in grid.axes)
    header = [f"x{l}" for l in range(dim)]
    if command == "density":
        header, rest = header + ["density"], [grid.values]
    elif command == "levelset":
        ls = geometry.level_set(grid, 0.02)
        header, rest = header + ["in_set", "component"], [ls.mask.ravel(),
                                                          ls.labels.ravel()]
    else:
        part = geometry.morse_smale(model, grid)
        header = header + ["ascent", "descent", "cell"]
        rest = [part.ascent_ids, part.descent_ids, part.cell_labels]
    assert out.read_bytes() == reference_csv(header, [*grid.points.T, *rest])


def test_grid_columns_keep_negative_zero():
    axes = (np.array([-1.0, -0.0, 2.5]), np.array([0.0, 0.1]))
    grid = EvalGrid(axes=axes, points=estimator.grid_points(axes), values=np.zeros(6))
    columns = cli._grid_columns(grid)
    assert [c.tolist() for c in columns] == [[repr(v) for v in col]
                                             for col in grid.points.T.tolist()]
    assert columns[0].tolist().count("-0.0") == 2


def test_simulate_subcommand(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--truth", "normal", "--n", "200",
                     "--method", "ci-plugin", "--trials", "5", "--boot", "30",
                     "--grid", "32", "--seed", "11", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == 2
    assert payload["trials"] == 5
    assert 0.0 <= payload["coverage"] <= 1.0
    assert cli.main(["simulate", "--trials", "2"]) == 2  # seed required
    capsys.readouterr()


# --- determinism ---


def test_seeded_outputs_are_byte_identical(tmp_path, normal_csv, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["band", "--input", normal_csv, "--boot", "40", "--seed", "9",
            "--grid", "64"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    c, d = tmp_path / "c.json", tmp_path / "d.json"
    sim = ["simulate", "--n", "100", "--method", "ci-bootstrap", "--trials", "3",
           "--boot", "25", "--grid", "16", "--seed", "4"]
    assert cli.main(sim + ["--output", str(c)]) == 0
    assert cli.main(sim + ["--output", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()
    capsys.readouterr()


def test_different_seed_changes_bootstrap_band(tmp_path, normal_csv, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    base = ["band", "--input", normal_csv, "--boot", "40", "--grid", "64"]
    assert cli.main(base + ["--seed", "1", "--output", str(a)]) == 0
    assert cli.main(base + ["--seed", "2", "--output", str(b)]) == 0
    ha = json.loads(a.read_text())["halfwidth"]
    hb = json.loads(b.read_text())["halfwidth"]
    assert ha != hb
    capsys.readouterr()


# --- simulate library surface ---


def test_parse_truth():
    t = simulate.parse_truth("normal")
    assert isinstance(t, simulate.NormalTruth)
    m = simulate.parse_truth("mixture:0.4,-2,2,1,0.5")
    assert isinstance(m, simulate.NormalMixtureTruth)
    assert m.weight == 0.4
    with pytest.raises(ValueError):
        simulate.parse_truth("cauchy")
    with pytest.raises(ValueError):
        simulate.parse_truth("mixture:0.4,-2,2")


def test_mixture_pdf_integrates_to_one():
    m = simulate.NormalMixtureTruth(0.3, -2.0, 2.0, 1.0, 0.5)
    xs = np.linspace(-10, 10, 4001)
    assert np.trapezoid(m.pdf(xs), xs) == pytest.approx(1.0, abs=1e-6)
    assert np.trapezoid(m.smoothed_pdf(xs, 0.4), xs) == pytest.approx(1.0, abs=1e-6)


def test_simulate_coverage_ci_plugin_reasonable():
    report = simulate.simulate_coverage(
        "normal", 400, "ci-plugin", 0.05, trials=40, seed=123,
        replicates=50, eval_points=[0.0])
    assert report.target == "smoothed"
    assert 0.7 <= report.coverage <= 1.0
    assert report.mean_width > 0
    assert report.metadata["n"] == 400


def test_simulate_coverage_deterministic():
    kwargs = dict(n=150, method="band-bootstrap", alpha=0.1, trials=4,
                  seed=77, replicates=30, grid_size=32)
    r1 = simulate.simulate_coverage("normal", **kwargs)
    r2 = simulate.simulate_coverage("normal", **kwargs)
    assert r1.coverage == r2.coverage
    assert r1.mean_width == r2.mean_width


def test_negative_seed_is_config_error(normal_csv, capsys):
    with pytest.raises(ValueError, match="seed"):
        simulate.simulate_coverage("normal", 100, "ci-plugin", 0.1, trials=2,
                                   seed=-1, replicates=20)
    assert cli.main(["band", "--input", normal_csv, "--boot", "40",
                     "--seed", "-1", "--grid", "16"]) == 2
    assert cli.main(["simulate", "--n", "100", "--trials", "2", "--boot", "20",
                     "--grid", "16", "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err


# --- cold start ---


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy",
                                    "numpy.random"])
def test_cli_import_leaves_out_scipy_stats(module):
    # a fresh interpreter, since this one may already have the module loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = f"import sys, kdeforge.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
