import argparse
import csv
import io
import json
import os
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdeforge import bandwidth, blocks, cli, csvtext, estimator, geometry, simulate
from kdeforge.cli import DataError, ingest
from kdeforge.estimator import DensityModel, Sample
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
    # whatever the method
    bad = ["bandwidth", "--input", normal_csv, "--lscv-grid", "0.1:1.0"]
    assert cli.main(bad + ["--bandwidth-method", "fixed", "--bandwidth", "0"]) == 2
    assert cli.main(bad + ["--bandwidth-method", "lscv"]) == 2
    assert cli.main(bad + ["--bandwidth-method", "plugin"]) == 2
    capsys.readouterr()
    # a value the chosen method would not read is a config error, not dropped
    base = ["bandwidth", "--input", normal_csv, "--output", str(out)]
    assert cli.main(base + ["--bandwidth", "0.3"]) == 2
    assert "'fixed' method, not 'rot'" in capsys.readouterr().err
    assert cli.main(base + ["--bandwidth-method", "plugin",
                            "--lscv-grid", "0.1:1.0:8"]) == 2
    assert "'lscv' method, not 'plugin'" in capsys.readouterr().err


@pytest.mark.parametrize("spec,code,message", [
    ("0.1:inf:5", 2, "finite, positive and increasing"),
    ("nan:1:3", 2, "finite, positive and increasing"),
    ("inf:inf:2", 2, "finite, positive and increasing"),
    ("-1:1:3", 2, "finite, positive and increasing"),
    ("0.1:1:0", 2, "empty"),
    ("1e-200:1:3", 3, "candidate h=1e-200 "),
    ("0.1:1e308:3", 3, "candidate h=1e+308 "),
])
def test_bad_lscv_grids_exit_cleanly_unwarned(tmp_path, normal_csv, capsys,
                                              spec, code, message):
    # a grid that is empty, not finite or not positive is the flag's fault
    # (exit 2); a candidate that cannot be scored on this sample is the
    # data's (exit 3), named in the message; neither warns
    out = tmp_path / "h.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["bandwidth", "--input", normal_csv, "--bandwidth-method",
                         "lscv", f"--lscv-grid={spec}", "--output", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("fixture,argv,flag", [
    ("normal_csv", ["ci", "--method", "plugin", "--boot", "5", "--seed", "1"], "--boot"),
    ("normal_csv", ["ci", "--seed", "1"], "--seed"),
    ("normal_csv", ["band", "--method", "evt", "--boot", "5"], "--boot"),
    ("normal_csv", ["band", "--method", "evt", "--seed", "1"], "--seed"),
    ("grouped_csv", ["roc", "--group-col", "status", "--boot", "400"], "--boot"),
])
def test_bootstrap_flags_a_path_would_not_read_are_config_errors(
        tmp_path, request, capsys, fixture, argv, flag):
    out = tmp_path / "artifact"
    argv = [*argv, "--input", request.getfixturevalue(fixture), "--grid", "16",
            "--output", str(out)]
    assert cli.main(argv) == 2
    assert f"{flag} is read only by a bootstrap" in capsys.readouterr().err
    assert not out.exists()


def test_boot_defaults_to_1000_replicates():
    for argv in (["band", "--input", "x.csv", "--seed", "1"],
                 ["simulate", "--seed", "1"]):
        assert cli._plan(cli.build_parser().parse_args(argv)).replicates == 1000


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
    assert "found 2 local modes (400/400 starts converged)" in capsys.readouterr().out


@pytest.mark.parametrize("command,flags,message", [
    ("modes", ["--tol", "0"], "tol must be positive, got 0.0"),
    ("modes", ["--max-iter", "0"], "max_iter must be at least 1, got 0"),
    ("ridge", ["--tol", "nan"], "tol must be positive, got nan"),
    ("ridge", ["--max-iter", "0"], "max_iter must be at least 1, got 0"),
])
def test_iteration_controls_that_cannot_converge_are_config_errors(
        tmp_path, rng, capsys, command, flags, message):
    p = tmp_path / "bi.csv"
    np.savetxt(p, rng.normal(size=(40, 2)), delimiter=",")
    out = tmp_path / "out.csv"
    assert cli.main([command, "--input", str(p), *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_modes_rejects_spherical_kernel(bimodal_csv, capsys):
    assert cli.main(["modes", "--input", bimodal_csv, "--kernel", "spherical"]) == 2
    assert "Gaussian kernel" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ci", "band"])
def test_ci_and_band_reject_multivariate_data(tmp_path, rng, capsys, command):
    p = tmp_path / "bi.csv"
    p.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in
                                    rng.normal(size=(50, 2)).tolist()) + "\n")
    assert cli.main([command, "--input", str(p), "--seed", "3"]) == 3
    assert f"{command} requires univariate data" in capsys.readouterr().err


@pytest.mark.parametrize("command,dim", [("ridge", 1), ("morse", 3), ("tree", 3),
                                         ("persist", 3)])
def test_unsupported_dimension_is_data_error(tmp_path, rng, capsys, command, dim):
    p = tmp_path / "x.csv"
    np.savetxt(p, rng.normal(size=(40, dim)), delimiter=",")
    grid = [] if command == "ridge" else ["--grid", "8"]  # ridge takes no grid
    assert cli.main([command, "--input", str(p), *grid,
                     "--output", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {command} requires ") and f"got d={dim}" in err
    assert not (tmp_path / "out").exists()


def test_roc_rejects_multivariate_groups(tmp_path, rng, capsys):
    p = tmp_path / "groups2.csv"
    p.write_text("x,y,g\n" + "\n".join(f"{a!r},{b!r},{'ab'[i % 2]}" for i, (a, b) in
                                        enumerate(rng.normal(size=(40, 2)).tolist())) + "\n")
    assert cli.main(["roc", "--input", str(p), "--group-col", "g"]) == 3
    assert "roc requires univariate data, got d=2" in capsys.readouterr().err


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


def row_format_csv(header, columns) -> bytes:
    """The per-row writer the column writer replaced: one %-format for every
    row, %d for integer and boolean columns, %s for strings, %r else."""
    columns = [np.asarray(c) for c in columns]
    kinds = {"b": "%d", "i": "%d", "u": "%d", "O": "%s", "U": "%s"}
    fmt = ",".join(kinds.get(c.dtype.kind, "%r") for c in columns) + "\n"
    rows = zip(*[c.tolist() for c in columns])
    return (",".join(header) + "\n" + "".join(fmt % row for row in rows)).encode()


@pytest.mark.parametrize("columns", [
    pytest.param([np.empty(0), np.empty(0, dtype=int)], id="no-rows"),
    pytest.param([np.array([True, False, True])], id="bool"),
    pytest.param([np.array([-3, 0, 7]), np.array([1, 2, 255], dtype=np.uint8)], id="int"),
    pytest.param([np.array(["a", "b c", ""]), np.array(["0.5", "-1", "x"], dtype=object)],
                 id="str"),
    pytest.param([np.array([-0.0, 0.0, 0.1, -2.5e-308, 1e300, np.inf, np.nan])],
                 id="float"),
    pytest.param([np.array([1.5, -0.0]), np.array([False, True]), np.array([4, -4]),
                  np.array(["p", "q"])], id="mixed"),
    pytest.param([np.array([0, 1, 2 ** 63, 2 ** 64 - 1], dtype=np.uint64)], id="uint64"),
    pytest.param([csvtext.Repeated(ax, i) for ax, i in zip(
        (np.array([-1.0, -0.0, 2.5]), np.array([0.0, 0.1])),
        np.unravel_index(np.arange(6), (3, 2)))], id="grid-axes-negative-zero"),
])
def test_csv_columns_keep_the_row_format_bytes(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    out = tmp_path / "out.csv"
    cli._write_csv(str(out), header, columns)
    assert out.read_bytes() == row_format_csv(header, columns)


def test_main_builds_its_parser_once_and_keeps_no_value(monkeypatch, tmp_path, normal_csv,
                                                         capsys):
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    argv = ["band", "--input", normal_csv, "--grid", "16", "--boot", "20",
            "--output", str(tmp_path / "band.json")]
    assert cli.main([*argv, "--seed", "1"]) == 0
    assert cli.main(argv) == 2  # no --seed: none is left from the call before
    assert "explicit --seed" in capsys.readouterr().err
    assert len(built) == 1
    assert real() is not real()  # build_parser itself still builds a fresh one


@pytest.mark.parametrize("h", ["1e150", "1e300"])
@pytest.mark.parametrize("command,extra", [
    ("modes", []), ("ridge", []), ("morse", ["--grid", "16"]), ("density", ["--grid", "16"]),
    ("levelset", ["--grid", "16", "--lambda", "0.01"]), ("tree", ["--grid", "16"]),
    ("persist", ["--grid", "16"])])
def test_huge_bandwidths_exit_cleanly(tmp_path, bivariate_csv, capsys, command, extra, h):
    # a power of h that overflows float64 is a data error, not a traceback
    code = cli.main([command, "--input", bivariate_csv, "--bandwidth-method", "fixed",
                     "--bandwidth", h, *extra, "--output", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 3)
    if code == 3:
        assert "data error: h^" in err and "overflows float64" in err


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


JSON_ARTIFACTS = [  # (argv, input fixture, schema) of each JSON artifact
    (["density", "--grid", "16", "--format", "json"], "normal_csv", 1),
    (["bandwidth"], "normal_csv", 1),
    (["ci", "--grid", "16"], "normal_csv", 1),
    (["band", "--grid", "16", "--boot", "30", "--seed", "3"], "normal_csv", 1),
    (["tree", "--grid", "16"], "bimodal_csv", 1),
    (["simulate", "--truth", "normal", "--n", "100", "--method", "ci-plugin",
      "--trials", "2", "--boot", "30", "--grid", "16", "--seed", "1"], None, 2),
]


@pytest.mark.parametrize("argv,fixture,schema", JSON_ARTIFACTS,
                         ids=[argv[0] for argv, _, _ in JSON_ARTIFACTS])
def test_json_artifacts_carry_their_schema(tmp_path, request, capsys, argv, fixture,
                                           schema):
    out = tmp_path / "out.json"
    inputs = [] if fixture is None else ["--input", request.getfixturevalue(fixture)]
    assert cli.main([*argv, *inputs, "--output", str(out)]) == 0
    assert json.loads(out.read_text())["schema"] == schema
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


# --- parser surface: every flag is read by its subcommand ---


ESTIMATE = {"--input", "--kernel", "--bandwidth-method", "--bandwidth", "--lscv-grid",
            "--output"}
BOOTSTRAP = {"--alpha", "--boot", "--seed"}
PARSER_SURFACE = {
    "density": ESTIMATE | {"--grid", "--format"},
    "bandwidth": ESTIMATE,
    "ci": ESTIMATE | BOOTSTRAP | {"--grid", "--method"},
    "band": ESTIMATE | BOOTSTRAP | {"--grid", "--method"},
    "modes": ESTIMATE | {"--tol", "--max-iter"},
    "ridge": ESTIMATE | {"--tol", "--max-iter"},
    "levelset": ESTIMATE | {"--grid", "--lambda"},
    "morse": ESTIMATE | {"--grid"},
    "tree": ESTIMATE | {"--grid"},
    "persist": ESTIMATE | {"--grid"},
    "cdf": ESTIMATE | {"--grid"},
    "roc": ESTIMATE | BOOTSTRAP | {"--grid", "--group-col"},
    "simulate": BOOTSTRAP | {"--grid", "--output", "--truth", "--n", "--method",
                             "--trials"},
}


def subparsers() -> dict:
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_parser_surface_matches_table():
    surface = {name: {opt for a in p._actions for opt in a.option_strings}
                     - {"-h", "--help"}
               for name, p in subparsers().items()}
    assert surface == PARSER_SURFACE


def test_readme_cli_lines_parse():
    # every `kdeforge ...` line of the README's CLI code block, one per subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("kdeforge ")]
    assert {argv[0] for argv in commands} == set(subparsers())
    parser = cli.build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]


ESTIMATED = dict(input="x.csv", kernel="gaussian", bandwidth_method="rot",
                 bandwidth=None, lscv_grid=None, output=None)
BOOTSTRAPPED = dict(alpha=0.05, boot=None, seed=None)
NAMESPACES = [  # (argv, every attribute of its Namespace, defaults included)
    (["density", "--input", "x.csv", "--format", "json", "--grid", "16"],
     dict(ESTIMATED, grid=16, format="json", func=cli.cmd_density)),
    (["bandwidth", "--input", "x.csv", "--bandwidth-method", "lscv",
      "--lscv-grid", "0.1:1:5", "--output", "o.json"],
     dict(ESTIMATED, bandwidth_method="lscv", lscv_grid="0.1:1:5", output="o.json",
          func=cli.cmd_bandwidth)),
    (["ci", "--input", "x.csv", "--method", "boot", "--boot", "50", "--seed", "3",
      "--alpha", "0.1"],
     dict(ESTIMATED, grid=256, method="boot", alpha=0.1, boot=50, seed=3,
          func=cli.cmd_ci)),
    (["band", "--input", "x.csv", "--kernel", "spherical"],
     dict(ESTIMATED | BOOTSTRAPPED, kernel="spherical", grid=256, method="boot",
          func=cli.cmd_band)),
    (["modes", "--input", "x.csv", "--tol", "1e-6", "--max-iter", "9"],
     dict(ESTIMATED, tol=1e-6, max_iter=9, func=cli.cmd_modes)),
    (["ridge", "--input", "x.csv", "--bandwidth-method", "fixed", "--bandwidth", "0.5"],
     dict(ESTIMATED, bandwidth_method="fixed", bandwidth=0.5, tol=1e-7, max_iter=500,
          func=cli.cmd_ridge)),
    (["levelset", "--input", "x.csv", "--lambda", "0.1"],
     dict(ESTIMATED, grid=256, level=0.1, func=cli.cmd_levelset)),
    (["morse", "--input", "x.csv"], dict(ESTIMATED, grid=256, func=cli.cmd_morse)),
    (["tree", "--input", "x.csv"], dict(ESTIMATED, grid=256, func=cli.cmd_tree)),
    (["persist", "--input", "x.csv"], dict(ESTIMATED, grid=256, func=cli.cmd_persist)),
    (["cdf", "--input", "x.csv", "--grid", "8"], dict(ESTIMATED, grid=8, func=cli.cmd_cdf)),
    (["roc", "--input", "x.csv", "--group-col", "g", "--seed", "1"],
     dict(ESTIMATED | BOOTSTRAPPED, grid=256, group_col="g", seed=1, func=cli.cmd_roc)),
    (["simulate", "--seed", "1", "--truth", "mixture:0.5,0,1,1,1", "--n", "100"],
     dict(BOOTSTRAPPED, grid=256, output=None, truth="mixture:0.5,0,1,1,1", n=100,
          method="band-bootstrap", trials=200, seed=1, func=cli.cmd_simulate)),
]


@pytest.mark.parametrize("argv,expected", NAMESPACES, ids=[a[0] for a, _ in NAMESPACES])
def test_parsed_namespace_is_pinned(argv, expected):
    assert vars(cli.build_parser().parse_args(argv)) == dict(expected, command=argv[0])


def test_namespace_table_covers_every_subcommand():
    assert [argv[0] for argv, _ in NAMESPACES] == list(subparsers())


def test_each_flag_is_declared_once(monkeypatch):
    calls = []
    real = argparse._ActionsContainer.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counting)
    cli.build_parser()
    assert len(calls) <= 40  # the flags, and -h on the parser and each subparser
    source = Path(cli.__file__).read_text()
    for flag in set().union(*PARSER_SURFACE.values()) - {"--method"}:
        assert source.count(f'add_argument("{flag}"') == 1, flag
    # --method takes different choices in ci, band and simulate
    assert source.count('add_argument("--method"') == 3


# --- fuzz: every input ends in exit 0, 2 or 3 ---


FUZZ_GRID = ["--grid", "16"]
FUZZ_ARGS = {  # subcommand: its own arguments, at small sizes
    "density": FUZZ_GRID, "bandwidth": [], "modes": [], "ridge": [],
    "morse": FUZZ_GRID, "tree": FUZZ_GRID, "persist": FUZZ_GRID, "cdf": FUZZ_GRID,
    "ci": [*FUZZ_GRID, "--method", "boot", "--boot", "20", "--seed", "1"],
    "band": [*FUZZ_GRID, "--boot", "20", "--seed", "1"],
    "levelset": [*FUZZ_GRID, "--lambda", "0.01"],
    "roc": [*FUZZ_GRID, "--group-col", "g", "--boot", "20", "--seed", "1"],
}
FUZZ_BANDWIDTHS = {
    "rule-of-thumb": [],
    "fixed": ["--bandwidth-method", "fixed", "--bandwidth", "0.5"],
    "spherical": ["--kernel", "spherical"],
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """CSV inputs at the edges of the data contract, keyed by name; the
    wrong-dimension input depends on the subcommand."""
    rng = np.random.default_rng(7)
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, header, rows):
        path = root / f"{name}.csv"
        path.write_text(header + "\n" + "\n".join(
            ",".join(cell if isinstance(cell, str) else repr(float(cell)) for cell in row)
            for row in rows) + "\n")
        return str(path)

    x = rng.normal(size=30)
    return {
        "constant-1d": write("constant", "x", [[2.5]] * 30),
        "constant-column": write("column", "x,y", [[v, 1.0] for v in x]),
        "three-groups": write("groups", "x,g", [[v, "abc"[i % 3]] for i, v in enumerate(x)]),
        "1d": write("1d", "x", [[v] for v in x]),
        "2d": write("2d", "x,y", rng.normal(size=(30, 2)).tolist()),
        "3d": write("3d", "x,y,z", rng.normal(size=(30, 3)).tolist()),
        "2d-groups": write("2d-groups", "x,y,g",
                           [[a, b, "ab"[i % 2]] for i, (a, b) in
                            enumerate(rng.normal(size=(30, 2)).tolist())]),
    }


def wrong_dimension(command: str) -> str:
    if command in ("ci", "band", "cdf"):
        return "2d"
    if command == "roc":
        return "2d-groups"
    return "1d" if command == "ridge" else "3d"


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(FUZZ_ARGS)),
       data=st.sampled_from(["constant-1d", "constant-column", "three-groups",
                             "wrong-dimension"]),
       bw=st.sampled_from(sorted(FUZZ_BANDWIDTHS)))
def test_cli_edge_inputs_exit_cleanly(fuzz_inputs, tmp_path_factory, command, data, bw):
    name = wrong_dimension(command) if data == "wrong-dimension" else data
    out = tmp_path_factory.mktemp("out") / "artifact"
    argv = [command, "--input", fuzz_inputs[name],
            "--output", str(out), *FUZZ_ARGS[command], *FUZZ_BANDWIDTHS[bw]]
    assert cli.main(argv) in (0, 2, 3)


# --- cold start ---


@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize", "scipy",
                                    "numpy.random", "multiprocessing",
                                    "concurrent.futures"])
def test_cli_import_leaves_out_scipy_stats(module):
    # a fresh interpreter, since this one may already have the module loaded
    src = os.path.dirname(os.path.dirname(cli.__file__))
    probe = f"import sys, kdeforge.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


# --- grid sizes ---


GRID_COMMANDS = {  # every subcommand that takes --grid: (fixture, its other flags)
    "density": ("normal_csv", []), "ci": ("normal_csv", []),
    "band": ("normal_csv", ["--boot", "20", "--seed", "1"]),
    "levelset": ("normal_csv", ["--lambda", "0.01"]), "morse": ("normal_csv", []),
    "tree": ("normal_csv", []), "persist": ("normal_csv", []), "cdf": ("normal_csv", []),
    "roc": ("grouped_csv", ["--group-col", "status"]),
    "simulate": (None, ["--n", "60", "--trials", "2", "--boot", "20", "--seed", "1"]),
}


def test_grid_commands_cover_every_subcommand_with_a_grid():
    assert set(GRID_COMMANDS) == {name for name, flags in PARSER_SURFACE.items()
                                  if "--grid" in flags}


def _grid_argv(request, tmp_path, command, grid):
    fixture, extra = GRID_COMMANDS[command]
    source = [] if fixture is None else ["--input", request.getfixturevalue(fixture)]
    return [command, *source, "--output", str(tmp_path / "out"), "--grid", grid, *extra]


@pytest.mark.parametrize("grid", ["0", "-3"])
@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_non_positive_grid_is_refused(request, tmp_path, capsys, command, grid):
    assert cli.main(_grid_argv(request, tmp_path, command, grid)) == 2
    err = capsys.readouterr().err
    assert f"argument --grid: grid size must be >= 1, got {grid}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
def test_one_point_grid_exits_cleanly(request, tmp_path, capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(_grid_argv(request, tmp_path, command, "1")) in (0, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


# --- memory and threads, in fresh processes ---


def _run_cli(argv, env=None, preexec_fn=None):
    """The CLI in a fresh interpreter on this checkout's sources."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**(os.environ if env is None else env), "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "kdeforge.cli", *argv], env=env,
                          preexec_fn=preexec_fn, capture_output=True, text=True,
                          timeout=120)


def test_an_output_too_large_for_memory_is_a_data_error(tmp_path):
    def limit_address_space():  # in the child only
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000 * 1024, 3_000_000 * 1024))

    path = tmp_path / "bi.csv"
    path.write_text("x,y\n0,0\n1,1\n0,1\n1,0\n0.5,0.2\n")
    # the 30 000^2 grid alone would take 6.7 GiB, over the 2.9 GiB limit
    # one BLAS thread: OpenBLAS reserves buffers for each of its threads
    out = _run_cli(["density", "--input", str(path), "--grid", "30000",
                    "--output", str(tmp_path / "density.csv")],
                   env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                   preexec_fn=limit_address_space)
    assert out.returncode == 3, out.stderr
    assert out.stderr.startswith("data error: Unable to allocate")
    assert "Traceback" not in out.stderr


@pytest.mark.skipif(blocks.cpus() < 2, reason="OpenBLAS runs one thread on one CPU")
def test_bootstrap_bytes_do_not_depend_on_blas_threads(tmp_path):
    # at these sizes a product on two OpenBLAS threads rounds some replicates
    # differently from one on one thread, and so moved the band's half-width
    path = tmp_path / "uni.csv"
    data = np.random.default_rng(3).normal(size=5000)
    path.write_text("\n".join(repr(float(v)) for v in data) + "\n")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    outputs = []
    for threads in (None, "1"):
        out = tmp_path / f"band_{threads}.json"
        run = _run_cli(["band", "--method", "boot", "--input", str(path), "--boot", "400",
                        "--seed", "4", "--grid", "100", "--output", str(out)],
                       env={**env, "OPENBLAS_NUM_THREADS": threads} if threads else env)
        assert run.returncode == 0, run.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
