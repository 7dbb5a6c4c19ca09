"""Command-line interface: data ingestion, subcommand dispatch, serialization.

Subcommands: density, bandwidth, ci, band, modes, levelset, ridge, morse,
tree, persist, cdf, roc, simulate.  Every subcommand writes a machine-readable
JSON or CSV artifact plus a one-line human summary on stdout.

Exit codes: 0 success, 2 configuration error, 3 data error (an output too
large for memory among them).  Bootstrap paths require an explicit --seed;
there is no wall-clock seeding.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import warnings

import numpy as np

from . import bandwidth, distfunc, estimator, geometry, inference, simulate, topology
from .bandwidth import BandwidthSelector, SelectorMethod
from .estimator import DensityModel, Sample
from .kernels import KernelSpec

SCHEMA = 1  # of every JSON artifact but simulate's report, which is at 2


class ConfigError(Exception):
    exit_code = 2


class DataError(Exception):
    exit_code = 3


def ingest(path: str, group_col: str | None = None):
    """Parse a CSV of observations (one row per point, one column per dim).

    A non-numeric first row is treated as a header.  Returns a Sample, or a
    dict of label -> Sample when ``group_col`` names a label column.
    """
    if group_col is None:
        data = _load_table(path)
        if data is not None:
            return Sample(data)
    return _ingest_rows(path, group_col)


def _load_table(path: str):
    """The numeric table of a CSV without a label column, parsed by np.loadtxt.

    Returns None on any parse error, non-finite value or missing data row, so
    that the row parser decides the outcome and words the message.
    """
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            first = next((r for r in reader if _has_content(r)), None)
            if first is None:
                return None
            # skip the header and any blank lines above it
            skip = reader.line_num if _is_header(first) else 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data"
            data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except (OSError, ValueError, csv.Error, UserWarning):
        return None
    return data if np.all(np.isfinite(data)) else None


def _has_content(row: list) -> bool:
    return any(cell.strip() for cell in row)


def _is_header(row: list) -> bool:
    """A first row with a non-numeric cell is a header."""
    try:
        [float(cell) for cell in row]
    except ValueError:
        return True
    return False


def _ingest_rows(path: str, group_col: str | None):
    """The row parser behind ``ingest``: every cell through ``float``."""
    from math import isfinite  # on a Python float; np.isfinite costs 0.6 us a cell

    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows = [r for r in rows if _has_content(r)]
    if not rows:
        raise DataError(f"{path}: empty file")

    header = None
    start = 0
    if _is_header(rows[0]):
        header = [cell.strip() for cell in rows[0]]
        start = 1
        if not rows[1:]:
            raise DataError(f"{path}: no data rows after header")

    label_idx = None
    if group_col is not None:
        if header is None or group_col not in header:
            raise DataError(f"{path}: group column {group_col!r} not in header")
        label_idx = header.index(group_col)

    width = len(rows[start])
    points, labels = [], []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise DataError(f"{path}: line {lineno}: expected {width} columns, "
                            f"got {len(row)}")
        values = []
        for col, cell in enumerate(row):
            if col == label_idx:
                labels.append(cell.strip())
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DataError(f"{path}: line {lineno}: non-numeric cell "
                                f"{cell.strip()!r}")
            if not isfinite(v):
                raise DataError(f"{path}: line {lineno}: non-finite value")
            values.append(v)
        points.append(values)

    data = np.array(points, dtype=float)
    if label_idx is None:
        return Sample(data)
    groups = {}
    for lab in sorted(set(labels)):
        rows_for = data[[i for i, l in enumerate(labels) if l == lab]]
        groups[lab] = Sample(rows_for)
    if len(groups) != 2:
        raise DataError(f"{path}: expected exactly 2 groups, got {len(groups)}")
    return groups


def _parse_lscv_grid(spec: str) -> np.ndarray:
    """The grid of ``lo:hi:count``; ``BandwidthSelector`` refuses one that is
    empty, not finite or not positive (nan or inf from geomspace, unwarned)."""
    try:
        lo, hi, count = spec.split(":")
        with np.errstate(all="ignore"):
            return np.geomspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad --lscv-grid {spec!r}, expected lo:hi:count") from exc


def select_bandwidth(args, sample: Sample, kernel: KernelSpec) -> float:
    # Selector errors (a missing fixed bandwidth, a bad LSCV grid, a value the
    # method would not read) are configuration errors, so the selector is
    # built outside the try below.
    grid = _parse_lscv_grid(args.lscv_grid) if args.lscv_grid else None
    sel = BandwidthSelector(SelectorMethod(args.bandwidth_method),
                            fixed_h=args.bandwidth, lscv_grid=grid)
    try:
        return sel.select(sample, kernel)
    except (ValueError, bandwidth.DegenerateSampleError) as exc:
        raise DataError(str(exc)) from exc


# The dimensions of the subcommands that take only some: (lowest d, highest
# d, what the subcommand requires).  The others take any d.
_DIMENSIONS = {
    "ci": (1, 1, "univariate data"),
    "band": (1, 1, "univariate data"),
    "cdf": (1, 1, "univariate data"),
    "ridge": (2, np.inf, "d >= 2"),
    "morse": (1, 2, "d <= 2"),
    "tree": (1, 2, "d <= 2"),
    "persist": (1, 2, "d <= 2"),
    "roc": (1, 1, "univariate data"),
}


def _check_dimension(command: str, sample: Sample):
    lo, hi, need = _DIMENSIONS.get(command, (1, np.inf, ""))
    if not lo <= sample.dim <= hi:
        raise DataError(f"{command} requires {need}, got d={sample.dim}")


def _model(args) -> DensityModel:
    sample = ingest(args.input)
    _check_dimension(args.command, sample)
    kernel = KernelSpec(args.kernel, sample.dim)
    h = select_bandwidth(args, sample, kernel)
    return DensityModel(sample, kernel, h)


def _plan(args) -> inference.BootstrapPlan:
    """The bootstrap plan of --boot (1000 replicates by default) and --seed,
    which has no default."""
    if args.seed is None:
        raise ConfigError("bootstrap paths require an explicit --seed")
    return inference.BootstrapPlan(1000 if args.boot is None else args.boot, args.seed)


def _refuse_plan(args, path: str):
    """A --boot or --seed given to a path that draws no replicates is a
    configuration error, not dropped."""
    for flag, value in (("--boot", args.boot), ("--seed", args.seed)):
        if value is not None:
            raise ConfigError(f"{flag} is read only by a bootstrap, not by {path}")


def _write_json(path: str | None, payload: dict, schema: int = SCHEMA):
    """Write ``payload`` as a JSON artifact, stamped with its ``schema``."""
    try:
        text = json.dumps({**payload, "schema": schema}, indent=2, sort_keys=True,
                          allow_nan=False)
    except ValueError as exc:  # inf or nan, which JSON cannot hold
        raise DataError(f"non-finite value in the result: {exc}") from exc
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list, columns):
    """Write equal-length columns under ``header``: integer and boolean cells
    as %d writes them, string cells as they are, float cells as the repr of a
    Python float.  ``csvtext`` formats them a block of rows at a time."""
    # imported here, not at the top: every CLI call would pay for the import
    from . import csvtext

    # formatted before the file opens, so an error leaves no partial artifact
    pieces = list(csvtext.table(header, columns))
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(pieces)


def _grid_coordinates(grid) -> list:
    """The coordinate columns of ``grid.points``, each its axis gathered by
    row index, so that the writer formats each axis value once."""
    from . import csvtext

    index = np.unravel_index(np.arange(grid.values.size), grid.shape)
    return [csvtext.Repeated(ax, i) for ax, i in zip(grid.axes, index)]


def cmd_density(args):
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    if args.format == "json":
        _write_json(args.output, {
            "axes": [ax.tolist() for ax in grid.axes],
            "values": grid.values.tolist(),
            "bandwidth": model.bandwidth,
        })
    else:
        header = [f"x{l}" for l in range(model.dim)] + ["density"]
        _write_csv(args.output, header, [*_grid_coordinates(grid), grid.values])
    print(f"density: n={model.n} d={model.dim} h={model.bandwidth:.6g} "
          f"grid={grid.values.size}")


def cmd_bandwidth(args):
    sample = ingest(args.input)
    kernel = KernelSpec(args.kernel, sample.dim)
    h = select_bandwidth(args, sample, kernel)
    _write_json(args.output, {"bandwidth": h, "method": args.bandwidth_method})
    print(f"bandwidth: method={args.bandwidth_method} h={h:.6g}")


def cmd_ci(args):
    model = _model(args)
    axis = estimator.default_axes(model, resolution=args.grid)[0]
    if args.method == "plugin":
        _refuse_plan(args, "--method plugin")
        result = inference.ci_plugin(model, axis, args.alpha)
    else:
        fn = (inference.ci_bootstrap_plugin if args.method == "boot-plugin"
              else inference.ci_bootstrap)
        result = fn(model, axis, args.alpha, _plan(args))
    _write_json(args.output, result.to_dict())
    print(f"ci: method={result.method} alpha={args.alpha} points={axis.size}")


def cmd_band(args):
    model = _model(args)
    axis = estimator.default_axes(model, resolution=args.grid)[0]
    if args.method == "evt":
        _refuse_plan(args, "--method evt")
        result = inference.band_plugin_evt(model, axis, args.alpha)
    else:
        fn = (inference.band_bootstrap if args.method == "boot"
              else inference.band_debiased_bootstrap)
        result = fn(model, axis, args.alpha, _plan(args))
    _write_json(args.output, result.to_dict())
    hw = "varies" if result.halfwidth is None else f"{result.halfwidth:.6g}"
    print(f"band: method={result.method} alpha={args.alpha} halfwidth={hw}")


def cmd_modes(args):
    model = _model(args)
    modes = geometry.find_modes(model, tol=args.tol, max_iter=args.max_iter)
    header = [f"x{l}" for l in range(model.dim)] + ["density"]
    _write_csv(args.output, header, [*modes.modes.T, modes.density])
    print(f"modes: found {modes.n_modes} local modes "
          f"({int(modes.converged.sum())}/{modes.converged.size} starts converged)")


def cmd_levelset(args):
    level = args.level
    if level is None:
        raise ConfigError("levelset requires --lambda")
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    ls = geometry.level_set(grid, level)
    header = [f"x{l}" for l in range(model.dim)] + ["in_set", "component"]
    _write_csv(args.output, header,
               [*_grid_coordinates(grid), ls.mask.ravel(), ls.labels.ravel()])
    print(f"levelset: lambda={level:.6g} components={ls.n_components}")


def cmd_ridge(args):
    model = _model(args)
    ridge = geometry.scms(model, tol=args.tol, max_iter=args.max_iter)
    header = [f"x{l}" for l in range(model.dim)] + ["proj_grad_norm", "lambda2"]
    _write_csv(args.output, header,
               [*ridge.points.T, ridge.projected_grad_norms, ridge.lambda2])
    print(f"ridge: {ridge.points.shape[0]} ridge points "
          f"({int(ridge.converged.sum())}/{ridge.converged.size} starts converged)")


def cmd_morse(args):
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    part = geometry.morse_smale(model, grid)
    header = [f"x{l}" for l in range(model.dim)] + ["ascent", "descent", "cell"]
    _write_csv(args.output, header, [*_grid_coordinates(grid), part.ascent_ids,
                                     part.descent_ids, part.cell_labels])
    print(f"morse: {len(set(part.cell_labels.tolist()))} cells, "
          f"{part.modes.shape[0]} modes")


def cmd_tree(args):
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    tree = topology.cluster_tree(grid)
    _write_json(args.output, tree.to_dict())
    print(f"tree: {len(tree.nodes)} leaves")


def cmd_persist(args):
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    diagram = topology.persistence_diagram(topology.cluster_tree(grid))
    _write_csv(args.output, ["birth", "death"], diagram.pairs.T)
    print(f"persist: {diagram.pairs.shape[0]} pairs (dim 0)")


def cmd_cdf(args):
    model = _model(args)
    axis = estimator.default_axes(model, resolution=args.grid)[0]
    scdf = distfunc.SmoothedCDF(model)
    values = distfunc.cdf_many(scdf, axis)
    _write_csv(args.output, ["x", "cdf"], [axis, values])
    print(f"cdf: evaluated at {axis.size} points, h={model.bandwidth:.6g}")


def cmd_roc(args):
    if not args.group_col:
        raise ConfigError("roc requires --group-col")
    groups = ingest(args.input, group_col=args.group_col)
    (lab_h, healthy), (lab_d, diseased) = sorted(groups.items())
    _check_dimension(args.command, healthy)  # both groups share the columns
    kernel = KernelSpec(args.kernel, 1)
    h_f = select_bandwidth(args, healthy, kernel)
    h_g = select_bandwidth(args, diseased, kernel)
    t_grid = distfunc.default_t_grid(args.grid)
    if args.seed is not None:
        band = distfunc.roc_band(healthy, diseased, kernel, h_f, h_g,
                                 args.alpha, _plan(args), t_grid)
        _write_csv(args.output, ["t", "roc", "lower", "upper"],
                   [t_grid, band.center, band.lower, band.upper])
        print(f"roc: groups=({lab_h},{lab_d}) band halfwidth={band.halfwidth:.6g}")
    else:
        _refuse_plan(args, "roc without --seed (the plain curve)")
        curve = distfunc.roc_curve(healthy, diseased, kernel, h_f, h_g, t_grid)
        _write_csv(args.output, ["t", "roc"], [curve.t, curve.values])
        print(f"roc: groups=({lab_h},{lab_d}) curve on {t_grid.size} points")


def cmd_simulate(args):
    plan = _plan(args)  # each trial draws its own plan; this checks the flags
    report = simulate.simulate_coverage(
        args.truth, args.n, args.method, args.alpha, args.trials, plan.seed,
        replicates=plan.replicates, grid_size=args.grid)
    _write_json(args.output, report.to_dict(), schema=2)
    print(f"simulate: method={report.method} target={report.target} "
          f"coverage={report.coverage:.3f} (nominal {report.nominal:.2f}, "
          f"{report.trials} trials)")


def _grid_size(text: str) -> int:
    """The value of --grid: a whole number of points, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"grid size must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdeforge",
        description="Kernel density estimation, inference, and feature extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A flag that several subcommands take is declared once, on a parent.
    estimate = argparse.ArgumentParser(add_help=False)  # estimation from --input
    estimate.add_argument("--input", required=True, help="input CSV path")
    estimate.add_argument("--kernel", choices=["gaussian", "spherical"],
                          default="gaussian")
    estimate.add_argument("--bandwidth-method", choices=["rot", "lscv", "plugin",
                                                         "fixed"], default="rot")
    estimate.add_argument("--bandwidth", type=float, default=None,
                          help="fixed bandwidth (with --bandwidth-method fixed)")
    estimate.add_argument("--lscv-grid", default=None, metavar="LO:HI:COUNT",
                          help="LSCV candidates (with --bandwidth-method lscv)")
    grid = argparse.ArgumentParser(add_help=False)
    grid.add_argument("--grid", type=_grid_size, default=256, help="grid resolution per dimension")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output file path")
    bootstrap = argparse.ArgumentParser(add_help=False)
    bootstrap.add_argument("--alpha", type=float, default=0.05)
    bootstrap.add_argument("--boot", type=int, default=None)
    bootstrap.add_argument("--seed", type=int, default=None)

    on_grid = [estimate, grid, output]
    resampled = [*on_grid, bootstrap]
    p = {}
    for name, func, parents, text in (
            ("density", cmd_density, on_grid, "evaluate the KDE on a grid"),
            ("bandwidth", cmd_bandwidth, [estimate, output], "select a bandwidth"),
            ("ci", cmd_ci, resampled, "pointwise confidence intervals"),
            ("band", cmd_band, resampled, "simultaneous confidence band"),
            ("modes", cmd_modes, [estimate, output], "local modes by mean shift"),
            ("ridge", cmd_ridge, [estimate, output], "density ridge points by SCMS"),
            ("levelset", cmd_levelset, on_grid, "superlevel set of the KDE grid"),
            ("morse", cmd_morse, on_grid, "Morse-Smale partition of the KDE grid"),
            ("tree", cmd_tree, on_grid, "cluster tree of the KDE grid"),
            ("persist", cmd_persist, on_grid, "0-dim persistence diagram"),
            ("cdf", cmd_cdf, on_grid, "smoothed CDF"),
            ("roc", cmd_roc, resampled,
             "smoothed ROC curve (two-sample); with --seed, its bootstrap band"),
            ("simulate", cmd_simulate, [grid, output, bootstrap],
             "Monte Carlo coverage study")):
        p[name] = sub.add_parser(name, parents=parents, help=text)
        p[name].set_defaults(func=func)

    # The flags of one subcommand each (--method takes different choices).
    p["density"].add_argument("--format", choices=["csv", "json"], default="csv")
    p["ci"].add_argument("--method", choices=["plugin", "boot-plugin", "boot"],
                         default="plugin")
    p["band"].add_argument("--method", choices=["evt", "boot", "debias"], default="boot")
    for name in ("modes", "ridge"):
        p[name].add_argument("--tol", type=float, default=1e-7)
        p[name].add_argument("--max-iter", type=int, default=500)
    p["levelset"].add_argument("--lambda", dest="level", type=float, default=None)
    p["roc"].add_argument("--group-col", default=None)
    p["simulate"].add_argument("--truth", default="normal",
                               help="'normal' or 'mixture:w,mu1,mu2,sd1,sd2'")
    p["simulate"].add_argument("--n", type=int, default=1000)
    p["simulate"].add_argument("--method", choices=list(simulate.METHODS),
                               default="band-bootstrap")
    p["simulate"].add_argument("--trials", type=int, default=200)
    return parser


_parser = None  # main's parser, built on its first call


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, estimator.DataRangeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # an output too large for this machine's memory
        print(f"data error: {exc or 'out of memory'}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
