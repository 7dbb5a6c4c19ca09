"""Command-line interface: data ingestion, subcommand dispatch, serialization.

Subcommands: density, bandwidth, ci, band, modes, levelset, ridge, morse,
tree, persist, cdf, roc, simulate.  Every subcommand writes a machine-readable
JSON or CSV artifact plus a one-line human summary on stdout.

Exit codes: 0 success, 2 configuration error, 3 data error.  Bootstrap paths
require an explicit --seed; there is no wall-clock seeding.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from . import bandwidth, distfunc, estimator, geometry, inference, simulate, topology
from .bandwidth import BandwidthSelector, SelectorMethod
from .estimator import DensityModel, Sample
from .kernels import KernelFamily, KernelSpec

SCHEMA = 1


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
            if not np.isfinite(v):
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


def _kernel(args, dim: int) -> KernelSpec:
    return KernelSpec(KernelFamily(args.kernel), dim)


def _parse_lscv_grid(spec: str) -> np.ndarray:
    try:
        lo, hi, count = spec.split(":")
        return np.geomspace(float(lo), float(hi), int(count))
    except ValueError as exc:
        raise ConfigError(f"bad --lscv-grid {spec!r}, expected lo:hi:count") from exc


def select_bandwidth(args, sample: Sample, kernel: KernelSpec) -> float:
    # Selector errors (a missing fixed bandwidth, a bad LSCV grid) are
    # configuration errors, so the selector is built outside the try below.
    method = SelectorMethod(args.bandwidth_method)
    grid = (_parse_lscv_grid(args.lscv_grid)
            if method is SelectorMethod.LSCV and args.lscv_grid else None)
    sel = BandwidthSelector(method, fixed_h=args.bandwidth, lscv_grid=grid)
    try:
        return sel.select(sample, kernel)
    except (ValueError, bandwidth.DegenerateSampleError) as exc:
        raise DataError(str(exc)) from exc


def _model(args) -> DensityModel:
    sample = ingest(args.input)
    kernel = _kernel(args, sample.dim)
    h = select_bandwidth(args, sample, kernel)
    return DensityModel(sample, kernel, h)


def _require_seed(args):
    if args.seed is None:
        raise ConfigError("bootstrap paths require an explicit --seed")


def _grid_axis(args, model: DensityModel) -> np.ndarray:
    if model.dim != 1:
        raise DataError(f"{args.command} requires univariate data")
    return estimator.default_axes(model, resolution=args.grid)[0]


def _write_json(path: str | None, payload: dict):
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # inf or nan, which JSON cannot hold
        raise DataError(f"non-finite value in the result: {exc}") from exc
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str | None, header: list, columns):
    """Write equal-length columns under ``header``, one row format for all
    rows: integer and boolean columns as integers, string columns as they
    are, the rest as the repr of a Python float (full precision, no numpy
    scalar reprs)."""
    columns = [np.asarray(c) for c in columns]
    kinds = {"b": "%d", "i": "%d", "u": "%d", "O": "%s", "U": "%s"}
    fmt = ",".join(kinds.get(c.dtype.kind, "%r") for c in columns) + "\n"
    text = ",".join(header) + "\n" + "".join(
        map(fmt.__mod__, zip(*[c.tolist() for c in columns])))
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _grid_columns(grid) -> list:
    """The coordinate columns of ``grid.points`` as float reprs, each axis
    value formatted once (a column holds only its axis's values)."""
    index = np.unravel_index(np.arange(grid.values.size), grid.shape)
    return [np.array([repr(v) for v in ax.tolist()], dtype=object)[i]
            for ax, i in zip(grid.axes, index)]


def cmd_density(args):
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    if args.format == "json":
        _write_json(args.output, {
            "schema": SCHEMA,
            "axes": [ax.tolist() for ax in grid.axes],
            "values": grid.values.tolist(),
            "bandwidth": model.bandwidth,
        })
    else:
        header = [f"x{l}" for l in range(model.dim)] + ["density"]
        _write_csv(args.output, header, [*_grid_columns(grid), grid.values])
    print(f"density: n={model.n} d={model.dim} h={model.bandwidth:.6g} "
          f"grid={grid.values.size}")


def cmd_bandwidth(args):
    sample = ingest(args.input)
    kernel = _kernel(args, sample.dim)
    h = select_bandwidth(args, sample, kernel)
    _write_json(args.output, {"schema": SCHEMA, "bandwidth": h,
                              "method": args.bandwidth_method})
    print(f"bandwidth: method={args.bandwidth_method} h={h:.6g}")


def cmd_ci(args):
    model = _model(args)
    axis = _grid_axis(args, model)
    if args.method == "plugin":
        result = inference.ci_plugin(model, axis, args.alpha)
    else:
        _require_seed(args)
        plan = inference.BootstrapPlan(args.boot, args.seed)
        fn = (inference.ci_bootstrap_plugin if args.method == "boot-plugin"
              else inference.ci_bootstrap)
        result = fn(model, axis, args.alpha, plan)
    _write_json(args.output, result.to_dict())
    print(f"ci: method={result.method} alpha={args.alpha} points={axis.size}")


def cmd_band(args):
    model = _model(args)
    axis = _grid_axis(args, model)
    if args.method == "evt":
        result = inference.band_plugin_evt(model, axis, args.alpha)
    elif args.method == "boot":
        _require_seed(args)
        result = inference.band_bootstrap(
            model, axis, args.alpha, inference.BootstrapPlan(args.boot, args.seed))
    else:
        _require_seed(args)
        result = inference.band_debiased_bootstrap(
            model.sample, model.kernel, model.bandwidth, axis, args.alpha,
            inference.BootstrapPlan(args.boot, args.seed))
    _write_json(args.output, result.to_dict())
    hw = "varies" if result.halfwidth is None else f"{result.halfwidth:.6g}"
    print(f"band: method={result.method} alpha={args.alpha} halfwidth={hw}")


def cmd_modes(args):
    model = _model(args)
    modes = geometry.find_modes(model, tol=args.tol, max_iter=args.max_iter)
    header = [f"x{l}" for l in range(model.dim)] + ["density"]
    _write_csv(args.output, header, [*modes.modes.T, modes.density])
    print(f"modes: found {modes.n_modes} local modes")


def cmd_levelset(args):
    level = args.level
    if level is None:
        raise ConfigError("levelset requires --lambda")
    model = _model(args)
    grid = estimator.evaluate_grid(model, resolution=args.grid)
    ls = geometry.level_set(grid, level)
    header = [f"x{l}" for l in range(model.dim)] + ["in_set", "component"]
    _write_csv(args.output, header,
               [*_grid_columns(grid), ls.mask.ravel(), ls.labels.ravel()])
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
    _write_csv(args.output, header, [*_grid_columns(grid), part.ascent_ids,
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
    axis = _grid_axis(args, model)
    scdf = distfunc.SmoothedCDF(model)
    values = distfunc.cdf_many(scdf, axis)
    _write_csv(args.output, ["x", "cdf"], [axis, values])
    print(f"cdf: evaluated at {axis.size} points, h={model.bandwidth:.6g}")


def cmd_roc(args):
    if not args.group_col:
        raise ConfigError("roc requires --group-col")
    groups = ingest(args.input, group_col=args.group_col)
    (lab_h, healthy), (lab_d, diseased) = sorted(groups.items())
    kernel = _kernel(args, 1)
    h_f = select_bandwidth(args, healthy, kernel)
    h_g = select_bandwidth(args, diseased, kernel)
    t_grid = distfunc.default_t_grid(args.grid)
    if args.seed is not None:
        plan = inference.BootstrapPlan(args.boot, args.seed)
        band = distfunc.roc_band(healthy, diseased, kernel, h_f, h_g,
                                 args.alpha, plan, t_grid)
        _write_csv(args.output, ["t", "roc", "lower", "upper"],
                   [t_grid, band.center, band.lower, band.upper])
        print(f"roc: groups=({lab_h},{lab_d}) band halfwidth={band.halfwidth:.6g}")
    else:
        curve = distfunc.roc_curve(healthy, diseased, kernel, h_f, h_g, t_grid)
        _write_csv(args.output, ["t", "roc"], [curve.t, curve.values])
        print(f"roc: groups=({lab_h},{lab_d}) curve on {t_grid.size} points")


def cmd_simulate(args):
    _require_seed(args)
    report = simulate.simulate_coverage(
        args.truth, args.n, args.method, args.alpha, args.trials, args.seed,
        replicates=args.boot, grid_size=args.grid)
    _write_json(args.output, report.to_dict())
    print(f"simulate: method={report.method} target={report.target} "
          f"coverage={report.coverage:.3f} (nominal {report.nominal:.2f}, "
          f"{report.trials} trials)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kdeforge",
        description="Kernel density estimation, inference, and feature extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="input CSV path")
        p.add_argument("--kernel", choices=["gaussian", "spherical"],
                       default="gaussian")
        p.add_argument("--bandwidth-method", choices=["rot", "lscv", "plugin",
                                                      "fixed"], default="rot")
        p.add_argument("--bandwidth", type=float, default=None,
                       help="fixed bandwidth (with --bandwidth-method fixed)")
        p.add_argument("--lscv-grid", default=None, metavar="LO:HI:COUNT")
        p.add_argument("--grid", type=int, default=256,
                       help="grid resolution per dimension")
        p.add_argument("--output", default=None, help="output file path")

    p = sub.add_parser("density", help="evaluate the KDE on a grid")
    common(p)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("bandwidth", help="select a bandwidth")
    common(p)
    p.set_defaults(func=cmd_bandwidth)

    p = sub.add_parser("ci", help="pointwise confidence intervals")
    common(p)
    p.add_argument("--method", choices=["plugin", "boot-plugin", "boot"],
                   default="plugin")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_ci)

    p = sub.add_parser("band", help="simultaneous confidence band")
    common(p)
    p.add_argument("--method", choices=["evt", "boot", "debias"], default="boot")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_band)

    for name, fn in (("modes", cmd_modes), ("ridge", cmd_ridge)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--tol", type=float, default=1e-7)
        p.add_argument("--max-iter", type=int, default=500)
        p.set_defaults(func=fn)

    p = sub.add_parser("levelset", help="superlevel set of the KDE grid")
    common(p)
    p.add_argument("--lambda", dest="level", type=float, default=None)
    p.set_defaults(func=cmd_levelset)

    p = sub.add_parser("morse", help="Morse-Smale partition of the KDE grid")
    common(p)
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("tree", help="cluster tree of the KDE grid")
    common(p)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("persist", help="0-dim persistence diagram")
    common(p)
    p.set_defaults(func=cmd_persist)

    p = sub.add_parser("cdf", help="smoothed CDF")
    common(p)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("roc", help="smoothed ROC curve (two-sample)")
    common(p)
    p.add_argument("--group-col", default=None)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None,
                   help="enables the bootstrap band")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("simulate", help="Monte Carlo coverage study")
    common(p, needs_input=False)
    p.add_argument("--truth", default="normal",
                   help="'normal' or 'mixture:w,mu1,mu2,sd1,sd2'")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--method", choices=list(simulate.METHODS),
                   default="band-bootstrap")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--boot", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
