"""Per-layer spans, recorded from outside the program for the traced run.

``install()`` wraps the public functions of each kdeforge module (the layers)
in a timing span, in every module that binds the function's name: for
example ``estimator`` imports ``evaluate_many`` from ``kernels``, so the
wrapper replaces both bindings.  Spans nest; a span's self time is its
duration minus the time its child spans cover.  Counters read the arguments
and results at the same boundaries.  The program's files are not changed.

Mean-shift and SCMS iteration counts are not visible at these boundaries;
they need spans inside the program.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute) of each traced function.  A dotted attribute names a
# method on a class.
TRACED = (
    ("cli", "main"), ("cli", "ingest"),
    ("kernels", "evaluate_many"),
    ("estimator", "evaluate_grid"), ("estimator", "density"),
    ("estimator", "kernel_value_matrix"), ("estimator", "kernel_laplacian_matrix"),
    ("estimator", "gradient"), ("estimator", "hessian_at"),
    ("bandwidth", "lscv"), ("bandwidth", "amise_plugin"),
    ("bandwidth", "rule_of_thumb"),
    ("inference", "resample_counts"), ("inference", "bootstrap_density_matrix"),
    ("inference", "DebiasedDensity.correction_matrix"),
    ("inference", "band_debiased_bootstrap"), ("inference", "band_bootstrap"),
    ("inference", "ci_bootstrap"), ("inference", "empirical_quantile"),
    ("geometry", "find_modes"), ("geometry", "scms"), ("geometry", "morse_smale"),
    ("geometry", "level_set"),
    ("topology", "cluster_tree"), ("topology", "persistence_diagram"),
    ("distfunc", "cdf_many"), ("distfunc", "roc_curve"), ("distfunc", "roc_band"),
    ("distfunc", "cdf_inverse"), ("distfunc", "cdf_at"),
    ("simulate", "simulate_coverage"),
)

# Per-layer metrics of the traced run.  "<module>.<function>_s" is the self
# time of that function's span; units are listed in BENCHMARK.json.
PER_LAYER = (
    "cli.ingest_s", "cli.ingest_calls", "cli.ingest_rows", "cli.self_s",
    "kernels.evaluate_many_s", "kernels.pair_evals", "kernels.bytes_computed",
    "kernels.near_pair_ratio", "estimator.evaluate_grid_s",
    "estimator.grid_points", "estimator.density_s",
    "estimator.kernel_value_matrix_s", "estimator.kernel_laplacian_matrix_s",
    "estimator.gradient_s", "estimator.hessian_at_s",
    "estimator.hessian_at_calls", "bandwidth.lscv_s",
    "bandwidth.lscv_candidates", "bandwidth.lscv_pairs",
    "bandwidth.amise_plugin_s", "bandwidth.rule_of_thumb_calls",
    "inference.resample_counts_s", "inference.replicates",
    "inference.counts_bytes", "inference.bootstrap_density_matrix_s",
    "inference.correction_matrix_s", "inference.band_debiased_bootstrap_s",
    "inference.band_bootstrap_s", "inference.ci_bootstrap_s",
    "inference.empirical_quantile_calls", "geometry.find_modes_s",
    "geometry.scms_s", "geometry.morse_smale_s", "geometry.level_set_s",
    "geometry.starts", "geometry.modes_found", "geometry.ridge_points",
    "geometry.scms_converged_ratio", "geometry.scms_dropped_degenerate",
    "topology.cluster_tree_s", "topology.persistence_diagram_s",
    "topology.grid_points_swept", "topology.tree_nodes", "distfunc.cdf_many_s",
    "distfunc.roc_curve_s", "distfunc.roc_band_s",
    "distfunc.cdf_inverse_calls", "distfunc.cdf_at_calls",
    "simulate.simulate_coverage_s", "simulate.trials", "simulate.trial_s",
)


def _count_ingest(c, args, kwargs, out):
    c["cli.ingest_rows"] += (sum(s.n for s in out.values()) if isinstance(out, dict)
                             else out.n)


def _count_kernel(c, args, kwargs, out, radius, gaussian):
    spec, u = args[0], np.asarray(args[1])
    c["kernels.pair_evals"] += out.size
    c["kernels.bytes_computed"] += u.nbytes + out.nbytes
    if spec.family is gaussian:
        # K = exp(-|u|^2 / 2) / norm is monotone in |u|, so the radius test
        # can be read off the output without recomputing |u|^2.
        near = np.count_nonzero(out >= math.exp(-0.5 * radius**2) / spec.normalizer)
    else:
        near = np.count_nonzero(np.sum(u * u, axis=-1) <= radius**2)
    c["kernels.near_pairs"] += int(near)


def _count_grid(c, args, kwargs, out):
    c["estimator.grid_points"] += out.values.size


def _count_lscv(c, args, kwargs, out):
    n = args[0].n
    c["bandwidth.lscv_candidates"] += out.grid.size
    c["bandwidth.lscv_pairs"] += n * (n - 1) // 2


def _count_resample(c, args, kwargs, out):
    c["inference.replicates"] += out.shape[0]
    c["inference.counts_bytes"] += out.nbytes


def _count_modes(c, args, kwargs, out):
    c["geometry.starts"] += out.converged.size
    c["geometry.modes_found"] += out.n_modes


def _count_scms(c, args, kwargs, out):
    c["geometry.starts"] += out.converged.size
    c["geometry.scms_starts"] += out.converged.size
    c["geometry.scms_converged"] += int(out.converged.sum())
    c["geometry.ridge_points"] += out.points.shape[0]
    c["geometry.scms_dropped_degenerate"] += out.dropped_degenerate


def _count_tree(c, args, kwargs, out):
    c["topology.grid_points_swept"] += args[0].values.size
    c["topology.tree_nodes"] += len(out.nodes)


def _count_simulate(c, args, kwargs, out):
    c["simulate.trials"] += out.trials


COUNTERS = {
    "cli.ingest": _count_ingest,
    "estimator.evaluate_grid": _count_grid,
    "bandwidth.lscv": _count_lscv,
    "inference.resample_counts": _count_resample,
    "geometry.find_modes": _count_modes,
    "geometry.scms": _count_scms,
    "topology.cluster_tree": _count_tree,
    "simulate.simulate_coverage": _count_simulate,
}


class Tracer:
    """Accumulates span self times, inclusive times and counters in memory."""

    def __init__(self):
        self._open = []  # per open span: time covered by its children so far
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)

    def wrap(self, name, fn, counter=None):
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = time.perf_counter()
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
            finally:
                elapsed = time.perf_counter() - t0
                self.self_s[name] += elapsed - open_spans.pop()
                self.total_s[name] += elapsed
                self.counts[name + "_calls"] += 1
                if done and counter is not None:
                    counter(self.counts, args, kwargs, out)
                # The parent sees this child as lasting until after its
                # counter ran, so counting is not charged to the parent.
                if open_spans:
                    open_spans[-1] += time.perf_counter() - t0
            return out

        return traced

    def harvest(self) -> dict:
        """Per-layer metrics since the last harvest; resets the accumulators."""
        s, t, c = self.self_s, self.total_s, self.counts
        ratio = lambda a, b: c[a] / c[b] if c[b] else 0.0  # noqa: E731
        out = {}
        for name in PER_LAYER:
            if name == "cli.self_s":
                out[name] = s["cli.main"]
            elif name == "kernels.near_pair_ratio":
                out[name] = ratio("kernels.near_pairs", "kernels.pair_evals")
            elif name == "geometry.scms_converged_ratio":
                out[name] = ratio("geometry.scms_converged", "geometry.scms_starts")
            elif name == "simulate.trial_s":
                trials = c["simulate.trials"]
                out[name] = t["simulate.simulate_coverage"] / trials if trials else 0.0
            elif name.endswith("_s"):
                out[name] = s[name[:-2]]
            else:
                out[name] = c[name]
        s.clear()
        t.clear()
        c.clear()
        return out


def install() -> Tracer:
    """Wrap every traced function in all kdeforge modules that bind it."""
    import kdeforge.cli  # noqa: F401  (imports every layer)
    from kdeforge.estimator import TRUNCATION_RADIUS
    from kdeforge.kernels import KernelFamily

    counters = dict(COUNTERS)
    counters["kernels.evaluate_many"] = functools.partial(
        _count_kernel, radius=TRUNCATION_RADIUS, gaussian=KernelFamily.GAUSSIAN)
    tracer = Tracer()
    modules = [m for k, m in sys.modules.items()
               if m is not None and (k == "kdeforge" or k.startswith("kdeforge."))]
    for mod_name, attr in TRACED:
        module = sys.modules["kdeforge." + mod_name]
        span = f"{mod_name}.{attr.split('.')[-1]}"
        counter = counters.get(span)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, tracer.wrap(span, getattr(cls, meth), counter))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(span, original, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return tracer
