"""kdeforge: kernel density estimation, bootstrap inference, and
geometric/topological feature extraction."""

from .bandwidth import BandwidthSelector, SelectorMethod, amise_plugin, lscv, rule_of_thumb
from .estimator import DensityModel, EvalGrid, Sample, density_at, evaluate_grid
from .inference import (
    BandResult,
    BootstrapPlan,
    DebiasedDensity,
    IntervalResult,
    band_bootstrap,
    band_debiased_bootstrap,
    band_plugin_evt,
    ci_bootstrap,
    ci_bootstrap_plugin,
    ci_plugin,
)
from .kernels import KernelFamily, KernelSpec

__all__ = [
    "BandResult",
    "BandwidthSelector",
    "BootstrapPlan",
    "DebiasedDensity",
    "DensityModel",
    "EvalGrid",
    "IntervalResult",
    "KernelFamily",
    "KernelSpec",
    "Sample",
    "SelectorMethod",
    "amise_plugin",
    "band_bootstrap",
    "band_debiased_bootstrap",
    "band_plugin_evt",
    "ci_bootstrap",
    "ci_bootstrap_plugin",
    "ci_plugin",
    "density_at",
    "evaluate_grid",
    "lscv",
    "rule_of_thumb",
]

__version__ = "0.1.0"
