"""Monte Carlo coverage harness for the interval and band constructions.

Each trial draws a fresh sample from a named truth (standard normal or a
two-component normal mixture), builds the requested confidence construction,
and records whether the target function is covered at every evaluation point.
Targets:

* ``smoothed`` -- the exact expectation of the KDE under the truth, available
  in closed form for Gaussian kernels (convolution: a N(mu, s^2) component
  smoothed at bandwidth h becomes N(mu, s^2 + h^2)).
* ``true``     -- the truth density itself (the debiased band's target).

Coverage is evaluated on the grid restricted to the truth's central region
[mu - 3 s, mu + 3 s] to avoid tail artifacts; the restriction is recorded in
the report metadata.

Trial t draws everything from default_rng([seed, 10 000 + t]).  Trial 0
runs first, in the caller; unless the rest would take only milliseconds,
the trials after it run in contiguous ranges, one per CPU of the affinity
mask, all but the first in forked worker processes (``blocks.run_forked``).
Outcomes are joined in trial order, so the report is the same bytes on any
number of CPUs.  A bad configuration is refused before any trial runs, so
that no configuration error comes from a worker.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import bandwidth, blocks, inference
from .estimator import DensityModel, Sample
from .kernels import KernelFamily, KernelSpec


def _check_normal(mean: float, sd: float, suffix: str = ""):
    """Refuse a normal component whose mean is not finite or whose sd is not
    finite and positive, naming the parameter (``mean`` or ``sd`` + suffix)."""
    if not math.isfinite(mean):
        raise ValueError(f"mean{suffix} must be finite, got {mean}")
    if not math.isfinite(sd):
        raise ValueError(f"sd{suffix} must be finite, got {sd}")
    if sd <= 0:
        raise ValueError(f"sd{suffix} must be positive, got {sd}")


class _NormalComponents:
    """The density, smoothed density and central region of a truth made of
    the normal components (weight, mean, sd) that ``_components`` gives."""

    def pdf(self, x: np.ndarray) -> np.ndarray:
        return self.smoothed_pdf(x, 0.0)

    def smoothed_pdf(self, x: np.ndarray, h: float) -> np.ndarray:
        out = np.zeros_like(np.asarray(x, dtype=float))
        for w, mu, sd in self._components():
            s = np.sqrt(sd**2 + h**2) if h else sd  # sd**2 may underflow
            z = (x - mu) / s
            out = out + w * np.exp(-0.5 * z * z) / (s * np.sqrt(2 * np.pi))
        return out

    def central_region(self):
        components = self._components()
        return (min(mu - 3 * sd for _, mu, sd in components),
                max(mu + 3 * sd for _, mu, sd in components))


@dataclass(frozen=True)
class NormalTruth(_NormalComponents):
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        _check_normal(self.mean, self.sd)

    def _components(self):
        return ((1.0, self.mean, self.sd),)

    def sample(self, rng: np.random.Generator, n: int) -> Sample:
        return Sample(rng.normal(self.mean, self.sd, size=n))


@dataclass(frozen=True)
class NormalMixtureTruth(_NormalComponents):
    weight: float
    mean1: float
    mean2: float
    sd1: float = 1.0
    sd2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.weight < 1.0:
            raise ValueError("mixture weight must be in (0, 1)")
        _check_normal(self.mean1, self.sd1, "1")
        _check_normal(self.mean2, self.sd2, "2")

    def _components(self):
        return ((self.weight, self.mean1, self.sd1),
                (1.0 - self.weight, self.mean2, self.sd2))

    def sample(self, rng: np.random.Generator, n: int) -> Sample:
        pick = rng.random(n) < self.weight
        x = np.where(pick,
                     rng.normal(self.mean1, self.sd1, n),
                     rng.normal(self.mean2, self.sd2, n))
        return Sample(x)


@dataclass(frozen=True)
class CoverageReport:
    method: str
    target: str
    nominal: float
    trials: int
    coverage: float
    mean_width: float
    runtime_seconds: float  # wall clock; kept out of to_dict for determinism
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "target": self.target,
            "nominal": self.nominal,
            "trials": self.trials,
            "coverage": self.coverage,
            "mean_width": self.mean_width,
            "metadata": self.metadata,
        }


# Each construction, called as (model, grid, alpha, plan).  The entries look
# the function up on ``inference`` at call time, so that a function rebound
# there, such as a timing wrapper, is the one that runs.
METHODS = {
    "ci-plugin": lambda model, grid, alpha, plan: inference.ci_plugin(model, grid, alpha),
    "ci-bootstrap-plugin": lambda *args: inference.ci_bootstrap_plugin(*args),
    "ci-bootstrap": lambda *args: inference.ci_bootstrap(*args),
    "band-bootstrap": lambda *args: inference.band_bootstrap(*args),
    "band-debiased": lambda *args: inference.band_debiased_bootstrap(*args),
}
# The methods whose construction also checks B (``inference._check_bootstrap``).
_CHECKS_B = {"ci-bootstrap", "band-bootstrap", "band-debiased"}


def parse_truth(spec: str):
    """Parse a truth spec string: ``normal`` or ``mixture:w,mu1,mu2,sd1,sd2``."""
    spec = spec.strip().lower()
    if spec == "normal":
        return NormalTruth()
    if spec.startswith("mixture:"):
        parts = [float(v) for v in spec.split(":", 1)[1].split(",")]
        if len(parts) != 5:
            raise ValueError("mixture truth needs 5 parameters: w,mu1,mu2,sd1,sd2")
        return NormalMixtureTruth(parts[0], parts[1], parts[2], parts[3], parts[4])
    raise ValueError(f"unknown truth spec: {spec!r}")


def simulate_coverage(truth, n: int, method: str, alpha: float, trials: int,
                      seed: int, replicates: int = 1000,
                      grid_size: int = 256, h: float | None = None,
                      eval_points=None) -> CoverageReport:
    """Empirical simultaneous coverage of the target over repeated trials.

    ``h = None`` reselects the rule-of-thumb bandwidth per trial.  Passing
    explicit ``eval_points`` (e.g. a single point) turns the check into
    pointwise coverage; the default grid spans the truth's central region.
    """
    if isinstance(truth, str):
        truth = parse_truth(truth)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    least_n = 2 if h is None else 1  # the rule of thumb needs a spread
    if n < least_n:
        raise ValueError(f"n must be >= {least_n}, got {n}")
    plan = inference.BootstrapPlan(replicates, seed)  # checks B and the seed
    if method in _CHECKS_B:
        inference._check_bootstrap(alpha, plan)
    else:
        inference._check_alpha(alpha)
    target = "true" if method == "band-debiased" else "smoothed"
    lo, hi = truth.central_region()
    if eval_points is None and grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    grid = (np.asarray(eval_points, dtype=float).ravel()
            if eval_points is not None else np.linspace(lo, hi, grid_size))
    if grid.size == 0 or not np.all(np.isfinite(grid)):
        raise ValueError("eval_points must be nonempty and finite")

    start = time.perf_counter()
    run = functools.partial(_run_trials, truth, n, method, alpha, seed,
                            replicates, grid, h, target)
    outcomes = [o for part in blocks.run_forked(run, trials) for o in part]
    widths = np.array([width for _, width in outcomes])
    elapsed = time.perf_counter() - start
    return CoverageReport(
        method=method, target=target, nominal=1.0 - alpha, trials=trials,
        coverage=sum(covered for covered, _ in outcomes) / trials,
        mean_width=float(widths.mean()), runtime_seconds=elapsed,
        metadata={
            "n": n, "replicates": replicates, "seed": seed,
            "grid": [float(grid.min()), float(grid.max()), int(grid.size)],
            "central_region": [lo, hi],
            "bandwidth": "rule-of-thumb" if h is None else h,
        },
    )


def _run_trials(truth, n, method, alpha, seed, replicates, grid, h, target,
                trials: range) -> list:
    """(covered, mean width) of each trial in ``trials``, in order.  Trial t
    draws everything from default_rng([seed, 10 000 + t]), so it gives the
    same outcome in whichever process runs it."""
    kernel = KernelSpec(KernelFamily.GAUSSIAN, 1)
    outcomes = []
    for t in trials:
        rng = np.random.default_rng([int(seed), 10_000 + t])
        sample = truth.sample(rng, n)
        h_t = h if h is not None else bandwidth.rule_of_thumb(sample)
        model = DensityModel(sample, kernel, h_t)
        plan = inference.BootstrapPlan(replicates, int(rng.integers(2**63)))
        result = METHODS[method](model, grid, alpha, plan)
        target_vals = (truth.pdf(grid) if target == "true"
                       else truth.smoothed_pdf(grid, h_t))
        covered = np.all((result.lower <= target_vals)
                         & (target_vals <= result.upper))
        outcomes.append((bool(covered), float(np.mean(result.upper - result.lower))))
    return outcomes
