"""Kernel functions, the integrated 1-d kernel, and kernel constants.

Two radially symmetric families are supported:

* ``gaussian``:  K(x) = exp(-||x||^2 / 2) / (2*pi)^(d/2)
* ``spherical``: K(x) = I(||x|| <= 1) / V_d,  V_d = volume of the unit d-ball

The constants that enter every error formula are

* ``sigma_k2`` = integral of ||x||^2 K(x) dx  (total second moment, summed
  over coordinates -- some texts use the per-coordinate moment instead)
* ``mu_k``     = integral of K(x)^2 dx

Closed forms: Gaussian sigma_k2 = d, mu_k = (4*pi)^(-d/2);
spherical sigma_k2 = d / (d + 2), mu_k = 1 / V_d.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class KernelFamily(enum.Enum):
    GAUSSIAN = "gaussian"
    SPHERICAL = "spherical"


class UnsupportedDerivativeError(ValueError):
    """Raised when analytic derivatives are requested for a kernel without them."""


def unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class KernelSpec:
    """A kernel family together with the ambient dimension."""

    family: KernelFamily
    dim: int

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", KernelFamily(self.family.lower()))
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    @property
    def normalizer(self) -> float:
        """v_{1,d} = (2*pi)^(d/2) for Gaussian, v_{2,d} = unit-ball volume for spherical."""
        if self.family is KernelFamily.GAUSSIAN:
            return (2.0 * math.pi) ** (self.dim / 2.0)
        return unit_ball_volume(self.dim)

    @property
    def differentiable(self) -> bool:
        return self.family is KernelFamily.GAUSSIAN


def evaluate_many(spec: KernelSpec, u: np.ndarray) -> np.ndarray:
    """Vectorized kernel evaluation over rows of an (m, d) array."""
    return evaluate_sq(spec, np.sum(np.square(u), axis=-1))


def evaluate_sq(spec: KernelSpec, sq: np.ndarray, out=None) -> np.ndarray:
    """Kernel values K(u) from an array of squared norms sq = ||u||^2,
    written to ``out`` when it is given."""
    if spec.family is KernelFamily.GAUSSIAN:
        k = np.multiply(sq, -0.5, out=out)
        np.exp(k, out=k)
        k /= spec.normalizer
        return k
    # Closed indicator: the boundary ||u|| = 1 takes the interior value.
    return np.divide(sq <= 1.0, spec.normalizer, out=out)


def integrated(spec: KernelSpec, u, out=None) -> np.ndarray:
    """CDF of the 1-d kernel, the integral of K from -inf to u, elementwise:
    Phi(u) for Gaussian, the ramp clip((u + 1) / 2, 0, 1) for spherical;
    written to ``out`` when it is given (which may be u itself)."""
    if spec.dim != 1:
        raise ValueError(f"integrated kernel requires d = 1, got {spec.dim}")
    if spec.family is KernelFamily.GAUSSIAN:
        from scipy.special import ndtr
        return ndtr(u, out=out)
    return np.clip((u + 1.0) / 2.0, 0.0, 1.0, out=out)


def constants(spec: KernelSpec) -> dict:
    """Kernel constants {sigma_k2, mu_k} in closed form."""
    d = spec.dim
    if spec.family is KernelFamily.GAUSSIAN:
        return {"sigma_k2": float(d), "mu_k": (4.0 * math.pi) ** (-d / 2.0)}
    return {"sigma_k2": d / (d + 2.0), "mu_k": 1.0 / unit_ball_volume(d)}
