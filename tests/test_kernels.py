import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from kdeforge import kernels
from kdeforge.kernels import KernelFamily, KernelSpec

GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1)
GAUSS2 = KernelSpec(KernelFamily.GAUSSIAN, 2)
SPHERE1 = KernelSpec(KernelFamily.SPHERICAL, 1)


def kernel_at(spec, point):
    """K(u) at one point, through the vectorized evaluator."""
    return float(kernels.evaluate_many(spec, np.array([point], dtype=float))[0])


def test_gaussian_origin_d1():
    assert kernel_at(GAUSS1, [0.0]) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert kernel_at(GAUSS1, [0.0]) == pytest.approx(0.3989423, abs=1e-7)


def test_spherical_inside_d1():
    assert kernel_at(SPHERE1, [0.5]) == pytest.approx(0.5)
    assert kernel_at(SPHERE1, [1.0]) == pytest.approx(0.5)  # closed boundary
    assert kernel_at(SPHERE1, [1.0001]) == 0.0


def test_gaussian_d2_closed_form():
    expected = math.exp(-0.5) / (2 * math.pi)
    assert kernel_at(GAUSS2, [1.0, 0.0]) == pytest.approx(expected)
    assert expected == pytest.approx(0.0965324, abs=1e-7)


def test_evaluate_sq_matches_evaluate_many(rng):
    for spec in (GAUSS1, SPHERE1, GAUSS2, KernelSpec(KernelFamily.SPHERICAL, 2)):
        u = rng.normal(size=(50, spec.dim))
        sq = np.sum(np.square(u), axis=-1)
        want = kernels.evaluate_many(spec, u)
        np.testing.assert_array_equal(kernels.evaluate_sq(spec, sq), want)
        out = np.empty(50)
        assert kernels.evaluate_sq(spec, sq, out=out) is out
        np.testing.assert_array_equal(out, want)


@pytest.mark.parametrize("spec", [GAUSS1, SPHERE1])
def test_integrated_matches_quadrature(spec):
    # oracle: quadrature of the kernel itself from far in the left tail; the
    # spherical kernel's jumps at -1 and 1 are passed as breakpoints
    for u in (-7.0, -1.5, -1.0, -0.3, 0.0, 0.4, 1.0, 2.5):
        quad, _ = integrate.quad(lambda s: kernel_at(spec, [s]), -12.0, u,
                                 points=[p for p in (-1.0, 1.0) if -12.0 < p < u],
                                 limit=200)
        assert kernels.integrated(spec, np.array([u]))[0] == pytest.approx(
            quad, abs=1e-10)


def test_integrated_requires_univariate():
    with pytest.raises(ValueError, match="d = 1"):
        kernels.integrated(GAUSS2, np.zeros(3))


def test_constants_closed_forms():
    c = kernels.constants(GAUSS1)
    assert c["sigma_k2"] == pytest.approx(1.0)
    assert c["mu_k"] == pytest.approx(1 / (2 * math.sqrt(math.pi)))
    assert c["mu_k"] == pytest.approx(0.2820948, abs=1e-7)

    c = kernels.constants(SPHERE1)
    assert c["sigma_k2"] == pytest.approx(1 / 3)
    assert c["mu_k"] == pytest.approx(0.5)

    assert kernels.constants(GAUSS2)["sigma_k2"] == pytest.approx(2.0)


@pytest.mark.parametrize("spec", [GAUSS1, SPHERE1, GAUSS2,
                                  KernelSpec(KernelFamily.SPHERICAL, 2)])
def test_constants_match_quadrature(spec):
    # independent quadrature oracle on a fine grid; the spherical kernel has a
    # jump at the unit sphere, so it gets a tighter domain and looser tolerance
    spherical = spec.family is KernelFamily.SPHERICAL
    lim = 2.0 if spherical else 8.0
    if spec.dim == 1:
        xs = np.linspace(-lim, lim, 80001)[:, None]
        weights = np.full(xs.shape[0], xs[1, 0] - xs[0, 0])
    else:
        ax = np.linspace(-lim, lim, 2401)
        xx, yy = np.meshgrid(ax, ax, indexing="ij")
        xs = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        weights = np.full(xs.shape[0], (ax[1] - ax[0]) ** 2)
    k = kernels.evaluate_many(spec, xs)
    total = float(np.sum(k * weights))
    sigma = float(np.sum(np.sum(xs**2, axis=1) * k * weights))
    mu = float(np.sum(k**2 * weights))
    tol = 5e-3 if spherical else 1e-4
    assert total == pytest.approx(1.0, abs=tol)
    c = kernels.constants(spec)
    assert sigma == pytest.approx(c["sigma_k2"], abs=tol)
    assert mu == pytest.approx(c["mu_k"], abs=tol)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=2))
def test_symmetry_and_nonnegativity(point):
    for spec in (GAUSS2, KernelSpec(KernelFamily.SPHERICAL, 2)):
        v = kernel_at(spec, point)
        assert v >= 0
        assert v == kernel_at(spec, [-point[0], -point[1]])


def test_normalizers():
    assert GAUSS2.normalizer == pytest.approx(2 * math.pi)
    assert SPHERE1.normalizer == pytest.approx(2.0)
    assert KernelSpec(KernelFamily.SPHERICAL, 2).normalizer == pytest.approx(math.pi)
