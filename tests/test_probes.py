"""Test functions used for distributional pairings."""

import math

import numpy as np
import pytest

from bilayer1d import probes


def _check_derivative(probe, xs, tol=2e-6):
    h = 1e-6
    for x in xs:
        numeric = (probe.f(x + h) - probe.f(x - h)) / (2 * h)
        assert numeric == pytest.approx(probe.df(x), rel=tol, abs=tol)


def test_bump_has_compact_support():
    probe = probes.bump(width=1.0, center=0.0)
    lo, hi = probe.support
    assert lo == pytest.approx(-1.0)
    assert hi == pytest.approx(1.0)
    assert probe.f(0.0) > 0.0
    for x in (-1.0, 1.0, -1.5, 2.0):
        assert probe.f(x) == 0.0
        assert probe.df(x) == 0.0
    _check_derivative(probe, np.linspace(-0.95, 0.95, 21))


def test_bump_is_smooth_at_the_edge():
    probe = probes.bump(width=1.0)
    xs = np.linspace(0.999, 1.001, 101)
    vals = np.array([probe.f(x) for x in xs])
    assert np.all(np.isfinite(vals))
    assert vals[-1] == 0.0


def test_gaussian_matches_formula():
    probe = probes.gaussian(sigma=2.0, center=0.5)
    xs = np.linspace(-4.0, 4.0, 17)
    for x in xs:
        want = np.exp(-((x - 0.5) ** 2) / (2.0 * 2.0**2))
        assert probe.f(x) == pytest.approx(want, rel=1e-12)
    _check_derivative(probe, xs)
    # truncated at 8 sigma
    assert probe.support == (0.5 - 16.0, 0.5 + 16.0)


def test_gaussian_bump_vanishes_outside_window():
    probe = probes.gaussian_bump(sigma=1.0, width=3.0, center=0.0)
    assert probe.f(0.0) > 0.0
    assert probe.f(3.5) == 0.0
    assert probe.support[1] == pytest.approx(3.0)
    _check_derivative(probe, np.linspace(-2.5, 2.5, 11))


def test_tabulated_interpolates_samples():
    xs = np.linspace(-2.0, 2.0, 81)
    ys = np.sin(xs) * np.exp(-(xs**2))
    probe = probes.tabulated(xs, ys)
    for i in (0, 17, 40, 80):
        assert probe.f(xs[i]) == pytest.approx(ys[i], abs=1e-12)
    mid = 0.5 * (xs[3] + xs[4])
    assert probe.f(mid) == pytest.approx(np.sin(mid) * np.exp(-(mid**2)), abs=1e-3)
    assert probe.f(5.0) == 0.0
    assert probe.df(0.0) == pytest.approx(1.0, abs=1e-3)


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ValueError):
        probes.tabulated([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        probes.tabulated([1.0, 0.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("value", [-30.0, -0.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [lambda v: probes.bump(width=v, center=5.0),
     lambda v: probes.gaussian(sigma=v),
     lambda v: probes.gaussian_bump(sigma=v, width=3.0),
     lambda v: probes.gaussian_bump(sigma=1.0, width=v)],
    ids=["bump-width", "gaussian-sigma", "gaussian_bump-sigma", "gaussian_bump-width"],
)
def test_a_width_or_sigma_that_is_not_finite_and_positive_is_refused(build, value):
    # a negative width once reversed the support, so every pairing read 0,
    # and a zero width divided by zero only when the probe was evaluated
    with pytest.raises(ValueError, match="must be finite and positive"):
        build(value)


@pytest.mark.parametrize(
    "build",
    [lambda s: probes.gaussian(sigma=s), lambda s: probes.gaussian_bump(sigma=s, width=3.0)],
    ids=["gaussian", "gaussian_bump"],
)
def test_a_sigma_whose_square_underflows_is_refused(build):
    # sigma**2 = 0 once divided by zero only when the probe was evaluated
    with pytest.raises(ValueError, match="sigma = 1e-200 is too small"):
        build(1e-200)
    # 1e-160 squared is subnormal, not 0, so the probe still evaluates
    assert build(1e-160).df(0.0) == 0.0


def test_a_gaussian_wider_than_the_float_range_of_its_square_evaluates():
    probe = probes.gaussian(sigma=1e200)
    assert probe.f(1.0) == 1.0
    assert probe.df(1.0) == 0.0


def test_a_gaussian_bump_wider_than_the_float_range_of_its_square_is_its_window():
    # sigma ** 2 once raised a bare OverflowError here
    probe, window = probes.gaussian_bump(sigma=1e200, width=3.0), probes.bump(width=3.0)
    assert probe.support == window.support
    for x in (-2.0, 0.0, 0.7, 2.9):
        assert probe.f(x) == window.f(x)
        assert probe.df(x) == window.df(x)
