"""Smooth test functions for distributional pairings.

A Probe bundles a scalar function, its derivative and a compact support
interval.  Pairings only ever evaluate f inside the support and df at
isolated points, so plain Python scalars are enough.  A probe whose
antiderivative is known in closed form (the tabulated spline) also
carries integral(a, b), the exact integral of f over [a, b] inside the
support; pairings use it in place of adaptive quadrature of f.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Probe:
    f: object
    df: object
    support: tuple
    integral: object = None


def _positive(name, value):
    """float(value), refused with ValueError unless finite and positive."""
    x = float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {x!r}")
    return x


def _sigma(value):
    """_positive("sigma", value), refused too when its square underflows to 0."""
    s = _positive("sigma", value)
    if s * s == 0.0:
        raise ValueError(f"sigma = {s!r} is too small: its square underflows to 0")
    return s


def bump(width=1.0, center=0.0):
    """The classic compactly supported mollifier exp(-1/(1-u^2))."""
    w = _positive("width", width)
    c = float(center)

    def f(x):
        u = (x - c) / w
        if abs(u) >= 1.0 - 1e-12:
            return 0.0
        return math.exp(-1.0 / (1.0 - u * u))

    def df(x):
        u = (x - c) / w
        if abs(u) >= 1.0 - 1e-12:
            return 0.0
        den = 1.0 - u * u
        return math.exp(-1.0 / den) * (-2.0 * u / (w * den * den))

    return Probe(f, df, (c - w, c + w))


def gaussian_bump(sigma, width, center=0.0):
    """Gaussian modulated by a bump window, so the support is compact."""
    window = bump(width, center)
    s = _sigma(sigma)
    s2 = s * s  # inf beyond the float range, where the Gaussian is flat
    c = float(center)

    def f(x):
        return math.exp(-((x - c) ** 2) / (2.0 * s2)) * window.f(x)

    def df(x):
        g = math.exp(-((x - c) ** 2) / (2.0 * s2))
        return g * (window.df(x) - (x - c) / s2 * window.f(x))

    return Probe(f, df, window.support)


def gaussian(sigma, center=0.0):
    """Plain Gaussian, truncated at 8 sigma; the mass outside the nominal
    support is below 1.3e-15 of the total."""
    s = _sigma(sigma)
    c = float(center)

    def f(x):
        return math.exp(-((x - c) ** 2) / (2.0 * s * s))

    def df(x):
        return -(x - c) / (s * s) * f(x)

    return Probe(f, df, (c - 8.0 * s, c + 8.0 * s))


def tabulated(xs, ys):
    """Cubic-spline probe through sample points; zero outside the table."""
    from scipy.interpolate import CubicSpline

    spline = CubicSpline(xs, ys)
    deriv = spline.derivative()
    lo, hi = float(xs[0]), float(xs[-1])

    def f(x):
        if x < lo or x > hi:
            return 0.0
        return float(spline(x))

    def df(x):
        if x < lo or x > hi:
            return 0.0
        return float(deriv(x))

    def integral(a, b):
        return float(spline.integrate(a, b))

    return Probe(f, df, (lo, hi), integral=integral)
