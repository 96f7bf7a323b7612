"""Branch-free trigonometric kernels used by the transfer-matrix layer."""

import warnings

import numpy as np
import pytest

from bilayer1d.kernels import (
    SERIES_CUTOFF,
    cos_sqrt,
    sinc_sqrt,
    tanc_sqrt,
)

WIDE = np.concatenate(
    (
        -np.logspace(-10, 2.2, 120),
        np.logspace(-10, 2.2, 120),
        np.array([0.0]),
    )
)

# the series cutoff and its nextafter neighbours, on both signs
CUTOFF_EDGES = [
    c * side
    for side in (1.0, -1.0)
    for c in (
        SERIES_CUTOFF,
        np.nextafter(SERIES_CUTOFF, 0.0),
        np.nextafter(SERIES_CUTOFF, np.inf),
    )
]


def _z(w):
    # complex square root keeps one reference formula valid on both signs of w
    return np.lib.scimath.sqrt(np.asarray(w, dtype=complex))


def test_cos_sqrt_matches_reference():
    got = cos_sqrt(WIDE)
    want = np.cos(_z(WIDE))
    assert np.max(np.abs(got - want.real)) < 1e-12
    assert np.max(np.abs(want.imag)) < 1e-12


def test_sinc_sqrt_matches_reference():
    w = WIDE[np.abs(WIDE) > 1e-9]
    z = _z(w)
    got = sinc_sqrt(w)
    want = np.sin(z) / z
    assert np.max(np.abs(got - want.real) / np.abs(want.real)) < 1e-12


def test_values_at_zero():
    assert cos_sqrt(0.0) == 1.0
    assert sinc_sqrt(0.0) == 1.0
    assert tanc_sqrt(0.0) == 1.0


def test_series_joins_direct_branch_smoothly():
    # sample a dense band straddling the series/direct switchover
    for sign in (-1.0, 1.0):
        w = sign * np.linspace(0.2 * SERIES_CUTOFF, 5.0 * SERIES_CUTOFF, 4001)
        z = _z(w)
        assert np.max(np.abs(cos_sqrt(w) - np.cos(z).real)) < 1e-14
        assert np.max(np.abs(sinc_sqrt(w) - (np.sin(z) / z).real)) < 1e-14
        assert np.max(np.abs(tanc_sqrt(w) - (np.tan(z) / z).real)) < 1e-13


def test_pythagorean_identity():
    # cos_sqrt(w)^2 + w * sinc_sqrt(w)^2 == 1 holds on both signs of w;
    # normalize by the term size since cosh^2 - sinh^2 cancels catastrophically
    c2 = cos_sqrt(WIDE) ** 2
    vals = c2 + WIDE * sinc_sqrt(WIDE) ** 2
    assert np.max(np.abs(vals - 1.0) / np.maximum(1.0, np.abs(c2))) < 1e-13


def test_tanc_is_sinc_over_cos():
    w = WIDE[np.abs(cos_sqrt(WIDE)) > 0.1]
    assert np.max(np.abs(tanc_sqrt(w) - sinc_sqrt(w) / cos_sqrt(w))) < 1e-9


def test_derivative_of_cos_sqrt():
    # d/dw cos(sqrt(w)) = -sinc(sqrt(w)) / 2
    rng = np.random.default_rng(7)
    w = np.concatenate((rng.uniform(-20, 20, 50), rng.uniform(-1e-4, 1e-4, 50)))
    h = 1e-6
    numeric = (cos_sqrt(w + h) - cos_sqrt(w - h)) / (2 * h)
    assert np.max(np.abs(numeric + 0.5 * sinc_sqrt(w))) < 1e-7


def test_vectorization_preserves_shape_and_scalars():
    arr = np.array([[0.0, 1.0], [-1.0, 4.0]])
    assert cos_sqrt(arr).shape == (2, 2)
    assert np.isscalar(float(cos_sqrt(2.0)))
    assert sinc_sqrt(np.array([])).shape == (0,)


def _bits(x):
    return np.float64(x).tobytes()


@pytest.mark.parametrize("kernel", [cos_sqrt, sinc_sqrt, tanc_sqrt])
def test_scalar_call_equals_array_element(kernel):
    # the cutoffs and their neighbours, the non-finite inputs, and
    # cosh(1000) overflowing to inf
    extra = [0.0, np.inf, -np.inf, np.nan, -1e6]
    points = np.concatenate((WIDE, CUTOFF_EDGES, extra))
    with np.errstate(over="ignore"):
        want = kernel(points)
        for w, ref in zip(points, want):
            for arg in (float(w), np.float64(w), np.array(w)):
                got = kernel(arg)
                assert type(got) is float, (w, type(arg))
                assert _bits(got) == _bits(ref), (w, got, ref)


def _three_way(circular, hyperbolic, series):
    """Every branch on the whole array, picked by np.where: the kernels'
    branch formulas written out once more as the elementwise reference."""

    def reference(w):
        sp = np.sqrt(np.maximum(w, 0.0))
        sn = np.sqrt(np.maximum(-w, 0.0))
        return np.where(
            w >= SERIES_CUTOFF,
            circular(sp),
            np.where(w <= -SERIES_CUTOFF, hyperbolic(sn), series(w)),
        )

    return reference


WHERE_REFERENCE = {
    cos_sqrt: _three_way(
        np.cos, np.cosh, lambda w: 1.0 - w / 2.0 + w * w / 24.0 - w * w * w / 720.0
    ),
    sinc_sqrt: _three_way(
        lambda s: np.sin(s) / s,
        lambda s: np.sinh(s) / s,
        lambda w: 1.0 - w / 6.0 + w * w / 120.0 - w * w * w / 5040.0,
    ),
    tanc_sqrt: _three_way(
        lambda s: np.tan(s) / s,
        lambda s: np.tanh(s) / s,
        lambda w: 1.0 + w / 3.0 + 2.0 * w * w / 15.0 + 17.0 * w * w * w / 315.0,
    ),
}


def _mixed_points():
    """All three branches shuffled together, with the cutoffs and their
    nextafter neighbours, 0, NaN and +-inf."""
    rng = np.random.default_rng(41)
    points = np.concatenate(
        (
            WIDE,
            rng.uniform(-3.0 * SERIES_CUTOFF, 3.0 * SERIES_CUTOFF, 40),
            CUTOFF_EDGES,
            [0.0, -0.0, np.nan, np.inf, -np.inf, np.nan],
        )
    )
    rng.shuffle(points)
    return points


MIXED = _mixed_points()
ARRAYS = {
    "mixed": MIXED,
    "mixed-2d": MIXED[: MIXED.size // 4 * 4].reshape(-1, 4),
    "circular-only": MIXED[MIXED >= SERIES_CUTOFF],
    "hyperbolic-only": MIXED[MIXED <= -SERIES_CUTOFF].reshape(1, -1),
    "series-only": MIXED[np.abs(MIXED) < SERIES_CUTOFF],
    "non-finite": np.array([np.nan, np.inf, -np.inf]),
    "empty": np.array([]),
    "empty-2d": np.zeros((0, 3)),
}


@pytest.mark.parametrize("case", list(ARRAYS))
@pytest.mark.parametrize("kernel", [cos_sqrt, sinc_sqrt, tanc_sqrt])
def test_array_call_equals_where_reference_and_scalar_calls(kernel, case):
    # each branch runs only on its own elements; every element must still
    # match the all-branch np.where reference and the scalar call bit for
    # bit, with the shape kept and no warning (none of these overflow)
    w = ARRAYS[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernel(w)
        scalars = [kernel(float(x)) for x in w.ravel()]
    with np.errstate(all="ignore"):
        want = WHERE_REFERENCE[kernel](w)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == w.shape
    assert got.tobytes() == want.tobytes()
    assert np.array(scalars, dtype=float).tobytes() == got.ravel().tobytes()
