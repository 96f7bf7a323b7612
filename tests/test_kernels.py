"""Branch-free trigonometric kernels used by the transfer-matrix layer."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from bilayer1d.kernels import cos_sqrt, sinc_sqrt, tanc_sqrt

WIDE = np.concatenate(
    (
        -np.logspace(-10, 2.2, 120),
        np.logspace(-10, 2.2, 120),
        np.array([0.0]),
    )
)

# both sides of the sign split: +-0, the smallest subnormals, and 1e-6
# with its nextafter neighbours
EDGES = [
    c * side
    for side in (1.0, -1.0)
    for c in (0.0, 5e-324, 1e-6, np.nextafter(1e-6, 0.0), np.nextafter(1e-6, np.inf))
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
    for w in (0.0, -0.0):
        assert cos_sqrt(w) == 1.0
        assert sinc_sqrt(w) == 1.0
        assert tanc_sqrt(w) == 1.0


MPMATH_REFERENCE = {
    cos_sqrt: (mp.cos, mp.cosh),
    sinc_sqrt: (lambda s: mp.sin(s) / s, lambda s: mp.sinh(s) / s),
    tanc_sqrt: (lambda s: mp.tan(s) / s, lambda s: mp.tanh(s) / s),
}


def test_direct_formulas_match_mpmath_near_zero():
    # the direct formulas need no series near w = 0: on 0 < |w| <= 1e-4,
    # subnormals included, they hold to 4 units of 2^-53 against 40 digits
    rng = np.random.default_rng(43)
    mags = np.concatenate(
        (np.logspace(-323.5, -4.0, 300), rng.uniform(0.0, 1e-6, 100),
         rng.uniform(0.0, 1e-4, 100), [5e-324, 1e-4])
    )
    mags = mags[mags > 0.0]
    with mp.workdps(40):
        for kernel, (circular, hyperbolic) in MPMATH_REFERENCE.items():
            for w in np.concatenate((mags, -mags)):
                got = kernel(w)
                s = mp.sqrt(abs(mp.mpf(w)))
                want = circular(s) if w > 0.0 else hyperbolic(s)
                assert abs(got - want) <= 4.0 * 2.0**-53 * abs(want), (kernel, w, got)


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
    # both sides of the sign split, the non-finite inputs, and
    # cosh(1000) overflowing to inf
    extra = [np.inf, -np.inf, np.nan, -1e6]
    points = np.concatenate((WIDE, EDGES, extra))
    with np.errstate(over="ignore"):
        want = kernel(points)
        for w, ref in zip(points, want):
            for arg in (float(w), np.float64(w), np.array(w)):
                got = kernel(arg)
                assert type(got) is float, (w, type(arg))
                assert _bits(got) == _bits(ref), (w, got, ref)


def _by_sign(circular, hyperbolic):
    """Every branch on the whole array, picked by np.where: the kernels'
    branch formulas written out once more as the elementwise reference."""

    def reference(w):
        sp = np.sqrt(np.maximum(w, 0.0))
        sn = np.sqrt(np.maximum(-w, 0.0))
        return np.where(w > 0.0, circular(sp), np.where(w < 0.0, hyperbolic(sn), w + 1.0))

    return reference


WHERE_REFERENCE = {
    cos_sqrt: _by_sign(np.cos, np.cosh),
    sinc_sqrt: _by_sign(lambda s: np.sin(s) / s, lambda s: np.sinh(s) / s),
    tanc_sqrt: _by_sign(lambda s: np.tan(s) / s, lambda s: np.tanh(s) / s),
}


def _mixed_points():
    """All three branches shuffled together, with both sides of the sign
    split, points near 0, NaN and +-inf."""
    rng = np.random.default_rng(41)
    points = np.concatenate(
        (
            WIDE,
            rng.uniform(-3e-6, 3e-6, 40),
            EDGES,
            [np.nan, np.inf, -np.inf, np.nan],
        )
    )
    rng.shuffle(points)
    return points


MIXED = _mixed_points()
ARRAYS = {
    "mixed": MIXED,
    "mixed-2d": MIXED[: MIXED.size // 4 * 4].reshape(-1, 4),
    "circular-only": MIXED[MIXED > 0.0],
    "hyperbolic-only": MIXED[MIXED < 0.0].reshape(1, -1),
    # w = +-0 and NaN
    "constant-only": MIXED[~(MIXED > 0.0) & ~(MIXED < 0.0)],
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
