"""Branch-free trigonometric kernels.

Even combinations of trig functions written as functions of the squared
argument w.  For w > 0 they are the ordinary circular functions of sqrt(w),
for w < 0 they turn into the hyperbolic ones of sqrt(-w), with a short
Taylor series bridging w = 0.  Evaluating propagators through these kernels
keeps every matrix entry real when the local momentum squared changes sign,
with no complex square roots and no branch cuts.

Each kernel writes its three branches once.  Arrays evaluate all of them
and pick elementwise; a finite scalar (Python float, numpy scalar or 0-d
array) tests the cutoffs once, evaluates only the branch that applies and
returns a Python float bit-identical to the array element.  Non-finite
scalars take the array path, so they warn exactly as arrays do.
"""

import math

import numpy as np

# below this the direct formulas lose digits to cancellation; the 4-term
# series is exact to ~1e-26 there
SERIES_CUTOFF = 1e-6
# tanhc switches to its series below this |z|
_TANHC_CUTOFF = 1e-4


def _finite_scalar(x):
    """x as a Python float when it is a finite scalar, else None."""
    # isinstance first: np.ndim of a Python float costs a 0-d array
    if isinstance(x, float) or np.ndim(x) == 0:
        x = float(x)
        if math.isfinite(x):
            return x
    return None


def _dispatch(w, circular, hyperbolic, series):
    x = _finite_scalar(w)
    if x is not None:
        # math.sqrt is correctly rounded, like np.sqrt
        if x >= SERIES_CUTOFF:
            return float(circular(math.sqrt(x)))
        if x <= -SERIES_CUTOFF:
            return float(hyperbolic(math.sqrt(-x)))
        return float(series(x))
    w = np.asarray(w, dtype=float)
    sp = np.sqrt(np.maximum(w, 0.0))
    sn = np.sqrt(np.maximum(-w, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            w >= SERIES_CUTOFF,
            circular(sp),
            np.where(w <= -SERIES_CUTOFF, hyperbolic(sn), series(w)),
        )
    return out if out.ndim else float(out)


def cos_sqrt(w):
    """cos(sqrt(w)), continued to cosh(sqrt(-w)) for negative w."""
    return _dispatch(
        w,
        np.cos,
        np.cosh,
        lambda w: 1.0 - w / 2.0 + w * w / 24.0 - w * w * w / 720.0,
    )


def sinc_sqrt(w):
    """sin(sqrt(w))/sqrt(w), continued to sinh(sqrt(-w))/sqrt(-w)."""
    return _dispatch(
        w,
        lambda s: np.sin(s) / s,
        lambda s: np.sinh(s) / s,
        lambda w: 1.0 - w / 6.0 + w * w / 120.0 - w * w * w / 5040.0,
    )


def tanc_sqrt(w):
    """tan(sqrt(w))/sqrt(w), continued to tanh(sqrt(-w))/sqrt(-w).

    Has poles where cos(sqrt(w)) = 0 (w > 0 only); callers that scan
    through such points must treat them as interval boundaries.
    """
    return _dispatch(
        w,
        lambda s: np.tan(s) / s,
        lambda s: np.tanh(s) / s,
        lambda w: 1.0 + w / 3.0 + 2.0 * w * w / 15.0 + 17.0 * w * w * w / 315.0,
    )


def _tanhc_direct(z):
    return np.tanh(z) / z


def _tanhc_series(z):
    z2 = z * z
    return 1.0 - z2 / 3.0 + 2.0 * z2 * z2 / 15.0


def tanhc(z):
    """tanh(z)/z for real z, finite and equal to 1 at z = 0."""
    x = _finite_scalar(z)
    if x is not None:
        if abs(x) >= _TANHC_CUTOFF:
            return float(_tanhc_direct(x))
        return _tanhc_series(x)
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            np.abs(z) >= _TANHC_CUTOFF, _tanhc_direct(z), _tanhc_series(z)
        )
    return out if out.ndim else float(out)
