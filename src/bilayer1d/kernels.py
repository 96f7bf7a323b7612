"""Branch-free trigonometric kernels.

Even combinations of trig functions written as functions of the squared
argument w.  For w > 0 they are the ordinary circular functions of sqrt(w),
for w < 0 they turn into the hyperbolic ones of sqrt(-w).  The direct
formulas hold to about 2 ulp right down to the smallest subnormal w, so
no series is needed near w = 0.  Evaluating propagators through these
kernels keeps every matrix entry real when the local momentum squared
changes sign, with no complex square roots and no branch cuts.

Each kernel writes its two branches once and evaluates a branch only on
the elements that take it, so an untaken branch neither costs nor warns.
Zero and NaN keep the constant x + 1, which gives 1 at 0 and keeps NaN.
A scalar goes the same way as a 0-d array and comes back as a Python
float.
"""

import numpy as np


def _dispatch(w, circular, hyperbolic):
    w = np.asarray(w, dtype=float)
    # w = +-0 and NaN: 1 at zero, NaN kept
    out = np.add(w, 1.0, out=np.empty_like(w))
    up, down = w > 0.0, w < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        out[up] = circular(np.sqrt(w[up]))
        out[down] = hyperbolic(np.sqrt(-w[down]))
    return out if out.ndim else float(out)


def cos_sqrt(w):
    """cos(sqrt(w)), continued to cosh(sqrt(-w)) for negative w."""
    return _dispatch(w, np.cos, np.cosh)


def sinc_sqrt(w):
    """sin(sqrt(w))/sqrt(w), continued to sinh(sqrt(-w))/sqrt(-w)."""
    return _dispatch(w, lambda s: np.sin(s) / s, lambda s: np.sinh(s) / s)


def tanc_sqrt(w):
    """tan(sqrt(w))/sqrt(w), continued to tanh(sqrt(-w))/sqrt(-w).

    Has poles where cos(sqrt(w)) = 0 (w > 0 only); callers that scan
    through such points must treat them as interval boundaries.
    """
    return _dispatch(w, lambda s: np.tan(s) / s, lambda s: np.tanh(s) / s)
