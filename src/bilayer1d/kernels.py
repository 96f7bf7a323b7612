"""Branch-free trigonometric kernels.

Even combinations of trig functions written as functions of the squared
argument w.  For w > 0 they are the ordinary circular functions of sqrt(w),
for w < 0 they turn into the hyperbolic ones of sqrt(-w).  The direct
formulas hold to about 2 ulp right down to the smallest subnormal w, so
no series is needed near w = 0.  Evaluating propagators through these
kernels keeps every matrix entry real when the local momentum squared
changes sign, with no complex square roots and no branch cuts.

Each kernel writes its two branches once and evaluates a branch only
where it applies.  An array is split by the sign of w: each branch runs
on the elements that take it, and when every element takes the same
branch (the common case on the bound half line) it runs once on the
whole array.  Zero and NaN share one constant branch, x + 1, which gives
1 at 0 and keeps NaN.  A scalar goes the same way as a 0-d array and
comes back as a Python float.
"""

import numpy as np


def _branches(x, *cases):
    """Elementwise branch choice over the float array x.

    cases are (mask, formula) pairs whose masks split x, each element in
    exactly one.  A formula sees only its own elements, so an untaken
    branch neither costs nor warns, and a branch that takes every element
    runs once on x itself.  A 0-d x gives a Python float.
    """
    # count_nonzero costs a fraction of mask.all() on short arrays
    counts = [np.count_nonzero(mask) for mask, _ in cases]
    with np.errstate(divide="ignore", invalid="ignore"):
        for (mask, formula), n in zip(cases, counts):
            if n == x.size:
                out = formula(x)
                break
        else:
            out = np.empty_like(x)
            for (mask, formula), n in zip(cases, counts):
                if n:
                    out[mask] = formula(x[mask])
    return out if out.ndim else float(out)


def _dispatch(w, circular, hyperbolic):
    w = np.asarray(w, dtype=float)
    up, down = w > 0.0, w < 0.0
    return _branches(
        w,
        (up, lambda x: circular(np.sqrt(x))),
        (down, lambda x: hyperbolic(np.sqrt(-x))),
        # w = +-0 and NaN: 1 at zero, NaN kept
        (~(up | down), lambda x: x + 1.0),
    )


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
