"""Layer 1 of the stack: the branch-free kernels.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times cos_sqrt, sinc_sqrt and tanc_sqrt on 10**3 and 10**6 arguments w,
all positive (the circular branch), all negative (the hyperbolic one) and
of mixed sign (both, each on its own elements), with |w| <= 400 so that
no value overflows.  Needs pytest-benchmark; the Tier-1 suite, whose
testpaths are tests/, does not collect this folder.
"""

import numpy as np
import pytest

from bilayer1d import kernels

ARGUMENTS = {
    "positive": lambda n: np.linspace(1e-3, 400.0, n),
    "negative": lambda n: np.linspace(-400.0, -1e-3, n),
    "mixed": lambda n: np.linspace(-400.0, 400.0, n),
}


def _reference(name, w):
    """The kernel from numpy's complex sqrt, cos, sin and tan."""
    s = np.sqrt(w.astype(complex))
    return {"cos_sqrt": np.cos(s), "sinc_sqrt": np.sin(s) / s, "tanc_sqrt": np.tan(s) / s}[name].real


@pytest.mark.parametrize("size", [10**3, 10**6])
@pytest.mark.parametrize("sign", list(ARGUMENTS))
@pytest.mark.parametrize("name", ["cos_sqrt", "sinc_sqrt", "tanc_sqrt"])
def test_kernel(benchmark, name, sign, size):
    w = ARGUMENTS[sign](size)
    out = benchmark(getattr(kernels, name), w)
    assert out.shape == w.shape
    # a thousand values, so that a run once stays short
    sample = slice(None, None, max(1, size // 1000))
    want = _reference(name, w[sample])
    assert np.allclose(out[sample], want, rtol=1e-9, atol=1e-12)
