"""Layers 2 and 3 of the stack: the propagator entries and the amplitudes.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times matrix_entries on 1500 energies of both signs, amplitude_grid on
1500 wavenumbers by both routes, and one scalar scattering_data, on a
barrier and a well behind a gap.  Needs pytest-benchmark; the Tier-1
suite, whose testpaths are tests/, does not collect this folder.
"""

import numpy as np
import pytest

from bilayer1d import DoubleLayerSpec, amplitude_grid, matrix_entries, scattering_data

SPEC = DoubleLayerSpec.make(4.0, 0.8, -6.0, 1.2, 0.5)
K2 = np.linspace(-5.0, 10.0, 1500)
KS = np.linspace(0.05, 5.0, 1500)


def test_matrix_entries(benchmark):
    l11, l12, l21, l22 = benchmark(matrix_entries, SPEC, K2)
    assert np.max(np.abs(l11 * l22 - l12 * l21 - 1.0)) < 1e-10


@pytest.mark.parametrize("method", ["closed", "matrix"])
def test_amplitude_grid(benchmark, method):
    a, _ = benchmark(amplitude_grid, SPEC, KS, method=method)
    closed, _ = amplitude_grid(SPEC, KS)
    assert a.shape == KS.shape
    assert np.max(np.abs(a - closed) / np.abs(closed)) < 1e-10


def test_scattering_data(benchmark):
    data = benchmark(scattering_data, SPEC, 1.3)
    assert abs(data.a) >= 1.0
