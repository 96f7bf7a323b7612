"""Layer 4 of the stack: the ladder search and its certificate.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times find_roots and verify_ladder on three fixed structures whose ladders
hold 1, 6 and 33 levels: a well of width 1.5 whose phase sqrt(-V) * l is
(n - 1/2) pi, beside a barrier behind a gap, as in the benchmark's ladders
workload.  Needs pytest-benchmark; the Tier-1 suite, whose testpaths are
tests/, does not collect this folder.
"""

import math

import pytest

from bilayer1d import DoubleLayerSpec, build_chi_problem, find_roots, verify_ladder

LEVELS = (1, 6, 33)


def _structure(n):
    return DoubleLayerSpec.make(-(((n - 0.5) * math.pi / 1.5) ** 2), 1.5, 4.0, 0.5, 0.4)


@pytest.mark.parametrize("n", LEVELS)
def test_find_roots(benchmark, n):
    problem = build_chi_problem(_structure(n))
    assert benchmark(find_roots, problem).n == n


@pytest.mark.parametrize("n", LEVELS)
def test_verify_ladder(benchmark, n):
    spec = _structure(n)
    ladder = find_roots(build_chi_problem(spec))
    assert ladder.n == n
    assert benchmark(verify_ladder, spec, ladder).ok
