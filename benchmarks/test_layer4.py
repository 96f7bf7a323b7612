"""Layer 4 of the stack: the ladder search and its certificate.

    python -m pytest benchmarks/ --benchmark-only       # time them
    python -m pytest benchmarks/ --benchmark-disable    # run each once, as a test

Times find_roots and verify_ladder on three fixed structures whose ladders
hold 1, 6 and 33 levels: a well of width 1.5 whose phase sqrt(-V) * l is
(n - 1/2) pi, beside a barrier behind a gap, as in the benchmark's ladders
workload.  On the same structures it times the two kernels a level costs:
the Pruefer phase _phase on a fixed list of KAPPAS decay rates, and one
Brent refinement of the deepest level on G - j * pi.  Needs
pytest-benchmark; the Tier-1 suite, whose testpaths are tests/, does not
collect this folder.
"""

import math

import pytest

from bilayer1d import DoubleLayerSpec, bound, build_chi_problem, find_roots, verify_ladder

LEVELS = (1, 6, 33)
# decay rates per _phase timing, spread evenly over (0, sqrt(-V))
KAPPAS = 64


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


@pytest.mark.parametrize("n", LEVELS)
def test_phase(benchmark, n):
    spec = _structure(n)
    p = bound._params(spec)
    top = math.sqrt(-spec.v1)
    kappas = [top * (i + 0.5) / KAPPAS for i in range(KAPPAS)]
    phase = bound._phase

    def run():
        return [phase(p, k) for k in kappas]

    g = benchmark(run)
    # N(kappa) counts the levels of the ladder with decay rate at least kappa
    levels = find_roots(build_chi_problem(spec)).kappas
    counts = [bound._count(k, x) for k, x in zip(kappas, g)]
    assert counts == [sum(level >= k for level in levels) for k in kappas]
    assert counts[0] == n


@pytest.mark.parametrize("n", LEVELS)
def test_brent_refinement(benchmark, n):
    # the deepest level, bracketed halfway to its neighbour and to sqrt(-V)
    spec = _structure(n)
    p = bound._params(spec)
    kappas = find_roots(build_chi_problem(spec)).kappas
    level, below = kappas[-1], (kappas[-2] if n > 1 else 0.0)
    a, b = 0.5 * (below + level), 0.5 * (level + math.sqrt(-spec.v1))
    j = bound._count(b, bound._phase(p, b)) * math.pi
    fa, fb = bound._phase(p, a) - j, bound._phase(p, b) - j
    root = benchmark(bound.brentq, lambda k: bound._phase(p, k) - j, a, fa, b, fb)
    assert root == pytest.approx(level, rel=1e-14)
