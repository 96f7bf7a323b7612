"""Reference figures for README.md: single-call costs of each stack layer,
sweep_ladder with two worker threads against serial, and the cost of
the RK4 oracle that the tests compare against (never timed by run.py).

    python3 perfbench/figures.py

Each figure is the median of several timed repeats after one warm-up
call; the spread printed beside it is the quartile distance as a share
of the median.
"""

import statistics
import time

import numpy as np

import run
import workloads

REPEATS = 15


def timed(fn, inner):
    fn()
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter() - t0) / inner)
    q1, med, q3 = statistics.quantiles(samples, n=4)
    return med, (q3 - q1) / med


def main():
    lib, import_s = run._import_library()
    spec = lib.core.DoubleLayerSpec.make(*workloads.realize(
        workloads.FAMILIES["deep-double-well"], 1.0))
    problem = lib.bound.build_chi_problem(spec)
    ladder = lib.bound.find_roots(problem)
    ks = np.linspace(0.2, 3.0, 1000)
    family = lib.squeeze.SqueezeFamily(*workloads.FAMILIES["deep-double-well"])
    grid = lib.squeeze.eps_log_grid(1.0, 1e-6, 6)
    cases = [
        ("cos_sqrt on one float", lambda: lib.kernels.cos_sqrt(0.7), 2000),
        ("scattering_data, one k", lambda: lib.xfer.scattering_data(spec, 1.0), 500),
        ("amplitude_grid, 1000 k", lambda: lib.xfer.amplitude_grid(spec, ks), 100),
        ("find_roots, deep two-well spec", lambda: lib.bound.find_roots(problem), 20),
        ("verify_ladder, same spec", lambda: lib.bound.verify_ladder(spec, ladder), 20),
        (f"sweep_ladder, deep family, {grid.size} eps, serial",
         lambda: lib.squeeze.sweep_ladder(family, grid), 2),
        (f"sweep_ladder, deep family, {grid.size} eps, workers=2",
         lambda: lib.squeeze.sweep_ladder(family, grid, workers=2), 2),
        ("RK4 oracle scatter_grid, 50 k",
         lambda: lib.oracle.scatter_grid(spec, np.linspace(0.15, 3.0, 50)), 2),
    ]
    print(f"import of bilayer1d with numpy and scipy: {import_s * 1e3:.0f} ms (one run)")
    for name, fn, inner in cases:
        med, spread = timed(fn, inner)
        unit, scale = ("ms", 1e3) if med >= 1e-3 else ("us", 1e6)
        print(f"| {name} | {med * scale:.3g} {unit} | {spread * 100:.0f}% |")


if __name__ == "__main__":
    main()
